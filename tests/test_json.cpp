#include "common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dsml::json {
namespace {

// --- Writer -----------------------------------------------------------------

TEST(JsonWriter, EmitsNestedStructureWithDeterministicLayout) {
  Writer w;
  w.begin_object()
      .field("schema", "dsml-bench-ml/v1")
      .field("threads", 4)
      .field("fast", false)
      .key("sections")
      .begin_object()
      .key("gemm")
      .begin_object()
      .field("speedup", 1.5)
      .field("equivalent", true)
      .end_object()
      .end_object()
      .key("folds")
      .begin_array()
      .value(1.25)
      .value(2.5)
      .end_array()
      .end_object();
  const std::string text = w.str();
  const Value v = Value::parse(text);
  EXPECT_EQ(v.at("schema").as_string(), "dsml-bench-ml/v1");
  EXPECT_EQ(v.at("threads").as_number(), 4.0);
  EXPECT_FALSE(v.at("fast").as_bool());
  EXPECT_TRUE(v.at("sections").at("gemm").at("equivalent").as_bool());
  EXPECT_EQ(v.at("folds").items().size(), 2u);
  EXPECT_EQ(v.at("folds").items()[1].as_number(), 2.5);
  // Field order is insertion order, so the report diff is stable.
  EXPECT_EQ(v.fields().front().first, "schema");
}

TEST(JsonWriter, NumbersRoundTripAtFullPrecision) {
  const double values[] = {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789,
                           -0.0};
  for (double x : values) {
    Writer w;
    w.begin_object().field("x", x).end_object();
    const Value v = Value::parse(w.str());
    EXPECT_EQ(v.at("x").as_number(), x);
  }
}

// Regression: non-finite doubles used to silently become null, so a NaN
// entry changed type on disk and a reader compared against it blindly.
// They now round-trip as numbers via string sentinels.
TEST(JsonWriter, NonFiniteRoundTripsViaSentinels) {
  Writer w;
  w.begin_object()
      .field("nan", std::nan(""))
      .field("inf", std::numeric_limits<double>::infinity())
      .field("ninf", -std::numeric_limits<double>::infinity())
      .end_object();
  const Value v = Value::parse(w.str());
  EXPECT_EQ(v.at("nan").type(), Value::Type::kNumber);
  EXPECT_TRUE(std::isnan(v.at("nan").as_number()));
  EXPECT_EQ(v.at("inf").as_number(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(v.at("ninf").as_number(),
            -std::numeric_limits<double>::infinity());
}

TEST(JsonWriter, FormatNumberEmitsSentinelStrings) {
  EXPECT_EQ(format_number(std::nan("")), "\"NaN\"");
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()),
            "\"Infinity\"");
  EXPECT_EQ(format_number(-std::numeric_limits<double>::infinity()),
            "\"-Infinity\"");
}

// The sentinel mapping applies to string *values* only: object keys named
// "NaN" stay keys, and the reserved strings parse back as numbers even when
// written via value(string_view).
TEST(JsonParser, SentinelStringsParseAsNumbers) {
  const Value v = Value::parse(R"({"NaN": ["NaN", "Infinity", "ok"]})");
  const auto& items = v.at("NaN").items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_TRUE(std::isnan(items[0].as_number()));
  EXPECT_EQ(items[1].as_number(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(items[2].as_string(), "ok");
}

TEST(JsonWriter, EscapesStrings) {
  Writer w;
  w.begin_object().field("s", "a\"b\\c\n\t").end_object();
  const Value v = Value::parse(w.str());
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\n\t");
}

TEST(JsonWriter, MisuseThrowsStateError) {
  {
    Writer w;
    w.begin_object();
    EXPECT_THROW(w.value(1.0), StateError);  // value without key
  }
  {
    Writer w;
    w.begin_array();
    EXPECT_THROW(w.str(), StateError);  // still open
  }
  {
    Writer w;
    EXPECT_THROW(w.end_object(), StateError);  // nothing to close
  }
}

// --- Parser -----------------------------------------------------------------

TEST(JsonParser, ParsesScalarsAndContainers) {
  const Value v = Value::parse(
      R"({"a": [1, -2.5, true, false, null, "xA"], "b": {"c": 3e2}})");
  const auto& items = v.at("a").items();
  ASSERT_EQ(items.size(), 6u);
  EXPECT_EQ(items[0].as_number(), 1.0);
  EXPECT_EQ(items[1].as_number(), -2.5);
  EXPECT_TRUE(items[2].as_bool());
  EXPECT_FALSE(items[3].as_bool());
  EXPECT_TRUE(items[4].is_null());
  EXPECT_EQ(items[5].as_string(), "xA");
  EXPECT_EQ(v.at("b").at("c").as_number(), 300.0);
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("missing"));
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(Value::parse(""), IoError);
  EXPECT_THROW(Value::parse("{"), IoError);
  EXPECT_THROW(Value::parse("[1,]"), IoError);
  EXPECT_THROW(Value::parse("{\"a\": 1} trailing"), IoError);
  EXPECT_THROW(Value::parse("{'a': 1}"), IoError);
  EXPECT_THROW(Value::parse("nul"), IoError);
  // Nesting past kMaxDepth is a parse error naming the offset, not a stack
  // overflow: one request line may hold 200 000 of either opener.
  try {
    Value::parse(std::string(200000, '['));
    ADD_FAILURE() << "200 000 '[' parsed";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << e.what();
  }
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"a\":";
  EXPECT_THROW(Value::parse(objects), IoError);
}

TEST(JsonParser, TypeMismatchThrows) {
  const Value v = Value::parse(R"({"n": 5})");
  EXPECT_THROW(v.at("n").as_string(), IoError);
  EXPECT_THROW(v.at("n").items(), IoError);
  EXPECT_THROW(v.at("missing"), IoError);
  EXPECT_THROW(Value::parse("[1]").at("k"), IoError);
}

// Number tokens go through std::from_chars, with strtod deciding every
// token from_chars rejects; the value must be strtod's either way.
TEST(JsonParser, NumberTokensParseToStrtodBits) {
  const std::vector<std::string> tokens = {
      "0", "-0", "5", "-5", "+5", ".5", "5.", "0.1", "-2.5e-3", "3E2",
      "1e999", "-1e999", "1e-400", "4.9406564584124654e-324",
      "2.2250738585072011e-308", "1.7976931348623157e308", "1e23",
      "9007199254740993", "123456789012345678901234567890",
      "0.30000000000000004"};
  for (const std::string& token : tokens) {
    const double want = std::strtod(token.c_str(), nullptr);
    for (const std::string& doc : {token, "[" + token + "]"}) {
      const Value v = Value::parse(doc);
      const double got =
          v.type() == Value::Type::kArray ? v.items()[0].as_number()
                                          : v.as_number();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << doc;
    }
  }
  // The non-finite sentinels are strings, mapped to strtod's values.
  for (const char* sentinel : {"Infinity", "-Infinity", "NaN"}) {
    const Value v = Value::parse(std::string("\"") + sentinel + "\"");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.as_number()),
              std::bit_cast<std::uint64_t>(std::strtod(sentinel, nullptr)))
        << sentinel;
  }
}

TEST(JsonParser, MalformedNumbersStillRejected) {
  for (const char* token : {"1e", "--1", "-", "0x10", "1e+", "1.5e-3-2"}) {
    EXPECT_THROW(Value::parse(token), IoError) << token;
    EXPECT_THROW(Value::parse(std::string("[") + token + "]"), IoError)
        << token;
  }
}

std::string printf_g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// format_number uses std::to_chars at general precision 17, which the
// standard defines as printf's "%.17g"; pin that on random bit patterns
// (every exponent range, denormals included) and the boundary values.
TEST(JsonWriter, FormatNumberMatchesPrintfG17) {
  const double edges[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          DBL_MIN,
                          DBL_MAX,
                          -DBL_MAX,
                          1.0,
                          0.1,
                          1e21,
                          1e-7,
                          123456789012345678.0};
  for (const double v : edges) EXPECT_EQ(format_number(v), printf_g17(v));

  Rng rng(20261017);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  while (checked < 1'000'000) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    ++checked;
    if (format_number(v) != printf_g17(v) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": " << format_number(v) << " vs " << printf_g17(v);
    }
  }
  // Short decimals and integers, the values requests and answers carry.
  for (int i = -20000; i <= 20000; ++i) {
    for (const double v : {i / 1000.0, i * 1024.0, i * 0.1}) {
      if (format_number(v) != printf_g17(v) && ++mismatches <= 5) {
        ADD_FAILURE() << format_number(v) << " vs " << printf_g17(v);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonParser, ParseFileErrorsOnMissingPath) {
  EXPECT_THROW(Value::parse_file("/no/such/dir/bench.json"), IoError);
}

TEST(JsonWriter, CompactModeEmitsOneLine) {
  Writer w(/*compact=*/true);
  w.begin_object();
  w.field("ok", true);
  w.key("predictions").begin_array().value(1.5).null().end_array();
  w.field("model", "gcc");
  w.end_object();
  const std::string doc = w.str();
  // Exactly one trailing newline — the JSON-lines framing contract.
  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.back(), '\n');
  EXPECT_EQ(doc.find('\n'), doc.size() - 1);
  EXPECT_EQ(doc, "{\"ok\":true,\"predictions\":[1.5,null],\"model\":\"gcc\"}\n");
  // And it round-trips through the parser.
  const Value v = Value::parse(doc);
  EXPECT_TRUE(v.at("ok").as_bool());
  EXPECT_TRUE(v.at("predictions").items()[1].is_null());
}

}  // namespace
}  // namespace dsml::json
