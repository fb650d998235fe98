// serve-small: one LineClient in a closed loop against a `dsml serve
// --listen` child (started and pinned by run.py), sending the next 4-row
// request as soon as the previous answer arrives. Request lines are built
// before the window opens; every response is kept and checked afterwards
// against in-process Regressor::predict. The traced run replays the same
// lines through engine::ServeHandler::handle and through its stages one by
// one.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <numeric>
#include <unordered_set>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "engine/design_space.hpp"
#include "engine/registry.hpp"
#include "engine/serve.hpp"
#include "engine/session.hpp"
#include "harness.hpp"
#include "ml/serialize.hpp"
#include "net/client.hpp"

namespace perfbench {

namespace engine = dsml::engine;
namespace json = dsml::json;

namespace {

constexpr std::size_t kRowsPerRequest = 4;
constexpr std::size_t kPoolRequests = 256;
constexpr std::size_t kWarmupRequests = 50;
constexpr std::size_t kReplayRequests = 20'000;
constexpr const char* kModel = "applu";

struct Request {
  std::string line;
  std::vector<std::size_t> rows;  ///< design-space rows, in request order
};

/// kPoolRequests requests of kRowsPerRequest consecutive design-space rows,
/// starting at a row offset chosen by the seed.
std::vector<Request> build_requests(std::uint64_t seed) {
  const engine::Schema& schema = engine::design_space_schema();
  const dsml::data::Dataset& space = engine::design_space_dataset();
  const std::size_t offset = (seed * 997) % space.n_rows();
  std::vector<Request> pool(kPoolRequests);
  for (std::size_t j = 0; j < kPoolRequests; ++j) {
    json::Writer w(/*compact=*/true);
    w.begin_object().field("model", kModel);
    w.key("rows").begin_array();
    for (std::size_t r = 0; r < kRowsPerRequest; ++r) {
      const std::size_t row =
          (offset + j * kRowsPerRequest + r) % space.n_rows();
      pool[j].rows.push_back(row);
      w.begin_object();
      for (const engine::SchemaColumn& c : schema.columns()) {
        const dsml::data::Column& col = space.feature(c.name);
        switch (c.kind) {
          case dsml::data::ColumnKind::kNumeric:
            w.field(c.name, col.numeric_at(row));
            break;
          case dsml::data::ColumnKind::kFlag:
            w.field(c.name, col.code_at(row) != 0);
            break;
          case dsml::data::ColumnKind::kCategorical:
            w.field(c.name, std::string_view(col.label_at(row)));
            break;
        }
      }
      w.end_object();
    }
    w.end_array().end_object();
    pool[j].line = w.str();
    pool[j].line.pop_back();  // Writer newline-terminates; LineClient frames
  }
  return pool;
}

/// The closed loop's record, one entry per answered request.
struct Loop {
  std::vector<double> latency_us;  ///< ascending once the loop is done
  std::vector<std::uint32_t> sent;  ///< pool index of each response
  std::vector<std::string> responses;
  std::string transport_error;  ///< set when the connection broke
  double window_s = 0.0;
  double cpu_frac = 0.0;  ///< client CPU time over the window
};

std::unique_ptr<dsml::net::LineClient> connect_and_warm(
    const Args& args, const std::vector<Request>& pool) {
  auto client = std::make_unique<dsml::net::LineClient>("127.0.0.1", args.port);
  for (std::size_t k = 0; k < kWarmupRequests; ++k) {
    const std::string response = client->request(pool[k % pool.size()].line);
    if (response.rfind("{\"ok\":true", 0) != 0) {
      throw dsml::StateError("warm-up request failed: " + response);
    }
  }
  return client;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Sends the pool's requests one after another, each as soon as the
/// previous answer arrives, until `args.seconds` have passed.
Loop closed_loop(const Args& args, const std::vector<Request>& pool) {
  const std::unique_ptr<dsml::net::LineClient> client =
      connect_and_warm(args, pool);
  Loop loop;
  const auto expected = static_cast<std::size_t>(args.seconds * 20'000);
  loop.latency_us.reserve(expected);
  loop.sent.reserve(expected);
  loop.responses.reserve(expected);
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  try {
    for (std::size_t k = 0;; ++k) {
      const std::size_t j = k % pool.size();
      const auto t0 = Clock::now();
      std::string response = client->request(pool[j].line);
      const auto t1 = Clock::now();
      loop.latency_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      loop.sent.push_back(static_cast<std::uint32_t>(j));
      loop.responses.push_back(std::move(response));
      if (t1 >= deadline) break;
    }
  } catch (const std::exception& e) {
    loop.transport_error = e.what();
  }
  loop.window_s = seconds_since(start);
  loop.cpu_frac = (cpu_seconds() - cpu0) / loop.window_s;
  std::sort(loop.latency_us.begin(), loop.latency_us.end());
  return loop;
}

/// True when `response` is a successful answer whose predictions equal
/// `expected` bit for bit.
bool response_matches(const std::string& response,
                      const std::vector<double>& expected) {
  try {
    const json::Value v = json::Value::parse(response);
    if (!v.contains("ok") || !v.at("ok").as_bool()) return false;
    if (v.at("model").as_string() != kModel) return false;
    const std::vector<json::Value>& got = v.at("predictions").items();
    if (got.size() != expected.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(got[i].as_number()) !=
          std::bit_cast<std::uint64_t>(expected[i])) {
        return false;
      }
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Checks every stored response against in-process Regressor::predict on
/// the request's rows. Identical responses to one request are parsed once.
void verify_responses(const std::vector<Request>& pool, const Loop& loop,
                      Result& result) {
  const std::unique_ptr<dsml::ml::Regressor> model =
      dsml::ml::load_model(kModelPath);
  const dsml::data::Dataset& space = engine::design_space_dataset();
  std::vector<std::vector<double>> expected(pool.size());
  for (std::size_t j = 0; j < pool.size(); ++j) {
    expected[j] = model->predict(space.select_rows(pool[j].rows));
  }
  std::vector<std::string> verified(pool.size());
  std::uint64_t mismatched = 0;
  for (std::size_t k = 0; k < loop.responses.size(); ++k) {
    const std::size_t j = loop.sent[k];
    const std::string& response = loop.responses[k];
    if (!verified[j].empty() && response == verified[j]) continue;
    if (response_matches(response, expected[j])) {
      verified[j] = response;
    } else {
      if (mismatched == 0) {
        result.check(false, "response to request " + std::to_string(j) +
                                " differs from in-process predict: " +
                                response);
      }
      ++mismatched;
    }
  }
  const bool broke = !loop.transport_error.empty();
  result.check(!broke, "connection failed: " + loop.transport_error);
  result.attempted += loop.responses.size() + (broke ? 1 : 0);
  result.failed += mismatched + (broke ? 1 : 0);
}

/// Per-row cells in schema order, converted the way the serve handler
/// converts JSON row objects: unknown keys rejected through a name set, then
/// each schema column looked up by name.
std::vector<std::vector<std::string>> row_cells(const json::Value& request,
                                                const engine::Schema& schema) {
  std::unordered_set<std::string_view> known;
  known.reserve(schema.size());
  for (const engine::SchemaColumn& c : schema.columns()) known.insert(c.name);
  std::vector<std::vector<std::string>> cells;
  for (const json::Value& row : request.at("rows").items()) {
    for (const auto& field : row.fields()) {
      if (known.count(field.first) == 0) {
        throw dsml::InvalidArgument("unknown column " + field.first);
      }
    }
    std::vector<std::string>& out = cells.emplace_back();
    out.reserve(schema.size());
    for (const engine::SchemaColumn& c : schema.columns()) {
      if (!row.contains(c.name)) {
        throw dsml::InvalidArgument("missing column " + c.name);
      }
      const json::Value& v = row.at(c.name);
      switch (c.kind) {
        case dsml::data::ColumnKind::kNumeric: {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.17g", v.as_number());
          out.emplace_back(buf);
          break;
        }
        case dsml::data::ColumnKind::kFlag:
          out.emplace_back(v.as_bool() ? "1" : "0");
          break;
        case dsml::data::ColumnKind::kCategorical:
          out.push_back(v.as_string());
          break;
      }
    }
  }
  return cells;
}

double p50(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 0.5);
}

/// In-process replay of the pool. Each request goes through
/// ServeHandler::handle as a whole and then through its stages one by one,
/// back to back, so both see the same machine state; the staged response
/// must equal handle()'s. Blocks of untimed handle() calls, interleaved
/// with the timed ones, give the per-call timing overhead.
void replay_in_process(const std::vector<Request>& pool, double e2e_p50_us,
                       Result& result) {
  engine::ModelRegistry registry;
  registry.load_file(kModel, kModelPath, engine::design_space_schema());
  engine::ServeHandler handler(registry);
  engine::InferenceSession session(registry, kModel);

  constexpr std::size_t kBlock = 1000;
  std::vector<double> handle_us, parse_us, schema_us, predict_us, encode_us;
  double untimed_s = 0.0;
  std::uint64_t staged_mismatches = 0;
  const auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  for (std::size_t i = 0; i < kReplayRequests; ++i) {
    const std::string& line = pool[i % pool.size()].line;
    if (i % kBlock == 0) {
      const auto block = Clock::now();
      for (std::size_t k = 0; k < kBlock; ++k) handler.handle(line);
      untimed_s += seconds_since(block);
    }
    const auto h0 = Clock::now();
    const std::string answer = handler.handle(line);
    const auto h1 = Clock::now();

    const auto t0 = Clock::now();
    const json::Value request = json::Value::parse(line);
    const auto t1 = Clock::now();
    const std::shared_ptr<const engine::ModelEntry> entry =
        registry.get(request.at("model").as_string());
    const dsml::data::Dataset rows =
        entry->schema.dataset_from_rows(row_cells(request, entry->schema));
    const auto t2 = Clock::now();
    const std::vector<double> values = session.predict_detailed(rows).values;
    const auto t3 = Clock::now();
    json::Writer w(/*compact=*/true);
    w.begin_object()
        .field("ok", true)
        .field("model", request.at("model").as_string())
        .field("version", entry->version);
    w.key("predictions").begin_array();
    for (const double v : values) w.value(v);
    w.end_array().end_object();
    const std::string encoded = w.str();
    const auto t4 = Clock::now();

    handle_us.push_back(us(h0, h1));
    parse_us.push_back(us(t0, t1));
    schema_us.push_back(us(t1, t2));
    predict_us.push_back(us(t2, t3));
    encode_us.push_back(us(t3, t4));
    if (encoded != answer) ++staged_mismatches;
  }
  result.check(staged_mismatches == 0,
               std::to_string(staged_mismatches) +
                   " staged replay response(s) differ from handle()");

  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  // Means add up where medians do not: coverage compares the stages' total
  // time with handle()'s.
  const double coverage =
      (sum(parse_us) + sum(schema_us) + sum(predict_us) + sum(encode_us)) /
      sum(handle_us);
  const double overhead = sum(handle_us) / 1e6 / untimed_s;
  const double handle_p50 = p50(handle_us);
  const engine::SessionStats stats = session.stats();
  const std::uint64_t n = kReplayRequests;
  result.set("engine.handle_us", handle_p50, n);
  result.set("common.json_parse_us", p50(parse_us), n);
  result.set("engine.schema_us", p50(schema_us), n);
  result.set("engine.predict_us", p50(predict_us), n);
  result.set("common.json_encode_us", p50(encode_us), n);
  result.set("net.transport_us", e2e_p50_us - handle_p50);
  result.set("engine.rows_per_batch",
             stats.batches ? static_cast<double>(stats.rows) /
                                 static_cast<double>(stats.batches)
                           : 0.0);
  result.set("trace.overhead_ratio", overhead);
  result.set("trace.coverage", coverage);
  const auto fmt = [](double v) { return dsml::strings::format_double(v, 2); };
  result.notes.push_back(
      "serve split (p50 us): handle " + fmt(handle_p50) + " = parse " +
      fmt(percentile(parse_us, 0.5)) + " + schema " +
      fmt(percentile(schema_us, 0.5)) + " + predict " +
      fmt(percentile(predict_us, 0.5)) + " + encode " +
      fmt(percentile(encode_us, 0.5)) + "; transport " +
      fmt(e2e_p50_us - handle_p50));
}

}  // namespace

void setup_serve(const Args& args) {
  connect_and_warm(args, build_requests(args.seed));
}

Result run_serve(const Args& args) {
  Result result;
  if (args.port == 0) throw dsml::InvalidArgument("serve-small needs --port");
  const std::vector<Request> pool = build_requests(args.seed);
  const Loop loop = closed_loop(args, pool);
  verify_responses(pool, loop, result);
  const auto n = static_cast<std::uint64_t>(loop.latency_us.size());
  const double p50_us = percentile(loop.latency_us, 0.5);
  result.notes.push_back(
      "serve: 1 connection, " + std::to_string(kRowsPerRequest) +
      " rows/request, " + std::to_string(n) + " requests in " +
      dsml::strings::format_double(loop.window_s, 3) + " s, p50 " +
      dsml::strings::format_double(p50_us, 1) + " us, p99 " +
      dsml::strings::format_double(percentile(loop.latency_us, 0.99), 1) +
      " us");
  const auto rows = (result.attempted - result.failed) * kRowsPerRequest;
  result.notes.push_back(
      "serve: mean throughput " +
      dsml::strings::format_double(static_cast<double>(rows) / loop.window_s,
                                   0) +
      " rows/s (host stalls move the mean; items_per_s uses the p50)");
  if (!args.trace) {
    result.set("op_p50_ms", p50_us / 1e3, n);
    // Like the sweep's and the campaign's: items per median operation.
    result.set("items_per_s", kRowsPerRequest * 1e6 / p50_us, n);
    return result;
  }
  result.set("client.cpu_frac", loop.cpu_frac);
  replay_in_process(pool, p50_us, result);
  return result;
}

}  // namespace perfbench
