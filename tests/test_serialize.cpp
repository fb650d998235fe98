#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "ml/linreg.hpp"
#include "ml/model_zoo.hpp"
#include "ml/nn_models.hpp"

namespace dsml::ml {
namespace {

data::Dataset make_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<std::string> vendor(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = rng.uniform(0.0, 10.0);
    x2[i] = rng.uniform(0.0, 10.0);
    vendor[i] = rng.chance(0.5) ? "amd corp" : "intel corp";  // spaces!
    y[i] = 40.0 + 3.0 * x1[i] + x2[i] * x2[i] * 0.2 +
           (vendor[i][0] == 'a' ? 4.0 : 0.0) + rng.gaussian(0.0, 0.2);
  }
  data::Dataset ds;
  ds.add_feature(data::Column::numeric("x1", std::move(x1)));
  ds.add_feature(data::Column::numeric("x2", std::move(x2)));
  ds.add_feature(data::Column::categorical("vendor", std::move(vendor)));
  ds.set_target("y", std::move(y));
  return ds;
}

class SerializeModelTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SerializeModelTest, RoundTripPredictionsBitIdentical) {
  const data::Dataset train = make_data(80, 1);
  const data::Dataset test = make_data(30, 2);
  ZooOptions zoo;
  zoo.nn_epoch_scale = 0.25;
  auto model = make_model(GetParam(), zoo).make();
  model->fit(train);

  std::stringstream buffer;
  save_model(*model, buffer);
  const auto restored = load_model(buffer);

  ASSERT_TRUE(restored->fitted());
  EXPECT_EQ(restored->name(), model->name());
  const auto original = model->predict(test);
  const auto reloaded = restored->predict(test);
  ASSERT_EQ(original.size(), reloaded.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(original[i], reloaded[i]);
  }
}

TEST_P(SerializeModelTest, ImportanceSurvivesRoundTrip) {
  const data::Dataset train = make_data(80, 3);
  ZooOptions zoo;
  zoo.nn_epoch_scale = 0.25;
  auto model = make_model(GetParam(), zoo).make();
  model->fit(train);

  std::stringstream buffer;
  save_model(*model, buffer);
  const auto restored = load_model(buffer);
  const auto a = model->importance();
  const auto b = restored->importance();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].importance, b[i].importance);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModelKinds, SerializeModelTest,
                         ::testing::Values("LR-E", "LR-B", "LR-S", "NN-S",
                                           "NN-Q", "NN-E"),
                         [](const auto& info) {
                           std::string name = info.param;
                           name.erase(
                               std::remove(name.begin(), name.end(), '-'),
                               name.end());
                           return name;
                         });

TEST(Serialize, FileRoundTrip) {
  const data::Dataset train = make_data(60, 4);
  LinearRegression model;
  model.fit(train);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dsml_model_test" /
       "model.dsml").string();
  save_model(model, path);
  const auto restored = load_model(path);
  EXPECT_EQ(restored->name(), "LR-B");
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "dsml_model_test");
}

TEST(Serialize, UnfittedModelThrows) {
  LinearRegression model;
  std::stringstream buffer;
  EXPECT_THROW(save_model(model, buffer), InvalidArgument);
}

TEST(Serialize, GarbageInputThrows) {
  std::stringstream buffer("not a model at all");
  EXPECT_THROW(load_model(buffer), IoError);
  // A declared length is checked against the bytes that follow it, never
  // allocated up front: a huge string length, vector count, or model
  // loader's count or shape is an IoError, not std::bad_alloc or
  // std::length_error.
  const std::string neural =
      "dsml-model\n1 6:neural neural\n0 7 100 0x1p-1 0x1p+0 encoder\n"
      "1 0 1 0 1 1 0x0p+0 0x1p+0 0 0 mlp\n1 0 ";
  const std::string one_layer =
      neural + "0 1 1 1 0x1p+0 1 1 0x1p+0 1 0x0p+0 1 ";
  const std::string inputs[] = {
      "dsml-model\n1 99999999999999:linreg\n",
      "dsml-model\n1 6:linreg linreg\n0 0x1p-4 0x1p-3 0 encoder\n"
      "1 0 1 0 1 1 0x0p+0 0x1p+0 0 0 0 999999999999999999 0x1p+0\n",
      // Encoder::load, feature count.
      "dsml-model\n1 6:linreg linreg\n0 0x1p-4 0x1p-3 0 encoder\n"
      "1 0 1 0 1 1 0x0p+0 0x1p+0 999999999999999999\n",
      // Mlp::load, input-flag count.
      neural + "999999999999999999\n",
      // load_matrix, a layer's shape.
      neural + "0 1 999999999 999999999\n",
      // load_matrix, a shape whose element count overflows.
      neural + "0 1 4294967296 4294967296 4294967296 4294967296 0 1\n",
      // NeuralRegressor::load, the retained training sample's shape.
      one_layer + "999999999 999999999\n",
  };
  for (const std::string& text : inputs) {
    std::stringstream in(text);
    EXPECT_THROW(load_model(in), IoError) << text;
  }
}

TEST(Serialize, TruncatedInputThrows) {
  const data::Dataset train = make_data(60, 5);
  LinearRegression model;
  model.fit(train);
  std::stringstream buffer;
  save_model(model, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_model(truncated), IoError);
}

TEST(Serialize, TruncationErrorsReportAByteOffset) {
  const data::Dataset train = make_data(60, 6);
  LinearRegression model;
  model.fit(train);
  std::stringstream buffer;
  save_model(model, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() - 10));
  try {
    load_model(truncated);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    // The message points at where the stream died so the artifact can be
    // inspected with xxd -s <offset>.
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos)
        << e.what();
  }
}

TEST(Serialize, TrailingGarbageThrowsWithByteOffset) {
  const data::Dataset train = make_data(60, 7);
  LinearRegression model;
  model.fit(train);
  std::stringstream buffer;
  save_model(model, buffer);
  std::stringstream padded(buffer.str() + " unexpected trailing junk");
  try {
    load_model(padded);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trailing garbage"), std::string::npos) << what;
    EXPECT_NE(what.find("byte"), std::string::npos) << what;
    EXPECT_NE(what.find("unexpected"), std::string::npos) << what;
  }
}

TEST(Serialize, CleanStreamHasNoTrailingGarbageFalsePositive) {
  // Round-tripping an untouched artifact must not trip the trailing-garbage
  // detector (trailing whitespace from the writer is fine).
  const data::Dataset train = make_data(60, 8);
  LinearRegression model;
  model.fit(train);
  std::stringstream buffer;
  save_model(model, buffer);
  EXPECT_NO_THROW(load_model(buffer));
}

TEST(SerialPrimitives, ExpectEndAcceptsWhitespaceOnly) {
  std::stringstream buffer;
  serial::Writer writer(buffer);
  writer.u64(1);
  serial::Reader reader(buffer);
  EXPECT_EQ(reader.u64(), 1u);
  EXPECT_NO_THROW(reader.expect_end());
}

TEST(SerialPrimitives, ReaderOffsetAdvancesWithConsumption) {
  std::stringstream buffer;
  serial::Writer writer(buffer);
  writer.u64(12345);
  writer.str("abc");
  serial::Reader reader(buffer);
  const std::int64_t start = reader.offset();
  EXPECT_EQ(reader.u64(), 12345u);
  EXPECT_GT(reader.offset(), start);
  EXPECT_EQ(reader.str(), "abc");
}

TEST(Serialize, WrongVersionThrows) {
  std::stringstream buffer("dsml-model\n999 6:linreg ");
  EXPECT_THROW(load_model(buffer), IoError);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_model(std::string("/no/such/file.dsml")), IoError);
}

TEST(SerialPrimitives, StringWithSpacesRoundTrips) {
  std::stringstream buffer;
  serial::Writer writer(buffer);
  writer.str("hello world: 1,2\n3");
  writer.u64(42);
  serial::Reader reader(buffer);
  EXPECT_EQ(reader.str(), "hello world: 1,2\n3");
  EXPECT_EQ(reader.u64(), 42u);
}

TEST(SerialPrimitives, DoubleExactRoundTrip) {
  std::stringstream buffer;
  serial::Writer writer(buffer);
  const double values[] = {0.1, -1e-300, 3.141592653589793, 1e300, 0.0};
  for (double v : values) writer.f64(v);
  serial::Reader reader(buffer);
  for (double v : values) {
    EXPECT_DOUBLE_EQ(reader.f64(), v);
  }
}

}  // namespace
}  // namespace dsml::ml
