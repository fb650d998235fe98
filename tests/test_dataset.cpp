#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include "common/strings.hpp"

namespace dsml::data {
namespace {

Dataset make_sample() {
  Dataset ds;
  ds.add_feature(Column::numeric("speed", {1.0, 2.0, 3.0}));
  ds.add_feature(Column::flag("smt", {true, false, true}));
  ds.add_feature(Column::categorical("vendor", {"amd", "intel", "amd"}));
  ds.set_target("perf", {10.0, 20.0, 30.0});
  return ds;
}

TEST(Dataset, BasicShape) {
  const Dataset ds = make_sample();
  EXPECT_EQ(ds.n_rows(), 3u);
  EXPECT_EQ(ds.n_features(), 3u);
  EXPECT_TRUE(ds.has_target());
  EXPECT_EQ(ds.target_name(), "perf");
  EXPECT_DOUBLE_EQ(ds.target_at(1), 20.0);
}

TEST(Dataset, FeatureLookup) {
  const Dataset ds = make_sample();
  EXPECT_EQ(ds.feature("smt").kind(), ColumnKind::kFlag);
  EXPECT_EQ(ds.feature(0).name(), "speed");
  EXPECT_FALSE(ds.find_feature("nonexistent").has_value());
  EXPECT_THROW(ds.feature("nope"), InvalidArgument);
  EXPECT_THROW(ds.feature(9), InvalidArgument);
}

TEST(Dataset, DuplicateFeatureThrows) {
  Dataset ds = make_sample();
  EXPECT_THROW(ds.add_feature(Column::numeric("speed", {0.0, 0.0, 0.0})),
               InvalidArgument);
}

TEST(Dataset, RowCountMismatchThrows) {
  Dataset ds = make_sample();
  EXPECT_THROW(ds.add_feature(Column::numeric("bad", {1.0})), InvalidArgument);
  EXPECT_THROW(ds.set_target("t", {1.0}), InvalidArgument);
}

TEST(Dataset, NoTargetThrows) {
  Dataset ds;
  ds.add_feature(Column::numeric("x", {1.0}));
  EXPECT_FALSE(ds.has_target());
  EXPECT_THROW(ds.target(), InvalidArgument);
  EXPECT_THROW(ds.target_name(), InvalidArgument);
}

TEST(Dataset, SelectRows) {
  const Dataset ds = make_sample();
  const std::vector<std::size_t> rows = {2, 0};
  const Dataset sub = ds.select_rows(rows);
  EXPECT_EQ(sub.n_rows(), 2u);
  EXPECT_DOUBLE_EQ(sub.feature("speed").numeric_at(0), 3.0);
  EXPECT_DOUBLE_EQ(sub.target_at(1), 10.0);
  // Level dictionary preserved even when a level is absent from the subset.
  EXPECT_EQ(sub.feature("vendor").level_count(), 2u);
}

TEST(Dataset, AppendRows) {
  Dataset a = make_sample();
  const Dataset b = make_sample();
  a.append(b);
  EXPECT_EQ(a.n_rows(), 6u);
  EXPECT_DOUBLE_EQ(a.target_at(5), 30.0);
}

TEST(Dataset, AppendSchemaMismatchThrows) {
  Dataset a = make_sample();
  Dataset b;
  b.add_feature(Column::numeric("speed", {1.0}));
  EXPECT_THROW(a.append(b), InvalidArgument);
}

TEST(Dataset, ToCsv) {
  const Dataset ds = make_sample();
  const csv::Table t = ds.to_csv();
  ASSERT_EQ(t.header.size(), 4u);
  EXPECT_EQ(t.header[3], "perf");
  ASSERT_EQ(t.rows.size(), 3u);
  EXPECT_EQ(t.rows[0][2], "amd");
  EXPECT_EQ(t.rows[0][1], "yes");

  // Numbers are written at round-trip precision: a cycle count keeps every
  // digit (the stream default of 6 wrote 2.86939e+06), and 0.1 reads back
  // as the same double.
  Dataset cycles;
  cycles.add_feature(Column::numeric("rate", {0.1, 1.0 / 3.0}));
  cycles.set_target("cycles", {2869393.0, 123456789012.0});
  const csv::Table c = cycles.to_csv();
  ASSERT_EQ(c.rows.size(), 2u);
  EXPECT_EQ(c.rows[0][0], "0.1");
  EXPECT_EQ(c.rows[0][1], "2869393");
  EXPECT_EQ(c.rows[1][1], "123456789012");
  EXPECT_EQ(strings::parse_double(c.rows[1][0]), 1.0 / 3.0);
}

TEST(Dataset, EmptyDatasetRowCount) {
  const Dataset ds;
  EXPECT_EQ(ds.n_rows(), 0u);
}

}  // namespace
}  // namespace dsml::data
