#include "cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "data/column.hpp"
#include "engine/design_space.hpp"
#include "engine/registry.hpp"
#include "engine/schema.hpp"
#include "engine/serve.hpp"
#include "fleet/worker.hpp"
#include "linalg/backend.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "sim/trace.hpp"

namespace dsml::cli {
namespace {

struct CliResult {
  int exit_code;
  std::string out;
  std::string err;
};

CliResult run_cli(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

/// Variant feeding `input` as the command's stdin (`dsml serve`).
CliResult run_cli(std::vector<std::string> args, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(args, in, out, err);
  return {code, out.str(), err.str()};
}

/// Serializes design-space row `row` as a serve-protocol JSON object keyed
/// by schema column names.
std::string design_row_json(std::size_t row) {
  const engine::Schema& schema = engine::design_space_schema();
  const data::Dataset& space = engine::design_space_dataset();
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const engine::SchemaColumn& col : schema.columns()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << col.name << "\":";
    const data::Column& c = space.feature(col.name);
    switch (col.kind) {
      case data::ColumnKind::kNumeric:
        os << c.numeric_at(row);
        break;
      case data::ColumnKind::kFlag:
        os << (c.code_at(row) != 0 ? "true" : "false");
        break;
      case data::ColumnKind::kCategorical:
        os << "\"" << c.label_at(row) << "\"";
        break;
    }
  }
  os << "}";
  return os.str();
}

/// Writes the first `n` design-space rows as a CSV file in schema order.
void write_design_csv(const std::string& path, std::size_t n) {
  const engine::Schema& schema = engine::design_space_schema();
  const data::Dataset& space = engine::design_space_dataset();
  csv::Table table;
  for (const engine::SchemaColumn& col : schema.columns()) {
    table.header.push_back(col.name);
  }
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> cells;
    for (const engine::SchemaColumn& col : schema.columns()) {
      const data::Column& c = space.feature(col.name);
      if (col.kind == data::ColumnKind::kNumeric) {
        std::ostringstream cell;
        cell << c.numeric_at(r);
        cells.push_back(cell.str());
      } else if (col.kind == data::ColumnKind::kFlag) {
        cells.push_back(c.code_at(r) != 0 ? "1" : "0");
      } else {
        cells.push_back(c.label_at(r));
      }
    }
    table.rows.push_back(std::move(cells));
  }
  csv::write_file(path, table);
}

// The CLI tests use a throwaway cache dir and tiny sweeps so they stay fast.
class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the tests as parallel processes,
    // and with one shared directory a test's TearDown could delete another
    // test's cache between its two sweeps.
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    cache_dir_ =
        (std::filesystem::temp_directory_path() / ("dsml_cli_cache_" + test))
            .string();
    ::setenv("DSML_CACHE_DIR", cache_dir_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("DSML_CACHE_DIR");
    std::filesystem::remove_all(cache_dir_);
  }
  std::vector<std::string> tiny_sweep_args() const {
    return {"--full", "40000", "--interval", "4000", "--clusters", "2"};
  }
  std::string cache_dir_;
};

TEST_F(CliTest, NoArgumentsShowsUsageAndFails) {
  const auto result = run_cli({});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.out.find("usage:"), std::string::npos);
}

TEST_F(CliTest, HelpSucceeds) {
  const auto result = run_cli({"help"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("commands:"), std::string::npos);
}

TEST_F(CliTest, LintSubcommandListsRules) {
  const auto result = run_cli({"lint", "--list-rules"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("rand-source"), std::string::npos);
  EXPECT_NE(result.out.find("naked-new"), std::string::npos);
}

TEST_F(CliTest, LintSubcommandRejectsMissingPath) {
  const auto result = run_cli({"lint", "/no/such/dsml/path"});
  EXPECT_EQ(result.exit_code, 2);
}

TEST_F(CliTest, UnknownCommandFails) {
  for (const std::string command : {"frobnicate", "bench"}) {
    const auto result = run_cli({command});
    EXPECT_EQ(result.exit_code, 1) << command;
    EXPECT_NE(result.err.find("unknown command '" + command + "'"),
              std::string::npos)
        << result.err;
  }
}

TEST_F(CliTest, MissingOptionValueFails) {
  const auto result = run_cli({"sweep", "--app"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("missing value"), std::string::npos);
}

TEST_F(CliTest, UnknownFlagsFailNamingCommandAndFlag) {
  // Every command rejects a flag it does not read, before doing any work, so
  // a typo never runs silently with the flag's default. `serve --f32
  // --models ...` must name --f32, not read --models as its value.
  const std::string model =
      "applu=" + std::string(DSML_REPO_ROOT) + "/tests/data/serve/model.dsml";
  const struct {
    std::vector<std::string> args;
    const char* named;
  } cases[] = {
      {{"list", "--no-such-flag", "1"}, "--no-such-flag"},
      {{"sweep", "--app", "applu", "--fulll", "40000"}, "--fulll"},
      {{"sampled", "--rate", "0.02"}, "--rate"},
      {{"chrono", "--family", "pd", "--familly", "xeon"}, "--familly"},
      {{"train", "--models", "LR-B"}, "--models"},
      {{"predict", "--model", "m.dsml", "--topp", "3"}, "--topp"},
      {{"serve", "--models", model, "--batchh", "4"}, "--batchh"},
      {{"serve", "--f32", "--models", model}, "--f32"},
      {{"serve", "--models", model, "--f32", "1"}, "--f32"},
      {{"serve", "--models", model, "--batch", "8"}, "--batch"},
      {{"serve", "--models", model, "--queue", "8"}, "--queue"},
      {{"worker", "--listen", "0", "--stall", "5"}, "--stall"},
      {{"dse", "--sampler", "random", "--budgett", "10"}, "--budgett"},
      {{"dse", "--sampler", "random", "--csv", "t.csv"}, "--csv"},
      {{"fleet", "--app", "mcf", "--worker", "2"}, "--worker"},
      {{"loadgen", "--connect", "127.0.0.1:1", "--conections", "2"},
       "--conections"},
      {{"list", "stray"}, "'stray'"},
  };
  for (const auto& c : cases) {
    const auto result = run_cli(c.args, "");
    EXPECT_EQ(result.exit_code, 1) << c.args[0] << " " << c.named;
    EXPECT_NE(result.err.find(c.args[0] + ": "), std::string::npos)
        << result.err;
    EXPECT_NE(result.err.find(c.named), std::string::npos) << result.err;
  }
}

TEST_F(CliTest, ListEnumeratesEverything) {
  const auto result = run_cli({"list"});
  EXPECT_EQ(result.exit_code, 0);
  for (const char* expected : {"applu", "mcf", "xeon", "opteron8", "LR-B",
                               "NN-E"}) {
    EXPECT_NE(result.out.find(expected), std::string::npos) << expected;
  }
}

TEST_F(CliTest, SweepRunsAndCaches) {
  auto args = tiny_sweep_args();
  args.insert(args.begin(), {"sweep", "--app", "applu"});
  const auto first = run_cli(args);
  EXPECT_EQ(first.exit_code, 0) << first.err;
  EXPECT_NE(first.out.find("4608 configurations"), std::string::npos);
  const auto second = run_cli(args);
  EXPECT_NE(second.out.find("[cache]"), std::string::npos);
}

TEST_F(CliTest, SweepCsvExport) {
  const std::string csv_path =
      (std::filesystem::temp_directory_path() / "dsml_cli_sweep.csv").string();
  auto args = tiny_sweep_args();
  args.insert(args.begin(), {"sweep", "--app", "applu"});
  args.insert(args.end(), {"--csv", csv_path});
  const auto result = run_cli(args);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_TRUE(std::filesystem::exists(csv_path));
  std::filesystem::remove(csv_path);
}

TEST_F(CliTest, SampledExperimentPrintsTable) {
  auto args = tiny_sweep_args();
  args.insert(args.begin(),
              {"sampled", "--app", "applu", "--rates", "0.02", "--models",
               "LR-B"});
  const auto result = run_cli(args);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("LR-B"), std::string::npos);
  EXPECT_NE(result.out.find("select @2%"), std::string::npos);
}

/// A golden transcript captured from the pre-campaign seed drivers
/// (tests/data/dse/): the Campaign refactor must keep these CLI outputs
/// byte-identical.
std::string read_golden(const std::string& name) {
  const std::string path =
      std::string(DSML_REPO_ROOT) + "/tests/data/dse/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST_F(CliTest, SampledOutputIsByteIdenticalToTheSeedGolden) {
  auto args = tiny_sweep_args();
  args.insert(args.begin(), {"sampled", "--app", "applu", "--rates",
                             "0.01,0.02", "--models", "LR-B,NN-S"});
  const auto clean = run_cli(args);
  EXPECT_EQ(clean.exit_code, 0) << clean.err;
  EXPECT_EQ(clean.out, read_golden("sampled_golden.txt"));

  // Degraded run: the armed eval failpoint costs exactly one tabulated cell
  // and one banner line, nothing else (single-model menu so the nth trigger
  // lands deterministically at any thread count).
  auto degraded_args = tiny_sweep_args();
  degraded_args.insert(degraded_args.begin(),
                       {"sampled", "--app", "applu", "--rates", "0.01,0.02",
                        "--models", "LR-B", "--failpoints",
                        "dse.sampled.eval=nth:1"});
  const auto degraded = run_cli(degraded_args);
  EXPECT_EQ(degraded.exit_code, 0) << degraded.err;
  EXPECT_EQ(degraded.out, read_golden("sampled_golden_degraded.txt"));
}

TEST_F(CliTest, ChronoOutputIsByteIdenticalToTheSeedGolden) {
  const auto result = run_cli({"chrono", "--family", "pd"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_EQ(result.out, read_golden("chrono_golden.txt"));
}

TEST_F(CliTest, AdaptiveCampaignMatchesItsGoldenCleanAndDegraded) {
  auto args = tiny_sweep_args();
  args.insert(args.begin(), {"dse", "--app", "applu", "--sampler", "adaptive",
                             "--budget", "24", "--rounds", "2", "--truth"});
  const auto clean = run_cli(args);
  EXPECT_EQ(clean.exit_code, 0) << clean.err;
  EXPECT_EQ(clean.out, read_golden("campaign_golden.txt"));

  // An injected transient in the campaign round loop: one failure record,
  // one bounded retry, and a table byte-identical to the clean run.
  auto degraded_args = args;
  degraded_args.insert(degraded_args.begin(),
                       {"--failpoints", "dse.campaign.round=nth:1"});
  const auto degraded = run_cli(degraded_args);
  EXPECT_EQ(degraded.exit_code, 0) << degraded.err;
  EXPECT_EQ(degraded.out, read_golden("campaign_golden_degraded.txt"));
}

TEST_F(CliTest, RandomCampaignRunsWithABudget) {
  auto args = tiny_sweep_args();
  args.insert(args.begin(), {"dse", "--app", "applu", "--sampler", "random",
                             "--budget", "20", "--truth", "--models", "LR-B"});
  const auto result = run_cli(args);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("campaign applu: sampler random"),
            std::string::npos);
  EXPECT_NE(result.out.find("evaluated 20 of 4608"), std::string::npos);
}

TEST_F(CliTest, CampaignFlagValidationNamesTheFlag) {
  const struct {
    std::vector<std::string> args;
    const char* expect;
  } cases[] = {
      {{"dse", "--sampler", "random", "--budget", "abc"},
       "--budget: expected a non-negative integer"},
      {{"dse", "--sampler", "random", "--budget", "0"},
       "--budget must be >= 1"},
      {{"dse", "--sampler", "random", "--budget", "5000"},
       "--budget: the design space has 4608"},
      {{"dse", "--sampler", "random", "--budget", "10", "--rounds", "zz"},
       "--rounds: expected a non-negative integer"},
      {{"dse", "--sampler", "random", "--budget", "10", "--rounds", "0"},
       "--rounds must be >= 1"},
      {{"dse", "--sampler", "adaptive", "--budget", "10", "--rounds", "11"},
       "--rounds: more rounds (11) than budget (10)"},
      {{"dse", "--sampler", "random", "--sample-rate", "huge"},
       "--sample-rate: expected a fraction in (0,1], got 'huge'"},
      {{"dse", "--sampler", "random", "--sample-rate", "0"},
       "--sample-rate: expected a fraction in (0,1], got '0'"},
      {{"dse", "--sampler", "random", "--sample-rate", "1.5"},
       "--sample-rate: expected a fraction in (0,1], got '1.5'"},
      {{"dse", "--sampler", "random", "--budget", "10", "--sample-rate",
        "0.01"},
       "--budget and --sample-rate are mutually exclusive"},
      {{"dse", "--sampler", "random", "--objective", "latency"},
       "unknown objective 'latency' (cycles|pareto)"},
      {{"dse", "--sampler", "greedy"},
       "unknown sampler 'greedy' (random|adaptive)"},
      {{"dse", "--app", "applu", "--sampler", "random", "--budget", "12",
        "--truth", "--workers", "127.0.0.1:1"},
       "--truth and --workers are mutually exclusive"},
      {{"dse"},
       "dse requires --sampler random|adaptive (the full design-space table "
       "is dsml sweep"},
      {{"dse", "--app", "mcf", "--workers", "127.0.0.1:1"},
       "dse requires --sampler random|adaptive (the full design-space table "
       "is dsml sweep"},
  };
  for (const auto& c : cases) {
    const auto result = run_cli(c.args);
    EXPECT_EQ(result.exit_code, 1) << c.expect;
    EXPECT_NE(result.err.find(c.expect), std::string::npos) << result.err;
  }
}

TEST_F(CliTest, FlagsThatCannotTakeEffectFailAtParseTime) {
  // Rejected before any connection opens, any worker spawns or any model
  // loads: serve's model path does not exist, so a late check would fail
  // on the load instead.
  const std::string missing_model = "applu=/nonexistent/model.dsml";
  const struct {
    std::vector<std::string> args;
    const char* expect;
  } cases[] = {
      {{"dse", "--sampler", "random", "--budget", "12", "--timeout-ms", "5",
        "--retries", "9"},
       "--timeout-ms needs --workers"},
      {{"dse", "--sampler", "random", "--budget", "12", "--workers",
        "127.0.0.1:1", "--retries", "0"},
       "--retries must be >= 1"},
      {{"sweep", "--app", "mcf", "--connect-timeout-ms", "200"},
       "--connect-timeout-ms needs --workers"},
      {{"sweep", "--app", "mcf", "--retries", "2"},
       "--retries needs --workers"},
      {{"sweep", "--app", "mcf", "--workers", "127.0.0.1:1", "--retries", "0"},
       "--retries must be >= 1"},
      {{"fleet", "--app", "mcf", "--retries", "0"}, "--retries must be >= 1"},
      {{"serve", "--models", missing_model, "--bind", "9.9.9.9", "--max-conns",
        "0", "--idle-timeout-ms", "5"},
       "--bind needs --listen P"},
      {{"serve", "--models", missing_model, "--max-conns", "0"},
       "--max-conns needs --listen P"},
      {{"serve", "--models", missing_model, "--idle-timeout-ms", "5"},
       "--idle-timeout-ms needs --listen P"},
      {{"serve", "--models", missing_model, "--listen", "0", "--max-conns",
        "0"},
       "--max-conns must be >= 1"},
  };
  for (const auto& c : cases) {
    const auto result = run_cli(c.args, "");
    EXPECT_EQ(result.exit_code, 1) << c.expect;
    EXPECT_NE(result.err.find(c.expect), std::string::npos) << result.err;
  }
}

TEST_F(CliTest, CampaignWithoutASelectRowExitsOne) {
  // Bind-then-close: a port that refuses connections immediately, so every
  // round's gather fails and no round selects a model.
  std::uint16_t dead_port = 0;
  {
    net::Server placeholder(net::ServerOptions{},
                            [](std::string_view) { return std::string(); });
    dead_port = placeholder.port();
  }
  auto args = tiny_sweep_args();
  args.insert(args.begin(),
              {"dse", "--app", "mcf", "--sampler", "random", "--budget", "12",
               "--models", "LR-B", "--workers",
               "127.0.0.1:" + std::to_string(dead_port), "--retries", "1",
               "--connect-timeout-ms", "200"});
  const auto result = run_cli(args);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.out.find("evaluated 0 of 4608 configurations"),
            std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("failure(s) tolerated"), std::string::npos)
      << result.out;
  EXPECT_NE(result.err.find("no round produced a Select row"),
            std::string::npos)
      << result.err;
}

/// One in-process fleet worker on an ephemeral loopback port, stopped and
/// joined when it goes out of scope.
struct LoopbackWorker {
  engine::ModelRegistry registry;
  fleet::Worker worker{registry, fleet::WorkerOptions{}};
  std::thread loop{[this] { worker.run(); }};

  ~LoopbackWorker() {
    worker.request_stop();
    loop.join();
  }
};

TEST_F(CliTest, FleetSweepCsvIsByteIdenticalToALocalSweep) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string fleet_csv = (tmp / "dsml_cli_fleet_sweep.csv").string();
  const std::string local_csv = (tmp / "dsml_cli_local_sweep.csv").string();
  std::string endpoints;
  LoopbackWorker workers[3];
  for (const LoopbackWorker& w : workers) {
    if (!endpoints.empty()) endpoints += ",";
    endpoints += "127.0.0.1:" + std::to_string(w.worker.port());
  }

  // The fleet sweep runs first, so the workers simulate their shards
  // instead of slicing the cache the local sweep writes.
  auto fleet_args = tiny_sweep_args();
  fleet_args.insert(fleet_args.begin(), {"sweep", "--app", "mcf", "--workers",
                                         endpoints, "--csv", fleet_csv});
  const auto fleet_run = run_cli(fleet_args);
  ASSERT_EQ(fleet_run.exit_code, 0) << fleet_run.err;
  auto local_args = tiny_sweep_args();
  local_args.insert(local_args.begin(),
                    {"sweep", "--app", "mcf", "--csv", local_csv});
  const auto local_run = run_cli(local_args);
  ASSERT_EQ(local_run.exit_code, 0) << local_run.err;

  const auto read = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  EXPECT_EQ(read(fleet_csv), read(local_csv));
  const auto first_line = [](const std::string& text) {
    std::string line = text.substr(0, text.find('\n'));
    const std::size_t cache = line.find(" [cache]");
    return cache == std::string::npos ? line : line.erase(cache);
  };
  EXPECT_EQ(first_line(fleet_run.out), first_line(local_run.out));
  EXPECT_NE(fleet_run.out.find("4608 configurations"), std::string::npos)
      << fleet_run.out;
  EXPECT_NE(fleet_run.out.find("wrote 4608 rows to " + fleet_csv),
            std::string::npos)
      << fleet_run.out;
  std::filesystem::remove(fleet_csv);
  std::filesystem::remove(local_csv);
}

TEST_F(CliTest, ChronoExperimentRuns) {
  const auto result =
      run_cli({"chrono", "--family", "pd", "--models", "LR-E,LR-S"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("Pentium D"), std::string::npos);
  EXPECT_NE(result.out.find("best:"), std::string::npos);
}

TEST_F(CliTest, ChronoFpTarget) {
  const auto result = run_cli(
      {"chrono", "--family", "xeon", "--target", "fp", "--models", "LR-E"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("specfp_rate"), std::string::npos);
}

TEST_F(CliTest, ChronoBadFamilyFails) {
  const auto result = run_cli({"chrono", "--family", "alpha"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("unknown family"), std::string::npos);
}

TEST_F(CliTest, TrainThenPredictRoundTrip) {
  const std::string model_path =
      (std::filesystem::temp_directory_path() / "dsml_cli_model.dsml")
          .string();
  auto train_args = tiny_sweep_args();
  train_args.insert(train_args.begin(),
                    {"train", "--app", "applu", "--rate", "0.02", "--model",
                     "LR-B", "--out", model_path});
  const auto train_result = run_cli(train_args);
  EXPECT_EQ(train_result.exit_code, 0) << train_result.err;
  EXPECT_TRUE(std::filesystem::exists(model_path));

  const auto predict_result =
      run_cli({"predict", "--model", model_path, "--top", "3"});
  EXPECT_EQ(predict_result.exit_code, 0) << predict_result.err;
  EXPECT_NE(predict_result.out.find("rank"), std::string::npos);
  EXPECT_NE(predict_result.out.find("LR-B"), std::string::npos);
  std::filesystem::remove(model_path);
}

TEST_F(CliTest, PredictWithoutModelFails) {
  const auto result = run_cli({"predict"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--model"), std::string::npos);
}

TEST_F(CliTest, PredictOnACorruptModelFailsNamingTheField) {
  // The committed LR model with its selected column 13 changed to 100000:
  // the loader rejects the column instead of predict reading past the
  // encoded matrix.
  std::ifstream in(std::string(DSML_REPO_ROOT) + "/tests/data/serve/model.dsml");
  std::ostringstream text;
  text << in.rdbuf();
  std::string model = text.str();
  const std::string selected = " 6 0 5 7 10 11 13 6 ";
  const std::size_t at = model.find(selected);
  ASSERT_NE(at, std::string::npos);
  model.replace(at, selected.size(), " 6 0 5 7 10 11 100000 6 ");
  const std::string model_path =
      (std::filesystem::temp_directory_path() / "dsml_cli_corrupt_model.dsml")
          .string();
  std::ofstream(model_path) << model;
  const auto result = run_cli({"predict", "--model", model_path});
  std::filesystem::remove(model_path);
  EXPECT_EQ(result.exit_code, 1) << result.out;
  EXPECT_NE(result.err.find("error:"), std::string::npos) << result.err;
  EXPECT_NE(result.err.find("selected column 100000"), std::string::npos)
      << result.err;
}

TEST_F(CliTest, TraceFlagWritesChromeTraceFile) {
  const std::string trace_path =
      (std::filesystem::temp_directory_path() / "dsml_cli_trace.json")
          .string();
  std::filesystem::remove(trace_path);
  const auto result = run_cli({"list", "--trace", trace_path});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  ASSERT_TRUE(std::filesystem::exists(trace_path));
  const json::Value doc = json::Value::parse_file(trace_path);
  const auto& events = doc.at("traceEvents").items();
  ASSERT_FALSE(events.empty());
  bool found_command_span = false;
  for (const auto& e : events) {
    if (e.at("name").as_string() == "dsml list") found_command_span = true;
  }
  EXPECT_TRUE(found_command_span);
  std::filesystem::remove(trace_path);

  // A failing command still writes its trace, and tracing stops with it.
  const auto failed =
      run_cli({"--trace", trace_path, "sweep", "--app", "nope"});
  EXPECT_EQ(failed.exit_code, 1);
  EXPECT_FALSE(trace::enabled());
  ASSERT_TRUE(std::filesystem::exists(trace_path));
  const json::Value failed_doc = json::Value::parse_file(trace_path);
  bool found_failed_span = false;
  for (const auto& e : failed_doc.at("traceEvents").items()) {
    if (e.at("name").as_string() == "dsml sweep") found_failed_span = true;
  }
  EXPECT_TRUE(found_failed_span);
  std::filesystem::remove(trace_path);
}

TEST_F(CliTest, TraceFlagWithoutFileFails) {
  const auto result = run_cli({"list", "--trace"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--trace"), std::string::npos);
}

TEST_F(CliTest, FailpointsFlagWithoutSpecFails) {
  const auto result = run_cli({"list", "--failpoints"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--failpoints"), std::string::npos);
}

TEST_F(CliTest, FailpointsFlagRejectsMalformedSpec) {
  for (const char* bad : {"nonsense", "a=nth:0", "a=prob:2@1", "a=err:Nope"}) {
    const auto result = run_cli({"--failpoints", bad, "list"});
    EXPECT_EQ(result.exit_code, 1) << bad;
    EXPECT_NE(result.err.find("failpoints:"), std::string::npos) << bad;
  }
}

TEST_F(CliTest, FailpointsFlagWithUnmatchedSpecIsHarmless) {
  const auto result = run_cli({"--failpoints", "no.such.site=err:IoError",
                               "list"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("applications:"), std::string::npos);
}

TEST_F(CliTest, UsageMentionsFailpointsFlag) {
  const auto result = run_cli({"help"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("--failpoints"), std::string::npos);
}

TEST_F(CliTest, BackendFlagPinsEveryKernelBackend) {
  const linalg::Backend before = linalg::active_backend();
  for (const char* name : {"naive", "blocked", "simd"}) {
    const auto result = run_cli({"--backend", name, "list"});
    EXPECT_EQ(result.exit_code, 0) << name << ": " << result.err;
    EXPECT_NE(result.out.find("applications:"), std::string::npos) << name;
  }
  // The override is scoped to the command: in-process callers see the
  // previous selection again once run() returns.
  EXPECT_EQ(linalg::active_backend(), before);
}

TEST_F(CliTest, BackendFlagRejectsUnknownName) {
  const auto result = run_cli({"--backend", "warp-drive", "list"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("backend"), std::string::npos);
}

TEST_F(CliTest, BackendFlagWithoutNameFails) {
  const auto result = run_cli({"list", "--backend"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--backend"), std::string::npos);
}

TEST_F(CliTest, UsageMentionsBackendFlag) {
  const auto result = run_cli({"help"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("--backend"), std::string::npos);
}

TEST_F(CliTest, StatsDumpsMetricsRegistry) {
  const auto result = run_cli({"stats", "list"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  // The nested command ran...
  EXPECT_NE(result.out.find("applications:"), std::string::npos);
  // ...and the registry dump followed it.
  EXPECT_NE(result.out.find("metrics registry"), std::string::npos);
}

TEST_F(CliTest, StatsJsonExport) {
  const std::string json_path =
      (std::filesystem::temp_directory_path() / "dsml_cli_stats.json")
          .string();
  std::filesystem::remove(json_path);
  const auto result = run_cli({"stats", "--json", json_path, "list"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  ASSERT_TRUE(std::filesystem::exists(json_path));
  const json::Value doc = json::Value::parse_file(json_path);
  EXPECT_TRUE(doc.contains("counters"));
  EXPECT_TRUE(doc.contains("gauges"));
  EXPECT_TRUE(doc.contains("histograms"));
  std::filesystem::remove(json_path);
}

TEST_F(CliTest, MalformedCountFlagsFailWithTaxonomyErrors) {
  // Bare std::stoull used to let these crash with a raw std::invalid_argument
  // (or silently accept "3x" as 3); the checked parser names the flag.
  {
    const auto result = run_cli({"sweep", "--app", "applu", "--full", "abc"});
    EXPECT_EQ(result.exit_code, 1);
    EXPECT_NE(result.err.find("--full"), std::string::npos) << result.err;
    EXPECT_NE(result.err.find("non-negative integer"), std::string::npos);
  }
  {
    auto args = tiny_sweep_args();
    args.insert(args.begin(),
                {"train", "--app", "applu", "--rate", "0.02", "--model",
                 "LR-B", "--out", "/tmp/never_written.dsml"});
    args.insert(args.end(), {"--seed", "12monkeys"});
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 1);
    EXPECT_NE(result.err.find("--seed"), std::string::npos) << result.err;
    EXPECT_FALSE(std::filesystem::exists("/tmp/never_written.dsml"));
  }
  {
    const auto result =
        run_cli({"predict", "--model", "whatever.dsml", "--top", "-3"});
    EXPECT_EQ(result.exit_code, 1);
    EXPECT_NE(result.err.find("--top"), std::string::npos) << result.err;
  }
  // A value past the flag's type fails instead of wrapping: the fd would
  // have become another socket or stdin, the deadline 0 ("block forever").
  const std::string int_max = "expected an integer at most 2147483647";
  const std::string u32_max = "expected an integer at most 4294967295";
  const struct {
    std::vector<std::string> args;
    std::string expect;
  } narrowed[] = {
      {{"worker", "--listen-fd", "2147483648"}, "--listen-fd: " + int_max},
      {{"worker", "--listen-fd", "4294967296"}, "--listen-fd: " + int_max},
      {{"worker", "--listen", "0", "--stall-ms", "4294967296"},
       "--stall-ms: " + u32_max},
      {{"worker", "--listen", "0", "--idle-timeout-ms", "4294967296"},
       "--idle-timeout-ms: " + u32_max},
      {{"sweep", "--app", "mcf", "--workers", "127.0.0.1:1", "--timeout-ms",
        "4294967296"},
       "--timeout-ms: " + u32_max},
      {{"sweep", "--app", "mcf", "--workers", "127.0.0.1:1",
        "--connect-timeout-ms", "4294967296"},
       "--connect-timeout-ms: " + u32_max},
      {{"loadgen", "--connect", "127.0.0.1:1", "--timeout-ms", "4294967296"},
       "--timeout-ms: " + u32_max},
  };
  for (const auto& c : narrowed) {
    const auto result = run_cli(c.args, "");
    EXPECT_EQ(result.exit_code, 1) << c.expect;
    EXPECT_NE(result.err.find(c.expect), std::string::npos) << result.err;
  }
}

TEST_F(CliTest, SweepFeedingFlagsFailBeforeSimulatingNamingTheFlag) {
  const std::string longest_trace =
      "--full: at most " +
      std::to_string(std::vector<sim::Instr>().max_size()) +
      " instructions, got 18446744073709551615";
  const struct {
    std::vector<std::string> args;
    std::string expect;
  } cases[] = {
      {{"sweep", "--app", "mcf", "--full", "18446744073709551615",
        "--interval", "1"},
       longest_trace},
      {{"sweep", "--app", "mcf", "--interval", "0"},
       "--interval must be >= 1"},
      {{"sweep", "--app", "mcf", "--clusters", "0"},
       "--clusters must be >= 1"},
      {{"sweep", "--app", "mcf", "--full", "7999", "--interval", "4000"},
       "--full must be at least 2 x --interval (4000), got 7999"},
      {{"sampled", "--app", "mcf", "--rates", "0"},
       "--rates: expected a fraction in (0,1], got '0'"},
      {{"sampled", "--app", "mcf", "--rates", "0.02,nan"},
       "--rates: expected a fraction in (0,1], got 'nan'"},
      {{"sampled", "--app", "mcf", "--rates", "1.5"},
       "--rates: expected a fraction in (0,1], got '1.5'"},
      {{"sampled", "--app", "mcf", "--rates", "tiny"},
       "--rates: expected a fraction in (0,1], got 'tiny'"},
      {{"train", "--app", "mcf", "--rate", "0", "--out",
        "/tmp/never_written.dsml"},
       "--rate: expected a fraction in (0,1], got '0'"},
      {{"train", "--app", "mcf", "--rate", "inf", "--out",
        "/tmp/never_written.dsml"},
       "--rate: expected a fraction in (0,1], got 'inf'"},
  };
  metrics::Counter& functional = metrics::counter("sim.functional_passes");
  for (const auto& c : cases) {
    const std::uint64_t passes = functional.value();
    const auto result = run_cli(c.args);
    EXPECT_EQ(result.exit_code, 1) << c.expect;
    EXPECT_NE(result.err.find(c.expect), std::string::npos) << result.err;
    EXPECT_EQ(functional.value(), passes) << c.expect;
  }
  EXPECT_FALSE(std::filesystem::exists("/tmp/never_written.dsml"));
}

TEST_F(CliTest, PredictCsvScoresExternalRows) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string model_path = (tmp / "dsml_cli_csv_model.dsml").string();
  const std::string csv_path = (tmp / "dsml_cli_predict_rows.csv").string();

  auto train_args = tiny_sweep_args();
  train_args.insert(train_args.begin(),
                    {"train", "--app", "applu", "--rate", "0.02", "--model",
                     "LR-B", "--out", model_path});
  ASSERT_EQ(run_cli(train_args).exit_code, 0);

  write_design_csv(csv_path, 5);
  const auto result =
      run_cli({"predict", "--model", model_path, "--csv", csv_path});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("predicted cycles"), std::string::npos);
  EXPECT_NE(result.out.find("5 configurations"), std::string::npos)
      << result.out;

  std::filesystem::remove(model_path);
  std::filesystem::remove(csv_path);
}

TEST_F(CliTest, ServeAnswersRequestsAndSurvivesBadLines) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string model_path = (tmp / "dsml_cli_serve_model.dsml").string();
  auto train_args = tiny_sweep_args();
  train_args.insert(train_args.begin(),
                    {"train", "--app", "applu", "--rate", "0.02", "--model",
                     "LR-B", "--out", model_path});
  ASSERT_EQ(run_cli(train_args).exit_code, 0);

  const std::string input =
      "{\"rows\": [" + design_row_json(0) + "," + design_row_json(7) + "]}\n"
      "this is not json\n" +
      std::string(200000, '[') + "\n"
      "{\"model\": \"nope\", \"rows\": [" + design_row_json(0) + "]}\n";
  const auto result =
      run_cli({"serve", "--models", "applu=" + model_path}, input);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.err.find("serving 1 model(s)"), std::string::npos);

  std::istringstream lines(result.out);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const json::Value good = json::Value::parse(line);
  EXPECT_TRUE(good.at("ok").as_bool());
  EXPECT_EQ(good.at("model").as_string(), "applu");
  EXPECT_EQ(good.at("predictions").items().size(), 2u);

  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_FALSE(json::Value::parse(line).at("ok").as_bool());

  // Nesting too deep to parse is one bad line, not a crash.
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_FALSE(json::Value::parse(line).at("ok").as_bool());

  ASSERT_TRUE(std::getline(lines, line));
  const json::Value unknown = json::Value::parse(line);
  EXPECT_FALSE(unknown.at("ok").as_bool());
  EXPECT_NE(unknown.at("error").as_string().find("nope"), std::string::npos);

  EXPECT_FALSE(std::getline(lines, line));  // exactly one line per request
  std::filesystem::remove(model_path);
}

TEST_F(CliTest, ServeReportsPartialFailureUnderFailpoint) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string model_path =
      (tmp / "dsml_cli_serve_fail_model.dsml").string();
  auto train_args = tiny_sweep_args();
  train_args.insert(train_args.begin(),
                    {"train", "--app", "applu", "--rate", "0.02", "--model",
                     "LR-B", "--out", model_path});
  ASSERT_EQ(run_cli(train_args).exit_code, 0);

  // Batch predict fails once, the degraded per-row retry then poisons the
  // first row: the response must carry the surviving prediction and name
  // the failed row, and the loop must keep serving the next request.
  const std::string input =
      "{\"rows\": [" + design_row_json(0) + "," + design_row_json(1) + "]}\n" +
      "{\"rows\": [" + design_row_json(2) + "]}\n";
  const auto result = run_cli(
      {"--failpoints",
       "engine.session.flush=nth:1,engine.session.row=nth:1", "serve",
       "--models", "applu=" + model_path},
      input);
  EXPECT_EQ(result.exit_code, 0) << result.err;

  std::istringstream lines(result.out);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const json::Value partial = json::Value::parse(line);
  EXPECT_FALSE(partial.at("ok").as_bool());
  EXPECT_TRUE(partial.at("partial").as_bool());
  const auto& preds = partial.at("predictions").items();
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_TRUE(preds[0].is_null());
  EXPECT_FALSE(preds[1].is_null());
  ASSERT_EQ(partial.at("errors").items().size(), 1u);
  EXPECT_EQ(partial.at("errors").items()[0].at("row").as_number(), 0.0);

  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(json::Value::parse(line).at("ok").as_bool());
  std::filesystem::remove(model_path);
}

TEST_F(CliTest, ServeRejectsDuplicateModelNames) {
  // `--models a=x,a=y` used to silently re-register `a` with whichever file
  // parsed last; now the duplicate is rejected before any artifact loads
  // (so the paths do not need to exist).
  const auto result = run_cli(
      {"serve", "--models", "a=/nonexistent/x.dsml,a=/nonexistent/y.dsml"},
      "");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("'a' more than once"), std::string::npos)
      << result.err;
}

TEST_F(CliTest, ServeMissingRowsArrayIsAClearError) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string model_path =
      (tmp / "dsml_cli_serve_rows_model.dsml").string();
  auto train_args = tiny_sweep_args();
  train_args.insert(train_args.begin(),
                    {"train", "--app", "applu", "--rate", "0.02", "--model",
                     "LR-B", "--out", model_path});
  ASSERT_EQ(run_cli(train_args).exit_code, 0);

  const std::string input = "{\"model\": \"applu\"}\n"
                            "{\"model\": \"applu\", \"rows\": 3}\n"
                            "{\"rows\": []}\n";
  const auto result =
      run_cli({"serve", "--models", "applu=" + model_path}, input);
  EXPECT_EQ(result.exit_code, 0) << result.err;
  std::istringstream lines(result.out);
  std::string line;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    const json::Value response = json::Value::parse(line);
    EXPECT_FALSE(response.at("ok").as_bool());
    EXPECT_NE(response.at("error").as_string().find("\"rows\" array"),
              std::string::npos)
        << line;
    EXPECT_EQ(response.at("error_type").as_string(), "InvalidArgument");
  }
  // A present-but-empty rows array is a fine request, not an error.
  ASSERT_TRUE(std::getline(lines, line));
  const json::Value empty = json::Value::parse(line);
  EXPECT_TRUE(empty.at("ok").as_bool());
  EXPECT_EQ(empty.at("predictions").items().size(), 0u);
  EXPECT_NE(result.err.find("2 error(s)"), std::string::npos) << result.err;
  std::filesystem::remove(model_path);
}

TEST_F(CliTest, ServeListenRespondsByteIdenticalToStdin) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string model_path =
      (tmp / "dsml_cli_serve_listen_model.dsml").string();
  auto train_args = tiny_sweep_args();
  train_args.insert(train_args.begin(),
                    {"train", "--app", "applu", "--rate", "0.02", "--model",
                     "LR-B", "--out", model_path});
  ASSERT_EQ(run_cli(train_args).exit_code, 0);

  const std::vector<std::string> requests = {
      "{\"rows\": [" + design_row_json(0) + "," + design_row_json(7) + "]}",
      "this is not json",
      "{\"model\": \"nope\", \"rows\": []}",
      "{\"rows\": 7}",
  };
  std::string input;
  for (const std::string& r : requests) input += r + "\n";
  const auto via_stdin =
      run_cli({"serve", "--models", "applu=" + model_path}, input);
  ASSERT_EQ(via_stdin.exit_code, 0) << via_stdin.err;

  // The TCP front-end dispatches the same lines to the same ServeHandler
  // code over the entry the stdin run just loaded (no reload, so the
  // version in the responses is identical too): the response stream must
  // match byte for byte.
  engine::ServeOptions options;
  options.default_model = "applu";
  engine::ServeHandler handler(engine::ModelRegistry::global(), options);
  net::ServerOptions server_options;
  server_options.bind_address = "127.0.0.1";
  server_options.port = 0;
  net::Server server(server_options, [&](std::string_view line) {
    return handler.handle(line);
  });
  std::thread runner([&] { server.run(); });
  std::string via_tcp;
  {
    net::LineClient client("127.0.0.1", server.port());
    for (const std::string& r : requests) client.send_line(r);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      via_tcp += client.recv_line() + "\n";
    }
  }
  server.request_stop();
  runner.join();
  EXPECT_EQ(via_tcp, via_stdin.out);
  std::filesystem::remove(model_path);
}

TEST_F(CliTest, LoadgenRequiresConnectEndpoint) {
  const auto missing = run_cli({"loadgen"});
  EXPECT_EQ(missing.exit_code, 1);
  EXPECT_NE(missing.err.find("--connect"), std::string::npos) << missing.err;

  const auto malformed = run_cli({"loadgen", "--connect", "nocolon"});
  EXPECT_EQ(malformed.exit_code, 1);
  EXPECT_NE(malformed.err.find("host:port"), std::string::npos)
      << malformed.err;

  const auto bad_port = run_cli({"loadgen", "--connect", "localhost:0"});
  EXPECT_EQ(bad_port.exit_code, 1);
  EXPECT_NE(bad_port.err.find("port"), std::string::npos) << bad_port.err;
}

TEST_F(CliTest, LoadgenDrivesAServerAndGatesOnItsOwnReport) {
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string model_path =
      (tmp / "dsml_cli_loadgen_model.dsml").string();
  const std::string report_path =
      (tmp / "dsml_cli_loadgen_report.json").string();
  auto train_args = tiny_sweep_args();
  train_args.insert(train_args.begin(),
                    {"train", "--app", "applu", "--rate", "0.02", "--model",
                     "LR-B", "--out", model_path});
  ASSERT_EQ(run_cli(train_args).exit_code, 0);

  engine::ModelRegistry& registry = engine::ModelRegistry::global();
  registry.load_file("loadgen-target", model_path,
                     engine::design_space_schema());
  engine::ServeOptions options;
  options.default_model = "loadgen-target";
  engine::ServeHandler handler(registry, options);
  net::ServerOptions server_options;
  server_options.bind_address = "127.0.0.1";
  server_options.port = 0;
  net::Server server(server_options, [&](std::string_view line) {
    return handler.handle(line);
  });
  std::thread runner([&] { server.run(); });

  const std::string endpoint =
      "127.0.0.1:" + std::to_string(server.port());
  const auto first = run_cli({"loadgen", "--connect", endpoint,
                              "--connections", "4", "--requests", "4",
                              "--rows", "2", "--json", report_path});
  EXPECT_EQ(first.exit_code, 0) << first.err;
  EXPECT_NE(first.out.find("16 ok, 0 error(s)"), std::string::npos)
      << first.out;
  EXPECT_NE(first.out.find("latency p50"), std::string::npos) << first.out;

  // The report records the machine it ran on, and the gate ignores it:
  // a baseline from a machine with other CPUs still checks.
  const json::Value report = json::Value::parse_file(report_path);
  EXPECT_GE(report.at("hardware_concurrency").as_number(), 1.0);
  const double cpus = report.at("affinity_cpus").as_number();
  EXPECT_GE(cpus, 1.0);
  {
    std::ifstream in(report_path);
    std::stringstream text;
    text << in.rdbuf();
    std::string rewritten = text.str();
    const std::string field =
        "\"affinity_cpus\": " + std::to_string(static_cast<int>(cpus));
    const std::size_t at = rewritten.find(field);
    ASSERT_NE(at, std::string::npos) << rewritten;
    rewritten.replace(at, field.size(), "\"affinity_cpus\": 999");
    std::ofstream(report_path) << rewritten;
  }

  // A second identical run gated against the first run's report: the
  // deterministic fields (config, ok/error totals) must match exactly.
  const auto gated = run_cli({"loadgen", "--connect", endpoint,
                              "--connections", "4", "--requests", "4",
                              "--rows", "2", "--check", report_path});
  EXPECT_EQ(gated.exit_code, 0) << gated.err;
  EXPECT_NE(gated.out.find("deterministic fields match"), std::string::npos)
      << gated.out;

  // A mismatched config must fail the gate.
  const auto mismatched = run_cli({"loadgen", "--connect", endpoint,
                                   "--connections", "2", "--requests", "4",
                                   "--rows", "2", "--check", report_path});
  EXPECT_EQ(mismatched.exit_code, 1);
  EXPECT_NE(mismatched.err.find("config.connections"), std::string::npos)
      << mismatched.err;

  server.request_stop();
  runner.join();
  EXPECT_EQ(handler.summary().errors, 0u);
  std::filesystem::remove(model_path);
  std::filesystem::remove(report_path);
}

TEST_F(CliTest, BareFastFlagIsBoolean) {
  // Named for the bare `--fast` flag of the removed `bench` command; what it
  // checks is that the usage text still lists the global `--trace F` flag and
  // the `stats` command.
  const auto result = run_cli({"help"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("--trace F"), std::string::npos);
  EXPECT_NE(result.out.find("stats"), std::string::npos);
}

}  // namespace
}  // namespace dsml::cli
