// Engine-layer tests: schema fingerprints, the model registry, micro-batching
// inference sessions (including the bit-identity determinism contract and
// concurrent access under DSML_THREADS=4 — this suite carries the tsan
// label), fit_and_score failure capture, and the design-space cold-start
// cache.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "data/column.hpp"
#include "data/dataset.hpp"
#include "engine/design_space.hpp"
#include "ml/fit_score.hpp"
#include "engine/registry.hpp"
#include "engine/schema.hpp"
#include "engine/serve.hpp"
#include "engine/session.hpp"
#include "ml/model_zoo.hpp"

namespace dsml::engine {
namespace {

// A tiny mixed-kind training set (numeric + flag + ordered categorical) so
// fits stay instant while still exercising the full Encoder path.
data::Dataset make_train(std::size_t n) {
  std::vector<double> size_kb, latency, target;
  std::vector<bool> wide;
  std::vector<std::string> predictor;
  const std::vector<std::string> levels = {"weak", "medium", "strong"};
  for (std::size_t i = 0; i < n; ++i) {
    const double s = static_cast<double>(8 << (i % 4));
    const double l = 1.0 + static_cast<double>(i % 5);
    const bool w = (i % 2) == 0;
    const std::size_t p = i % levels.size();
    size_kb.push_back(s);
    latency.push_back(l);
    wide.push_back(w);
    predictor.push_back(levels[p]);
    target.push_back(1000.0 - 3.0 * s + 40.0 * l - (w ? 25.0 : 0.0) -
                     10.0 * static_cast<double>(p));
  }
  data::Dataset d;
  d.add_feature(data::Column::numeric("size_kb", std::move(size_kb)));
  d.add_feature(data::Column::numeric("latency", std::move(latency)));
  d.add_feature(data::Column::flag("wide", std::move(wide)));
  d.add_feature(data::Column::categorical_with_levels(
      "predictor", levels, std::move(predictor), /*ordered=*/true));
  d.set_target("cycles", std::move(target));
  return d;
}

std::shared_ptr<const ml::Regressor> fit_model(const data::Dataset& train,
                                               const std::string& name) {
  std::unique_ptr<ml::Regressor> model = ml::make_model(name).make();
  model->fit(train);
  return std::shared_ptr<const ml::Regressor>(std::move(model));
}

// ---------------------------------------------------------------- schema --

TEST(Schema, FingerprintIsStableAndOrderSensitive) {
  const data::Dataset train = make_train(24);
  const Schema a = Schema::of(train);
  const Schema b = Schema::of(make_train(12));  // same layout, other rows
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.size(), 4u);
  EXPECT_TRUE(a.matches(train));
  EXPECT_EQ(a.mismatch(train), "");

  data::Dataset reordered;
  reordered.add_feature(data::Column::numeric("latency", {1.0}));
  reordered.add_feature(data::Column::numeric("size_kb", {8.0}));
  reordered.add_feature(data::Column::flag("wide", {true}));
  reordered.add_feature(data::Column::categorical_with_levels(
      "predictor", {"weak", "medium", "strong"}, {"weak"}, true));
  EXPECT_FALSE(a.matches(reordered));
  EXPECT_NE(a.mismatch(reordered), "");
  EXPECT_NE(a.fingerprint(), Schema::of(reordered).fingerprint());
}

TEST(Schema, ProbeRowMatchesSchema) {
  const Schema schema = Schema::of(make_train(6));
  const data::Dataset probe = schema.probe_row();
  EXPECT_EQ(probe.n_rows(), 1u);
  EXPECT_TRUE(schema.matches(probe));
}

TEST(Schema, DatasetFromRowsValidatesCells) {
  const Schema schema = Schema::of(make_train(6));
  const data::Dataset good = schema.dataset_from_rows(
      {{"16", "2.5", "true", "medium"}, {"8", "1", "0", "weak"}});
  EXPECT_EQ(good.n_rows(), 2u);
  EXPECT_TRUE(schema.matches(good));
  EXPECT_DOUBLE_EQ(good.feature("latency").numeric_at(0), 2.5);
  EXPECT_EQ(good.feature("predictor").label_at(1), "weak");

  EXPECT_THROW(schema.dataset_from_rows({{"oops", "1", "0", "weak"}}),
               InvalidArgument);
  EXPECT_THROW(schema.dataset_from_rows({{"1", "1", "maybe", "weak"}}),
               InvalidArgument);
  EXPECT_THROW(schema.dataset_from_rows({{"1", "1", "0", "heroic"}}),
               InvalidArgument);
  EXPECT_THROW(schema.dataset_from_rows({{"1", "1", "0"}}), InvalidArgument);
}

// -------------------------------------------------------------- registry --

TEST(Registry, RegisterLookupAndReloadVersioning) {
  const data::Dataset train = make_train(24);
  const Schema schema = Schema::of(train);
  ModelRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.find("gcc"), nullptr);
  EXPECT_THROW(registry.get("gcc"), StateError);

  EXPECT_EQ(registry.register_model("gcc", fit_model(train, "LR-B"), schema,
                                    "test"),
            1u);
  const auto first = registry.get("gcc");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->source, "test");
  EXPECT_EQ(first->schema.fingerprint(), schema.fingerprint());

  // Re-registering swaps the snapshot and bumps the version; the handed-out
  // entry is immutable and keeps working.
  EXPECT_EQ(registry.register_model("gcc", fit_model(train, "LR-E"), schema),
            2u);
  EXPECT_EQ(registry.get("gcc")->version, 2u);
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->model->predict(train).size(), train.n_rows());

  registry.register_model("mcf", fit_model(train, "LR-B"), schema);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"gcc", "mcf"}));
  EXPECT_EQ(registry.size(), 2u);
  registry.clear();
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Registry, RejectsUnfittedAndSchemaMismatchedModels) {
  const data::Dataset train = make_train(24);
  const Schema schema = Schema::of(train);
  ModelRegistry registry;

  EXPECT_THROW(registry.register_model("null", nullptr, schema),
               InvalidArgument);
  EXPECT_THROW(
      registry.register_model(
          "unfitted",
          std::shared_ptr<const ml::Regressor>(ml::make_model("LR-B").make()),
          schema),
      InvalidArgument);

  // A model fitted on a *wider* layout must fail the registration probe —
  // predicting the narrow schema's probe row cannot satisfy its encoder —
  // rather than serve garbage later.
  data::Dataset narrow;
  narrow.add_feature(data::Column::numeric("alpha", {1.0, 2.0, 3.0, 4.0}));
  narrow.add_feature(data::Column::numeric("beta", {2.0, 4.0, 6.0, 8.0}));
  narrow.set_target("y", {1.0, 2.0, 3.0, 4.0});
  EXPECT_THROW(registry.register_model("mismatch", fit_model(train, "LR-B"),
                                       Schema::of(narrow)),
               InvalidArgument);
  EXPECT_EQ(registry.size(), 0u);
}

// --------------------------------------------------------------- session --

TEST(Session, BatchedPredictionsBitIdenticalToDirectPredict) {
  const data::Dataset train = make_train(64);
  ModelRegistry registry;
  const auto model = fit_model(train, "NN-E");
  registry.register_model("nn", model, Schema::of(train));

  InferenceSession session(registry, "nn");
  const std::vector<double> via_session = session.predict(train);
  const std::vector<double> direct = model->predict(train);
  ASSERT_EQ(via_session.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    // Bit-identical, not approximately equal: the determinism contract.
    EXPECT_EQ(via_session[i], direct[i]) << "row " << i;
  }
}

TEST(Session, RejectsSchemaMismatchedRequests) {
  const data::Dataset train = make_train(16);
  ModelRegistry registry;
  registry.register_model("m", fit_model(train, "LR-B"), Schema::of(train));
  InferenceSession session(registry, "m");

  data::Dataset other;
  other.add_feature(data::Column::numeric("alpha", {1.0}));
  EXPECT_THROW(session.predict(other), InvalidArgument);
  EXPECT_THROW(InferenceSession(registry, "absent"), StateError);
}

TEST(Session, EnforcesQueueBound) {
  const data::Dataset train = make_train(16);
  ModelRegistry registry;
  registry.register_model("m", fit_model(train, "LR-B"), Schema::of(train));
  SessionOptions options;
  options.max_batch_rows = 8;
  options.max_queue_rows = 8;
  InferenceSession session(registry, "m", options);
  EXPECT_THROW(session.predict(train), StateError);  // 16 rows > bound 8
  EXPECT_EQ(session.stats().rejected, 1u);
  const std::vector<std::size_t> few = {0, 1, 2, 3};
  EXPECT_EQ(session.predict(train.select_rows(few)).size(), 4u);
}

TEST(Session, FailedBatchDegradesToPerRowRetry) {
  const data::Dataset train = make_train(12);
  ModelRegistry registry;
  registry.register_model("m", fit_model(train, "LR-B"), Schema::of(train));
  InferenceSession session(registry, "m");

  // First flush throws; every row then succeeds individually, so the caller
  // still gets a full answer and only the stats betray the degradation.
  {
    failpoint::ScopedFailpoints arm("engine.session.flush=nth:1");
    const BatchOutcome outcome = session.predict_detailed(train);
    EXPECT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.degraded);
    EXPECT_EQ(outcome.values.size(), train.n_rows());
  }
  EXPECT_EQ(session.stats().degraded, 1u);

  // Batch fails AND one row keeps failing: the poisoned row fails alone,
  // its batch neighbours keep their predictions.
  {
    failpoint::ScopedFailpoints arm(
        "engine.session.flush=nth:1,engine.session.row=nth:3");
    const BatchOutcome outcome = session.predict_detailed(train);
    EXPECT_FALSE(outcome.ok());
    EXPECT_TRUE(outcome.degraded);
    ASSERT_EQ(outcome.failed_rows.size(), 1u);
    EXPECT_EQ(outcome.failed_rows[0], 2u);  // 3rd hit = row index 2
    ASSERT_EQ(outcome.row_errors.size(), 1u);
    EXPECT_TRUE(std::isnan(outcome.values[2]));
    EXPECT_FALSE(std::isnan(outcome.values[1]));
  }

  // The throwing predict() surfaces the first row failure as an exception
  // (fresh triggers: the nth counters above are already consumed).
  {
    failpoint::ScopedFailpoints arm(
        "engine.session.flush=nth:1,engine.session.row=nth:1");
    EXPECT_THROW(session.predict(train), NumericalError);
  }
}

TEST(Session, ConcurrentRequestsCoalesceAndStayBitIdentical) {
  // The tsan-label workhorse: many threads share one session against one
  // registry entry; whatever batch compositions the leader/follower protocol
  // produces, every thread must see exactly the direct per-slice answer.
  const data::Dataset train = make_train(96);
  ModelRegistry registry;
  const auto model = fit_model(train, "NN-E");
  registry.register_model("nn", model, Schema::of(train));
  InferenceSession session(registry, "nn");

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 8;
  std::vector<data::Dataset> slices;
  std::vector<std::vector<double>> expected;
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::vector<std::size_t> rows;
    for (std::size_t r = t; r < train.n_rows(); r += kThreads) {
      rows.push_back(r);
    }
    slices.push_back(train.select_rows(rows));
    expected.push_back(model->predict(slices.back()));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::vector<double> got = session.predict(slices[t]);
        if (got != expected[t]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.rows, kThreads * kRounds * (train.n_rows() / kThreads));
  EXPECT_GE(stats.batches, 1u);
}

TEST(Session, ConcurrentSessionsAgainstOneRegistry) {
  // Two sessions on different names plus a concurrent re-registration of a
  // third name: registry snapshots must stay coherent under readers.
  const data::Dataset train = make_train(48);
  ModelRegistry registry;
  const auto lr = fit_model(train, "LR-B");
  const auto nn = fit_model(train, "NN-E");
  registry.register_model("lr", lr, Schema::of(train));
  registry.register_model("nn", nn, Schema::of(train));
  const std::vector<double> want_lr = lr->predict(train);
  const std::vector<double> want_nn = nn->predict(train);

  InferenceSession lr_session(registry, "lr");
  InferenceSession nn_session(registry, "nn");
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        if (lr_session.predict(train) != want_lr) mismatches.fetch_add(1);
      }
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        if (nn_session.predict(train) != want_nn) mismatches.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 6; ++i) {
      registry.register_model("swap", fit_model(train, "LR-E"),
                              Schema::of(train));
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(registry.get("swap")->version, 6u);
}

// ----------------------------------------------------------- fit & score --

TEST(FitScore, RunsEveryRequestedStage) {
  const data::Dataset train = make_train(48);
  const data::Dataset score = make_train(12);
  FitScoreRequest request;
  request.model = ml::make_model("LR-B");
  request.train = &train;
  request.estimate = true;
  request.validation.repeats = 2;
  request.score = &score;
  const FitScoreResult cell = fit_and_score(request);
  ASSERT_TRUE(cell.ok());
  EXPECT_EQ(cell.name, "LR-B");
  ASSERT_NE(cell.model, nullptr);
  EXPECT_TRUE(cell.model->fitted());
  EXPECT_EQ(cell.estimate.folds.size(), 2u);  // one fold MAPE per repeat
  EXPECT_EQ(cell.predictions.size(), score.n_rows());
  EXPECT_GE(cell.fit_seconds, 0.0);
}

TEST(FitScore, CapturesFailuresAsRecordsInsteadOfThrowing) {
  const data::Dataset train = make_train(24);
  FitScoreRequest request;
  request.model = ml::make_model("LR-B");
  request.train = &train;
  request.failpoint = "engine.test.cell";
  failpoint::ScopedFailpoints arm("engine.test.cell=err:IoError");
  const FitScoreResult cell = fit_and_score(request);
  EXPECT_FALSE(cell.ok());
  ASSERT_TRUE(cell.failure.has_value());
  EXPECT_EQ(cell.failure->name, "LR-B");
  EXPECT_EQ(cell.failure->error_type, "IoError");
  EXPECT_EQ(cell.model, nullptr);       // no half-trained artifact leaks
  EXPECT_TRUE(cell.predictions.empty());
}

TEST(FitScore, NullTrainIsAContractViolation) {
  FitScoreRequest request;
  request.model = ml::make_model("LR-B");
  EXPECT_THROW(fit_and_score(request), InvalidArgument);
}

// ------------------------------------------------------------ cold start --

TEST(DesignSpace, BuiltOncePerProcess) {
  metrics::Counter& cold = metrics::counter("engine.predict.cold_start");
  const data::Dataset& first = design_space_dataset();
  const std::uint64_t after_first = cold.value();
  EXPECT_GE(after_first, 1u);
  const data::Dataset& again = design_space_dataset();
  EXPECT_EQ(&first, &again);                    // same cached object
  EXPECT_EQ(cold.value(), after_first);         // no second build
  EXPECT_EQ(first.n_rows(), sim::kDesignSpaceSize);
  EXPECT_TRUE(design_space_schema().matches(first));
  EXPECT_EQ(design_space_configs().size(), sim::kDesignSpaceSize);
}

// ------------------------------------------------------------------ serve --

/// A request row in this suite's make_train schema, as a serve-protocol
/// JSON object.
std::string train_row_json() {
  return R"({"size_kb": 16, "latency": 2, "wide": true, "predictor": "medium"})";
}

ServeHandler make_handler(ModelRegistry& registry) {
  const data::Dataset train = make_train(24);
  registry.register_model("m", fit_model(train, "LR-B"), Schema::of(train));
  ServeOptions options;
  options.default_model = "m";
  return ServeHandler(registry, options);
}

TEST(Serve, ZeroRowRequestAnswersEmptyPredictions) {
  ModelRegistry registry;
  ServeHandler handler = make_handler(registry);
  const std::string response = handler.handle(R"({"rows": []})");
  EXPECT_EQ(response,
            "{\"ok\":true,\"model\":\"m\",\"version\":1,\"predictions\":[]}\n");
  const ServeSummary summary = handler.summary();
  EXPECT_EQ(summary.requests, 1u);
  EXPECT_EQ(summary.rows, 0u);
  EXPECT_EQ(summary.errors, 0u);
}

TEST(Serve, MissingRowsIsAClearInvalidArgument) {
  ModelRegistry registry;
  ServeHandler handler = make_handler(registry);
  // Missing and non-array "rows" must surface the protocol contract, not a
  // raw JSON-accessor error.
  const std::vector<std::string> bad_requests = {
      R"({"model": "m"})", R"({"rows": {"not": "an array"}})",
      R"({"rows": 7})"};
  for (const std::string& request : bad_requests) {
    const std::string response = handler.handle(request);
    EXPECT_NE(response.find("request needs a \\\"rows\\\" array"),
              std::string::npos)
        << response;
    EXPECT_NE(response.find("InvalidArgument"), std::string::npos) << response;
  }
  EXPECT_EQ(handler.summary().errors, 3u);
}

TEST(Serve, BlankLinesAreSkippedNotAnswered) {
  ModelRegistry registry;
  ServeHandler handler = make_handler(registry);
  EXPECT_EQ(handler.handle(""), "");
  EXPECT_EQ(handler.handle("   \t"), "");
  EXPECT_EQ(handler.summary().requests, 0u);
}

TEST(Serve, CrlfTerminatedLinesParse) {
  // The stdin loop hands getline output to the handler with the \r still
  // attached; the JSON parser treats it as whitespace. Pin that contract —
  // the TCP front-end strips \r itself, so both transports accept CRLF.
  ModelRegistry registry;
  ServeHandler handler = make_handler(registry);
  const std::string response =
      handler.handle("{\"rows\": [" + train_row_json() + "]}\r");
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_EQ(handler.summary().rows, 1u);
}

TEST(Serve, RequestLargerThanQueueFailsAloneLoopKeepsServing) {
  ModelRegistry registry;
  const data::Dataset train = make_train(24);
  registry.register_model("m", fit_model(train, "LR-B"), Schema::of(train));
  ServeOptions options;
  options.default_model = "m";
  options.session.max_batch_rows = 2;
  options.session.max_queue_rows = 4;
  ServeHandler handler(registry, options);

  std::string big = R"({"rows": [)";
  for (int i = 0; i < 5; ++i) {
    if (i > 0) big += ",";
    big += train_row_json();
  }
  big += "]}";
  const std::string refused = handler.handle(big);
  EXPECT_NE(refused.find("\"ok\":false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("StateError"), std::string::npos) << refused;

  const std::string served =
      handler.handle("{\"rows\": [" + train_row_json() + "]}");
  EXPECT_NE(served.find("\"ok\":true"), std::string::npos) << served;
  const ServeSummary summary = handler.summary();
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_EQ(summary.rows, 1u);
}

TEST(Serve, PartialResponsesCountSeparatelyFromErrors) {
  ModelRegistry registry;
  ServeHandler handler = make_handler(registry);
  metrics::Counter& partial_metric = metrics::counter("engine.serve.partial");
  const std::uint64_t partial_before = partial_metric.value();

  std::string request = R"({"rows": [)" + train_row_json() + "," +
                        train_row_json() + "]}";
  std::string response;
  {
    // Poison one row: the batch degrades to per-row retry and exactly one
    // row fails, yielding a partial response.
    failpoint::ScopedFailpoints arm(
        "engine.session.flush=nth:1,engine.session.row=nth:1");
    response = handler.handle(request);
  }
  EXPECT_NE(response.find("\"partial\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("null"), std::string::npos) << response;

  const ServeSummary summary = handler.summary();
  EXPECT_EQ(summary.partial, 1u);   // a partly-answered request is not
  EXPECT_EQ(summary.errors, 0u);    // a whole-request failure
  EXPECT_EQ(summary.rows, 1u);      // the surviving row still counts
  EXPECT_EQ(partial_metric.value(), partial_before + 1);
}

TEST(Serve, StdinLoopMatchesHandlerByteForByte) {
  const std::string requests = "{\"rows\": [" + train_row_json() + "]}\n" +
                               "\n" +  // blank line: skipped, no response
                               R"({"model": "nope", "rows": []})" + "\n" +
                               R"({"rows": 7})" + "\n";
  ModelRegistry stream_registry;
  const data::Dataset train = make_train(24);
  stream_registry.register_model("m", fit_model(train, "LR-B"),
                                 Schema::of(train));
  ServeOptions options;
  options.default_model = "m";
  std::istringstream in(requests);
  std::ostringstream out;
  const ServeSummary loop_summary =
      serve(stream_registry, in, out, options);

  ModelRegistry handler_registry;
  ServeHandler handler = make_handler(handler_registry);
  std::string expected;
  std::istringstream lines(requests);
  std::string line;
  while (std::getline(lines, line)) expected += handler.handle(line);

  EXPECT_EQ(out.str(), expected);
  const ServeSummary handler_summary = handler.summary();
  EXPECT_EQ(loop_summary.requests, handler_summary.requests);
  EXPECT_EQ(loop_summary.rows, handler_summary.rows);
  EXPECT_EQ(loop_summary.errors, handler_summary.errors);
  EXPECT_EQ(loop_summary.partial, handler_summary.partial);
}

}  // namespace
}  // namespace dsml::engine
