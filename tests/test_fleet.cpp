// Fleet-layer tests: consistent-hash shard placement, the coordinator/worker
// wire protocol, shard simulation + merge coverage checks, in-process
// worker/coordinator scatter-gather (the merged table must be bit-identical
// to a single-process sweep, clean AND with workers dying mid-sweep), model
// snapshot shipping through the atomic registry swap, and the supervisor's
// respawn/evict state machine. Carries the fault label (fleet.* and net.*
// failpoints) and the tsan label (server threads + coordinator + pool).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "common/trace.hpp"
#include "data/column.hpp"
#include "data/dataset.hpp"
#include "dse/campaign.hpp"
#include "dse/sampler.hpp"
#include "dse/sweep.hpp"
#include "engine/registry.hpp"
#include "fleet/evaluator.hpp"
#include "engine/schema.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/hash_ring.hpp"
#include "fleet/protocol.hpp"
#include "fleet/supervisor.hpp"
#include "fleet/worker.hpp"
#include "ml/model_zoo.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "sim/config.hpp"

namespace dsml::fleet {
namespace {

// Tiny sweep options (same scale as test_dse) so every distributed sweep
// stays fast; the space is still the full 4608 configurations.
dse::SweepOptions tiny_sweep() {
  dse::SweepOptions opt;
  opt.full_trace_instructions = 20000;
  opt.interval_instructions = 2000;
  opt.max_clusters = 2;
  opt.use_cache = false;
  return opt;
}

/// The single-process ground truth every distributed result must match
/// bit-for-bit. Computed once per test process.
const dse::SweepResult& golden() {
  static const dse::SweepResult result =
      dse::run_design_space_sweep("mcf", tiny_sweep());
  return result;
}

/// Every design-space index: the full sweep as an index set.
std::vector<std::size_t> all_indices() {
  std::vector<std::size_t> all(sim::kDesignSpaceSize);
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

WorkerOptions loopback_worker() {
  WorkerOptions options;
  options.server.bind_address = "127.0.0.1";
  options.server.port = 0;  // ephemeral
  return options;
}

CoordinatorOptions fast_coordinator(std::size_t max_rounds = 3) {
  CoordinatorOptions options;
  options.connect_timeout_ms = 2000;
  options.ping_timeout_ms = 1000;
  options.request_timeout_ms = 60000;
  options.max_rounds = max_rounds;
  options.sweep = tiny_sweep();
  return options;
}

/// Runs a Worker's event loop on a background thread for a test's duration.
class WorkerRunner {
 public:
  explicit WorkerRunner(Worker& worker)
      : worker_(worker), thread_([this] { worker_.run(); }) {}
  ~WorkerRunner() {
    worker_.request_stop();
    thread_.join();
  }

 private:
  Worker& worker_;
  std::thread thread_;
};

/// A worker fleet of `n` in-process Workers, each with its own registry.
class Fleet {
 public:
  explicit Fleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      registries_.push_back(std::make_unique<engine::ModelRegistry>());
      workers_.push_back(
          std::make_unique<Worker>(*registries_.back(), loopback_worker()));
      runners_.push_back(std::make_unique<WorkerRunner>(*workers_.back()));
    }
  }

  std::vector<Endpoint> endpoints() const {
    std::vector<Endpoint> out;
    for (const auto& w : workers_) out.push_back({"127.0.0.1", w->port()});
    return out;
  }

  Worker& worker(std::size_t i) { return *workers_[i]; }
  engine::ModelRegistry& registry(std::size_t i) { return *registries_[i]; }

 private:
  std::vector<std::unique_ptr<engine::ModelRegistry>> registries_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<WorkerRunner>> runners_;
};

/// Same toy mixed-kind training set as the engine tests: instant fits that
/// still exercise the full schema/encoder path.
data::Dataset make_train(std::size_t n) {
  std::vector<double> size_kb, latency, target;
  std::vector<bool> wide;
  std::vector<std::string> predictor;
  const std::vector<std::string> levels = {"weak", "medium", "strong"};
  for (std::size_t i = 0; i < n; ++i) {
    const double s = static_cast<double>(8 << (i % 4));
    const double l = 1.0 + static_cast<double>(i % 5);
    size_kb.push_back(s);
    latency.push_back(l);
    wide.push_back((i % 2) == 0);
    predictor.push_back(levels[i % levels.size()]);
    target.push_back(1000.0 - 3.0 * s + 40.0 * l - 10.0 * double(i % 3));
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

std::shared_ptr<const ml::Regressor> fit_toy(const data::Dataset& train) {
  std::unique_ptr<ml::Regressor> model = ml::make_model("LR-B").make();
  model->fit(train);
  return std::shared_ptr<const ml::Regressor>(std::move(model));
}

// --------------------------------------------------------------- hash ring --

TEST(HashRing, PlacementIsDeterministicAndCoversEveryKey) {
  HashRing a;
  HashRing b;
  for (const char* node : {"w1:1", "w2:2", "w3:3"}) {
    a.add(node);
    b.add(node);
  }
  const auto parts = a.partition(1000);
  std::vector<int> seen(1000, 0);
  for (const auto& [node, indices] : parts) {
    for (std::size_t idx : indices) {
      ASSERT_LT(idx, 1000u);
      seen[idx] += 1;
      EXPECT_EQ(b.owner(idx), node);  // placement is a pure function
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  EXPECT_EQ(parts.size(), 3u);  // 64 replicas: every node owns a slice
}

TEST(HashRing, EvictionMovesOnlyTheEvictedNodesKeys) {
  HashRing ring;
  ring.add("w1:1");
  ring.add("w2:2");
  ring.add("w3:3");
  std::vector<std::string> before;
  for (std::uint64_t k = 0; k < 2000; ++k) before.push_back(ring.owner(k));
  ring.erase("w2:2");
  for (std::uint64_t k = 0; k < 2000; ++k) {
    const std::string& after = ring.owner(k);
    EXPECT_NE(after, "w2:2");
    if (before[k] != "w2:2") {
      // Surviving nodes keep every key they owned: a retry round only
      // re-simulates the dead worker's slice.
      EXPECT_EQ(after, before[k]) << "key " << k;
    }
  }
}

TEST(HashRing, RejectsZeroReplicasAndEmptyLookups) {
  EXPECT_THROW(HashRing(0), InvalidArgument);
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW(ring.owner(7), StateError);
  EXPECT_THROW(ring.partition(10), StateError);
  ring.add("w:1");
  ring.erase("w:1");
  EXPECT_THROW(ring.owner(7), StateError);
}

// ---------------------------------------------------------------- protocol --

TEST(Protocol, SweepRequestRoundTrips) {
  SweepRequest request;
  request.app = "mcf";
  request.options = tiny_sweep();
  request.options.trace_seed = 99;
  request.indices = {0, 7, 4607};
  const std::string line = encode_sweep_request(request);
  EXPECT_TRUE(is_fleet_request(line));
  const json::Value doc = json::Value::parse(line);
  EXPECT_EQ(fleet_op(doc), "sweep");
  const SweepRequest back = parse_sweep_request(doc);
  EXPECT_EQ(back.app, "mcf");
  EXPECT_EQ(back.indices, request.indices);
  EXPECT_EQ(back.options.full_trace_instructions, 20000u);
  EXPECT_EQ(back.options.interval_instructions, 2000u);
  EXPECT_EQ(back.options.max_clusters, 2u);
  EXPECT_EQ(back.options.trace_seed, 99u);
}

TEST(Protocol, HexCodecRoundTripsAndRejectsMalformedInput) {
  std::string bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<char>(i));
  EXPECT_EQ(decode_hex(encode_hex(bytes)), bytes);
  EXPECT_EQ(encode_hex(""), "");
  EXPECT_THROW(decode_hex("abc"), IoError);   // odd length
  EXPECT_THROW(decode_hex("zz"), IoError);    // non-hex digit
}

TEST(Protocol, NonFleetLinesAreNotFleetRequests) {
  EXPECT_TRUE(is_fleet_request(encode_ping()));
  EXPECT_TRUE(is_fleet_request(encode_shutdown()));
  EXPECT_FALSE(is_fleet_request(R"({"model":"gcc","rows":[{"a":1}]})"));
  EXPECT_FALSE(is_fleet_request(""));
}

TEST(Protocol, ErrorResponsesRethrowAsTaxonomyTypes) {
  const std::string state =
      R"({"ok":false,"fleet":"error","error_type":"StateError","error":"gone"})";
  EXPECT_THROW(parse_response(state, "pong"), StateError);
  const std::string training =
      R"({"ok":false,"fleet":"error","error_type":"TrainingError","error":"x"})";
  EXPECT_THROW(parse_response(training, "shard"), TrainingError);
  // A well-formed response for the wrong operation is a protocol error.
  const std::string pong = R"({"ok":true,"fleet":"pong","models":[]})";
  EXPECT_THROW(parse_response(pong, "shard"), IoError);
}

// ------------------------------------------------------------ shard + merge --

dse::SweepShard slice_of_golden(std::vector<std::size_t> indices) {
  dse::SweepShard shard;
  for (std::size_t idx : indices) shard.cycles.push_back(golden().cycles[idx]);
  shard.indices = std::move(indices);
  shard.simpoint_count = golden().simpoint_count;
  shard.simulated_instructions = golden().simulated_instructions;
  return shard;
}

TEST(SweepShard, MatchesTheFullSweepSlice) {
  const std::vector<std::size_t> indices = {0, 1, 7, 100, 4607};
  const dse::SweepShard shard =
      dse::run_sweep_shard("mcf", tiny_sweep(), indices);
  ASSERT_EQ(shard.cycles.size(), indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(shard.cycles[i], golden().cycles[indices[i]]) << indices[i];
  }
  EXPECT_EQ(shard.simpoint_count, golden().simpoint_count);
  EXPECT_EQ(shard.simulated_instructions, golden().simulated_instructions);
}

TEST(SweepShard, RejectsBadIndexSets) {
  EXPECT_THROW(dse::run_sweep_shard("mcf", tiny_sweep(), {}), InvalidArgument);
  EXPECT_THROW(dse::run_sweep_shard("mcf", tiny_sweep(), {5, 0, 5}),
               InvalidArgument);
  EXPECT_THROW(
      dse::run_sweep_shard("mcf", tiny_sweep(), {sim::kDesignSpaceSize}),
      InvalidArgument);
}

TEST(SweepMerge, ReassemblesTheExactFullSweep) {
  std::vector<std::size_t> evens, odds;
  for (std::size_t i = 0; i < sim::kDesignSpaceSize; ++i) {
    (i % 2 == 0 ? evens : odds).push_back(i);
  }
  const dse::SweepShard merged = dse::merge_sweep_shards(
      all_indices(), {slice_of_golden(std::move(evens)),
                      slice_of_golden(std::move(odds))});
  EXPECT_EQ(merged.indices, all_indices());
  ASSERT_EQ(merged.cycles.size(), golden().cycles.size());
  EXPECT_EQ(merged.cycles, golden().cycles);  // bit-identical
  EXPECT_EQ(merged.simpoint_count, golden().simpoint_count);
  EXPECT_EQ(merged.simulated_instructions, golden().simulated_instructions);
}

TEST(SweepMerge, AlignsAnIndexSubsetToTheRequest) {
  const std::vector<std::size_t> request = {3, 100, 777, 4607};
  const dse::SweepShard merged = dse::merge_sweep_shards(
      request, {slice_of_golden({777, 3}), slice_of_golden({4607, 100})});
  EXPECT_EQ(merged.indices, request);
  ASSERT_EQ(merged.cycles.size(), request.size());
  for (std::size_t i = 0; i < request.size(); ++i) {
    EXPECT_EQ(merged.cycles[i], golden().cycles[request[i]]) << request[i];
  }
  // Two shards each repeat the sweep's conditions; the answer carries them
  // once.
  EXPECT_EQ(merged.simpoint_count, golden().simpoint_count);
  EXPECT_EQ(merged.simulated_instructions, golden().simulated_instructions);
  EXPECT_THROW(dse::merge_sweep_shards({100, 3}, {slice_of_golden({3, 100})}),
               InvalidArgument);  // request not ascending
}

TEST(SweepMerge, RefusesSilentPartialCoverage) {
  std::vector<std::size_t> all_but_one;
  for (std::size_t i = 1; i < sim::kDesignSpaceSize; ++i) {
    all_but_one.push_back(i);
  }
  EXPECT_THROW(
      dse::merge_sweep_shards(all_indices(), {slice_of_golden(all_but_one)}),
      StateError);  // one missing configuration
  std::vector<std::size_t> everything = all_but_one;
  everything.push_back(0);
  dse::SweepShard dup = slice_of_golden({0});
  EXPECT_THROW(dse::merge_sweep_shards(
                   all_indices(), {slice_of_golden(everything), dup}),
               StateError);  // index 0 covered twice
  dse::SweepShard skewed = slice_of_golden({0});
  skewed.simpoint_count += 1;  // simulated under different conditions
  EXPECT_THROW(dse::merge_sweep_shards(
                   all_indices(), {slice_of_golden(all_but_one), skewed}),
               StateError);
  EXPECT_THROW(dse::merge_sweep_shards(all_indices(), {}), StateError);
  // An answer outside the request is refused, not dropped.
  EXPECT_THROW(dse::merge_sweep_shards({1, 2}, {slice_of_golden({1, 2, 3})}),
               StateError);
}

// ------------------------------------------------------------------ worker --

TEST(FleetWorker, AnswersPingSweepErrorAndShutdown) {
  engine::ModelRegistry registry;
  Worker worker(registry, loopback_worker());
  std::thread loop([&] { worker.run(); });
  net::LineClient client("127.0.0.1", worker.port());

  const json::Value pong = parse_response(client.request(encode_ping()),
                                          "pong");
  EXPECT_TRUE(pong.at("models").items().empty());

  SweepRequest request;
  request.app = "mcf";
  request.options = tiny_sweep();
  request.indices = {0, 3, 9};
  const json::Value doc = parse_response(
      client.request(encode_sweep_request(request)), "shard");
  const ShardResponse shard = parse_shard_response(doc);
  ASSERT_EQ(shard.cycles.size(), 3u);
  EXPECT_EQ(shard.cycles[0], golden().cycles[0]);
  EXPECT_EQ(shard.cycles[1], golden().cycles[3]);
  EXPECT_EQ(shard.cycles[2], golden().cycles[9]);
  EXPECT_EQ(shard.simpoint_count, golden().simpoint_count);

  // An unknown fleet operation is an error *response*; the loop survives.
  EXPECT_THROW(parse_response(client.request(R"({"fleet":"bogus"})"), "any"),
               InvalidArgument);

  parse_response(client.request(encode_shutdown()), "bye");
  loop.join();  // the shutdown request stopped run()

  const WorkerSummary summary = worker.summary();
  EXPECT_EQ(summary.pings, 1u);
  EXPECT_EQ(summary.shards, 1u);
  EXPECT_EQ(summary.errors, 1u);
}

TEST(FleetWorker, DelegatesServeTrafficOnTheSamePort) {
  const data::Dataset train = make_train(24);
  engine::ModelRegistry registry;
  registry.register_model("toy", fit_toy(train), engine::Schema::of(train));
  Worker worker(registry, loopback_worker());
  WorkerRunner runner(worker);
  net::LineClient client("127.0.0.1", worker.port());
  const std::string response = client.request(
      R"({"model":"toy","rows":[{"size_kb":8,"latency":2,"wide":true,)"
      R"("predictor":"weak"}]})");
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"predictions\""), std::string::npos) << response;
  EXPECT_EQ(worker.summary().serve.requests, 1u);
  EXPECT_EQ(worker.summary().serve.rows, 1u);
}

// --------------------------------------------------------------- snapshots --

TEST(Snapshots, RoundTripThroughASecondRegistry) {
  const data::Dataset train = make_train(24);
  engine::ModelRegistry source;
  source.register_model("toy", fit_toy(train), engine::Schema::of(train));
  const std::string blob = source.serialize_entry("toy");

  engine::ModelRegistry sink;
  EXPECT_EQ(sink.register_snapshot("toy", blob), 1u);
  EXPECT_EQ(sink.register_snapshot("toy", blob), 2u);  // swap bumps version

  const auto a = source.get("toy");
  const auto b = sink.get("toy");
  EXPECT_EQ(a->schema.fingerprint(), b->schema.fingerprint());
  const std::vector<double> want = a->model->predict(train);
  const std::vector<double> got = b->model->predict(train);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(want[i], got[i]);
}

TEST(Snapshots, MalformedBlobsAreRejected) {
  engine::ModelRegistry registry;
  EXPECT_THROW(registry.register_snapshot("x", "not a snapshot"), IoError);
  EXPECT_THROW(registry.serialize_entry("missing"), StateError);
}

TEST(Snapshots, PushUpdatesEveryLiveWorker) {
  const data::Dataset train = make_train(24);
  engine::ModelRegistry source;
  source.register_model("toy", fit_toy(train), engine::Schema::of(train));
  const std::string blob = source.serialize_entry("toy");

  Fleet fleet(2);
  const PushResult push =
      push_model_snapshot("toy", blob, fleet.endpoints(), fast_coordinator());
  EXPECT_TRUE(push.failures.empty());
  ASSERT_EQ(push.outcomes.size(), 2u);
  for (const PushOutcome& outcome : push.outcomes) {
    EXPECT_EQ(outcome.version, 1u);
  }
  // The model now answers pings and predict traffic on both workers.
  for (const Endpoint& endpoint : fleet.endpoints()) {
    net::LineClient client(endpoint.host, endpoint.port);
    const json::Value pong =
        parse_response(client.request(encode_ping()), "pong");
    ASSERT_EQ(pong.at("models").items().size(), 1u);
    EXPECT_EQ(pong.at("models").items()[0].as_string(), "toy");
  }
}

// ------------------------------------------------------------- coordinator --

TEST(Coordinator, ParsesAndValidatesEndpoints) {
  const Endpoint e = parse_endpoint("10.0.0.1:9001");
  EXPECT_EQ(e.host, "10.0.0.1");
  EXPECT_EQ(e.port, 9001);
  EXPECT_EQ(e.label(), "10.0.0.1:9001");
  EXPECT_THROW(parse_endpoint("nohost"), InvalidArgument);
  EXPECT_THROW(parse_endpoint("h:0"), InvalidArgument);
  EXPECT_THROW(parse_endpoint("h:70000"), InvalidArgument);
  EXPECT_THROW(parse_endpoint(":9000"), InvalidArgument);
  EXPECT_THROW(coordinator_gather("mcf", {}, fast_coordinator(), all_indices()),
               InvalidArgument);
}

TEST(Coordinator, ShardedSweepMatchesLocalSweepBitForBit) {
  Fleet fleet(3);
  const GatherResult result = coordinator_gather(
      "mcf", fleet.endpoints(), fast_coordinator(), all_indices());
  EXPECT_EQ(result.shard.cycles, golden().cycles);  // bit-identical
  EXPECT_EQ(result.shard.simpoint_count, golden().simpoint_count);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.workers_used, 3u);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_TRUE(result.evicted.empty());
}

TEST(Coordinator, WorkerDeathMidSweepIsReassignedToSurvivors) {
  Fleet fleet(2);
  // A hostile third "worker": pings fine, then drops dead (process exit
  // stand-in) the moment its shard assignment arrives.
  net::Server* hostile_raw = nullptr;
  net::ServerOptions hostile_options;
  hostile_options.bind_address = "127.0.0.1";
  hostile_options.port = 0;
  auto hostile = std::make_unique<net::Server>(
      hostile_options, [&](std::string_view line) -> std::string {
        if (line.find("\"fleet\":\"ping\"") != std::string_view::npos) {
          return "{\"ok\":true,\"fleet\":\"pong\",\"models\":[]}\n";
        }
        hostile_raw->request_stop();
        return "";
      });
  hostile_raw = hostile.get();
  std::vector<Endpoint> endpoints = fleet.endpoints();
  endpoints.push_back({"127.0.0.1", hostile->port()});
  const std::string hostile_label = endpoints.back().label();
  // Destroying the server on loop exit closes its sockets: the coordinator
  // sees EOF mid-gather, exactly like a killed process.
  std::thread hostile_thread([&] {
    hostile->run();
    hostile.reset();
  });

  const GatherResult result =
      coordinator_gather("mcf", endpoints, fast_coordinator(), all_indices());
  hostile_thread.join();

  EXPECT_EQ(result.shard.cycles, golden().cycles);  // still bit-identical
  EXPECT_EQ(result.rounds, 2u);
  EXPECT_EQ(result.workers_used, 2u);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0], hostile_label);
  EXPECT_FALSE(result.failures.empty());
  EXPECT_EQ(result.failures[0].error_type, "IoError");
}

TEST(Coordinator, WorkerSweepFailpointIsRetriedElsewhere) {
  failpoint::ScopedFailpoints armed("fleet.worker.sweep=nth:1");
  Fleet fleet(2);
  const GatherResult result = coordinator_gather(
      "mcf", fleet.endpoints(), fast_coordinator(), all_indices());
  EXPECT_EQ(result.shard.cycles, golden().cycles);
  EXPECT_EQ(result.rounds, 2u);
  ASSERT_EQ(result.failures.size(), 1u);
  // nth triggers throw NumericalError; the remote taxonomy survives the wire.
  EXPECT_EQ(result.failures[0].error_type, "NumericalError");
  EXPECT_EQ(result.evicted.size(), 1u);
}

TEST(Coordinator, CoordinatorSideFailpointsAreContained) {
  for (const char* spec : {"fleet.coordinator.scatter=nth:1",
                           "fleet.coordinator.gather=nth:1"}) {
    failpoint::ScopedFailpoints armed(spec);
    Fleet fleet(2);
    const GatherResult result = coordinator_gather(
        "mcf", fleet.endpoints(), fast_coordinator(), all_indices());
    EXPECT_EQ(result.shard.cycles, golden().cycles) << spec;
    EXPECT_EQ(result.rounds, 2u) << spec;
    EXPECT_FALSE(result.failures.empty()) << spec;
  }
}

TEST(Coordinator, TransportFailpointsAreContained) {
  // net.* failpoints fire in the worker's server loop: the first accept /
  // read / write is dropped, the affected connection dies, and the round
  // loop must recover exactly like a real peer death.
  for (const char* spec :
       {"net.accept=nth:1", "net.read=nth:1", "net.write=nth:1"}) {
    failpoint::ScopedFailpoints armed(spec);
    Fleet fleet(1);
    const GatherResult result = coordinator_gather(
        "mcf", fleet.endpoints(), fast_coordinator(), all_indices());
    EXPECT_EQ(result.shard.cycles, golden().cycles) << spec;
    EXPECT_EQ(result.rounds, 2u) << spec;
    EXPECT_FALSE(result.failures.empty()) << spec;
  }
}

TEST(Coordinator, AllWorkersDeadIsALoudError) {
  // Bind-then-close: a port that refuses connections immediately.
  std::uint16_t dead_port = 0;
  {
    net::Server placeholder(loopback_worker().server, [](std::string_view) {
      return std::string();
    });
    dead_port = placeholder.port();
  }
  CoordinatorOptions options = fast_coordinator(/*max_rounds=*/2);
  options.connect_timeout_ms = 500;
  try {
    coordinator_gather("mcf", {{"127.0.0.1", dead_port}}, options,
                       all_indices());
    FAIL() << "expected StateError";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("unassigned"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------- fleet evaluator --

/// Runs the same adaptive campaign against any ground-truth evaluator; the
/// tests below require the resulting tables to be bit-identical whether the
/// cycles came from the in-memory sweep dataset or over the wire from a
/// worker fleet (evictions included).
dse::CampaignResult adaptive_campaign(const data::Dataset& space,
                                      dse::Evaluator& evaluator) {
  dse::AdaptiveSampler sampler(7);
  dse::CampaignConfig config;
  config.app = "mcf";
  config.space = &space;
  config.sampler = &sampler;
  config.evaluator = &evaluator;
  config.model_names = {"LR-B", "NN-S"};
  config.rounds = dse::budget_rounds(24, 2);
  return dse::Campaign(config).run();
}

TEST(FleetEvaluator, GathersArbitraryIndexSetsBitForBit) {
  Fleet fleet(2);
  FleetEvaluator evaluator("mcf", fleet.endpoints(), fast_coordinator());
  const std::vector<std::size_t> indices = {3, 100, 777, 2047, 4607};
  const dse::SweepShard shard = evaluator.evaluate(indices);
  ASSERT_EQ(shard.indices, indices);
  ASSERT_EQ(shard.cycles.size(), indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(shard.cycles[i], golden().cycles[indices[i]]) << indices[i];
  }
  EXPECT_TRUE(evaluator.drain_failures().empty());
  EXPECT_THROW(evaluator.evaluate({}), InvalidArgument);
  EXPECT_THROW(evaluator.evaluate({5, 5}), InvalidArgument);
  EXPECT_THROW(evaluator.evaluate({sim::kDesignSpaceSize}), InvalidArgument);
}

TEST(FleetEvaluator, FullSpaceAnswerCarriesTheSweepsSimPointNumbers) {
  // Each of the three workers' shards repeats the sweep's SimPoint count
  // and trace length; the answer carries them once, not their sum.
  Fleet fleet(3);
  FleetEvaluator evaluator("mcf", fleet.endpoints(), fast_coordinator());
  const dse::SweepShard answer = evaluator.evaluate(all_indices());
  EXPECT_EQ(answer.cycles, golden().cycles);
  EXPECT_EQ(answer.simpoint_count, golden().simpoint_count);
  EXPECT_EQ(answer.simulated_instructions, golden().simulated_instructions);
}

TEST(FleetEvaluator, CampaignMatchesTheDatasetEvaluatorBitForBit) {
  const data::Dataset space = dse::sweep_dataset(golden());
  dse::DatasetEvaluator local(space);
  const dse::CampaignResult expected = adaptive_campaign(space, local);

  Fleet fleet(3);
  FleetEvaluator remote("mcf", fleet.endpoints(), fast_coordinator());
  const dse::CampaignResult result = adaptive_campaign(space, remote);

  EXPECT_EQ(result.evaluated, expected.evaluated);
  ASSERT_EQ(result.rounds.size(), expected.rounds.size());
  for (std::size_t r = 0; r < expected.rounds.size(); ++r) {
    ASSERT_EQ(result.rounds[r].cells.size(), expected.rounds[r].cells.size());
    for (std::size_t c = 0; c < expected.rounds[r].cells.size(); ++c) {
      EXPECT_EQ(result.rounds[r].cells[c].predictions,
                expected.rounds[r].cells[c].predictions);
      EXPECT_EQ(result.rounds[r].cells[c].estimated_error_max,
                expected.rounds[r].cells[c].estimated_error_max);
    }
    EXPECT_EQ(result.rounds[r].select.chosen_model,
              expected.rounds[r].select.chosen_model);
  }
  EXPECT_TRUE(result.failures.empty());
  EXPECT_TRUE(remote.evicted().empty());
}

TEST(FleetEvaluator, EvictedWorkerMidRoundStillConverges) {
  const data::Dataset space = dse::sweep_dataset(golden());
  dse::DatasetEvaluator local(space);
  const dse::CampaignResult expected = adaptive_campaign(space, local);

  // The first shard request a worker simulates dies (fleet.worker.sweep):
  // the coordinator evicts that worker for the gather round, reassigns its
  // indices to the survivor, and the campaign's table must not change.
  failpoint::ScopedFailpoints armed("fleet.worker.sweep=nth:1");
  Fleet fleet(2);
  FleetEvaluator remote("mcf", fleet.endpoints(), fast_coordinator());
  const dse::CampaignResult result = adaptive_campaign(space, remote);

  EXPECT_EQ(result.evaluated, expected.evaluated);
  ASSERT_EQ(result.rounds.size(), expected.rounds.size());
  for (std::size_t r = 0; r < expected.rounds.size(); ++r) {
    ASSERT_EQ(result.rounds[r].cells.size(), expected.rounds[r].cells.size());
    for (std::size_t c = 0; c < expected.rounds[r].cells.size(); ++c) {
      EXPECT_EQ(result.rounds[r].cells[c].predictions,
                expected.rounds[r].cells[c].predictions);
    }
  }
  EXPECT_EQ(remote.evicted().size(), 1u);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_EQ(result.failures[0].error_type, "NumericalError");
}

// -------------------------------------------------------------- supervisor --

TEST(Supervisor, ValidatesOptions) {
  SupervisorOptions bad;
  bad.exe = "";
  EXPECT_THROW(Supervisor{bad}, InvalidArgument);
  SupervisorOptions zero;
  zero.exe = "/bin/sh";
  zero.workers = 0;
  EXPECT_THROW(Supervisor{zero}, InvalidArgument);
}

TEST(Supervisor, KeepsLiveWorkersRunningAndStopsThem) {
  SupervisorOptions options;
  options.exe = "/bin/sh";
  // exec: the pid stop() signals is sleep itself. A shell that forked sleep
  // would die alone, leaving sleep to hold the test's output pipe for 30 s.
  options.worker_args = {"-c", "exec sleep 30"};
  options.workers = 2;
  Supervisor supervisor(options);
  EXPECT_EQ(supervisor.endpoints().size(), 2u);
  supervisor.start();
  EXPECT_THROW(supervisor.start(), StateError);
  EXPECT_EQ(supervisor.tick(), 2u);
  supervisor.stop(/*grace_ms=*/200);
  supervisor.stop();  // idempotent
  const SupervisorSummary summary = supervisor.summary();
  EXPECT_EQ(summary.spawns, 2u);
  EXPECT_EQ(summary.respawns, 0u);
  const std::vector<std::string> events = supervisor.drain_events();
  EXPECT_EQ(events.size(), 2u);  // two spawn events
  EXPECT_NE(events[0].find("spawned worker 0"), std::string::npos)
      << events[0];
}

TEST(Supervisor, RespawnsCrashLoopersThenEvictsThem) {
  SupervisorOptions options;
  options.exe = "/bin/sh";
  options.worker_args = {"-c", "exit 7"};
  options.workers = 2;
  options.backoff_initial_ms = 10;
  options.backoff_max_ms = 20;
  options.max_respawns = 1;
  Supervisor supervisor(options);
  supervisor.start();
  trace::Stopwatch deadline;
  while (supervisor.evicted().size() < 2 && deadline.seconds() < 10.0) {
    supervisor.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(supervisor.evicted().size(), 2u);
  const SupervisorSummary summary = supervisor.summary();
  EXPECT_EQ(summary.spawns, 4u);     // 2 initial + 2 respawns
  EXPECT_EQ(summary.respawns, 2u);
  EXPECT_EQ(summary.exits, 4u);
  EXPECT_EQ(summary.evictions, 2u);
  bool saw_eviction = false;
  for (const std::string& event : supervisor.drain_events()) {
    if (event.find("evicted worker") != std::string::npos) {
      saw_eviction = true;
    }
  }
  EXPECT_TRUE(saw_eviction);
  // Eviction closed the listener: coordinators fail fast, not hang.
  const Endpoint endpoint = supervisor.endpoints()[0];
  EXPECT_THROW(net::LineClient(endpoint.host, endpoint.port,
                               net::ClientOptions{500, 500}),
               IoError);
  supervisor.stop();
}

}  // namespace
}  // namespace dsml::fleet
