// Micro-benchmarks of the simulator substrate (google-benchmark): the
// one-config simulate() path (a one-configuration simulate_batch), the
// timing passes a sweep's L2 keys take (one configuration per one-lane
// pass, eight or four per vector pass), cache and predictor lookup costs,
// trace generation speed, and the reduced trace a sweep builds. The timing
// benchmarks count configurations x instructions, so their items/s compare
// per configuration.
//
// The timing benchmarks time the outcome stream and group counters that
// simulate_batch times: detail::FunctionalStreams, then one
// UnitWalker::walk. The tests' reference functional pass
// (tests/support/reference_sim.hpp) gives the same outcomes, but bench/
// may not include tests/.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "dse/sweep.hpp"
#include "sim/branch.hpp"
#include "sim/cache.hpp"
#include "sim/core.hpp"
#include "sim/functional_streams.hpp"
#include "sim/timing_kernel.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/simpoint.hpp"

namespace {

using namespace dsml;

const sim::Trace& bench_trace() {
  static const sim::Trace trace =
      workload::generate_trace(workload::spec_profile("gcc"), 100'000);
  return trace;
}

void BM_SimulateTrace(benchmark::State& state) {
  const sim::Trace& trace = bench_trace();
  auto space = sim::enumerate_design_space();
  const auto& config = space[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    auto result = sim::simulate(config, trace);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}

// The outcome stream of one L2 key and the counters of its groups, as
// simulate_batch composes them for `configs`, which share the L2 key.
struct UnitStream {
  std::vector<sim::Outcome> outcomes;
  std::array<int, 2> itlb_reach_kb{};
  std::array<int, 2> dtlb_reach_kb{};
  std::vector<sim::FunctionalStats> stats;  // per configuration, its group's

  sim::detail::OutcomeStream stream() const {
    return {outcomes, itlb_reach_kb, dtlb_reach_kb};
  }
};

UnitStream walk_unit(std::span<const sim::ProcessorConfig> configs,
               const sim::Trace& trace) {
  const sim::detail::FunctionalStreams streams(ThreadPool::global(), configs,
                                               trace.span());
  sim::detail::UnitWalker walker(streams);
  UnitStream unit;
  unit.stats.resize(configs.size());
  walker.walk(0, [&unit](const sim::detail::OutcomeStream& stream,
                         std::span<const sim::detail::UnitWalker::GroupView>
                             groups) {
    unit.outcomes.assign(stream.outcomes.begin(), stream.outcomes.end());
    unit.itlb_reach_kb = stream.itlb_reach_kb;
    unit.dtlb_reach_kb = stream.dtlb_reach_kb;
    for (const sim::detail::UnitWalker::GroupView& g : groups) {
      for (const std::size_t idx : g.members) unit.stats[idx] = g.stats;
    }
  });
  return unit;
}

void BM_TimingPass(benchmark::State& state) {
  const sim::Trace& trace = bench_trace();
  const auto space = sim::enumerate_design_space();
  const auto& config = space[static_cast<std::size_t>(state.range(0))];
  // One configuration's stream numbers its reaches as its group does.
  const UnitStream unit = walk_unit(std::span(&config, 1), trace);
  for (auto _ : state) {
    auto result = sim::run_timing_pass(config, trace.span(), unit.outcomes,
                                       unit.stats[0]);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}

// The distinct timings of the L2 key of configuration `index`, as a sweep
// times them: the width x core-size variants of its L3-absent group, then
// of its L3-present group, eight in all.
std::vector<sim::ProcessorConfig> timing_unit(std::size_t index) {
  const auto space = sim::enumerate_design_space();
  sim::FunctionalKey key = space[index].functional_key();
  key.l3_size_mb = 0;
  std::vector<sim::ProcessorConfig> unit;
  for (const bool l3 : {false, true}) {
    for (const sim::ProcessorConfig& c : space) {
      sim::FunctionalKey k = c.functional_key();
      const bool has_l3 = k.l3_size_mb > 0;
      k.l3_size_mb = 0;
      if (k == key && has_l3 == l3 &&
          c.issue_wrong == space[index].issue_wrong) {
        unit.push_back(c);
      }
    }
  }
  return unit;
}

// One L2 key's eight timings against its one stream, on the widest kernel
// the host runs: one eight-lane pass, or two four-lane ones.
template <std::size_t N>
void time_unit(benchmark::State& state,
               const std::vector<sim::ProcessorConfig>& configs) {
  const sim::Trace& trace = bench_trace();
  const UnitStream unit = walk_unit(configs, trace);
  std::vector<sim::detail::Lane> lanes;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    lanes.push_back({configs[i], &unit.stats[i]});
  }
  const sim::detail::OutcomeStream stream = unit.stream();
  auto lane_state = std::make_unique<sim::detail::LaneState<N>>();
  std::vector<sim::SimResult> results(lanes.size());
  for (auto _ : state) {
    for (std::size_t next = 0; next < lanes.size(); next += N) {
      const std::size_t count = std::min(N, lanes.size() - next);
      sim::detail::run_timing_lanes<N>(
          std::span(lanes).subspan(next, count), trace.span(), stream,
          *lane_state, std::span(results).subspan(next, count));
    }
    benchmark::DoNotOptimize(results.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes.size()) *
                          static_cast<std::int64_t>(trace.size()));
  state.SetLabel(std::to_string(N) + " lanes");
}

void BM_TimingLanes(benchmark::State& state) {
  const auto unit = timing_unit(static_cast<std::size_t>(state.range(0)));
  switch (sim::detail::lane_width()) {
    case 8:
      time_unit<8>(state, unit);
      break;
    case 4:
      time_unit<4>(state, unit);
      break;
    default:
      state.SkipWithError("no vector timing kernel on this host");
      break;
  }
}

void BM_CacheAccess(benchmark::State& state) {
  sim::Cache cache(64 * 1024, 64, 4);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr));
    addr += 48;  // mixed hit/miss pattern
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BranchPredictor(benchmark::State& state) {
  auto predictor = sim::make_branch_predictor(
      static_cast<sim::BranchPredictorKind>(state.range(0)));
  std::uint64_t pc = 0x400000;
  bool taken = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor->predict_and_update(pc, taken));
    pc += 16;
    taken = !taken;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_GenerateTrace(benchmark::State& state) {
  const auto profile = workload::spec_profile("mcf");
  for (auto _ : state) {
    auto trace = workload::generate_trace(
        profile, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(trace);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SimPointSelection(benchmark::State& state) {
  const auto trace =
      workload::generate_trace(workload::spec_profile("gcc"), 200'000);
  for (auto _ : state) {
    auto points = workload::choose_simpoints(trace, 10'000, 5);
    benchmark::DoNotOptimize(points);
  }
}

// The trace stage of a sweep at the CLI's fidelity (600k instructions, 30k
// intervals, at most 4 SimPoints): the streamed pass over the full trace,
// the SimPoint choice, and the chosen intervals regenerated on the pool.
void BM_BuildReducedTrace(benchmark::State& state, const std::string& app) {
  dse::SweepOptions options;
  options.full_trace_instructions = 600'000;
  options.interval_instructions = 30'000;
  options.max_clusters = 4;
  for (auto _ : state) {
    auto reduced = dse::build_reduced_trace(app, options);
    benchmark::DoNotOptimize(reduced);
  }
  state.SetItemsProcessed(state.iterations() * 600'000);
}

BENCHMARK(BM_SimulateTrace)->Arg(0)->Arg(1151)->Arg(4607)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TimingPass)->Arg(0)->Arg(1151)->Arg(4607)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TimingLanes)->Arg(0)->Arg(1151)->Arg(4607)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CacheAccess);
BENCHMARK(BM_BranchPredictor)->DenseRange(0, 3);
BENCHMARK(BM_GenerateTrace)->Arg(100'000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimPointSelection)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildReducedTrace, applu, std::string("applu"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildReducedTrace, equake, std::string("equake"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildReducedTrace, gcc, std::string("gcc"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildReducedTrace, mesa, std::string("mesa"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildReducedTrace, mcf, std::string("mcf"))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
