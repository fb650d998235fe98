// Micro-benchmarks of the simulator substrate (google-benchmark): the
// one-config simulate() path and its two passes apart (the functional pass
// through caches, TLBs and predictor; the timing pass over its outcomes),
// the vector timing passes a sweep's L2 keys take, cache and predictor
// lookup costs, and trace generation speed. The timing benchmarks count
// configurations x instructions, so their items/s compare per
// configuration.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/core.hpp"
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

void BM_FunctionalPass(benchmark::State& state) {
  const sim::Trace& trace = bench_trace();
  const auto space = sim::enumerate_design_space();
  const auto& config = space[static_cast<std::size_t>(state.range(0))];
  const auto group = std::span(&config, 1);
  std::vector<sim::Outcome> outcomes(trace.size());
  for (auto _ : state) {
    sim::FunctionalPass pass(group);  // cold structures, as in a sweep
    auto stats = pass.run(trace.span(), outcomes);
    benchmark::DoNotOptimize(stats);
    benchmark::DoNotOptimize(outcomes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}

void BM_TimingPass(benchmark::State& state) {
  const sim::Trace& trace = bench_trace();
  const auto space = sim::enumerate_design_space();
  const auto& config = space[static_cast<std::size_t>(state.range(0))];
  std::vector<sim::Outcome> outcomes(trace.size());
  sim::FunctionalPass pass(std::span(&config, 1));
  const sim::FunctionalStats stats = pass.run(trace.span(), outcomes);
  for (auto _ : state) {
    auto result =
        sim::run_timing_pass(config, {}, trace.span(), outcomes, stats);
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

// One L2 key's eight timings against its L3-present group's stream, on the
// widest kernel the host runs: one eight-lane pass, or two four-lane ones.
template <std::size_t N>
void time_unit(benchmark::State& state,
               const std::vector<sim::ProcessorConfig>& unit) {
  const sim::Trace& trace = bench_trace();
  const auto absent = std::span(unit).first(unit.size() / 2);
  const auto present = std::span(unit).last(unit.size() / 2);
  std::vector<sim::Outcome> own(trace.size());
  std::vector<sim::Outcome> outcomes(trace.size());
  const sim::FunctionalStats absent_stats =
      sim::FunctionalPass(absent).run(trace.span(), own);
  const sim::FunctionalStats stats =
      sim::FunctionalPass(present).run(trace.span(), outcomes);
  std::vector<sim::detail::Lane> lanes;
  for (const sim::ProcessorConfig& c : absent) {
    lanes.push_back({c, &absent_stats});
  }
  for (const sim::ProcessorConfig& c : present) lanes.push_back({c, &stats});
  const sim::detail::OutcomeStream stream{outcomes, stats.itlb_reach_kb,
                                          stats.dtlb_reach_kb};
  auto lane_state = std::make_unique<sim::detail::LaneState<N>>();
  std::vector<sim::SimResult> results(lanes.size());
  for (auto _ : state) {
    for (std::size_t next = 0; next < lanes.size(); next += N) {
      const std::size_t count = std::min(N, lanes.size() - next);
      sim::detail::run_timing_lanes<N>(
          std::span(lanes).subspan(next, count), {}, trace.span(), stream,
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

BENCHMARK(BM_SimulateTrace)->Arg(0)->Arg(1151)->Arg(4607)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FunctionalPass)->Arg(0)->Arg(1151)->Arg(4607)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TimingPass)->Arg(0)->Arg(1151)->Arg(4607)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TimingLanes)->Arg(0)->Arg(1151)->Arg(4607)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CacheAccess);
BENCHMARK(BM_BranchPredictor)->DenseRange(0, 3);
BENCHMARK(BM_GenerateTrace)->Arg(100'000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimPointSelection)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
