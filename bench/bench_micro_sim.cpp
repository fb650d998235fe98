// Micro-benchmarks of the simulator substrate (google-benchmark): the
// one-config simulate() path and its two passes apart (the functional pass
// through caches, TLBs and predictor; the timing pass over its outcomes),
// the four-lane timing pass a sweep's groups take, cache and predictor
// lookup costs, and trace generation speed. The timing benchmarks count
// configurations x instructions, so their items/s compare per
// configuration.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>
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

// The distinct timings of the functional group of configuration `index`,
// as a sweep times them: its width x core-size variants, four in all.
std::vector<sim::ProcessorConfig> timing_group(std::size_t index) {
  const auto space = sim::enumerate_design_space();
  const sim::ProcessorConfig& head = space[index];
  std::vector<sim::ProcessorConfig> group;
  for (const sim::ProcessorConfig& c : space) {
    if (c.functional_key() == head.functional_key() &&
        c.issue_wrong == head.issue_wrong) {
      group.push_back(c);
    }
  }
  return group;
}

void BM_TimingLanes(benchmark::State& state) {
  if (!sim::detail::lanes_supported()) {
    state.SkipWithError("no four-lane timing kernel on this host");
    return;
  }
  const sim::Trace& trace = bench_trace();
  const auto group = timing_group(static_cast<std::size_t>(state.range(0)));
  std::vector<sim::Outcome> outcomes(trace.size());
  sim::FunctionalPass pass(group);
  const sim::FunctionalStats stats = pass.run(trace.span(), outcomes);
  auto lanes = std::make_unique<sim::detail::LaneState<sim::detail::kLanes>>();
  std::vector<sim::SimResult> results(group.size());
  for (auto _ : state) {
    sim::detail::run_timing_lanes(group, {}, trace.span(), outcomes, stats,
                                  *lanes, results);
    benchmark::DoNotOptimize(results.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(group.size()) *
                          static_cast<std::int64_t>(trace.size()));
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
