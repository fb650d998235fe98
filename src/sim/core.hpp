// Trace-driven out-of-order superscalar timing model.
//
// This plays the role SimpleScalar's sim-outorder plays in the paper: it
// turns (configuration, instruction trace) into a cycle count. The model is
// a dependency/resource timing simulation in the style of trace-driven
// "timing-first" models:
//
//   fetch    — advances at `width` instructions/cycle, stalling on
//              instruction-cache and ITLB misses and restarting after
//              mispredicted branches resolve;
//   dispatch — in order, bounded by the RUU (instruction window) and LSQ
//              occupancy: instruction i cannot dispatch before instruction
//              i - ruu_size commits;
//   issue    — out of order once operands are ready, bounded by issue width
//              per cycle and by functional-unit availability per class;
//   execute  — per-class latencies; loads add data-cache hierarchy and DTLB
//              latency from real tag-array models;
//   commit   — in order, `width` per cycle.
//
// Every structure the paper's Table 1 varies — cache geometry, branch
// predictor kind, widths, wrong-path issue, RUU/LSQ, TLBs, FU mix — feeds
// into the timing, so the design space has the interactions the surrogate
// models are supposed to learn.
//
// Simulation runs in two passes. Caches, TLBs and predictors change state in
// trace order, never in timing order, so the *functional pass* walks the
// trace through them once and records, per instruction, which level served
// each access, the TLB misses and the mispredicts (an Outcome). The *timing
// pass* turns those outcomes into latencies through one fixed latency table
// and runs the width/RUU/LSQ/FU model. Configurations with one FunctionalKey
// share one Outcome stream. simulate_batch builds one stream per L2 key (the
// key without its L3) from state it shares across the batch
// (sim/functional_streams.hpp): each TLB reach, predictor and L1 is walked
// once per batch, and each L2 once for the key's two groups, which are both
// timed against the L3-present group's stream. simulate() is a batch of one
// configuration.
//
// The timing kernel is one template over lanes (sim/timing_kernel.hpp). Its
// one-lane instantiation times a single configuration: run_timing_pass, an
// L2 key with one or two distinct timings, and every host without AVX2. Its
// vector instantiations time up to eight configurations of one L2 key in one
// walk of the outcomes, one per 64-bit vector lane: eight lanes of 512 bits
// with AVX-512F, four of 256 bits with AVX2, whichever is the widest the
// host's cpuid reports. simulate_batch uses them for L2 keys with three or
// more distinct timings. Every instantiation gives bit-identical results.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/config.hpp"
#include "sim/trace.hpp"

namespace dsml {
class ThreadPool;
}

namespace dsml::sim {

struct SimStats {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  double ipc = 0.0;
  double l1d_miss_rate = 0.0;
  double l1i_miss_rate = 0.0;
  double l2_miss_rate = 0.0;
  double l3_miss_rate = 0.0;
  double branch_mispredict_rate = 0.0;
  double itlb_miss_rate = 0.0;
  double dtlb_miss_rate = 0.0;
  std::uint64_t branch_count = 0;
  std::uint64_t mispredicts = 0;
};

struct SimResult {
  std::uint64_t cycles = 0;
  SimStats stats;
};

/// What the functional pass saw for one instruction, in 16 bits: whether it
/// started a new I$ line and which level served it, whether it is a load
/// and which level served it, a TLB miss bit per reach slot, and whether it
/// is a mispredicted or a correctly predicted taken branch. The layout is
/// private to the two passes (sim/timing_kernel.hpp).
using Outcome = std::uint16_t;

/// Whole-trace counters of one functional group. TLB statistics are per
/// reach slot: a group has a slot for every ITLB and DTLB reach its members
/// use (at most two of each, in member order; 0 marks an unused slot).
struct FunctionalStats {
  std::uint64_t branch_count = 0;
  std::uint64_t mispredicts = 0;
  double l1d_miss_rate = 0.0;
  double l1i_miss_rate = 0.0;
  double l2_miss_rate = 0.0;
  double l3_miss_rate = 0.0;
  std::array<int, 2> itlb_reach_kb{};
  std::array<double, 2> itlb_miss_rate{};
  std::array<int, 2> dtlb_reach_kb{};
  std::array<double, 2> dtlb_miss_rate{};
};

/// The timing pass: one configuration against the outcomes of its group
/// for `trace`, with TLB bits at the group's reach slots, through the
/// one-lane kernel. Throws InvalidArgument when the group did not model
/// this configuration's TLB reaches.
SimResult run_timing_pass(const ProcessorConfig& config,
                          std::span<const Instr> trace,
                          std::span<const Outcome> outcomes,
                          const FunctionalStats& functional);

/// Simulate one configuration against one trace: a one-configuration
/// simulate_batch on the global pool, so it throws and counts as that does.
SimResult simulate(const ProcessorConfig& config, const Trace& trace);

/// Simulate every configuration against one trace, cold, index-aligned
/// with `configs`; each result is the configuration's own, whatever else
/// the batch holds. Throws InvalidArgument before simulating anything when
/// a configuration is invalid. Configurations are grouped by FunctionalKey,
/// and groups by L2 key. The batch first walks every DTLB reach, predictor
/// kind, fetch-line stream and L1 its groups need once (sim.l1_passes
/// counts the L1D and L1I walks); then each worker of `pool` claims one L2
/// key at a time, walks its L2 and L3 once (sim.l2_passes) and composes one
/// Outcome stream for the key's groups (sim.functional_passes). The key's
/// distinct timings (perfect-predictor issue_wrong twins share one) are
/// timed on the widest vector kernel the host runs, eight or four to a
/// pass, while at least three remain, then one at a time; without AVX2
/// every timing takes a one-lane pass. Sets the gauge sim.lane_width to the
/// kernel's width (8, 4 or 1). Counts sim.timing_passes (configurations
/// timed), sim.lane_passes and sim.instructions (trace length x
/// configurations), inside a sim.simulate_batch span whose
/// sim.functional_streams child covers the shared walks.
std::vector<SimResult> simulate_batch(ThreadPool& pool,
                                      std::span<const ProcessorConfig> configs,
                                      const Trace& trace);

/// simulate_batch over the global pool.
std::vector<SimResult> simulate_batch(std::span<const ProcessorConfig> configs,
                                      const Trace& trace);

}  // namespace dsml::sim
