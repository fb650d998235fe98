// The reference simulator the tests hold src/sim to. Its functional pass
// walks one group's caches, TLBs and predictor together in trace order and
// records one Outcome per instruction; simulate() is that pass plus
// run_timing_pass. simulate_batch builds the same outcomes from state it
// shares across a batch (sim/functional_streams.hpp), so the two must agree
// bit for bit, and tests/data/sim/sweep_golden.txt pins both.
//
// No code in src/ runs the reference, so it stays frozen: a change to the
// batch's functional pass cannot also change what the tests compare it
// with. It counts no metrics of its own.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "sim/branch.hpp"
#include "sim/cache.hpp"
#include "sim/core.hpp"

namespace dsml::sim::reference {

/// The functional pass for one group of configurations sharing a
/// FunctionalKey: caches, TLBs and branch predictor, walked in trace order.
/// State carries across run() calls, so a second run sees warm structures.
class FunctionalPass {
 public:
  /// Throws InvalidArgument on an empty or invalid group, keys that differ,
  /// or more than two ITLB or DTLB reaches.
  explicit FunctionalPass(std::span<const ProcessorConfig> group);

  /// Writes one Outcome per instruction of `trace` into `outcomes` (same
  /// size) and returns the pass's counters, with TLB statistics at the
  /// group's reach slots in member order.
  FunctionalStats run(std::span<const Instr> trace,
                      std::span<Outcome> outcomes);

 private:
  /// Level and TLB-miss bits of one access through `tlbs` and `l1`, then
  /// the shared L2 and L3, updating every structure it touches.
  Outcome access(std::uint64_t addr, std::vector<Tlb>& tlbs, Cache& l1,
                 unsigned tlb_miss_shift, unsigned level_shift);

  ProcessorConfig geometry_;
  Cache l1d_;
  Cache l1i_;
  Cache l2_;
  Cache l3_;  // constructed even when absent; gated by geometry_.has_l3()
  std::array<int, 2> itlb_reach_kb_{};
  std::array<int, 2> dtlb_reach_kb_{};
  std::vector<Tlb> itlbs_;
  std::vector<Tlb> dtlbs_;
  std::unique_ptr<BranchPredictor> predictor_;
};

/// One configuration, cold: a FunctionalPass of its own, then
/// run_timing_pass.
SimResult simulate(const ProcessorConfig& config, const Trace& trace);

}  // namespace dsml::sim::reference
