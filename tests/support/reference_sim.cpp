#include "support/reference_sim.hpp"

#include "common/error.hpp"
#include "sim/timing_kernel.hpp"

namespace dsml::sim::reference {

namespace {

namespace outcome = detail::outcome;

/// The group's first configuration, after checking that every member is
/// valid and shares its functional key.
const ProcessorConfig& validated_head(std::span<const ProcessorConfig> group) {
  DSML_REQUIRE(!group.empty(), "FunctionalPass: empty configuration group");
  const FunctionalKey key = group.front().functional_key();
  for (const ProcessorConfig& c : group) {
    c.validate();
    DSML_REQUIRE(c.functional_key() == key,
                 "FunctionalPass: configurations differ in functional key");
  }
  return group.front();
}

/// Records `reach_kb` in the first free slot unless already present.
void add_reach(std::array<int, 2>& slots, int reach_kb) {
  for (int& slot : slots) {
    if (slot == reach_kb) return;
    if (slot == 0) {
      slot = reach_kb;
      return;
    }
  }
  throw InvalidArgument("FunctionalPass: more than two TLB reaches in a group");
}

double tlb_miss_rate(const Tlb& tlb) {
  return tlb.accesses() > 0 ? static_cast<double>(tlb.misses()) /
                                  static_cast<double>(tlb.accesses())
                            : 0.0;
}

/// Level field value for "served by memory".
constexpr unsigned kMemoryLevel = 3;

}  // namespace

FunctionalPass::FunctionalPass(std::span<const ProcessorConfig> group)
    : geometry_(validated_head(group)),
      l1d_(static_cast<std::uint64_t>(geometry_.l1d_size_kb) * 1024,
           static_cast<std::uint32_t>(geometry_.l1d_line_b),
           static_cast<std::uint32_t>(geometry_.l1d_assoc)),
      l1i_(static_cast<std::uint64_t>(geometry_.l1i_size_kb) * 1024,
           static_cast<std::uint32_t>(geometry_.l1i_line_b),
           static_cast<std::uint32_t>(geometry_.l1i_assoc)),
      l2_(static_cast<std::uint64_t>(geometry_.l2_size_kb) * 1024,
          static_cast<std::uint32_t>(geometry_.l2_line_b),
          static_cast<std::uint32_t>(geometry_.l2_assoc)),
      l3_(geometry_.has_l3()
              ? static_cast<std::uint64_t>(geometry_.l3_size_mb) * 1024 * 1024
              : 1024 * 1024,  // placeholder geometry; unused when absent
          geometry_.has_l3() ? static_cast<std::uint32_t>(geometry_.l3_line_b)
                             : 256,
          geometry_.has_l3() ? static_cast<std::uint32_t>(geometry_.l3_assoc)
                             : 8),
      predictor_(make_branch_predictor(geometry_.branch_predictor)) {
  for (const ProcessorConfig& c : group) {
    add_reach(itlb_reach_kb_, c.itlb_size_kb);
    add_reach(dtlb_reach_kb_, c.dtlb_size_kb);
  }
  for (const int reach : itlb_reach_kb_) {
    if (reach != 0) itlbs_.emplace_back(static_cast<std::uint64_t>(reach));
  }
  for (const int reach : dtlb_reach_kb_) {
    if (reach != 0) dtlbs_.emplace_back(static_cast<std::uint64_t>(reach));
  }
}

Outcome FunctionalPass::access(std::uint64_t addr, std::vector<Tlb>& tlbs,
                               Cache& l1, unsigned tlb_miss_shift,
                               unsigned level_shift) {
  unsigned bits = 0;
  for (std::size_t s = 0; s < tlbs.size(); ++s) {
    if (!tlbs[s].access(addr)) bits |= 1u << (tlb_miss_shift + s);
  }
  unsigned level = 0;
  if (!l1.access(addr)) {
    level = 1;
    if (!l2_.access(addr)) {
      level = geometry_.has_l3() && l3_.access(addr) ? 2 : kMemoryLevel;
    }
  }
  return static_cast<Outcome>(bits | level << level_shift);
}

FunctionalStats FunctionalPass::run(std::span<const Instr> trace,
                                    std::span<Outcome> outcomes) {
  DSML_REQUIRE(!trace.empty(), "FunctionalPass::run: empty trace");
  DSML_REQUIRE(outcomes.size() == trace.size(),
               "FunctionalPass::run: outcome buffer and trace differ in size");

  const auto line_b = static_cast<std::uint64_t>(geometry_.l1i_line_b);
  FunctionalStats stats;
  std::uint64_t last_fetch_line = ~0ULL;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Instr& ins = trace[i];
    Outcome o = 0;
    // A new I$ line costs a cache lookup; within a line fetch is free.
    const std::uint64_t line = ins.pc / line_b;
    if (line != last_fetch_line) {
      o |= outcome::kFetch | access(ins.pc, itlbs_, l1i_,
                                    outcome::kItlbMissShift,
                                    outcome::kFetchLevelShift);
      last_fetch_line = line;
    }
    switch (ins.op) {
      case OpClass::kLoad:
        o |= outcome::kLoad | access(ins.mem_addr, dtlbs_, l1d_,
                                     outcome::kDtlbMissShift,
                                     outcome::kLoadLevelShift);
        break;
      case OpClass::kStore:
        // The write drains in the background but updates cache state now.
        access(ins.mem_addr, dtlbs_, l1d_, outcome::kDtlbMissShift,
               outcome::kLoadLevelShift);
        break;
      case OpClass::kBranch: {
        ++stats.branch_count;
        const bool predicted =
            predictor_->predict_and_update(ins.pc, ins.taken);
        if (predicted != ins.taken) {
          ++stats.mispredicts;
          o |= outcome::kMispredict;
          if (geometry_.issue_wrong) {
            // The wrong path touches the instruction cache (possible
            // pollution, possible prefetch) before the machine resumes.
            const std::uint64_t wrong_pc = ins.taken ? ins.pc + 4 : ins.target;
            for (std::uint64_t w = 0; w < 2; ++w) {
              l1i_.access(wrong_pc + w * line_b);
            }
          }
          last_fetch_line = ~0ULL;
        } else if (ins.taken) {
          o |= outcome::kTakenBranch;
          last_fetch_line = ~0ULL;
        }
        break;
      }
      default:
        break;
    }
    outcomes[i] = o;
  }

  stats.l1d_miss_rate = l1d_.miss_rate();
  stats.l1i_miss_rate = l1i_.miss_rate();
  stats.l2_miss_rate = l2_.miss_rate();
  stats.l3_miss_rate = geometry_.has_l3() ? l3_.miss_rate() : 0.0;
  stats.itlb_reach_kb = itlb_reach_kb_;
  stats.dtlb_reach_kb = dtlb_reach_kb_;
  for (std::size_t s = 0; s < itlbs_.size(); ++s) {
    stats.itlb_miss_rate[s] = tlb_miss_rate(itlbs_[s]);
  }
  for (std::size_t s = 0; s < dtlbs_.size(); ++s) {
    stats.dtlb_miss_rate[s] = tlb_miss_rate(dtlbs_[s]);
  }
  return stats;
}

SimResult simulate(const ProcessorConfig& config, const Trace& trace) {
  std::vector<Outcome> outcomes(trace.size());
  FunctionalPass pass({&config, 1});
  const FunctionalStats functional = pass.run(trace.span(), outcomes);
  return run_timing_pass(config, trace.span(), outcomes, functional);
}

}  // namespace dsml::sim::reference
