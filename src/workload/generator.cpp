#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace dsml::workload {

namespace {

constexpr std::uint64_t kCodeBase = 0x00400000ULL;
constexpr std::uint64_t kDataBase = 0x10000000ULL;
constexpr std::uint32_t kInstrBytes = 4;

/// Geometric draw with the given mean (>= 1).
std::uint32_t geometric(Rng& rng, double mean) {
  if (mean <= 1.0) return 1;
  const double p = 1.0 / mean;
  // Inverse transform for geometric distribution on {1, 2, ...}.
  const double u = std::max(rng.uniform(), 1e-12);
  const double k = std::ceil(std::log(u) / std::log(1.0 - p));
  return static_cast<std::uint32_t>(std::clamp(k, 1.0, 1e6));
}

struct PhaseState {
  const Phase* phase = nullptr;
  std::vector<std::uint64_t> block_pc;      // entry pc of each hot block
  std::vector<std::uint32_t> block_len;     // instructions per block
  std::vector<std::uint64_t> stream_ptr;    // sequential stream cursors
  std::vector<std::uint64_t> stream_base;   // segment base per stream
  double level_fraction_total = 1.0;        // normaliser for tier fractions
  std::size_t current_block = 0;
  // loop context
  std::vector<std::size_t> loop_body;       // blocks forming the active loop
  std::size_t loop_pos = 0;
  std::uint32_t trips_left = 0;
};

class TraceBuilder {
 public:
  TraceBuilder(const AppProfile& profile, std::uint64_t seed)
      : profile_(profile), rng_(seed) {
    DSML_REQUIRE(!profile.phases.empty(), "generate_trace: profile has no phases");
    // Lay out static blocks over the code footprint.
    const std::size_t blocks = std::max<std::size_t>(profile.static_blocks, 4);
    const std::uint64_t block_stride =
        std::max<std::uint64_t>(profile.code_bytes / blocks,
                                static_cast<std::uint64_t>(
                                    profile.mean_block_len * kInstrBytes));
    all_block_pc_.resize(blocks);
    all_block_len_.resize(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      all_block_pc_[b] = kCodeBase + b * block_stride;
      const double len = profile.mean_block_len *
                         (0.5 + rng_.uniform());  // 0.5x .. 1.5x
      all_block_len_[b] = std::max<std::uint32_t>(
          2, static_cast<std::uint32_t>(std::lround(len)));
    }
    // Build per-phase state: each phase works on its own slice of blocks
    // (overlapping slices model shared library/helper code).
    std::size_t offset = 0;
    for (const Phase& phase : profile_.phases) {
      PhaseState ps;
      ps.phase = &phase;
      const std::size_t count =
          std::min<std::size_t>(std::max<std::size_t>(phase.hot_blocks, 2),
                                blocks);
      ps.block_pc.resize(count);
      ps.block_len.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t b = (offset + i) % blocks;
        ps.block_pc[i] = all_block_pc_[b];
        ps.block_len[i] = all_block_len_[b];
      }
      offset = (offset + count * 3 / 4) % blocks;  // partial overlap
      DSML_REQUIRE(!phase.mem.levels.empty(),
                   "generate_trace: phase has no working-set levels");
      std::uint64_t top = 0;
      ps.level_fraction_total = 0.0;
      for (const auto& level : phase.mem.levels) {
        DSML_REQUIRE(level.bytes >= 64 && level.fraction >= 0.0,
                     "generate_trace: malformed working-set level");
        top = std::max(top, level.bytes);
        ps.level_fraction_total += level.fraction;
      }
      DSML_REQUIRE(ps.level_fraction_total > 0.0,
                   "generate_trace: zero total level fraction");
      ps.stream_ptr.resize(std::max<std::uint32_t>(phase.mem.stream_count, 1));
      ps.stream_base.resize(ps.stream_ptr.size());
      for (std::size_t s = 0; s < ps.stream_ptr.size(); ++s) {
        // Each stream cycles over its own segment; segments are laid out
        // back to back above the layered working set.
        ps.stream_base[s] = kDataBase + top +
                            s * phase.mem.stream_segment_bytes;
        ps.stream_ptr[s] = ps.stream_base[s];
      }
      phases_.push_back(std::move(ps));
    }
  }

  sim::Trace build(std::size_t n) {
    sim::Trace trace;
    trace.instrs.reserve(n);
    // Phase schedule: split the run into segments, each segment drawn from
    // the phase weight distribution, so phases recur (as real programs do).
    const std::size_t segment = std::max<std::size_t>(n / 24, 512);
    std::vector<double> weights;
    for (const auto& ps : phases_) weights.push_back(ps.phase->weight);

    while (trace.instrs.size() < n) {
      const std::size_t phase_idx =
          phases_.size() == 1 ? 0 : rng_.weighted(weights);
      const std::size_t until =
          std::min(n, trace.instrs.size() + segment);
      emit_phase_segment(trace, phases_[phase_idx], until);
    }
    trace.instrs.resize(n);
    return trace;
  }

 private:
  void emit_phase_segment(sim::Trace& trace, PhaseState& ps,
                          std::size_t until) {
    const Phase& phase = *ps.phase;
    while (trace.instrs.size() < until) {
      emit_block(trace, ps, phase);
    }
  }

  // Emit one dynamic basic block: body instructions followed by the block-
  // terminating branch.
  void emit_block(sim::Trace& trace, PhaseState& ps, const Phase& phase) {
    // Establish / continue loop context.
    if (ps.trips_left == 0) {
      // Start a new loop: 1-4 consecutive blocks, geometric trip count.
      const std::size_t body =
          1 + static_cast<std::size_t>(rng_.below(
                  std::min<std::uint64_t>(4, ps.block_pc.size())));
      ps.loop_body.clear();
      const std::size_t start = skewed_block(ps);
      for (std::size_t i = 0; i < body; ++i) {
        ps.loop_body.push_back((start + i) % ps.block_pc.size());
      }
      ps.loop_pos = 0;
      ps.trips_left = geometric(rng_, phase.branch.mean_trip_count);
    }

    const std::size_t block = ps.loop_body[ps.loop_pos];
    std::uint64_t pc = ps.block_pc[block];
    const std::uint32_t body_len = ps.block_len[block];

    for (std::uint32_t k = 0; k + 1 < body_len; ++k) {
      trace.instrs.push_back(
          make_body_instr(ps, phase, pc, trace.instrs.size()));
      pc += kInstrBytes;
    }

    // Block-terminating branch.
    sim::Instr br;
    br.op = sim::OpClass::kBranch;
    br.pc = pc;
    br.dep1 = dep_distance(phase);
    const bool at_loop_end = ps.loop_pos + 1 == ps.loop_body.size();
    const bool is_loop_branch = at_loop_end;
    if (is_loop_branch) {
      // Back edge: taken while trips remain; the exit is the mispredictable
      // event for history-less predictors.
      --ps.trips_left;
      br.taken = ps.trips_left > 0;
      br.target = ps.block_pc[ps.loop_body[0]];
      ps.loop_pos = 0;
      if (ps.trips_left == 0) {
        // Loop exits; a fresh loop begins on the next emit_block call.
        ps.loop_pos = 0;
      }
    } else {
      // Intra-loop branch: mixture of predictable (biased) and data-
      // dependent behaviour per the phase's loop_fraction.
      const bool predictable = rng_.chance(phase.branch.loop_fraction);
      const double bias = predictable ? 0.97 : phase.branch.bias;
      // The biased direction varies per static branch (pc bit) so predictor
      // tables see both polarities.
      const bool bias_dir = ((br.pc >> 4) & 1) != 0;
      br.taken = rng_.chance(bias) ? bias_dir : !bias_dir;
      br.target = ps.block_pc[skewed_block(ps)];
      ++ps.loop_pos;
    }
    trace.instrs.push_back(br);
  }

  sim::Instr make_body_instr(PhaseState& ps, const Phase& phase,
                             std::uint64_t pc, std::size_t index) {
    sim::Instr ins;
    ins.pc = pc;
    const InstructionMix& mix = phase.mix;
    // Draw a non-branch class (branches only terminate blocks).
    const double non_branch = mix.sum() - mix.branch;
    double x = rng_.uniform() * non_branch;
    if ((x -= mix.ialu) < 0) {
      ins.op = sim::OpClass::kIntAlu;
    } else if ((x -= mix.imult) < 0) {
      ins.op = sim::OpClass::kIntMult;
    } else if ((x -= mix.fpalu) < 0) {
      ins.op = sim::OpClass::kFpAlu;
    } else if ((x -= mix.fpmult) < 0) {
      ins.op = sim::OpClass::kFpMult;
    } else if ((x -= mix.load) < 0) {
      ins.op = sim::OpClass::kLoad;
    } else {
      ins.op = sim::OpClass::kStore;
    }

    // Not every instruction sits on a dependence chain — independent strands
    // are what gives real code its ILP.
    if (rng_.chance(0.75)) ins.dep1 = dep_distance(phase);
    if (rng_.chance(0.25)) ins.dep2 = dep_distance(phase);

    if (ins.op == sim::OpClass::kLoad || ins.op == sim::OpClass::kStore) {
      ins.mem_addr = next_address(ps, phase, ins, index);
    }
    return ins;
  }

  // Block popularity is power-law skewed (code_skew), concentrating dynamic
  // execution in a hot subset of each phase's blocks — the structure that
  // makes L1I size a performance lever for large-code applications.
  std::size_t skewed_block(const PhaseState& ps) {
    const double u = rng_.uniform();
    const double frac = std::pow(u, profile_.code_skew);
    auto idx = static_cast<std::size_t>(
        frac * static_cast<double>(ps.block_pc.size()));
    return std::min(idx, ps.block_pc.size() - 1);
  }

  std::uint32_t dep_distance(const Phase& /*phase*/) {
    return std::min<std::uint32_t>(
        geometric(rng_, profile_.mean_dep_distance), 255);
  }

  std::uint64_t next_address(PhaseState& ps, const Phase& phase,
                             sim::Instr& ins, std::size_t index) {
    const MemoryBehavior& mem = phase.mem;
    const double x = rng_.uniform();
    if (x < mem.stride_fraction) {
      // Sequential stream access cycling within the stream's segment, so
      // reuse appears at whichever cache level holds the active segments.
      const std::size_t s = static_cast<std::size_t>(
          rng_.below(ps.stream_ptr.size()));
      auto& cursor = ps.stream_ptr[s];
      cursor += mem.stride_bytes;
      if (cursor >= ps.stream_base[s] + mem.stream_segment_bytes) {
        cursor = ps.stream_base[s];
      }
      return cursor;
    }
    // Layered working-set access: pick a tier by its fraction, uniform
    // within the tier (tiers share a base, so smaller tiers are the hot
    // heads of larger ones). Loads landing in the two outermost tiers chain
    // to the previous such load — pointer chasing, with chain lengths
    // geometric (mean ~6) since real list walks are finite.
    double pick = rng_.uniform() * ps.level_fraction_total;
    std::size_t tier = mem.levels.size() - 1;
    for (std::size_t t = 0; t < mem.levels.size(); ++t) {
      pick -= mem.levels[t].fraction;
      if (pick <= 0.0) {
        tier = t;
        break;
      }
    }
    const std::uint64_t offset = rng_.below(mem.levels[tier].bytes) & ~7ULL;
    if (ins.op == sim::OpClass::kLoad && tier + 2 >= mem.levels.size()) {
      if (last_cold_load_ != SIZE_MAX && index > last_cold_load_ &&
          index - last_cold_load_ < 255 && !rng_.chance(1.0 / 6.0)) {
        ins.dep1 = static_cast<std::uint32_t>(index - last_cold_load_);
      }
      last_cold_load_ = index;
    }
    return kDataBase + offset;
  }

 private:
  std::size_t last_cold_load_ = SIZE_MAX;
  const AppProfile& profile_;
  Rng rng_;
  std::vector<std::uint64_t> all_block_pc_;
  std::vector<std::uint32_t> all_block_len_;
  std::vector<PhaseState> phases_;
};

}  // namespace

sim::Trace generate_trace(const AppProfile& profile, std::size_t n,
                          std::uint64_t seed) {
  static metrics::Counter& instructions =
      metrics::counter("workload.trace_instructions");
  trace::Span span("workload.generate_trace", "workload");
  DSML_REQUIRE(n > 0, "generate_trace: n must be positive");
  const std::size_t most = std::vector<sim::Instr>().max_size();
  if (n > most) {
    throw InvalidArgument("generate_trace: n = " + std::to_string(n) +
                          " exceeds the longest trace, " +
                          std::to_string(most) + " instructions");
  }
  TraceBuilder builder(profile, seed == 0 ? profile.seed : seed);
  sim::Trace trace = builder.build(n);
  instructions.add(n);
  return trace;
}

}  // namespace dsml::workload
