#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
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

}  // namespace

struct TraceBuilder::Layout {
  /// What generation never changes in one phase.
  struct PhaseTable {
    std::vector<std::uint64_t> block_pc;     // entry pc of each hot block
    std::vector<std::uint32_t> block_len;    // instructions per block
    std::vector<std::uint64_t> stream_base;  // segment base per stream
    double level_fraction_total = 1.0;       // normaliser for tier fractions
  };

  AppProfile profile;
  std::vector<PhaseTable> phases;  // one per profile phase
  std::vector<double> weights;     // phase weights, for each segment's draw
  std::size_t segment = 0;         // instructions per phase segment
};

TraceBuilder::TraceBuilder(const AppProfile& profile, std::size_t n,
                           std::uint64_t seed)
    : n_(n), rng_(seed == 0 ? profile.seed : seed) {
  DSML_REQUIRE(n > 0, "generate_trace: n must be positive");
  DSML_REQUIRE(!profile.phases.empty(), "generate_trace: profile has no phases");
  auto layout = std::make_shared<Layout>();
  layout->profile = profile;
  // Lay out static blocks over the code footprint.
  const std::size_t blocks = std::max<std::size_t>(profile.static_blocks, 4);
  const std::uint64_t block_stride =
      std::max<std::uint64_t>(profile.code_bytes / blocks,
                              static_cast<std::uint64_t>(
                                  profile.mean_block_len * kInstrBytes));
  std::vector<std::uint64_t> all_block_pc(blocks);
  std::vector<std::uint32_t> all_block_len(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    all_block_pc[b] = kCodeBase + b * block_stride;
    const double len = profile.mean_block_len *
                       (0.5 + rng_.uniform());  // 0.5x .. 1.5x
    all_block_len[b] = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(std::lround(len)));
  }
  // Build per-phase state: each phase works on its own slice of blocks
  // (overlapping slices model shared library/helper code).
  std::size_t offset = 0;
  for (const Phase& phase : profile.phases) {
    Layout::PhaseTable table;
    const std::size_t count =
        std::min<std::size_t>(std::max<std::size_t>(phase.hot_blocks, 2),
                              blocks);
    table.block_pc.resize(count);
    table.block_len.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t b = (offset + i) % blocks;
      table.block_pc[i] = all_block_pc[b];
      table.block_len[i] = all_block_len[b];
    }
    offset = (offset + count * 3 / 4) % blocks;  // partial overlap
    DSML_REQUIRE(!phase.mem.levels.empty(),
                 "generate_trace: phase has no working-set levels");
    std::uint64_t top = 0;
    table.level_fraction_total = 0.0;
    for (const auto& level : phase.mem.levels) {
      DSML_REQUIRE(level.bytes >= 64 && level.fraction >= 0.0,
                   "generate_trace: malformed working-set level");
      top = std::max(top, level.bytes);
      table.level_fraction_total += level.fraction;
    }
    DSML_REQUIRE(table.level_fraction_total > 0.0,
                 "generate_trace: zero total level fraction");
    PhaseCursor cursor;
    cursor.stream_ptr.resize(std::max<std::uint32_t>(phase.mem.stream_count, 1));
    table.stream_base.resize(cursor.stream_ptr.size());
    for (std::size_t s = 0; s < cursor.stream_ptr.size(); ++s) {
      // Each stream cycles over its own segment; segments are laid out
      // back to back above the layered working set.
      table.stream_base[s] = kDataBase + top +
                             s * phase.mem.stream_segment_bytes;
      cursor.stream_ptr[s] = table.stream_base[s];
    }
    layout->phases.push_back(std::move(table));
    layout->weights.push_back(phase.weight);
    cursors_.push_back(std::move(cursor));
  }
  // Phase schedule: the run splits into segments, each drawn from the phase
  // weight distribution, so phases recur (as real programs do).
  layout->segment = std::max<std::size_t>(n / 24, 512);
  layout_ = std::move(layout);
}

void TraceBuilder::read_past_end() const {
  throw StateError("TraceBuilder: all " + std::to_string(n_) +
                   " instructions of the trace were read");
}

// Emit one dynamic basic block into block_: body instructions followed by
// the block-terminating branch. A block starting at or past the active
// segment's end first draws the next segment's phase.
void TraceBuilder::emit_block() {
  const Layout& layout = *layout_;
  if (generated_ >= segment_end_) {
    phase_ = layout.phases.size() == 1 ? 0 : rng_.weighted(layout.weights);
    segment_end_ = std::min(n_, generated_ + layout.segment);
  }
  const Layout::PhaseTable& table = layout.phases[phase_];
  const Phase& phase = layout.profile.phases[phase_];
  PhaseCursor& ps = cursors_[phase_];
  block_.clear();
  pos_ = 0;

  // Establish / continue loop context.
  if (ps.trips_left == 0) {
    // Start a new loop: 1-4 consecutive blocks, geometric trip count.
    const std::size_t body =
        1 + static_cast<std::size_t>(rng_.below(
                std::min<std::uint64_t>(4, table.block_pc.size())));
    ps.loop_body.clear();
    const std::size_t start = skewed_block();
    for (std::size_t i = 0; i < body; ++i) {
      ps.loop_body.push_back((start + i) % table.block_pc.size());
    }
    ps.loop_pos = 0;
    ps.trips_left = geometric(rng_, phase.branch.mean_trip_count);
  }

  const std::size_t block = ps.loop_body[ps.loop_pos];
  std::uint64_t pc = table.block_pc[block];
  const std::uint32_t body_len = table.block_len[block];

  for (std::uint32_t k = 0; k + 1 < body_len; ++k) {
    block_.push_back(body_instr(pc, generated_ + block_.size()));
    pc += kInstrBytes;
  }

  // Block-terminating branch.
  sim::Instr br;
  br.op = sim::OpClass::kBranch;
  br.pc = pc;
  br.dep1 = dep_distance();
  const bool at_loop_end = ps.loop_pos + 1 == ps.loop_body.size();
  const bool is_loop_branch = at_loop_end;
  if (is_loop_branch) {
    // Back edge: taken while trips remain; the exit is the mispredictable
    // event for history-less predictors. A fresh loop begins on the next
    // emit_block call once the trips run out.
    --ps.trips_left;
    br.taken = ps.trips_left > 0;
    br.target = table.block_pc[ps.loop_body[0]];
    ps.loop_pos = 0;
  } else {
    // Intra-loop branch: mixture of predictable (biased) and data-
    // dependent behaviour per the phase's loop_fraction.
    const bool predictable = rng_.chance(phase.branch.loop_fraction);
    const double bias = predictable ? 0.97 : phase.branch.bias;
    // The biased direction varies per static branch (pc bit) so predictor
    // tables see both polarities.
    const bool bias_dir = ((br.pc >> 4) & 1) != 0;
    br.taken = rng_.chance(bias) ? bias_dir : !bias_dir;
    br.target = table.block_pc[skewed_block()];
    ++ps.loop_pos;
  }
  block_.push_back(br);
  generated_ += block_.size();
}

sim::Instr TraceBuilder::body_instr(std::uint64_t pc, std::size_t index) {
  const Phase& phase = layout_->profile.phases[phase_];
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
  if (rng_.chance(0.75)) ins.dep1 = dep_distance();
  if (rng_.chance(0.25)) ins.dep2 = dep_distance();

  if (ins.op == sim::OpClass::kLoad || ins.op == sim::OpClass::kStore) {
    ins.mem_addr = next_address(ins, index);
  }
  return ins;
}

// Block popularity is power-law skewed (code_skew), concentrating dynamic
// execution in a hot subset of each phase's blocks — the structure that
// makes L1I size a performance lever for large-code applications.
std::size_t TraceBuilder::skewed_block() {
  const std::size_t blocks = layout_->phases[phase_].block_pc.size();
  const double u = rng_.uniform();
  const double frac = std::pow(u, layout_->profile.code_skew);
  auto idx = static_cast<std::size_t>(frac * static_cast<double>(blocks));
  return std::min(idx, blocks - 1);
}

std::uint32_t TraceBuilder::dep_distance() {
  return std::min<std::uint32_t>(
      geometric(rng_, layout_->profile.mean_dep_distance), 255);
}

std::uint64_t TraceBuilder::next_address(sim::Instr& ins, std::size_t index) {
  const Layout::PhaseTable& table = layout_->phases[phase_];
  const MemoryBehavior& mem = layout_->profile.phases[phase_].mem;
  PhaseCursor& ps = cursors_[phase_];
  const double x = rng_.uniform();
  if (x < mem.stride_fraction) {
    // Sequential stream access cycling within the stream's segment, so
    // reuse appears at whichever cache level holds the active segments.
    const std::size_t s = static_cast<std::size_t>(
        rng_.below(ps.stream_ptr.size()));
    auto& cursor = ps.stream_ptr[s];
    cursor += mem.stride_bytes;
    if (cursor >= table.stream_base[s] + mem.stream_segment_bytes) {
      cursor = table.stream_base[s];
    }
    return cursor;
  }
  // Layered working-set access: pick a tier by its fraction, uniform
  // within the tier (tiers share a base, so smaller tiers are the hot
  // heads of larger ones). Loads landing in the two outermost tiers chain
  // to the previous such load — pointer chasing, with chain lengths
  // geometric (mean ~6) since real list walks are finite.
  double pick = rng_.uniform() * table.level_fraction_total;
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
  TraceBuilder builder(profile, n, seed);
  sim::Trace trace;
  trace.instrs.reserve(n);
  while (trace.instrs.size() < n) trace.instrs.push_back(builder.next());
  instructions.add(n);
  return trace;
}

}  // namespace dsml::workload
