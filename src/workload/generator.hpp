// Synthetic trace generation from an AppProfile.
//
// The generator builds a dynamic instruction stream with the statistical
// structure the timing model cares about: a static code layout walked
// through loops (so instruction-cache and branch-predictor state matter),
// loop back-edges with geometric trip counts and biased data-dependent
// branches (so predictor sophistication matters), stream/hot/cold memory
// access classes (so cache geometry matters — cold loads form dependent
// pointer-chasing chains as in mcf), and geometric register dependency
// distances (so window size and width matter).
//
// Generation is deterministic in (profile, n, seed). The trace is segmented
// across the profile's phases so that SimPoint-style phase detection has
// real phase structure to find.
//
// TraceBuilder is the one generator. It yields the trace an instruction at
// a time and holds only the basic block it is in, and a copy of it resumes
// from where it was copied. So a pass over a trace never needs the whole
// trace in memory: generate_trace keeps every instruction, while
// reduce_trace (workload/simpoint.hpp) keeps a copy of the builder at each
// interval start and regenerates only the intervals SimPoint chooses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/trace.hpp"
#include "workload/profiles.hpp"

namespace dsml::workload {

/// The instructions of generate_trace(profile, n, seed), in order. A copy
/// carries the whole generation state and yields exactly what the original
/// yields from the copied point on.
class TraceBuilder {
 public:
  /// seed 0 uses profile.seed. Throws InvalidArgument when n is 0 or the
  /// profile has no phases or a malformed working set.
  TraceBuilder(const AppProfile& profile, std::size_t n,
               std::uint64_t seed = 0);

  /// The next instruction of the trace. The reference is valid until the
  /// next call. Throws StateError once all n are read.
  const sim::Instr& next() {
    if (index_ == n_) read_past_end();
    if (pos_ == block_.size()) emit_block();
    ++index_;
    return block_[pos_++];
  }

 private:
  struct Layout;  // static code layout and phase tables, shared by copies

  /// One phase's generation state: stream cursors and the active loop.
  struct PhaseCursor {
    std::vector<std::uint64_t> stream_ptr;
    std::vector<std::size_t> loop_body;  // blocks forming the active loop
    std::size_t loop_pos = 0;
    std::uint32_t trips_left = 0;
  };

  [[noreturn]] void read_past_end() const;
  void emit_block();
  sim::Instr body_instr(std::uint64_t pc, std::size_t index);
  std::uint64_t next_address(sim::Instr& ins, std::size_t index);
  std::size_t skewed_block();
  std::uint32_t dep_distance();

  std::shared_ptr<const Layout> layout_;
  std::size_t n_ = 0;
  Rng rng_;
  std::vector<PhaseCursor> cursors_;
  std::size_t phase_ = 0;         ///< phase of the active segment
  std::size_t segment_end_ = 0;   ///< its blocks start below this index
  std::size_t generated_ = 0;     ///< instructions generated, block_ included
  std::size_t last_cold_load_ = SIZE_MAX;
  std::vector<sim::Instr> block_;  ///< the block being read
  std::size_t pos_ = 0;            ///< the next instruction's place in it
  std::size_t index_ = 0;          ///< instructions read
};

/// Generate `n` instructions from `profile`. seed 0 uses profile.seed.
sim::Trace generate_trace(const AppProfile& profile, std::size_t n,
                          std::uint64_t seed = 0);

}  // namespace dsml::workload
