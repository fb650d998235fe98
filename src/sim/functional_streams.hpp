// The functional pass of simulate_batch, and the state it shares across a
// batch's functional groups. Private to src/sim (core.cpp) and the tests
// that compare it with the reference (tests/support/reference_sim.hpp).
//
// A group's outcomes come from walking its TLBs, caches and predictor
// together, as the reference does, but most of that state depends on only
// part of the group's FunctionalKey. A batch therefore walks each part
// once, for only the keys its configurations contain, and keeps what it saw
// as one bit per instruction (a stream):
//
//   stream                        key                             per sweep
//   DTLB misses (loads, stores)   DTLB reach                              2
//   mispredicts, taken branches   predictor kind                          4
//   new fetch lines               (predictor, L1I line)                   8
//   ITLB misses (new lines)       (predictor, L1I line, ITLB reach)      16
//   L1D misses (loads, stores)    (L1D size, line)                        6
//   L1I misses (new lines)        (L1I size, line, predictor,            42
//                                  issue_wrong)
//
// An L1I stream's cache also takes the wrong-path touches after its
// mispredicts, in trace order, so its miss rate counts them. What is left
// per group is the L2 and the L3. A unit is one L2 key (the FunctionalKey
// without L3; 504 in a sweep) and holds its L3-absent and L3-present
// groups. UnitWalker walks a unit's L2 once over its L1I and L1D miss
// streams merged in trace order (an instruction's fetch before its data
// access) and the L3 over the L2 misses, then composes one Outcome stream
// for the whole unit: the L3-present group's, or the only group's. Its TLB
// bits sit at the batch's reach indices, so both groups can read it
// whatever slots each gives its reaches; each group still gets its own
// FunctionalStats. An L3-absent configuration is timed against the
// L3-present group's stream exactly: its L2 sees the same accesses, and its
// timing prices level 2 (an L3 hit) as memory (timing_kernel.hpp). Read at
// a group's reach slots, with level 2 read as memory for an L3-absent
// group, the stream is what the reference's walk gives the group, and so
// are the group's counters.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "sim/cache.hpp"
#include "sim/core.hpp"
#include "sim/timing_kernel.hpp"

namespace dsml::sim::detail {

/// One bit per instruction of a trace, 64 to a word: instruction i is bit
/// i % 64 of word i / 64.
using Bitmap = std::span<std::uint64_t>;
using ConstBitmap = std::span<const std::uint64_t>;

/// A cache's shape, as Cache's constructor takes it.
struct CacheGeometry {
  std::uint64_t size_bytes = 0;
  std::uint32_t line_bytes = 0;
  std::uint32_t assoc = 0;

  bool operator==(const CacheGeometry&) const = default;
};

/// Zeroed words mapped from the OS for one batch's streams, and unmapped
/// with it. Taken from the heap, they would stay resident after the batch,
/// beneath the next sweep's trace, and add their size to peak RSS.
class MappedWords {
 public:
  /// Throws std::bad_alloc when the mapping fails.
  explicit MappedWords(std::size_t count);
  ~MappedWords();
  MappedWords(const MappedWords&) = delete;
  MappedWords& operator=(const MappedWords&) = delete;

  std::span<std::uint64_t> words() const noexcept { return {data_, count_}; }

 private:
  std::uint64_t* data_ = nullptr;
  std::size_t count_ = 0;
};

/// The shared streams of one batch: built on a pool, read-only after.
class FunctionalStreams {
 public:
  /// A miss bit per access of one structure, and its miss rate.
  struct MissStream {
    Bitmap miss;
    double miss_rate = 0.0;
  };
  /// One predictor kind's view of the branches.
  struct BranchStream {
    Bitmap mispredict;
    Bitmap taken;  ///< correctly predicted taken branches
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
  };
  /// The fetch lines of one (predictor, L1I line), and the ITLB misses
  /// they take at each of the batch's ITLB reaches a group needs.
  struct FetchStream {
    Bitmap fetch;  ///< instructions that start a new I$ line
    std::array<MissStream, 2> itlb;  ///< by the batch's ITLB reach index
  };
  /// The configurations with one FunctionalKey, and their TLB reach slots
  /// in member order (FunctionalStats).
  struct Group {
    FunctionalKey key;
    std::vector<std::size_t> members;  ///< batch indices, ascending
    std::array<int, 2> itlb_reach_kb{};
    std::array<int, 2> dtlb_reach_kb{};
  };
  /// The L3-absent and L3-present groups of one L2 key (either may be
  /// missing from a batch), and the streams and caches under them.
  struct Unit {
    std::array<std::optional<std::size_t>, 2> groups;  ///< [has L3]
    std::size_t l1d = 0;  ///< index into l1d_
    std::size_t l1i = 0;  ///< index into l1i_
    CacheGeometry l2;
    CacheGeometry l3;  ///< meaningful when groups[1] is set
  };

  /// Validates every configuration (InvalidArgument before any walk),
  /// groups them by FunctionalKey and by L2 key, and builds the streams
  /// those keys need on `pool`. Counts one sim.l1_passes per L1D and L1I
  /// stream. `trace` must be non-empty and outlive the object.
  FunctionalStreams(ThreadPool& pool, std::span<const ProcessorConfig> configs,
                    std::span<const Instr> trace);
  /// The bitmaps point into storage_, so the object stays where it is.
  FunctionalStreams(const FunctionalStreams&) = delete;
  FunctionalStreams& operator=(const FunctionalStreams&) = delete;

  /// L2 keys in the batch; UnitWalker::walk takes 0 .. units()-1.
  std::size_t units() const noexcept { return units_.size(); }

 private:
  friend class UnitWalker;

  std::span<const Instr> trace_;
  std::optional<MappedWords> storage_;  ///< every Bitmap below
  std::vector<Group> groups_;
  std::vector<Unit> units_;
  Bitmap loads_;
  Bitmap mem_ops_;  ///< loads and stores
  Bitmap branches_;
  /// The batch's TLB reaches in configuration order; a stream's reach
  /// index is a position here, whatever slot a group gives that reach.
  std::array<int, 2> itlb_reach_kb_{};
  std::array<int, 2> dtlb_reach_kb_{};
  std::array<MissStream, 2> dtlb_;      ///< by DTLB reach index
  std::array<BranchStream, 4> branch_;  ///< by BranchPredictorKind
  std::array<FetchStream, 8> fetch_;    ///< by (predictor, L1I line)
  std::array<MissStream, 6> l1d_;       ///< by (L1D size, line)
  std::array<MissStream, 48> l1i_;      ///< by (size, line, predictor, iw)
};

/// One pool worker's share of the per-unit work. It owns an L2 and an L3
/// tag array, reset between units, the current unit's L2 and L3 miss bits,
/// and one outcome buffer, so a worker allocates them once for every unit
/// it walks.
class UnitWalker {
 public:
  /// One functional group of the walked unit.
  struct GroupView {
    std::span<const std::size_t> members;  ///< batch indices, ascending
    FunctionalStats stats;  ///< at the group's own reach slots
  };
  /// Called once per unit with its outcome stream, whose TLB bits sit at
  /// the batch's reach indices, and its one or two groups, L3-absent first;
  /// both are valid during the call.
  using Visit = std::function<void(const OutcomeStream& stream,
                                   std::span<const GroupView> groups)>;

  /// `streams` must outlive the walker.
  explicit UnitWalker(const FunctionalStreams& streams);

  /// Walks unit `u`'s L2 and L3, composes its stream and each group's
  /// counters, and calls `visit` with them. Counts one sim.l2_passes and
  /// one sim.functional_passes.
  void walk(std::size_t u, const Visit& visit);

 private:
  /// outcomes_ for unit `unit`, from its L3-present group's key when it has
  /// one, else from its only group's (`key`).
  void compose(const FunctionalKey& key, const FunctionalStreams::Unit& unit);
  /// The counters of group `g` of unit `unit`, at the group's reach slots.
  FunctionalStats stats(const FunctionalStreams::Group& g,
                        const FunctionalStreams::Unit& unit) const;

  const FunctionalStreams& s_;
  std::optional<Cache> l2_;
  CacheGeometry l2_geometry_;
  std::optional<Cache> l3_;
  CacheGeometry l3_geometry_;
  double l2_miss_rate_ = 0.0;
  double l3_miss_rate_ = 0.0;
  /// Per instruction of the current unit: its fetch or data access missed
  /// the L2, and then the L3 as well (written only when the unit has an
  /// L3 group).
  std::vector<std::uint64_t> l2_fetch_miss_;
  std::vector<std::uint64_t> l2_data_miss_;
  std::vector<std::uint64_t> l3_fetch_miss_;
  std::vector<std::uint64_t> l3_data_miss_;
  std::vector<Outcome> outcomes_;
};

}  // namespace dsml::sim::detail
