#include "sim/functional_streams.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <tuple>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "sim/branch.hpp"
#include "sim/timing_kernel.hpp"

namespace dsml::sim::detail {

namespace {

using MissStream = FunctionalStreams::MissStream;
using BranchStream = FunctionalStreams::BranchStream;
using FetchStream = FunctionalStreams::FetchStream;

std::size_t words_for(std::size_t n) { return (n + 63) / 64; }

/// Calls fn(i) for every set bit i of `bits`, in ascending order.
template <class F>
void for_each_bit(ConstBitmap bits, F&& fn) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t m = bits[w]; m != 0; m &= m - 1) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(m)));
    }
  }
}

void set_bit(Bitmap bits, std::size_t i) {
  bits[i / 64] |= std::uint64_t{1} << (i % 64);
}

/// Bit b of `word`, moved to bit `to`.
unsigned bit_to(std::uint64_t word, int b, unsigned to) {
  return static_cast<unsigned>((word >> b) & 1) << to;
}

double miss_rate(std::uint64_t misses, std::uint64_t accesses) {
  return accesses > 0 ? static_cast<double>(misses) /
                            static_cast<double>(accesses)
                      : 0.0;
}

// Stream indices. validate() has pinned every field they read to its menu.
std::size_t line_index(int line_b) { return line_b == 64 ? 1 : 0; }

std::size_t predictor_index(BranchPredictorKind kind) {
  return static_cast<std::size_t>(kind);
}

std::size_t fetch_index(const FunctionalKey& k) {
  return predictor_index(k.branch_predictor) * 2 + line_index(k.l1i_line_b);
}

std::size_t size_index(int size_kb) {
  return size_kb == 16 ? 0 : size_kb == 32 ? 1 : 2;
}

std::size_t l1d_index(const FunctionalKey& k) {
  return size_index(k.l1d_size_kb) * 2 + line_index(k.l1d_line_b);
}

std::size_t l1i_index(const FunctionalKey& k) {
  const std::size_t geometry =
      size_index(k.l1i_size_kb) * 2 + line_index(k.l1i_line_b);
  return (geometry * 4 + predictor_index(k.branch_predictor)) * 2 +
         (k.issue_wrong ? 1 : 0);
}

/// Position of `reach_kb` in `reaches`, taking the first free one if it is
/// not there yet.
std::size_t reach_index(std::array<int, 2>& reaches, int reach_kb) {
  for (std::size_t r = 0; r < reaches.size(); ++r) {
    if (reaches[r] == reach_kb) return r;
    if (reaches[r] == 0) {
      reaches[r] = reach_kb;
      return r;
    }
  }
  throw InvalidArgument("FunctionalStreams: more than two TLB reaches");
}

/// Position of a reach that `reaches` holds.
std::size_t find_reach(const std::array<int, 2>& reaches, int reach_kb) {
  return reaches[0] == reach_kb ? 0 : 1;
}

CacheGeometry l1d_geometry(const ProcessorConfig& c) {
  return {static_cast<std::uint64_t>(c.l1d_size_kb) * 1024,
          static_cast<std::uint32_t>(c.l1d_line_b),
          static_cast<std::uint32_t>(c.l1d_assoc)};
}

CacheGeometry l1i_geometry(const ProcessorConfig& c) {
  return {static_cast<std::uint64_t>(c.l1i_size_kb) * 1024,
          static_cast<std::uint32_t>(c.l1i_line_b),
          static_cast<std::uint32_t>(c.l1i_assoc)};
}

CacheGeometry l2_geometry(const ProcessorConfig& c) {
  return {static_cast<std::uint64_t>(c.l2_size_kb) * 1024,
          static_cast<std::uint32_t>(c.l2_line_b),
          static_cast<std::uint32_t>(c.l2_assoc)};
}

CacheGeometry l3_geometry(const ProcessorConfig& c) {
  return {static_cast<std::uint64_t>(c.l3_size_mb) * 1024 * 1024,
          static_cast<std::uint32_t>(c.l3_line_b),
          static_cast<std::uint32_t>(c.l3_assoc)};
}

Cache make_cache(const CacheGeometry& g) {
  return Cache(g.size_bytes, g.line_bytes, g.assoc);
}

/// An empty cache of geometry `want` with zero counters, reusing `cache`'s
/// tag array when it already has that geometry.
void reset_cache(std::optional<Cache>& cache, CacheGeometry& held,
                 const CacheGeometry& want) {
  if (cache && held == want) {
    cache->flush();
    return;
  }
  cache.reset();  // free the old array before allocating the new one
  cache.emplace(make_cache(want));
  held = want;
}

// ---------------------------------------------------------------------------
// The stream walks, each in trace order, into zeroed bitmaps.

void walk_branches(std::span<const Instr> trace, ConstBitmap branches,
                   BranchPredictorKind kind, BranchStream& out) {
  const std::unique_ptr<BranchPredictor> predictor =
      make_branch_predictor(kind);
  for_each_bit(branches, [&](std::size_t i) {
    const Instr& ins = trace[i];
    ++out.branches;
    if (predictor->predict_and_update(ins.pc, ins.taken) != ins.taken) {
      ++out.mispredicts;
      set_bit(out.mispredict, i);
    } else if (ins.taken) {
      set_bit(out.taken, i);
    }
  });
}

/// The data accesses of loads and stores through one DTLB or L1D.
template <class Structure>
void walk_data(std::span<const Instr> trace, ConstBitmap mem_ops,
               Structure& structure, MissStream& out) {
  for_each_bit(mem_ops, [&](std::size_t i) {
    if (!structure.access(trace[i].mem_addr)) set_bit(out.miss, i);
  });
  out.miss_rate = miss_rate(structure.misses(), structure.accesses());
}

/// New fetch lines under one predictor and line size: a fetch starts a new
/// line when its line differs from the last fetch's, or after a mispredict
/// or a taken branch. Each new line looks up every ITLB in `itlb_reach_kb`
/// (0 skips a reach).
void walk_fetch(std::span<const Instr> trace, const BranchStream& branch,
                int line_b, const std::array<int, 2>& itlb_reach_kb,
                FetchStream& out) {
  const std::size_t words = out.fetch.size();
  std::array<std::optional<Tlb>, 2> itlbs;
  for (std::size_t r = 0; r < itlbs.size(); ++r) {
    if (itlb_reach_kb[r] != 0) {
      itlbs[r].emplace(static_cast<std::uint64_t>(itlb_reach_kb[r]));
    }
  }
  const auto line_shift =
      std::countr_zero(static_cast<std::uint64_t>(line_b));
  std::uint64_t last_line = ~0ULL;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t redirects = branch.mispredict[w] | branch.taken[w];
    const std::size_t end = std::min(trace.size(), (w + 1) * 64);
    std::uint64_t fetch = 0;
    std::array<std::uint64_t, 2> itlb_miss{};
    for (std::size_t i = w * 64; i < end; ++i) {
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      const std::uint64_t pc = trace[i].pc;
      const std::uint64_t line = pc >> line_shift;
      if (line != last_line) {
        fetch |= bit;
        for (std::size_t r = 0; r < itlbs.size(); ++r) {
          if (itlbs[r] && !itlbs[r]->access(pc)) itlb_miss[r] |= bit;
        }
        last_line = line;
      }
      if (redirects & bit) last_line = ~0ULL;
    }
    out.fetch[w] = fetch;
    for (std::size_t r = 0; r < itlbs.size(); ++r) {
      if (itlbs[r]) out.itlb[r].miss[w] = itlb_miss[r];
    }
  }
  for (std::size_t r = 0; r < itlbs.size(); ++r) {
    if (itlbs[r]) {
      out.itlb[r].miss_rate =
          miss_rate(itlbs[r]->misses(), itlbs[r]->accesses());
    }
  }
}

/// The L1I under one fetch stream. `wrong_path` is the predictor's
/// mispredicts when the configurations issue down the wrong path, whose
/// two lines the L1I takes after the branch's own fetch; empty otherwise.
void walk_l1i(std::span<const Instr> trace, ConstBitmap fetch,
              ConstBitmap wrong_path, Cache l1i, MissStream& out) {
  const std::uint64_t line_b = l1i.line_bytes();
  for (std::size_t w = 0; w < fetch.size(); ++w) {
    const std::uint64_t fetches = fetch[w];
    const std::uint64_t wrong = wrong_path.empty() ? 0 : wrong_path[w];
    std::uint64_t miss = 0;
    for (std::uint64_t m = fetches | wrong; m != 0; m &= m - 1) {
      const int b = std::countr_zero(m);
      const std::uint64_t bit = std::uint64_t{1} << b;
      const Instr& ins = trace[w * 64 + static_cast<std::size_t>(b)];
      if ((fetches & bit) && !l1i.access(ins.pc)) miss |= bit;
      if (wrong & bit) {
        const std::uint64_t wrong_pc = ins.taken ? ins.pc + 4 : ins.target;
        for (std::uint64_t k = 0; k < 2; ++k) l1i.access(wrong_pc + k * line_b);
      }
    }
    out.miss[w] = miss;
  }
  out.miss_rate = l1i.miss_rate();
}

}  // namespace

// ---------------------------------------------------------------------------
// FunctionalStreams

MappedWords::MappedWords(std::size_t count) : count_(count) {
  if (count == 0) return;
  void* p = mmap(nullptr, count * sizeof(std::uint64_t),
                 PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::uint64_t*>(p);
}

MappedWords::~MappedWords() {
  if (data_ != nullptr) munmap(data_, count_ * sizeof(std::uint64_t));
}

FunctionalStreams::FunctionalStreams(ThreadPool& pool,
                                     std::span<const ProcessorConfig> configs,
                                     std::span<const Instr> trace)
    : trace_(trace) {
  for (const ProcessorConfig& c : configs) c.validate();
  DSML_REQUIRE(!trace.empty(), "FunctionalStreams: empty trace");
  for (const ProcessorConfig& c : configs) {
    reach_index(itlb_reach_kb_, c.itlb_size_kb);
    reach_index(dtlb_reach_kb_, c.dtlb_size_kb);
  }

  // Groups in key order, each joined to the unit of its L2 key, and the
  // streams their keys need, built from the first configuration that
  // needs each one.
  std::map<FunctionalKey, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    by_key[configs[i].functional_key()].push_back(i);
  }
  std::map<FunctionalKey, std::size_t> unit_of;
  std::array<bool, 4> need_branch{};
  std::array<std::array<int, 2>, 8> need_itlb{};  ///< reaches, by index
  std::array<int, 8> need_fetch{};  ///< L1I line size, by index
  std::array<const ProcessorConfig*, 6> need_l1d{};
  std::array<const ProcessorConfig*, 48> need_l1i{};
  groups_.reserve(by_key.size());
  for (auto& [key, members] : by_key) {
    const ProcessorConfig& head = configs[members.front()];
    Group g;
    g.key = key;
    for (const std::size_t idx : members) {
      reach_index(g.itlb_reach_kb, configs[idx].itlb_size_kb);
      reach_index(g.dtlb_reach_kb, configs[idx].dtlb_size_kb);
    }
    g.members = std::move(members);

    need_branch[predictor_index(key.branch_predictor)] = true;
    const std::size_t f = fetch_index(key);
    need_fetch[f] = head.l1i_line_b;
    for (const int reach : g.itlb_reach_kb) {
      if (reach == 0) continue;
      const std::size_t r = find_reach(itlb_reach_kb_, reach);
      need_itlb[f][r] = itlb_reach_kb_[r];
    }
    if (!need_l1d[l1d_index(key)]) need_l1d[l1d_index(key)] = &head;
    if (!need_l1i[l1i_index(key)]) need_l1i[l1i_index(key)] = &head;

    FunctionalKey l2_key = key;
    l2_key.l3_size_mb = 0;
    const auto [it, fresh] = unit_of.try_emplace(l2_key, units_.size());
    if (fresh) {
      Unit unit;
      unit.l1d = l1d_index(key);
      unit.l1i = l1i_index(key);
      unit.l2 = l2_geometry(head);
      units_.push_back(unit);
    }
    Unit& unit = units_[it->second];
    if (head.has_l3()) unit.l3 = l3_geometry(head);
    unit.groups[head.has_l3() ? 1 : 0] = groups_.size();
    groups_.push_back(std::move(g));
  }
  // Units of one L2 geometry in a row, so that a walker claiming units in
  // order rarely reallocates its L2.
  std::stable_sort(units_.begin(), units_.end(),
                   [](const Unit& a, const Unit& b) {
                     return std::tie(a.l2.size_bytes, a.l2.assoc) <
                            std::tie(b.l2.size_bytes, b.l2.assoc);
                   });

  // Every bitmap is a slice of one mapped block, sized before any walk runs.
  std::vector<Bitmap*> bitmaps = {&loads_, &mem_ops_, &branches_};
  for (std::size_t p = 0; p < need_branch.size(); ++p) {
    if (!need_branch[p]) continue;
    bitmaps.push_back(&branch_[p].mispredict);
    bitmaps.push_back(&branch_[p].taken);
  }
  for (std::size_t r = 0; r < dtlb_reach_kb_.size(); ++r) {
    if (dtlb_reach_kb_[r] != 0) bitmaps.push_back(&dtlb_[r].miss);
  }
  for (std::size_t d = 0; d < need_l1d.size(); ++d) {
    if (need_l1d[d]) bitmaps.push_back(&l1d_[d].miss);
  }
  for (std::size_t f = 0; f < need_fetch.size(); ++f) {
    if (need_fetch[f] == 0) continue;
    bitmaps.push_back(&fetch_[f].fetch);
    for (std::size_t r = 0; r < 2; ++r) {
      if (need_itlb[f][r] != 0) bitmaps.push_back(&fetch_[f].itlb[r].miss);
    }
  }
  for (std::size_t k = 0; k < need_l1i.size(); ++k) {
    if (need_l1i[k]) bitmaps.push_back(&l1i_[k].miss);
  }
  const std::size_t words = words_for(trace.size());
  storage_.emplace(bitmaps.size() * words);
  for (std::size_t b = 0; b < bitmaps.size(); ++b) {
    *bitmaps[b] = storage_->words().subspan(b * words, words);
  }

  for (std::size_t i = 0; i < trace.size(); ++i) {
    switch (trace[i].op) {
      case OpClass::kLoad:
        set_bit(loads_, i);
        set_bit(mem_ops_, i);
        break;
      case OpClass::kStore:
        set_bit(mem_ops_, i);
        break;
      case OpClass::kBranch:
        set_bit(branches_, i);
        break;
      default:
        break;
    }
  }

  // Three rounds, each a set of independent walks over the trace: fetch
  // lines need their predictor's redirects, and an L1I its fetch lines.
  static metrics::Counter& l1_passes = metrics::counter("sim.l1_passes");
  const auto run = [&pool](const std::vector<std::function<void()>>& walks) {
    parallel_for(
        pool, 0, walks.size(), [&](std::size_t k) { walks[k](); },
        /*grain=*/1);
  };
  std::vector<std::function<void()>> walks;
  for (std::size_t p = 0; p < need_branch.size(); ++p) {
    if (!need_branch[p]) continue;
    walks.emplace_back([this, p] {
      walk_branches(trace_, branches_, static_cast<BranchPredictorKind>(p),
                    branch_[p]);
    });
  }
  for (std::size_t r = 0; r < dtlb_reach_kb_.size(); ++r) {
    if (dtlb_reach_kb_[r] == 0) continue;
    walks.emplace_back([this, r] {
      Tlb dtlb(static_cast<std::uint64_t>(dtlb_reach_kb_[r]));
      walk_data(trace_, mem_ops_, dtlb, dtlb_[r]);
    });
  }
  for (std::size_t d = 0; d < need_l1d.size(); ++d) {
    if (!need_l1d[d]) continue;
    walks.emplace_back([this, d, geometry = l1d_geometry(*need_l1d[d])] {
      Cache l1d = make_cache(geometry);
      walk_data(trace_, mem_ops_, l1d, l1d_[d]);
      l1_passes.add();
    });
  }
  run(walks);

  walks.clear();
  for (std::size_t f = 0; f < need_fetch.size(); ++f) {
    if (need_fetch[f] == 0) continue;
    walks.emplace_back([this, f, line_b = need_fetch[f],
                        reaches = need_itlb[f]] {
      walk_fetch(trace_, branch_[f / 2], line_b, reaches, fetch_[f]);
    });
  }
  run(walks);

  walks.clear();
  for (std::size_t k = 0; k < need_l1i.size(); ++k) {
    if (!need_l1i[k]) continue;
    const ProcessorConfig& head = *need_l1i[k];
    const FunctionalKey key = head.functional_key();
    walks.emplace_back([this, k, key, geometry = l1i_geometry(head)] {
      const std::size_t p = predictor_index(key.branch_predictor);
      walk_l1i(trace_, fetch_[fetch_index(key)].fetch,
               key.issue_wrong ? branch_[p].mispredict : Bitmap(),
               make_cache(geometry), l1i_[k]);
      l1_passes.add();
    });
  }
  run(walks);
}

// ---------------------------------------------------------------------------
// UnitWalker

UnitWalker::UnitWalker(const FunctionalStreams& streams)
    : s_(streams),
      l2_fetch_miss_(words_for(streams.trace_.size())),
      l2_data_miss_(words_for(streams.trace_.size())),
      l3_fetch_miss_(words_for(streams.trace_.size())),
      l3_data_miss_(words_for(streams.trace_.size())),
      outcomes_(streams.trace_.size()) {}

void UnitWalker::walk(std::size_t u, const Visit& visit) {
  DSML_REQUIRE(u < s_.units_.size(), "UnitWalker::walk: no such unit");
  static metrics::Counter& l2_passes = metrics::counter("sim.l2_passes");
  static metrics::Counter& functional_passes =
      metrics::counter("sim.functional_passes");
  const FunctionalStreams::Unit& unit = s_.units_[u];
  const bool has_l3 = unit.groups[1].has_value();
  reset_cache(l2_, l2_geometry_, unit.l2);
  if (has_l3) reset_cache(l3_, l3_geometry_, unit.l3);
  Cache& l2 = *l2_;

  // The L2 sees the L1I and L1D misses in trace order, an instruction's
  // fetch first; the L3 sees the L2's misses.
  const ConstBitmap fetch_miss = s_.l1i_[unit.l1i].miss;
  const ConstBitmap data_miss = s_.l1d_[unit.l1d].miss;
  const std::span<const Instr> trace = s_.trace_;
  for (std::size_t w = 0; w < fetch_miss.size(); ++w) {
    std::uint64_t l2_fetch = 0;
    std::uint64_t l2_data = 0;
    std::uint64_t l3_fetch = 0;
    std::uint64_t l3_data = 0;
    for (std::uint64_t m = fetch_miss[w] | data_miss[w]; m != 0; m &= m - 1) {
      const int b = std::countr_zero(m);
      const std::uint64_t bit = std::uint64_t{1} << b;
      const Instr& ins = trace[w * 64 + static_cast<std::size_t>(b)];
      if ((fetch_miss[w] & bit) && !l2.access(ins.pc)) {
        l2_fetch |= bit;
        if (has_l3 && !l3_->access(ins.pc)) l3_fetch |= bit;
      }
      if ((data_miss[w] & bit) && !l2.access(ins.mem_addr)) {
        l2_data |= bit;
        if (has_l3 && !l3_->access(ins.mem_addr)) l3_data |= bit;
      }
    }
    l2_fetch_miss_[w] = l2_fetch;
    l2_data_miss_[w] = l2_data;
    l3_fetch_miss_[w] = l3_fetch;
    l3_data_miss_[w] = l3_data;
  }
  l2_miss_rate_ = l2.miss_rate();
  l3_miss_rate_ = has_l3 ? l3_->miss_rate() : 0.0;
  l2_passes.add();

  std::array<GroupView, 2> groups;
  std::size_t count = 0;
  for (const std::optional<std::size_t>& g : unit.groups) {
    if (!g) continue;
    const FunctionalStreams::Group& group = s_.groups_[*g];
    groups[count++] = {group.members, stats(group, unit)};
  }
  compose(s_.groups_[*unit.groups[has_l3 ? 1 : 0]].key, unit);
  functional_passes.add();
  visit({outcomes_, s_.itlb_reach_kb_, s_.dtlb_reach_kb_},
        std::span(groups).first(count));
}

FunctionalStats UnitWalker::stats(const FunctionalStreams::Group& g,
                                  const FunctionalStreams::Unit& unit) const {
  const FunctionalStreams::FetchStream& fetch = s_.fetch_[fetch_index(g.key)];
  const FunctionalStreams::BranchStream& branch =
      s_.branch_[predictor_index(g.key.branch_predictor)];
  FunctionalStats stats;
  stats.branch_count = branch.branches;
  stats.mispredicts = branch.mispredicts;
  stats.l1d_miss_rate = s_.l1d_[unit.l1d].miss_rate;
  stats.l1i_miss_rate = s_.l1i_[unit.l1i].miss_rate;
  stats.l2_miss_rate = l2_miss_rate_;
  stats.l3_miss_rate = g.key.l3_size_mb > 0 ? l3_miss_rate_ : 0.0;
  stats.itlb_reach_kb = g.itlb_reach_kb;
  stats.dtlb_reach_kb = g.dtlb_reach_kb;
  // The group's TLB slots, which need not follow the batch's reach order.
  for (std::size_t slot = 0; slot < 2; ++slot) {
    if (g.itlb_reach_kb[slot] != 0) {
      stats.itlb_miss_rate[slot] =
          fetch.itlb[find_reach(s_.itlb_reach_kb_, g.itlb_reach_kb[slot])]
              .miss_rate;
    }
    if (g.dtlb_reach_kb[slot] != 0) {
      stats.dtlb_miss_rate[slot] =
          s_.dtlb_[find_reach(s_.dtlb_reach_kb_, g.dtlb_reach_kb[slot])]
              .miss_rate;
    }
  }
  return stats;
}

void UnitWalker::compose(const FunctionalKey& key,
                         const FunctionalStreams::Unit& unit) {
  const bool has_l3 = key.l3_size_mb > 0;
  const FunctionalStreams::FetchStream& fetch = s_.fetch_[fetch_index(key)];
  const FunctionalStreams::BranchStream& branch =
      s_.branch_[predictor_index(key.branch_predictor)];
  const FunctionalStreams::MissStream& l1i = s_.l1i_[unit.l1i];
  const FunctionalStreams::MissStream& l1d = s_.l1d_[unit.l1d];
  // Without an L3 every L2 miss goes to memory.
  const ConstBitmap l3_fetch_miss = has_l3 ? l3_fetch_miss_ : l2_fetch_miss_;
  const ConstBitmap l3_data_miss = has_l3 ? l3_data_miss_ : l2_data_miss_;
  // TLB bits at the batch's reach indices: an ITLB stream is empty where
  // no group under this fetch stream has that reach, and reads as no miss.
  const auto word = [](ConstBitmap bits, std::size_t w) {
    return bits.empty() ? std::uint64_t{0} : bits[w];
  };

  // Each level's miss bit implies the previous level's, so a level field
  // (0 L1, 1 L2, 2 L3, 3 memory) counts them: its low bit is their parity
  // and its high bit the L2 miss.
  std::fill(outcomes_.begin(), outcomes_.end(), Outcome{0});
  Outcome* out = outcomes_.data();
  for (std::size_t w = 0; w < fetch.fetch.size(); ++w) {
    Outcome* o = out + w * 64;
    if (const std::uint64_t fetches = fetch.fetch[w]; fetches != 0) {
      const std::uint64_t lo =
          l1i.miss[w] ^ l2_fetch_miss_[w] ^ l3_fetch_miss[w];
      const std::uint64_t hi = l2_fetch_miss_[w];
      const std::uint64_t tlb0 = word(fetch.itlb[0].miss, w);
      const std::uint64_t tlb1 = word(fetch.itlb[1].miss, w);
      for (std::uint64_t m = fetches; m != 0; m &= m - 1) {
        const int b = std::countr_zero(m);
        o[b] = static_cast<Outcome>(
            outcome::kFetch | bit_to(lo, b, outcome::kFetchLevelShift) |
            bit_to(hi, b, outcome::kFetchLevelShift + 1) |
            bit_to(tlb0, b, outcome::kItlbMissShift) |
            bit_to(tlb1, b, outcome::kItlbMissShift + 1));
      }
    }
    if (const std::uint64_t loads = s_.loads_[w]; loads != 0) {
      const std::uint64_t lo = l1d.miss[w] ^ l2_data_miss_[w] ^ l3_data_miss[w];
      const std::uint64_t hi = l2_data_miss_[w];
      const std::uint64_t tlb0 = word(s_.dtlb_[0].miss, w);
      const std::uint64_t tlb1 = word(s_.dtlb_[1].miss, w);
      for (std::uint64_t m = loads; m != 0; m &= m - 1) {
        const int b = std::countr_zero(m);
        o[b] |= static_cast<Outcome>(
            outcome::kLoad | bit_to(lo, b, outcome::kLoadLevelShift) |
            bit_to(hi, b, outcome::kLoadLevelShift + 1) |
            bit_to(tlb0, b, outcome::kDtlbMissShift) |
            bit_to(tlb1, b, outcome::kDtlbMissShift + 1));
      }
    }
    for (std::uint64_t m = branch.mispredict[w]; m != 0; m &= m - 1) {
      o[std::countr_zero(m)] |= outcome::kMispredict;
    }
    for (std::uint64_t m = branch.taken[w]; m != 0; m &= m - 1) {
      o[std::countr_zero(m)] |= outcome::kTakenBranch;
    }
  }
}

}  // namespace dsml::sim::detail
