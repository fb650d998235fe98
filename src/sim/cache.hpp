// Set-associative cache and TLB models with true LRU replacement.
//
// These are functional hit/miss models: the timing model queries them per
// access and turns the answers into latency. Tag arrays are real, so line
// size, capacity, and associativity interact with the address stream exactly
// as in a hardware cache.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace dsml::sim {

class Cache {
 public:
  /// size_bytes and line_bytes must be powers of two; assoc >= 1; the set
  /// count (size / line / assoc) must be at least 1.
  Cache(std::uint64_t size_bytes, std::uint32_t line_bytes,
        std::uint32_t assoc);

  /// Access a byte address; returns true on hit. Misses allocate (the model
  /// is write-allocate for simplicity — SimpleScalar's default dl1 is too).
  bool access(std::uint64_t addr);

  /// Non-allocating lookup (used to model wrong-path pollution control).
  bool probe(std::uint64_t addr) const;

  /// Invalidate every line and zero the hit and miss counts, as if newly
  /// constructed.
  void flush();

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t accesses() const noexcept { return hits_ + misses_; }
  double miss_rate() const noexcept;

  std::uint32_t line_bytes() const noexcept { return line_bytes_; }
  std::uint32_t sets() const noexcept { return sets_; }
  std::uint32_t assoc() const noexcept { return assoc_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // last-use stamp
    bool valid = false;
  };

  std::uint32_t line_bytes_ = 0;
  std::uint32_t assoc_ = 0;
  std::uint32_t sets_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint64_t stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::vector<Way> ways_;  // sets_ x assoc_, row-major
};

/// TLB modelled as a set-associative cache of page translations. Table 1
/// expresses TLB size as a reach in KB; entries = reach / page size.
class Tlb {
 public:
  Tlb(std::uint64_t reach_kb, std::uint32_t page_bytes = 4096,
      std::uint32_t assoc = 4);

  bool access(std::uint64_t addr);
  std::uint64_t misses() const noexcept { return cache_.misses(); }
  std::uint64_t accesses() const noexcept { return cache_.accesses(); }

 private:
  std::uint32_t page_bytes_;
  Cache cache_;
};

}  // namespace dsml::sim
