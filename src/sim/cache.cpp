#include "sim/cache.hpp"

#include <bit>

namespace dsml::sim {

Cache::Cache(std::uint64_t size_bytes, std::uint32_t line_bytes,
             std::uint32_t assoc)
    : line_bytes_(line_bytes), assoc_(assoc) {
  DSML_REQUIRE(size_bytes > 0 && line_bytes > 0 && assoc > 0,
               "Cache: sizes must be positive");
  DSML_REQUIRE(std::has_single_bit(size_bytes),
               "Cache: size must be a power of two");
  DSML_REQUIRE(std::has_single_bit(static_cast<std::uint64_t>(line_bytes)),
               "Cache: line size must be a power of two");
  const std::uint64_t lines = size_bytes / line_bytes;
  DSML_REQUIRE(lines >= assoc, "Cache: fewer lines than ways");
  sets_ = static_cast<std::uint32_t>(lines / assoc);
  DSML_REQUIRE(std::has_single_bit(static_cast<std::uint64_t>(sets_)),
               "Cache: set count must be a power of two");
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(
      static_cast<std::uint64_t>(line_bytes)));
  set_mask_ = sets_ - 1;
  ways_.assign(static_cast<std::size_t>(sets_) * assoc_, Way{});
}

bool Cache::access(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  const auto set = static_cast<std::size_t>(line & set_mask_);
  const std::uint64_t tag = line >> std::countr_zero(
      static_cast<std::uint64_t>(sets_));
  Way* base = &ways_[set * assoc_];
  ++stamp_;
  Way* victim = base;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      way.lru = stamp_;
      ++hits_;
      return true;
    }
    if (!way.valid) {
      victim = &way;
    } else if (victim->valid && way.lru < victim->lru) {
      victim = &way;
    }
  }
  ++misses_;
  victim->valid = true;
  victim->tag = tag;
  victim->lru = stamp_;
  return false;
}

bool Cache::probe(std::uint64_t addr) const {
  const std::uint64_t line = addr >> line_shift_;
  const auto set = static_cast<std::size_t>(line & set_mask_);
  const std::uint64_t tag = line >> std::countr_zero(
      static_cast<std::uint64_t>(sets_));
  const Way* base = &ways_[set * assoc_];
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

void Cache::flush() {
  for (Way& way : ways_) way = Way{};
  stamp_ = 0;
  hits_ = 0;
  misses_ = 0;
}

double Cache::miss_rate() const noexcept {
  const std::uint64_t total = hits_ + misses_;
  return total > 0 ? static_cast<double>(misses_) /
                         static_cast<double>(total)
                   : 0.0;
}

Tlb::Tlb(std::uint64_t reach_kb, std::uint32_t page_bytes, std::uint32_t assoc)
    : page_bytes_(page_bytes),
      cache_(reach_kb * 1024ULL / page_bytes * 8ULL, 8, assoc) {
  // Model: one 8-byte "line" per page translation entry; the cache geometry
  // then provides (reach / page) entries with the requested associativity.
  DSML_REQUIRE(reach_kb * 1024ULL >= page_bytes,
               "Tlb: reach smaller than one page");
}

bool Tlb::access(std::uint64_t addr) {
  // Index by virtual page number; each translation occupies one entry.
  const std::uint64_t vpn = addr / page_bytes_;
  return cache_.access(vpn * 8ULL);
}

}  // namespace dsml::sim
