#include "sim/cache.hpp"

#include <gtest/gtest.h>

namespace dsml::sim {
namespace {

TEST(Cache, GeometryDerivation) {
  const Cache c(32 * 1024, 64, 4);
  EXPECT_EQ(c.line_bytes(), 64u);
  EXPECT_EQ(c.assoc(), 4u);
  EXPECT_EQ(c.sets(), 128u);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(0, 64, 4), InvalidArgument);
  EXPECT_THROW(Cache(1000, 64, 4), InvalidArgument);   // non power of two
  EXPECT_THROW(Cache(1024, 48, 2), InvalidArgument);   // line not pow2
  EXPECT_THROW(Cache(128, 64, 4), InvalidArgument);    // fewer lines than ways
}

TEST(Cache, ColdMissThenHit) {
  Cache c(1024, 64, 2);
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1001));  // same line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LineGranularity) {
  Cache c(1024, 64, 2);
  c.access(0x0);
  EXPECT_TRUE(c.access(63));    // same 64B line
  EXPECT_FALSE(c.access(64));   // next line
}

TEST(Cache, LruEvictionOrder) {
  // Direct test of LRU in a single set: 2-way, line 64, 2 sets (256 B).
  Cache c(256, 64, 2);
  // Set 0 holds lines with (line_number % 2 == 0): addresses 0, 128, 256...
  c.access(0);     // miss, set0 way A
  c.access(128);   // miss, set0 way B
  c.access(0);     // hit — A is now most recent
  c.access(256);   // miss — evicts B (128)
  EXPECT_TRUE(c.access(0));     // still resident
  EXPECT_FALSE(c.access(128));  // was evicted
}

TEST(Cache, AssociativityPreventsConflicts) {
  // 4 lines mapping to the same set survive together in a 4-way cache but
  // thrash a direct-mapped one of the same size.
  Cache four_way(4096, 64, 4);
  Cache direct(4096, 64, 1);
  const std::uint64_t stride = 4096;  // same set in both caches
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      four_way.access(i * stride);
      direct.access(i * stride);
    }
  }
  EXPECT_EQ(four_way.misses(), 4u);   // compulsory only
  EXPECT_GT(direct.misses(), 4u);     // conflict misses
}

TEST(Cache, CapacityDifferentiation) {
  // A working set of 64 lines fits a 4KB cache but not a 1KB cache.
  Cache small(1024, 64, 4);
  Cache large(4096, 64, 4);
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t line = 0; line < 64; ++line) {
      small.access(line * 64);
      large.access(line * 64);
    }
  }
  EXPECT_EQ(large.misses(), 64u);
  EXPECT_GT(small.misses(), 64u * 3);
}

TEST(Cache, LineSizeSpatialLocality) {
  // Sequential byte-stride sweep: bigger lines halve the misses.
  Cache line32(4096, 32, 4);
  Cache line64(4096, 64, 4);
  for (std::uint64_t addr = 0; addr < 1u << 16; addr += 8) {
    line32.access(addr);
    line64.access(addr);
  }
  EXPECT_NEAR(static_cast<double>(line32.misses()) /
                  static_cast<double>(line64.misses()),
              2.0, 0.01);
}

TEST(Cache, ProbeDoesNotAllocate) {
  Cache c(1024, 64, 2);
  EXPECT_FALSE(c.probe(0x2000));
  EXPECT_FALSE(c.access(0x2000));  // still a miss: probe didn't insert
  EXPECT_TRUE(c.probe(0x2000));
  const auto hits = c.hits();
  c.probe(0x2000);
  EXPECT_EQ(c.hits(), hits);  // probe doesn't count stats
}

TEST(Cache, FlushEmptiesCache) {
  Cache c(1024, 64, 2);
  c.access(0x100);
  c.flush();
  EXPECT_FALSE(c.probe(0x100));
}

TEST(Cache, FlushZeroesTheCounters) {
  // A flushed cache reports only what it sees after the flush, as a new
  // one would: simulate_batch reuses one L2 and one L3 per worker.
  Cache c(1024, 64, 2);
  c.access(0x100);
  c.access(0x100);
  c.flush();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_FALSE(c.access(0x100));
  EXPECT_DOUBLE_EQ(c.miss_rate(), 1.0);
}

TEST(Cache, MissRate) {
  Cache c(1024, 64, 2);
  EXPECT_DOUBLE_EQ(c.miss_rate(), 0.0);  // no accesses yet
  c.access(0);
  c.access(0);
  EXPECT_DOUBLE_EQ(c.miss_rate(), 0.5);
}

class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(CacheGeometryTest, HitsAfterWarmupWithinCapacity) {
  const auto [size, line, assoc] = GetParam();
  Cache c(size, line, assoc);
  const std::uint64_t lines = size / line;
  // Touch exactly the capacity's worth of lines, then re-touch: all hits.
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * line);
  const auto misses_after_warmup = c.misses();
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * line);
  EXPECT_EQ(c.misses(), misses_after_warmup);
}

INSTANTIATE_TEST_SUITE_P(
    Table1Menu, CacheGeometryTest,
    ::testing::Values(std::tuple{16 * 1024, 32, 4},
                      std::tuple{32 * 1024, 32, 4},
                      std::tuple{64 * 1024, 64, 4},
                      std::tuple{256 * 1024, 128, 4},
                      std::tuple{1024 * 1024, 128, 8},
                      std::tuple{8 * 1024 * 1024, 256, 8}));

TEST(Tlb, EntriesFromReach) {
  Tlb tlb(512);  // 512KB reach, 4KB pages -> 128 entries
  // Touch 128 distinct pages, then re-touch: all hits.
  for (std::uint64_t p = 0; p < 128; ++p) tlb.access(p * 4096);
  EXPECT_EQ(tlb.misses(), 128u);
  for (std::uint64_t p = 0; p < 128; ++p) tlb.access(p * 4096);
  EXPECT_EQ(tlb.misses(), 128u);
}

TEST(Tlb, CapacityMissesBeyondReach) {
  Tlb tlb(512);
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t p = 0; p < 256; ++p) tlb.access(p * 4096);
  }
  EXPECT_GT(tlb.misses(), 256u);
}

TEST(Tlb, SamePageHits) {
  Tlb tlb(256);
  tlb.access(0x1000);
  tlb.access(0x1800);  // same 4KB page
  EXPECT_EQ(tlb.misses(), 1u);
  EXPECT_EQ(tlb.accesses(), 2u);
}

}  // namespace
}  // namespace dsml::sim
