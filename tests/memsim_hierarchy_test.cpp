// Unit tests for the multi-level hierarchy and scope accounting.
#include <gtest/gtest.h>

#include "memsim/hierarchy.hpp"
#include "util/error.hpp"

namespace pmacx {
namespace {

using memsim::AccessCounters;
using memsim::CacheHierarchy;
using memsim::CacheLevelConfig;
using memsim::HierarchyConfig;
using memsim::MemRef;

HierarchyConfig two_level() {
  CacheLevelConfig l1;
  l1.name = "L1";
  l1.size_bytes = 4 * 64;  // 4 lines
  l1.line_bytes = 64;
  l1.associativity = 0;
  CacheLevelConfig l2 = l1;
  l2.name = "L2";
  l2.size_bytes = 16 * 64;  // 16 lines
  HierarchyConfig cfg;
  cfg.name = "test-2l";
  cfg.levels = {l1, l2};
  return cfg;
}

MemRef load(std::uint64_t addr, std::uint32_t size = 8) { return {addr, size, false}; }
MemRef store(std::uint64_t addr, std::uint32_t size = 8) { return {addr, size, true}; }

TEST(HierarchyTest, ColdMissGoesToMemory) {
  CacheHierarchy h(two_level());
  h.access(load(0));
  EXPECT_EQ(h.totals().memory_accesses, 1u);
  EXPECT_EQ(h.totals().level_hits[0], 0u);
  EXPECT_EQ(h.totals().level_hits[1], 0u);
}

TEST(HierarchyTest, SecondAccessHitsL1) {
  CacheHierarchy h(two_level());
  h.access(load(0));
  h.access(load(0));
  EXPECT_EQ(h.totals().level_hits[0], 1u);
}

TEST(HierarchyTest, L2CatchesL1Evictions) {
  CacheHierarchy h(two_level());
  // Touch 8 distinct lines (L1 holds 4, L2 holds 16), then re-touch the
  // first: it must hit L2, not memory.
  for (std::uint64_t line = 0; line < 8; ++line) h.access(load(line * 64));
  h.access(load(0));
  EXPECT_EQ(h.totals().level_hits[1], 1u);
  EXPECT_EQ(h.totals().memory_accesses, 8u);
}

TEST(HierarchyTest, CumulativeHitRatesAreMonotone) {
  CacheHierarchy h(two_level());
  for (std::uint64_t i = 0; i < 400; ++i) h.access(load((i % 10) * 64));
  const AccessCounters& t = h.totals();
  const double hr1 = t.cumulative_hit_rate(0);
  const double hr2 = t.cumulative_hit_rate(1);
  EXPECT_LE(hr1, hr2);
  EXPECT_GT(hr2, 0.9);  // 10 lines fit in L2 entirely
}

TEST(HierarchyTest, LoadsStoresBytesCounted) {
  CacheHierarchy h(two_level());
  h.access(load(0, 8));
  h.access(store(64, 16));
  EXPECT_EQ(h.totals().refs, 2u);
  EXPECT_EQ(h.totals().loads, 1u);
  EXPECT_EQ(h.totals().stores, 1u);
  EXPECT_EQ(h.totals().bytes, 24u);
}

TEST(HierarchyTest, StraddlingRefTouchesTwoLines) {
  CacheHierarchy h(two_level());
  h.access(load(60, 8));  // crosses the line boundary at 64
  EXPECT_EQ(h.totals().line_accesses, 2u);
  EXPECT_EQ(h.totals().refs, 1u);
}

TEST(HierarchyTest, ScopesAccumulateIndependently) {
  CacheHierarchy h(two_level());
  h.set_scope(1);
  h.access(load(0));
  h.access(load(0));
  h.set_scope(2);
  h.access(load(0));
  EXPECT_EQ(h.scope(1).refs, 2u);
  EXPECT_EQ(h.scope(2).refs, 1u);
  EXPECT_EQ(h.scope(2).level_hits[0], 1u);  // warmed by scope 1
  EXPECT_EQ(h.totals().refs, 3u);
}

TEST(HierarchyTest, UnknownScopeIsZeroed) {
  CacheHierarchy h(two_level());
  EXPECT_EQ(h.scope(42).refs, 0u);
}

TEST(HierarchyTest, ResetClearsEverything) {
  CacheHierarchy h(two_level());
  h.set_scope(1);
  h.access(load(0));
  h.reset();
  EXPECT_EQ(h.totals().refs, 0u);
  EXPECT_EQ(h.scope(1).refs, 0u);
  h.access(load(0));
  EXPECT_EQ(h.totals().memory_accesses, 1u);  // cache contents gone too
}

TEST(HierarchyTest, ZeroSizeRefThrows) {
  CacheHierarchy h(two_level());
  EXPECT_THROW(h.access(load(0, 0)), util::Error);
}

TEST(HierarchyTest, CountersMerge) {
  AccessCounters a, b;
  a.refs = 1;
  a.level_hits[0] = 1;
  a.line_accesses = 2;
  b.refs = 2;
  b.level_hits[1] = 3;
  b.line_accesses = 4;
  b.memory_accesses = 1;
  a.merge(b);
  EXPECT_EQ(a.refs, 3u);
  EXPECT_EQ(a.level_hits[0], 1u);
  EXPECT_EQ(a.level_hits[1], 3u);
  EXPECT_EQ(a.line_accesses, 6u);
  EXPECT_EQ(a.memory_accesses, 1u);
}

TEST(HierarchyTest, HitRateOfEmptyCountersIsZero) {
  AccessCounters c;
  EXPECT_DOUBLE_EQ(c.cumulative_hit_rate(0), 0.0);
  EXPECT_THROW(c.cumulative_hit_rate(99), util::Error);
}

}  // namespace
}  // namespace pmacx
