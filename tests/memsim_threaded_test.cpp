// Tests for the hierarchy's simulated threads (hybrid MPI/OpenMP tracing):
// private-level isolation, shared-level contention, aggregation, and
// equivalence with the plain hierarchy in the 1-thread case.
#include <gtest/gtest.h>

#include "memsim/hierarchy.hpp"
#include "synth/patterns.hpp"
#include "util/error.hpp"

namespace pmacx {
namespace {

using memsim::CacheHierarchy;
using memsim::CacheLevelConfig;
using memsim::HierarchyConfig;
using memsim::MemRef;

HierarchyConfig two_level(std::uint64_t l1_lines = 16, std::uint64_t l2_lines = 128) {
  CacheLevelConfig l1;
  l1.name = "L1";
  l1.size_bytes = l1_lines * 64;
  l1.line_bytes = 64;
  l1.associativity = 0;
  CacheLevelConfig l2 = l1;
  l2.name = "L2";
  l2.size_bytes = l2_lines * 64;
  HierarchyConfig cfg;
  cfg.name = "threaded-test";
  cfg.levels = {l1, l2};
  return cfg;
}

MemRef load(std::uint64_t addr) { return {addr, 8, false}; }

TEST(ThreadedTest, PrivateLevelsAreIsolated) {
  // Private L1 (16 lines), shared L2.  Thread 1 sweeps a large region;
  // thread 0's small working set must stay in ITS OWN L1.
  CacheHierarchy h(two_level(), 2, /*shared_from=*/1);
  for (std::uint64_t line = 0; line < 8; ++line) h.access(load(line * 64), 0);
  for (std::uint64_t line = 100; line < 200; ++line) h.access(load(line * 64), 1);
  const auto before = h.totals().level_hits[0];
  for (std::uint64_t line = 0; line < 8; ++line) h.access(load(line * 64), 0);
  EXPECT_EQ(h.totals().level_hits[0], before + 8);  // all L1 hits
}

TEST(ThreadedTest, SharedLevelShowsContention) {
  // Two threads each touching 96 lines: together they exceed the shared
  // 128-line L2; alone one thread fits.  Shared-mode L2 hit rate must be
  // strictly worse than a single thread's.
  auto run = [](std::uint32_t threads) {
    CacheHierarchy h(two_level(), threads, 1);
    for (int pass = 0; pass < 4; ++pass)
      for (std::uint64_t line = 0; line < 96; ++line)
        for (std::uint32_t t = 0; t < threads; ++t)
          h.access(load((t * 4096 + line) * 64), t);
    return h.totals().cumulative_hit_rate(1);
  };
  EXPECT_GT(run(1), run(2) + 0.05);
}

TEST(ThreadedTest, SingleThreadMatchesScalarHierarchy) {
  // Plain and inclusive (a 4-way L2 back-invalidating the L1) hierarchies.
  HierarchyConfig inclusive = two_level(16, 64);
  inclusive.levels[1].associativity = 4;
  inclusive.inclusive = true;
  for (const HierarchyConfig& cfg : {two_level(), inclusive}) {
    CacheHierarchy threaded(cfg, 1, 1);
    CacheHierarchy scalar(cfg);
    synth::StreamSpec spec;
    spec.pattern = synth::Pattern::Gather;
    spec.base_addr = 0;
    spec.footprint_bytes = 1 << 16;
    spec.elem_bytes = 8;
    synth::RefStream a(spec, 5), b(spec, 5);
    for (int i = 0; i < 50'000; ++i) {
      threaded.access(a.next(), 0);
      scalar.access(b.next());
    }
    for (std::size_t lvl = 0; lvl < 2; ++lvl)
      EXPECT_NEAR(threaded.totals().cumulative_hit_rate(lvl),
                  scalar.totals().cumulative_hit_rate(lvl), 1e-12)
          << "inclusive " << cfg.inclusive << " level " << lvl;
  }
}

TEST(ThreadedTest, ScopesAggregateAcrossThreads) {
  CacheHierarchy h(two_level(), 2, 1);
  h.set_scope(7);
  h.access(load(0), 0);
  h.access(load(64), 1);
  EXPECT_EQ(h.scope(7).refs, 2u);
  EXPECT_EQ(h.totals().refs, 2u);
  EXPECT_EQ(h.scope(99).refs, 0u);
}

TEST(ThreadedTest, ShareEverythingAndShareNothingExtremes) {
  EXPECT_NO_THROW(CacheHierarchy(two_level(), 4, 0));  // all levels shared
  EXPECT_NO_THROW(CacheHierarchy(two_level(), 4, 2));  // all private
  // All-shared with one thread still behaves.
  CacheHierarchy h(two_level(), 1, 0);
  h.access(load(0), 0);
  EXPECT_EQ(h.totals().memory_accesses, 1u);
}

TEST(ThreadedTest, Validation) {
  EXPECT_THROW(CacheHierarchy(two_level(), 0, 1), util::Error);
  EXPECT_THROW(CacheHierarchy(two_level(), 2, 5), util::Error);
  CacheHierarchy h(two_level(), 2, 1);
  EXPECT_THROW(h.access(load(0), 7), util::Error);
  EXPECT_THROW(h.access(MemRef{0, 0, false}, 0), util::Error);  // zero-size ref
  HierarchyConfig with_prefetch = two_level();
  with_prefetch.prefetch.enabled = true;
  EXPECT_THROW(CacheHierarchy(with_prefetch, 2, 1), util::Error);
  // Threads never back-invalidate, so an inclusive hybrid rank is rejected
  // instead of silently simulated as non-inclusive.
  HierarchyConfig inclusive = two_level();
  inclusive.inclusive = true;
  EXPECT_THROW(CacheHierarchy(inclusive, 2, 1), util::Error);
  EXPECT_NO_THROW(CacheHierarchy(inclusive, 1, 1));
}

}  // namespace
}  // namespace pmacx
