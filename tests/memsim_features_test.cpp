// Tests for the hierarchy's optional hardware features: the stride
// prefetcher, the TLB, and write-back accounting.
#include <gtest/gtest.h>

#include "machine/targets.hpp"
#include "machine/timing.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/ref_block.hpp"
#include "reference_sim.hpp"
#include "synth/patterns.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"

namespace pmacx {
namespace {

using memsim::CacheHierarchy;
using memsim::CacheLevelConfig;
using memsim::HierarchyConfig;
using memsim::MemRef;

HierarchyConfig small_hierarchy() {
  CacheLevelConfig l1;
  l1.name = "L1";
  l1.size_bytes = 64 * 64;  // 64 lines
  l1.line_bytes = 64;
  l1.associativity = 4;
  CacheLevelConfig l2 = l1;
  l2.name = "L2";
  l2.size_bytes = 1024 * 64;  // 1024 lines
  HierarchyConfig cfg;
  cfg.name = "features-test";
  cfg.levels = {l1, l2};
  return cfg;
}

MemRef load(std::uint64_t addr) { return {addr, 8, false}; }
MemRef store(std::uint64_t addr) { return {addr, 8, true}; }

/// Streams `count` refs of a pattern over `footprint` through `hierarchy`.
void stream_refs(CacheHierarchy& hierarchy, synth::Pattern pattern,
                 std::uint64_t footprint, std::size_t count, double store_fraction = 0.0) {
  synth::StreamSpec spec;
  spec.pattern = pattern;
  spec.base_addr = 1 << 24;
  spec.footprint_bytes = footprint;
  spec.elem_bytes = 8;
  spec.store_fraction = store_fraction;
  synth::RefStream stream(spec, 7);
  for (std::size_t i = 0; i < count; ++i) hierarchy.access(stream.next());
}

// ------------------------------------------------------------- prefetch ----

TEST(PrefetchTest, SequentialStreamGainsL1Hits) {
  HierarchyConfig off = small_hierarchy();
  HierarchyConfig on = small_hierarchy();
  on.prefetch.enabled = true;

  CacheHierarchy base(off), prefetched(on);
  // Footprint far beyond L1: the demand-fetch L1 hit rate is capped at the
  // 7/8 spatial-locality bound; the stride prefetcher must beat it.
  stream_refs(base, synth::Pattern::Sequential, 1 << 20, 100'000);
  stream_refs(prefetched, synth::Pattern::Sequential, 1 << 20, 100'000);

  const double without = base.totals().cumulative_hit_rate(0);
  const double with = prefetched.totals().cumulative_hit_rate(0);
  EXPECT_GT(with, without + 0.05);
  EXPECT_GT(prefetched.prefetches_issued(), 1000u);
}

TEST(PrefetchTest, RandomStreamBarelyTriggers) {
  HierarchyConfig on = small_hierarchy();
  on.prefetch.enabled = true;
  CacheHierarchy hierarchy(on);
  stream_refs(hierarchy, synth::Pattern::Random, 16 << 20, 50'000);
  // Random misses rarely form strides; prefetch volume stays low relative
  // to the ~50k misses.
  EXPECT_LT(hierarchy.prefetches_issued(), 10'000u);
}

TEST(PrefetchTest, DisabledIssuesNothing) {
  CacheHierarchy hierarchy(small_hierarchy());
  stream_refs(hierarchy, synth::Pattern::Sequential, 1 << 20, 50'000);
  EXPECT_EQ(hierarchy.prefetches_issued(), 0u);
}

TEST(PrefetchTest, Deterministic) {
  HierarchyConfig on = small_hierarchy();
  on.prefetch.enabled = true;
  CacheHierarchy a(on), b(on);
  stream_refs(a, synth::Pattern::Strided, 1 << 20, 30'000);
  stream_refs(b, synth::Pattern::Strided, 1 << 20, 30'000);
  EXPECT_EQ(a.prefetches_issued(), b.prefetches_issued());
  EXPECT_EQ(a.totals().level_hits[0], b.totals().level_hits[0]);
}

TEST(PrefetchTest, ConfigValidation) {
  HierarchyConfig cfg = small_hierarchy();
  cfg.prefetch.enabled = true;
  cfg.prefetch.degree = 0;
  EXPECT_THROW(cfg.validate(), util::Error);
  cfg = small_hierarchy();
  cfg.prefetch.enabled = true;
  cfg.prefetch.install_level = 7;
  EXPECT_THROW(cfg.validate(), util::Error);
}

// ------------------------------------------------------------------ tlb ----

TEST(TlbTest, SmallFootprintMostlyHits) {
  HierarchyConfig cfg = small_hierarchy();
  cfg.tlb.enabled = true;  // 64 entries × 4 KB = 256 KB reach
  CacheHierarchy hierarchy(cfg);
  stream_refs(hierarchy, synth::Pattern::Sequential, 128 << 10, 100'000);
  // 32 pages of compulsory misses, everything else hits.
  EXPECT_LE(hierarchy.totals().tlb_misses, 40u);
}

TEST(TlbTest, FootprintBeyondReachThrashes) {
  HierarchyConfig cfg = small_hierarchy();
  cfg.tlb.enabled = true;
  CacheHierarchy hierarchy(cfg);
  // 16 MB random: nearly every ref touches a cold page mapping.
  stream_refs(hierarchy, synth::Pattern::Random, 16 << 20, 50'000);
  EXPECT_GT(hierarchy.totals().tlb_misses, 40'000u);
}

TEST(TlbTest, DisabledCountsNothing) {
  CacheHierarchy hierarchy(small_hierarchy());
  stream_refs(hierarchy, synth::Pattern::Random, 16 << 20, 10'000);
  EXPECT_EQ(hierarchy.totals().tlb_misses, 0u);
}

TEST(TlbTest, MissesChargedByTimingModel) {
  HierarchyConfig cfg = machine::bluewaters_p1().hierarchy;
  cfg.tlb.enabled = true;
  cfg.tlb.miss_cycles = 100;
  const machine::MemTimingModel timing(cfg, 2.0);
  memsim::AccessCounters counters;
  counters.tlb_misses = 1'000'000;
  EXPECT_NEAR(timing.seconds_for(counters), 1e6 * 100 / 2e9, 1e-12);
}

TEST(TlbTest, ConfigValidation) {
  HierarchyConfig cfg = small_hierarchy();
  cfg.tlb.enabled = true;
  cfg.tlb.page_bytes = 3000;  // not a power of two
  EXPECT_THROW(cfg.validate(), util::Error);
  cfg = small_hierarchy();
  cfg.tlb.enabled = true;
  cfg.tlb.entries = 0;
  EXPECT_THROW(cfg.validate(), util::Error);
}

TEST(TlbTest, PerScopeAccounting) {
  HierarchyConfig cfg = small_hierarchy();
  cfg.tlb.enabled = true;
  CacheHierarchy hierarchy(cfg);
  hierarchy.set_scope(1);
  hierarchy.access(load(0));
  hierarchy.set_scope(2);
  hierarchy.access(load(1 << 22));  // new page
  EXPECT_EQ(hierarchy.scope(1).tlb_misses, 1u);
  EXPECT_EQ(hierarchy.scope(2).tlb_misses, 1u);
}

// ------------------------------------------------------------ inclusive ----

/// L1: 4 lines fully associative.  L2: 8 lines, 2-way (4 sets) — lines
/// 0, 4, 8 conflict in L2 set 0, so a third conflicting access evicts one
/// from L2 while it still sits comfortably in L1.
HierarchyConfig conflict_hierarchy(bool inclusive) {
  CacheLevelConfig l1;
  l1.name = "L1";
  l1.size_bytes = 4 * 64;
  l1.line_bytes = 64;
  l1.associativity = 0;
  CacheLevelConfig l2 = l1;
  l2.name = "L2";
  l2.size_bytes = 8 * 64;
  l2.associativity = 2;
  HierarchyConfig cfg;
  cfg.name = inclusive ? "inclusive" : "non-inclusive";
  cfg.levels = {l1, l2};
  cfg.inclusive = inclusive;
  return cfg;
}

TEST(InclusiveTest, BackInvalidationEvictsFromL1) {
  CacheHierarchy h(conflict_hierarchy(true));
  h.access(load(0 * 64));   // L2 set 0: [0]
  h.access(load(4 * 64));   // L2 set 0: [0, 4]
  h.access(load(8 * 64));   // L2 evicts 0 → back-invalidates it from L1
  const auto before = h.totals().level_hits[0];
  h.access(load(0 * 64));   // must NOT hit L1 (it was back-invalidated)
  EXPECT_EQ(h.totals().level_hits[0], before);
}

TEST(InclusiveTest, NonInclusiveKeepsL1Copy) {
  CacheHierarchy h(conflict_hierarchy(false));
  h.access(load(0 * 64));
  h.access(load(4 * 64));
  h.access(load(8 * 64));   // L2 evicts 0, but L1 keeps it
  const auto before = h.totals().level_hits[0];
  h.access(load(0 * 64));   // hits L1
  EXPECT_EQ(h.totals().level_hits[0], before + 1);
}

TEST(InclusiveTest, HitRatesNeverImproveWithInclusion) {
  // Inclusion can only remove lines from upper levels, so the cumulative
  // L1 hit rate with inclusion is bounded by the non-inclusive one.
  for (auto pattern : {synth::Pattern::Sequential, synth::Pattern::Random,
                       synth::Pattern::Gather}) {
    CacheHierarchy inclusive(conflict_hierarchy(true));
    CacheHierarchy baseline(conflict_hierarchy(false));
    stream_refs(inclusive, pattern, 1 << 14, 20'000);
    stream_refs(baseline, pattern, 1 << 14, 20'000);
    EXPECT_LE(inclusive.totals().cumulative_hit_rate(0),
              baseline.totals().cumulative_hit_rate(0) + 1e-12)
        << synth::pattern_name(pattern);
  }
}

TEST(InclusiveTest, EvictionOutcomeReported) {
  memsim::CacheLevel cache(conflict_hierarchy(false).levels[1], 1);
  cache.access(0, false);
  cache.access(4, false);
  const auto outcome = cache.access(8, true);  // evicts 0 or 4 from set 0
  EXPECT_FALSE(outcome.hit);
  EXPECT_TRUE(outcome.evicted);
  EXPECT_TRUE(outcome.evicted_line == 0 || outcome.evicted_line == 4);
  EXPECT_TRUE(cache.invalidate(8));
  EXPECT_FALSE(cache.invalidate(8));  // second invalidate finds nothing
}

// ------------------------------------------------------------ writeback ----

TEST(WritebackTest, ReadOnlyStreamWritesNothingBack) {
  CacheHierarchy hierarchy(small_hierarchy());
  stream_refs(hierarchy, synth::Pattern::Sequential, 1 << 20, 100'000, 0.0);
  EXPECT_EQ(hierarchy.totals().writebacks, 0u);
}

TEST(WritebackTest, StoreStreamBeyondCapacityWritesBack) {
  CacheHierarchy hierarchy(small_hierarchy());
  // All-store sweep far beyond L2 capacity: dirty lines must be evicted.
  stream_refs(hierarchy, synth::Pattern::Sequential, 16 << 20, 200'000, 1.0);
  EXPECT_GT(hierarchy.totals().writebacks, 10'000u);
}

TEST(WritebackTest, StoreHitMarksDirty) {
  CacheHierarchy hierarchy(small_hierarchy());
  hierarchy.access(load(0));   // install clean
  hierarchy.access(store(0));  // dirty on hit
  // Evict line 0 from both levels by sweeping stores over disjoint lines
  // that map to the same sets eventually.
  stream_refs(hierarchy, synth::Pattern::Sequential, 16 << 20, 300'000, 0.0);
  EXPECT_GE(hierarchy.totals().writebacks, 1u);
}

TEST(WritebackTest, ResetClearsFeatureState) {
  HierarchyConfig cfg = small_hierarchy();
  cfg.prefetch.enabled = true;
  cfg.tlb.enabled = true;
  CacheHierarchy hierarchy(cfg);
  stream_refs(hierarchy, synth::Pattern::Sequential, 1 << 20, 50'000, 0.5);
  hierarchy.reset();
  EXPECT_EQ(hierarchy.prefetches_issued(), 0u);
  EXPECT_EQ(hierarchy.totals().tlb_misses, 0u);
  EXPECT_EQ(hierarchy.totals().writebacks, 0u);
}

// ------------------------------------------------------------- sampling ----

class SamplingTest : public ::testing::TestWithParam<synth::Pattern> {};

TEST_P(SamplingTest, SampledHitRatesMatchFullSimulation) {
  HierarchyConfig full_cfg = small_hierarchy();
  HierarchyConfig sampled_cfg = small_hierarchy();
  sampled_cfg.sample_shift = 3;  // 1/8 of lines

  CacheHierarchy full(full_cfg), sampled(sampled_cfg);
  stream_refs(full, GetParam(), 1 << 20, 200'000);
  stream_refs(sampled, GetParam(), 1 << 20, 200'000);

  for (std::size_t lvl = 0; lvl < 2; ++lvl) {
    EXPECT_NEAR(sampled.totals().cumulative_hit_rate(lvl),
                full.totals().cumulative_hit_rate(lvl), 0.03)
        << synth::pattern_name(GetParam()) << " level " << lvl;
  }
  // The sample really is ~1/8 of the line accesses.
  EXPECT_NEAR(static_cast<double>(sampled.totals().line_accesses),
              full.totals().line_accesses / 8.0,
              0.25 * full.totals().line_accesses / 8.0);
  // Logical reference counts stay complete regardless of sampling.
  EXPECT_EQ(sampled.totals().refs, full.totals().refs);
}

INSTANTIATE_TEST_SUITE_P(Patterns, SamplingTest,
                         ::testing::Values(synth::Pattern::Sequential,
                                           synth::Pattern::Random,
                                           synth::Pattern::Stencil3d),
                         [](const auto& info) { return synth::pattern_name(info.param); });

TEST(SamplingTest, RejectsAbsurdShift) {
  HierarchyConfig cfg = small_hierarchy();
  cfg.sample_shift = 20;
  EXPECT_THROW(cfg.validate(), util::Error);
}

TEST(WritebackTest, CountersMergeNewFields) {
  memsim::AccessCounters a, b;
  a.tlb_misses = 3;
  a.writebacks = 5;
  b.tlb_misses = 7;
  b.writebacks = 11;
  a.merge(b);
  EXPECT_EQ(a.tlb_misses, 10u);
  EXPECT_EQ(a.writebacks, 16u);
}

// ------------------------------------------------- pre-refactor reference ----

// bench/reference_sim.hpp keeps the pre-refactor AoS simulator as the perf
// gate's "old" side.  These tests pin it counter-identical to the real
// simulator on real machine targets, so the gate's reference cannot rot
// into measuring something other than the replaced implementation.
void expect_reference_identical(const machine::TargetSystem& target,
                                synth::Pattern pattern, std::size_t count) {
  memsim::CacheHierarchy hierarchy(target.hierarchy);
  bench::ReferenceHierarchy reference(target.hierarchy);

  synth::StreamSpec spec;
  spec.pattern = pattern;
  spec.base_addr = 1 << 24;
  spec.footprint_bytes = 1 << 22;
  spec.elem_bytes = 8;
  spec.stride_elems = 5;
  spec.store_fraction = 0.3;
  synth::RefStream a(spec, 31), b(spec, 31);
  for (std::size_t i = 0; i < count; ++i) {
    hierarchy.access(a.next());
    reference.access(b.next());
  }

  const memsim::AccessCounters& got = hierarchy.totals();
  const memsim::AccessCounters& want = reference.totals();
  EXPECT_EQ(got.refs, want.refs);
  EXPECT_EQ(got.line_accesses, want.line_accesses);
  EXPECT_EQ(got.memory_accesses, want.memory_accesses);
  EXPECT_EQ(got.writebacks, want.writebacks);
  for (std::size_t lvl = 0; lvl < target.hierarchy.levels.size(); ++lvl)
    EXPECT_EQ(got.level_hits[lvl], want.level_hits[lvl])
        << "level " << lvl << " pattern " << static_cast<int>(pattern);
}

TEST(ReferenceSimTest, CountersIdenticalOnRealTargets) {
  for (const synth::Pattern pattern :
       {synth::Pattern::Sequential, synth::Pattern::Random,
        synth::Pattern::Strided, synth::Pattern::Stencil3d}) {
    expect_reference_identical(machine::bluewaters_p1(), pattern, 60'000);
    expect_reference_identical(machine::xt5_base(), pattern, 60'000);
  }
}

TEST(ReferenceSimTest, BlockReplayMatchesReferencePerRefWalk) {
  // The gate benchmarks time access_block against the reference's per-ref
  // walk; assert that exact pairing stays counter-identical, ragged tail
  // included.  The sequential stream puts eight references on each line,
  // so access_block folds seven of every eight probes into L1 hits; its
  // footprint, 1.5× the L1, makes every pass evict dirty L1 lines.
  const machine::TargetSystem target = machine::xt5_base();
  for (const synth::Pattern pattern : {synth::Pattern::Random, synth::Pattern::Sequential}) {
    SCOPED_TRACE(synth::pattern_name(pattern));
    memsim::CacheHierarchy hierarchy(target.hierarchy);
    bench::ReferenceHierarchy reference(target.hierarchy);

    synth::StreamSpec spec;
    spec.pattern = pattern;
    spec.base_addr = 1 << 24;
    spec.footprint_bytes = pattern == synth::Pattern::Random ? 1 << 22 : 96 << 10;
    spec.elem_bytes = 8;
    spec.store_fraction = 0.25;
    synth::RefStream a(spec, 13), b(spec, 13);

    util::Arena arena;
    memsim::RefBlockBuilder builder(arena, 701);
    std::size_t remaining = 40'000;
    while (remaining > 0) {
      builder.clear();
      while (remaining > 0 && !builder.full()) {
        const memsim::MemRef ref = a.next();
        builder.push(ref.addr, ref.size, ref.is_store);
        reference.access(b.next());
        --remaining;
      }
      hierarchy.access_block(builder.block());
    }

    const memsim::AccessCounters& got = hierarchy.totals();
    const memsim::AccessCounters& want = reference.totals();
    EXPECT_EQ(got.line_accesses, want.line_accesses);
    EXPECT_EQ(got.memory_accesses, want.memory_accesses);
    EXPECT_EQ(got.writebacks, want.writebacks);
    for (std::size_t lvl = 0; lvl < target.hierarchy.levels.size(); ++lvl)
      EXPECT_EQ(got.level_hits[lvl], want.level_hits[lvl]) << "level " << lvl;
  }
}

}  // namespace
}  // namespace pmacx
