// Whole-workload scalar-vs-AVX2 byte identity.  The SIMD layer's contract
// (util/simd.hpp) is that dispatch level never changes a single output bit;
// these tests pin the level with force_level and drive the two public
// pipelines that use the kernels — trace extrapolation and cache
// simulation — end to end at both levels.  The release-noavx2 CI leg runs
// the same suite with the AVX2 paths compiled out, where the AVX2 halves
// skip and the scalar halves still pass.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/extrapolator.hpp"
#include "machine/targets.hpp"
#include "memsim/ref_block.hpp"
#include "synth/replay.hpp"
#include "trace/binary_io.hpp"
#include "trace/task_trace.hpp"
#include "util/arena.hpp"
#include "util/simd.hpp"
#include "util/threadpool.hpp"

namespace pmacx {
namespace {

using trace::BasicBlockRecord;
using trace::BlockElement;
using trace::InstrElement;
using trace::InstructionRecord;
using trace::TaskTrace;
using util::simd::Level;

/// Pins the dispatch level for one scope and always restores resolution.
class ForcedLevel {
 public:
  explicit ForcedLevel(Level level) { util::simd::force_level(level); }
  ~ForcedLevel() { util::simd::clear_forced_level(); }
};

/// A multi-block trace at `cores` with element series engineered to hit
/// every canonical form and fallback path (zeros, negatives, decays).
TaskTrace identity_trace(std::uint32_t cores, std::size_t block_count) {
  TaskTrace task;
  task.app = "simd-identity";
  task.rank = 0;
  task.core_count = cores;
  task.target_system = "test";
  const double p = static_cast<double>(cores);
  for (std::size_t b = 0; b < block_count; ++b) {
    BasicBlockRecord block;
    block.id = 100 + b;
    block.location = {"kern.c", static_cast<std::uint32_t>(b + 1), "kern"};
    // Different scaling shape per block so batches mix forms.
    switch (b % 5) {
      case 0: block.set(BlockElement::VisitCount, 50.0 + 2.0 * p); break;
      case 1: block.set(BlockElement::VisitCount, 10.0 * std::log(p)); break;
      case 2: block.set(BlockElement::VisitCount, 3.0 * std::pow(p, 1.3)); break;
      case 3: block.set(BlockElement::VisitCount, 1e6 / p); break;
      case 4: block.set(BlockElement::VisitCount, p > 20 ? 0.0 : 7.0); break;
    }
    block.set(BlockElement::MemLoads, 8.0e6 / p);
    block.set(BlockElement::MemStores, 4.0e6 / p + static_cast<double>(b));
    block.set(BlockElement::BytesPerRef, 8.0);
    block.set(BlockElement::HitRateL1, 0.90);
    block.set(BlockElement::HitRateL2, 0.95);
    block.set(BlockElement::HitRateL3, 0.99);
    InstructionRecord instr;
    instr.index = 1;
    instr.set(InstrElement::ExecCount, 100.0 * p);
    instr.set(InstrElement::MemOps, 75.0);
    instr.set(InstrElement::HitRateL1, 0.5);
    instr.set(InstrElement::HitRateL2, 0.6);
    instr.set(InstrElement::HitRateL3, 0.7);
    block.instructions.push_back(instr);
    task.blocks.push_back(block);
  }
  task.sort_blocks();
  return task;
}

std::vector<TaskTrace> identity_series() {
  std::vector<TaskTrace> series;
  for (std::uint32_t p : {8u, 16u, 32u, 64u}) series.push_back(identity_trace(p, 40));
  return series;
}

/// The full extrapolation output, serialized: trace bytes plus the scores
/// and candidates digest via the model set's golden evaluation.
std::string extrapolation_bytes(const std::vector<TaskTrace>& series,
                                const core::ExtrapolationOptions& options) {
  const auto result = core::extrapolate_task(series, 512, options);
  return trace::to_binary(result.trace);
}

TEST(SimdIdentityTest, ExtrapolationBytesIdenticalAcrossLevels) {
  const auto series = identity_series();
  core::ExtrapolationOptions options;
  std::string scalar_bytes;
  {
    ForcedLevel forced(Level::Scalar);
    scalar_bytes = extrapolation_bytes(series, options);
  }
  if (!util::simd::avx2_available()) GTEST_SKIP() << "AVX2 not available";
  ForcedLevel forced(Level::Avx2);
  EXPECT_EQ(extrapolation_bytes(series, options), scalar_bytes);
}

TEST(SimdIdentityTest, ExtrapolationBytesIdenticalAcrossLevelsThreaded) {
  const auto series = identity_series();
  util::ThreadPool pool(4);
  core::ExtrapolationOptions options;
  options.pool = &pool;
  std::string scalar_bytes;
  {
    ForcedLevel forced(Level::Scalar);
    scalar_bytes = extrapolation_bytes(series, options);
  }
  if (!util::simd::avx2_available()) GTEST_SKIP() << "AVX2 not available";
  ForcedLevel forced(Level::Avx2);
  EXPECT_EQ(extrapolation_bytes(series, options), scalar_bytes);
}

TEST(SimdIdentityTest, FittedModelSetIdenticalAcrossLevels) {
  const auto series = identity_series();
  std::string scalar_bytes;
  {
    ForcedLevel forced(Level::Scalar);
    const auto models = core::fit_task_models(series);
    scalar_bytes = trace::to_binary(core::extrapolate_from_models(models, 2048).trace);
  }
  if (!util::simd::avx2_available()) GTEST_SKIP() << "AVX2 not available";
  ForcedLevel forced(Level::Avx2);
  const auto models = core::fit_task_models(series);
  EXPECT_EQ(trace::to_binary(core::extrapolate_from_models(models, 2048).trace),
            scalar_bytes);
}

// -------------------------------------------------------------- cache sim ----

/// Per-thread streams of one kernel, built by synth::kernel_streams.
std::vector<synth::RefStream> identity_streams(synth::Pattern pattern, std::uint64_t block_id,
                                               std::uint32_t threads) {
  synth::KernelSpec kernel;
  kernel.block_id = block_id;
  kernel.pattern = pattern;
  kernel.footprint_bytes = 1u << 20;
  kernel.elem_bytes = 8;
  kernel.stride_elems = 3;
  kernel.store_fraction = 0.25;
  return synth::kernel_streams(kernel, threads, 64, 4000);
}

/// A rank's hierarchy: `threads` threads with private levels above a shared
/// last level (a no-op split at one thread).
memsim::CacheHierarchy identity_hierarchy(const memsim::HierarchyConfig& config,
                                          std::uint32_t threads) {
  return memsim::CacheHierarchy(config, threads, config.levels.size() - 1);
}

/// Totals of four ranks' kernels replayed through synth::replay, each on its
/// own hierarchy, with the stream split over four instruction scopes.
std::vector<memsim::AccessCounters> replay_counters(const memsim::HierarchyConfig& config,
                                                    synth::Pattern pattern,
                                                    std::uint32_t threads) {
  std::vector<memsim::AccessCounters> totals;
  for (std::uint64_t rank = 0; rank < 4; ++rank) {
    memsim::CacheHierarchy sim = identity_hierarchy(config, threads);
    std::vector<synth::RefStream> streams = identity_streams(pattern, rank + 1, threads);
    synth::replay(sim, streams, 30'000, /*first_scope=*/1, /*scopes=*/4);
    totals.push_back(sim.totals());
  }
  return totals;
}

void expect_identical(const memsim::AccessCounters& a, const memsim::AccessCounters& b) {
  EXPECT_EQ(a.refs, b.refs);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.line_accesses, b.line_accesses);
  for (std::size_t lvl = 0; lvl < memsim::kMaxLevels; ++lvl)
    EXPECT_EQ(a.level_hits[lvl], b.level_hits[lvl]);
  EXPECT_EQ(a.memory_accesses, b.memory_accesses);
  EXPECT_EQ(a.tlb_misses, b.tlb_misses);
  EXPECT_EQ(a.writebacks, b.writebacks);
}

TEST(SimdIdentityTest, CacheReplayCountersIdenticalAcrossLevels) {
  // Hierarchies capture their find_tag kernel at construction, so the level
  // must be pinned before replay_counters constructs them.  One thread takes
  // the grouped block path, four (hybrid) the per-reference walk.
  const memsim::HierarchyConfig config = machine::bluewaters_p1().hierarchy;
  for (const std::uint32_t threads : {1u, 4u}) {
    for (const synth::Pattern pattern :
         {synth::Pattern::Sequential, synth::Pattern::Random, synth::Pattern::Strided}) {
      std::vector<memsim::AccessCounters> scalar_replay;
      {
        ForcedLevel forced(Level::Scalar);
        scalar_replay = replay_counters(config, pattern, threads);
      }
      if (!util::simd::avx2_available()) GTEST_SKIP() << "AVX2 not available";
      ForcedLevel forced(Level::Avx2);
      const auto avx2_replay = replay_counters(config, pattern, threads);
      ASSERT_EQ(scalar_replay.size(), avx2_replay.size());
      for (std::size_t r = 0; r < scalar_replay.size(); ++r)
        expect_identical(scalar_replay[r], avx2_replay[r]);
    }
  }
}

TEST(SimdIdentityTest, AccessBlockMatchesPerRefAccess) {
  const memsim::HierarchyConfig config = machine::bluewaters_p1().hierarchy;
  // A block size that leaves a ragged tail on the final refill, and a scope
  // switch on a block boundary mid-stream.
  constexpr std::size_t kBlockRefs = 1013;
  constexpr std::size_t kRefs = 50'000;
  constexpr std::size_t kSwitchAt = 20 * kBlockRefs;
  for (const std::uint32_t threads : {1u, 4u}) {
    std::vector<synth::RefStream> streams_a =
        identity_streams(synth::Pattern::Strided, 1, threads);
    std::vector<synth::RefStream> streams_b =
        identity_streams(synth::Pattern::Strided, 1, threads);

    memsim::CacheHierarchy one_at_a_time = identity_hierarchy(config, threads);
    for (std::size_t i = 0; i < kRefs; ++i) {
      if (i == 0 || i == kSwitchAt) one_at_a_time.set_scope(i == 0 ? 7 : 8);
      const auto thread = static_cast<std::uint32_t>(i % threads);
      one_at_a_time.access(streams_a[thread].next(), thread);
    }

    memsim::CacheHierarchy blocked = identity_hierarchy(config, threads);
    util::Arena arena;
    memsim::RefBlockBuilder builder(arena, kBlockRefs);
    std::size_t i = 0;
    while (i < kRefs) {
      blocked.set_scope(i < kSwitchAt ? 7 : 8);
      builder.clear();
      for (; i < kRefs && !builder.full(); ++i) {
        const auto thread = static_cast<std::uint32_t>(i % threads);
        const memsim::MemRef ref = streams_b[thread].next();
        builder.push(ref.addr, ref.size, ref.is_store, thread);
      }
      blocked.access_block(builder.block());
    }

    expect_identical(one_at_a_time.totals(), blocked.totals());
    expect_identical(one_at_a_time.scope(7), blocked.scope(7));
    expect_identical(one_at_a_time.scope(8), blocked.scope(8));
    EXPECT_EQ(blocked.scope(8).refs, kRefs - kSwitchAt);
  }
}

TEST(SimdIdentityTest, ReplayMatchesPerRefWalk) {
  // synth::replay fills each block with one call per stream and, for a
  // hybrid rank, interleaves the threads' shares round robin.  A walk that
  // issues reference i from stream i % threads, one access() at a time,
  // into scope first + (i · scopes) / refs must leave identical counters.
  // Three threads put block boundaries at every thread offset.
  const memsim::HierarchyConfig config = machine::bluewaters_p1().hierarchy;
  constexpr std::uint64_t kRefs = 20'011;
  constexpr std::uint64_t kFirstScope = 10;
  constexpr std::uint32_t kScopes = 3;
  for (const std::uint32_t threads : {1u, 3u, 4u}) {
    for (const synth::Pattern pattern :
         {synth::Pattern::Sequential, synth::Pattern::Strided, synth::Pattern::Random,
          synth::Pattern::Gather, synth::Pattern::Stencil3d}) {
      SCOPED_TRACE(synth::pattern_name(pattern) + " on " + std::to_string(threads) +
                   " threads");
      std::vector<synth::RefStream> streams = identity_streams(pattern, 5, threads);
      memsim::CacheHierarchy blocked = identity_hierarchy(config, threads);
      synth::replay(blocked, streams, kRefs, kFirstScope, kScopes);

      std::vector<synth::RefStream> walk_streams = identity_streams(pattern, 5, threads);
      memsim::CacheHierarchy walked = identity_hierarchy(config, threads);
      for (std::uint64_t i = 0; i < kRefs; ++i) {
        if (i == 0 || i * kScopes / kRefs != (i - 1) * kScopes / kRefs)
          walked.set_scope(kFirstScope + i * kScopes / kRefs);
        const auto thread = static_cast<std::uint32_t>(i % threads);
        walked.access(walk_streams[thread].next(), thread);
      }
      expect_identical(walked.totals(), blocked.totals());
      for (std::uint64_t scope = kFirstScope; scope < kFirstScope + kScopes; ++scope)
        expect_identical(walked.scope(scope), blocked.scope(scope));
    }
  }
}

/// Two small levels for the fold inputs: a 64-line 4-way L1 under
/// `l1_policy` over a 1024-line 8-way LRU L2.
memsim::HierarchyConfig fold_config(memsim::Replacement l1_policy,
                                    std::uint32_t sample_shift = 0) {
  memsim::CacheLevelConfig l1;
  l1.name = "L1";
  l1.size_bytes = 64 * 64;
  l1.associativity = 4;
  l1.replacement = l1_policy;
  memsim::CacheLevelConfig l2;
  l2.name = "L2";
  l2.size_bytes = 1024 * 64;
  l2.associativity = 8;
  memsim::HierarchyConfig config;
  config.name = "fold";
  config.levels = {l1, l2};
  config.sample_shift = sample_shift;
  return config;
}

/// Appends one load per line over 4096 fresh lines, four times the L2:
/// every line the input left behind is evicted from both levels, so each
/// dirty bit the input set shows up in the writeback count.
void append_eviction(std::vector<memsim::MemRef>& refs) {
  for (std::uint64_t line = 0; line < 4096; ++line)
    refs.push_back({(std::uint64_t{1} << 30) + line * 64, 8, false});
}

/// Replays `refs` one reference at a time and in blocks of `block_refs`
/// (scope 1 + i / (4 · block_refs), so scopes switch on block boundaries)
/// and expects identical totals and scopes.
void expect_block_matches_walk(const memsim::HierarchyConfig& config,
                               const std::vector<memsim::MemRef>& refs,
                               std::size_t block_refs) {
  const auto scope_of = [&](std::size_t i) { return 1 + i / (4 * block_refs); };
  memsim::CacheHierarchy walked(config);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (i % (4 * block_refs) == 0) walked.set_scope(scope_of(i));
    walked.access(refs[i]);
  }
  memsim::CacheHierarchy blocked(config);
  util::Arena arena;
  memsim::RefBlockBuilder builder(arena, block_refs);
  for (std::size_t i = 0; i < refs.size();) {
    blocked.set_scope(scope_of(i));
    builder.clear();
    for (; i < refs.size() && !builder.full(); ++i)
      builder.push(refs[i].addr, refs[i].size, refs[i].is_store);
    blocked.access_block(builder.block());
  }
  expect_identical(walked.totals(), blocked.totals());
  ASSERT_EQ(walked.scopes().size(), blocked.scopes().size());
  for (const auto& [id, counters] : walked.scopes()) {
    SCOPED_TRACE("scope " + std::to_string(id));
    expect_identical(counters, blocked.scope(id));
  }
}

TEST(SimdIdentityTest, FoldedProbesMatchPerRefAccess) {
  // One thread, no prefetcher, non-inclusive, LRU/FIFO: access_block takes
  // the grouped path, which folds a probe of the previous probe's line into
  // an L1 hit.  Each input repeats lines in the ways that fold, then evicts
  // everything, so a folded store flag that reached the wrong level would
  // change the writeback count.
  const auto word = [](std::uint64_t line, std::uint64_t offset, bool is_store) {
    return memsim::MemRef{(std::uint64_t{1} << 20) + line * 64 + offset, 8, is_store};
  };
  for (const std::size_t block_refs : {std::size_t{5}, std::size_t{64}}) {
    SCOPED_TRACE("block of " + std::to_string(block_refs));
    {
      SCOPED_TRACE("load miss, then stores to the same line");
      std::vector<memsim::MemRef> refs;
      for (std::uint64_t line = 0; line < 200; line += 3) {
        refs.push_back(word(line, 0, false));
        refs.push_back(word(line, 8, true));
        refs.push_back(word(line, 16, true));
        refs.push_back(word(line, 24, false));
      }
      append_eviction(refs);
      expect_block_matches_walk(fold_config(memsim::Replacement::Lru), refs, block_refs);
    }
    {
      SCOPED_TRACE("a line repeated around a probe that sampling drops");
      std::vector<memsim::MemRef> refs;
      for (std::uint64_t line = 0; line < 200; line += 2) {
        refs.push_back(word(line, 0, false));
        refs.push_back(word(line + 1, 0, true));  // odd line: not sampled
        refs.push_back(word(line, 8, line % 4 == 0));
        refs.push_back(word(line + 1, 8, false));
        refs.push_back(word(line, 16, true));
      }
      append_eviction(refs);
      expect_block_matches_walk(fold_config(memsim::Replacement::Lru, 1), refs, block_refs);
    }
    {
      SCOPED_TRACE("references that straddle two lines");
      std::vector<memsim::MemRef> refs;
      for (std::uint64_t line = 0; line < 200; line += 2) {
        refs.push_back(word(line, 60, false));       // lines line, line + 1
        refs.push_back(word(line + 1, 4, true));     // line + 1 again
        refs.push_back(word(line + 1, 60, false));   // line + 1, line + 2
        refs.push_back(memsim::MemRef{(std::uint64_t{1} << 20) + (line + 2) * 64 + 32, 128,
                                      line % 4 == 0});  // three lines
      }
      append_eviction(refs);
      expect_block_matches_walk(fold_config(memsim::Replacement::Lru), refs, block_refs);
    }
    {
      SCOPED_TRACE("an L1 under FIFO");
      // Lines 16 apart share an L1 set; a FIFO hit leaves the line's rank
      // where it was, and a repeat of that line still only sets its dirty bit.
      std::vector<memsim::MemRef> refs;
      for (std::uint64_t round = 0; round < 40; ++round) {
        const std::uint64_t a = round % 7;
        const std::uint64_t b = a + 16;
        const std::uint64_t c = a + 32 * (1 + round % 3);
        refs.push_back(word(a, 0, false));
        refs.push_back(word(b, 0, round % 2 == 0));
        refs.push_back(word(a, 8, false));
        refs.push_back(word(a, 16, true));
        refs.push_back(word(c, 0, false));
        refs.push_back(word(c, 8, true));
        refs.push_back(word(b, 8, true));
        refs.push_back(word(b, 16, false));
      }
      append_eviction(refs);
      expect_block_matches_walk(fold_config(memsim::Replacement::Fifo), refs, block_refs);
    }
  }
}

}  // namespace
}  // namespace pmacx
