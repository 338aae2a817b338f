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

/// Per-thread streams of one strided/random/sequential kernel, built by
/// synth::kernel_streams.
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

}  // namespace
}  // namespace pmacx
