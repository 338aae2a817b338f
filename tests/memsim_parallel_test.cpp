// Concurrent replay of independent rank hierarchies through synth::replay
// must be bit-identical to the serial rank-by-rank replay — each rank owns
// its hierarchy and streams, so scheduling cannot perturb a single counter.
// Flat (one thread) ranks take the grouped block path, hybrid (four
// threads, shared last level) ranks the per-reference walk.
#include <gtest/gtest.h>

#include <vector>

#include "machine/targets.hpp"
#include "memsim/hierarchy.hpp"
#include "synth/replay.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace pmacx {
namespace {

/// Replays rank `rank`'s kernel on a fresh hierarchy with `threads`
/// threads (private levels above a shared last level) and returns its
/// totals.
memsim::AccessCounters replay_rank(const memsim::HierarchyConfig& config,
                                   synth::Pattern pattern, std::uint32_t threads,
                                   std::uint64_t rank, std::uint64_t refs) {
  synth::KernelSpec kernel;
  kernel.block_id = rank + 1;
  kernel.pattern = pattern;
  kernel.footprint_bytes = 1u << 20;
  kernel.elem_bytes = 8;
  kernel.stride_elems = 3;
  kernel.store_fraction = 0.25;
  memsim::CacheHierarchy sim(config, threads, config.levels.size() - 1);
  std::vector<synth::RefStream> streams = synth::kernel_streams(kernel, threads, 64, 1000);
  synth::replay(sim, streams, refs, /*first_scope=*/1, /*scopes=*/3);
  return sim.totals();
}

/// Totals of `ranks` ranks, fanned out over `pool` (rank order kept) or
/// replayed one after another when `pool` is null.
std::vector<memsim::AccessCounters> replay_ranks(const memsim::HierarchyConfig& config,
                                                 synth::Pattern pattern,
                                                 std::uint32_t threads, std::size_t ranks,
                                                 std::uint64_t refs,
                                                 util::ThreadPool* pool = nullptr) {
  const auto one = [&](std::size_t rank) {
    return replay_rank(config, pattern, threads, rank, refs);
  };
  if (pool != nullptr) return pool->parallel_map<memsim::AccessCounters>(ranks, one);
  std::vector<memsim::AccessCounters> totals;
  for (std::size_t rank = 0; rank < ranks; ++rank) totals.push_back(one(rank));
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

TEST(ParallelReplay, MatchesSerialBitIdentical) {
  const memsim::HierarchyConfig config = machine::bluewaters_p1().hierarchy;
  util::ThreadPool pool(4);
  for (const std::uint32_t threads : {1u, 4u}) {
    for (const synth::Pattern pattern :
         {synth::Pattern::Sequential, synth::Pattern::Random, synth::Pattern::Strided}) {
      const auto serial = replay_ranks(config, pattern, threads, 6, 20'000);
      const auto parallel = replay_ranks(config, pattern, threads, 6, 20'000, &pool);
      ASSERT_EQ(serial.size(), 6u);
      ASSERT_EQ(parallel.size(), serial.size());
      for (std::size_t r = 0; r < serial.size(); ++r) {
        EXPECT_EQ(serial[r].refs, 20'000u);
        expect_identical(serial[r], parallel[r]);
      }
    }
  }
}

TEST(ParallelReplay, SerialPoolTakesTheInlinePath) {
  const memsim::HierarchyConfig config = machine::bluewaters_p1().hierarchy;
  util::ThreadPool serial_pool(1);
  const auto via_pool =
      replay_ranks(config, synth::Pattern::Random, 1, 3, 5'000, &serial_pool);
  const auto no_pool = replay_ranks(config, synth::Pattern::Random, 1, 3, 5'000);
  ASSERT_EQ(via_pool.size(), 3u);
  for (std::size_t r = 0; r < via_pool.size(); ++r) expect_identical(via_pool[r], no_pool[r]);
}

TEST(ParallelReplay, RequiresOneStreamPerThread) {
  const memsim::HierarchyConfig config = machine::bluewaters_p1().hierarchy;
  memsim::CacheHierarchy sim(config, 4, config.levels.size() - 1);
  synth::KernelSpec kernel;
  kernel.block_id = 1;
  std::vector<synth::RefStream> streams = synth::kernel_streams(kernel, 2, 64, 1000);
  EXPECT_THROW(synth::replay(sim, streams, 10, 1), util::Error);
}

}  // namespace
}  // namespace pmacx
