// Multi-level cache hierarchy with per-scope (basic-block) accounting.
//
// This is the "cache simulator which mimics the structure of the system
// being predicted" of Fig. 2: the tracer streams every memory reference of
// the running (synthetic) application through it, and the hierarchy
// accumulates, per basic block, the hit counts from which the trace file's
// per-level hit rates are derived.
//
// Probing is sequential and non-inclusive: a reference that misses level i
// probes level i+1 and the line is installed in every probed level
// (write-allocate on both loads and stores, as the paper's model does not
// distinguish store miss policies).  Hit rates are reported *cumulatively* —
// hit_rate(j) is the fraction of line accesses resolved at level ≤ j — which
// matches the paper's Tables II/III where L1 ≤ L2 ≤ L3 rates grow as data
// migrates into cache.
//
// Hybrid MPI/OpenMP ranks (Section III-A: trace in the target's
// parallelization mode) are the same class with a thread count: each of the
// rank's T threads gets private copies of the levels below the first shared
// level, the deeper levels are shared, so thread streams genuinely contend
// for the shared capacity.  Accounting stays rank-level (aggregated over
// threads), matching the per-task trace files the methodology consumes.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "memsim/cache.hpp"
#include "memsim/config.hpp"
#include "memsim/ref_block.hpp"

namespace pmacx::memsim {

/// One logical memory reference issued by the application.
struct MemRef {
  std::uint64_t addr = 0;   ///< byte address
  std::uint32_t size = 8;   ///< bytes touched (split into lines internally)
  bool is_store = false;
};

/// Maximum cache levels supported (the paper's systems have 2 or 3).
inline constexpr std::size_t kMaxLevels = 3;

/// Access statistics for one accounting scope (a basic block) or the whole
/// stream.
struct AccessCounters {
  std::uint64_t refs = 0;           ///< logical references (MemRef count)
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t bytes = 0;          ///< total bytes referenced
  std::uint64_t line_accesses = 0;  ///< line-granularity probes issued
  /// level_hits[i] = line accesses resolved exactly at level i.
  std::array<std::uint64_t, kMaxLevels> level_hits{};
  std::uint64_t memory_accesses = 0;  ///< line accesses that missed every level
  std::uint64_t tlb_misses = 0;       ///< page-walks (0 unless a TLB is configured)
  std::uint64_t writebacks = 0;       ///< dirty evictions across all levels

  /// Cumulative hit rate at `level` (0-based): fraction of line accesses
  /// resolved at level ≤ `level`.  Returns 0 when no accesses were made.
  double cumulative_hit_rate(std::size_t level) const;

  /// cumulative_hit_rate of each of the `levels` simulated levels, as
  /// traces and machine profiles store them: slots past the hierarchy
  /// inherit the deepest simulated rate (a 2-level machine's "L3" rate
  /// equals its L2 rate).
  std::array<double, kMaxLevels> cumulative_hit_rates(std::size_t levels) const;

  /// Merges another counter set into this one.
  void merge(const AccessCounters& other);
};

/// The simulated hierarchy.  Not thread-safe by design: each simulated MPI
/// task owns its own hierarchy instance (as in the paper, one simulator per
/// traced process).
class CacheHierarchy {
 public:
  /// Validates and captures the configuration.  `threads` simulated threads
  /// share the rank: levels [0, shared_from) are private to each thread,
  /// levels [shared_from, n) are shared (`shared_from` must not exceed the
  /// level count).  Private levels of thread t are seeded seed + level +
  /// t·131, shared ones seed + level, so one thread is exactly the plain
  /// hierarchy.  More than one thread models neither prefetch, TLB nor
  /// inclusion, and such configurations are rejected.
  explicit CacheHierarchy(HierarchyConfig config, std::uint32_t threads = 1,
                          std::size_t shared_from = 0);

  /// Sets the accounting scope for subsequent accesses; scopes are created
  /// on first use.  Scope id 0 is reserved for "no block".
  void set_scope(std::uint64_t block_id);

  /// Streams one reference of `thread` through its private levels and the
  /// shared levels, updating the totals and the current scope's counters.
  void access(const MemRef& ref, std::uint32_t thread = 0);

  /// Replays a staged block of references within the current scope, each
  /// from the thread the block names, counter-identical to calling
  /// access() per reference.  When the configuration allows (one thread,
  /// no prefetcher, non-inclusive, deterministic replacement) the block
  /// takes the grouped fast path: references are flattened into line
  /// probes once, then each level processes its surviving probes bucketed
  /// by set index in ascending set order.  Staging folds a probe of the
  /// line the previous staged probe touched into a counted L1 hit (exact
  /// under LRU and FIFO: that line is still at rank 0 of its L1 set).
  /// Within a set, probes keep stream order, and set states are mutually
  /// independent, so every hit/victim decision — and therefore every
  /// counter — matches the one-at-a-time walk; what changes is only the
  /// memory-access pattern, which turns random metadata walks into
  /// per-level ascending sweeps the host prefetcher can stream.
  void access_block(const RefBlock& block);

  /// Aggregate counters across all scopes.
  const AccessCounters& totals() const { return totals_; }

  /// Per-scope counters; missing scope yields a zeroed counter set.
  const AccessCounters& scope(std::uint64_t block_id) const;

  /// All scopes touched so far.
  const std::unordered_map<std::uint64_t, AccessCounters>& scopes() const { return scopes_; }

  /// Number of configured cache levels.
  std::size_t num_levels() const { return config_.levels.size(); }

  /// Simulated threads sharing the hierarchy.
  std::uint32_t threads() const { return threads_; }

  /// Prefetch lines issued by the stride prefetcher so far.
  std::uint64_t prefetches_issued() const { return prefetches_issued_; }

  /// Empties all cache contents and statistics.
  void reset();

  const HierarchyConfig& config() const { return config_; }

 private:
  void access_one(std::uint32_t thread, std::uint64_t addr, std::uint32_t size,
                  bool is_store, AccessCounters& scoped);
  void access_block_grouped(const RefBlock& block, AccessCounters& scoped);
  void grow_probe_buffers(std::size_t probes);
  void tlb_access(std::uint64_t page, AccessCounters& scoped);
  void prefetcher_observe_miss(std::uint64_t line);

  HierarchyConfig config_;
  std::uint32_t threads_;
  std::size_t shared_from_;
  /// Every thread's private levels (thread-major), then the shared levels.
  /// With one thread this is the plain level list.
  std::vector<CacheLevel> levels_;
  std::uint32_t line_shift_;
  std::uint64_t scope_ = 0;
  AccessCounters totals_;
  std::unordered_map<std::uint64_t, AccessCounters> scopes_;
  /// Hot pointer to scopes_[scope_]; valid because unordered_map nodes are
  /// pointer-stable across rehash.  Avoids a hash lookup per access.
  AccessCounters* current_ = nullptr;

  // TLB: page → LRU stamp, bounded by config_.tlb.entries.
  std::unordered_map<std::uint64_t, std::uint64_t> tlb_;
  std::uint64_t tlb_clock_ = 0;

  // Stride prefetcher stream table.
  struct Stream {
    std::uint64_t next_line = 0;  ///< expected next miss of this stream
    std::int64_t stride = 0;
    bool valid = false;
  };
  std::vector<Stream> streams_;
  std::size_t stream_cursor_ = 0;
  std::uint64_t prefetches_issued_ = 0;

  /// Level `lvl` as seen by `thread`.
  CacheLevel& level(std::uint32_t thread, std::size_t lvl) {
    return levels_[lvl + (lvl < shared_from_ ? thread : threads_ - 1) * shared_from_];
  }

  /// True when access_block may take the grouped level-at-a-time path:
  /// a hybrid rank's probes split across per-thread private levels,
  /// prefetching would couple miss order across sets, inclusive
  /// back-invalidation couples levels, and Random replacement consumes rng
  /// draws in probe order.  Fixed by the config, so computed once.
  bool grouped_replay_ok_ = false;
  // Block-replay scratch, reused across blocks to stay allocation-free.
  // Probes are staged structure-of-arrays so the batched probe kernels
  // take plain flat buffers.  The probe buffers only grow; their size is
  // the staging capacity, not the probe count.
  std::vector<std::uint64_t> block_lines_;     ///< probe line addresses
  std::vector<std::uint8_t> block_stores_;     ///< probe store flags
  std::vector<std::uint8_t> block_l1_stores_;  ///< L1's: folded probes' flags OR-ed in
  std::vector<std::uint8_t> block_resolved_;   ///< grouped-replay hit marks
  std::vector<std::uint32_t> block_order_a_;   ///< ping-pong survivor lists:
  std::vector<std::uint32_t> block_order_b_;   ///<   miss indices per level
  std::vector<std::uint32_t> block_grouped_;   ///< probe indices by set
  std::vector<std::uint32_t> block_sets_;      ///< per-set prefix offsets
  std::vector<std::uint32_t> block_cursor_;    ///< scatter cursors
};

}  // namespace pmacx::memsim
