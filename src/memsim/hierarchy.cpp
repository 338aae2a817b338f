#include "memsim/hierarchy.hpp"

#include <bit>

#include "util/error.hpp"

namespace pmacx::memsim {

namespace {
/// Way-metadata size above which the grouped set-sweep replay pays for its
/// bucketing passes.  Stream-order replay with a few-probes-ahead software
/// prefetch hides the metadata walk for any level whose tags/stamps fit the
/// host's last-level cache, and the grouped path's bucketing gathers plus
/// same-set store-to-load chains cost more than the sweep saves there, so
/// grouping only wins once a level's metadata decisively exceeds host LLC.
constexpr std::size_t kGroupedSweepBytes = 16 * 1024 * 1024;
}  // namespace

double AccessCounters::cumulative_hit_rate(std::size_t level) const {
  PMACX_CHECK(level < kMaxLevels, "cache level out of range");
  if (line_accesses == 0) return 0.0;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i <= level; ++i) hits += level_hits[i];
  return static_cast<double>(hits) / static_cast<double>(line_accesses);
}

std::array<double, kMaxLevels> AccessCounters::cumulative_hit_rates(
    std::size_t levels) const {
  std::array<double, kMaxLevels> rates{};
  double rate = 0.0;
  for (std::size_t lvl = 0; lvl < kMaxLevels; ++lvl) {
    if (lvl < levels) rate = cumulative_hit_rate(lvl);
    rates[lvl] = rate;
  }
  return rates;
}

void AccessCounters::merge(const AccessCounters& other) {
  refs += other.refs;
  loads += other.loads;
  stores += other.stores;
  bytes += other.bytes;
  line_accesses += other.line_accesses;
  for (std::size_t i = 0; i < kMaxLevels; ++i) level_hits[i] += other.level_hits[i];
  memory_accesses += other.memory_accesses;
  tlb_misses += other.tlb_misses;
  writebacks += other.writebacks;
}

CacheHierarchy::CacheHierarchy(HierarchyConfig config, std::uint32_t threads,
                               std::size_t shared_from)
    : config_(std::move(config)), threads_(threads), shared_from_(shared_from) {
  config_.validate();
  PMACX_CHECK(threads_ > 0, "hierarchy needs at least one thread");
  PMACX_CHECK(shared_from_ <= config_.levels.size(), "shared_from beyond level count");
  PMACX_CHECK(threads_ == 1 || (!config_.prefetch.enabled && !config_.tlb.enabled),
              "threaded hierarchy does not model prefetch/TLB (use per-rank mode)");
  PMACX_CHECK(threads_ == 1 || !config_.inclusive,
              "threaded hierarchy does not model inclusion (use per-rank mode)");
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(
      static_cast<std::uint64_t>(config_.line_bytes())));
  levels_.reserve(threads_ * shared_from_ + config_.levels.size() - shared_from_);
  for (std::uint32_t t = 0; t < threads_; ++t)
    for (std::size_t lvl = 0; lvl < shared_from_; ++lvl)
      levels_.emplace_back(config_.levels[lvl], config_.seed + lvl + t * 131);
  for (std::size_t lvl = shared_from_; lvl < config_.levels.size(); ++lvl)
    levels_.emplace_back(config_.levels[lvl], config_.seed + lvl);
  if (config_.prefetch.enabled) streams_.resize(config_.prefetch.streams);
  grouped_replay_ok_ = threads_ == 1 && !config_.prefetch.enabled && !config_.inclusive;
  for (const CacheLevelConfig& level : config_.levels)
    if (level.replacement == Replacement::Random) grouped_replay_ok_ = false;
}

void CacheHierarchy::tlb_access(std::uint64_t page, AccessCounters& scoped) {
  ++tlb_clock_;
  const auto it = tlb_.find(page);
  if (it != tlb_.end()) {
    it->second = tlb_clock_;
    return;
  }
  ++totals_.tlb_misses;
  ++scoped.tlb_misses;
  if (tlb_.size() >= config_.tlb.entries) {
    // Evict the least recently used entry (linear scan over ≤ `entries`
    // map nodes; only on misses, so the common path stays O(1)).
    auto victim = tlb_.begin();
    for (auto walk = tlb_.begin(); walk != tlb_.end(); ++walk)
      if (walk->second < victim->second) victim = walk;
    tlb_.erase(victim);
  }
  tlb_.emplace(page, tlb_clock_);
}

void CacheHierarchy::prefetcher_observe_miss(std::uint64_t line) {
  const PrefetcherConfig& pf = config_.prefetch;

  auto issue = [&](const Stream& stream) {
    for (std::uint32_t k = 1; k <= pf.degree; ++k) {
      const std::int64_t target = static_cast<std::int64_t>(stream.next_line) +
                                  stream.stride * static_cast<std::int64_t>(k - 1);
      if (target < 0) continue;
      const AccessOutcome outcome =
          levels_[pf.install_level].install(static_cast<std::uint64_t>(target));
      if (!outcome.hit) ++prefetches_issued_;
      if (outcome.writeback) ++totals_.writebacks;
    }
  };

  // Continuation of a locked stream?
  for (Stream& stream : streams_) {
    if (stream.valid && stream.stride != 0 &&
        line == stream.next_line - stream.stride) {
      // Re-detected the previous miss (multi-line refs); nothing new.
      return;
    }
    if (stream.valid && stream.stride != 0 && line == stream.next_line) {
      stream.next_line = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(stream.next_line) + stream.stride);
      issue(stream);
      return;
    }
  }
  // Lock a stride on a nearby previous miss?
  for (Stream& stream : streams_) {
    if (!stream.valid) continue;
    const std::int64_t delta =
        static_cast<std::int64_t>(line) - static_cast<std::int64_t>(stream.next_line);
    if (delta != 0 && delta >= -4 && delta <= 4) {
      stream.stride = delta;
      stream.next_line = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(line) + delta);
      issue(stream);
      return;
    }
  }
  // Allocate a fresh stream round-robin.
  Stream& fresh = streams_[stream_cursor_];
  stream_cursor_ = (stream_cursor_ + 1) % streams_.size();
  fresh.valid = true;
  fresh.stride = 0;
  fresh.next_line = line;
}

void CacheHierarchy::set_scope(std::uint64_t block_id) {
  scope_ = block_id;
  current_ = &scopes_[block_id];
}

void CacheHierarchy::access(const MemRef& ref, std::uint32_t thread) {
  PMACX_CHECK(thread < threads_, "thread index out of range");
  PMACX_CHECK(ref.size > 0, "zero-size memory reference");
  if (current_ == nullptr) current_ = &scopes_[scope_];
  access_one(thread, ref.addr, ref.size, ref.is_store, *current_);
}

void CacheHierarchy::access_block(const RefBlock& block) {
  if (current_ == nullptr) current_ = &scopes_[scope_];
  AccessCounters& scoped = *current_;
  if (grouped_replay_ok_) {
    access_block_grouped(block, scoped);
    return;
  }
  for (std::size_t i = 0; i < block.count; ++i) {
    const std::uint32_t thread = block.thread != nullptr ? block.thread[i] : 0;
    PMACX_CHECK(thread < threads_, "thread index out of range");
    PMACX_CHECK(block.size[i] > 0, "zero-size memory reference");
    access_one(thread, block.addr[i], block.size[i], block.is_store[i] != 0, scoped);
  }
}

void CacheHierarchy::access_block_grouped(const RefBlock& block,
                                          AccessCounters& scoped) {
  // Stage: flatten references into line probes in stream order, tallying
  // the reference-level counters as block sums (they are order-independent
  // totals, so adding them once is identical to per-reference increments).
  // The TLB walk stays in stream order here — its LRU state is shared
  // across all pages, so unlike the per-set cache state it is sensitive to
  // the global order — and is independent of the cache levels below.
  //
  // A probe of the line the previous staged probe touched is folded: it is
  // a certain L1 hit that changes nothing but the line's dirty bit.  The
  // staged probe left its line at rank 0 of its L1 set (a hit promotes it,
  // a miss installs and promotes it), no other L1 access comes between the
  // two, and under LRU and FIFO a hit on rank 0 moves no rank.  So the
  // folded probe only counts a line access and an L1 hit, and ORs its store
  // flag into the staged probe's L1 store flag; the levels below L1 never
  // see it and keep the staged probe's own flag.
  std::uint64_t stores = 0;
  std::uint64_t bytes = 0;
  std::uint64_t folded = 0;
  const std::uint64_t sample_mask =
      config_.sample_shift != 0 ? (1ull << config_.sample_shift) - 1 : 0;
  const bool tlb_enabled = config_.tlb.enabled;
  const std::uint64_t page_shift =
      tlb_enabled ? static_cast<std::uint64_t>(std::countr_zero(
                        static_cast<std::uint64_t>(config_.tlb.page_bytes)))
                  : 0;
  // One probe per reference unless references straddle lines; the buffers
  // grow (rarely) when they do.
  if (block_lines_.size() < block.count) grow_probe_buffers(block.count);
  std::uint64_t* lines = block_lines_.data();
  std::uint8_t* probe_stores = block_stores_.data();
  std::uint8_t* l1_stores = block_l1_stores_.data();
  std::size_t nprobes = 0;
  std::uint64_t previous = 0;  // line of probe nprobes - 1
  for (std::size_t i = 0; i < block.count; ++i) {
    const std::uint32_t size = block.size[i];
    PMACX_CHECK(size > 0, "zero-size memory reference");
    const std::uint64_t addr = block.addr[i];
    const std::uint8_t is_store = block.is_store[i] != 0 ? 1 : 0;
    stores += is_store;
    bytes += size;
    if (tlb_enabled) {
      const std::uint64_t first_page = addr >> page_shift;
      const std::uint64_t last_page = (addr + size - 1) >> page_shift;
      for (std::uint64_t page = first_page; page <= last_page; ++page)
        tlb_access(page, scoped);
    }
    const std::uint64_t first_line = addr >> line_shift_;
    const std::uint64_t last_line = (addr + size - 1) >> line_shift_;
    for (std::uint64_t line = first_line; line <= last_line; ++line) {
      if ((line & sample_mask) != 0) continue;  // set sampling (see access_one)
      if (nprobes != 0 && line == previous) {
        ++folded;
        l1_stores[nprobes - 1] |= is_store;
        continue;
      }
      if (nprobes == block_lines_.size()) {
        grow_probe_buffers(2 * nprobes);
        lines = block_lines_.data();
        probe_stores = block_stores_.data();
        l1_stores = block_l1_stores_.data();
      }
      lines[nprobes] = line;
      probe_stores[nprobes] = is_store;
      l1_stores[nprobes] = is_store;
      ++nprobes;
      previous = line;
    }
  }
  const auto add_refs = [&](AccessCounters& c) {
    c.refs += block.count;
    c.loads += block.count - stores;
    c.stores += stores;
    c.bytes += bytes;
    c.line_accesses += nprobes + folded;
    c.level_hits[0] += folded;
  };
  add_refs(totals_);
  add_refs(scoped);

  // Level-at-a-time replay.  Levels whose way metadata fits comfortably in
  // the host's own caches are replayed in stream order — grouping would
  // only add bucketing passes without improving locality — and emit their
  // miss list, which is exactly the next level's ordered input.  Larger
  // levels bucket their surviving probes by set index (a stable counting
  // sort, so within-set order stays stream order) and replay the buckets
  // in ascending set order, turning the random metadata walk into a sweep.
  std::size_t unresolved = nprobes;
  if (block_order_a_.size() < nprobes) {
    block_order_a_.resize(nprobes);
    block_order_b_.resize(nprobes);
  }
  block_resolved_.assign(nprobes, 0);
  std::uint32_t* bufs[2] = {block_order_a_.data(), block_order_b_.data()};
  const std::uint32_t* order = nullptr;  // null: all probes, stream order
  int flip = 0;
  for (std::size_t lvl = 0; lvl < levels_.size() && unresolved > 0; ++lvl) {
    CacheLevel& level = levels_[lvl];
    const std::uint8_t* stores_flags = lvl == 0 ? l1_stores : probe_stores;
    std::uint32_t* misses = bufs[flip];
    util::simd::ProbeReplay result;
    if (level.metadata_bytes() <= kGroupedSweepBytes) {
      result = level.replay_stream(lines, stores_flags, order, unresolved,
                                   misses);
      order = misses;
      flip ^= 1;
    } else {
      const std::uint64_t nsets = level.sets();
      const std::uint64_t set_mask = nsets - 1;
      block_sets_.assign(static_cast<std::size_t>(nsets) + 1, 0);
      for (std::size_t k = 0; k < unresolved; ++k) {
        const std::uint32_t p =
            order != nullptr ? order[k] : static_cast<std::uint32_t>(k);
        ++block_sets_[static_cast<std::size_t>(lines[p] & set_mask) + 1];
      }
      for (std::size_t s = 1; s <= nsets; ++s)
        block_sets_[s] += block_sets_[s - 1];
      block_cursor_.assign(block_sets_.begin(), block_sets_.end());
      if (block_grouped_.size() < nprobes) block_grouped_.resize(nprobes);
      for (std::size_t k = 0; k < unresolved; ++k) {
        const std::uint32_t p =
            order != nullptr ? order[k] : static_cast<std::uint32_t>(k);
        block_grouped_[block_cursor_[static_cast<std::size_t>(
            lines[p] & set_mask)]++] = p;
      }
      result = level.replay_grouped(lines, stores_flags,
                                    block_resolved_.data(),
                                    block_grouped_.data(), block_sets_.data());
      // Recover the ordered survivor list for the next level: grouped
      // replay marked its hits resolved, so the misses are this level's
      // input minus the resolved probes, in input order.
      if (lvl + 1 < levels_.size() && result.hits < unresolved) {
        std::size_t m = 0;
        for (std::size_t k = 0; k < unresolved; ++k) {
          const std::uint32_t p =
              order != nullptr ? order[k] : static_cast<std::uint32_t>(k);
          if (block_resolved_[p] == 0) misses[m++] = p;
        }
        order = misses;
        flip ^= 1;
      }
    }
    totals_.level_hits[lvl] += result.hits;
    scoped.level_hits[lvl] += result.hits;
    totals_.writebacks += result.writebacks;
    scoped.writebacks += result.writebacks;
    unresolved -= result.hits;
  }
  totals_.memory_accesses += unresolved;
  scoped.memory_accesses += unresolved;
}

void CacheHierarchy::grow_probe_buffers(std::size_t probes) {
  block_lines_.resize(probes);
  block_stores_.resize(probes);
  block_l1_stores_.resize(probes);
}

void CacheHierarchy::access_one(std::uint32_t thread, std::uint64_t addr,
                                std::uint32_t size, bool is_store,
                                AccessCounters& scoped) {
  auto count_ref = [&](AccessCounters& c) {
    ++c.refs;
    if (is_store)
      ++c.stores;
    else
      ++c.loads;
    c.bytes += size;
  };
  count_ref(totals_);
  count_ref(scoped);

  if (config_.tlb.enabled) {
    const std::uint64_t page_shift = static_cast<std::uint64_t>(
        std::countr_zero(static_cast<std::uint64_t>(config_.tlb.page_bytes)));
    const std::uint64_t first_page = addr >> page_shift;
    const std::uint64_t last_page = (addr + size - 1) >> page_shift;
    for (std::uint64_t page = first_page; page <= last_page; ++page)
      tlb_access(page, scoped);
  }

  const std::uint64_t first_line = addr >> line_shift_;
  const std::uint64_t last_line = (addr + size - 1) >> line_shift_;
  for (std::uint64_t line = first_line; line <= last_line; ++line) {
    // Set sampling: keep only lines whose low bits are zero.  Those lines
    // map to exactly the 1/2^shift of each level's sets with zero low
    // index bits, so the sampled population competes for a proportionally
    // shrunk cache — the condition that keeps hit-rate estimates unbiased.
    // (Sampling on *hashed* bits instead would let the sample enjoy the
    // full capacity and inflate hit rates.)
    if (config_.sample_shift != 0 &&
        (line & ((1ull << config_.sample_shift) - 1)) != 0)
      continue;
    ++totals_.line_accesses;
    ++scoped.line_accesses;
    bool resolved = false;
    bool l1_hit = false;
    for (std::size_t lvl = 0; lvl < config_.levels.size(); ++lvl) {
      const AccessOutcome outcome = level(thread, lvl).access(line, is_store);
      if (outcome.writeback) {
        ++totals_.writebacks;
        ++scoped.writebacks;
      }
      // Inclusive hierarchy (one thread only): a victim leaving level lvl
      // must also leave every shallower level.
      if (config_.inclusive && outcome.evicted && lvl > 0) {
        for (std::size_t upper = 0; upper < lvl; ++upper)
          levels_[upper].invalidate(outcome.evicted_line);
      }
      if (outcome.hit) {
        ++totals_.level_hits[lvl];
        ++scoped.level_hits[lvl];
        if (lvl == 0) l1_hit = true;
        resolved = true;
        break;
      }
      // Missed this level: the line was installed here (write-allocate) and
      // the probe continues downward.
    }
    if (!resolved) {
      ++totals_.memory_accesses;
      ++scoped.memory_accesses;
    }
    // The stride prefetcher trains on L1 demand misses.
    if (config_.prefetch.enabled && !l1_hit) prefetcher_observe_miss(line);
  }
}

const AccessCounters& CacheHierarchy::scope(std::uint64_t block_id) const {
  static const AccessCounters kEmpty{};
  const auto it = scopes_.find(block_id);
  return it == scopes_.end() ? kEmpty : it->second;
}

void CacheHierarchy::reset() {
  for (CacheLevel& level : levels_) level.clear();
  totals_ = AccessCounters{};
  scopes_.clear();
  scope_ = 0;
  current_ = nullptr;
  tlb_.clear();
  tlb_clock_ = 0;
  for (Stream& stream : streams_) stream = Stream{};
  stream_cursor_ = 0;
  prefetches_issued_ = 0;
}

}  // namespace pmacx::memsim
