// Content-addressed model store with a byte-bounded LRU cache.
//
// The serving layer's whole point is "fit once, answer many what-if
// queries" (ROADMAP north star; the Table III exploration shape).  The
// store makes that concrete: a fitted model set is addressed by a digest of
// *what produced it* — the input trace contents (CRC-32 of each file's
// bytes), the alignment/missing policy, the canonical form set, and the
// selection options — so two requests naming the same inputs and policy hit
// the same cached core::TaskModelSet no matter which target core count or
// machine they go on to ask about.  Loaded traces, fitted model sets,
// extrapolated signatures, and probed machine profiles all live in one
// byte-bounded LRU; every entry loads single-flight (concurrent requests
// for the same key coalesce onto one loader, and the waiters count as cache
// hits — that is why a 100-request load-generator burst at 8 threads shows
// ≥ 99 hits).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/extrapolator.hpp"
#include "machine/profile.hpp"
#include "trace/signature.hpp"
#include "trace/task_trace.hpp"

namespace pmacx::service {

/// Thread-safe, byte-bounded LRU map of shared immutable values with
/// single-flight loading.  Values are shared_ptr<const T>: eviction drops
/// the cache's reference, in-progress consumers keep theirs.  Recording:
/// service.cache.hits / .misses / .evictions counters and the
/// service.cache.bytes gauge (shared across every cache in the process, so
/// the serve tool's snapshot shows one cache section).
template <typename T>
class LruCache {
 public:
  using Ptr = std::shared_ptr<const T>;
  using Cost = std::function<std::size_t(const T&)>;

  LruCache(std::size_t max_bytes, Cost cost);

  /// Returns the cached value for `key`, loading it with `loader` on a
  /// miss.  Concurrent calls for the same key run `loader` once: the rest
  /// block on the in-flight load and count as hits.  A failing loader
  /// propagates its exception to every waiter and leaves no entry behind.
  Ptr get_or_load(const std::string& key, const std::function<Ptr()>& loader);

  /// Installs `value` under `key` immediately, *replacing* any existing
  /// entry — the publish half of a background refit's atomic swap.  An
  /// existing loaded entry's accounted bytes are subtracted before the new
  /// cost is added (no replacement may leak accounted bytes — audited by
  /// tests/service_ingest_test.cpp), and the replacement is counted as a
  /// service.cache.invalidations event.  Readers that already resolved the
  /// old value keep their shared_ptr; waiters on an in-flight load for the
  /// same key still receive that load's result (its bookkeeping is
  /// superseded via the slot epoch and never double-accounted).
  void insert(const std::string& key, Ptr value);

  std::size_t bytes() const;
  std::size_t entries() const;

 private:
  struct Slot {
    std::shared_future<Ptr> future;
    std::size_t cost = 0;  ///< 0 while the load is in flight
    bool loaded = false;
    /// Which load/insert owns this slot's bookkeeping.  A loader only
    /// applies its cost if the epoch still matches what it was assigned —
    /// an insert() that replaced the slot meanwhile bumped it, so a
    /// superseded load adds nothing (the accounting leak this guards
    /// against: replaced-then-completed loads double-charging bytes_).
    std::uint64_t epoch = 0;
    std::list<std::string>::iterator lru_it;
  };

  void evict_locked();

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Slot> slots_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t next_epoch_ = 0;  ///< slot ownership tokens (see Slot::epoch)
  Cost cost_;
};

/// One loaded input trace plus the content CRC the digest is built from.
struct LoadedTrace {
  trace::TaskTrace trace;
  std::uint32_t content_crc = 0;
  std::size_t file_bytes = 0;

  std::size_t memory_bytes() const { return sizeof(*this) + trace.memory_bytes(); }
};

/// Aggregate cache statistics for STATUS responses.
struct StoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Entries replaced in place by insert() — each one a background refit's
  /// swap landing over a previously served set.
  std::uint64_t invalidations = 0;
  std::size_t bytes = 0;
  std::size_t entries = 0;
};

/// The content-addressed store.  All methods are thread-safe; heavy work
/// (file loads, fitting, machine probing) runs outside every lock, guarded
/// only by the per-key single-flight coalescing.
class ModelStore {
 public:
  /// `max_bytes` bounds the *sum* of all cached entries' estimated sizes.
  explicit ModelStore(std::size_t max_bytes = 256u << 20);

  /// Digest of (input trace content CRCs in order, alignment policy, form
  /// set, selection options) — the model set's content address, rendered as
  /// 16 lowercase hex digits.  Loads (and caches) the named traces to get
  /// their CRCs.  docs/FORMATS.md specifies the exact byte string digested.
  std::string digest(const std::vector<std::string>& trace_paths,
                     const core::ExtrapolationOptions& options);

  /// Loads one trace file through the cache (validated; binary or text).
  std::shared_ptr<const LoadedTrace> load_trace(const std::string& path);

  struct ModelsResult {
    std::string digest;
    std::shared_ptr<const core::TaskModelSet> models;
  };
  /// The fitted model set for (traces, options) — cached by digest.
  ModelsResult models_for(const std::vector<std::string>& trace_paths,
                          const core::ExtrapolationOptions& options);

  /// The MultiMAPS-probed machine profile for a predefined target name —
  /// cached, since probing simulates the full bandwidth surface.
  std::shared_ptr<const machine::MachineProfile> profile_for(const std::string& target_name);

  /// A full extrapolated signature (demanding-rank trace at target_cores +
  /// the app model's comm timelines) — cached by (digest, target, app,
  /// work_scale), so repeated PREDICTs skip even the evaluate stage.  The
  /// scale is keyed at full precision (%.17g): scales that agree to six
  /// decimals still build different apps.
  std::shared_ptr<const trace::AppSignature> signature_for(
      const ModelsResult& models, std::uint32_t target_cores, const std::string& app,
      double work_scale);

  /// The encoded PREDICT_INTERVAL response body (IntervalResult bytes: the
  /// lo/median/hi binary traces + CSV report) for (model set, target,
  /// coverage) — cached under the same models_digest as the point path, so
  /// interval queries ride the existing content address and shard placement.
  /// Coverage must be in (0, 1).
  std::shared_ptr<const std::string> interval_for(const ModelsResult& models,
                                                  std::uint32_t target_cores,
                                                  double interval_coverage);

  /// Atomically publishes a freshly fitted model set under its digest —
  /// the serving end of a background refit.  Replaces any cached set for
  /// the digest (counted as an invalidation); requests already holding the
  /// old set keep serving it, new requests resolve the new one.  Stale
  /// derived entries (signatures, intervals) keyed by the same digest are
  /// untouched: a changed input series changes the digest, so same-digest
  /// replacement only happens when file content was re-committed unchanged
  /// or derived results are recomputed on demand.
  void insert_models(const std::string& digest,
                     std::shared_ptr<const core::TaskModelSet> models);

  StoreStats stats() const;

 private:
  LruCache<LoadedTrace> traces_;
  LruCache<core::TaskModelSet> models_;
  LruCache<machine::MachineProfile> profiles_;
  LruCache<trace::AppSignature> signatures_;
  LruCache<std::string> intervals_;
};

// ---------------------------------------------------------------------------
// LruCache implementation.

namespace detail {
/// Shared metric handles for every LruCache instantiation (one cache
/// section in the snapshot; see class comment).
struct CacheMetrics {
  static void hit();
  static void miss();
  static void eviction();
  static void invalidation();
  static void set_bytes_delta(std::ptrdiff_t delta);
};
}  // namespace detail

template <typename T>
LruCache<T>::LruCache(std::size_t max_bytes, Cost cost)
    : max_bytes_(max_bytes), cost_(std::move(cost)) {}

template <typename T>
std::size_t LruCache<T>::bytes() const {
  std::scoped_lock lock(mutex_);
  return bytes_;
}

template <typename T>
std::size_t LruCache<T>::entries() const {
  std::scoped_lock lock(mutex_);
  return slots_.size();
}

template <typename T>
void LruCache<T>::evict_locked() {
  // Walk from the cold end, skipping in-flight loads (cost 0, not yet
  // accounted); stop as soon as the budget holds.
  auto it = lru_.end();
  while (bytes_ > max_bytes_ && it != lru_.begin()) {
    --it;
    auto slot_it = slots_.find(*it);
    if (slot_it == slots_.end() || !slot_it->second.loaded) continue;
    bytes_ -= slot_it->second.cost;
    detail::CacheMetrics::set_bytes_delta(-static_cast<std::ptrdiff_t>(slot_it->second.cost));
    detail::CacheMetrics::eviction();
    slots_.erase(slot_it);
    it = lru_.erase(it);
  }
}

template <typename T>
typename LruCache<T>::Ptr LruCache<T>::get_or_load(const std::string& key,
                                                   const std::function<Ptr()>& loader) {
  std::promise<Ptr> promise;
  std::uint64_t my_epoch = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = slots_.find(key);
    if (it != slots_.end()) {
      // Hit — including hits on loads still in flight: the waiter blocks on
      // the shared future instead of duplicating the work (single-flight),
      // which is what lets a concurrent same-digest burst count n-1 hits
      // against 1 miss.
      detail::CacheMetrics::hit();
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      std::shared_future<Ptr> future = it->second.future;
      lock.unlock();
      return future.get();  // rethrows the loader's exception, if any
    }
    detail::CacheMetrics::miss();
    Slot slot;
    slot.future = promise.get_future().share();
    slot.epoch = my_epoch = ++next_epoch_;
    lru_.push_front(key);
    slot.lru_it = lru_.begin();
    slots_.emplace(key, std::move(slot));
  }

  // We own the load.  Run it outside the lock so other keys stay serviceable.
  Ptr value;
  try {
    value = loader();
  } catch (...) {
    {
      std::scoped_lock lock(mutex_);
      auto it = slots_.find(key);
      // Only dismantle the slot we still own: an insert() that replaced it
      // mid-load installed a valid value this failure must not evict.
      if (it != slots_.end() && it->second.epoch == my_epoch) {
        lru_.erase(it->second.lru_it);
        slots_.erase(it);
      }
    }
    promise.set_exception(std::current_exception());
    throw;
  }

  const std::size_t cost = value ? cost_(*value) : 0;
  {
    std::scoped_lock lock(mutex_);
    auto it = slots_.find(key);
    // Epoch check: if an insert() replaced this slot while the load ran,
    // its bookkeeping already accounts the slot's bytes — adding ours too
    // would leak `cost` bytes into bytes_ forever.  Waiters still get this
    // load's value through the promise below; it simply is not cached.
    if (it != slots_.end() && it->second.epoch == my_epoch) {
      it->second.cost = cost;
      it->second.loaded = true;
      bytes_ += cost;
      detail::CacheMetrics::set_bytes_delta(static_cast<std::ptrdiff_t>(cost));
      evict_locked();
    }
  }
  promise.set_value(value);
  return value;
}

template <typename T>
void LruCache<T>::insert(const std::string& key, Ptr value) {
  const std::size_t cost = value ? cost_(*value) : 0;
  std::promise<Ptr> promise;
  promise.set_value(value);
  std::scoped_lock lock(mutex_);
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    // Replace in place.  Subtract the old accounted bytes *before* adding
    // the new cost: a replacement must never leak the displaced entry's
    // bytes (in-flight slots have cost 0 and nothing accounted yet — their
    // loader's epoch check keeps it that way).
    if (it->second.loaded) {
      bytes_ -= it->second.cost;
      detail::CacheMetrics::set_bytes_delta(-static_cast<std::ptrdiff_t>(it->second.cost));
    }
    detail::CacheMetrics::invalidation();
    it->second.future = promise.get_future().share();
    it->second.cost = cost;
    it->second.loaded = true;
    it->second.epoch = ++next_epoch_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    Slot slot;
    slot.future = promise.get_future().share();
    slot.cost = cost;
    slot.loaded = true;
    slot.epoch = ++next_epoch_;
    lru_.push_front(key);
    slot.lru_it = lru_.begin();
    slots_.emplace(key, std::move(slot));
  }
  bytes_ += cost;
  detail::CacheMetrics::set_bytes_delta(static_cast<std::ptrdiff_t>(cost));
  evict_locked();
}

}  // namespace pmacx::service
