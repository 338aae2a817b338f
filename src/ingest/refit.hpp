// Background incremental refitting of ingested collections.
//
// Every committed upload extends a collection's input series, so its fitted
// model set is stale the moment COMMIT returns.  The RefitScheduler closes
// that gap off the request path: commits *schedule* a refit on the server's
// shared thread pool, the refit runs core::fit_task_models_incremental
// against the collection's previous set (bit-copying every element whose
// fit series is unchanged, refitting the rest), and the finished set is
// handed to a publish hook that atomically swaps it into the serving cache
// under its content digest.  In-flight requests keep the shared_ptr they
// already resolved — the swap drops a reference, never a response.
//
// Scheduling is per-collection, deduplicated, and serialized: while a refit
// for collection C runs, further commits to C set a dirty bit instead of
// queueing (a burst of N uploads costs at most one running + one follow-up
// refit), and two refits for the same collection never run concurrently —
// which is what makes the previous-set handoff race-free.  Distinct
// collections refit in parallel, bounded by the pool.
//
// The publish hook keeps this layer free of any service/ dependency: the
// server wires it to ModelStore::insert_models, tests wire it to a vector.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/incremental.hpp"
#include "ingest/collection.hpp"
#include "util/threadpool.hpp"

namespace pmacx::ingest {

class RefitScheduler {
 public:
  /// Receives each finished model set under its models_digest.  Called from
  /// pool threads; must be thread-safe (ModelStore::insert_models is).
  using Publish =
      std::function<void(const std::string& digest,
                         std::shared_ptr<const core::TaskModelSet> models)>;

  struct Options {
    /// Fitting policy for background refits.  Requests that ask for the
    /// same policy hit the published set by digest; any other policy cold-
    /// fits on demand through the ordinary cache path.
    core::ExtrapolationOptions fit;
    /// Buffer budget for streaming the collection's traces back in.
    std::size_t stream_budget = std::size_t{64} << 20;
  };

  /// `registry` and `pool` must outlive the scheduler, and the pool must be
  /// drained (or its queue cancelled) before the scheduler is destroyed —
  /// the server's shutdown sequence guarantees both.
  RefitScheduler(Options options, const CollectionRegistry* registry,
                 util::ThreadPool* pool, Publish publish);

  RefitScheduler(const RefitScheduler&) = delete;
  RefitScheduler& operator=(const RefitScheduler&) = delete;

  /// Requests a refit of `collection`.  Returns immediately; dedupes
  /// against a pending refit and serializes against a running one.
  void schedule(const std::string& collection);

  /// Completed refits (all collections).  The soak gate's counter.
  std::uint64_t refits_completed() const;

 private:
  struct State {
    bool running = false;  ///< a refit task for this collection is live
    bool dirty = false;    ///< re-run once the live task finishes
    /// The set the next refit extends; null until the first publish.
    std::shared_ptr<const core::TaskModelSet> previous;
  };

  void run(const std::string& collection);

  Options options_;
  const CollectionRegistry* registry_;
  util::ThreadPool* pool_;
  Publish publish_;
  std::mutex mutex_;
  std::unordered_map<std::string, State> states_;  // guarded by mutex_
};

}  // namespace pmacx::ingest
