// Work-stealing thread pool for the embarrassingly parallel layers.
//
// The paper's core loop — fitting canonical forms to every element of every
// basic block, then synthesizing the extrapolated trace — is independent
// across elements, ranks, and traces, so the hot paths (core::Extrapolator,
// core::Pipeline, memsim rank replay) fan work out across this pool.  Design
// constraints, in order:
//
//   * Deterministic results.  parallel_map writes result slot i from task i,
//     so output ordering never depends on scheduling; callers that need
//     bit-identical serial/parallel behaviour merge side effects themselves
//     in index order (see core::Extrapolator).
//   * Typed errors.  A task throwing util::Error (ParseError, ...) has that
//     exact exception rethrown on the calling thread; any other exception is
//     wrapped into util::TaskError carrying the failing task index.  When
//     several tasks fail, the lowest task index wins — the same error a
//     serial loop would have hit first.
//   * Graceful single-thread fallback.  PMACX_THREADS=1 (or ThreadPool(1))
//     spawns no workers at all: submit and parallel_for degenerate to plain
//     inline loops with identical error semantics.
//   * Nested use.  A task may submit work and block on it, or call
//     parallel_for itself: waiting threads *help* — they pull and run queued
//     tasks instead of sleeping — so a 1-worker pool cannot deadlock on
//     nested waits.
//
// Scheduling is classic work stealing: each worker owns a deque, pushes and
// pops its own work LIFO (locality), and steals FIFO from victims when idle.
#pragma once

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace pmacx::util {

/// Error raised on the calling thread when a pool task failed with anything
/// other than a util::Error (those propagate with their original type).
/// Carries the index of the failing task within its batch.
class TaskError : public Error {
 public:
  TaskError(std::size_t task_index, const std::string& message);
  std::size_t task_index() const { return task_index_; }

 private:
  std::size_t task_index_;
};

/// Raised on waiters of work discarded by ThreadPool::cancel_pending():
/// the future (or parallel_for batch) completes with this instead of
/// hanging on a task that will never run.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& message) : Error(message) {}
};

class ThreadPool;

namespace detail {

/// Move-only type-erased callable (std::function requires copyability,
/// which packaged results do not have).  A task may carry an abort hook:
/// invoked instead of run() when the pool discards the task before it
/// started (ThreadPool::cancel_pending), it must complete the task's
/// observable state (future, batch counter) exceptionally so waiters wake.
class Task {
 public:
  Task() = default;
  template <typename Fn>
  explicit Task(Fn fn) : impl_(std::make_unique<Impl<Fn, std::nullptr_t>>(std::move(fn), nullptr)) {}
  template <typename Fn, typename Ab>
  Task(Fn fn, Ab abort_fn)
      : impl_(std::make_unique<Impl<Fn, Ab>>(std::move(fn), std::move(abort_fn))) {}

  explicit operator bool() const { return impl_ != nullptr; }
  void operator()() { impl_->run(); }
  /// Discard notification; no-op for tasks without an abort hook.
  void abort() { impl_->abort(); }

 private:
  struct Base {
    virtual ~Base() = default;
    virtual void run() = 0;
    virtual void abort() = 0;
  };
  template <typename Fn, typename Ab>
  struct Impl final : Base {
    Impl(Fn f, Ab a) : fn(std::move(f)), abort_fn(std::move(a)) {}
    void run() override { fn(); }
    void abort() override {
      if constexpr (!std::is_same_v<Ab, std::nullptr_t>) abort_fn();
    }
    Fn fn;
    Ab abort_fn;
  };
  std::unique_ptr<Base> impl_;
};

/// Shared completion state behind a TaskFuture.
struct FutureStateBase {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
};
template <typename T>
struct FutureState : FutureStateBase {
  std::optional<T> value;
};
template <>
struct FutureState<void> : FutureStateBase {};

/// One failed index of a parallel_for batch.
struct ForFailure {
  std::size_t index = 0;
  std::exception_ptr error;
};

/// Completion/error state of one parallel_for batch.  Heap-allocated and
/// shared (shared_ptr) between the owner and every chunk: the last chunk's
/// completion bookkeeping may still be running when the owner wakes, so the
/// state must not live on the owner's stack.
struct ForState {
  std::atomic<std::size_t> remaining{0};
  std::mutex wait_mutex;
  std::condition_variable cv;
  bool done = false;  ///< guarded by wait_mutex; the owner's return gate
  std::mutex error_mutex;
  std::vector<ForFailure> failures;

  /// Rethrows the failure with the lowest task index (deterministic: the
  /// one a serial loop would have hit first).  util::Error subclasses pass
  /// through unchanged; anything else is wrapped into TaskError.  The
  /// failures are first swapped out under error_mutex: a chunk task may
  /// release the last shared reference to this state on a worker, and it
  /// must not release the last reference to an exception the caller reads.
  void rethrow_first();
};

}  // namespace detail

/// Handle to a submitted task's eventual result.  get() *helps* the pool
/// while waiting (runs queued tasks on the calling thread), so blocking on a
/// future from inside a pool task is deadlock-free.
template <typename T>
class TaskFuture {
 public:
  TaskFuture() = default;
  bool valid() const { return state_ != nullptr; }

  /// Waits for completion (helping), then returns the task's result or
  /// rethrows its exception.  Consumes the result: call at most once.
  T get();

  /// Waits up to `timeout` for completion without consuming the result.
  /// Returns true once the task is done (get() will not block), false on
  /// deadline.  Unlike get() this never helps the pool: running an
  /// arbitrary queued task could overshoot the deadline, and callers use
  /// this exactly when the deadline matters (request timeouts, shutdown
  /// drains).
  template <typename Rep, typename Period>
  bool wait_for(std::chrono::duration<Rep, Period> timeout);

 private:
  friend class ThreadPool;
  TaskFuture(ThreadPool* pool, std::shared_ptr<detail::FutureState<T>> state)
      : pool_(pool), state_(std::move(state)) {}

  ThreadPool* pool_ = nullptr;
  std::shared_ptr<detail::FutureState<T>> state_;
};

class ThreadPool {
 public:
  /// `threads` counts executing threads: 0 resolves via default_threads()
  /// (PMACX_THREADS, else the hardware thread count); ≤ 1 spawns no workers
  /// and every operation runs inline on the caller.
  explicit ThreadPool(std::size_t threads = 0);
  /// Joins the workers.  Tasks still queued at destruction are drained (run
  /// to completion on the exiting workers) rather than dropped, so futures
  /// on submitted work always complete.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// PMACX_THREADS when set to a positive integer, else the hardware thread
  /// count (min 1).  Invalid PMACX_THREADS values fall back to 1 with a
  /// warning rather than aborting a long run.
  static std::size_t default_threads();
  /// 0 → default_threads(); anything else unchanged.
  static std::size_t resolve_threads(std::size_t requested);

  std::size_t worker_count() const { return workers_.size(); }
  /// True when everything runs inline on the calling thread.
  bool serial() const { return workers_.empty(); }

  /// Process-unique id of this pool (assigned at construction, also for
  /// serial pools).  Worker threads are named "pmx<id>.w<index>"
  /// (pthread_setname_np, best-effort) so stack dumps from chaos runs or
  /// sanitizer reports attribute a thread to its pool; the id keeps names
  /// collision-free across the lazily created global pool and ad-hoc pools.
  std::uint64_t pool_id() const { return pool_id_; }

  /// Schedules `fn` (serial pools run it inline immediately).
  template <typename Fn>
  auto submit(Fn fn) -> TaskFuture<std::invoke_result_t<Fn&>>;

  /// Runs fn(0) … fn(count-1), distributing contiguous chunks of at least
  /// `grain` indices across the pool; the caller participates.  Returns
  /// after every index ran (or its chunk aborted on exception); then
  /// rethrows the lowest failed index's error (see TaskError).
  template <typename Fn>
  void parallel_for(std::size_t count, Fn&& fn, std::size_t grain = 1);

  /// parallel_for that collects fn(i) into slot i of the result — output
  /// order is deterministic regardless of scheduling.  T must be
  /// default-constructible and move-assignable.
  template <typename T, typename Fn>
  std::vector<T> parallel_map(std::size_t count, Fn&& fn, std::size_t grain = 1);

  /// Runs one queued task on the calling thread if any is available.
  /// Public so blocked waiters (futures, nested batches) can help.
  bool run_pending_task();

  /// Discards every queued-but-not-started task, completing each one's
  /// observable state (its future, or its parallel_for batch entry) with
  /// CancelledError so waiters wake instead of hanging.  Already running
  /// tasks are unaffected — threads cannot be preempted — so a server
  /// shutdown bounds its wait by cancelling the queue and joining only the
  /// in-flight work (which per-request deadlines keep short).  Returns the
  /// number of tasks discarded.  Safe to call concurrently with submits;
  /// tasks enqueued after the call may run normally.
  std::size_t cancel_pending();

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<detail::Task> tasks;
  };

  void enqueue(detail::Task task);
  detail::Task take_task(std::size_t start);
  void worker_loop(std::size_t index);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool stop_ = false;  ///< guarded by wake_mutex_
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::uint64_t pool_id_ = 0;

  static thread_local ThreadPool* tls_pool_;
  static thread_local int tls_worker_;
};

/// The process-wide pool, created on first use and sized by
/// default_threads() (so PMACX_THREADS=1 makes it serial).  Library code
/// that fans out without a caller-supplied pool runs here: default-option
/// extrapolation, the MultiMAPS probes, a cold signature's comm traces.
/// One pool for all of them, so no call pays a thread spawn and join.
ThreadPool& shared_pool();

// ---------------------------------------------------------------------------
// Template implementations.

template <typename T>
T TaskFuture<T>::get() {
  PMACX_CHECK(state_ != nullptr, "TaskFuture::get on an empty future");
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state_->mutex);
      if (state_->done) break;
    }
    // Help the pool instead of sleeping; fall back to a short timed wait so
    // a task running on another thread still wakes us promptly.
    if (pool_ == nullptr || !pool_->run_pending_task()) {
      std::unique_lock<std::mutex> lock(state_->mutex);
      state_->cv.wait_for(lock, std::chrono::milliseconds(1),
                          [&] { return state_->done; });
      if (state_->done) break;
    }
  }
  // Take the error out under the lock, so the worker never holds the last
  // reference to an exception this thread reads (the exception's reference
  // count lives in uninstrumented libstdc++, outside TSan's view).
  std::exception_ptr error;
  {
    std::scoped_lock lock(state_->mutex);
    error = std::move(state_->error);
  }
  if (error) std::rethrow_exception(error);
  if constexpr (!std::is_void_v<T>) return std::move(*state_->value);
}

template <typename T>
template <typename Rep, typename Period>
bool TaskFuture<T>::wait_for(std::chrono::duration<Rep, Period> timeout) {
  PMACX_CHECK(state_ != nullptr, "TaskFuture::wait_for on an empty future");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_until(lock, deadline, [&] { return state_->done; });
}

template <typename Fn>
auto ThreadPool::submit(Fn fn) -> TaskFuture<std::invoke_result_t<Fn&>> {
  using R = std::invoke_result_t<Fn&>;
  auto state = std::make_shared<detail::FutureState<R>>();
  auto run = [state, fn = std::move(fn)]() mutable {
    try {
      if constexpr (std::is_void_v<R>) {
        fn();
      } else {
        state->value.emplace(fn());
      }
    } catch (...) {
      state->error = std::current_exception();
    }
    {
      std::scoped_lock lock(state->mutex);
      state->done = true;
    }
    state->cv.notify_all();
  };
  if (serial()) {
    run();  // 1-thread degeneracy: execute inline, same error capture
  } else {
    auto abort = [state] {
      {
        std::scoped_lock lock(state->mutex);
        if (!state->done) {
          state->error = std::make_exception_ptr(
              CancelledError("task cancelled before it started (ThreadPool::cancel_pending)"));
          state->done = true;
        }
      }
      state->cv.notify_all();
    };
    enqueue(detail::Task(std::move(run), std::move(abort)));
  }
  return TaskFuture<R>(this, std::move(state));
}

template <typename Fn>
void ThreadPool::parallel_for(std::size_t count, Fn&& fn, std::size_t grain) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t workers = worker_count();
  std::size_t chunks = 1;
  if (workers > 0 && count > grain) {
    // Over-decompose 4× so stealing balances uneven per-index cost.
    chunks = std::min((count + grain - 1) / grain,
                      std::max<std::size_t>(std::size_t{1}, workers * 4));
  }

  if (chunks == 1) {
    // Single chunk: run inline with the exact serial error semantics.
    detail::ForState state;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        state.failures.push_back({i, std::current_exception()});
        break;  // a serial loop would not have run the rest
      }
    }
    state.rethrow_first();
    return;
  }

  // The state is shared (not stack-allocated) and every enqueued chunk holds
  // its own reference: the owner may wake and return while the final chunk
  // is still between its decrement and releasing wait_mutex, so the mutex
  // and condition variable must outlive the owner's frame.
  auto state = std::make_shared<detail::ForState>();
  state->remaining.store(chunks, std::memory_order_relaxed);

  auto run_chunk = [state, &fn, count, chunks](std::size_t c) {
    const std::size_t begin = c * count / chunks;
    const std::size_t end = (c + 1) * count / chunks;
    for (std::size_t i = begin; i < end; ++i) {
      try {
        fn(i);
      } catch (...) {
        std::scoped_lock lock(state->error_mutex);
        state->failures.push_back({i, std::current_exception()});
        break;  // a serial loop would not have run the rest of this chunk
      }
    }
    if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last chunk out: set `done` and notify under wait_mutex so the owner
      // can only observe completion after this thread holds the same lock —
      // it cannot miss the notify between its check and its wait.
      std::scoped_lock lock(state->wait_mutex);
      state->done = true;
      state->cv.notify_all();
    }
  };

  for (std::size_t c = 1; c < chunks; ++c) {
    // Copy run_chunk (and with it a state reference) into each task: the
    // task may outlive the owner's stack frame for the reason above.  The
    // abort hook stands in for a discarded chunk: it records a cancellation
    // failure at the chunk's first index and completes the batch counter so
    // the owner's wait terminates.
    enqueue(detail::Task([run_chunk, c] { run_chunk(c); },
                         [state, c, count, chunks] {
                           const std::size_t begin = c * count / chunks;
                           {
                             std::scoped_lock lock(state->error_mutex);
                             state->failures.push_back(
                                 {begin, std::make_exception_ptr(CancelledError(
                                             "parallel batch cancelled before chunk started "
                                             "(ThreadPool::cancel_pending)"))});
                           }
                           if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                             std::scoped_lock lock(state->wait_mutex);
                             state->done = true;
                             state->cv.notify_all();
                           }
                         }));
  }
  run_chunk(0);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state->wait_mutex);
      if (state->done) break;
    }
    if (run_pending_task()) continue;  // help instead of blocking
    std::unique_lock<std::mutex> lock(state->wait_mutex);
    if (state->cv.wait_for(lock, std::chrono::milliseconds(1),
                           [&] { return state->done; })) {
      break;
    }
  }
  state->rethrow_first();
}

template <typename T, typename Fn>
std::vector<T> ThreadPool::parallel_map(std::size_t count, Fn&& fn, std::size_t grain) {
  std::vector<T> results(count);
  parallel_for(
      count, [&](std::size_t i) { results[i] = fn(i); }, grain);
  return results;
}

}  // namespace pmacx::util
