#include "util/threadpool.hpp"

#if defined(__linux__)
#include <pthread.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/log.hpp"

namespace pmacx::util {

thread_local ThreadPool* ThreadPool::tls_pool_ = nullptr;
thread_local int ThreadPool::tls_worker_ = -1;

TaskError::TaskError(std::size_t task_index, const std::string& message)
    : Error("parallel task " + std::to_string(task_index) + ": " + message),
      task_index_(task_index) {}

namespace detail {

void ForState::rethrow_first() {
  std::vector<ForFailure> taken;
  {
    std::scoped_lock lock(error_mutex);
    taken.swap(failures);
  }
  if (taken.empty()) return;
  const ForFailure* first = &taken.front();
  for (const ForFailure& failure : taken) {
    if (failure.index < first->index) first = &failure;
  }
  try {
    std::rethrow_exception(first->error);
  } catch (const Error&) {
    throw;  // typed pmacx errors (ParseError, ...) keep their exact type
  } catch (const std::exception& e) {
    throw TaskError(first->index, e.what());
  } catch (...) {
    throw TaskError(first->index, "unknown exception");
  }
}

}  // namespace detail

std::size_t ThreadPool::default_threads() {
  if (const char* env = std::getenv("PMACX_THREADS")) {
    char* end = nullptr;
    const unsigned long value = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && value >= 1 && value <= 4096) {
      return static_cast<std::size_t>(value);
    }
    PMACX_LOG_WARN << "ignoring invalid PMACX_THREADS='" << env
                   << "' (want an integer in [1, 4096]); running single-threaded";
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  return requested == 0 ? default_threads() : requested;
}

ThreadPool& shared_pool() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool(std::size_t threads) {
  static std::atomic<std::uint64_t> next_pool_id{0};
  pool_id_ = next_pool_id.fetch_add(1, std::memory_order_relaxed);
  const std::size_t resolved = resolve_threads(threads);
  if (resolved <= 1) return;  // serial: no queues, no workers
  queues_.reserve(resolved);
  for (std::size_t i = 0; i < resolved; ++i) queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(resolved);
  for (std::size_t i = 0; i < resolved; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::enqueue(detail::Task task) {
  PMACX_ASSERT(!queues_.empty(), "enqueue on a serial pool");
  std::size_t target;
  if (tls_pool_ == this && tls_worker_ >= 0) {
    target = static_cast<std::size_t>(tls_worker_);  // own queue: LIFO locality
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  // pending_ goes up before the push so a concurrent pop can never drive the
  // counter below zero; a waking worker that races the push just re-polls.
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::scoped_lock lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  {
    std::scoped_lock lock(wake_mutex_);  // pairs with the workers' predicate wait
  }
  wake_cv_.notify_one();
}

detail::Task ThreadPool::take_task(std::size_t start) {
  const std::size_t n = queues_.size();
  for (std::size_t k = 0; k < n; ++k) {
    Queue& queue = *queues_[(start + k) % n];
    std::scoped_lock lock(queue.mutex);
    if (queue.tasks.empty()) continue;
    detail::Task task;
    if (k == 0) {
      task = std::move(queue.tasks.back());  // own work: newest first
      queue.tasks.pop_back();
    } else {
      task = std::move(queue.tasks.front());  // steal: oldest first
      queue.tasks.pop_front();
    }
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return task;
  }
  return {};
}

std::size_t ThreadPool::cancel_pending() {
  std::size_t cancelled = 0;
  for (auto& queue_ptr : queues_) {
    std::deque<detail::Task> victims;
    {
      std::scoped_lock lock(queue_ptr->mutex);
      victims.swap(queue_ptr->tasks);
    }
    if (victims.empty()) continue;
    pending_.fetch_sub(victims.size(), std::memory_order_relaxed);
    // Abort outside the queue lock: the hooks take future/batch locks and
    // notify waiters, neither of which should nest under a queue mutex.
    for (detail::Task& task : victims) {
      task.abort();
      ++cancelled;
    }
  }
  return cancelled;
}

bool ThreadPool::run_pending_task() {
  if (queues_.empty()) return false;
  std::size_t start;
  if (tls_pool_ == this && tls_worker_ >= 0) {
    start = static_cast<std::size_t>(tls_worker_);
  } else {
    start = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  detail::Task task = take_task(start);
  if (!task) return false;
  task();
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_pool_ = this;
  tls_worker_ = static_cast<int>(index);
#if defined(__linux__)
  // Best-effort thread name (15-char kernel limit) so chaos-harness stack
  // dumps and TSan reports say which pool a worker belongs to.  The pool id
  // disambiguates the global pool from ad-hoc pools; a name truncated by
  // snprintf for astronomically large ids is still set, just shortened.
  char name[16];
  std::snprintf(name, sizeof(name), "pmx%llu.w%zu",
                static_cast<unsigned long long>(pool_id_), index);
  ::pthread_setname_np(::pthread_self(), name);
#endif
  for (;;) {
    if (run_pending_task()) continue;
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (stop_) break;
    wake_cv_.wait(lock, [&] {
      return stop_ || pending_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_) break;
  }
  // Shutdown drain: run anything still queued (including work enqueued by
  // the drained tasks themselves) so futures on submitted work complete
  // instead of spinning forever in TaskFuture::get.
  while (run_pending_task()) {
  }
}

}  // namespace pmacx::util
