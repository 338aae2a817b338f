// Shared pieces of the repository benchmark: the span recorder, percentile
// and search helpers, seeded input generation, and the open-loop load
// generator that drives a spawned pmacx_serve.  Everything here is the
// benchmark's own code; the program under test is reached only through the
// pmacx libraries' public functions and the pmacx_serve binary.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "trace/task_trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

// ---------------------------------------------------------------------------
// Spans: one per call the benchmark makes into a layer.

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by every span of one request (0 = none)
  std::string name;           ///< "<layer>.<call>", e.g. "core.fit_task_models"
  std::int64_t start_ns = 0;  ///< relative to the recorder's epoch
  std::int64_t end_ns = 0;
};

/// Thread-safe in-memory span log.  Disabled recorders cost one branch per
/// span, so the untimed (e2e) runs keep the same code path.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Turns recording off or on (for the untraced baseline of a traced run);
  /// only while no other thread records.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  std::uint64_t begin(const std::string& name, std::uint64_t parent, std::uint64_t request);
  void end(std::uint64_t id);
  /// Records an already-measured interval (e.g. a request's intended send
  /// time to its reply).
  std::uint64_t record(const std::string& name, std::uint64_t parent, std::uint64_t request,
                       Clock::time_point start, Clock::time_point end);
  std::uint64_t next_request() { return ++last_request_; }  // any thread
  std::vector<Span> spans() const;
  /// Writes every span as JSON lines.
  void write(const std::string& path) const;

 private:
  std::int64_t ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; index = id - 1
  std::atomic<std::uint64_t> last_request_{0};
};

/// RAII span; nests through an explicit parent id so spans opened on worker
/// threads can name the span that caused them.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name, std::uint64_t parent = 0,
             std::uint64_t request = 0)
      : recorder_(recorder),
        id_(recorder.enabled() ? recorder.begin(name, parent, request) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) recorder_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  std::uint64_t id_;
};

/// Span duration minus the part of it covered by its direct children (the
/// union of their intervals, clipped to the span, so parallel children are
/// not double-subtracted).  Indexed like `spans`.
std::vector<double> self_seconds(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> values);
/// Linear-interpolated percentile of `values` (fraction in [0, 1]).
double percentile(std::vector<double> values, double fraction);
/// True when a percentile at `fraction` of `samples` values has at least
/// `beyond` samples above it — the reporting rule for tail percentiles.
bool percentile_supported(std::size_t samples, double fraction, std::size_t beyond = 10);

/// Bounded search for the highest rate that passes `ok`: doubles from `lo`
/// until a failure (or `hi`), then bisects until the bracket is narrower than
/// `resolution` (relative) or `max_probes` probes were spent.  Returns the
/// highest passing rate seen (0 when even `lo` fails).
double search_max_rate(const std::function<bool(double)>& ok, double lo, double hi,
                       double resolution, int max_probes, int* probes_used = nullptr);

// ---------------------------------------------------------------------------
// Seeded inputs.

/// splitmix64: the benchmark's own generator, so inputs never change when
/// the program's RNG does.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// One PREDICT key: which traces, which target, which folding factor.
struct PredictKey {
  std::vector<std::string> trace_paths;  ///< files, or one "@collection"
  std::string app;
  std::uint32_t target_cores = 0;
  double work_scale = 1.0;
  std::string label() const;
};

/// `n` request indexes in seeded order: key r < base_keys appears in
/// proportion to Zipf(zipf_s), except that a share `extra_share` of requests
/// (when extra_keys > 0) goes to the keys [base_keys, base_keys + extra_keys)
/// uniformly.  Counts are exact quotas, so only the order depends on `seed`.
std::vector<std::size_t> request_sequence(std::uint64_t seed, std::size_t n, std::size_t base_keys,
                                          double zipf_s, std::size_t extra_keys,
                                          double extra_share);

/// Replicates `base` to `copies` × its blocks with fresh ids and a seeded
/// per-copy perturbation.  The perturbation of a copy depends only on
/// (seed, copy, block id), not on the core count, so the same copy of a
/// block carries a consistent scaling series across core counts while no
/// two copies carry the same one.
pmacx::trace::TaskTrace widen_trace(const pmacx::trace::TaskTrace& base, std::size_t copies,
                                    std::uint64_t seed);

// ---------------------------------------------------------------------------
// Serving.

/// A pmacx_serve child on an ephemeral port.
struct ServerProcess {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

ServerProcess spawn_server(const std::string& binary, const std::vector<std::string>& args);
/// Sends SHUTDOWN and reaps the child (SIGKILL after `grace_ms`).  Returns
/// true when it exited cleanly.
bool stop_server(ServerProcess& server, std::uint64_t grace_ms = 10'000);
/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double peak_rss_mib(pid_t pid);
/// "key value" line of a STATUS body; 0 when absent.
std::uint64_t status_value(const std::string& body, const std::string& key);

pmacx::service::Request predict_request(const PredictKey& key, const std::string& machine);

/// What one request of an open-loop or closed-loop phase saw.
struct Outcome {
  double latency_ms = 0;   ///< from intended send time to reply
  double rtt_ms = 0;       ///< from actual send to reply
  double lateness_ms = 0;  ///< actual send minus when a connection was free for it
  bool ok = false;         ///< OK status and a body the check accepted
};

/// Checks one OK body; returns false when it does not match the expected
/// answer for `key`.
using BodyCheck = std::function<bool(std::size_t key, const std::string& body)>;

struct PhaseResult {
  std::vector<Outcome> outcomes;
  double wall_s = 0;
  std::size_t failed() const;
  /// Latencies with failures counted as `limit_ms` (above any limit).
  std::vector<double> latencies(double limit_ms) const;
};

/// Sends PREDICTs for `sequence` over `connections` connections, each owned
/// by one thread that takes the next request when it is free.  Open loop
/// (rate > 0): request i is due at start + i / rate and is measured from
/// that time, so a slow server makes requests wait (counted in their
/// latency) instead of slowing the arrivals.  Closed loop (rate 0): each
/// request is due when a connection is free.
PhaseResult run_requests(std::uint16_t port, const std::vector<PredictKey>& keys,
                         const std::vector<std::size_t>& sequence, double rate,
                         std::size_t connections, const std::string& machine,
                         const BodyCheck& check, SpanRecorder& spans, std::uint64_t parent);

}  // namespace perfbench
