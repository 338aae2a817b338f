// The pmacx prediction server.
//
// A loopback-default TCP endpoint speaking pmacx-rpc-v1 (protocol.hpp) on a
// service::Listener (listener.hpp), which owns the socket, the accept loop,
// the per-connection threads and their reaper, and the connection defense
// counters service.conn.{accepted,reset,timeout,reaped}.  Each connection's
// thread reads frames and dispatches request *handling* onto the shared
// util::ThreadPool, so slow fits never starve frame I/O and the pool bounds
// CPU concurrency.  Load is shed explicitly: once `max_in_flight` requests
// are being handled, further well-formed requests get an immediate BUSY
// response instead of queueing without bound.  Every request is metered
// (service.requests.<type>, service.requests.{busy,error,parse_error},
// service.latency.<type> histograms) and bounded by a wall-clock deadline —
// a handler that blows `request_timeout_ms` gets an Error response while the
// stale computation's result is discarded.
//
// Shutdown is graceful: stop() only flips an atomic (async-signal-safe, so
// SIGINT/SIGTERM handlers may call it); wait() stops the accept loop,
// cancels queued handlers (ThreadPool::cancel_pending), joins the
// connection threads and drains the pool.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ingest/ingest.hpp"
#include "service/listener.hpp"
#include "service/model_store.hpp"
#include "service/protocol.hpp"
#include "util/threadpool.hpp"

namespace pmacx::service {

struct ServerOptions {
  std::string bind = "127.0.0.1";  ///< address to listen on (loopback default)
  std::uint16_t port = 0;          ///< 0 = pick an ephemeral port
  std::size_t threads = 0;         ///< handler pool size; 0 = hardware default
  /// Requests being handled at once before new ones get BUSY.  0 makes every
  /// request BUSY — useful for testing shed behaviour deterministically.
  std::size_t max_in_flight = 64;
  std::size_t cache_bytes = 256u << 20;  ///< ModelStore LRU budget
  std::uint64_t request_timeout_ms = 30'000;  ///< per-request handler deadline
  /// A connection with no complete message *started* for this long is
  /// reaped (half-open/abandoned peer defense).  0 = never.
  std::uint64_t idle_timeout_ms = 120'000;
  /// Once a frame's first byte arrives, the whole frame must land within
  /// this window (slow-loris defense: 1 byte per 500 ms never ties up a
  /// reader thread for long).
  std::uint64_t read_timeout_ms = 10'000;
  /// Cluster identity, reported by STATUS so the router (and operators) can
  /// tell a healthy shard from one running a stale topology.  -1 =
  /// standalone server (the fields are omitted from STATUS).
  std::int64_t shard_id = -1;
  std::uint64_t ring_epoch = 0;  ///< Topology::epoch(); meaningful with shard_id
  /// Live-ingestion root directory (spool/ + collections/ under it).  Empty
  /// disables ingestion: UPLOAD_TRACE requests get an Error response and
  /// "@collection" paths do not resolve.
  std::string ingest_dir;
  /// Buffer budget for upload commit validation and refit trace reloads
  /// (forwarded to ingest::IngestService::Options::stream_budget).
  std::size_t ingest_stream_budget = 64u << 20;
};

class Server {
 public:
  /// Binds and listens immediately (so port() is valid and a bind conflict
  /// throws here, not in the background thread); accepting starts at start().
  /// Throws util::Error on socket/bind/listen failure.
  explicit Server(ServerOptions options);
  ~Server();  ///< stop() + wait()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The port actually bound (resolves port 0 to the ephemeral choice).
  std::uint16_t port() const { return listener_.port(); }

  /// Spawns the accept loop in a background thread.
  void start();

  /// Requests shutdown.  Async-signal-safe: only stores an atomic flag.
  void stop() { listener_.stop(); }

  /// Blocks until the accept loop and every connection thread have exited
  /// and in-flight handlers have drained.  Idempotent.
  void wait();

  ModelStore& store() { return store_; }
  std::uint64_t requests_handled() const { return handled_.load(std::memory_order_relaxed); }

  /// The live-ingestion subsystem, or nullptr when `ingest_dir` was empty.
  ingest::IngestService* ingest() { return ingest_.get(); }

 private:
  void serve_connection(int fd);
  /// Handles one decoded request on the pool, enforcing the in-flight cap
  /// and deadline; always returns a Response (errors become Status::Error).
  Response dispatch(const Request& request);
  Response handle(const Request& request);
  /// Expands "@collection" pseudo-paths to the collection's trace paths
  /// (ascending core count).  Throws util::Error when ingestion is disabled
  /// or the collection is unknown; plain paths pass through untouched.
  std::vector<std::string> expand_paths(const std::vector<std::string>& paths) const;

  ServerOptions options_;
  std::chrono::steady_clock::time_point started_at_{};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> handled_{0};
  ModelStore store_;
  std::unique_ptr<util::ThreadPool> pool_;
  /// Declared after pool_ so it is destroyed first; by then wait() has
  /// cancelled queued refits and pool_.reset() drained running ones, so no
  /// pool task can touch a dead IngestService.
  std::unique_ptr<ingest::IngestService> ingest_;
  /// Last, so it is destroyed first: its destructor stops and joins the
  /// connection threads, which use everything above.
  Listener listener_;
};

}  // namespace pmacx::service
