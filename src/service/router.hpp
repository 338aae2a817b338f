// The pmacx cluster router.
//
// A Router fronts N shard servers (plain pmacx_serve processes launched
// with --shard-id/--ring-epoch) behind a single pmacx-rpc-v1 endpoint.
// Data-plane requests (FIT / EXTRAPOLATE / PREDICT) are consistent-hashed
// on the 16-hex `models_digest` of their fit spec — the same content
// address the ModelStore and checkpoint layers use — through a ShardRing,
// so each shard's cache stays hot for its slice of the model space and
// replication factor R gives every digest R candidate owners.
//
// Failover is the router's whole job: a shard call that fails in transport
// (connect refused, timeout, torn frame, desynchronized stream) or hits an
// open per-shard circuit moves to the next replica in ring order; when a
// full pass over the replica set fails, the router backs off and sweeps
// again until the per-request failover deadline — so a SIGKILLed replica
// under load costs retried hops, never a lost request (the chaos cluster
// test's zero-loss invariant).  BUSY and genuine handler errors are *not*
// failed over: they are definite answers from a healthy shard, and the
// resilient client already retries BUSY.
//
// Control plane: STATUS aggregates the router's own identity (ring epoch,
// shard count, per-shard health) with each shard's STATUS body, namespaced
// per shard, so one probe shows the whole cluster including which shards
// are down or running a stale ring epoch.  SHUTDOWN fans out to every
// shard, then stops the router itself.
//
// Client connections run on a service::Listener (listener.hpp) with the
// same defense as a shard's: slow-loris and idle peers are cut off, and
// service.router.conn.{accepted,reset,timeout,reaped} count it all.
//
// Everything is metered through the PR 3 metrics layer:
// service.router.requests.<type>, .routed, .failover (requests that needed
// a non-primary hop), .failover_attempts (individual failed hops),
// .shard_down (hops skipped on an open circuit), .exhausted (deadline hit
// with no replica answering), and service.router.shard.<id>.latency
// histograms per shard.  docs/OBSERVABILITY.md documents the set.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/client.hpp"
#include "service/listener.hpp"
#include "service/protocol.hpp"
#include "service/shard_ring.hpp"

namespace pmacx::service {

struct RouterOptions {
  std::string bind = "127.0.0.1";  ///< address to listen on
  std::uint16_t port = 0;          ///< 0 = pick an ephemeral port
  Topology topology;               ///< resolved shard endpoints (real ports)
  std::size_t vnodes_per_shard = ShardRing::kDefaultVnodes;

  /// Per-hop I/O deadline on shard calls.  Short relative to the failover
  /// deadline so a wedged shard costs one hop, not the whole budget.
  std::uint64_t shard_io_timeout_ms = 10'000;
  /// Per-hop connect budget; a dead shard should fail over in ~this time.
  std::uint64_t shard_connect_deadline_ms = 1'000;
  /// Overall per-request budget across every replica hop and backoff sleep.
  /// When it expires with no replica answering, the client gets an Error
  /// response (metered as service.router.exhausted).
  std::uint64_t failover_deadline_ms = 20'000;
  /// Backoff between full sweeps of the replica set (doubles, capped 8x).
  std::uint64_t sweep_backoff_ms = 50;
  /// Per-shard circuit breaker on the routing path: after this many
  /// consecutive transport failures the shard is skipped (metered
  /// shard_down) until cooldown passes.  0 disables.
  std::size_t shard_breaker_failures = 3;
  std::uint64_t shard_breaker_cooldown_ms = 500;

  /// Connection defense, same semantics as ServerOptions.
  std::uint64_t idle_timeout_ms = 120'000;
  std::uint64_t read_timeout_ms = 10'000;
};

class Router {
 public:
  /// Binds and listens immediately (port() valid, bind conflicts throw
  /// here); accepting starts at start().  Throws util::Error on socket
  /// failure or an invalid topology.
  explicit Router(RouterOptions options);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  const ShardRing& ring() const { return ring_; }

  /// Spawns the accept loop in a background thread.
  void start();

  /// Requests shutdown.  Async-signal-safe: only stores an atomic flag.
  void stop() { listener_.stop(); }

  /// True once stop() was called (by a signal, a SHUTDOWN request, or the
  /// owner).  Supervisors poll this to stop respawning shards.
  bool stopping() const { return listener_.stopping(); }

  /// Blocks until the accept loop and every connection thread have exited.
  void wait() { listener_.wait(); }

  std::uint64_t requests_routed() const { return routed_.load(std::memory_order_relaxed); }

 private:
  /// Per-connection-thread routing state for one shard: the lazily
  /// connected Client plus the routing-path circuit breaker.  Kept
  /// per-connection-thread (not shared) so no lock sits on the data plane;
  /// a fresh router connection starts with closed circuits everywhere.
  struct ShardState {
    std::unique_ptr<Client> client;
    std::size_t consecutive_failures = 0;
    std::chrono::steady_clock::time_point open_until{};
  };
  struct ShardClients {
    std::vector<ShardState> shards;  ///< index = position in ring().shards()
  };

  void serve_connection(int fd);

  Response route(const Request& request, ShardClients& shards);
  Response route_data_plane(const Request& request, ShardClients& shards);
  /// UPLOAD_TRACE: fan the op out to *every* replica of the collection's
  /// ring position ("upload:<collection>"), so each shard that can own a
  /// "@collection" fit spec holds the ingested files locally.  The primary
  /// replica's answer is the response; replica failures are metered
  /// (service.router.upload_replica_failures), not fatal — a resumed upload
  /// re-sends the missing chunks there.
  Response route_upload(const Request& request, ShardClients& shards);
  Response aggregate_status(ShardClients& shards);
  /// stop() + best-effort SHUTDOWN fan-out to every shard.  Called by
  /// serve_connection after the requester's reply is on the wire.
  void broadcast_shutdown(ShardClients& shards);
  /// One hop: call shard `index` (connecting if needed), enforcing the
  /// response-type echo.  Throws util::Error on any transport-ish failure.
  Response call_shard(std::size_t index, const Request& request, ShardClients& shards);
  /// The request's routing digest (cached: the preimage hashes file bytes).
  std::string routing_digest(const Request& request);

  RouterOptions options_;
  ShardRing ring_;
  std::chrono::steady_clock::time_point started_at_{};
  std::atomic<std::uint64_t> routed_{0};
  std::mutex digest_mutex_;
  /// spec-key -> models_digest.  Trace files are immutable for the life of
  /// a serving run (the same assumption the shard ModelStore makes), and
  /// distinct workloads are few, so this never needs eviction.
  std::unordered_map<std::string, std::string> digest_cache_;  // guarded by digest_mutex_
  /// Last, so it is destroyed first: its destructor stops and joins the
  /// connection threads, which use everything above.
  Listener listener_;
};

}  // namespace pmacx::service
