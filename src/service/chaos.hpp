// Network chaos proxy for hardening tests.
//
// A ChaosProxy sits between a pmacx-rpc-v1 client and a live pmacx_serve,
// forwarding raw bytes in both directions while injecting the failure modes
// a real network (or a hostile peer) produces:
//
//   * partial writes   — a forwarded chunk is split into several tiny sends
//   * short reads      — the proxy drains the socket a few bytes at a time,
//                        so the peer sees maximally fragmented frames
//   * delayed frames   — a chunk sits in the proxy before being forwarded
//   * duplicated frames— a chunk is forwarded twice (stream corruption; the
//                        receiver must answer ParseError, not crash)
//   * slow-loris       — bytes trickle through one at a time with a delay
//   * mid-frame cut    — only a prefix of a chunk is forwarded, then the
//                        connection is closed (torn frame)
//   * connection reset — SO_LINGER(0) + close, so both sides see a hard RST
//
// Every decision draws from a util::Rng seeded hierarchically from
// ChaosOptions::seed (per connection, per direction), so a failing seed
// replays the exact same fault schedule.  A relay that ends any way but a
// clean EOF is torn down on both sides, so neither peer waits out its own
// I/O timeout on a dead link.  Client connections run on a
// service::Listener (listener.hpp), which reaps finished relays and counts
// them as chaos.conn.{accepted,reaped}.
//
// This is a test harness, linked into pmacx_chaos and the robustness tests;
// production clients connect to the server directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "service/listener.hpp"

namespace pmacx::service {

struct ChaosOptions {
  std::string bind = "127.0.0.1";  ///< address the proxy listens on
  std::uint16_t port = 0;          ///< 0 = pick an ephemeral port
  std::string upstream_host = "127.0.0.1";
  std::uint16_t upstream_port = 0;  ///< the real server
  std::uint64_t seed = 1;           ///< root of the per-connection fault schedule

  // Per-chunk fault probabilities.  Terminal faults (reset, mid-frame cut)
  // are drawn first; the rest degrade delivery without ending the relay.
  double p_reset = 0.02;      ///< hard RST to both sides
  double p_cut = 0.02;        ///< forward a prefix, then close (torn frame)
  double p_delay = 0.15;      ///< hold the chunk before forwarding
  double p_duplicate = 0.03;  ///< forward the chunk twice
  double p_trickle = 0.05;    ///< 1-byte writes with a per-byte delay
  double p_partial = 0.25;    ///< split the chunk into small writes
  double p_short_read = 0.25; ///< drain the socket a few bytes at a time

  std::uint64_t max_delay_ms = 40;     ///< delayed-frame hold, uniform [1, max]
  std::uint64_t trickle_delay_ms = 5;  ///< per-byte delay while trickling
  std::size_t trickle_bytes = 32;      ///< bytes trickled before resuming bulk
};

/// Counters across every relayed connection (atomics: two pump threads per
/// connection update them concurrently).
struct ChaosStats {
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> bytes_forwarded{0};
  std::atomic<std::uint64_t> resets{0};
  std::atomic<std::uint64_t> cuts{0};
  std::atomic<std::uint64_t> delays{0};
  std::atomic<std::uint64_t> duplicates{0};
  std::atomic<std::uint64_t> trickles{0};
  std::atomic<std::uint64_t> partials{0};
  std::atomic<std::uint64_t> upstream_failures{0};  ///< could not reach the server
};

class ChaosProxy {
 public:
  /// Binds and listens immediately (port() is valid after construction).
  /// Throws util::Error on socket/bind/listen failure.
  explicit ChaosProxy(ChaosOptions options);

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Spawns the accept loop in a background thread.
  void start();

  /// Requests shutdown (atomic store only; safe from any thread).
  void stop() { listener_.stop(); }

  /// Blocks until the accept loop and every relay thread have exited.
  void wait() { listener_.wait(); }

  const ChaosStats& stats() const { return stats_; }

 private:
  /// One client connection: dials the upstream, pumps client -> upstream
  /// on this thread and upstream -> client on one extra thread.
  void relay(int client_fd);
  /// One direction of a relay: reads from `from`, forwards to `to` with
  /// faults drawn from `seed`'s stream.
  void pump(int from, int to, std::uint64_t seed);

  ChaosOptions options_;
  ChaosStats stats_;
  /// Relays that reached the upstream so far: the connection index of the
  /// fault schedule.
  std::atomic<std::uint64_t> relays_started_{0};
  /// Last, so it is destroyed first: its destructor stops and joins the
  /// connection threads, which use everything above.
  Listener listener_;
};

}  // namespace pmacx::service
