// The TCP connection layer shared by Server, Router and ChaosProxy.
//
// A Listener owns one listening socket and everything around it: the
// poll-driven accept loop, one thread per accepted connection, the reaper
// that joins finished connection threads on every poll tick (so connection
// churn of any length holds memory proportional to *live* connections
// only), the shutdown of live connections at stop, and wait().  It does not
// know whom it serves: the caller's handler does the per-connection work,
// and the metric prefix and send timeout are constructor arguments.
//
// A FrameReader is the request side of one pmacx-rpc-v1 connection: it
// reads frames under the connection defense (a peer that starts a frame but
// trickles it is cut off after `read_timeout_ms`; one that sits silent
// longer than `idle_timeout_ms` is reaped), decodes them, answers malformed
// ones with an Error frame, and sends the replies.
//
// Counters, all under the caller's prefix (`service` for the Server,
// `service.router` for the Router, `chaos` for the proxy):
// <prefix>.conn.accepted and .reaped from the Listener, .timeout and .reset
// from the FrameReader.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/protocol.hpp"

namespace pmacx::service {

class Listener {
 public:
  /// Receive timeout set on accepted sockets: how often a blocked read
  /// wakes to re-check stop(), and so the bound on how long stop() goes
  /// unnoticed.
  static constexpr int kPollMs = 100;

  /// Called on a connection's own thread with the accepted socket; the
  /// Listener closes the socket once the handler returns.
  using Handler = std::function<void(int fd)>;

  /// Binds and listens immediately (so port() is valid and a bind conflict
  /// throws here, not in the background thread).  Accepted sockets get a
  /// kPollMs receive timeout and `send_timeout_ms` (0 = none) for sends.
  /// Throws util::Error on socket/bind/listen failure.
  Listener(const std::string& bind, std::uint16_t port, std::string metric_prefix,
           std::uint64_t send_timeout_ms);
  ~Listener();  ///< stop() + wait()

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The port actually bound (resolves port 0 to the ephemeral choice).
  std::uint16_t port() const { return port_; }

  /// Spawns the accept loop; each accepted connection runs `handler`.
  void start(Handler handler);

  /// Requests shutdown.  Async-signal-safe: only stores an atomic flag.
  void stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stopping() const { return stop_.load(std::memory_order_relaxed); }
  /// The flag stop() sets, for handlers that poll it between reads.
  const std::atomic<bool>& stop_flag() const { return stop_; }

  /// Blocks until the accept loop has exited (shutting down every live
  /// connection on its way out) and every connection thread has been
  /// joined.  `before_join`, when set, runs in between: the Server cancels
  /// queued handler work there so its connection threads can finish.
  /// Idempotent.
  void wait(const std::function<void()>& before_join = {});

 private:
  struct Connection {
    int fd = -1;  ///< -1 once closed, so stop never shuts down a recycled fd
    std::thread thread;
  };

  void accept_loop();
  void serve(int fd, std::uint64_t id);
  /// The reaper: joins (and forgets) every connection thread that finished.
  void reap_finished();

  std::string metric_prefix_;
  std::uint64_t send_timeout_ms_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  Handler handler_;
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::uint64_t next_connection_id_ = 0;                       // guarded by connections_mutex_
  std::unordered_map<std::uint64_t, Connection> connections_;  // guarded by it too
  std::vector<std::uint64_t> finished_;                        // ids awaiting the reaper
};

class FrameReader {
 public:
  /// Reads from `fd` (an accepted socket with a Listener::kPollMs receive
  /// timeout) until `stop` is set.  Malformed frames and requests count
  /// toward `parse_error_counter`.
  FrameReader(int fd, const std::atomic<bool>& stop, std::uint64_t idle_timeout_ms,
              std::uint64_t read_timeout_ms, const std::string& metric_prefix,
              std::string parse_error_counter);

  /// The next request, or nullopt once the connection is done: closed,
  /// reset, timed out, stopped, or malformed.  A malformed frame or request
  /// has already been answered with an Error frame (typed STATUS when the
  /// frame itself did not decode, else typed like the request), since the
  /// stream cannot be trusted after it.
  std::optional<Request> next();

  /// Sends `response` framed as `type`; false (counted as a reset) when the
  /// send times out or fails.
  bool reply(MsgType type, const Response& response);

 private:
  int fd_;
  const std::atomic<bool>& stop_;
  std::uint64_t idle_timeout_ms_;
  std::uint64_t read_timeout_ms_;
  std::string timeout_counter_;
  std::string reset_counter_;
  std::string parse_error_counter_;
  std::string header_;
  std::string body_;
};

}  // namespace pmacx::service
