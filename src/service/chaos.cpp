#include "service/chaos.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

#include "util/io.hpp"
#include "util/rng.hpp"

namespace pmacx::service {
namespace {

/// Arms abortive close: once set, close() discards pending data and (for an
/// established connection) answers the peer with RST instead of FIN.
void set_linger_abort(int fd) {
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

ChaosProxy::ChaosProxy(ChaosOptions options)
    : options_(std::move(options)),
      listener_(options_.bind, options_.port, "chaos", Listener::kPollMs) {}

void ChaosProxy::start() {
  listener_.start([this](int fd) { relay(fd); });
}

void ChaosProxy::relay(int client_fd) {
  // Dial the real server.
  sockaddr_in upstream{};
  upstream.sin_family = AF_INET;
  upstream.sin_port = htons(options_.upstream_port);
  const int upstream_fd =
      ::inet_pton(AF_INET, options_.upstream_host.c_str(), &upstream.sin_addr) == 1
          ? ::socket(AF_INET, SOCK_STREAM, 0)
          : -1;
  if (upstream_fd < 0 ||
      ::connect(upstream_fd, reinterpret_cast<const sockaddr*>(&upstream),
                sizeof(upstream)) != 0) {
    stats_.upstream_failures.fetch_add(1, std::memory_order_relaxed);
    if (upstream_fd >= 0) ::close(upstream_fd);
    set_linger_abort(client_fd);  // the client sees the outage as a reset
    return;
  }
  util::io::set_socket_timeouts(upstream_fd, Listener::kPollMs, Listener::kPollMs);
  stats_.connections.fetch_add(1, std::memory_order_relaxed);

  // Independent fault streams per connection and per direction, all
  // reproducible from the root seed.
  const std::uint64_t conn_seed = util::derive_seed(
      options_.seed, relays_started_.fetch_add(1, std::memory_order_relaxed));
  std::thread to_client(
      [&] { pump(upstream_fd, client_fd, util::derive_seed(conn_seed, 1)); });
  pump(client_fd, upstream_fd, util::derive_seed(conn_seed, 0));
  to_client.join();
  ::close(upstream_fd);
}

void ChaosProxy::pump(int from, int to, std::uint64_t seed) {
  util::Rng rng(seed);
  char buf[4096];
  bool saw_eof = false;
  while (!listener_.stopping()) {
    // Short reads: drain the socket a few bytes at a time so the receiver
    // sees frames fragmented at arbitrary boundaries.
    std::size_t cap = sizeof(buf);
    if (rng.uniform() < options_.p_short_read) cap = 1 + rng.below(7);
    const ssize_t n = util::io::socket_recv(from, buf, cap);
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // poll tick
      break;  // hard error, EINTR budget exhausted, relay torn down, peer reset
    }
    const std::size_t size = static_cast<std::size_t>(n);

    // Terminal faults first: they end the relay for both sides, and the
    // abortive close makes both peers see a hard RST, not a graceful FIN.
    double roll = rng.uniform();
    if (roll < options_.p_reset) {
      stats_.resets.fetch_add(1, std::memory_order_relaxed);
      set_linger_abort(from);
      set_linger_abort(to);
      break;
    }
    roll -= options_.p_reset;
    if (roll < options_.p_cut && size > 1) {
      // Torn frame: a prefix makes it through, then the line goes dead.
      util::io::socket_send_all(to, buf, 1 + rng.below(size - 1));
      stats_.cuts.fetch_add(1, std::memory_order_relaxed);
      set_linger_abort(from);
      set_linger_abort(to);
      break;
    }

    if (rng.uniform() < options_.p_delay) {
      stats_.delays.fetch_add(1, std::memory_order_relaxed);
      sleep_ms(1 + rng.below(std::max<std::uint64_t>(1, options_.max_delay_ms)));
    }

    bool ok;
    if (rng.uniform() < options_.p_trickle) {
      // Slow loris: leading bytes go out one at a time with a delay, the
      // rest in one piece (so the test stays bounded in wall clock).
      stats_.trickles.fetch_add(1, std::memory_order_relaxed);
      const std::size_t slow = std::min(size, options_.trickle_bytes);
      ok = true;
      for (std::size_t i = 0; ok && i < slow; ++i) {
        ok = util::io::socket_send_all(to, buf + i, 1);
        sleep_ms(options_.trickle_delay_ms);
      }
      if (ok && slow < size) ok = util::io::socket_send_all(to, buf + slow, size - slow);
    } else if (rng.uniform() < options_.p_partial) {
      // Partial writes: the chunk crosses in randomly sized pieces.
      stats_.partials.fetch_add(1, std::memory_order_relaxed);
      std::size_t sent = 0;
      ok = true;
      while (ok && sent < size) {
        const std::size_t piece = std::min(size - sent, 1 + rng.below(16));
        ok = util::io::socket_send_all(to, buf + sent, piece);
        sent += piece;
      }
    } else {
      ok = util::io::socket_send_all(to, buf, size);
    }
    if (ok && rng.uniform() < options_.p_duplicate) {
      // Duplicated frame: the receiver's stream is now corrupt and must be
      // answered with ParseError, never a crash.
      stats_.duplicates.fetch_add(1, std::memory_order_relaxed);
      ok = util::io::socket_send_all(to, buf, size);
    }
    if (!ok) break;
    stats_.bytes_forwarded.fetch_add(size, std::memory_order_relaxed);
  }
  if (saw_eof) {
    ::shutdown(to, SHUT_WR);  // propagate the half-close
  } else {
    // Any other exit (a reset from the far side, a failed send, a terminal
    // fault, stop) ends the relay for both peers now; otherwise the other
    // peer would wait out its own I/O timeout on a relay that is dead.
    ::shutdown(from, SHUT_RDWR);
    ::shutdown(to, SHUT_RDWR);
  }
}

}  // namespace pmacx::service
