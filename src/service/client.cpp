#include "service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/error.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"

namespace pmacx::service {
namespace {

using Clock = std::chrono::steady_clock;

void send_all(int fd, const std::string& bytes) {
  // Bounded-EINTR full send via util::io; a false return is a timeout,
  // peer close, or hard error — the retry layer above handles all three.
  if (!util::io::socket_send_all(fd, bytes.data(), bytes.size()))
    throw util::Error(std::string("send failed: ") + std::strerror(errno));
}

void recv_exact(int fd, char* out, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    // socket_recv retries EINTR with a bounded budget; exhaustion surfaces
    // as errno=EINTR and becomes a typed error below, never a spin.
    const ssize_t n = util::io::socket_recv(fd, out + got, size - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0)
      throw util::Error("server closed the connection mid-response (" +
                        std::to_string(got) + " of " + std::to_string(size) + " bytes)");
    if (errno == EAGAIN || errno == EWOULDBLOCK) throw util::Error("receive timed out");
    throw util::Error(std::string("recv failed: ") + std::strerror(errno));
  }
}

/// SHUTDOWN is the one non-idempotent request: a lost response is
/// indistinguishable from a server already draining, so resending it could
/// race a restarted server.  Everything else is safe to resend: the data-
/// plane requests are cached, deterministic derivations, and UPLOAD_TRACE
/// ops are idempotent by construction — the client-chosen session id plus
/// the explicit chunk index mean a resent BEGIN resumes, a resent CHUNK is
/// a metered duplicate no-op (same bytes pwritten at the same offset), and
/// a resent COMMIT of a committed session just re-reports success.
bool retryable(MsgType type) { return type != MsgType::Shutdown; }

}  // namespace

Client::Client(ClientOptions options)
    : options_(std::move(options)), rng_(options_.jitter_seed) {
  connect_with_backoff();
}

Client::~Client() { close_fd(); }

void Client::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::uint64_t Client::jittered_ms(std::uint64_t backoff_ms, double jitter) {
  const double fraction = std::clamp(jitter, 0.0, 1.0);
  const double scale = 1.0 - fraction + rng_.uniform(0.0, fraction);
  return static_cast<std::uint64_t>(static_cast<double>(backoff_ms) * scale);
}

void Client::connect_with_backoff() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  PMACX_CHECK(::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) == 1,
              "bad host address '" + options_.host + "'");

  const Clock::time_point started = Clock::now();
  auto deadline_exceeded = [&] {
    return options_.connect_deadline_ms > 0 &&
           Clock::now() - started >= std::chrono::milliseconds(options_.connect_deadline_ms);
  };

  std::uint64_t backoff_ms = options_.connect_backoff_ms;
  std::string last_error = "no attempts made";
  const unsigned attempts = std::max(1u, options_.connect_attempts);
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Jittered backoff: concurrent clients racing a restarting server
      // spread their reconnects instead of stampeding in lockstep.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(jittered_ms(backoff_ms, options_.connect_jitter)));
      backoff_ms *= 2;
      if (deadline_exceeded()) break;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    PMACX_CHECK(fd >= 0, std::string("socket(): ") + std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      util::io::set_socket_timeouts(fd, options_.io_timeout_ms, options_.io_timeout_ms);
      fd_ = fd;
      return;
    }
    last_error = std::strerror(errno);
    ::close(fd);
  }
  const char* why = deadline_exceeded() ? " (connect deadline exceeded)" : "";
  throw util::Error("cannot connect to " + options_.host + ":" +
                    std::to_string(options_.port) + " after " +
                    std::to_string(options_.connect_attempts) + " attempts" + why + ": " +
                    last_error);
}

void Client::reconnect() {
  close_fd();
  util::metrics::Registry::global().counter("service.client.reconnects").add();
  connect_with_backoff();
}

Response Client::call(const Request& request, MsgType* response_type) {
  PMACX_CHECK(fd_ >= 0, "client is not connected");
  send_all(fd_, encode_request(request));

  std::string header(kHeaderSize, '\0');
  recv_exact(fd_, header.data(), header.size());
  const std::size_t payload_size = frame_payload_size(header);
  std::string rest(payload_size + 4, '\0');  // payload + CRC trailer
  recv_exact(fd_, rest.data(), rest.size());
  // Note: the response type normally echoes the request's, but a server
  // that could not even decode our frame answers with a Status-typed error
  // frame, so the type is informational here (see header for how the
  // router uses it).
  const Frame frame = decode_frame(header + rest);
  if (response_type != nullptr) *response_type = frame.type;
  return decode_response(frame);
}

bool Client::circuit_open() const {
  if (!circuit_open_) return false;
  return Clock::now() - circuit_opened_at_ <
         std::chrono::milliseconds(options_.breaker.cooldown_ms);
}

void Client::record_success() {
  consecutive_failures_ = 0;
  circuit_open_ = false;
}

void Client::record_failure() {
  ++consecutive_failures_;
  if (options_.breaker.failure_threshold > 0 &&
      consecutive_failures_ >= options_.breaker.failure_threshold) {
    if (!circuit_open_)
      util::metrics::Registry::global().counter("service.client.circuit_opened").add();
    circuit_open_ = true;
    circuit_opened_at_ = Clock::now();
  }
}

Response Client::call_with_retry(const Request& request) {
  if (circuit_open())
    throw util::Error("circuit open: " + std::to_string(consecutive_failures_) +
                      " consecutive failures to " + options_.host + ":" +
                      std::to_string(options_.port) + "; cooling down");
  // Past cooldown with the breaker still set: this call is the half-open
  // trial — one request probes the server; success closes the circuit,
  // failure re-opens it for another cooldown.

  const RetryPolicy& policy = options_.retry;
  const Clock::time_point started = Clock::now();
  auto remaining_ms = [&]() -> std::uint64_t {
    if (policy.overall_deadline_ms == 0) return UINT64_MAX;
    const auto spent =
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - started);
    const auto budget = std::chrono::milliseconds(policy.overall_deadline_ms);
    return spent >= budget ? 0 : static_cast<std::uint64_t>((budget - spent).count());
  };

  util::metrics::Registry& registry = util::metrics::Registry::global();
  const unsigned attempts = retryable(request.type) ? std::max(1u, policy.max_attempts) : 1u;
  std::uint64_t backoff_ms = policy.initial_backoff_ms;
  std::string last_error;
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const std::uint64_t budget = remaining_ms();
      if (budget == 0) break;
      const std::uint64_t sleep_ms =
          std::min(jittered_ms(backoff_ms, policy.jitter), budget);
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      backoff_ms = std::min(backoff_ms * 2, policy.max_backoff_ms);
      registry.counter("service.client.retries").add();
      if (remaining_ms() == 0) break;
    }
    try {
      if (fd_ < 0) connect_with_backoff();
      const Response response = call(request);
      if (response.status == Status::Busy && retryable(request.type) &&
          attempt + 1 < attempts) {
        // Shed load is a healthy signal, not a failure: back off and retry
        // without tripping the breaker.
        registry.counter("service.client.busy_retries").add();
        last_error = "server busy: " + response.body;
        continue;
      }
      record_success();
      return response;
    } catch (const util::Error& e) {
      // Transport or framing failure: the stream is unusable — drop the
      // connection so the next attempt starts clean.
      last_error = e.what();
      close_fd();
    }
  }

  record_failure();
  const bool out_of_time = remaining_ms() == 0;
  throw util::Error("request failed after " + std::to_string(attempts) + " attempt(s)" +
                    (out_of_time ? " (overall deadline exceeded)" : "") + ": " +
                    last_error);
}

}  // namespace pmacx::service
