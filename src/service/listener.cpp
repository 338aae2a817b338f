#include "service/listener.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/error.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"
#include "util/parse_error.hpp"

namespace pmacx::service {
namespace {

using Clock = std::chrono::steady_clock;

void count(const std::string& name) { util::metrics::Registry::global().counter(name).add(); }

enum class ReadStatus { Ok, Closed, Reset, Stopped, TimedOut, IdleTimedOut };

/// Reads exactly `size` bytes.  Idle waits (no bytes of the message read
/// yet) are bounded by `idle_timeout_ms` (0 = only close/stop ends them);
/// once a message has started, the read must complete within
/// `read_timeout_ms` (slow-loris guard).  Hard socket errors report Reset
/// so the caller can meter them separately from orderly closes.
ReadStatus read_exact(int fd, char* out, std::size_t size, const std::atomic<bool>& stop,
                      std::uint64_t idle_timeout_ms, std::uint64_t read_timeout_ms) {
  std::size_t got = 0;
  const Clock::time_point idle_started = Clock::now();
  Clock::time_point started{};
  while (got < size) {
    // socket_recv retries EINTR with a bounded budget; an exhausted budget
    // surfaces as errno=EINTR below and drops the connection (Reset)
    // instead of spinning forever under a signal storm.
    const ssize_t n = util::io::socket_recv(fd, out + got, size - got);
    if (n > 0) {
      if (got == 0) started = Clock::now();
      got += static_cast<std::size_t>(n);
      // Enforce the window even when bytes keep arriving: a peer trickling
      // at just under the poll interval must not evade the slow-loris guard
      // by keeping every recv fed.
      if (got < size &&
          Clock::now() - started > std::chrono::milliseconds(read_timeout_ms))
        return ReadStatus::TimedOut;
      continue;
    }
    if (n == 0) return ReadStatus::Closed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (stop.load(std::memory_order_relaxed)) return ReadStatus::Stopped;
      if (got > 0) {
        if (Clock::now() - started > std::chrono::milliseconds(read_timeout_ms))
          return ReadStatus::TimedOut;
      } else if (idle_timeout_ms > 0 && Clock::now() - idle_started >
                                            std::chrono::milliseconds(idle_timeout_ms)) {
        return ReadStatus::IdleTimedOut;
      }
      continue;
    }
    return ReadStatus::Reset;  // hard socket error: drop the connection
  }
  return ReadStatus::Ok;
}

}  // namespace

Listener::Listener(const std::string& bind, std::uint16_t port, std::string metric_prefix,
                   std::uint64_t send_timeout_ms)
    : metric_prefix_(std::move(metric_prefix)), send_timeout_ms_(send_timeout_ms) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  PMACX_CHECK(listen_fd_ >= 0, std::string("socket(): ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  std::string failure;
  if (::inet_pton(AF_INET, bind.c_str(), &addr.sin_addr) != 1)
    failure = "bad bind address '" + bind + "'";
  else if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    failure = "bind " + bind + ":" + std::to_string(port) + ": " + std::strerror(errno);
  else if (::listen(listen_fd_, 64) != 0)
    failure = std::string("listen: ") + std::strerror(errno);
  if (!failure.empty()) {
    ::close(listen_fd_);
    throw util::Error(failure);
  }

  sockaddr_in bound{};
  socklen_t bound_size = sizeof(bound);
  PMACX_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_size) == 0,
              "getsockname failed");
  port_ = ntohs(bound.sin_port);
}

Listener::~Listener() {
  stop();
  wait();
  ::close(listen_fd_);
}

void Listener::start(Handler handler) {
  PMACX_CHECK(!handler_, "Listener::start called twice");
  handler_ = std::move(handler);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Listener::reap_finished() {
  std::vector<std::thread> victims;
  {
    std::scoped_lock lock(connections_mutex_);
    for (std::uint64_t id : finished_) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      victims.push_back(std::move(it->second.thread));
      connections_.erase(it);
    }
    finished_.clear();
  }
  // Join outside the lock: these threads have (at most) their final return
  // left, so each join is effectively instant.
  for (std::thread& victim : victims) {
    victim.join();
    count(metric_prefix_ + ".conn.reaped");
  }
}

void Listener::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    reap_finished();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0) continue;  // timeout (stop re-check) or EINTR

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    count(metric_prefix_ + ".conn.accepted");
    util::io::set_socket_timeouts(fd, kPollMs, send_timeout_ms_);

    std::scoped_lock lock(connections_mutex_);
    const std::uint64_t id = next_connection_id_++;
    Connection& connection = connections_[id];
    connection.fd = fd;
    connection.thread = std::thread([this, fd, id] { serve(fd, id); });
  }

  // Stopping: unblock every connection read so their threads can exit.
  std::scoped_lock lock(connections_mutex_);
  for (auto& [id, connection] : connections_)
    if (connection.fd >= 0) ::shutdown(connection.fd, SHUT_RDWR);
}

void Listener::serve(int fd, std::uint64_t id) {
  handler_(fd);
  // Close under the lock that stop's shutdown pass holds, so that pass
  // never touches the descriptor after its number may have been reused;
  // then queue the id for joining on the accept loop's next tick.
  std::scoped_lock lock(connections_mutex_);
  ::close(fd);
  auto it = connections_.find(id);
  if (it != connections_.end()) it->second.fd = -1;
  finished_.push_back(id);
}

void Listener::wait(const std::function<void()>& before_join) {
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop has exited, so connections_ can no longer grow.
  std::vector<std::thread> threads;
  {
    std::scoped_lock lock(connections_mutex_);
    for (auto& [id, connection] : connections_)
      if (connection.thread.joinable()) threads.push_back(std::move(connection.thread));
  }
  if (before_join) before_join();
  for (std::thread& thread : threads) thread.join();
  std::scoped_lock lock(connections_mutex_);
  connections_.clear();
  finished_.clear();
}

FrameReader::FrameReader(int fd, const std::atomic<bool>& stop, std::uint64_t idle_timeout_ms,
                         std::uint64_t read_timeout_ms, const std::string& metric_prefix,
                         std::string parse_error_counter)
    : fd_(fd),
      stop_(stop),
      idle_timeout_ms_(idle_timeout_ms),
      read_timeout_ms_(read_timeout_ms),
      timeout_counter_(metric_prefix + ".conn.timeout"),
      reset_counter_(metric_prefix + ".conn.reset"),
      parse_error_counter_(std::move(parse_error_counter)),
      header_(kHeaderSize, '\0') {}

std::optional<Request> FrameReader::next() {
  if (stop_.load(std::memory_order_relaxed)) return std::nullopt;
  auto read_ok = [this](std::string& buffer, std::uint64_t idle_timeout_ms) {
    const ReadStatus status = read_exact(fd_, buffer.data(), buffer.size(), stop_,
                                         idle_timeout_ms, read_timeout_ms_);
    if (status == ReadStatus::TimedOut || status == ReadStatus::IdleTimedOut)
      count(timeout_counter_);
    else if (status == ReadStatus::Reset)
      count(reset_counter_);
    return status == ReadStatus::Ok;
  };
  if (!read_ok(header_, idle_timeout_ms_)) return std::nullopt;

  Frame frame;
  try {
    body_.resize(frame_payload_size(header_) + 4);  // payload + CRC trailer
    // The body is mid-message from its first byte: the read window applies
    // to the whole wait, idle leniency does not.
    if (!read_ok(body_, read_timeout_ms_)) return std::nullopt;
    frame = decode_frame(header_ + body_);
    return decode_request(frame);
  } catch (const util::ParseError& e) {
    // The stream is unsynchronized after a malformed frame: answer with an
    // error frame (frame.type is still STATUS unless the frame decoded),
    // then drop the connection.
    count(parse_error_counter_);
    Response response;
    response.status = Status::Error;
    response.body = e.what();
    util::io::socket_send_all(fd_, encode_response(frame.type, response));
    return std::nullopt;
  }
}

bool FrameReader::reply(MsgType type, const Response& response) {
  if (util::io::socket_send_all(fd_, encode_response(type, response))) return true;
  count(reset_counter_);
  return false;
}

}  // namespace pmacx::service
