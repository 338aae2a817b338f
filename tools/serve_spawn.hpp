// Process spawning shared by pmacx_loadgen, pmacx_chaos and pmacx_cluster:
// fork/exec a server-shaped child, learn its port from the "<tool> listening
// on <addr>:<port>" banner, and (via Supervisor) keep a fleet of such
// children alive — reaping crashed ones and respawning them with exponential
// backoff on their original port.
#pragma once

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pmacx::tools {

struct SpawnedServer {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// One child process to spawn: the binary, its full argv tail, and the tool
/// name used in exec-failure diagnostics.  The child must print a banner of
/// the form "<anything> listening on <addr>:<port>\n" on stdout once ready.
struct SpawnSpec {
  std::string binary;
  std::vector<std::string> args;  ///< argv[1..]; argv[0] is the binary
  std::string tool = "pmacx";     ///< caller name for diagnostics
};

/// fork/exec per `spec`, blocking until the banner line arrives on the
/// child's stdout.  Throws util::Error when the banner never comes (child
/// died before printing it) or cannot be parsed; the caller owns reaping the
/// pid in that case too (the child, if any, is SIGKILLed first).
inline SpawnedServer spawn_child(const SpawnSpec& spec) {
  int fds[2];
  PMACX_CHECK(::pipe(fds) == 0, std::string("pipe(): ") + std::strerror(errno));

  const pid_t pid = ::fork();
  PMACX_CHECK(pid >= 0, std::string("fork(): ") + std::strerror(errno));
  if (pid == 0) {
    // Child: stdout -> pipe, then become the server.
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[1]);
    std::vector<std::string> args;
    args.reserve(spec.args.size() + 1);
    args.push_back(spec.binary);
    args.insert(args.end(), spec.args.begin(), spec.args.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(spec.binary.c_str(), argv.data());
    std::fprintf(stderr, "%s: exec %s: %s\n", spec.tool.c_str(), spec.binary.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }

  ::close(fds[1]);
  // Read the banner line byte-by-byte (it is tiny and arrives once).
  std::string banner;
  char byte = 0;
  while (banner.size() < 256) {
    const ssize_t n = ::read(fds[0], &byte, 1);
    if (n <= 0 || byte == '\n') break;
    banner.push_back(byte);
  }
  ::close(fds[0]);

  const std::size_t marker = banner.find(" listening on ");
  const std::size_t colon = banner.rfind(':');
  if (marker == std::string::npos || colon == std::string::npos || colon < marker) {
    ::kill(pid, SIGKILL);
    throw util::Error(spec.tool + ": unexpected banner from " + spec.binary + ": '" +
                      banner + "'");
  }
  SpawnedServer server;
  server.pid = pid;
  server.port =
      static_cast<std::uint16_t>(util::parse_flag_u64(banner.substr(colon + 1), "port"));
  return server;
}

/// Legacy single-server helper used by pmacx_loadgen / pmacx_chaos: spawn a
/// pmacx_serve on an ephemeral port.  `metrics_json`, when non-empty, makes
/// the spawned server write its metrics snapshot there on exit.
inline SpawnedServer spawn_server(const std::string& binary, const std::string& metrics_json,
                                  const char* tool) {
  SpawnSpec spec;
  spec.binary = binary;
  spec.tool = tool;
  spec.args = {"--port", "0"};
  if (!metrics_json.empty()) {
    spec.args.push_back("--metrics-json");
    spec.args.push_back(metrics_json);
  }
  return spawn_child(spec);
}

/// Waits for `pid` to exit until `deadline`, then SIGKILLs it; either way
/// the child is reaped.  A pid already reaped elsewhere returns at once.
inline void reap_by(pid_t pid, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    int status = 0;
    const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped == pid || reaped < 0) return;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return;
    }
    ::usleep(10'000);
  }
}

/// Supervises a fleet of banner-printing children: add() spawns one and pins
/// the port it picked (rewriting the value after "--port" in its spec, so an
/// ephemeral first bind becomes a stable address); poll() reaps children
/// that exited and respawns *crashed* ones — killed by a signal or exited
/// nonzero — with exponential backoff, on the pinned port.  A child that
/// exits 0 (clean SHUTDOWN) is reaped and left down: restart-on-crash must
/// not fight an orderly drain.
///
/// Single-threaded by design: one owner calls add/poll/kill_child/
/// terminate_all from one thread (the tools' main loops).
class Supervisor {
 public:
  using Clock = std::chrono::steady_clock;

  struct Child {
    SpawnSpec spec;
    pid_t pid = -1;
    std::uint16_t port = 0;
    std::size_t restarts = 0;        ///< successful respawns after a crash
    bool alive = false;
    bool done = false;               ///< exited cleanly; never respawned
    Clock::time_point respawn_at{};  ///< earliest next respawn attempt
    std::uint64_t backoff_ms = 0;    ///< current crash backoff (doubles)
  };

  explicit Supervisor(std::uint64_t initial_backoff_ms = 50,
                      std::uint64_t max_backoff_ms = 2'000)
      : initial_backoff_ms_(initial_backoff_ms), max_backoff_ms_(max_backoff_ms) {}

  ~Supervisor() { terminate_all(); }

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawns per `spec`, waits for the banner, pins the learned port into the
  /// spec's "--port" argument (appending one if absent) and returns the
  /// child's index.  Throws util::Error when the first spawn fails — a fleet
  /// that never came up is a startup error, not a crash to ride out.
  std::size_t add(SpawnSpec spec) {
    const SpawnedServer spawned = spawn_child(spec);
    Child child;
    child.spec = std::move(spec);
    child.pid = spawned.pid;
    child.port = spawned.port;
    child.alive = true;
    pin_port(child.spec, child.port);
    children_.push_back(std::move(child));
    return children_.size() - 1;
  }

  std::size_t size() const { return children_.size(); }
  const Child& child(std::size_t index) const { return children_.at(index); }
  pid_t pid(std::size_t index) const { return children_.at(index).pid; }
  std::uint16_t port(std::size_t index) const { return children_.at(index).port; }
  std::size_t restarts(std::size_t index) const { return children_.at(index).restarts; }
  bool alive(std::size_t index) const { return children_.at(index).alive; }

  /// Sends `sig` to a live child (the chaos killer's hook).  Returns false
  /// when the child is not currently running.
  bool kill_child(std::size_t index, int sig) {
    Child& child = children_.at(index);
    if (!child.alive) return false;
    return ::kill(child.pid, sig) == 0;
  }

  /// One supervision step: reap children that exited, schedule crashed ones
  /// for respawn (exponential backoff), and respawn those whose backoff has
  /// elapsed.  Returns the number of children currently alive.  Call this
  /// from the owner's main loop at whatever cadence it already polls.
  std::size_t poll() {
    const Clock::time_point now = Clock::now();
    std::size_t live = 0;
    for (Child& child : children_) {
      if (child.alive) {
        int status = 0;
        const pid_t reaped = ::waitpid(child.pid, &status, WNOHANG);
        if (reaped == child.pid) {
          child.alive = false;
          if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            child.done = true;  // clean exit: stays down
          } else {
            child.backoff_ms = child.backoff_ms == 0
                                   ? initial_backoff_ms_
                                   : std::min(child.backoff_ms * 2, max_backoff_ms_);
            child.respawn_at = now + std::chrono::milliseconds(child.backoff_ms);
          }
        }
      }
      if (!child.alive && !child.done && now >= child.respawn_at) {
        try {
          const SpawnedServer spawned = spawn_child(child.spec);
          child.pid = spawned.pid;
          child.port = spawned.port;
          child.alive = true;
          ++child.restarts;
        } catch (const util::Error&) {
          // Spawn itself failed (e.g. the pinned port still in teardown):
          // treat like another crash and keep backing off.
          child.backoff_ms = std::min(std::max(child.backoff_ms, initial_backoff_ms_) * 2,
                                      max_backoff_ms_);
          child.respawn_at = Clock::now() + std::chrono::milliseconds(child.backoff_ms);
        }
      }
      if (child.alive) ++live;
    }
    return live;
  }

  /// Stops supervising: SIGTERM every live child, give the fleet a moment to
  /// drain, SIGKILL stragglers, reap everything.  Idempotent.
  void terminate_all() {
    for (Child& child : children_)
      if (child.alive) ::kill(child.pid, SIGTERM);
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
    for (Child& child : children_) {
      if (!child.alive) continue;
      reap_by(child.pid, deadline);
      child.alive = false;
      child.done = true;
    }
  }

 private:
  static void pin_port(SpawnSpec& spec, std::uint16_t port) {
    for (std::size_t i = 0; i + 1 < spec.args.size(); ++i)
      if (spec.args[i] == "--port") {
        spec.args[i + 1] = std::to_string(port);
        return;
      }
    spec.args.push_back("--port");
    spec.args.push_back(std::to_string(port));
  }

  std::uint64_t initial_backoff_ms_;
  std::uint64_t max_backoff_ms_;
  std::vector<Child> children_;
};

}  // namespace pmacx::tools
