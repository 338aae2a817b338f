#include "util/io.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace pmacx::util::io {
namespace {

/// Which wrapper is asking.  Socket kinds roll only EINTR/short faults and
/// never advance the disk op counter, so crash_after_ops / fail_op budgets
/// stay deterministic no matter how chatty the RPC layer is.
enum class OpKind { Open, Read, Write, Fsync, Rename, Unlink, Close, SocketSend, SocketRecv };

enum class FaultKind {
  None,
  Errno,       ///< fail with Decision::err (EIO / ENOSPC / fail_errno)
  Eintr,       ///< report EINTR; the wrapper's bounded loop retries
  ShortWrite,  ///< transfer only a seeded prefix; the loop continues
  ShortRead,   ///< return only a seeded prefix; the caller's loop continues
  TornRename,  ///< truncate source, really rename, then throw
  FsyncLie,    ///< drop a suffix, report success, arm a crash
  Crash,       ///< SimulatedCrash, latched until faults are re-installed
};

struct Decision {
  FaultKind kind = FaultKind::None;
  int err = 0;
  double fraction = 0.0;  ///< seeded [0,1) prefix size for short/torn/lie
};

struct InjectorState {
  std::mutex mutex;
  FaultConfig cfg;
  Rng rng{0};
  std::uint64_t ops = 0;            ///< faultable disk ops since install
  std::uint64_t bytes_written = 0;  ///< successful write bytes since install
  std::uint64_t crash_arm_at = 0;   ///< op count at which an armed crash fires
  bool crashed = false;
  bool enospc_sticky = false;
};

std::atomic<bool> g_active{false};

InjectorState& state() {
  static InjectorState s;
  return s;
}

/// Every io.* metric, registered on first use so even fault-free runs
/// report them as zeros in snapshots.
struct Counters {
  metrics::Registry& reg = metrics::Registry::global();
  metrics::Counter& ops_open = reg.counter("io.ops.open");
  metrics::Counter& ops_read = reg.counter("io.ops.read");
  metrics::Counter& ops_write = reg.counter("io.ops.write");
  metrics::Counter& ops_fsync = reg.counter("io.ops.fsync");
  metrics::Counter& ops_rename = reg.counter("io.ops.rename");
  metrics::Counter& ops_unlink = reg.counter("io.ops.unlink");
  metrics::Counter& ops_close = reg.counter("io.ops.close");
  metrics::Counter& injected = reg.counter("io.faults.injected");
  metrics::Counter& f_eio = reg.counter("io.faults.eio");
  metrics::Counter& f_enospc = reg.counter("io.faults.enospc");
  metrics::Counter& f_eintr = reg.counter("io.faults.eintr");
  metrics::Counter& f_short_write = reg.counter("io.faults.short_write");
  metrics::Counter& f_short_read = reg.counter("io.faults.short_read");
  metrics::Counter& f_torn_rename = reg.counter("io.faults.torn_rename");
  metrics::Counter& f_fsync_lie = reg.counter("io.faults.fsync_lie");
  metrics::Counter& f_crash = reg.counter("io.faults.crash");
  metrics::Counter& r_eintr = reg.counter("io.retries.eintr");
  metrics::Counter& r_short_write = reg.counter("io.retries.short_write");
  metrics::Counter& r_short_read = reg.counter("io.retries.short_read");
};

Counters& counters() {
  static Counters c;
  return c;
}

void record(FaultKind kind, int err) {
  Counters& c = counters();
  c.injected.add();
  switch (kind) {
    case FaultKind::Errno:
      (err == ENOSPC ? c.f_enospc : c.f_eio).add();
      break;
    case FaultKind::Eintr: c.f_eintr.add(); break;
    case FaultKind::ShortWrite: c.f_short_write.add(); break;
    case FaultKind::ShortRead: c.f_short_read.add(); break;
    case FaultKind::TornRename: c.f_torn_rename.add(); break;
    case FaultKind::FsyncLie: c.f_fsync_lie.add(); break;
    case FaultKind::Crash: c.f_crash.add(); break;
    case FaultKind::None: break;
  }
}

Decision make(FaultKind kind, int err = 0, double fraction = 0.0) {
  record(kind, err);
  return Decision{kind, err, fraction};
}

/// The injector's single choice point.  `write_intent` matters only for
/// Open (a read-only open never fails ENOSPC).  `bytes` is the size the
/// wrapper is about to transfer (threshold accounting).
Decision decide(OpKind kind, std::size_t bytes, bool write_intent) {
  if (!g_active.load(std::memory_order_relaxed)) return {};
  InjectorState& s = state();
  std::scoped_lock lock(s.mutex);

  if (kind == OpKind::SocketSend || kind == OpKind::SocketRecv) {
    if (s.cfg.p_eintr > 0 && s.rng.uniform() < s.cfg.p_eintr)
      return make(FaultKind::Eintr);
    if (kind == OpKind::SocketSend && s.cfg.p_short_write > 0 &&
        s.rng.uniform() < s.cfg.p_short_write)
      return make(FaultKind::ShortWrite, 0, s.rng.uniform());
    if (kind == OpKind::SocketRecv && s.cfg.p_short_read > 0 &&
        s.rng.uniform() < s.cfg.p_short_read)
      return make(FaultKind::ShortRead, 0, s.rng.uniform());
    return {};
  }

  ++s.ops;
  if (s.crashed) return make(FaultKind::Crash);
  if (s.crash_arm_at != 0 && s.ops >= s.crash_arm_at) {
    s.crashed = true;
    return make(FaultKind::Crash);
  }
  if (s.cfg.crash_after_ops != 0 && s.ops >= s.cfg.crash_after_ops) {
    s.crashed = true;
    return make(FaultKind::Crash);
  }

  if (s.cfg.fail_op != 0) {
    // Deterministic single-shot mode: exactly the fail_op-th op fails,
    // probabilistic faults stay silent (the failure-point sweep tests).
    if (s.ops == s.cfg.fail_op)
      return make(FaultKind::Errno, s.cfg.fail_errno != 0 ? s.cfg.fail_errno : EIO);
    return {};
  }

  // Sticky full disk: once cumulative writes pass the threshold, every
  // write-side op fails ENOSPC until faults are re-installed (the read-
  // only-mode leg of the diskchaos sweep).
  const bool write_side =
      kind == OpKind::Write || (kind == OpKind::Open && write_intent);
  if (write_side) {
    if (s.enospc_sticky) return make(FaultKind::Errno, ENOSPC);
    if (s.cfg.enospc_after_bytes != 0 &&
        s.bytes_written + bytes > s.cfg.enospc_after_bytes) {
      s.enospc_sticky = true;
      return make(FaultKind::Errno, ENOSPC);
    }
  }

  switch (kind) {
    case OpKind::Write:
      if (s.cfg.p_eintr > 0 && s.rng.uniform() < s.cfg.p_eintr)
        return make(FaultKind::Eintr);
      if (s.cfg.p_short_write > 0 && s.rng.uniform() < s.cfg.p_short_write)
        return make(FaultKind::ShortWrite, 0, s.rng.uniform());
      if (s.cfg.p_eio > 0 && s.rng.uniform() < s.cfg.p_eio)
        return make(FaultKind::Errno, EIO);
      if (s.cfg.p_enospc > 0 && s.rng.uniform() < s.cfg.p_enospc)
        return make(FaultKind::Errno, ENOSPC);
      break;
    case OpKind::Read:
      if (s.cfg.p_eintr > 0 && s.rng.uniform() < s.cfg.p_eintr)
        return make(FaultKind::Eintr);
      if (s.cfg.p_short_read > 0 && s.rng.uniform() < s.cfg.p_short_read)
        return make(FaultKind::ShortRead, 0, s.rng.uniform());
      if (s.cfg.p_eio > 0 && s.rng.uniform() < s.cfg.p_eio)
        return make(FaultKind::Errno, EIO);
      break;
    case OpKind::Open:
      if (s.cfg.p_eio > 0 && s.rng.uniform() < s.cfg.p_eio)
        return make(FaultKind::Errno, EIO);
      if (write_intent && s.cfg.p_enospc > 0 && s.rng.uniform() < s.cfg.p_enospc)
        return make(FaultKind::Errno, ENOSPC);
      break;
    case OpKind::Fsync:
      if (s.cfg.p_eio > 0 && s.rng.uniform() < s.cfg.p_eio)
        return make(FaultKind::Errno, EIO);
      if (s.cfg.p_fsync_lie > 0 && s.rng.uniform() < s.cfg.p_fsync_lie) {
        // The lie cannot be allowed to persist: a kernel that dropped an
        // acknowledged fsync is moments from dying.  Arm a crash within
        // the next few ops so the workload experiences the real-world
        // sequence (lie, maybe a publish, then power loss).
        s.crash_arm_at = s.ops + 1 + s.rng.below(4);
        return make(FaultKind::FsyncLie, 0, s.rng.uniform());
      }
      break;
    case OpKind::Rename:
      if (s.cfg.p_eio > 0 && s.rng.uniform() < s.cfg.p_eio)
        return make(FaultKind::Errno, EIO);
      if (s.cfg.p_torn_rename > 0 && s.rng.uniform() < s.cfg.p_torn_rename)
        return make(FaultKind::TornRename, 0, s.rng.uniform());
      break;
    case OpKind::Unlink:
    case OpKind::Close:
      if (s.cfg.p_eio > 0 && s.rng.uniform() < s.cfg.p_eio)
        return make(FaultKind::Errno, EIO);
      break;
    case OpKind::SocketSend:
    case OpKind::SocketRecv:
      break;  // handled above
  }
  return {};
}

/// True once the crash latch is set (a "dead" process performs no cleanup).
bool crash_latched() {
  if (!g_active.load(std::memory_order_relaxed)) return false;
  InjectorState& s = state();
  std::scoped_lock lock(s.mutex);
  return s.crashed;
}

void account_write(std::size_t bytes) {
  if (!g_active.load(std::memory_order_relaxed)) return;
  InjectorState& s = state();
  std::scoped_lock lock(s.mutex);
  s.bytes_written += bytes;
}

[[noreturn]] void throw_fault(const Decision& d, const char* op, const std::string& path) {
  if (d.kind == FaultKind::Crash) throw SimulatedCrash(op, path);
  throw IoError(op, path,
                std::string("injected ") + std::strerror(d.err) +
                    (d.err == ENOSPC ? " (device full)" : ""),
                d.err);
}

/// Throws for the fault kinds a wrapper does not handle inline.
void check_fault(const Decision& d, const char* op, const std::string& path) {
  if (d.kind == FaultKind::None) return;
  throw_fault(d, op, path);
}

/// One EINTR retry (real or injected): counts it and throws once the
/// per-call budget is exhausted, so a signal storm ends in a typed error
/// instead of an unbounded spin.
void spend_eintr(int& budget, const char* op, const std::string& path) {
  counters().r_eintr.add();
  if (--budget < 0)
    throw IoError(op, path,
                  "EINTR retry budget exhausted (" +
                      std::to_string(kMaxEintrRetries) + " retries)",
                  EINTR);
}

std::size_t seeded_prefix(std::size_t size, double fraction) {
  if (size <= 1) return size;
  return std::max<std::size_t>(1, static_cast<std::size_t>(
                                      static_cast<double>(size) * fraction));
}

std::string quote(const std::string& s) { return "'" + s + "'"; }

}  // namespace

IoError::IoError(std::string op, std::string path, std::string reason, int err)
    : Error(op + " " + quote(path) + ": " + reason),
      op_(std::move(op)),
      path_(std::move(path)),
      err_(err) {}

SimulatedCrash::SimulatedCrash(std::string op, std::string path)
    : IoError(std::move(op), std::move(path),
              "simulated crash (process assumed dead from here on)", 0) {}

void install_faults(const FaultConfig& config) {
  InjectorState& s = state();
  std::scoped_lock lock(s.mutex);
  s.cfg = config;
  s.rng = Rng(config.seed);
  s.ops = 0;
  s.bytes_written = 0;
  s.crash_arm_at = 0;
  s.crashed = false;
  s.enospc_sticky = false;
  g_active.store(true, std::memory_order_relaxed);
}

void clear_faults() {
  InjectorState& s = state();
  std::scoped_lock lock(s.mutex);
  g_active.store(false, std::memory_order_relaxed);
  s.cfg = FaultConfig{};
  s.crashed = false;
  s.crash_arm_at = 0;
  s.enospc_sticky = false;
}

bool faults_active() { return g_active.load(std::memory_order_relaxed); }

std::uint64_t fault_ops_seen() {
  InjectorState& s = state();
  std::scoped_lock lock(s.mutex);
  return s.ops;
}

FaultConfig parse_fault_spec(const std::string& spec) {
  FaultConfig config;
  for (const std::string& item : split(spec, ',')) {
    const std::string entry{trim(item)};
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    PMACX_CHECK(eq != std::string::npos && eq > 0,
                "fault spec entry '" + entry + "' is not key=value");
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    try {
      if (key == "seed") config.seed = std::stoull(value);
      else if (key == "p_eio") config.p_eio = std::stod(value);
      else if (key == "p_enospc") config.p_enospc = std::stod(value);
      else if (key == "p_short_write") config.p_short_write = std::stod(value);
      else if (key == "p_short_read") config.p_short_read = std::stod(value);
      else if (key == "p_eintr") config.p_eintr = std::stod(value);
      else if (key == "p_torn_rename") config.p_torn_rename = std::stod(value);
      else if (key == "p_fsync_lie") config.p_fsync_lie = std::stod(value);
      else if (key == "crash_after_ops") config.crash_after_ops = std::stoull(value);
      else if (key == "enospc_after_bytes") config.enospc_after_bytes = std::stoull(value);
      else if (key == "fail_op") config.fail_op = std::stoull(value);
      else if (key == "fail_errno") {
        if (value == "eio") config.fail_errno = EIO;
        else if (value == "enospc") config.fail_errno = ENOSPC;
        else config.fail_errno = std::stoi(value);
      } else {
        throw Error("unknown fault spec key '" + key + "'");
      }
    } catch (const std::invalid_argument&) {
      throw Error("bad value '" + value + "' for fault spec key '" + key + "'");
    } catch (const std::out_of_range&) {
      throw Error("bad value '" + value + "' for fault spec key '" + key + "'");
    }
  }
  return config;
}

bool install_faults_from_env() {
  const char* spec = std::getenv("PMACX_IO_FAULTS");
  if (spec == nullptr || *spec == '\0') return false;
  install_faults(parse_fault_spec(spec));
  return true;
}

int open_file(const std::string& path, int flags, unsigned mode) {
  counters().ops_open.add();
  const bool write_intent = (flags & (O_WRONLY | O_RDWR | O_CREAT)) != 0;
  check_fault(decide(OpKind::Open, 0, write_intent), "open", path);
  const int fd = ::open(path.c_str(), flags, static_cast<mode_t>(mode));
  if (fd < 0) throw IoError("open", path, std::strerror(errno), errno);
  return fd;
}

void write_all(int fd, std::string_view data, const std::string& path) {
  counters().ops_write.add();
  int budget = kMaxEintrRetries;
  std::size_t written = 0;
  while (written < data.size()) {
    std::size_t want = data.size() - written;
    const Decision d = decide(OpKind::Write, want, true);
    if (d.kind == FaultKind::Eintr) {
      spend_eintr(budget, "write", path);
      continue;
    }
    if (d.kind == FaultKind::ShortWrite) {
      want = seeded_prefix(want, d.fraction);
      counters().r_short_write.add();
    } else {
      check_fault(d, "write", path);
    }
    const ssize_t n = ::write(fd, data.data() + written, want);
    if (n < 0 && errno == EINTR) {
      spend_eintr(budget, "write", path);
      continue;
    }
    if (n < 0) throw IoError("write", path, std::strerror(errno), errno);
    if (n == 0) throw IoError("write", path, "short write (0 bytes accepted)");
    written += static_cast<std::size_t>(n);
    account_write(static_cast<std::size_t>(n));
  }
}

void pwrite_all(int fd, std::string_view data, std::uint64_t offset,
                const std::string& path) {
  counters().ops_write.add();
  int budget = kMaxEintrRetries;
  std::size_t written = 0;
  while (written < data.size()) {
    std::size_t want = data.size() - written;
    const Decision d = decide(OpKind::Write, want, true);
    if (d.kind == FaultKind::Eintr) {
      spend_eintr(budget, "pwrite", path);
      continue;
    }
    if (d.kind == FaultKind::ShortWrite) {
      want = seeded_prefix(want, d.fraction);
      counters().r_short_write.add();
    } else {
      check_fault(d, "pwrite", path);
    }
    const ssize_t n = ::pwrite(fd, data.data() + written, want,
                               static_cast<off_t>(offset + written));
    if (n < 0 && errno == EINTR) {
      spend_eintr(budget, "pwrite", path);
      continue;
    }
    if (n < 0) throw IoError("pwrite", path, std::strerror(errno), errno);
    if (n == 0) throw IoError("pwrite", path, "short write (0 bytes accepted)");
    written += static_cast<std::size_t>(n);
    account_write(static_cast<std::size_t>(n));
  }
}

std::size_t read_some(int fd, char* out, std::size_t size, const std::string& path) {
  counters().ops_read.add();
  int budget = kMaxEintrRetries;
  for (;;) {
    std::size_t want = size;
    const Decision d = decide(OpKind::Read, size, false);
    if (d.kind == FaultKind::Eintr) {
      spend_eintr(budget, "read", path);
      continue;
    }
    if (d.kind == FaultKind::ShortRead) {
      want = seeded_prefix(want, d.fraction);
      counters().r_short_read.add();
    } else {
      check_fault(d, "read", path);
    }
    const ssize_t n = ::read(fd, out, want);
    if (n < 0 && errno == EINTR) {
      spend_eintr(budget, "read", path);
      continue;
    }
    if (n < 0) throw IoError("read", path, std::strerror(errno), errno);
    return static_cast<std::size_t>(n);
  }
}

std::size_t pread_some(int fd, char* out, std::size_t size, std::uint64_t offset,
                       const std::string& path) {
  counters().ops_read.add();
  int budget = kMaxEintrRetries;
  for (;;) {
    std::size_t want = size;
    const Decision d = decide(OpKind::Read, size, false);
    if (d.kind == FaultKind::Eintr) {
      spend_eintr(budget, "pread", path);
      continue;
    }
    if (d.kind == FaultKind::ShortRead) {
      want = seeded_prefix(want, d.fraction);
      counters().r_short_read.add();
    } else {
      check_fault(d, "pread", path);
    }
    const ssize_t n = ::pread(fd, out, want, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) {
      spend_eintr(budget, "pread", path);
      continue;
    }
    if (n < 0) throw IoError("pread", path, std::strerror(errno), errno);
    return static_cast<std::size_t>(n);
  }
}

void truncate_file(int fd, std::uint64_t size, const std::string& path) {
  counters().ops_write.add();
  check_fault(decide(OpKind::Write, 0, true), "ftruncate", path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0)
    throw IoError("ftruncate", path, std::strerror(errno), errno);
}

void fsync_file(int fd, const std::string& path) {
  counters().ops_fsync.add();
  const Decision d = decide(OpKind::Fsync, 0, true);
  if (d.kind == FaultKind::FsyncLie) {
    // The one fault that cannot be surfaced: report success while a suffix
    // of the file silently evaporates.  The injector has already armed a
    // crash a few ops out; recovery (CRC trailers, stream validation, the
    // scrubber) is what must catch this, not the caller.
    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      const auto keep = static_cast<off_t>(
          seeded_prefix(static_cast<std::size_t>(st.st_size), d.fraction) - 1);
      ::ftruncate(fd, std::max<off_t>(keep, 0));
    }
    return;
  }
  check_fault(d, "fsync", path);
  int budget = kMaxEintrRetries;
  while (::fsync(fd) != 0) {
    if (errno == EINTR) {
      spend_eintr(budget, "fsync", path);
      continue;
    }
    throw IoError("fsync", path, std::strerror(errno), errno);
  }
}

void fsync_dir_best_effort(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

void rename_file(const std::string& from, const std::string& to) {
  counters().ops_rename.add();
  const Decision d = decide(OpKind::Rename, 0, true);
  if (d.kind == FaultKind::TornRename) {
    // Model a crash between data writeback and the publish becoming
    // durable: the name appears, the content is a prefix.  The caller sees
    // a failed publish; the disk holds exactly what a torn rename leaves.
    struct stat st{};
    if (::stat(from.c_str(), &st) == 0 && st.st_size > 0) {
      const auto keep = static_cast<off_t>(
          seeded_prefix(static_cast<std::size_t>(st.st_size), d.fraction) - 1);
      ::truncate(from.c_str(), std::max<off_t>(keep, 0));
    }
    ::rename(from.c_str(), to.c_str());
    throw IoError("rename", to,
                  "injected torn rename (crash between writeback and publish of '" +
                      from + "')");
  }
  check_fault(d, "rename", to);
  if (::rename(from.c_str(), to.c_str()) != 0)
    throw IoError("rename", to,
                  "from '" + from + "': " + std::strerror(errno), errno);
}

void unlink_file(const std::string& path) {
  counters().ops_unlink.add();
  check_fault(decide(OpKind::Unlink, 0, false), "unlink", path);
  if (::unlink(path.c_str()) != 0)
    throw IoError("unlink", path, std::strerror(errno), errno);
}

bool unlink_quiet(const std::string& path) noexcept {
  counters().ops_unlink.add();
  // A process the injector has declared dead performs no cleanup: leaving
  // the temp behind is the point — the scrubber must earn its keep.
  if (crash_latched()) return false;
  const Decision d = decide(OpKind::Unlink, 0, false);
  if (d.kind != FaultKind::None) return false;  // best-effort: swallow, already metered
  return ::unlink(path.c_str()) == 0;
}

void close_file(int fd, const std::string& path) {
  counters().ops_close.add();
  const Decision d = decide(OpKind::Close, 0, false);
  // The real fd is closed regardless (as the kernel does): an injected
  // close error must not leak descriptors across a long chaos sweep.
  const int rc = ::close(fd);
  check_fault(d, "close", path);
  if (rc != 0) throw IoError("close", path, std::strerror(errno), errno);
}

void close_quiet(int fd) noexcept {
  if (fd < 0) return;
  counters().ops_close.add();
  ::close(fd);
}

ssize_t socket_recv(int fd, char* out, std::size_t size) noexcept {
  int budget = kMaxEintrRetries;
  for (;;) {
    std::size_t want = size;
    const Decision d = decide(OpKind::SocketRecv, size, false);
    if (d.kind == FaultKind::Eintr) {
      counters().r_eintr.add();
      if (--budget < 0) {
        errno = EINTR;
        return -1;
      }
      continue;
    }
    if (d.kind == FaultKind::ShortRead) want = seeded_prefix(want, d.fraction);
    const ssize_t n = ::recv(fd, out, want, 0);
    if (n < 0 && errno == EINTR) {
      counters().r_eintr.add();
      if (--budget < 0) {
        errno = EINTR;
        return -1;
      }
      continue;
    }
    return n;
  }
}

bool socket_send_all(int fd, const char* data, std::size_t size) noexcept {
  int budget = kMaxEintrRetries;
  std::size_t sent = 0;
  while (sent < size) {
    std::size_t want = size - sent;
    const Decision d = decide(OpKind::SocketSend, want, false);
    if (d.kind == FaultKind::Eintr) {
      counters().r_eintr.add();
      if (--budget < 0) return false;
      continue;
    }
    if (d.kind == FaultKind::ShortWrite) {
      want = seeded_prefix(want, d.fraction);
      counters().r_short_write.add();
    }
    const ssize_t n = ::send(fd, data + sent, want, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      counters().r_eintr.add();
      if (--budget < 0) return false;
      continue;
    }
    return false;  // timeout, peer close, or hard error
  }
  return true;
}

void set_socket_timeouts(int fd, std::uint64_t recv_ms, std::uint64_t send_ms) noexcept {
  auto as_timeval = [](std::uint64_t ms) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    return tv;
  };
  const timeval recv_tv = as_timeval(recv_ms);
  const timeval send_tv = as_timeval(send_ms);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_tv, sizeof(recv_tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_tv, sizeof(send_tv));
}

}  // namespace pmacx::util::io
