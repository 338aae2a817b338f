// util::io — the one gate every durable-state byte passes through.
//
// The serving stack keeps real on-disk state (ckpt-v3 checkpoints, ingest
// spools, collection manifests, atomically published traces), and every
// byte of it used to reach the kernel through bare ::open/::write/::fsync
// calls that assumed storage never fails.  This header is the storage-side
// twin of service::ChaosProxy: a narrow wrapper API over the POSIX file
// calls with a seeded, deterministic fault injector underneath, so the
// failure modes production disks actually exhibit — EIO, ENOSPC, short
// writes, EINTR storms, a crash that tears a rename in half, an fsync that
// reports success after dropping the writes — can be rehearsed in-process,
// under ASan, on every seed of a CI sweep (tools/pmacx_diskchaos.cpp).
//
// Contract for callers (util::atomic_file, core::ModelCheckpoint,
// ingest::upload, ingest::CollectionRegistry, ingest::Scrub):
//
//   * Every wrapper either completes the operation or throws a typed
//     IoError naming the operation, the path, and the errno — never a
//     silent partial success, never a crash.  EINTR and short transfers
//     are retried internally with a *bounded* loop (kMaxEintrRetries) so a
//     signal storm degrades into a clean error instead of a spin.
//   * SimulatedCrash (a subclass) models the process dying mid-operation:
//     once it fires, every subsequent faultable call throws it too, and
//     best-effort cleanup (unlink_quiet) becomes a no-op — exactly the
//     disk state a real SIGKILL leaves behind.  Harnesses catch it, treat
//     it as a restart, and re-install faults with a derived seed.
//   * With no faults installed (the production default) each wrapper is a
//     thin retry loop over the syscall; the fast path is one relaxed
//     atomic load.
//
// Observability: io.ops.* count syscall-level operations, io.faults.*
// count injected faults by kind (io.faults.injected totals them), and
// io.retries.* count absorbed EINTR/short-transfer retries.  All live in
// util::metrics::Registry::global() (docs/OBSERVABILITY.md).
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace pmacx::util::io {

/// Upper bound on consecutive EINTR (or injected-EINTR) retries before a
/// wrapper gives up with errno=EINTR.  Generous for real signal traffic,
/// small enough that p_eintr=1 proves the loops are bounded in one test.
inline constexpr int kMaxEintrRetries = 16;

/// Typed storage error: operation + path + errno context, always thrown,
/// never printed-and-ignored.  err() is the errno (0 for logical faults
/// like a torn rename detected by the injector).
class IoError : public Error {
 public:
  IoError(std::string op, std::string path, std::string reason, int err = 0);

  const std::string& op() const { return op_; }
  const std::string& path() const { return path_; }
  int err() const { return err_; }

 private:
  std::string op_;
  std::string path_;
  int err_;
};

/// The injector's model of the process dying mid-operation (crash_after_ops
/// exhausted, or the armed crash after an fsync lie).  Latches: once thrown
/// every subsequent faultable operation throws it too until faults are
/// re-installed or cleared.
class SimulatedCrash : public IoError {
 public:
  SimulatedCrash(std::string op, std::string path);
};

/// One seeded fault mix.  Probabilities are per-operation in [0,1];
/// count/byte thresholds are 0-disabled.  When fail_op is set the injector
/// is fully deterministic: exactly the fail_op-th faultable disk operation
/// fails with fail_errno and nothing else fires — the mode the per-failure-
/// point sweep tests use.
struct FaultConfig {
  std::uint64_t seed = 0;
  double p_eio = 0.0;          ///< read/write/fsync/rename/unlink/open fails EIO
  double p_enospc = 0.0;       ///< write-side ops fail ENOSPC (one-shot)
  double p_short_write = 0.0;  ///< write transfers a seeded prefix (retried)
  double p_short_read = 0.0;   ///< read returns a seeded prefix (retried)
  double p_eintr = 0.0;        ///< op reports EINTR (retried, bounded)
  double p_torn_rename = 0.0;  ///< rename publishes a truncated file, then throws
  double p_fsync_lie = 0.0;    ///< fsync "succeeds" after dropping a suffix; arms a crash
  std::uint64_t crash_after_ops = 0;    ///< SimulatedCrash from the Nth faultable op on
  std::uint64_t enospc_after_bytes = 0; ///< sticky ENOSPC once cumulative writes pass N
  std::uint64_t fail_op = 0;            ///< 1-based: exactly this op fails with fail_errno
  int fail_errno = 0;                   ///< errno for fail_op (default EIO when 0)
};

/// Installs (replacing) the process-wide fault mix.  Resets the injector's
/// op/byte counters and crash latch — installing with a derived seed is how
/// harnesses model "the node restarted".
void install_faults(const FaultConfig& config);

/// Removes all fault injection; wrappers go back to thin syscall loops.
void clear_faults();

/// True while a fault mix is installed (fast: one relaxed atomic load).
bool faults_active();

/// Number of faultable disk operations the injector has seen since the
/// last install/clear (diagnostic; used by tests to aim fail_op).
std::uint64_t fault_ops_seen();

/// Parses a "key=value,key=value" spec (keys named exactly as FaultConfig
/// fields, e.g. "seed=7,p_eio=0.01,crash_after_ops=200"); fail_errno also
/// accepts "eio"/"enospc".  Throws util::Error on unknown keys or bad
/// values.
FaultConfig parse_fault_spec(const std::string& spec);

/// Installs parse_fault_spec($PMACX_IO_FAULTS) when the variable is set and
/// non-empty; returns whether anything was installed.  Tools call this at
/// startup so operators (and spawn tests) can fault-inject any binary.
bool install_faults_from_env();

// --- File wrappers.  All throw IoError (SimulatedCrash included) ----------

/// open(2) with fault points; returns the fd.
int open_file(const std::string& path, int flags, unsigned mode = 0644);

/// Writes all of `data` at the current offset, retrying EINTR and short
/// writes (bounded).
void write_all(int fd, std::string_view data, const std::string& path);

/// Positional variant of write_all (pwrite).
void pwrite_all(int fd, std::string_view data, std::uint64_t offset,
                const std::string& path);

/// Reads up to `size` bytes at the current offset; returns 0 at EOF.
/// Retries EINTR (bounded); injected short reads surface as a smaller
/// return, which every caller's loop already handles.
std::size_t read_some(int fd, char* out, std::size_t size, const std::string& path);

/// Positional variant of read_some (pread).
std::size_t pread_some(int fd, char* out, std::size_t size, std::uint64_t offset,
                       const std::string& path);

/// ftruncate(2) with fault points (a write-side op: ENOSPC applies).
void truncate_file(int fd, std::uint64_t size, const std::string& path);

/// fsync(2) with fault points.  The fsync-lie fault drops a suffix of the
/// file's bytes, returns success, and arms a SimulatedCrash within the
/// next few operations — the one storage fault that cannot be surfaced as
/// an error, only survived by the recovery path.
void fsync_file(int fd, const std::string& path);

/// Directory fsync after a rename; best-effort (some filesystems reject
/// directory fsync), so it never throws and consults no fault points.
void fsync_dir_best_effort(const std::string& dir);

/// rename(2) with fault points.  The torn-rename fault truncates the
/// source to a seeded prefix, performs the real rename, then throws — the
/// caller sees a failed publish while the disk holds the torn file a crash
/// between data writeback and rename would leave.
void rename_file(const std::string& from, const std::string& to);

/// unlink(2); throws on failure (ENOENT included).
void unlink_file(const std::string& path);

/// Best-effort unlink for cleanup paths: never throws, and deliberately
/// does nothing once a SimulatedCrash has latched (a dead process cleans
/// nothing up — the scrubber owns those temps).  Returns whether the entry
/// was removed.
bool unlink_quiet(const std::string& path) noexcept;

/// close(2) with fault points; throws if close reports an error (write
/// errors can surface here on NFS-like filesystems).
void close_file(int fd, const std::string& path);

/// Best-effort close for cleanup paths; never throws, never faulted (the
/// harness must not leak real fds while simulating crashes).
void close_quiet(int fd) noexcept;

// --- Socket helpers (satellite: bounded EINTR on the RPC loops) -----------
//
// Sockets consult only the EINTR/short-transfer fault points — never EIO/
// ENOSPC/crash, and they do not advance the disk op counter — so a disk
// fault spec cannot corrupt network semantics, and crash_after_ops budgets
// stay deterministic regardless of socket traffic.

/// recv(2) retrying EINTR up to kMaxEintrRetries; after that returns -1
/// with errno=EINTR.  Otherwise exactly recv's contract (0 = orderly
/// close, -1 = error with errno set, e.g. EAGAIN on a timeout).
ssize_t socket_recv(int fd, char* out, std::size_t size) noexcept;

/// Sends the whole range with MSG_NOSIGNAL, retrying EINTR (bounded) and
/// short sends; returns false on timeout, peer close, or hard error.
bool socket_send_all(int fd, const char* data, std::size_t size) noexcept;

inline bool socket_send_all(int fd, std::string_view data) noexcept {
  return socket_send_all(fd, data.data(), data.size());
}

/// Sets SO_RCVTIMEO and SO_SNDTIMEO (0 = block without limit).  A recv or
/// send that times out fails with EAGAIN.
void set_socket_timeouts(int fd, std::uint64_t recv_ms, std::uint64_t send_ms) noexcept;

}  // namespace pmacx::util::io
