// The application signature.
//
// "The set of trace files from all MPI ranks constitutes the application
// signature on the target system at that particular core count" (Section
// III-A).  AppSignature bundles the per-task computation traces with the
// per-task communication traces of one run, and records which rank is the
// most computationally demanding — that is the task the paper's
// extrapolation focuses on (Section IV).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/comm.hpp"
#include "trace/task_trace.hpp"

namespace pmacx::trace {

/// Full signature of one application run at one core count.
struct AppSignature {
  std::string app;
  std::uint32_t core_count = 0;
  std::string target_system;
  /// One computation trace per *traced* rank.  The tracer may trace a subset
  /// of ranks (the paper extrapolates only the most demanding one); each
  /// TaskTrace records which rank it describes.
  std::vector<TaskTrace> tasks;
  /// One communication timeline per rank (always all ranks; comm traces are
  /// cheap compared to computation traces).
  std::vector<CommTrace> comm;
  /// Rank of the most computationally demanding task.
  std::uint32_t demanding_rank = 0;

  /// The signature of one traced task at its core count: app, core count,
  /// target system and demanding rank all come from `task`, and `comm` must
  /// hold every rank's timeline in rank order.  Validates before returning.
  static AppSignature for_task(TaskTrace task, std::vector<CommTrace> comm);

  /// Trace of `rank`, or nullptr when that rank was not traced.
  const TaskTrace* task_for_rank(std::uint32_t rank) const;

  /// Trace of the most demanding rank; throws util::Error if it was not
  /// traced (a signature is unusable for extrapolation without it).
  const TaskTrace& demanding_task() const;

  /// Throws util::Error unless all members agree on app/core count and the
  /// comm traces cover exactly ranks [0, core_count).
  void validate() const;

  /// Approximate resident size across all task and comm traces, for
  /// byte-bounded cache accounting in the serving layer.
  std::size_t memory_bytes() const;

  /// Persists the signature as a directory: `signature.meta` (header),
  /// `task_<rank>.trace` per computation trace (binary format), and a
  /// single concatenated `comm.txt` for all ranks' communication timelines.
  /// The directory is created if absent; existing files are overwritten.
  void save(const std::string& directory) const;

  /// Loads a directory written by save(); validates before returning.
  static AppSignature load(const std::string& directory);
};

}  // namespace pmacx::trace
