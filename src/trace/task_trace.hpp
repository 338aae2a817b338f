// The per-task trace file.
//
// "An application signature consists of a series of trace files, one file
// for each MPI task" (Section IV).  TaskTrace is the in-memory form of one
// such file: all basic-block records executed by one MPI task at one core
// count, simulated against one target system.  The text serialization is a
// versioned, tab-separated format with exact round-trip semantics (tested in
// tests/trace_test.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "trace/block.hpp"

namespace pmacx::trace {

/// One MPI task's trace at one core count.
struct TaskTrace {
  std::string app;            ///< application name ("specfem3d")
  std::uint32_t rank = 0;     ///< MPI rank this trace belongs to
  std::uint32_t core_count = 0;  ///< total cores of the run
  std::string target_system;  ///< hierarchy the cache simulator mimicked
  /// True when this trace was synthesized by the extrapolator rather than
  /// collected; carried through so reports can label their provenance.
  bool extrapolated = false;
  std::vector<BasicBlockRecord> blocks;  ///< sorted by ascending id

  /// Looks a block up by id (blocks must be sorted; enforced by sort_blocks).
  const BasicBlockRecord* find_block(std::uint64_t id) const;

  /// Sorts blocks by id; serialization and alignment require sorted order.
  void sort_blocks();

  /// Structural sanity check: positive core count, rank < cores, sorted
  /// unique block ids, sorted unique instruction indices ≤ kMaxInstrIndex,
  /// finite features, hit rates in [0,1] and cumulative (L1 ≤ L2 ≤ L3),
  /// non-negative counts.  Throws util::Error naming the
  /// offending block/element.  Tools run this on every loaded file so a
  /// corrupted or hand-edited trace fails loudly, not deep inside a fit.
  void validate() const;

  /// Task-wide totals across blocks.
  double total_memory_ops() const;
  double total_fp_ops() const;
  double total_bytes_moved() const;

  /// Approximate resident size (records, strings, instruction vectors), for
  /// byte-bounded cache accounting in the serving layer.
  std::size_t memory_bytes() const;

  /// Serializes to the versioned text format.
  std::string to_text() const;
  /// Parses the text format; throws util::Error with a line number on any
  /// malformed input.
  static TaskTrace from_text(const std::string& text);

  /// Writes the text format; see trace/binary_io.hpp for the compact
  /// binary alternative.
  void save(const std::string& path) const;
  /// Loads either format (auto-detected by magic).
  static TaskTrace load(const std::string& path);

  bool operator==(const TaskTrace&) const = default;
};

}  // namespace pmacx::trace
