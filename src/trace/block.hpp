// Basic-block trace records.
//
// One BasicBlockRecord corresponds to one static basic block of the traced
// application and carries (Section III-A) the block's source location, its
// floating-point work and mix, its memory reference counts and sizes, the
// simulated target-system cache hit rates for those references, and its
// working set — plus optional per-instruction sub-records used by the
// extrapolator's instruction-level mode (Section IV).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "trace/elements.hpp"

namespace pmacx::trace {

/// Where the block lives in the source and the executable.
struct SourceLocation {
  std::string file;        ///< source file ("specfem3d/compute_forces.f90")
  std::uint32_t line = 0;  ///< starting line
  std::string function;    ///< enclosing function

  bool operator==(const SourceLocation&) const = default;
};

/// Largest valid instruction index.  Alignment keys an instruction by its
/// index as a signed 32-bit value, where -1 marks a block-level element, so
/// a larger index would be read back as a block's own features.
inline constexpr std::uint32_t kMaxInstrIndex = std::numeric_limits<std::int32_t>::max();

/// One instruction's dynamic summary inside a block.
struct InstructionRecord {
  std::uint32_t index = 0;  ///< position within the block, ≤ kMaxInstrIndex
  InstrFeatures features{};

  double get(InstrElement element) const {
    return features[static_cast<std::size_t>(element)];
  }
  void set(InstrElement element, double value) {
    features[static_cast<std::size_t>(element)] = value;
  }

  bool operator==(const InstructionRecord&) const = default;
};

/// One basic block's dynamic summary for one MPI task at one core count.
struct BasicBlockRecord {
  /// Stable identity across core counts (hash of the source location in the
  /// real tool; assigned by the app model here).  Alignment between traces
  /// at different core counts matches on this id.
  std::uint64_t id = 0;
  SourceLocation location;
  BlockFeatures features{};
  std::vector<InstructionRecord> instructions;

  double get(BlockElement element) const {
    return features[static_cast<std::size_t>(element)];
  }
  void set(BlockElement element, double value) {
    features[static_cast<std::size_t>(element)] = value;
  }

  /// Total memory references (loads + stores).
  double memory_ops() const;
  /// Total floating-point operations (all classes; FMA counts as 2).
  double fp_ops() const;
  /// Total bytes moved: memory_ops × bytes_per_ref.
  double bytes_moved() const;

  bool operator==(const BasicBlockRecord&) const = default;
};

}  // namespace pmacx::trace
