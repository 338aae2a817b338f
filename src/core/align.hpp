// Trace alignment across core counts.
//
// Extrapolation needs, for every feature-vector element, its value series
// across the input core counts (Fig. 3).  Alignment matches basic blocks by
// their stable id and instructions by (block id, instruction index).  Blocks
// can genuinely appear or disappear between core counts (e.g. a code path
// taken only above some rank count); the MissingPolicy decides how such
// series are completed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/task_trace.hpp"

namespace pmacx::core {

/// What to do when a block/instruction is absent from some input traces.
enum class MissingPolicy {
  Drop,        ///< exclude the element from extrapolation entirely
  ZeroFill,    ///< treat missing occurrences as 0 (block didn't execute)
  CarryLast,   ///< reuse the nearest available core count's value
  FitPresent,  ///< keep the block but fit only the counts where it appears
               ///< (falls back to ZeroFill semantics below 2 observations)
};

/// Identifies one extrapolatable element.
struct ElementKey {
  std::uint64_t block_id = 0;
  /// Instruction index within the block, or -1 for a block-level element.
  std::int32_t instr_index = -1;
  /// Index into BlockElement (instr_index < 0) or InstrElement (≥ 0).
  std::uint32_t element = 0;

  bool is_block_level() const { return instr_index < 0; }
  /// "block 5 / instr 2 / hit_rate_l2"-style label for reports.
  std::string describe() const;

  auto operator<=>(const ElementKey&) const = default;
};

/// Where an element's extrapolated value lands in the output trace: the
/// skeleton block and, for instruction-level elements, the instruction's
/// position in that block's instruction list (-1 for block-level elements).
struct ElementSlot {
  std::uint32_t block = 0;
  std::int32_t instr = -1;
};

/// The series one element is fitted over (see Alignment::fit_series).
struct FitSeries {
  std::span<const double> axis;
  std::span<const double> values;
};

/// The alignment of a set of traces, stored as columns indexed by element:
/// every element's key, output slot and series (plus presence flags), and
/// the block skeleton (location, instruction arity) used to rebuild an
/// output trace.
struct Alignment {
  /// The abscissa each trace sits at — core counts for the paper's scaling
  /// axis, or an input-parameter value for Section VI's parameter axis.
  std::vector<double> axis;
  std::vector<ElementKey> keys;  ///< sorted
  std::vector<ElementSlot> slots;
  /// Element-major series: element e's value at axis[t] is values[e*n + t]
  /// (n = axis.size()), completed per the MissingPolicy.
  std::vector<double> values;
  /// Same shape as `values`: 1 where the value is present in input trace t,
  /// 0 where the MissingPolicy synthesized it.
  std::vector<std::uint8_t> present;
  /// Blocks in the union (after policy), with location metadata from the
  /// last (largest-axis) trace that has them.
  std::vector<trace::BasicBlockRecord> skeleton;

  std::size_t size() const { return keys.size(); }
  std::span<const double> series(std::size_t e) const {
    return {values.data() + e * axis.size(), axis.size()};
  }
  std::span<const std::uint8_t> presence(std::size_t e) const {
    return {present.data() + e * axis.size(), axis.size()};
  }
  /// True when element e's fit series is its full series: always, except
  /// under FitPresent for an element observed at ≥ 2 but not all points.
  bool fits_full_series(std::size_t e, MissingPolicy policy) const;
  /// The series element e is fitted over: the full axis and series, or
  /// under FitPresent only the points where the element was observed (≥ 2
  /// needed, else the full zero-filled series).  A restricted series is
  /// copied into the scratch buffers, which the result then points into.
  FitSeries fit_series(std::size_t e, MissingPolicy policy, std::vector<double>& axis_scratch,
                       std::vector<double>& values_scratch) const;
};

/// Aligns `traces` (all same app/target, strictly increasing core counts,
/// ≥ 2 of them) along the core-count axis.  Throws util::Error on
/// inconsistent inputs.
Alignment align_traces(std::span<const trace::TaskTrace> traces, MissingPolicy policy);

/// Aligns `traces` along an arbitrary strictly increasing axis (e.g. an
/// input-size parameter); core counts are not constrained.
Alignment align_over(std::span<const trace::TaskTrace> traces,
                     std::span<const double> axis, MissingPolicy policy);

}  // namespace pmacx::core
