#include "core/align.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pmacx::core {
namespace {

/// Completes one element's missing values in place: nearest present
/// neighbour for CarryLast, 0 otherwise.
void complete_series(std::span<double> values, std::span<const std::uint8_t> present,
                     MissingPolicy policy) {
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (present[i]) continue;
    if (policy == MissingPolicy::ZeroFill || policy == MissingPolicy::FitPresent) {
      // FitPresent only needs placeholders — the extrapolator fits the
      // present points and ignores these values.
      values[i] = 0.0;
      continue;
    }
    // CarryLast: nearest present neighbour, preferring earlier core counts.
    double value = 0.0;
    std::size_t best_distance = n + 1;
    for (std::size_t j = 0; j < n; ++j) {
      if (!present[j]) continue;
      const std::size_t distance =
          i > j ? i - j : (j - i) + 0;  // earlier neighbours tie-break by <=
      if (distance < best_distance || (distance == best_distance && j < i)) {
        best_distance = distance;
        value = values[j];
      }
    }
    values[i] = value;
  }
}

}  // namespace

std::string ElementKey::describe() const {
  std::string label = "block " + std::to_string(block_id);
  if (is_block_level()) {
    label += " / " + trace::block_element_name(static_cast<trace::BlockElement>(element));
  } else {
    label += " / instr " + std::to_string(instr_index) + " / " +
             trace::instr_element_name(static_cast<trace::InstrElement>(element));
  }
  return label;
}

Alignment align_traces(std::span<const trace::TaskTrace> traces, MissingPolicy policy) {
  PMACX_CHECK(traces.size() >= 2, "alignment requires at least two traces");
  for (std::size_t i = 1; i < traces.size(); ++i)
    PMACX_CHECK(traces[i].core_count > traces[i - 1].core_count,
                "alignment: core counts must be strictly increasing");
  std::vector<double> axis;
  axis.reserve(traces.size());
  for (const auto& trace : traces) axis.push_back(static_cast<double>(trace.core_count));
  return align_over(traces, axis, policy);
}

Alignment align_over(std::span<const trace::TaskTrace> traces,
                     std::span<const double> axis, MissingPolicy policy) {
  PMACX_CHECK(traces.size() >= 2, "alignment requires at least two traces");
  PMACX_CHECK(axis.size() == traces.size(), "alignment: axis/trace count mismatch");
  for (std::size_t i = 0; i < traces.size(); ++i) {
    PMACX_CHECK(traces[i].app == traces[0].app, "alignment: app mismatch");
    PMACX_CHECK(traces[i].target_system == traces[0].target_system,
                "alignment: target system mismatch");
    if (i > 0)
      PMACX_CHECK(axis[i] > axis[i - 1], "alignment: axis must be strictly increasing");
  }

  Alignment alignment;
  alignment.axis.assign(axis.begin(), axis.end());
  const std::size_t n = traces.size();

  // Union of block ids, and each block's record in every trace (nullptr
  // where absent).
  std::vector<std::uint64_t> ids;
  for (const auto& trace : traces)
    for (const auto& block : trace.blocks) ids.push_back(block.id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<const trace::BasicBlockRecord*> records(ids.size() * n);
  for (std::size_t b = 0; b < ids.size(); ++b)
    for (std::size_t t = 0; t < n; ++t) records[b * n + t] = traces[t].find_block(ids[b]);

  // Count the elements of the blocks the policy keeps, then fill columns of
  // exactly that size.  The skeleton record of a block comes from the
  // highest core count that has it (the closest behaviour to the
  // extrapolation target).
  auto skeleton_of = [&](std::size_t b) -> const trace::BasicBlockRecord* {
    const auto* first = records.data() + b * n;
    if (policy == MissingPolicy::Drop && std::find(first, first + n, nullptr) != first + n)
      return nullptr;
    for (std::size_t t = n; t-- > 0;)
      if (first[t] != nullptr) return first[t];
    PMACX_ASSERT(false, "block id without a record");
    return nullptr;
  };
  std::size_t count = 0;
  std::size_t kept = 0;
  for (std::size_t b = 0; b < ids.size(); ++b) {
    if (const auto* block = skeleton_of(b)) {
      count += trace::kBlockElementCount + block->instructions.size() * trace::kInstrElementCount;
      ++kept;
    }
  }
  alignment.keys.resize(count);
  alignment.slots.resize(count);
  alignment.values.resize(count * n, 0.0);
  alignment.present.resize(count * n, 0);
  alignment.skeleton.reserve(kept);

  std::size_t e = 0;
  auto emit = [&](const ElementKey& key, const ElementSlot& slot, auto&& value_in) {
    alignment.keys[e] = key;
    alignment.slots[e] = slot;
    double* values = alignment.values.data() + e * n;
    std::uint8_t* present = alignment.present.data() + e * n;
    for (std::size_t t = 0; t < n; ++t) {
      if (const double* value = value_in(t)) {
        values[t] = *value;
        present[t] = 1;
      }
    }
    complete_series({values, n}, {present, n}, policy);
    ++e;
  };

  std::vector<const trace::InstructionRecord*> matches(n);
  for (std::size_t b = 0; b < ids.size(); ++b) {
    const trace::BasicBlockRecord* skeleton_block = skeleton_of(b);
    if (skeleton_block == nullptr) continue;
    const auto* in_trace = records.data() + b * n;
    const auto block_slot = static_cast<std::uint32_t>(alignment.skeleton.size());
    alignment.skeleton.push_back(*skeleton_block);

    // Block-level elements.
    for (std::size_t k = 0; k < trace::kBlockElementCount; ++k) {
      emit(ElementKey{ids[b], -1, static_cast<std::uint32_t>(k)}, ElementSlot{block_slot, -1},
           [&](std::size_t t) {
             return in_trace[t] != nullptr ? &in_trace[t]->features[k] : nullptr;
           });
    }

    // Instruction-level elements, over the skeleton's instruction set; in
    // each trace the first instruction with the same index supplies them.
    const auto& instructions = skeleton_block->instructions;
    for (std::size_t pos = 0; pos < instructions.size(); ++pos) {
      const std::uint32_t index = instructions[pos].index;
      PMACX_CHECK(index <= trace::kMaxInstrIndex,
                  "alignment: block " + std::to_string(ids[b]) + " instr " +
                      std::to_string(index) + " exceeds the largest instruction index");
      for (std::size_t t = 0; t < n; ++t) {
        matches[t] = nullptr;
        if (in_trace[t] == nullptr) continue;
        for (const auto& candidate : in_trace[t]->instructions) {
          if (candidate.index == index) {
            matches[t] = &candidate;
            break;
          }
        }
      }
      const ElementSlot slot{block_slot, static_cast<std::int32_t>(pos)};
      for (std::size_t k = 0; k < trace::kInstrElementCount; ++k) {
        emit(ElementKey{ids[b], static_cast<std::int32_t>(index), static_cast<std::uint32_t>(k)},
             slot, [&](std::size_t t) {
               return matches[t] != nullptr ? &matches[t]->features[k] : nullptr;
             });
      }
    }
  }
  PMACX_ASSERT(e == count, "alignment filled a different element count than it counted");
  return alignment;
}

bool Alignment::fits_full_series(std::size_t e, MissingPolicy policy) const {
  if (policy != MissingPolicy::FitPresent) return true;
  const std::span<const std::uint8_t> flags = presence(e);
  const auto observed = static_cast<std::size_t>(std::count(flags.begin(), flags.end(), 1));
  return observed < 2 || observed == flags.size();
}

FitSeries Alignment::fit_series(std::size_t e, MissingPolicy policy,
                                std::vector<double>& axis_scratch,
                                std::vector<double>& values_scratch) const {
  if (fits_full_series(e, policy)) return {axis, series(e)};
  axis_scratch.clear();
  values_scratch.clear();
  const std::span<const double> values = series(e);
  const std::span<const std::uint8_t> flags = presence(e);
  for (std::size_t t = 0; t < values.size(); ++t) {
    if (!flags[t]) continue;
    axis_scratch.push_back(axis[t]);
    values_scratch.push_back(values[t]);
  }
  return {axis_scratch, values_scratch};
}

}  // namespace pmacx::core
