#include "core/align.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pmacx::core {
namespace {

/// Values for one key across all traces, with presence flags; missing values
/// are completed per policy (nearest neighbour for CarryLast, 0 otherwise).
struct Series {
  std::vector<double> values;
  std::vector<bool> present;
};

void complete_series(Series& series, MissingPolicy policy) {
  const std::size_t n = series.values.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (series.present[i]) continue;
    if (policy == MissingPolicy::ZeroFill || policy == MissingPolicy::FitPresent) {
      // FitPresent only needs placeholders — the extrapolator fits the
      // present points and ignores these values.
      series.values[i] = 0.0;
      continue;
    }
    // CarryLast: nearest present neighbour, preferring earlier core counts.
    double value = 0.0;
    std::size_t best_distance = n + 1;
    for (std::size_t j = 0; j < n; ++j) {
      if (!series.present[j]) continue;
      const std::size_t distance =
          i > j ? i - j : (j - i) + 0;  // earlier neighbours tie-break by <=
      if (distance < best_distance || (distance == best_distance && j < i)) {
        best_distance = distance;
        value = series.values[j];
      }
    }
    series.values[i] = value;
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

  // Union of block ids with presence masks.
  std::map<std::uint64_t, std::vector<bool>> block_presence;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (const auto& block : traces[t].blocks) {
      auto [it, inserted] =
          block_presence.try_emplace(block.id, std::vector<bool>(traces.size(), false));
      it->second[t] = true;
    }
  }

  for (const auto& [block_id, presence] : block_presence) {
    const bool everywhere = std::all_of(presence.begin(), presence.end(),
                                        [](bool present) { return present; });
    if (policy == MissingPolicy::Drop && !everywhere) continue;

    // Skeleton record: metadata from the highest core count that has the
    // block (the closest behaviour to the extrapolation target).
    const trace::BasicBlockRecord* skeleton_block = nullptr;
    for (std::size_t t = traces.size(); t-- > 0;) {
      if ((skeleton_block = traces[t].find_block(block_id)) != nullptr) break;
    }
    PMACX_ASSERT(skeleton_block != nullptr, "presence map out of sync");
    alignment.skeleton.push_back(*skeleton_block);

    auto emit = [&](const ElementKey& key, Series series) {
      complete_series(series, policy);
      AlignedElement element;
      element.key = key;
      element.values = std::move(series.values);
      element.filled.reserve(series.present.size());
      for (bool present : series.present) element.filled.push_back(!present);
      alignment.elements.push_back(std::move(element));
    };

    // Block-level elements.
    for (std::size_t e = 0; e < trace::kBlockElementCount; ++e) {
      Series series;
      series.values.resize(traces.size(), 0.0);
      series.present.resize(traces.size(), false);
      for (std::size_t t = 0; t < traces.size(); ++t) {
        if (const auto* block = traces[t].find_block(block_id)) {
          series.values[t] = block->features[e];
          series.present[t] = true;
        }
      }
      emit(ElementKey{block_id, -1, static_cast<std::uint32_t>(e)}, std::move(series));
    }

    // Instruction-level elements, over the skeleton's instruction set.
    for (const auto& instr : skeleton_block->instructions) {
      PMACX_CHECK(instr.index <= trace::kMaxInstrIndex,
                  "alignment: block " + std::to_string(block_id) + " instr " +
                      std::to_string(instr.index) + " exceeds the largest instruction index");
      for (std::size_t e = 0; e < trace::kInstrElementCount; ++e) {
        Series series;
        series.values.resize(traces.size(), 0.0);
        series.present.resize(traces.size(), false);
        for (std::size_t t = 0; t < traces.size(); ++t) {
          const auto* block = traces[t].find_block(block_id);
          if (block == nullptr) continue;
          for (const auto& candidate : block->instructions) {
            if (candidate.index == instr.index) {
              series.values[t] = candidate.features[e];
              series.present[t] = true;
              break;
            }
          }
        }
        emit(ElementKey{block_id, static_cast<std::int32_t>(instr.index),
                        static_cast<std::uint32_t>(e)},
             std::move(series));
      }
    }
  }

  return alignment;
}

}  // namespace pmacx::core
