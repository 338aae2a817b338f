// Tests for trace alignment across core counts: key semantics, missing-block
// policies and skeleton construction.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/align.hpp"
#include "util/error.hpp"

namespace pmacx {
namespace {

using core::align_traces;
using core::ElementKey;
using core::MissingPolicy;
using trace::BlockElement;
using trace::TaskTrace;

TaskTrace make_trace(std::uint32_t cores, std::vector<std::uint64_t> block_ids,
                     double scale = 1.0) {
  TaskTrace task;
  task.app = "align-demo";
  task.core_count = cores;
  task.target_system = "t";
  for (std::uint64_t id : block_ids) {
    trace::BasicBlockRecord block;
    block.id = id;
    block.location = {"f.c", static_cast<std::uint32_t>(id), "fn" + std::to_string(id)};
    block.set(BlockElement::MemLoads, scale * 100.0 * static_cast<double>(id));
    block.set(BlockElement::VisitCount, scale * 10.0);
    trace::InstructionRecord instr;
    instr.index = 0;
    instr.set(trace::InstrElement::MemOps, scale * 50.0);
    block.instructions.push_back(instr);
    task.blocks.push_back(block);
  }
  task.sort_blocks();
  return task;
}

/// Index of the element with `key` in the alignment; fails the test when
/// the key is absent.
std::size_t index_of(const core::Alignment& alignment, const ElementKey& key) {
  const auto it = std::lower_bound(alignment.keys.begin(), alignment.keys.end(), key);
  EXPECT_TRUE(it != alignment.keys.end() && *it == key) << key.describe();
  return static_cast<std::size_t>(it - alignment.keys.begin());
}

const ElementKey kBlock2Loads{2, -1, static_cast<std::uint32_t>(BlockElement::MemLoads)};

TEST(ElementKeyTest, DescribeAndOrdering) {
  const ElementKey block_key{5, -1, static_cast<std::uint32_t>(BlockElement::MemLoads)};
  EXPECT_NE(block_key.describe().find("block 5"), std::string::npos);
  EXPECT_NE(block_key.describe().find("mem_loads"), std::string::npos);
  EXPECT_TRUE(block_key.is_block_level());

  const ElementKey instr_key{5, 2, static_cast<std::uint32_t>(trace::InstrElement::MemOps)};
  EXPECT_FALSE(instr_key.is_block_level());
  EXPECT_NE(instr_key.describe().find("instr 2"), std::string::npos);
  EXPECT_LT(block_key, instr_key);  // block-level sorts before instructions
}

TEST(AlignTest, FullOverlapAlignsEverything) {
  const std::vector<TaskTrace> traces = {make_trace(2, {1, 2}, 1.0),
                                         make_trace(4, {1, 2}, 0.5)};
  const auto alignment = align_traces(traces, MissingPolicy::Drop);
  EXPECT_EQ(alignment.axis, (std::vector<double>{2, 4}));
  EXPECT_EQ(alignment.skeleton.size(), 2u);
  // 2 blocks × (block elements + 1 instruction × instr elements).
  const std::size_t count = 2 * (trace::kBlockElementCount + trace::kInstrElementCount);
  EXPECT_EQ(alignment.size(), count);
  // Every column is indexed by element: one key and slot each, one value
  // and presence flag per element and core count.
  EXPECT_EQ(alignment.slots.size(), count);
  EXPECT_EQ(alignment.values.size(), count * 2);
  EXPECT_EQ(alignment.present.size(), count * 2);
  EXPECT_TRUE(std::is_sorted(alignment.keys.begin(), alignment.keys.end()));
  // Values are in core-count order.
  for (std::size_t e = 0; e < alignment.size(); ++e) {
    const ElementKey& key = alignment.keys[e];
    if (key.is_block_level() &&
        key.element == static_cast<std::uint32_t>(BlockElement::VisitCount)) {
      EXPECT_DOUBLE_EQ(alignment.series(e)[0], 10.0);
      EXPECT_DOUBLE_EQ(alignment.series(e)[1], 5.0);
    }
    for (const std::uint8_t present : alignment.presence(e)) EXPECT_EQ(present, 1);
  }
}

TEST(AlignTest, SlotsAddressTheSkeleton) {
  std::vector<TaskTrace> traces = {make_trace(2, {1, 2}), make_trace(4, {1, 2})};
  for (TaskTrace& task : traces) {
    trace::InstructionRecord second;
    second.index = 7;
    task.blocks[1].instructions.push_back(second);
  }
  const auto alignment = align_traces(traces, MissingPolicy::ZeroFill);
  for (std::size_t e = 0; e < alignment.size(); ++e) {
    const ElementKey& key = alignment.keys[e];
    const core::ElementSlot& slot = alignment.slots[e];
    ASSERT_LT(slot.block, alignment.skeleton.size());
    const trace::BasicBlockRecord& block = alignment.skeleton[slot.block];
    EXPECT_EQ(block.id, key.block_id);
    if (key.is_block_level()) {
      EXPECT_EQ(slot.instr, -1);
    } else {
      ASSERT_GE(slot.instr, 0);
      ASSERT_LT(static_cast<std::size_t>(slot.instr), block.instructions.size());
      EXPECT_EQ(static_cast<std::int32_t>(block.instructions[slot.instr].index),
                key.instr_index);
    }
  }
  EXPECT_EQ(alignment.slots[index_of(alignment, {2, 7, 0})].instr, 1);
}

TEST(AlignTest, RejectsInstructionIndexBeyondInt32) {
  // ElementKey stores the index as int32 with -1 marking a block-level
  // element: index 0xFFFFFFFF would come back as the block's own features.
  std::vector<TaskTrace> traces = {make_trace(2, {1}), make_trace(4, {1})};
  for (TaskTrace& task : traces) task.blocks[0].instructions[0].index = 0xFFFFFFFFu;
  EXPECT_THROW(align_traces(traces, MissingPolicy::ZeroFill), util::Error);
}

TEST(AlignTest, DropPolicyExcludesPartialBlocks) {
  const std::vector<TaskTrace> traces = {make_trace(2, {1, 2}), make_trace(4, {1})};
  const auto alignment = align_traces(traces, MissingPolicy::Drop);
  EXPECT_EQ(alignment.skeleton.size(), 1u);
  EXPECT_EQ(alignment.skeleton[0].id, 1u);
}

TEST(AlignTest, ZeroFillPolicyKeepsUnion) {
  const std::vector<TaskTrace> traces = {make_trace(2, {1, 2}), make_trace(4, {1})};
  const auto alignment = align_traces(traces, MissingPolicy::ZeroFill);
  EXPECT_EQ(alignment.skeleton.size(), 2u);
  const std::size_t e = index_of(alignment, kBlock2Loads);
  EXPECT_DOUBLE_EQ(alignment.series(e)[0], 200.0);
  EXPECT_DOUBLE_EQ(alignment.series(e)[1], 0.0);  // zero-filled
  EXPECT_EQ(alignment.presence(e)[0], 1);
  EXPECT_EQ(alignment.presence(e)[1], 0);
}

TEST(AlignTest, CarryLastPolicyCopiesNeighbour) {
  const std::vector<TaskTrace> traces = {make_trace(2, {1, 2}), make_trace(4, {1})};
  const auto alignment = align_traces(traces, MissingPolicy::CarryLast);
  EXPECT_DOUBLE_EQ(alignment.series(index_of(alignment, kBlock2Loads))[1],
                   200.0);  // carried from 2 cores
}

TEST(AlignTest, SkeletonPrefersLargestCoreCount) {
  std::vector<TaskTrace> traces = {make_trace(2, {1}), make_trace(4, {1})};
  traces[1].blocks[0].location.function = "renamed_at_4";
  const auto alignment = align_traces(traces, MissingPolicy::Drop);
  EXPECT_EQ(alignment.skeleton[0].location.function, "renamed_at_4");
}

TEST(AlignTest, FitPresentKeepsUnionWithPlaceholders) {
  // Block 2 is missing at 4 cores, block 3 is present at 8 cores only.
  const std::vector<TaskTrace> traces = {make_trace(2, {1, 2}), make_trace(4, {1}),
                                         make_trace(8, {1, 2, 3})};
  const auto alignment = align_traces(traces, MissingPolicy::FitPresent);
  EXPECT_EQ(alignment.skeleton.size(), 3u);
  const std::size_t e = index_of(alignment, kBlock2Loads);
  EXPECT_EQ(alignment.presence(e)[1], 0);  // placeholder, to be ignored by the fit

  // The fit series keeps the observed counts only.
  std::vector<double> axis, values;
  EXPECT_FALSE(alignment.fits_full_series(e, MissingPolicy::FitPresent));
  const core::FitSeries restricted =
      alignment.fit_series(e, MissingPolicy::FitPresent, axis, values);
  EXPECT_EQ(std::vector<double>(restricted.axis.begin(), restricted.axis.end()),
            (std::vector<double>{2, 8}));
  EXPECT_EQ(std::vector<double>(restricted.values.begin(), restricted.values.end()),
            (std::vector<double>{200, 200}));

  // Other policies, elements observed everywhere, and elements observed
  // once fit the full series.
  EXPECT_TRUE(alignment.fits_full_series(e, MissingPolicy::ZeroFill));
  EXPECT_EQ(alignment.fit_series(e, MissingPolicy::ZeroFill, axis, values).values.size(), 3u);
  const auto loads = static_cast<std::uint32_t>(BlockElement::MemLoads);
  EXPECT_TRUE(alignment.fits_full_series(index_of(alignment, {1, -1, loads}),
                                         MissingPolicy::FitPresent));
  const std::size_t once = index_of(alignment, {3, -1, loads});
  EXPECT_TRUE(alignment.fits_full_series(once, MissingPolicy::FitPresent));
  EXPECT_EQ(alignment.fit_series(once, MissingPolicy::FitPresent, axis, values).axis.size(),
            3u);
}

TEST(AlignTest, BlockAppearingOnlyAtLargeCounts) {
  // A block that only exists at the larger core counts still aligns.
  const std::vector<TaskTrace> traces = {make_trace(2, {1}), make_trace(4, {1, 9})};
  const auto alignment = align_traces(traces, MissingPolicy::ZeroFill);
  bool found = false;
  for (const auto& block : alignment.skeleton)
    if (block.id == 9) found = true;
  EXPECT_TRUE(found);
}

TEST(AlignTest, RejectsBadInputs) {
  std::vector<TaskTrace> one = {make_trace(2, {1})};
  EXPECT_THROW(align_traces(one, MissingPolicy::Drop), util::Error);

  std::vector<TaskTrace> unsorted = {make_trace(4, {1}), make_trace(2, {1})};
  EXPECT_THROW(align_traces(unsorted, MissingPolicy::Drop), util::Error);

  std::vector<TaskTrace> mixed = {make_trace(2, {1}), make_trace(4, {1})};
  mixed[1].app = "other-app";
  EXPECT_THROW(align_traces(mixed, MissingPolicy::Drop), util::Error);

  std::vector<TaskTrace> targets = {make_trace(2, {1}), make_trace(4, {1})};
  targets[1].target_system = "other-system";
  EXPECT_THROW(align_traces(targets, MissingPolicy::Drop), util::Error);
}

}  // namespace
}  // namespace pmacx
