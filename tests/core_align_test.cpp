// Tests for trace alignment across core counts: key semantics, missing-block
// policies and skeleton construction.
#include <gtest/gtest.h>

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
  EXPECT_EQ(alignment.elements.size(),
            2 * (trace::kBlockElementCount + trace::kInstrElementCount));
  // Values are in core-count order.
  for (const auto& element : alignment.elements) {
    if (element.key.is_block_level() &&
        element.key.element == static_cast<std::uint32_t>(BlockElement::VisitCount)) {
      EXPECT_DOUBLE_EQ(element.values[0], 10.0);
      EXPECT_DOUBLE_EQ(element.values[1], 5.0);
    }
  }
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
  for (const auto& element : alignment.elements) {
    if (element.key.block_id == 2 &&
        element.key.element == static_cast<std::uint32_t>(BlockElement::MemLoads) &&
        element.key.is_block_level()) {
      EXPECT_DOUBLE_EQ(element.values[0], 200.0);
      EXPECT_DOUBLE_EQ(element.values[1], 0.0);  // zero-filled
      EXPECT_FALSE(element.filled[0]);
      EXPECT_TRUE(element.filled[1]);
    }
  }
}

TEST(AlignTest, CarryLastPolicyCopiesNeighbour) {
  const std::vector<TaskTrace> traces = {make_trace(2, {1, 2}), make_trace(4, {1})};
  const auto alignment = align_traces(traces, MissingPolicy::CarryLast);
  for (const auto& element : alignment.elements) {
    if (element.key.block_id == 2 &&
        element.key.element == static_cast<std::uint32_t>(BlockElement::MemLoads) &&
        element.key.is_block_level()) {
      EXPECT_DOUBLE_EQ(element.values[1], 200.0);  // carried from 2 cores
    }
  }
}

TEST(AlignTest, SkeletonPrefersLargestCoreCount) {
  std::vector<TaskTrace> traces = {make_trace(2, {1}), make_trace(4, {1})};
  traces[1].blocks[0].location.function = "renamed_at_4";
  const auto alignment = align_traces(traces, MissingPolicy::Drop);
  EXPECT_EQ(alignment.skeleton[0].location.function, "renamed_at_4");
}

TEST(AlignTest, FitPresentKeepsUnionWithPlaceholders) {
  const std::vector<TaskTrace> traces = {make_trace(2, {1, 2}), make_trace(4, {1})};
  const auto alignment = align_traces(traces, MissingPolicy::FitPresent);
  EXPECT_EQ(alignment.skeleton.size(), 2u);
  for (const auto& element : alignment.elements) {
    if (element.key.block_id == 2 && element.key.is_block_level() &&
        element.key.element == static_cast<std::uint32_t>(BlockElement::MemLoads)) {
      EXPECT_TRUE(element.filled[1]);  // placeholder, to be ignored by the fit
    }
  }
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
