// Tests for the trace data model: element schema, block records, task-trace
// serialization round-trips, comm traces and signature validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>

#include "trace/binary_io.hpp"
#include "trace/comm.hpp"
#include "trace/elements.hpp"
#include "trace/signature.hpp"
#include "trace/stream_reader.hpp"
#include "trace/task_trace.hpp"
#include "util/error.hpp"
#include "util/parse_error.hpp"

namespace pmacx {
namespace {

using trace::BasicBlockRecord;
using trace::BlockElement;
using trace::CommEvent;
using trace::CommOp;
using trace::CommTrace;
using trace::InstrElement;
using trace::InstructionRecord;
using trace::TaskTrace;

TaskTrace sample_trace() {
  TaskTrace task;
  task.app = "demo";
  task.rank = 3;
  task.core_count = 128;
  task.target_system = "test target";
  task.extrapolated = false;

  BasicBlockRecord block;
  block.id = 7;
  block.location = {"src/solver.f90", 42, "solve kernel"};
  block.set(BlockElement::VisitCount, 1000);
  block.set(BlockElement::FpAdd, 500.5);
  block.set(BlockElement::FpFma, 250);
  block.set(BlockElement::MemLoads, 12345.25);
  block.set(BlockElement::MemStores, 54321);
  block.set(BlockElement::BytesPerRef, 8);
  block.set(BlockElement::HitRateL1, 0.874);
  block.set(BlockElement::HitRateL2, 0.875);
  block.set(BlockElement::HitRateL3, 0.907);
  block.set(BlockElement::WorkingSetBytes, 1 << 20);
  block.set(BlockElement::Ilp, 3.5);
  block.set(BlockElement::DepChainLength, 6);

  InstructionRecord instr;
  instr.index = 2;
  instr.set(InstrElement::ExecCount, 999);
  instr.set(InstrElement::MemOps, 999);
  instr.set(InstrElement::BytesPerOp, 8);
  instr.set(InstrElement::HitRateL1, 0.5);
  instr.set(InstrElement::HitRateL2, 0.6);
  instr.set(InstrElement::HitRateL3, 0.7);
  block.instructions.push_back(instr);
  task.blocks.push_back(block);

  BasicBlockRecord second;
  second.id = 2;
  second.location = {"src/update.f90", 7, "update"};
  second.set(BlockElement::MemLoads, 10);
  task.blocks.push_back(second);
  task.sort_blocks();
  return task;
}

// --------------------------------------------------------------- schema ----

TEST(ElementsTest, BlockNamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (std::size_t e = 0; e < trace::kBlockElementCount; ++e)
    names.insert(trace::block_element_name(static_cast<BlockElement>(e)));
  EXPECT_EQ(names.size(), trace::kBlockElementCount);
  EXPECT_EQ(trace::block_element_name(BlockElement::HitRateL2), "hit_rate_l2");
}

TEST(ElementsTest, InstrNamesAreUnique) {
  std::set<std::string> names;
  for (std::size_t e = 0; e < trace::kInstrElementCount; ++e)
    names.insert(trace::instr_element_name(static_cast<InstrElement>(e)));
  EXPECT_EQ(names.size(), trace::kInstrElementCount);
}

TEST(ElementsTest, RateFlags) {
  EXPECT_TRUE(trace::block_element_is_rate(BlockElement::HitRateL1));
  EXPECT_TRUE(trace::block_element_is_rate(BlockElement::HitRateL3));
  EXPECT_FALSE(trace::block_element_is_rate(BlockElement::MemLoads));
  EXPECT_TRUE(trace::instr_element_is_rate(InstrElement::HitRateL2));
  EXPECT_FALSE(trace::instr_element_is_rate(InstrElement::MemOps));
}

// ---------------------------------------------------------------- block ----

TEST(BlockTest, DerivedTotals) {
  const TaskTrace task = sample_trace();
  const BasicBlockRecord* block = task.find_block(7);
  ASSERT_NE(block, nullptr);
  EXPECT_DOUBLE_EQ(block->memory_ops(), 12345.25 + 54321);
  EXPECT_DOUBLE_EQ(block->fp_ops(), 500.5 + 2 * 250);  // FMA counts double
  EXPECT_DOUBLE_EQ(block->bytes_moved(), (12345.25 + 54321) * 8);
}

TEST(BlockTest, FindBlockAfterSortAndMissingId) {
  const TaskTrace task = sample_trace();
  EXPECT_NE(task.find_block(2), nullptr);
  EXPECT_EQ(task.find_block(999), nullptr);
  EXPECT_EQ(task.blocks.front().id, 2u);  // sort_blocks ordered them
}

TEST(BlockTest, TaskTotals) {
  const TaskTrace task = sample_trace();
  EXPECT_DOUBLE_EQ(task.total_memory_ops(), 12345.25 + 54321 + 10);
}

// ------------------------------------------------------------ round-trip ----

TEST(TaskTraceTest, TextRoundTripIsExact) {
  const TaskTrace original = sample_trace();
  const TaskTrace parsed = TaskTrace::from_text(original.to_text());
  EXPECT_EQ(parsed, original);
}

TEST(TaskTraceTest, RoundTripPreservesExtremeDoubles) {
  TaskTrace task = sample_trace();
  task.blocks[0].set(BlockElement::MemLoads, 1.2345678901234567e+18);
  task.blocks[0].set(BlockElement::HitRateL1, 0.12345678901234567);
  const TaskTrace parsed = TaskTrace::from_text(task.to_text());
  EXPECT_EQ(parsed, task);
}

TEST(TaskTraceTest, ExtrapolatedFlagSurvives) {
  TaskTrace task = sample_trace();
  task.extrapolated = true;
  EXPECT_TRUE(TaskTrace::from_text(task.to_text()).extrapolated);
}

TEST(TaskTraceTest, FileSaveLoad) {
  const TaskTrace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/pmacx_trace_test.trace";
  original.save(path);
  const TaskTrace loaded = TaskTrace::load(path);
  EXPECT_EQ(loaded, original);
  std::remove(path.c_str());
}

TEST(TaskTraceTest, RejectsWrongMagic) {
  EXPECT_THROW(TaskTrace::from_text("bogus\t1\n"), util::Error);
}

TEST(TaskTraceTest, RejectsWrongVersion) {
  std::string text = sample_trace().to_text();
  text.replace(text.find("\t1\n"), 3, "\t9\n");
  EXPECT_THROW(TaskTrace::from_text(text), util::Error);
}

TEST(TaskTraceTest, RejectsTruncatedInput) {
  std::string text = sample_trace().to_text();
  text.resize(text.size() / 2);
  EXPECT_THROW(TaskTrace::from_text(text), util::Error);
}

TEST(TaskTraceTest, RejectsArityMismatch) {
  std::string text = sample_trace().to_text();
  const auto pos = text.find("features");
  const auto tab = text.find('\t', pos);
  text.insert(tab, "\t99");  // extra feature column
  EXPECT_THROW(TaskTrace::from_text(text), util::Error);
}

TEST(TaskTraceTest, RejectsInstructionIndexWiderThan32Bits) {
  std::string text = sample_trace().to_text();
  const auto pos = text.find("\ni\t2\t");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "\ni\t4294967298\t");  // 2^32 + 2, not index 2
  EXPECT_THROW(TaskTrace::from_text(text), util::Error);
}

TEST(TaskTraceTest, LoadMissingFileThrows) {
  EXPECT_THROW(TaskTrace::load("/nonexistent/path/x.trace"), util::Error);
}

// ------------------------------------------------------------- validate ----

TEST(ValidateTest, AcceptsWellFormedTrace) {
  EXPECT_NO_THROW(sample_trace().validate());
}

TEST(ValidateTest, RejectsStructuralBreakage) {
  TaskTrace task = sample_trace();
  task.rank = 999;  // beyond core count
  EXPECT_THROW(task.validate(), util::Error);

  task = sample_trace();
  task.blocks[0].id = task.blocks[1].id;  // duplicate ids
  EXPECT_THROW(task.validate(), util::Error);

  task = sample_trace();
  std::swap(task.blocks[0], task.blocks[1]);  // unsorted
  EXPECT_THROW(task.validate(), util::Error);
}

TEST(ValidateTest, RejectsBadValues) {
  TaskTrace task = sample_trace();
  task.blocks[0].set(BlockElement::MemLoads, -5.0);
  EXPECT_THROW(task.validate(), util::Error);

  task = sample_trace();
  task.blocks[0].set(BlockElement::HitRateL2, 1.5);
  EXPECT_THROW(task.validate(), util::Error);

  task = sample_trace();
  task.blocks[0].set(BlockElement::Ilp, std::nan(""));
  EXPECT_THROW(task.validate(), util::Error);
}

TEST(ValidateTest, RejectsNonCumulativeHitRates) {
  TaskTrace task = sample_trace();
  task.blocks[1].set(BlockElement::HitRateL1, 0.95);  // above L2 = 0.875
  EXPECT_THROW(task.validate(), util::Error);
}

TEST(ValidateTest, RejectsUnsortedInstructions) {
  TaskTrace task = sample_trace();
  trace::InstructionRecord dup = task.blocks[1].instructions[0];
  task.blocks[1].instructions.push_back(dup);  // duplicate index
  EXPECT_THROW(task.validate(), util::Error);
}

TEST(ValidateTest, RejectsInstructionIndexBeyondInt32) {
  // Alignment keys an instruction by a signed 32-bit index, -1 marking a
  // block-level element, so a larger index would alias the block's features.
  TaskTrace task = sample_trace();
  task.blocks[1].instructions[0].index = std::numeric_limits<std::int32_t>::max();
  EXPECT_NO_THROW(task.validate());
  task.blocks[1].instructions[0].index = 0xFFFFFFFFu;
  EXPECT_THROW(task.validate(), util::Error);
  // UPLOAD_TRACE's streaming validator applies the same rule.
  const std::string bytes = trace::to_binary(task);
  EXPECT_THROW(trace::stream_validate(*trace::make_view_source(bytes)), util::Error);
}

// --------------------------------------------------------- binary format ----

TEST(BinaryTraceTest, RoundTripIsExact) {
  const TaskTrace original = sample_trace();
  EXPECT_EQ(trace::from_binary(trace::to_binary(original)), original);
}

TEST(BinaryTraceTest, PreservesExtremeDoublesBitExactly) {
  TaskTrace task = sample_trace();
  task.blocks[0].set(BlockElement::MemLoads, 1.2345678901234567e+300);
  task.blocks[0].set(BlockElement::HitRateL1, 5e-324);  // denormal
  EXPECT_EQ(trace::from_binary(trace::to_binary(task)), task);
}

TEST(BinaryTraceTest, SmallerThanTextOnRealisticValues) {
  // Real traces carry full-precision doubles (the text form spends ~25
  // characters each where binary spends 8 bytes).  Fill the features with
  // non-round values as a tracer would produce.
  TaskTrace task = sample_trace();
  double seed = 0.123456789012345;
  for (auto& block : task.blocks) {
    for (double& v : block.features) v = (seed *= 1.9999371) + 1e6;
    for (auto& instr : block.instructions)
      for (double& v : instr.features) v = (seed *= 1.9999371) + 1e6;
  }
  EXPECT_LT(trace::to_binary(task).size(), task.to_text().size());
}

TEST(BinaryTraceTest, FileRoundTripAndAutodetect) {
  const TaskTrace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/pmacx_trace_test.btrace";
  trace::save_binary(original, path);
  // TaskTrace::load auto-detects the binary magic.
  EXPECT_EQ(TaskTrace::load(path), original);
  EXPECT_EQ(trace::load_binary(path), original);
  std::remove(path.c_str());
}

TEST(BinaryTraceTest, RejectsTruncation) {
  std::string bytes = trace::to_binary(sample_trace());
  bytes.resize(bytes.size() - 7);
  EXPECT_THROW(trace::from_binary(bytes), util::Error);
}

TEST(BinaryTraceTest, RejectsTrailingGarbage) {
  std::string bytes = trace::to_binary(sample_trace());
  bytes += "junk";
  EXPECT_THROW(trace::from_binary(bytes), util::Error);
}

TEST(BinaryTraceTest, RejectsForeignBytes) {
  EXPECT_FALSE(trace::looks_binary("pmacx-trace\t1\n"));
  EXPECT_THROW(trace::from_binary("definitely not a trace"), util::Error);
}

TEST(BinaryTraceTest, WritesV002Magic) {
  const std::string bytes = trace::to_binary(sample_trace());
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 8), std::string(trace::kBinaryMagicV002, 8));
  EXPECT_TRUE(trace::looks_binary(bytes));
}

TEST(BinaryTraceTest, StillReadsV001) {
  // Traces written by the unframed v001 writer (the seed format) must keep
  // loading through the same entry points.
  const TaskTrace original = sample_trace();
  const std::string bytes = trace::to_binary_v001(original);
  EXPECT_EQ(bytes.substr(0, 8), std::string(trace::kBinaryMagicV001, 8));
  EXPECT_TRUE(trace::looks_binary(bytes));
  EXPECT_EQ(trace::from_binary(bytes), original);

  const std::string path = ::testing::TempDir() + "/pmacx_trace_test_v001.btrace";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(TaskTrace::load(path), original);
  std::remove(path.c_str());
}

TEST(BinaryTraceTest, DetectsSingleFlippedPayloadBit) {
  const TaskTrace original = sample_trace();
  const std::string bytes = trace::to_binary(original);
  // Flip one bit inside a feature value: v001 would silently deliver a
  // different number; v002's per-section checksum must refuse.
  std::string corrupted = bytes;
  corrupted[bytes.size() - 40] ^= 0x04;
  EXPECT_THROW(trace::from_binary(corrupted), util::ParseError);
}

TEST(BinaryTraceTest, RejectsCorruptBlockCountWithoutAllocating) {
  // block_count is the last u64 of the header payload; inflating it must
  // hit the declared-size bounds check, not reserve() petabytes.
  std::string bytes = trace::to_binary(sample_trace());
  const std::uint64_t huge = 1ull << 62;
  // Header section payload starts at byte 24 (magic 8 + tag 4 + size 8 +
  // crc 4); hunt for the real count field and inflate every candidate.
  for (std::size_t at = 24; at + 8 <= std::min<std::size_t>(bytes.size(), 120); ++at) {
    std::string corrupted = bytes;
    std::memcpy(corrupted.data() + at, &huge, sizeof huge);
    EXPECT_THROW(trace::from_binary(corrupted), util::ParseError);
  }
}

TEST(BinaryTraceTest, ParseErrorCarriesOffsetAndSection) {
  std::string bytes = trace::to_binary(sample_trace());
  bytes[bytes.size() - 40] ^= 0x04;
  try {
    (void)trace::from_binary(bytes);
    FAIL() << "corrupted trace parsed cleanly";
  } catch (const util::ParseError& e) {
    EXPECT_NE(e.byte_offset(), util::ParseError::kNoOffset);
    EXPECT_FALSE(e.section().empty());
  }
}

// ------------------------------------------------------------------ comm ----

TEST(CommTest, OpNamesRoundTrip) {
  for (CommOp op : {CommOp::Send, CommOp::Recv, CommOp::Barrier, CommOp::Bcast, CommOp::Reduce,
                    CommOp::Allreduce, CommOp::Allgather, CommOp::Alltoall}) {
    EXPECT_EQ(trace::comm_op_from_name(trace::comm_op_name(op)), op);
  }
  EXPECT_THROW(trace::comm_op_from_name("frobnicate"), util::Error);
}

TEST(CommTest, CollectiveClassification) {
  EXPECT_FALSE(trace::comm_op_is_collective(CommOp::Send));
  EXPECT_FALSE(trace::comm_op_is_collective(CommOp::Recv));
  EXPECT_TRUE(trace::comm_op_is_collective(CommOp::Allreduce));
  EXPECT_TRUE(trace::comm_op_is_collective(CommOp::Barrier));
}

CommTrace sample_comm() {
  CommTrace comm;
  comm.rank = 1;
  comm.core_count = 4;
  comm.tail_compute_units = 0.5;
  comm.events.push_back({CommOp::Send, 2, 4096, 10.0});
  comm.events.push_back({CommOp::Allreduce, -1, 8, 5.25});
  return comm;
}

TEST(CommTest, RoundTrip) {
  const CommTrace original = sample_comm();
  EXPECT_EQ(CommTrace::from_text(original.to_text()), original);
}

TEST(CommTest, Totals) {
  const CommTrace comm = sample_comm();
  EXPECT_DOUBLE_EQ(comm.total_compute_units(), 15.75);
  EXPECT_EQ(comm.total_bytes(), 4104u);
}

TEST(CommTest, RejectsMalformed) {
  EXPECT_THROW(CommTrace::from_text("not a comm trace"), util::Error);
}

/// A one-event comm trace text with the given fields.
std::string comm_text(const std::string& tail, const std::string& events,
                      const std::string& peer, const std::string& units) {
  return "pmacx-comm\t1\nrank\t0\ncores\t2\ntail\t" + tail + "\nevents\t" + events +
         "\ne\tsend\t" + peer + "\t8\t" + units + "\nend\n";
}

TEST(CommTest, ParsesTheWellFormedBaseline) {
  const CommTrace comm = CommTrace::from_text(comm_text("0.5", "1", "1", "2"));
  ASSERT_EQ(comm.events.size(), 1u);
  EXPECT_EQ(comm.events[0].peer, 1);
  EXPECT_EQ(CommTrace::from_text(comm_text("0", "1", "-1", "0")).events[0].peer, -1);
}

TEST(CommTest, HugeEventCountIsAParseErrorNotAnAllocation) {
  EXPECT_THROW(CommTrace::from_text(comm_text("0", "1000000000000000000", "1", "2")),
               util::Error);
}

TEST(CommTest, PeerMustBeAnInt32Rank) {
  for (const char* peer : {"1e20", "1.5", "2147483648", "-2", "-1.0", "nan"})
    EXPECT_THROW(CommTrace::from_text(comm_text("0", "1", peer, "2")), util::Error) << peer;
  EXPECT_EQ(CommTrace::from_text(comm_text("0", "1", "2147483647", "2")).events[0].peer,
            2147483647);
}

TEST(CommTest, UnitsMustBeFiniteAndNonNegative) {
  for (const char* bad : {"-5", "nan", "inf", "-inf"}) {
    EXPECT_THROW(CommTrace::from_text(comm_text(bad, "1", "1", "2")), util::Error)
        << "tail " << bad;
    EXPECT_THROW(CommTrace::from_text(comm_text("0", "1", "1", bad)), util::Error)
        << "compute units " << bad;
  }
}

// -------------------------------------------------------------- signature ----

std::vector<CommTrace> sample_comm_set(std::uint32_t cores) {
  std::vector<CommTrace> comm(cores);
  for (std::uint32_t r = 0; r < cores; ++r) {
    comm[r].rank = r;
    comm[r].core_count = cores;
  }
  return comm;
}

/// sample_trace() (rank 3) at 4 cores, wrapped with every rank's comm trace.
trace::AppSignature sample_signature() {
  TaskTrace task = sample_trace();
  task.core_count = 4;
  return trace::AppSignature::for_task(std::move(task), sample_comm_set(4));
}

TEST(SignatureTest, ValidSignaturePasses) {
  const trace::AppSignature sig = sample_signature();
  EXPECT_NO_THROW(sig.validate());
  // for_task takes every field from the task it wraps.
  EXPECT_EQ(sig.app, "demo");
  EXPECT_EQ(sig.core_count, 4u);
  EXPECT_EQ(sig.target_system, "test target");
  EXPECT_EQ(sig.demanding_rank, 3u);
  ASSERT_EQ(sig.tasks.size(), 1u);
  EXPECT_EQ(sig.comm.size(), 4u);
  // A comm set that does not cover exactly the task's core count is rejected.
  TaskTrace task = sample_trace();
  task.core_count = 4;
  EXPECT_THROW(trace::AppSignature::for_task(task, sample_comm_set(3)), util::Error);
  EXPECT_THROW(trace::AppSignature::for_task(task, {}), util::Error);
}

TEST(SignatureTest, DemandingTaskLookup) {
  const auto sig = sample_signature();
  EXPECT_EQ(sig.demanding_task().rank, 3u);
  EXPECT_EQ(sig.task_for_rank(0), nullptr);
}

TEST(SignatureTest, MissingDemandingTraceThrows) {
  auto sig = sample_signature();
  sig.demanding_rank = 0;
  EXPECT_THROW(sig.demanding_task(), util::Error);
}

TEST(SignatureTest, RejectsCoreCountMismatch) {
  auto sig = sample_signature();
  sig.tasks[0].core_count = 8;
  EXPECT_THROW(sig.validate(), util::Error);
}

TEST(SignatureTest, RejectsIncompleteCommCoverage) {
  auto sig = sample_signature();
  sig.comm.pop_back();
  EXPECT_THROW(sig.validate(), util::Error);
}

TEST(SignatureTest, RejectsOutOfRangeDemandingRank) {
  auto sig = sample_signature();
  sig.demanding_rank = 99;
  EXPECT_THROW(sig.validate(), util::Error);
}

TEST(SignatureTest, DirectorySaveLoadRoundTrip) {
  trace::AppSignature original = sample_signature();
  // Give the comm traces real content so the concatenated format is
  // exercised.
  original.comm[1].events.push_back({CommOp::Send, 2, 4096, 12.5});
  original.comm[2].events.push_back({CommOp::Recv, 1, 4096, 0.0});
  original.comm[3].tail_compute_units = 7.0;

  const std::string dir = ::testing::TempDir() + "/pmacx_sig_roundtrip";
  original.save(dir);
  const trace::AppSignature loaded = trace::AppSignature::load(dir);

  EXPECT_EQ(loaded.app, original.app);
  EXPECT_EQ(loaded.core_count, original.core_count);
  EXPECT_EQ(loaded.target_system, original.target_system);
  EXPECT_EQ(loaded.demanding_rank, original.demanding_rank);
  ASSERT_EQ(loaded.tasks.size(), original.tasks.size());
  EXPECT_EQ(loaded.tasks[0], original.tasks[0]);
  ASSERT_EQ(loaded.comm.size(), original.comm.size());
  for (std::size_t r = 0; r < original.comm.size(); ++r)
    EXPECT_EQ(loaded.comm[r], original.comm[r]) << "rank " << r;
  std::filesystem::remove_all(dir);
}

TEST(SignatureTest, LoadMissingDirectoryThrows) {
  EXPECT_THROW(trace::AppSignature::load("/nonexistent/sigdir"), util::Error);
}

TEST(SignatureTest, LoadRejectsHugeCommCount) {
  const std::string dir = ::testing::TempDir() + "/pmacx_sig_huge_comm";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/signature.meta") << "pmacx-signature\t1\napp\tdemo\ncores\t1\n"
                                            "target\tt\ndemanding\t0\n"
                                            "comm\t1000000000000000000\n";
  std::ofstream(dir + "/comm.txt") << comm_text("0", "1", "1", "2");
  EXPECT_THROW(trace::AppSignature::load(dir), util::Error);
  std::filesystem::remove_all(dir);
}

TEST(SignatureTest, LoadRejectsForeignMeta) {
  const std::string dir = ::testing::TempDir() + "/pmacx_sig_bad";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/signature.meta") << "not-a-signature\t9\n";
  EXPECT_THROW(trace::AppSignature::load(dir), util::Error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pmacx
