// Fault-injection sweeps over every pmacx input loader, plus the graceful
// degradation paths they feed (salvage reports, fallback fits, clamping
// diagnostics).  The contract under test: for ANY corruption of a valid
// input, a loader either parses, salvages with an accurate report, or
// throws util::ParseError — it never crashes, loops, silently mis-parses,
// or attempts an unbounded allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/diagnostics.hpp"
#include "core/extrapolator.hpp"
#include "machine/multimaps.hpp"
#include "machine/profile.hpp"
#include "machine/profile_io.hpp"
#include "machine/targets.hpp"
#include "trace/binary_io.hpp"
#include "trace/task_trace.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/metrics.hpp"
#include "util/mmap_file.hpp"
#include "util/parse_error.hpp"
#include "util/rng.hpp"

namespace pmacx {
namespace {

using trace::BasicBlockRecord;
using trace::BlockElement;
using trace::InstrElement;
using trace::InstructionRecord;
using trace::TaskTrace;
using util::Corruption;

TaskTrace sample_trace(std::size_t block_count = 4) {
  TaskTrace task;
  task.app = "robust";
  task.rank = 1;
  task.core_count = 64;
  task.target_system = "test target";
  for (std::size_t b = 0; b < block_count; ++b) {
    BasicBlockRecord block;
    block.id = 10 + b;
    block.location = {"kernel.f90", static_cast<std::uint32_t>(100 + b), "kernel"};
    block.set(BlockElement::VisitCount, 100.0 + static_cast<double>(b));
    block.set(BlockElement::MemLoads, 5000.0);
    block.set(BlockElement::MemStores, 2500.0);
    block.set(BlockElement::BytesPerRef, 8.0);
    block.set(BlockElement::HitRateL1, 0.9);
    block.set(BlockElement::HitRateL2, 0.95);
    block.set(BlockElement::HitRateL3, 0.99);
    InstructionRecord instr;
    instr.index = 1;
    instr.set(InstrElement::ExecCount, 100.0);
    instr.set(InstrElement::MemOps, 75.0);
    instr.set(InstrElement::HitRateL1, 0.5);
    instr.set(InstrElement::HitRateL2, 0.6);
    instr.set(InstrElement::HitRateL3, 0.7);
    block.instructions.push_back(instr);
    task.blocks.push_back(block);
  }
  task.sort_blocks();
  return task;
}

/// True when `recovered` is consistent with salvage semantics: every block
/// it carries equals the matching original block.
bool blocks_are_subset(const TaskTrace& recovered, const TaskTrace& original) {
  for (const auto& block : recovered.blocks) {
    const BasicBlockRecord* match = original.find_block(block.id);
    if (match == nullptr || !(*match == block)) return false;
  }
  return true;
}

// ------------------------------------------------------------------ crc32 ----

TEST(Crc32Test, MatchesStandardCheckValue) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::crc32(""), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t oneshot = util::crc32(data);
  const std::uint32_t split =
      util::crc32(data.substr(10), util::crc32(data.substr(0, 10)));
  EXPECT_EQ(split, oneshot);
}

// ------------------------------------------------------------- parse error ----

TEST(ParseErrorTest, RendersAllContext) {
  const util::ParseError e("a.trace", 128, "block section", "checksum mismatch");
  EXPECT_NE(std::string(e.what()).find("a.trace"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("block section"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("at byte 128"), std::string::npos);
  EXPECT_EQ(e.path(), "a.trace");
  EXPECT_EQ(e.byte_offset(), 128u);
}

TEST(ParseErrorTest, WithPathPreservesLocation) {
  const util::ParseError bare("", 7, "header", "bad");
  const util::ParseError contextual = bare.with_path("x.trace");
  EXPECT_EQ(contextual.path(), "x.trace");
  EXPECT_EQ(contextual.byte_offset(), 7u);
  EXPECT_EQ(contextual.section(), "header");
}

TEST(ParseErrorTest, LoadersAttachThePath) {
  const std::string path = ::testing::TempDir() + "/pmacx_robust_corrupt.btrace";
  std::string bytes = trace::to_binary(sample_trace());
  bytes[bytes.size() / 2] ^= 0x40;  // payload damage -> checksum mismatch
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)trace::load_binary(path);
    FAIL() << "corrupted file parsed cleanly";
  } catch (const util::ParseError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(e.byte_offset(), util::ParseError::kNoOffset);
  }
  std::remove(path.c_str());
}

// ----------------------------------------------------------- fault library ----

TEST(FaultInjectTest, CorruptionsAreDeterministic) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    const Corruption ca = util::random_corruption(a, 1000);
    const Corruption cb = util::random_corruption(b, 1000);
    EXPECT_EQ(ca.kind, cb.kind);
    EXPECT_EQ(ca.position, cb.position);
    EXPECT_EQ(ca.value, cb.value);
  }
}

TEST(FaultInjectTest, ApplyMatchesDescription) {
  const std::string bytes = "abcdef";
  EXPECT_EQ(util::apply_corruption(bytes, {Corruption::Kind::Truncate, 3, 0}), "abc");
  EXPECT_EQ(util::apply_corruption(bytes, {Corruption::Kind::MutateByte, 1, 'X'}),
            "aXcdef");
  const std::string flipped =
      util::apply_corruption(bytes, {Corruption::Kind::BitFlip, 0, 0});
  EXPECT_EQ(flipped[0], 'a' ^ 1);
  EXPECT_EQ(util::apply_corruption(bytes, {Corruption::Kind::Extend, 4, 9}).size(),
            bytes.size() + 4);
}

TEST(FaultInjectTest, SweepsCoverEveryPosition) {
  EXPECT_EQ(util::truncation_sweep(10).size(), 10u);
  EXPECT_EQ(util::truncation_sweep(10, 3).size(), 4u);  // 0, 3, 6, 9
  EXPECT_EQ(util::bit_flip_sweep(4).size(), 32u);
}

// -------------------------------------------------- binary trace contract ----

/// Drives one corrupted byte string through the strict and salvage binary
/// loaders, asserting the contract.  Returns true when strict parsing
/// succeeded (caller may want to check content).
bool check_binary_contract(const TaskTrace& original, const std::string& corrupted) {
  try {
    const TaskTrace parsed = trace::from_binary(corrupted);
    // Strict success on a corrupted v002 input must mean the corruption
    // was immaterial — never a silently different trace.
    EXPECT_EQ(parsed, original) << "silent mis-parse";
    return true;
  } catch (const util::ParseError&) {
    // Expected rejection; salvage must still uphold the contract.
    try {
      trace::SalvageReport report;
      const TaskTrace recovered = trace::salvage_binary(corrupted, report);
      EXPECT_LE(recovered.blocks.size(), original.blocks.size());
      EXPECT_TRUE(blocks_are_subset(recovered, original)) << "salvage invented data";
    } catch (const util::ParseError&) {
      // Not even a header to salvage — acceptable.
    }
    return false;
  }
  // Any other exception type escapes and fails the test.
}

TEST(BinaryRobustnessTest, SeededCorruptionSweep) {
  const TaskTrace original = sample_trace();
  const std::string bytes = trace::to_binary(original);
  util::Rng rng(2026);
  for (int i = 0; i < 2000; ++i) {
    const Corruption corruption = util::random_corruption(rng, bytes.size());
    SCOPED_TRACE(corruption.describe());
    check_binary_contract(original, util::apply_corruption(bytes, corruption));
  }
}

TEST(BinaryRobustnessTest, TruncateAtEveryByte) {
  const TaskTrace original = sample_trace();
  const std::string bytes = trace::to_binary(original);
  for (const Corruption& c : util::truncation_sweep(bytes.size())) {
    SCOPED_TRACE(c.describe());
    // Every strict parse of a strictly shorter file must fail: the end
    // marker is gone.
    EXPECT_THROW((void)trace::from_binary(util::apply_corruption(bytes, c)),
                 util::ParseError);
    check_binary_contract(original, util::apply_corruption(bytes, c));
  }
}

TEST(BinaryRobustnessTest, FlipEveryHeaderBit) {
  const TaskTrace original = sample_trace();
  const std::string bytes = trace::to_binary(original);
  // Magic + header section frame + header payload.
  for (const Corruption& c : util::bit_flip_sweep(64)) {
    SCOPED_TRACE(c.describe());
    check_binary_contract(original, util::apply_corruption(bytes, c));
  }
}

TEST(BinaryRobustnessTest, V001SeededCorruptionSweep) {
  const TaskTrace original = sample_trace();
  const std::string bytes = trace::to_binary_v001(original);
  util::Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const Corruption corruption = util::random_corruption(rng, bytes.size());
    SCOPED_TRACE(corruption.describe());
    const std::string corrupted = util::apply_corruption(bytes, corruption);
    // v001 has no checksums, so flips inside numeric payloads can parse to
    // different values — the contract is only parse/salvage/ParseError.
    try {
      (void)trace::from_binary(corrupted);
    } catch (const util::ParseError&) {
      try {
        trace::SalvageReport report;
        (void)trace::salvage_binary(corrupted, report);
      } catch (const util::ParseError&) {
      }
    }
  }
}

TEST(BinaryRobustnessTest, CorruptedCountCannotForceHugeAllocation) {
  // A flipped block/instruction count used to feed reserve() unchecked
  // (binary_io.cpp v001 path); both versions must now reject it before
  // allocating.
  const TaskTrace original = sample_trace();
  for (std::string bytes : {trace::to_binary_v001(original), trace::to_binary(original)}) {
    // The block count is the trailing u64 of the header fields; overwrite
    // every u64-sized window with a huge value and require clean failure.
    const std::uint64_t huge = 1ull << 60;
    for (std::size_t at = 8; at + 8 <= std::min<std::size_t>(bytes.size(), 96); ++at) {
      std::string corrupted = bytes;
      std::memcpy(corrupted.data() + at, &huge, sizeof huge);
      try {
        (void)trace::from_binary(corrupted);
      } catch (const util::ParseError&) {
      }
    }
  }
}

TEST(BinaryRobustnessTest, SalvageRecoversPrefixOfTruncatedFile) {
  const TaskTrace original = sample_trace(6);
  const std::string bytes = trace::to_binary(original);
  // Cut the file in half: the header and the first blocks survive.
  trace::SalvageReport report;
  const TaskTrace recovered =
      trace::salvage_binary(bytes.substr(0, bytes.size() / 2), report);
  EXPECT_TRUE(report.used);
  EXPECT_EQ(report.blocks_expected, original.blocks.size());
  EXPECT_GT(report.blocks_recovered, 0u);
  EXPECT_LT(report.blocks_recovered, original.blocks.size());
  EXPECT_EQ(report.blocks_recovered + report.blocks_lost(), original.blocks.size());
  EXPECT_FALSE(report.error.empty());
  EXPECT_EQ(recovered.blocks.size(), report.blocks_recovered);
  EXPECT_TRUE(blocks_are_subset(recovered, original));
  EXPECT_EQ(recovered.app, original.app);
  EXPECT_EQ(recovered.core_count, original.core_count);
}

TEST(BinaryRobustnessTest, SalvageStopsAtFirstBadChecksum) {
  const TaskTrace original = sample_trace(6);
  std::string bytes = trace::to_binary(original);
  // Damage a byte ~60% into the file: some block section's payload.
  bytes[bytes.size() * 6 / 10] ^= 0x10;
  trace::SalvageReport report;
  const TaskTrace recovered = trace::salvage_binary(bytes, report);
  EXPECT_TRUE(report.used);
  EXPECT_NE(report.error.find("checksum"), std::string::npos) << report.error;
  EXPECT_LT(recovered.blocks.size(), original.blocks.size());
  EXPECT_TRUE(blocks_are_subset(recovered, original));
}

TEST(BinaryRobustnessTest, SalvageOfCleanFileReportsNothingLost) {
  const TaskTrace original = sample_trace();
  trace::SalvageReport report;
  const TaskTrace recovered = trace::salvage_binary(trace::to_binary(original), report);
  EXPECT_FALSE(report.used);
  EXPECT_EQ(report.blocks_lost(), 0u);
  EXPECT_EQ(recovered, original);
}

TEST(BinaryRobustnessTest, LoadSalvageHandlesBothFormats) {
  const TaskTrace original = sample_trace();
  const std::string dir = ::testing::TempDir();

  const std::string text_path = dir + "/pmacx_robust_text.trace";
  original.save(text_path);
  trace::SalvageReport report;
  EXPECT_EQ(trace::load_salvage(text_path, report), original);
  EXPECT_FALSE(report.used);
  std::remove(text_path.c_str());

  const std::string bin_path = dir + "/pmacx_robust_bin.btrace";
  std::string bytes = trace::to_binary(original);
  bytes.resize(bytes.size() - 10);  // damaged end marker
  {
    std::ofstream out(bin_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const TaskTrace recovered = trace::load_salvage(bin_path, report);
  EXPECT_TRUE(report.used);
  EXPECT_EQ(recovered.blocks.size(), original.blocks.size());
  std::remove(bin_path.c_str());
}

// ------------------------------------------------- mmap loader contract ----

// The file loaders now parse straight out of a memory map (util::MappedFile)
// when the platform allows it.  The contract is the same as for buffered
// reads — parse, salvage, or ParseError — plus one mmap-specific hazard to
// pin down: a damaged or truncated file must never fault (SIGBUS) even when
// the damage lands mid-page or at a page boundary.

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A trace big enough that its binary form spans several 4 KiB pages, so
/// truncation and corruption sweeps cross page boundaries under mmap.
TaskTrace multipage_trace() { return sample_trace(120); }

TEST(MmapLoaderTest, LoadersCountTheMmapPath) {
  const std::string path = ::testing::TempDir() + "/pmacx_mmap_counted.btrace";
  const TaskTrace original = multipage_trace();
  trace::save_binary(original, path);
  auto& registry = util::metrics::Registry::global();
  const std::uint64_t bytes_before = registry.counter("trace.mmap_bytes").value();
  const std::uint64_t falls_before = registry.counter("trace.mmap_fallbacks").value();
  EXPECT_EQ(trace::load_binary(path), original);
  EXPECT_EQ(TaskTrace::load(path), original);
  const std::uint64_t bytes_after = registry.counter("trace.mmap_bytes").value();
  const std::uint64_t falls_after = registry.counter("trace.mmap_fallbacks").value();
  // Exactly one of the two paths was taken, per load, on every platform.
  const std::uint64_t mapped = bytes_after - bytes_before;
  const std::uint64_t fell_back = falls_after - falls_before;
  if (util::MappedFile::supported()) {
    EXPECT_EQ(mapped, 2 * trace::to_binary(original).size());
    EXPECT_EQ(fell_back, 0u);
  } else {
    EXPECT_EQ(mapped, 0u);
    EXPECT_EQ(fell_back, 2u);
  }
  std::remove(path.c_str());
}

TEST(MmapLoaderTest, MissingFileFallsBackToTheBufferedError) {
  const std::string path = ::testing::TempDir() + "/pmacx_mmap_never_written.btrace";
  std::remove(path.c_str());
  EXPECT_THROW((void)trace::load_binary(path), util::Error);
}

TEST(MmapLoaderTest, EmptyFileIsACleanParseError) {
  const std::string path = ::testing::TempDir() + "/pmacx_mmap_empty.btrace";
  write_bytes(path, "");
  EXPECT_THROW((void)trace::load_binary(path), util::ParseError);
  EXPECT_THROW((void)TaskTrace::load(path), util::ParseError);
  std::remove(path.c_str());
}

TEST(MmapLoaderTest, TruncationAcrossPageBoundariesNeverFaults) {
  const std::string path = ::testing::TempDir() + "/pmacx_mmap_trunc.btrace";
  const TaskTrace original = multipage_trace();
  const std::string bytes = trace::to_binary(original);
  ASSERT_GT(bytes.size(), 3u * 4096u) << "trace must span several pages";
  // Mid-page, page-boundary, and boundary-straddling truncation points.
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{4095}, std::size_t{4096},
        std::size_t{4097}, std::size_t{8192}, bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    write_bytes(path, bytes.substr(0, keep));
    EXPECT_THROW((void)trace::load_binary(path), util::ParseError);
    // Salvage must recover a clean prefix from the same mapped view.
    if (keep > 4096) {
      trace::SalvageReport report;
      const TaskTrace recovered = trace::load_salvage(path, report);
      EXPECT_TRUE(report.used);
      EXPECT_TRUE(blocks_are_subset(recovered, original));
    }
  }
  std::remove(path.c_str());
}

TEST(MmapLoaderTest, OnDiskCorruptionSweepUpholdsTheLoaderContract) {
  const std::string path = ::testing::TempDir() + "/pmacx_mmap_sweep.btrace";
  const TaskTrace original = multipage_trace();
  const std::string bytes = trace::to_binary(original);
  util::Rng rng(31337);
  for (int round = 0; round < 150; ++round) {
    const Corruption corruption = util::random_corruption(rng, bytes.size());
    SCOPED_TRACE(corruption.describe());
    write_bytes(path, util::apply_corruption(bytes, corruption));
    try {
      const TaskTrace parsed = trace::load_binary(path);
      EXPECT_EQ(parsed, original) << "silent mis-parse through the mmap path";
    } catch (const util::ParseError&) {
      trace::SalvageReport report;
      try {
        const TaskTrace recovered = trace::load_salvage(path, report);
        EXPECT_TRUE(blocks_are_subset(recovered, original));
      } catch (const util::ParseError&) {
        // Not even a header to salvage — acceptable.
      }
    }
  }
  std::remove(path.c_str());
}

// ----------------------------------------------------- text trace contract ----

TEST(TextRobustnessTest, SeededCorruptionSweep) {
  const std::string text = sample_trace().to_text();
  util::Rng rng(99);
  for (int i = 0; i < 1500; ++i) {
    const Corruption corruption = util::random_corruption(rng, text.size());
    SCOPED_TRACE(corruption.describe());
    try {
      (void)TaskTrace::from_text(util::apply_corruption(text, corruption));
    } catch (const util::ParseError&) {
      // The only acceptable failure mode.
    }
  }
}

TEST(TextRobustnessTest, TruncateAtEveryByte) {
  const TaskTrace original = sample_trace();
  const std::string text = original.to_text();
  for (const Corruption& c : util::truncation_sweep(text.size())) {
    SCOPED_TRACE(c.describe());
    try {
      // A truncation that only sheds trailing formatting may still parse —
      // but then it must parse to exactly the original trace.
      EXPECT_EQ(TaskTrace::from_text(util::apply_corruption(text, c)), original);
    } catch (const util::ParseError&) {
      // The expected outcome for every truncation that loses data.
    }
  }
}

TEST(TextRobustnessTest, HugeDeclaredCountCannotForceHugeAllocation) {
  // A corrupted "blocks" or "instrs" count used to feed reserve() unchecked,
  // escaping from_text as std::length_error/std::bad_alloc; the loader must
  // clamp the reservation and fail with the usual typed error instead.
  const std::string text = sample_trace().to_text();
  for (const char* key : {"blocks\t", "instrs\t"}) {
    std::string corrupted = text;
    const std::size_t at = corrupted.find(key);
    ASSERT_NE(at, std::string::npos);
    corrupted.replace(at + std::strlen(key), 1, "1152921504606846976");
    EXPECT_THROW((void)TaskTrace::from_text(corrupted), util::ParseError);
  }
}

TEST(TextRobustnessTest, ErrorsCarryTheLine) {
  std::string text = sample_trace().to_text();
  text.replace(text.find("cores"), 5, "cares");
  try {
    (void)TaskTrace::from_text(text);
    FAIL() << "corrupted key parsed cleanly";
  } catch (const util::ParseError& e) {
    EXPECT_NE(e.section().find("line"), std::string::npos) << e.what();
  }
}

// ------------------------------------------------ machine profile contract ----

machine::MachineProfile sample_profile() {
  machine::MultiMapsOptions options;
  options.working_sets = {16ull << 10, 256ull << 10};
  options.strides = {1, 8};
  options.min_refs_per_probe = 20'000;
  options.max_refs_per_probe = 50'000;
  return machine::build_profile(machine::xt5_base(), options);
}

TEST(ProfileRobustnessTest, SeededCorruptionSweep) {
  const std::string text = machine::profile_to_text(sample_profile());
  util::Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    const Corruption corruption = util::random_corruption(rng, text.size());
    SCOPED_TRACE(corruption.describe());
    try {
      (void)machine::profile_from_text(util::apply_corruption(text, corruption));
    } catch (const util::ParseError&) {
    } catch (const util::Error&) {
      // Hierarchy/energy validation rejects semantically impossible but
      // well-formed values; still a clean, typed refusal.
    }
  }
}

TEST(ProfileRobustnessTest, TruncateAtEveryLine) {
  const std::string text = machine::profile_to_text(sample_profile());
  for (std::size_t at = text.find('\n'); at != std::string::npos;
       at = text.find('\n', at + 1)) {
    try {
      (void)machine::profile_from_text(text.substr(0, at));
      // Only a truncation that sheds nothing but trailing formatting may
      // still parse.
      EXPECT_GT(at + 2, text.size()) << "truncated at byte " << at;
    } catch (const util::Error&) {
      // Typed rejection — the expected outcome.
    }
  }
}

TEST(ProfileRobustnessTest, HugeDeclaredSampleCountCannotForceHugeAllocation) {
  const std::string text = machine::profile_to_text(sample_profile());
  std::string corrupted = text;
  const std::size_t at = corrupted.find("samples\t");
  ASSERT_NE(at, std::string::npos);
  corrupted.replace(at + std::strlen("samples\t"), 1, "1152921504606846976");
  EXPECT_THROW((void)machine::profile_from_text(corrupted), util::ParseError);
}

TEST(ProfileRobustnessTest, LoadAttachesPath) {
  const std::string path = ::testing::TempDir() + "/pmacx_robust_profile.prof";
  std::string text = machine::profile_to_text(sample_profile());
  text.resize(text.size() / 2);
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }
  try {
    (void)machine::load_profile(path);
    FAIL() << "truncated profile parsed cleanly";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- graceful degradation ----

TEST(DiagnosticsTest, CleanReportCollapses) {
  core::DiagnosticsReport report;
  EXPECT_TRUE(report.clean());
  EXPECT_NE(report.summary().find("clean"), std::string::npos);
}

TEST(DiagnosticsTest, WarningsAreCapped) {
  core::DiagnosticsReport report;
  for (std::size_t i = 0; i < core::DiagnosticsReport::kMaxWarnings + 10; ++i)
    report.warn("w" + std::to_string(i));
  EXPECT_EQ(report.warnings.size(), core::DiagnosticsReport::kMaxWarnings);
  EXPECT_EQ(report.suppressed_warnings, 10u);
  EXPECT_FALSE(report.clean());
}

TEST(DiagnosticsTest, MergeAccumulates) {
  core::DiagnosticsReport a, b;
  a.fallback_fits = 2;
  a.warn("first");
  b.clamped_values = 3;
  b.salvaged_files = 1;
  b.salvaged_blocks = 7;
  b.lost_blocks = 5;
  b.warn("second");
  a.merge(b);
  EXPECT_EQ(a.fallback_fits, 2u);
  EXPECT_EQ(a.clamped_values, 3u);
  EXPECT_EQ(a.salvaged_blocks, 7u);
  EXPECT_EQ(a.lost_blocks, 5u);
  EXPECT_EQ(a.warnings.size(), 2u);
  const std::string summary = a.summary();
  EXPECT_NE(summary.find("fallback"), std::string::npos);
  EXPECT_NE(summary.find("clamped"), std::string::npos);
  EXPECT_NE(summary.find("salvaged"), std::string::npos);
}

/// A two-point trace series whose chosen element series is set explicitly.
std::vector<TaskTrace> series_with_visits(double v_small, double v_large) {
  std::vector<TaskTrace> series;
  for (double value : {v_small, v_large}) {
    TaskTrace task = sample_trace(1);
    task.core_count = value == v_small ? 8 : 16;
    task.blocks[0].set(BlockElement::VisitCount, value);
    series.push_back(std::move(task));
  }
  return series;
}

TEST(DegradationTest, CleanExtrapolationReportsClean) {
  const auto series = series_with_visits(100.0, 200.0);
  const auto result = core::extrapolate_task(series, 64);
  EXPECT_TRUE(result.diagnostics.clean()) << result.diagnostics.summary();
}

TEST(DegradationTest, ClampedValuesAreCounted) {
  // A steeply decaying count under a linear-only form set extrapolates
  // negative at the target; the value must be clamped to 0 and counted.
  const auto series = series_with_visits(1000.0, 10.0);
  core::ExtrapolationOptions options;
  options.fit.forms = {stats::Form::Linear};
  options.reject_out_of_domain = false;
  const auto result = core::extrapolate_task(series, 1024, options);
  EXPECT_GT(result.diagnostics.clamped_values, 0u);
  EXPECT_FALSE(result.diagnostics.clean());
  const auto* block = result.trace.find_block(10);
  ASSERT_NE(block, nullptr);
  EXPECT_GE(block->get(BlockElement::VisitCount), 0.0);
}

TEST(DegradationTest, OverflowingFitFallsBackToConstant) {
  // A slope of ~1e305/8 overflows past the largest double at p = 1e6; the
  // extrapolator must substitute the constant fallback, not emit inf.
  const auto series = series_with_visits(1.0e305, 1.7e308);
  core::ExtrapolationOptions options;
  options.fit.forms = {stats::Form::Linear};
  options.reject_out_of_domain = false;
  const auto result = core::extrapolate_task(series, 1'000'000, options);
  EXPECT_GT(result.diagnostics.fallback_fits, 0u) << result.diagnostics.summary();
  EXPECT_FALSE(result.diagnostics.warnings.empty());
  const auto* block = result.trace.find_block(10);
  ASSERT_NE(block, nullptr);
  EXPECT_TRUE(std::isfinite(block->get(BlockElement::VisitCount)));
  // The synthetic trace must remain structurally valid despite degradation.
  EXPECT_NO_THROW(result.trace.validate());
}

// ------------------------------------------------------ atomic persistence ----

/// Fresh scratch path under the test temp dir, with any leftovers removed.
std::string scratch_path(const std::string& leaf) {
  const std::string path = ::testing::TempDir() + "/pmacx_atomic_" + leaf;
  std::filesystem::remove(path);
  return path;
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(AtomicFileTest, CheckedRoundTrip) {
  const std::string path = scratch_path("roundtrip.bin");
  const std::string payload("payload with \0 embedded bytes", 29);
  util::save_checked(path, payload);
  EXPECT_EQ(util::load_checked(path), payload);
  ASSERT_TRUE(util::try_load_checked(path).has_value());
  EXPECT_EQ(*util::try_load_checked(path), payload);
  std::filesystem::remove(path);
}

TEST(AtomicFileTest, EveryTruncationOfACheckedFileIsRejected) {
  // The kill window this simulates: a crash while the bytes of a *non-atomic*
  // writer were landing.  (write_file_atomic can't produce these states at
  // the destination path — that is the point — so they are forged directly.)
  const std::string path = scratch_path("truncated.bin");
  util::save_checked(path, "twelve bytes");
  const std::string full = util::read_file(path);
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    write_raw(path, full.substr(0, keep));
    EXPECT_FALSE(util::try_load_checked(path).has_value())
        << "a " << keep << "-byte torn prefix loaded as a complete record";
    EXPECT_THROW((void)util::load_checked(path), util::ParseError);
  }
  std::filesystem::remove(path);
}

TEST(AtomicFileTest, EveryByteFlipOfACheckedFileIsRejected) {
  const std::string path = scratch_path("flipped.bin");
  util::save_checked(path, "bit-rot canary payload");
  const std::string full = util::read_file(path);
  for (std::size_t at = 0; at < full.size(); ++at) {
    std::string damaged = full;
    damaged[at] ^= 0x04;
    write_raw(path, damaged);
    EXPECT_FALSE(util::try_load_checked(path).has_value())
        << "flip at byte " << at << " went undetected";
  }
  std::filesystem::remove(path);
}

TEST(AtomicFileTest, TornTempFileIsIgnoredAndTheOldFileSurvives) {
  // A writer killed between temp-write and rename leaves exactly this state:
  // the destination holds the previous record, a stale temp sits beside it.
  const std::string path = scratch_path("tornwrite.bin");
  util::save_checked(path, "generation 1");
  write_raw(path + ".tmp.424242", "half-written garbage from a dead process");

  EXPECT_EQ(util::load_checked(path), "generation 1") << "old file must stay intact";

  // The next successful write supersedes both the record and the leftover.
  util::save_checked(path, "generation 2");
  EXPECT_EQ(util::load_checked(path), "generation 2");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp.424242");
}

TEST(AtomicFileTest, MissingFileIsNulloptNotAThrow) {
  EXPECT_FALSE(util::try_load_checked(scratch_path("never_written.bin")).has_value());
}

// ------------------------------------------------------ checkpoint contract ----

/// A three-point series with clean per-block scaling, enough blocks for
/// several checkpoint chunks at chunk_elements = 2.
std::vector<TaskTrace> checkpoint_series() {
  std::vector<TaskTrace> series;
  for (std::uint32_t p : {8u, 16u, 32u}) {
    TaskTrace task = sample_trace(6);
    task.core_count = p;
    for (auto& block : task.blocks) {
      block.set(BlockElement::MemLoads, 8.0e6 / p);
      block.set(BlockElement::MemStores, 4.0e6 / p);
    }
    series.push_back(std::move(task));
  }
  return series;
}

/// The invariant every checkpoint path must uphold: whatever the prior
/// on-disk state, the fitted set extrapolates byte-identically.
std::string checkpoint_golden_bytes(const core::TaskModelSet& models) {
  return trace::to_binary(core::extrapolate_from_models(models, 256).trace);
}

TEST(CheckpointTest, WarmResumeReusesEverythingAndMatchesColdRun) {
  const auto series = checkpoint_series();
  const std::string dir = ::testing::TempDir() + "/pmacx_ckpt_warm";
  std::filesystem::remove_all(dir);
  core::CheckpointConfig config;
  config.dir = dir;
  config.digest = "aaaaaaaaaaaaaaaa";
  config.chunk_elements = 2;

  core::CheckpointStats cold;
  const auto cold_set = core::fit_task_models_checkpointed(series, {}, config, &cold);
  EXPECT_EQ(cold.elements_reused, 0u);
  EXPECT_EQ(cold.elements_fitted, cold.elements_total);
  EXPECT_FALSE(cold.resumed);
  const std::string golden = checkpoint_golden_bytes(cold_set);

  core::CheckpointStats warm;
  const auto warm_set = core::fit_task_models_checkpointed(series, {}, config, &warm);
  EXPECT_EQ(warm.elements_fitted, 0u);
  EXPECT_EQ(warm.elements_reused, warm.elements_total);
  EXPECT_TRUE(warm.resumed);
  EXPECT_EQ(checkpoint_golden_bytes(warm_set), golden);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, DigestMismatchDiscardsStaleStateAndRefitsCleanly) {
  const auto series = checkpoint_series();
  const std::string dir = ::testing::TempDir() + "/pmacx_ckpt_digest";
  std::filesystem::remove_all(dir);
  core::CheckpointConfig config;
  config.dir = dir;
  config.digest = "aaaaaaaaaaaaaaaa";
  config.chunk_elements = 2;
  const auto first = core::fit_task_models_checkpointed(series, {}, config, nullptr);
  const std::string golden = checkpoint_golden_bytes(first);

  // Same directory, different content digest: everything on disk describes
  // some other workload and must be dropped, never reused.
  config.digest = "bbbbbbbbbbbbbbbb";
  core::CheckpointStats stats;
  const auto refit = core::fit_task_models_checkpointed(series, {}, config, &stats);
  EXPECT_EQ(stats.elements_reused, 0u);
  EXPECT_EQ(stats.elements_fitted, stats.elements_total);
  EXPECT_FALSE(stats.resumed);
  EXPECT_EQ(checkpoint_golden_bytes(refit), golden);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, OtherSeriesUnderTheSameDigestAreRefitNotReused) {
  // Chunks stored under the workload's digest but fitted over other series
  // (a digest collision, or a directory reused by hand) must not smuggle
  // those models in: a load compares every stored fit series with the one
  // the inputs derive and discards a chunk that differs.
  const auto series = checkpoint_series();
  const std::string dir = ::testing::TempDir() + "/pmacx_ckpt_other_series";
  std::filesystem::remove_all(dir);
  core::CheckpointConfig config;
  config.dir = dir;
  config.digest = "aaaaaaaaaaaaaaaa";
  config.chunk_elements = 2;
  core::fit_task_models_checkpointed(series, {}, config, nullptr);

  std::vector<TaskTrace> other = series;
  other.back().core_count = 64;  // every element's fit axis differs
  core::CheckpointStats stats;
  const auto resumed = core::fit_task_models_checkpointed(other, {}, config, &stats);
  EXPECT_EQ(stats.elements_reused, 0u) << "chunks of other series must never be reused";
  EXPECT_EQ(stats.elements_fitted, stats.elements_total);
  EXPECT_EQ(checkpoint_golden_bytes(resumed),
            checkpoint_golden_bytes(core::fit_task_models(other, {})));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, VersionMismatchDiscardsTheCheckpoint) {
  const auto series = checkpoint_series();
  const std::string dir = ::testing::TempDir() + "/pmacx_ckpt_version";
  std::filesystem::remove_all(dir);
  core::CheckpointConfig config;
  config.dir = dir;
  config.digest = "aaaaaaaaaaaaaaaa";
  config.chunk_elements = 2;
  const auto first = core::fit_task_models_checkpointed(series, {}, config, nullptr);
  const std::string golden = checkpoint_golden_bytes(first);

  // Forge a manifest from the predecessor format version.  The CRC trailer
  // is valid — only the version string disagrees — so this is the
  // "software upgraded across a resume" case, not corruption.
  std::string payload;
  auto put_str = [&payload](const std::string& s) {
    const auto size = static_cast<std::uint32_t>(s.size());
    payload.append(reinterpret_cast<const char*>(&size), sizeof(size));
    payload += s;
  };
  auto put_u64 = [&payload](std::uint64_t v) {
    payload.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_str("pmacx-ckpt-v2");
  put_str(config.digest);
  put_u64(first.size());
  put_u64(config.chunk_elements);
  util::save_checked(dir + "/manifest.ckpt", payload);
  const std::string first_chunk = util::read_file(dir + "/models_000000.ckpt");

  core::CheckpointStats stats;
  const auto refit = core::fit_task_models_checkpointed(series, {}, config, &stats);
  EXPECT_EQ(stats.elements_reused, 0u) << "stale-version chunks must never be reused";
  EXPECT_EQ(stats.elements_fitted, stats.elements_total);
  EXPECT_EQ(checkpoint_golden_bytes(refit), golden);
  // The refit rewrites the chunk with bitwise the same models.
  EXPECT_EQ(util::read_file(dir + "/models_000000.ckpt"), first_chunk);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, CorruptChunkIsDiscardedAndOnlyItIsRefitted) {
  const auto series = checkpoint_series();
  const std::string dir = ::testing::TempDir() + "/pmacx_ckpt_chunk";
  std::filesystem::remove_all(dir);
  core::CheckpointConfig config;
  config.dir = dir;
  config.digest = "aaaaaaaaaaaaaaaa";
  config.chunk_elements = 2;
  const auto first = core::fit_task_models_checkpointed(series, {}, config, nullptr);
  const std::string golden = checkpoint_golden_bytes(first);

  std::string damaged_chunk = dir + "/models_000001.ckpt";
  ASSERT_TRUE(std::filesystem::exists(damaged_chunk));
  std::string bytes = util::read_file(damaged_chunk);
  bytes[bytes.size() / 2] ^= 0x20;
  write_raw(damaged_chunk, bytes);

  core::CheckpointStats stats;
  const auto resumed = core::fit_task_models_checkpointed(series, {}, config, &stats);
  EXPECT_GE(stats.chunks_discarded, 1u);
  EXPECT_GT(stats.elements_reused, 0u) << "undamaged chunks must still be reused";
  EXPECT_GT(stats.elements_fitted, 0u) << "the damaged chunk must be refitted";
  EXPECT_LT(stats.elements_fitted, stats.elements_total);
  EXPECT_EQ(checkpoint_golden_bytes(resumed), golden);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, CorruptManifestForcesCleanFullRefit) {
  const auto series = checkpoint_series();
  const std::string dir = ::testing::TempDir() + "/pmacx_ckpt_manifest";
  std::filesystem::remove_all(dir);
  core::CheckpointConfig config;
  config.dir = dir;
  config.digest = "aaaaaaaaaaaaaaaa";
  config.chunk_elements = 2;
  const auto first = core::fit_task_models_checkpointed(series, {}, config, nullptr);
  const std::string golden = checkpoint_golden_bytes(first);

  std::string bytes = util::read_file(dir + "/manifest.ckpt");
  bytes[bytes.size() / 3] ^= 0x08;
  write_raw(dir + "/manifest.ckpt", bytes);

  core::CheckpointStats stats;
  const auto refit = core::fit_task_models_checkpointed(series, {}, config, &stats);
  EXPECT_EQ(stats.elements_reused, 0u);
  EXPECT_EQ(stats.elements_fitted, stats.elements_total);
  EXPECT_EQ(checkpoint_golden_bytes(refit), golden);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, RandomCorruptionOfCheckpointFilesNeverCrashesOrLies) {
  const auto series = checkpoint_series();
  const std::string dir = ::testing::TempDir() + "/pmacx_ckpt_sweep";
  std::filesystem::remove_all(dir);
  core::CheckpointConfig config;
  config.dir = dir;
  config.digest = "aaaaaaaaaaaaaaaa";
  config.chunk_elements = 2;
  const auto first = core::fit_task_models_checkpointed(series, {}, config, nullptr);
  const std::string golden = checkpoint_golden_bytes(first);

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  std::vector<std::string> pristine;
  for (const auto& file : files) pristine.push_back(util::read_file(file));

  util::Rng rng(4242);
  for (int round = 0; round < 60; ++round) {
    const std::size_t target = rng.below(files.size());
    const Corruption corruption = util::random_corruption(rng, pristine[target].size());
    SCOPED_TRACE(files[target] + ": " + corruption.describe());
    write_raw(files[target], util::apply_corruption(pristine[target], corruption));
    core::CheckpointStats stats;
    const auto models = core::fit_task_models_checkpointed(series, {}, config, &stats);
    // The one inviolable contract: whatever the damage did, the result is
    // byte-identical and accounting stays total.
    EXPECT_EQ(checkpoint_golden_bytes(models), golden);
    EXPECT_EQ(stats.elements_reused + stats.elements_fitted, stats.elements_total);
    // The run repaired the store on disk; restore the damaged byte pattern
    // baseline for the next round from the now-clean state.
    for (std::size_t i = 0; i < files.size(); ++i) pristine[i] = util::read_file(files[i]);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pmacx
