#include "trace/task_trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "trace/stream_reader.hpp"
#include "util/error.hpp"
#include "util/parse_error.hpp"
#include "util/strings.hpp"

namespace pmacx::trace {
namespace {

constexpr const char* kMagic = "pmacx-trace";
constexpr const char* kVersion = "1";

// Smallest possible text encodings, used to clamp reserve() calls against a
// corrupted declared count (the parse then fails at end-of-input with the
// usual ParseError instead of attempting an unbounded allocation).  A block
// is at least a "block", a "features", and an "instrs" line; an instruction
// is one "i" line.
constexpr std::size_t kMinTextBlockBytes =
    12 + (9 + 2 * kBlockElementCount) + 9;
constexpr std::size_t kMinTextInstrBytes = 4 + 2 * kInstrElementCount;

/// Line-oriented reader that tracks position for error messages.  Pulls raw
/// lines from a feed so the same grammar parses an in-memory string and a
/// budget-bounded ByteSource alike.
class LineReader {
 public:
  using Feed = std::function<bool(std::string&)>;

  explicit LineReader(Feed feed) : feed_(std::move(feed)) {}

  /// Next non-empty line, split on tabs; throws at EOF.
  std::vector<std::string> next(const char* expectation) {
    std::string line;
    while (feed_(line)) {
      ++line_number_;
      if (!line.empty()) return util::split(line, '\t');
    }
    PMACX_CHECK(false, std::string("unexpected end of trace while reading ") + expectation);
    return {};
  }

  int line_number() const { return line_number_; }

 private:
  Feed feed_;
  int line_number_ = 0;
};

std::string field(const std::vector<std::string>& fields, std::size_t index,
                  const char* what) {
  PMACX_CHECK(index < fields.size(), std::string("missing field: ") + what);
  return fields[index];
}

}  // namespace

const BasicBlockRecord* TaskTrace::find_block(std::uint64_t id) const {
  const auto it = std::lower_bound(
      blocks.begin(), blocks.end(), id,
      [](const BasicBlockRecord& block, std::uint64_t key) { return block.id < key; });
  if (it == blocks.end() || it->id != id) return nullptr;
  return &*it;
}

void TaskTrace::sort_blocks() {
  std::sort(blocks.begin(), blocks.end(),
            [](const BasicBlockRecord& a, const BasicBlockRecord& b) { return a.id < b.id; });
}

void TaskTrace::validate() const {
  PMACX_CHECK(core_count > 0, "trace has zero core count");
  PMACX_CHECK(rank < core_count, "trace rank out of range");
  const BasicBlockRecord* previous = nullptr;
  for (const BasicBlockRecord& block : blocks) {
    const std::string where = "block " + std::to_string(block.id);
    PMACX_CHECK(block.id != 0, "block id 0 is reserved");
    if (previous != nullptr)
      PMACX_CHECK(previous->id < block.id, where + ": ids must be sorted and unique");
    previous = &block;

    for (std::size_t e = 0; e < kBlockElementCount; ++e) {
      const auto element = static_cast<BlockElement>(e);
      const double value = block.features[e];
      PMACX_CHECK(std::isfinite(value),
                  where + ": non-finite " + block_element_name(element));
      PMACX_CHECK(value >= 0.0, where + ": negative " + block_element_name(element));
      if (block_element_is_rate(element))
        PMACX_CHECK(value <= 1.0, where + ": " + block_element_name(element) + " > 1");
    }
    PMACX_CHECK(block.get(BlockElement::HitRateL1) <=
                    block.get(BlockElement::HitRateL2) + 1e-12,
                where + ": cumulative hit rates must satisfy L1 <= L2");
    PMACX_CHECK(block.get(BlockElement::HitRateL2) <=
                    block.get(BlockElement::HitRateL3) + 1e-12,
                where + ": cumulative hit rates must satisfy L2 <= L3");

    const InstructionRecord* previous_instr = nullptr;
    for (const InstructionRecord& instr : block.instructions) {
      const std::string iwhere = where + " instr " + std::to_string(instr.index);
      PMACX_CHECK(instr.index <= kMaxInstrIndex,
                  iwhere + ": instruction index exceeds " + std::to_string(kMaxInstrIndex));
      if (previous_instr != nullptr)
        PMACX_CHECK(previous_instr->index < instr.index,
                    iwhere + ": instruction indices must be sorted and unique");
      previous_instr = &instr;
      for (std::size_t e = 0; e < kInstrElementCount; ++e) {
        const auto element = static_cast<InstrElement>(e);
        const double value = instr.features[e];
        PMACX_CHECK(std::isfinite(value),
                    iwhere + ": non-finite " + instr_element_name(element));
        PMACX_CHECK(value >= 0.0, iwhere + ": negative " + instr_element_name(element));
        if (instr_element_is_rate(element))
          PMACX_CHECK(value <= 1.0, iwhere + ": " + instr_element_name(element) + " > 1");
      }
    }
  }
}

double TaskTrace::total_memory_ops() const {
  double total = 0.0;
  for (const auto& block : blocks) total += block.memory_ops();
  return total;
}

double TaskTrace::total_fp_ops() const {
  double total = 0.0;
  for (const auto& block : blocks) total += block.fp_ops();
  return total;
}

double TaskTrace::total_bytes_moved() const {
  double total = 0.0;
  for (const auto& block : blocks) total += block.bytes_moved();
  return total;
}

std::size_t TaskTrace::memory_bytes() const {
  std::size_t total = sizeof(*this) + app.capacity() + target_system.capacity();
  for (const auto& block : blocks) {
    total += sizeof(block);
    total += block.location.file.capacity() + block.location.function.capacity();
    total += block.instructions.capacity() * sizeof(InstructionRecord);
  }
  return total;
}

std::string TaskTrace::to_text() const {
  std::ostringstream out;
  out.precision(17);  // exact double round-trip
  out << kMagic << '\t' << kVersion << '\n';
  out << "app\t" << app << '\n';
  out << "rank\t" << rank << '\n';
  out << "cores\t" << core_count << '\n';
  out << "target\t" << target_system << '\n';
  out << "extrapolated\t" << (extrapolated ? 1 : 0) << '\n';
  out << "blocks\t" << blocks.size() << '\n';
  for (const auto& block : blocks) {
    out << "block\t" << block.id << '\t' << block.location.file << '\t'
        << block.location.line << '\t' << block.location.function << '\n';
    out << "features";
    for (double v : block.features) out << '\t' << v;
    out << '\n';
    out << "instrs\t" << block.instructions.size() << '\n';
    for (const auto& instr : block.instructions) {
      out << "i\t" << instr.index;
      for (double v : instr.features) out << '\t' << v;
      out << '\n';
    }
  }
  out << "end\n";
  return out.str();
}

namespace {

void parse_text(LineReader& reader, std::size_t text_size, StreamSink& sink) {
  TaskTrace trace;

  auto header = reader.next("magic header");
  PMACX_CHECK(field(header, 0, "magic") == kMagic, "not a pmacx trace file");
  PMACX_CHECK(field(header, 1, "version") == kVersion,
              "unsupported trace version " + field(header, 1, "version"));

  auto expect_kv = [&](const char* key) {
    auto fields = reader.next(key);
    PMACX_CHECK(field(fields, 0, key) == key,
                std::string("expected '") + key + "' at line " +
                    std::to_string(reader.line_number()));
    return fields;
  };

  trace.app = field(expect_kv("app"), 1, "app name");
  trace.rank = static_cast<std::uint32_t>(
      util::parse_u64(field(expect_kv("rank"), 1, "rank"), "rank"));
  trace.core_count = static_cast<std::uint32_t>(
      util::parse_u64(field(expect_kv("cores"), 1, "cores"), "cores"));
  trace.target_system = field(expect_kv("target"), 1, "target");
  trace.extrapolated =
      util::parse_u64(field(expect_kv("extrapolated"), 1, "extrapolated"), "extrapolated") != 0;

  const std::uint64_t block_count =
      util::parse_u64(field(expect_kv("blocks"), 1, "block count"), "blocks");
  sink.on_header(trace, block_count,
                 std::min<std::uint64_t>(block_count, text_size / kMinTextBlockBytes));

  for (std::uint64_t b = 0; b < block_count; ++b) {
    auto block_fields = expect_kv("block");
    BasicBlockRecord block;
    block.id = util::parse_u64(field(block_fields, 1, "block id"), "block id");
    block.location.file = field(block_fields, 2, "file");
    block.location.line = static_cast<std::uint32_t>(
        util::parse_u64(field(block_fields, 3, "line"), "line"));
    block.location.function = field(block_fields, 4, "function");

    auto feature_fields = expect_kv("features");
    PMACX_CHECK(feature_fields.size() == 1 + kBlockElementCount,
                "block feature arity mismatch at line " + std::to_string(reader.line_number()));
    for (std::size_t e = 0; e < kBlockElementCount; ++e)
      block.features[e] = util::parse_double(feature_fields[1 + e], "block feature");

    const std::uint64_t instr_count =
        util::parse_u64(field(expect_kv("instrs"), 1, "instr count"), "instrs");
    block.instructions.reserve(
        std::min<std::uint64_t>(instr_count, text_size / kMinTextInstrBytes));
    for (std::uint64_t k = 0; k < instr_count; ++k) {
      auto instr_fields = expect_kv("i");
      PMACX_CHECK(instr_fields.size() == 2 + kInstrElementCount,
                  "instr feature arity mismatch at line " + std::to_string(reader.line_number()));
      InstructionRecord instr;
      const std::uint64_t index = util::parse_u64(instr_fields[1], "instr index");
      PMACX_CHECK(index <= std::numeric_limits<std::uint32_t>::max(),
                  "instr index " + instr_fields[1] + " does not fit in 32 bits at line " +
                      std::to_string(reader.line_number()));
      instr.index = static_cast<std::uint32_t>(index);
      for (std::size_t e = 0; e < kInstrElementCount; ++e)
        instr.features[e] = util::parse_double(instr_fields[2 + e], "instr feature");
      block.instructions.push_back(std::move(instr));
    }
    sink.on_block(std::move(block));
  }

  auto end_fields = reader.next("end marker");
  PMACX_CHECK(field(end_fields, 0, "end") == "end", "missing end marker");
  sink.on_end();
}

}  // namespace

namespace detail {

void parse_text_stream(const std::function<bool(std::string&)>& next_line,
                       std::size_t size_hint, StreamSink& sink) {
  LineReader reader(next_line);
  try {
    parse_text(reader, size_hint, sink);
  } catch (const util::ParseError&) {
    throw;
  } catch (const util::Error& e) {
    // Re-type plain check failures as ParseError so callers get the uniform
    // taxonomy (and the line the parser had reached) for any corrupt input.
    throw util::ParseError("", util::ParseError::kNoOffset,
                           "line " + std::to_string(reader.line_number()), e.what());
  }
}

}  // namespace detail

TaskTrace TaskTrace::from_text(const std::string& text) {
  std::istringstream stream(text);
  CollectingSink sink;
  detail::parse_text_stream(
      [&stream](std::string& out) { return static_cast<bool>(std::getline(stream, out)); },
      text.size(), sink);
  return sink.take();
}

void TaskTrace::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  PMACX_CHECK(out.good(), "cannot open '" + path + "' for writing");
  out << to_text();
  PMACX_CHECK(out.good(), "write to '" + path + "' failed");
}

// TaskTrace::load is defined in binary_io.cpp: it shares the mmap-or-read
// file helper (and its trace.mmap_* counters) with load_binary/load_salvage.

}  // namespace pmacx::trace
