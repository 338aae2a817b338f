#include "core/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

#include "trace/binary_io.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/parse_error.hpp"

namespace pmacx::core {
namespace {

/// Canonical byte string the model-set digest is computed over; the layout
/// is part of pmacx-rpc-v1 (docs/FORMATS.md) so clients can predict digests.
/// Moved here from the serving layer so the CLI checkpoint and the server
/// cache address identical content — service::ModelStore::digest delegates.
std::string digest_preimage(const std::vector<std::uint32_t>& input_crcs,
                            const ExtrapolationOptions& options) {
  std::string bytes;
  auto put_u32 = [&bytes](std::uint32_t v) {
    char raw[4];
    std::memcpy(raw, &v, 4);
    bytes.append(raw, 4);
  };
  auto put_f64 = [&bytes](double v) {
    char raw[8];
    std::memcpy(raw, &v, 8);
    bytes.append(raw, 8);
  };
  for (std::uint32_t crc : input_crcs) put_u32(crc);
  bytes.push_back(static_cast<char>(options.missing));
  bytes.push_back(static_cast<char>(options.fit.criterion));
  bytes.push_back(options.fit.loo_cv ? 1 : 0);
  bytes.push_back(options.reject_out_of_domain ? 1 : 0);
  bytes.push_back(options.round_counts ? 1 : 0);
  put_f64(options.fit.tie_tolerance);
  put_f64(options.influence_threshold);
  bytes.push_back(static_cast<char>(options.fit.forms.size()));
  for (stats::Form form : options.fit.forms) bytes.push_back(static_cast<char>(form));
  return bytes;
}

std::string hex_u32(std::uint32_t v) {
  static const char digits[] = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

// ---- pmacx-ckpt-v3 record encoding ---------------------------------------
//
// Little-endian throughout; doubles as raw IEEE-754 bit patterns (memcpy)
// so fitted parameters round-trip exactly — the byte-identity guarantee of
// a resumed run depends on it.  Strings are u32-length-prefixed.

void put_u8(std::string& bytes, std::uint8_t v) { bytes.push_back(static_cast<char>(v)); }

void put_u32(std::string& bytes, std::uint32_t v) {
  char raw[4];
  std::memcpy(raw, &v, 4);
  bytes.append(raw, 4);
}

void put_u64(std::string& bytes, std::uint64_t v) {
  char raw[8];
  std::memcpy(raw, &v, 8);
  bytes.append(raw, 8);
}

void put_f64(std::string& bytes, double v) {
  char raw[8];
  std::memcpy(raw, &v, 8);
  bytes.append(raw, 8);
}

void put_string(std::string& bytes, const std::string& s) {
  put_u32(bytes, static_cast<std::uint32_t>(s.size()));
  bytes.append(s);
}

/// Bounds-checked reader over a checkpoint payload; every overrun throws
/// util::ParseError with the byte offset so torn records are diagnosable.
class Reader {
 public:
  Reader(const std::string& path, const std::string& bytes, std::string section)
      : path_(path), bytes_(bytes), section_(std::move(section)) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }

  std::uint32_t u32() {
    std::uint32_t v;
    std::memcpy(&v, take(4), 4);
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v;
    std::memcpy(&v, take(8), 8);
    return v;
  }

  double f64() {
    double v;
    std::memcpy(&v, take(8), 8);
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    if (n > bytes_.size() - offset_) fail("string length overruns the record");
    std::string out(take(n), n);
    return out;
  }

  void expect_done() const {
    if (offset_ != bytes_.size()) {
      throw util::ParseError(path_, offset_, section_,
                             std::to_string(bytes_.size() - offset_) +
                                 " trailing bytes after the record");
    }
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw util::ParseError(path_, offset_, section_, message);
  }

 private:
  const char* take(std::size_t n) {
    if (n > bytes_.size() - offset_ || offset_ > bytes_.size())
      fail("record truncated (need " + std::to_string(n) + " more bytes)");
    const char* p = bytes_.data() + offset_;
    offset_ += n;
    return p;
  }

  const std::string& path_;
  const std::string& bytes_;
  std::string section_;
  std::size_t offset_ = 0;
};

/// One element record: the fit series (derived from the alignment, so the
/// bytes match what a stored series would be), every candidate, the scores
/// and the influence flag.
void encode_element(std::string& bytes, const TaskModelSet& set, std::size_t e,
                    std::vector<double>& axis_scratch, std::vector<double>& values_scratch) {
  const FitSeries series =
      set.alignment.fit_series(e, set.options.missing, axis_scratch, values_scratch);
  put_u32(bytes, static_cast<std::uint32_t>(series.axis.size()));
  for (double v : series.axis) put_f64(bytes, v);
  for (double v : series.values) put_f64(bytes, v);
  put_u32(bytes, static_cast<std::uint32_t>(set.forms()));
  for (const stats::FittedModel& model : set.candidates_of(e)) {
    put_u8(bytes, static_cast<std::uint8_t>(model.form));
    put_u8(bytes, model.ok ? 1 : 0);
    for (double p : model.params) put_f64(bytes, p);
    put_f64(bytes, model.sse);
    put_f64(bytes, model.r2);
  }
  put_u32(bytes, static_cast<std::uint32_t>(set.forms()));
  for (double v : set.scores_of(e)) put_f64(bytes, v);
  put_u8(bytes, set.influential[e]);
}

/// Reads a double and requires its bits to equal `expected`'s.
void expect_bits(Reader& reader, double expected, const char* what) {
  const double stored = reader.f64();
  if (std::memcmp(&stored, &expected, sizeof stored) != 0)
    reader.fail(std::string("stored ") + what + " differs from the derived one");
}

/// Decodes element e's record into the set's columns, failing on any field
/// that disagrees with what the set derives (fit series, form order,
/// influence flag).
void decode_element(Reader& reader, TaskModelSet& set, std::size_t e,
                    std::vector<double>& axis_scratch, std::vector<double>& values_scratch) {
  const FitSeries series =
      set.alignment.fit_series(e, set.options.missing, axis_scratch, values_scratch);
  if (reader.u32() != series.axis.size()) reader.fail("stored fit series length differs");
  for (double v : series.axis) expect_bits(reader, v, "fit axis");
  for (double v : series.values) expect_bits(reader, v, "fit series");
  const std::size_t forms = set.forms();
  if (reader.u32() != forms) reader.fail("candidate count does not match the form set");
  for (std::size_t f = 0; f < forms; ++f) {
    stats::FittedModel& model = set.candidates[e * forms + f];
    model.form = static_cast<stats::Form>(reader.u8());
    if (model.form != set.options.fit.forms[f]) reader.fail("candidate out of form order");
    model.ok = reader.u8() != 0;
    for (double& p : model.params) p = reader.f64();
    model.sse = reader.f64();
    model.r2 = reader.f64();
  }
  if (reader.u32() != forms) reader.fail("score count does not match the form set");
  for (std::size_t f = 0; f < forms; ++f) set.scores[e * forms + f] = reader.f64();
  if (reader.u8() != set.influential[e]) reader.fail("stored influence flag differs");
}

}  // namespace

std::string models_digest(const std::vector<std::uint32_t>& input_crcs,
                          const ExtrapolationOptions& options) {
  const std::string preimage = digest_preimage(input_crcs, options);
  // Two independent CRC passes (different seeds) give 64 digest bits — not
  // cryptographic, but checkpoints and caches only need collision
  // resistance against accidental aliasing of a handful of workloads.
  const std::uint32_t a = util::crc32(preimage);
  const std::uint32_t b = util::crc32(preimage, /*seed=*/0x9e3779b9u);
  return hex_u32(a) + hex_u32(b);
}

std::string models_digest_for_files(const std::vector<std::string>& trace_paths,
                                    const ExtrapolationOptions& options) {
  PMACX_CHECK(!trace_paths.empty(), "digest of an empty trace list");
  std::vector<std::uint32_t> crcs;
  crcs.reserve(trace_paths.size());
  for (const std::string& path : trace_paths)
    crcs.push_back(util::crc32(util::read_file(path)));
  return models_digest(crcs, options);
}

std::string models_digest_for_traces(std::span<const trace::TaskTrace> inputs,
                                     const ExtrapolationOptions& options) {
  PMACX_CHECK(!inputs.empty(), "digest of an empty trace list");
  std::vector<std::uint32_t> crcs;
  crcs.reserve(inputs.size());
  for (const trace::TaskTrace& input : inputs)
    crcs.push_back(util::crc32(trace::to_binary(input)));
  return models_digest(crcs, options);
}

ModelCheckpoint::ModelCheckpoint(CheckpointConfig config) : config_(std::move(config)) {
  PMACX_CHECK(!config_.dir.empty(), "checkpoint directory must be set");
  PMACX_CHECK(!config_.digest.empty(), "checkpoint digest must be set");
  PMACX_CHECK(config_.chunk_elements > 0, "checkpoint chunk size must be positive");
}

std::string ModelCheckpoint::manifest_path() const { return config_.dir + "/manifest.ckpt"; }

std::string ModelCheckpoint::chunk_path(std::size_t chunk) const {
  char name[32];
  std::snprintf(name, sizeof(name), "models_%06zu.ckpt", chunk);
  return config_.dir + "/" + name;
}

void ModelCheckpoint::discard_all_chunks() {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(config_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("models_", 0) != 0 || name.size() < 5 ||
        name.substr(name.size() - 5) != ".ckpt")
      continue;
    if (util::io::unlink_quiet(entry.path().string())) ++discarded_;
  }
}

void ModelCheckpoint::open(std::size_t element_count) {
  PMACX_CHECK(element_count > 0, "checkpoint of an empty element set");
  util::ensure_directory(config_.dir);
  element_count_ = element_count;
  opened_ = true;

  bool manifest_valid = false;
  if (std::optional<std::string> payload = util::try_load_checked(manifest_path())) {
    try {
      Reader reader(manifest_path(), *payload, "ckpt.manifest");
      const std::string version = reader.str();
      const std::string digest = reader.str();
      const std::uint64_t elements = reader.u64();
      const std::uint64_t chunk_elements = reader.u64();
      reader.expect_done();
      manifest_valid = version == kCheckpointVersion && digest == config_.digest &&
                       elements == element_count_ && chunk_elements == config_.chunk_elements;
    } catch (const util::Error&) {
      manifest_valid = false;
    }
  }
  if (manifest_valid) return;

  // Wrong version/digest/shape, torn manifest, or a fresh directory: drop
  // every chunk (they describe some other workload) and start clean.  Even
  // if a deletion fails, stale chunks stay inert — load_chunk re-checks the
  // digest embedded in each one.
  discard_all_chunks();
  std::string payload;
  put_string(payload, kCheckpointVersion);
  put_string(payload, config_.digest);
  put_u64(payload, element_count_);
  put_u64(payload, config_.chunk_elements);
  util::save_checked(manifest_path(), payload);
}

std::size_t ModelCheckpoint::chunk_count() const {
  PMACX_ASSERT(opened_, "checkpoint used before open()");
  return (element_count_ + config_.chunk_elements - 1) / config_.chunk_elements;
}

std::size_t ModelCheckpoint::chunk_begin(std::size_t chunk) const {
  return chunk * config_.chunk_elements;
}

std::size_t ModelCheckpoint::chunk_end(std::size_t chunk) const {
  return std::min(element_count_, (chunk + 1) * config_.chunk_elements);
}

bool ModelCheckpoint::load_chunk(std::size_t chunk, TaskModelSet& set) {
  PMACX_ASSERT(opened_, "checkpoint used before open()");
  PMACX_CHECK(set.size() == element_count_, "model set does not match the checkpoint");
  const std::string path = chunk_path(chunk);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return false;

  auto drop = [&]() {
    util::io::unlink_quiet(path);
    ++discarded_;
    return false;
  };

  std::optional<std::string> payload = util::try_load_checked(path);
  if (!payload) return drop();  // torn write or bit rot — redo this range
  try {
    Reader reader(path, *payload, "ckpt.chunk");
    const std::string digest = reader.str();
    const std::uint64_t index = reader.u64();
    const std::uint64_t begin = reader.u64();
    const std::uint64_t count = reader.u64();
    if (digest != config_.digest) reader.fail("chunk digest does not match the workload");
    if (index != chunk || begin != chunk_begin(chunk) ||
        count != chunk_end(chunk) - chunk_begin(chunk))
      reader.fail("chunk range does not match the manifest layout");
    std::vector<double> axis_scratch, values_scratch;
    for (std::size_t e = chunk_begin(chunk); e < chunk_end(chunk); ++e)
      decode_element(reader, set, e, axis_scratch, values_scratch);
    reader.expect_done();
    return true;
  } catch (const util::Error&) {
    return drop();
  }
}

void ModelCheckpoint::save_chunk(std::size_t chunk, const TaskModelSet& set) {
  PMACX_ASSERT(opened_, "checkpoint used before open()");
  PMACX_CHECK(set.size() == element_count_, "model set does not match the checkpoint");
  std::string payload;
  put_string(payload, config_.digest);
  put_u64(payload, chunk);
  put_u64(payload, chunk_begin(chunk));
  put_u64(payload, chunk_end(chunk) - chunk_begin(chunk));
  std::vector<double> axis_scratch, values_scratch;
  for (std::size_t e = chunk_begin(chunk); e < chunk_end(chunk); ++e)
    encode_element(payload, set, e, axis_scratch, values_scratch);
  util::save_checked(chunk_path(chunk), payload);
}

}  // namespace pmacx::core
