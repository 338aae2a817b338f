// Crash-safe checkpointing of fitted model sets (pmacx-ckpt-v3).
//
// The expensive half of an extrapolation is per-element canonical fitting;
// everything after it is cheap and deterministic.  A checkpointed fit
// persists the fitted columns of a TaskModelSet in fixed-size chunks of
// elements as they complete — each chunk
// written atomically (util::save_checked: temp + fsync + rename + CRC
// trailer) — so a kill -9 at any instant loses at most the chunk in flight.
// A resume re-fits only the missing chunks and, because doubles round-trip
// as raw bit patterns and extrapolate_from_models == extrapolate_task is an
// existing tested contract, produces byte-identical traces, reports, and
// diagnostics to an uninterrupted run.
//
// Staleness is ruled out by content addressing: every store is keyed by the
// same 16-hex-char digest the serving layer uses (input trace CRCs + the
// option fields that shape fitting).  The manifest and every chunk carry the
// digest; any mismatch — different inputs, different options, a different
// element count, or a torn/corrupt file — discards the stale state and
// triggers a clean full re-fit.  Each element record also carries the series
// it was fitted over and its influence flag; a load compares both bitwise
// with what the current alignment derives and discards a chunk that
// differs.  A checkpoint can therefore never smuggle wrong models into a
// run; the worst failure mode is redoing work.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/extrapolator.hpp"

namespace pmacx::core {

/// On-disk format version; bumped whenever the manifest or chunk layout
/// changes.  A version mismatch discards the checkpoint (full re-fit).
/// v3 dropped v2's per-element sufficient-statistics block: an element
/// record is its fit series, candidates, scores, and influential flag.
/// v1 and v2 checkpoints are discarded cleanly.
inline constexpr const char* kCheckpointVersion = "pmacx-ckpt-v3";

/// Content digest of a fitting workload: 16 lowercase hex chars over the
/// input trace CRCs and every option field that changes fitted models.
/// This is the same digest (same preimage, same wire format, documented in
/// docs/FORMATS.md) that pmacx-rpc-v1 clients and the serving layer's model
/// store use, so a checkpoint written by the CLI addresses the same content
/// as a server cache entry.
std::string models_digest(const std::vector<std::uint32_t>& input_crcs,
                          const ExtrapolationOptions& options);

/// models_digest over the raw bytes of trace files on disk (CRC of the file
/// content, matching service::ModelStore's keying of on-disk traces).
std::string models_digest_for_files(const std::vector<std::string>& trace_paths,
                                    const ExtrapolationOptions& options);

/// models_digest over in-memory traces (CRC of their canonical binary
/// encoding) — for callers whose inputs are what they loaded, not the
/// bytes on disk (pmacx_extrapolate's salvaged or signature inputs).
std::string models_digest_for_traces(std::span<const trace::TaskTrace> inputs,
                                     const ExtrapolationOptions& options);

/// Where and how to checkpoint one fitting workload.
struct CheckpointConfig {
  std::string dir;     ///< checkpoint directory (created if missing)
  std::string digest;  ///< models_digest of the workload
  /// Elements per chunk file.  Smaller chunks lose less work to a crash but
  /// pay more fsyncs; 256 keeps both costs negligible against fitting.
  std::size_t chunk_elements = 256;
  /// Test hook: after this many chunk *writes* (0 = never), raise SIGKILL —
  /// a real, unmaskable mid-run crash for resume tests, placed exactly at
  /// the worst moment a scheduler could pick.
  std::size_t kill_after_chunks = 0;
};

/// What a checkpointed fit did — reuse vs. recompute accounting.  Mirrored
/// into the metrics registry (checkpoint.elements_reused, .elements_fitted,
/// .chunks_discarded, .resumes).
struct CheckpointStats {
  std::size_t elements_total = 0;
  std::size_t elements_reused = 0;   ///< loaded from valid chunks
  std::size_t elements_fitted = 0;   ///< recomputed this run
  std::size_t chunks_discarded = 0;  ///< stale/torn chunk files dropped
  bool resumed = false;              ///< at least one chunk was reused
};

/// The chunked on-disk store behind fit_task_models_checkpointed.  Exposed
/// for tests (corruption sweeps, version/digest mismatch) and future
/// subsystems that persist per-range results.
class ModelCheckpoint {
 public:
  explicit ModelCheckpoint(CheckpointConfig config);

  /// Validates or (re)initializes the store for `element_count` elements.
  /// An absent, torn, or mismatching manifest (version, digest, element
  /// count, chunk size) discards every existing chunk and writes a fresh
  /// manifest — never throws for bad prior state, only for I/O failures.
  void open(std::size_t element_count);

  std::size_t chunk_count() const;
  std::size_t chunk_begin(std::size_t chunk) const;
  std::size_t chunk_end(std::size_t chunk) const;

  /// Loads chunk `chunk` into the candidate and score columns of `set`
  /// when a complete, digest-matching record exists whose every fit series
  /// and influence flag equal the ones `set` derives.  Torn, stale or
  /// differing files are deleted, counted, and reported as absent (false);
  /// the caller then refits the chunk's range, overwriting whatever a
  /// partial load wrote there.
  bool load_chunk(std::size_t chunk, TaskModelSet& set);

  /// Atomically persists the chunk's element range of `set`.
  void save_chunk(std::size_t chunk, const TaskModelSet& set);

  std::size_t chunks_discarded() const { return discarded_; }
  const CheckpointConfig& config() const { return config_; }

 private:
  std::string manifest_path() const;
  std::string chunk_path(std::size_t chunk) const;
  void discard_all_chunks();

  CheckpointConfig config_;
  std::size_t element_count_ = 0;
  bool opened_ = false;
  std::size_t discarded_ = 0;
};

/// fit_task_models with crash-safe persistence: chunks already on disk under
/// a matching digest are loaded instead of fitted (so resumed runs attempt
/// strictly fewer fits — visible in fits.attempted.* metrics), missing ones
/// are fitted with the options' pool policy and persisted as they complete.
/// The returned set is byte-for-byte the one fit_task_models would produce.
TaskModelSet fit_task_models_checkpointed(std::span<const trace::TaskTrace> inputs,
                                          const ExtrapolationOptions& options,
                                          const CheckpointConfig& config,
                                          CheckpointStats* stats = nullptr);

}  // namespace pmacx::core
