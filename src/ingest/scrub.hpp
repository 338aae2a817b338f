// ingest::Scrub — startup self-healing for durable state.
//
// A node that crashed mid-write (or suffered a torn rename, a lying fsync,
// a half-committed upload) must return to a serving state by itself: no
// operator, no manual rm, no crash loop on a corrupt file.  The scrubber is
// that path.  It runs before the ingest subsystem (pmacx_serve
// --scrub-on-start) and walks the two kinds of durable state:
//
//   ingest root    spool/*.part sessions (dead by definition after a
//                  restart — the protocol re-uploads), stray *.tmp.* files
//                  from interrupted atomic writes, collection trace files
//                  (each fully stream-validated), and the per-collection
//                  manifest.pmx.
//
//   checkpoint dir pmacx-ckpt-v3 manifest + models_*.ckpt chunks (derived
//                  data: anything torn is deleted and simply re-fit).
//
// Damage policy: *source* data (uploaded traces) is never destroyed —
// corrupt files move to <root>/quarantine/<collection>/<file> and are
// recorded in <root>/quarantine/MANIFEST so an operator can post-mortem
// them; manifests are rewritten to exactly the validated survivor set (a
// valid published file whose manifest entry was lost to a crash is
// re-registered, a quarantined file's entry is dropped).  *Derived* data
// (checkpoint chunks, spool temps) is deleted outright.
//
// Every action is metered under ingest.scrub.* (docs/OBSERVABILITY.md) and
// every destructive step goes through util::io, so the scrubber itself is
// exercised — and may crash and re-run — under the diskchaos sweep.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pmacx::ingest {

struct ScrubOptions {
  std::string root;  ///< ingest root (spool/, collections/, quarantine/)
  /// Buffer budget for the per-file streaming validation (same meaning as
  /// UploadManager::Options::stream_budget).
  std::size_t stream_budget = std::size_t{64} << 20;
};

/// What one scrub pass found and did.  Counts mirror the ingest.scrub.*
/// counters; notes carry one human line per action for the startup log.
struct ScrubReport {
  std::size_t stale_temps = 0;      ///< spool parts + *.tmp.* deleted
  std::size_t quarantined = 0;      ///< corrupt files moved to quarantine/
  std::size_t manifest_dropped = 0; ///< manifest entries dropped or re-added
  std::size_t files_ok = 0;         ///< collection files that validated clean
  std::size_t chunks_dropped = 0;   ///< torn checkpoint chunks/manifests deleted
  std::vector<std::string> notes;

  /// "scrub: N temps, N quarantined, ..." one-liner for banners.
  std::string summary() const;
  /// Anything at all repaired/removed (false = the state was pristine).
  bool acted() const {
    return stale_temps + quarantined + manifest_dropped + chunks_dropped > 0;
  }
};

/// Scrubs an ingest root (see file header for policy).  Throws util::Error
/// only for environmental failures (root exists but is a file, quarantine
/// directory uncreatable); per-file damage is handled, not thrown.
ScrubReport scrub_ingest_root(const ScrubOptions& options);

/// Scrubs a pmacx-ckpt-v3 checkpoint directory: deletes *.tmp.* temps and
/// any manifest/chunk that fails its integrity trailer.  A missing or
/// freshly-emptied directory is fine (the next fit rebuilds it).
ScrubReport scrub_checkpoint_dir(const std::string& dir);

}  // namespace pmacx::ingest
