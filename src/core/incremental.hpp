// Incremental model-set refitting — the fitting half of live ingestion.
//
// A long-lived server that accepts trace uploads re-derives its model sets
// as the input series grows.  fit_task_models_incremental takes the
// *previous* fitted set for the same workload and produces the set for the
// extended input list while doing strictly less work than a cold fit.  It
// has one rule: an element whose fit series is bitwise unchanged
// (FitPresent-restricted series the new trace does not touch, or a
// re-upload of identical content) is copied from the previous set with no
// fitting at all; every other element is refitted through the same shared
// fit stage every other entry point uses.  The result is therefore
// byte-for-byte the set fit_task_models would produce from scratch (pinned
// by tests/core_incremental_test.cpp: traces, intervals, and models_digest
// all match a cold fit, for every upload order).  An incompatible previous
// set — different fitting options, app, rank, or target system — is
// ignored and the call degrades to a cold fit; the worst failure mode is
// redoing work, never a wrong model.
#pragma once

#include <cstddef>
#include <span>

#include "core/extrapolator.hpp"

namespace pmacx::core {

/// Reuse-vs-recompute accounting of one incremental fit.  Mirrored into
/// the metrics registry (fits.incremental.reused, .refit, .cold).
struct IncrementalFitStats {
  std::size_t elements_total = 0;
  std::size_t elements_reused = 0;  ///< bit-copied: fit series unchanged
  std::size_t elements_refit = 0;   ///< refitted over a changed series
  bool cold = false;                ///< previous set absent or incompatible
};

/// fit_task_models over `inputs`, reusing `previous` (the fitted set for a
/// prefix/earlier version of the same workload) wherever the per-element
/// fit series is unchanged.  `previous == nullptr` or an options/identity
/// mismatch falls back to a cold fit.  The returned set is byte-identical
/// to fit_task_models(inputs, options).
TaskModelSet fit_task_models_incremental(std::span<const trace::TaskTrace> inputs,
                                         const ExtrapolationOptions& options,
                                         const TaskModelSet* previous,
                                         IncrementalFitStats* stats = nullptr);

}  // namespace pmacx::core
