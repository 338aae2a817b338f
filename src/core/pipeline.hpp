// End-to-end methodology pipeline.
//
// Automates the paper's full evaluation flow for one application and one
// target machine (Section V):
//
//   1. collect signatures at a series of small core counts (tracer + target
//      cache simulation),
//   2. extrapolate the demanding task's trace to the large core count,
//   3. assemble a synthetic signature at the large core count and predict
//      runtime with PSiNS,
//   4. optionally also collect a real signature at the large core count and
//      predict from it (the paper's "Coll." rows), and
//   5. optionally measure the "real" runtime with the reference simulator.
//
// Communication traces at the target count come from the application model
// directly by default, as in the paper (communication-trace extrapolation
// is complementary, cited work — ScalaExtrap [22]).  Setting
// `extrapolate_comm` synthesizes them from the small-count collections too
// (core/comm_extrap.hpp), making the target signature fully trace-derived.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/diagnostics.hpp"
#include "core/extrapolator.hpp"
#include "machine/profile.hpp"
#include "psins/predictor.hpp"
#include "psins/reference.hpp"
#include "synth/tracer.hpp"
#include "trace/signature.hpp"

namespace pmacx::core {

/// Pipeline configuration.
struct PipelineConfig {
  std::vector<std::uint32_t> small_core_counts;  ///< e.g. {96, 384, 1536}
  std::uint32_t target_core_count = 0;           ///< e.g. 6144
  synth::TracerOptions tracer;                   ///< includes the target hierarchy
  ExtrapolationOptions extrapolation;
  bool collect_at_target = false;  ///< also trace at the target count ("Coll." row)
  bool measure_at_target = false;  ///< also run the reference simulator
  /// Synthesize target-count comm traces from the small collections
  /// (ScalaExtrap-style) instead of taking them from the application model.
  bool extrapolate_comm = false;
  psins::ReferenceOptions reference;
  /// Execution parallelism for the whole run.  Stages 1, 4 and 5 are
  /// independent simulations: the pool collects at the small counts (each
  /// count concurrently) and at the target count (then predicts from it)
  /// while the calling thread measures.  Stages 2 and 3 start once the
  /// small collections end: element fitting and evaluation fan out inside
  /// the extrapolator, and target-count comm timelines instantiate in
  /// parallel.  0 = resolve from PMACX_THREADS (else hardware threads);
  /// 1 = serial, every stage on the calling thread.  Results are identical
  /// to the serial path — all merges happen in deterministic
  /// (count/rank/element) order — and a failing run throws the error the
  /// serial stage order meets first.  Ignored when `extrapolation.pool` is
  /// set, which then supplies the workers.
  std::size_t threads = 0;
};

/// Everything the Table I comparison needs.
struct PipelineResult {
  std::vector<trace::AppSignature> small_signatures;
  FitReport report;                             ///< extrapolation fit quality
  /// Degradation ledger for the whole run (salvaged inputs, fallback fits,
  /// clamped values).  A non-clean report means the prediction rests on
  /// recovered or substituted data — check it before trusting Table I rows.
  DiagnosticsReport diagnostics;
  trace::AppSignature extrapolated_signature;   ///< synthetic, at target count
  psins::PredictionResult prediction_from_extrapolated;
  std::optional<trace::AppSignature> collected_signature;
  std::optional<psins::PredictionResult> prediction_from_collected;
  std::optional<psins::MeasuredRun> measured;

  /// |predicted - measured| / measured for the extrapolated-trace
  /// prediction; requires measure_at_target.
  double extrapolated_error() const;
  /// Same for the collected-trace prediction; requires both options.
  double collected_error() const;
};

/// Runs the pipeline.  Throws util::Error on configuration mistakes
/// (no small counts, target not above the largest small count, ...).
PipelineResult run_pipeline(const synth::SyntheticApp& app,
                            const machine::MachineProfile& machine,
                            const PipelineConfig& config);

}  // namespace pmacx::core
