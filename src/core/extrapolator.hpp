// The trace extrapolator — the paper's primary contribution (Section IV).
//
// Given the demanding task's trace files at a series of small core counts,
// every element of every basic block's (and instruction's) feature vector is
// fitted against the core count with each canonical form — constant, linear,
// logarithmic, exponential (plus optional extension forms) — and the best
// fit, evaluated at the target core count, becomes that element's value in
// the synthesized trace.  Domain knowledge is applied after evaluation:
// rates clamp into [0, 1], counts floor at 0, and cumulative hit rates are
// re-monotonized (L1 ≤ L2 ≤ L3).
#pragma once

#include <span>

#include "core/align.hpp"
#include "core/diagnostics.hpp"
#include "core/report.hpp"
#include "stats/canonical.hpp"
#include "trace/task_trace.hpp"
#include "util/column.hpp"

namespace pmacx::util {
class ThreadPool;
}

namespace pmacx::core {

/// Extrapolation policy knobs.
struct ExtrapolationOptions {
  stats::FitOptions fit;                   ///< canonical form set & selection
  MissingPolicy missing = MissingPolicy::ZeroFill;
  /// Influence threshold: an element is influential when its instruction
  /// (or block) carries more than this fraction of the task's total memory
  /// operations — or floating-point operations for memory-less instructions.
  /// The paper uses 0.1 %.
  double influence_threshold = 0.001;
  /// Round count-like elements (visits, op counts) to integers in the
  /// output trace.
  bool round_counts = false;
  /// When > 0, attach residual-bootstrap confidence intervals (this many
  /// resamples, 90 % coverage) to every *influential* element's report
  /// entry.  Off by default: it multiplies fitting cost by the resample
  /// count.
  std::size_t bootstrap_resamples = 0;
  /// Bayesian interval mode: when in (0, 1), every element additionally gets
  /// posterior-predictive lo/median/hi values at this central coverage
  /// (stats::bayes over the already-fitted candidates — no refitting), the
  /// report rows carry them (bayes_* CSV columns), and the result gains
  /// clamped lo/median/hi traces.  The point path — trace bytes, point
  /// report columns, diagnostics, every non-fits.bayes.* counter — is
  /// bit-identical to a run with interval mode off.  0 disables.
  double interval_coverage = 0.0;
  /// Posterior-predictive mixture draws per element in interval mode.
  std::size_t interval_samples = 256;
  /// Domain-aware selection: a candidate fit whose *extrapolated* value
  /// falls outside the element's valid domain (negative count, rate outside
  /// [0,1]) is rejected in favour of the next-best in-domain candidate —
  /// e.g. a log fit of decaying counts that extrapolates negative loses to
  /// the exponential, and a linear fit of a rising hit rate that overshoots
  /// 1.0 loses to the saturating inverse-p.  When no candidate is in-domain
  /// the overall best fit is used and its value clamped.
  bool reject_out_of_domain = true;
  /// Execution parallelism for the per-element fit and evaluate stages.
  /// 0 = run on the process-wide pool (util::shared_pool(), sized once at
  /// first use from PMACX_THREADS, else the hardware thread count) —
  /// repeated calls never pay thread spawn/join; 1 = serial; N > 1 = a private pool of N
  /// workers per stage.  The parallel path produces byte-identical traces,
  /// reports, and diagnostics to the serial path: elements are fitted and
  /// evaluated concurrently but results are applied in element order.
  std::size_t threads = 0;
  /// Externally owned pool to run on (overrides `threads`); not owned.
  /// Lets the pipeline, tools, and benches amortize one pool across many
  /// extrapolations instead of spawning workers per call.
  util::ThreadPool* pool = nullptr;
};

/// Result of one extrapolation: the synthetic trace plus the fit report
/// and the degradation ledger (fallback fits, clamped values).
struct ExtrapolationResult {
  trace::TaskTrace trace;
  FitReport report;
  DiagnosticsReport diagnostics;
  /// Interval mode only (ExtrapolationOptions::interval_coverage in (0,1)):
  /// domain-clamped lo/median/hi synthetic traces bracketing `trace` with
  /// the per-element posterior-predictive quantiles.  Element-wise
  /// lo ≤ median ≤ hi holds after clamping and hit-rate monotonization.
  bool has_interval = false;
  trace::TaskTrace trace_lo;
  trace::TaskTrace trace_median;
  trace::TaskTrace trace_hi;
};

/// Extrapolates the series of traces (strictly increasing core counts, ≥ 2,
/// same app/rank/target) to `target_cores`: fit_task_models followed by the
/// evaluate stage extrapolate_from_models runs, both on the options' pool.
/// The output trace is marked extrapolated=true.
ExtrapolationResult extrapolate_task(std::span<const trace::TaskTrace> inputs,
                                     std::uint32_t target_cores,
                                     const ExtrapolationOptions& options = {});

/// The expensive, target-independent half of an extrapolation: the
/// alignment plus every element's canonical fits, stored as columns indexed
/// by element.  Nothing here depends on the extrapolation target — which is
/// what makes a fitted model set reusable across "what happens at 6144
/// cores? at 24576?" queries; evaluate it at any target with
/// extrapolate_from_models.  This is the unit the serving layer's
/// content-addressed model store caches ("fit once, query many").
///
/// Element e was fitted over alignment.fit_series(e, options.missing):
/// its full series, or under FitPresent only the points where it was
/// observed.  The series is derived, not stored.
struct TaskModelSet {
  Alignment alignment;
  /// Every canonical candidate from stats::fit_all, element-major in the
  /// order of options.fit.forms: form f of element e at [e * forms() + f].
  /// Sized with the set; the fit stage writes every entry (util::Column).
  util::Column<stats::FittedModel> candidates;
  util::Column<double> scores;  ///< stats::selection_scores, same layout
  std::vector<std::uint8_t> influential;  ///< per element: paper's 0.1 % rule
  /// Policy snapshot used for fitting (pool pointer cleared: a cached set
  /// must not retain a reference to a caller-owned pool).
  ExtrapolationOptions options;
  std::string app;
  std::uint32_t rank = 0;
  std::string target_system;
  /// "cores", or "parameter" for extrapolate_parameter's problem-size axis.
  std::string axis_name = "cores";

  std::size_t size() const { return alignment.size(); }
  std::size_t forms() const { return options.fit.forms.size(); }
  std::span<const stats::FittedModel> candidates_of(std::size_t e) const {
    return {candidates.data() + e * forms(), forms()};
  }
  std::span<const double> scores_of(std::size_t e) const {
    return {scores.data() + e * forms(), forms()};
  }
  /// Resident size (the capacity of every column), for byte-bounded cache
  /// accounting.
  std::size_t memory_bytes() const;
};

/// Fits canonical models for every aligned element of the input series —
/// the expensive half of extrapolate_task — without committing to a target.
/// The per-element fit stage fans out across the options' pool (timed under
/// extrapolate.fit).
TaskModelSet fit_task_models(std::span<const trace::TaskTrace> inputs,
                             const ExtrapolationOptions& options = {});

/// Evaluates a fitted model set at `target_cores`: per-element model
/// selection (domain-aware when the set was fitted with
/// reject_out_of_domain), evaluation, clamping, and trace synthesis.  This
/// is the evaluate stage of every extrapolation, so for the same inputs and
/// options the result is byte-identical to extrapolate_task(inputs,
/// target_cores, options) — trace, report, and diagnostics all match — and
/// cached answers are indistinguishable from freshly computed ones (tested
/// in tests/core_extrap_test.cpp).  Evaluation fans out on the pool policy
/// of the set's options (timed under extrapolate.select); the set is only
/// read, so many threads may evaluate one cached set at once.
ExtrapolationResult extrapolate_from_models(const TaskModelSet& models,
                                            std::uint32_t target_cores);

/// extrapolate_from_models with the model set's interval mode overridden:
/// `interval_coverage` in (0, 1) turns Bayesian intervals on at that
/// coverage, 0 turns them off — without refitting or touching the cached
/// set.  The point half of the result is bit-identical to
/// extrapolate_from_models(models, target_cores) either way, which is what
/// lets the serving layer answer PREDICT and PREDICT_INTERVAL from one
/// cached model set.
ExtrapolationResult extrapolate_from_models(const TaskModelSet& models,
                                            std::uint32_t target_cores,
                                            double interval_coverage);

/// Input-parameter extrapolation (Section VI future work): the same fit and
/// evaluate stages along a problem-size axis at a *fixed* core count.  `inputs`
/// were traced with strictly increasing `parameter_values` (e.g. mesh
/// elements, particle counts); the result predicts the feature vectors at
/// `target_value`.  All inputs must share one core count.
ExtrapolationResult extrapolate_parameter(std::span<const trace::TaskTrace> inputs,
                                          std::span<const double> parameter_values,
                                          double target_value,
                                          const ExtrapolationOptions& options = {});

}  // namespace pmacx::core
