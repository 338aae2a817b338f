// Canonical-form model fitting — the statistical core of the paper.
//
// For every element of every basic block's feature vector, the methodology
// fits each of a small set of canonical functions of the core count p and
// keeps the best fit (Section IV).  The paper uses four forms — constant,
// linear, logarithmic, exponential — and names polynomial forms as future
// work; we implement those four plus three extension forms (power, inverse-p,
// quadratic) gated behind FormSet so the ablation benches can quantify their
// contribution.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pmacx::stats {

/// The canonical function families.  The first four are the paper's; the
/// remainder are the future-work extensions.
enum class Form {
  Constant,     ///< y = a
  Linear,       ///< y = a + b·p
  Logarithmic,  ///< y = a + b·ln p
  Exponential,  ///< y = a·e^(b·p)
  Power,        ///< y = a·p^b            (extension)
  InverseP,     ///< y = a + b/p          (extension; natural for strong scaling)
  Quadratic,    ///< y = a + b·p + c·p²   (extension; the paper's "polynomial";
                ///<                       requires ≥ 4 samples — with 3 it
                ///<                       interpolates and cannot be ranked)
};

/// Human-readable form name ("linear", "log", ...).
std::string form_name(Form form);

/// All forms, in complexity order (simplest first).  Ties in fit quality are
/// broken toward the earlier entry.
std::span<const Form> all_forms();

/// The paper's original four forms.
std::span<const Form> paper_forms();

/// The library's default form set: the paper's four plus Power and InverseP
/// (the paper's stated future work — "add more canonical forms ... to
/// improve the accuracy").  Pure 1/p strong-scaling elements, which the
/// four-form set extrapolates poorly (the best four-form fit is a log that
/// goes negative past the inputs), are exact under InverseP/Power.  The
/// ablation benches quantify the difference; pass paper_forms() to FitOptions
/// for paper-faithful behaviour.
std::span<const Form> default_forms();

/// Tie-break/complexity rank: lower ranks are simpler and extrapolate more
/// tamely.  Exposed so callers (e.g. the extrapolator's domain-aware
/// selection) can reproduce select_best's ordering.
int form_complexity(Form form);

/// One fitted model: the form plus its parameters.  Invalid fits (e.g.
/// exponential on data with mixed signs) have ok=false and infinite sse.
struct FittedModel {
  Form form = Form::Constant;
  bool ok = false;  ///< next to `form`, so a model is 48 bytes, not 56
  /// Parameters [a, b, c]; meaning depends on `form` (see Form docs).
  std::array<double, 3> params{0.0, 0.0, 0.0};
  /// Sum of squared residuals in the *original* data space.
  double sse = 0.0;
  /// Coefficient of determination in the original data space; 1 for perfect
  /// fits, can be negative for fits worse than the mean.
  double r2 = 0.0;

  /// Evaluates the model at core count p.  Exponential growth is clamped to
  /// ±1e300 to keep downstream arithmetic finite.  Log, Power, and InverseP
  /// are undefined at p ≤ 0: such calls throw util::Error (and count toward
  /// the fits.evaluate_domain_errors metric) instead of silently returning
  /// a clamped-garbage value.
  double evaluate(double p) const;

  /// "linear(a=…, b=…)" description for reports.
  std::string describe() const;
};

/// How competing fits are ranked.
enum class SelectionCriterion {
  MinSse,  ///< the paper's "best statistical fit": least squared residual
  LooCv,   ///< leave-one-out cross-validation error (needs ≥ 4 samples)
  Aicc,    ///< small-sample-corrected Akaike criterion (needs ≥ k+2 samples)
};

/// Fitting policy knobs.
struct FitOptions {
  /// Candidate forms; see default_forms() for why the default is a superset
  /// of the paper's four (pass paper_forms() for paper-faithful selection).
  std::vector<Form> forms{default_forms().begin(), default_forms().end()};
  /// Two candidates whose scores differ by less than
  /// `tie_tolerance · (1 + |best_score|)` are considered tied; the simpler
  /// wins.  (|·| matters: AICc scores are routinely negative, and a band of
  /// `tol · (1 + best_score)` would go non-positive and disable the
  /// tie-break exactly where it is needed.)
  double tie_tolerance = 1e-9;
  /// Ranking rule; criteria that need more samples than available fall back
  /// to MinSse for that series.
  SelectionCriterion criterion = SelectionCriterion::MinSse;
  /// Legacy switch: true forces criterion = LooCv.
  bool loo_cv = false;
};

/// Free parameters of a form (constant: 1, quadratic: 3, others: 2).
int form_parameter_count(Form form);

/// Residual-bootstrap confidence interval of select_best's prediction.
struct PredictionInterval {
  double point = 0.0;  ///< the best fit's value at the target
  double lo = 0.0;     ///< lower percentile bound
  double hi = 0.0;     ///< upper percentile bound
};

/// Bootstraps the extrapolation uncertainty at `target`: refits
/// `resamples` residual-resampled copies of the series with select_best and
/// takes the (1±confidence)/2 percentiles of the predicted values.
/// Deterministic for a fixed seed.
PredictionInterval bootstrap_interval(std::span<const double> p, std::span<const double> y,
                                      double target, const FitOptions& opts = {},
                                      std::size_t resamples = 200,
                                      double confidence = 0.9, std::uint64_t seed = 1);

/// Fits one specific form to the samples (p_i, y_i).  Core counts must be
/// positive.  Returns ok=false when the form cannot represent the data
/// (e.g. exponential/power with mixed-sign y) or is underdetermined.  A
/// series that merely *contains* exact zeros among one-signed samples still
/// fits exponential/power: the zeros are dropped from the log-space
/// regression (they cannot be log-transformed) but kept in the SSE that
/// ranks the fit; the dropped count is tallied in fits.zero_dropped_samples.
FittedModel fit_form(Form form, std::span<const double> p, std::span<const double> y);

/// Fits every candidate form; results are in the same order as opts.forms.
/// Each form fitted here (and in select_best) increments the per-series
/// fits.attempted.<form> counter; raw fit_form calls are not counted so the
/// single-form hot path stays atomic-free and LOO refits don't inflate the
/// attempted-vs-won comparison.
std::vector<FittedModel> fit_all(std::span<const double> p, std::span<const double> y,
                                 const FitOptions& opts = {});

/// Fits every candidate form and returns the best per the selection policy
/// (min SSE or min LOO-CV error, simplicity tie-break).  Falls back to a
/// constant fit through the mean when every candidate fails, so the result
/// is always usable.
FittedModel select_best(std::span<const double> p, std::span<const double> y,
                        const FitOptions& opts = {});

/// Scores every candidate in `fits` exactly as select_best ranks them (SSE,
/// LOO-CV, or AICc per `opts`, with the same small-sample downgrades);
/// scores[i] belongs to fits[i], and unusable candidates score +inf.  The
/// scores depend only on the input series — never on an extrapolation
/// target — which is what lets a fitted candidate set be cached and re-ranked
/// for many targets.
std::vector<double> selection_scores(std::span<const FittedModel> fits,
                                     std::span<const double> p, std::span<const double> y,
                                     const FitOptions& opts = {});

/// select_best over precomputed candidates: no refitting.  With
/// fits = fit_all(p, y, opts) and scores = selection_scores(fits, p, y, opts)
/// the result is identical to select_best(p, y, opts) — the seam the serving
/// layer's model cache relies on to skip fitting on repeated queries.
/// `p`/`y` are only consulted for the constant fallback when every candidate
/// is unusable.
FittedModel select_from(std::span<const FittedModel> fits, std::span<const double> scores,
                        std::span<const double> p, std::span<const double> y,
                        const FitOptions& opts = {});

}  // namespace pmacx::stats
