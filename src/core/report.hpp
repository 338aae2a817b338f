// Fit-quality reporting for an extrapolation run.
//
// Section IV evaluates element-level fit quality on "influential"
// instructions — those contributing ≥ 0.1 % of the task's memory operations
// (or, for memory-less instructions, floating-point operations) — and
// reports that every influential element fit within 20 % absolute relative
// error.  FitReport captures the same accounting: per element, the winning
// form, its parameters, the fit error over the inputs, the extrapolated
// value, and the influence flag.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/align.hpp"
#include "stats/bayes.hpp"
#include "stats/canonical.hpp"
#include "util/column.hpp"

namespace pmacx::core {

/// One element's extrapolation record.
struct ElementFit {
  ElementKey key;
  stats::FittedModel model;
  double extrapolated = 0.0;        ///< model value at the target core count
  double clamped = 0.0;             ///< after domain clamping (what's emitted)
  /// max over inputs of |fit(p_i) - y_i| / |y_i| (0 where y_i == 0 == fit).
  double max_fit_rel_error = 0.0;
  bool influential = false;
  /// `interval` holds the residual-bootstrap uncertainty of the
  /// extrapolated value; populated only when
  /// ExtrapolationOptions::bootstrap_resamples > 0 (and only for
  /// influential elements, to bound cost).
  bool has_interval = false;
  /// `bayes` holds the Bayesian posterior-predictive interval (stats::bayes)
  /// at the run's requested coverage; populated for every element when
  /// ExtrapolationOptions::interval_coverage is set.  Raw (unclamped)
  /// predictive quantiles — the interval *traces* clamp into each element's
  /// domain, the report keeps the honest values.
  bool has_bayes = false;
  stats::PredictionInterval interval;
  stats::bayes::Prediction bayes;
};

/// Whole-run extrapolation report.
struct FitReport {
  /// Input series abscissa: core counts on the paper's scaling axis, or
  /// parameter values for input-parameter extrapolation.
  std::vector<double> axis;
  double target = 0.0;  ///< the abscissa the trace was synthesized at
  std::string axis_name = "cores";
  /// One row per aligned element, in element order.  A util::Column: the
  /// evaluate stage sizes it and its workers write every row.
  util::Column<ElementFit> elements;
  /// The measured input series, element-major: element i's value at
  /// axis[t] is input_series[i * axis.size() + t].  Read it through inputs().
  std::vector<double> input_series;

  /// Element i's measured series, one value per axis point.
  std::span<const double> inputs(std::size_t i) const {
    return {input_series.data() + i * axis.size(), axis.size()};
  }

  /// Counts of winning forms over influential elements, for summaries.
  std::vector<std::pair<std::string, std::size_t>> form_histogram() const;
  /// Largest max_fit_rel_error over influential elements.
  double worst_influential_error() const;
  /// Influential elements with the largest fit errors, most erroneous first.
  std::vector<const ElementFit*> worst_elements(std::size_t count) const;
  /// Multi-line human-readable summary.
  std::string summary() const;

  /// Full per-element dump as CSV (one row per element: key, inputs,
  /// winning form + parameters, fit error, extrapolated value, influence
  /// flag, bootstrap bounds when present) — the plotting-friendly view.
  std::string to_csv() const;
};

}  // namespace pmacx::core
