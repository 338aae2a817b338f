#include "core/extrapolator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstring>
#include <optional>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/incremental.hpp"
#include "stats/batch.hpp"
#include "stats/bayes.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace pmacx::core {
namespace {

bool block_element_is_count(trace::BlockElement element) {
  switch (element) {
    case trace::BlockElement::VisitCount:
    case trace::BlockElement::FpAdd:
    case trace::BlockElement::FpMul:
    case trace::BlockElement::FpFma:
    case trace::BlockElement::FpDivSqrt:
    case trace::BlockElement::MemLoads:
    case trace::BlockElement::MemStores: return true;
    default: return false;
  }
}

bool instr_element_is_count(trace::InstrElement element) {
  switch (element) {
    case trace::InstrElement::ExecCount:
    case trace::InstrElement::MemOps:
    case trace::InstrElement::FpOps: return true;
    default: return false;
  }
}

/// Element domain classification shared by clamping and domain-aware
/// candidate rejection.
struct ElementDomain {
  bool is_rate = false;
  bool is_count = false;
};

ElementDomain domain_of(const ElementKey& key) {
  ElementDomain domain;
  if (key.is_block_level()) {
    const auto element = static_cast<trace::BlockElement>(key.element);
    domain.is_rate = trace::block_element_is_rate(element);
    domain.is_count = block_element_is_count(element);
  } else {
    const auto element = static_cast<trace::InstrElement>(key.element);
    domain.is_rate = trace::instr_element_is_rate(element);
    domain.is_count = instr_element_is_count(element);
  }
  return domain;
}

bool in_domain(const ElementDomain& domain, double value) {
  if (!std::isfinite(value)) return false;
  if (domain.is_rate) return value >= 0.0 && value <= 1.0;
  return value >= 0.0;  // every element in the schema is non-negative
}

/// Clamps an extrapolated value into its element's valid domain.
double clamp_value(const ElementDomain& domain, double value, bool round_counts) {
  if (domain.is_rate) return std::clamp(value, 0.0, 1.0);
  double clamped = std::max(value, 0.0);
  if (domain.is_count && round_counts) clamped = std::round(clamped);
  return clamped;
}

/// Selects the best model among precomputed candidates, like
/// stats::select_best (simplicity tie-break) but, when requested, preferring
/// candidates whose extrapolation at `target` stays inside the element's
/// domain (in-domain candidates rank by raw SSE, matching the historical
/// domain-aware selection).  Falls back to the criterion-ranked best when
/// nothing extrapolates in-domain (the value is clamped later).
stats::FittedModel select_from_models(std::span<const stats::FittedModel> candidates,
                                      std::span<const double> scores, const FitSeries& series,
                                      double target, const ElementDomain& domain,
                                      const ExtrapolationOptions& options) {
  if (options.reject_out_of_domain) {
    const stats::FittedModel* best = nullptr;
    auto better = [&](const stats::FittedModel& a, const stats::FittedModel& b) {
      const double tolerance = options.fit.tie_tolerance * (1.0 + b.sse);
      if (a.sse < b.sse - tolerance) return true;
      if (std::fabs(a.sse - b.sse) <= tolerance)
        return stats::form_complexity(a.form) < stats::form_complexity(b.form);
      return false;
    };
    for (const stats::FittedModel& fit : candidates) {
      if (!fit.ok || !in_domain(domain, fit.evaluate(target))) continue;
      if (best == nullptr || better(fit, *best)) best = &fit;
    }
    if (best != nullptr) return *best;
  }
  return stats::select_from(candidates, scores, series.axis, series.values, options.fit);
}

/// Last-resort model when no canonical form yields a finite extrapolation:
/// a constant through the mean of the finite samples (0 when none are).
stats::FittedModel constant_fallback(std::span<const double> values) {
  double sum = 0.0;
  std::size_t finite = 0;
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    sum += v;
    ++finite;
  }
  stats::FittedModel model;
  model.form = stats::Form::Constant;
  model.params = {finite > 0 ? sum / static_cast<double>(finite) : 0.0, 0.0, 0.0};
  model.ok = true;
  return model;
}

/// max_i |fit(p_i) - y_i| / |y_i|, with a scale-aware denominator floor so
/// zero-valued samples don't blow the metric up.
double max_fit_relative_error(const stats::FittedModel& model,
                              std::span<const double> core_counts,
                              std::span<const double> values) {
  double scale = 0.0;
  for (double v : values) scale = std::max(scale, std::fabs(v));
  if (scale == 0.0) return 0.0;
  const double floor = 1e-9 * scale;
  double worst = 0.0;
  for (std::size_t i = 0; i < core_counts.size(); ++i) {
    const double fitted = model.evaluate(core_counts[i]);
    const double denom = std::max(std::fabs(values[i]), floor);
    worst = std::max(worst, std::fabs(fitted - values[i]) / denom);
  }
  return worst;
}

/// Re-monotonizes cumulative hit rates: a reference resolved by level j is
/// also resolved by every deeper level, so L1 ≤ L2 ≤ L3 must hold.
void monotonize_hit_rates(trace::BasicBlockRecord& block) {
  double rate = block.get(trace::BlockElement::HitRateL1);
  rate = std::max(rate, block.get(trace::BlockElement::HitRateL2));
  block.set(trace::BlockElement::HitRateL2, rate);
  rate = std::max(rate, block.get(trace::BlockElement::HitRateL3));
  block.set(trace::BlockElement::HitRateL3, rate);

  for (auto& instr : block.instructions) {
    double r = instr.get(trace::InstrElement::HitRateL1);
    r = std::max(r, instr.get(trace::InstrElement::HitRateL2));
    instr.set(trace::InstrElement::HitRateL2, r);
    r = std::max(r, instr.get(trace::InstrElement::HitRateL3));
    instr.set(trace::InstrElement::HitRateL3, r);
  }
}

/// Influence flags per the paper's 0.1 % rule, computed on the reference
/// (largest-axis) trace: an element is influential when its block or
/// instruction carries more than `threshold` of the task's memory
/// operations — floating-point operations for memory-less ones.  An element
/// present in the reference trace has that trace's record as its skeleton
/// record; an absent one is not influential.
std::vector<std::uint8_t> influence_flags(const Alignment& alignment,
                                          const trace::TaskTrace& reference,
                                          double threshold) {
  const double total_mem = reference.total_memory_ops();
  const double total_fp = reference.total_fp_ops();
  auto exceeds = [&](double mem, double fp) {
    if (mem > 0 && total_mem > 0) return mem / total_mem > threshold;
    if (total_fp > 0) return fp / total_fp > threshold;
    return false;
  };
  const std::size_t last = alignment.axis.size() - 1;
  std::vector<std::uint8_t> flags(alignment.size(), 0);
  for (std::size_t e = 0; e < alignment.size(); ++e) {
    if (!alignment.presence(e)[last]) continue;
    const ElementSlot slot = alignment.slots[e];
    const trace::BasicBlockRecord& block = alignment.skeleton[slot.block];
    if (slot.instr < 0) {
      flags[e] = exceeds(block.memory_ops(), block.fp_ops());
    } else {
      const trace::InstructionRecord& instr =
          block.instructions[static_cast<std::size_t>(slot.instr)];
      flags[e] = exceeds(instr.get(trace::InstrElement::MemOps),
                         instr.get(trace::InstrElement::FpOps));
    }
  }
  return flags;
}

/// The core-count alignment every "cores" model set starts from.
Alignment align_cores(std::span<const trace::TaskTrace> inputs,
                      const ExtrapolationOptions& options) {
  PMACX_CHECK(inputs.size() >= 2, "extrapolation requires at least two input traces");
  return align_traces(inputs, options.missing);
}

/// The start every model-set fitting entry point shares: takes `alignment`
/// of `inputs` along `axis_name`, snapshots the policy (pool pointer
/// cleared: a cached set must not outlive a borrowed pool) and the workload
/// identity, flags the influential elements, and sizes the candidate and
/// score columns for the fit stage to fill.
TaskModelSet start_model_set(std::span<const trace::TaskTrace> inputs, Alignment alignment,
                             const char* axis_name, const ExtrapolationOptions& options) {
  TaskModelSet set;
  set.alignment = std::move(alignment);
  set.options = options;
  set.options.pool = nullptr;
  set.app = inputs.back().app;
  set.rank = inputs.back().rank;
  set.target_system = inputs.back().target_system;
  set.axis_name = axis_name;
  set.influential =
      influence_flags(set.alignment, inputs.back(), options.influence_threshold);
  set.candidates.resize(set.size() * set.forms());
  set.scores.resize(set.size() * set.forms());
  return set;
}

/// Resolves which pool a parallel stage should run on.  nullptr means run
/// serially; `local_pool` owns a private pool when options.threads > 1.
util::ThreadPool* resolve_pool(const ExtrapolationOptions& options,
                               std::optional<util::ThreadPool>& local_pool) {
  if (options.pool != nullptr) return options.pool;
  // Default (no explicit pool or thread count): the process-wide pool, so
  // library callers looping over extrapolate_task pay no spawn/join per call.
  if (options.threads == 0) return &util::shared_pool();
  if (options.threads > 1) {
    // Explicit width: a private pool of exactly that size for this call.
    local_pool.emplace(options.threads);
    return &*local_pool;
  }
  return nullptr;
}

/// Runs body(lo, hi) over [0, count) in ranges of at most `range` indices,
/// fanned out per the options' pool policy.  The ranges are disjoint, so a
/// body that writes only its own rows of a column needs no locking.
template <typename Body>
void for_each_range(std::size_t count, std::size_t range, const ExtrapolationOptions& options,
                    Body&& body) {
  const std::size_t ranges = (count + range - 1) / range;
  auto run = [&](std::size_t r) { body(r * range, std::min(count, (r + 1) * range)); };
  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool* pool = resolve_pool(options, local_pool);
  if (pool != nullptr && !pool->serial()) {
    pool->parallel_for(ranges, run);
    return;
  }
  for (std::size_t r = 0; r < ranges; ++r) run(r);
}

/// Batch size of the SoA fit path: large enough to amortize transposition
/// and fill AVX2 lanes, small enough that batches still spread across the
/// pool on small alignments.
constexpr std::size_t kFitBatch = 1024;

/// The fit stage shared by every fitting entry point (model-set,
/// checkpointed and incremental fitting): fits the elements index_of(0),
/// …, index_of(count - 1) (ascending) into the set's candidate and score
/// columns.  Batches of kFitBatch fan out across the pool.  In a batch,
/// full-series elements go through the shared BatchFitter over a
/// sample-major arena buffer — straight into the columns when they are one
/// contiguous run — and the rest through the scalar per-element path.
/// Every candidate and score is bit-identical to stats::fit_all's and
/// stats::selection_scores' over the element's fit series.
template <typename IndexOf>
void fit_elements(TaskModelSet& set, const ExtrapolationOptions& options, std::size_t count,
                  IndexOf index_of) {
  if (count == 0) return;
  const Alignment& alignment = set.alignment;
  const std::size_t n = alignment.axis.size();
  const std::size_t forms = set.forms();
  const stats::BatchFitter fitter(alignment.axis, options.fit);
  for_each_range(count, kFitBatch, options, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::size_t> batched;
    batched.reserve(hi - lo);
    std::vector<double> axis_scratch, values_scratch;
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t e = index_of(k);
      if (alignment.fits_full_series(e, options.missing)) {
        batched.push_back(e);
        continue;
      }
      const FitSeries series =
          alignment.fit_series(e, options.missing, axis_scratch, values_scratch);
      const std::vector<stats::FittedModel> candidates =
          stats::fit_all(series.axis, series.values, options.fit);
      const std::vector<double> scores =
          stats::selection_scores(candidates, series.axis, series.values, options.fit);
      std::copy(candidates.begin(), candidates.end(), set.candidates.begin() + e * forms);
      std::copy(scores.begin(), scores.end(), set.scores.begin() + e * forms);
    }
    if (batched.empty()) return;

    util::Arena arena;
    const std::size_t m = batched.size();
    double* y = arena.allocate<double>(n * m);
    for (std::size_t b = 0; b < m; ++b) {
      const std::span<const double> values = alignment.series(batched[b]);
      for (std::size_t s = 0; s < n; ++s) y[s * m + b] = values[s];
    }
    const bool contiguous = batched.back() - batched.front() + 1 == m;
    stats::FittedModel* candidates = contiguous
                                         ? set.candidates.data() + batched.front() * forms
                                         : arena.allocate<stats::FittedModel>(forms * m);
    double* scores = contiguous ? set.scores.data() + batched.front() * forms
                                : arena.allocate<double>(forms * m);
    fitter.fit(y, m, m, candidates, scores, arena);
    if (contiguous) return;
    for (std::size_t b = 0; b < m; ++b) {
      std::copy_n(candidates + b * forms, forms, set.candidates.begin() + batched[b] * forms);
      std::copy_n(scores + b * forms, forms, set.scores.begin() + batched[b] * forms);
    }
  });
}

/// The target-dependent half of element e's extrapolation: select among the
/// precomputed candidates, evaluate at `target`, degrade to the constant
/// fallback if needed, clamp, and attach the requested intervals — all over
/// the series the element was fitted on.  Writes only `fit`, so it runs
/// concurrently on disjoint rows; returns whether the fallback was used.
bool evaluate_element(const TaskModelSet& set, std::size_t e, const FitSeries& series,
                      double target, const ExtrapolationOptions& options, ElementFit& fit) {
  const ElementKey& key = set.alignment.keys[e];
  const ElementDomain domain = domain_of(key);
  const std::span<const stats::FittedModel> candidates = set.candidates_of(e);
  fit = ElementFit{};

  bool fallback = false;
  stats::FittedModel model =
      select_from_models(candidates, set.scores_of(e), series, target, domain, options);
  double raw = model.evaluate(target);
  if (!model.ok || !std::isfinite(raw)) {
    // Graceful degradation: no canonical form produced a usable
    // extrapolation (degenerate series, overflowed evaluation).  Rather
    // than poisoning the synthetic trace with a non-finite value, fall
    // back to the constant form through the mean of the finite samples
    // and record the substitution.
    model = constant_fallback(series.values);
    raw = model.evaluate(target);
    fallback = true;
  }

  fit.key = key;
  fit.model = model;
  fit.extrapolated = raw;
  fit.clamped = clamp_value(domain, raw, options.round_counts);
  fit.max_fit_rel_error = max_fit_relative_error(model, series.axis, series.values);
  fit.influential = set.influential[e] != 0;
  if (fit.influential && options.bootstrap_resamples > 0) {
    fit.has_interval = true;
    fit.interval = stats::bootstrap_interval(series.axis, series.values, target, options.fit,
                                             options.bootstrap_resamples, 0.9,
                                             /*seed=*/key.block_id * 131 + key.element);
  }
  if (options.interval_coverage > 0.0 && options.interval_coverage < 1.0) {
    // Bayesian interval mode: posterior over the already-fitted candidates
    // (no refitting), sampled with a seed derived purely from the element's
    // identity — deterministic, and invariant under scheduling/thread count
    // like everything else in this stage.
    stats::bayes::Options bayes_options;
    bayes_options.fit = options.fit;
    bayes_options.coverage = options.interval_coverage;
    bayes_options.samples = options.interval_samples;
    bayes_options.seed = util::derive_seed(key.block_id * 131 + key.element,
                                           static_cast<std::uint64_t>(key.instr_index + 2));
    fit.has_bayes = true;
    fit.bayes = stats::bayes::predict(
        stats::bayes::posterior_from(candidates, series.axis, series.values, bayes_options),
        target, bayes_options);
  }
  return fallback;
}

/// The output-trace feature an element's value lands in.
double& feature_at(trace::TaskTrace& out, const ElementSlot& slot, const ElementKey& key) {
  trace::BasicBlockRecord& block = out.blocks[slot.block];
  if (slot.instr < 0) return block.features[key.element];
  return block.instructions[static_cast<std::size_t>(slot.instr)].features[key.element];
}

/// Applies the evaluated rows in element order: trace writes through each
/// element's slot, degradation tallies, counters.  Serial by construction,
/// so diagnostics (and every counter tallied here) are deterministic
/// regardless of how the evaluate stage was scheduled.
void apply_rows(const TaskModelSet& set, std::span<const std::uint8_t> fallback,
                std::uint32_t out_core_count, const ExtrapolationOptions& options,
                ExtrapolationResult& result) {
  const Alignment& alignment = set.alignment;
  const auto& rows = result.report.elements;

  // Output skeleton: the alignment's blocks, already in id order.
  trace::TaskTrace& out = result.trace;
  out.app = set.app;
  out.rank = set.rank;
  out.core_count = out_core_count;
  out.target_system = set.target_system;
  out.extrapolated = true;
  out.blocks = alignment.skeleton;

  util::metrics::StageTimer apply_timer("extrapolate.apply");
  std::array<std::size_t, 7> won{};
  for (std::size_t e = 0; e < rows.size(); ++e) {
    const ElementFit& fit = rows[e];
    ++won[static_cast<std::size_t>(fit.model.form)];
    if (fallback[e]) {
      ++result.diagnostics.fallback_fits;
      result.diagnostics.warn(fit.key.describe() +
                              ": no finite canonical fit; using constant fallback");
    }
    if (fit.clamped != fit.extrapolated) ++result.diagnostics.clamped_values;
    feature_at(out, alignment.slots[e], fit.key) = fit.clamped;
  }
  for (auto& block : out.blocks) monotonize_hit_rates(block);

  util::metrics::Registry& metrics = util::metrics::Registry::global();
  metrics.counter("fits.total").add(rows.size());
  metrics.counter("fits.constant_fallback").add(result.diagnostics.fallback_fits);
  metrics.counter("fits.clamped_values").add(result.diagnostics.clamped_values);
  for (stats::Form form : stats::all_forms())
    metrics.counter("fits.won." + stats::form_name(form))
        .add(won[static_cast<std::size_t>(form)]);

  if (options.interval_coverage > 0.0 && options.interval_coverage < 1.0) {
    // Interval traces: start from the finished point trace (identical
    // skeleton and metadata) and overwrite every aligned element with its
    // clamped predictive quantile.  Clamping is monotone and hit-rate
    // monotonization is an element-wise max, so lo ≤ median ≤ hi survives
    // both.
    result.has_interval = true;
    result.trace_lo = out;
    result.trace_median = out;
    result.trace_hi = out;
    auto write_quantile = [&](trace::TaskTrace& into,
                              double stats::bayes::Prediction::*quantile) {
      for (std::size_t e = 0; e < rows.size(); ++e) {
        const ElementFit& fit = rows[e];
        if (!fit.has_bayes) continue;
        feature_at(into, alignment.slots[e], fit.key) =
            clamp_value(domain_of(fit.key), fit.bayes.*quantile, options.round_counts);
      }
      for (auto& block : into.blocks) monotonize_hit_rates(block);
    };
    write_quantile(result.trace_lo, &stats::bayes::Prediction::lo);
    write_quantile(result.trace_median, &stats::bayes::Prediction::median);
    write_quantile(result.trace_hi, &stats::bayes::Prediction::hi);
  }
}

/// Fits every element of `alignment` (of `inputs`, along `axis_name`):
/// the fit half of every extrapolation path.
TaskModelSet fit_models(std::span<const trace::TaskTrace> inputs, Alignment alignment,
                        const char* axis_name, const ExtrapolationOptions& options) {
  TaskModelSet set = start_model_set(inputs, std::move(alignment), axis_name, options);
  util::metrics::StageTimer fit_timer("extrapolate.fit");
  fit_elements(set, options, set.size(), [](std::size_t k) { return k; });
  return set;
}

/// Elements per evaluate-stage range (one pair of fit-series scratch
/// buffers each).
constexpr std::size_t kEvaluateRange = 256;

/// The evaluate half of every extrapolation path: select, evaluate and clamp
/// each element at `target` on the options' pool policy, each into its own
/// pre-sized report row, then apply the rows in element order — so every
/// path, thread count and pool emits the same bytes, report and
/// diagnostics.  Everything in `set` is only read, so one cached set can be
/// evaluated from many threads at once.
ExtrapolationResult evaluate_models(const TaskModelSet& set, double target,
                                    std::uint32_t out_core_count,
                                    const ExtrapolationOptions& options) {
  const std::size_t count = set.size();
  PMACX_CHECK(set.candidates.size() == count * set.forms() &&
                  set.scores.size() == count * set.forms() &&
                  set.influential.size() == count,
              "model set inconsistent with its alignment");
  const Alignment& alignment = set.alignment;
  ExtrapolationResult result;
  FitReport& report = result.report;
  report.axis = alignment.axis;
  report.target = target;
  report.axis_name = set.axis_name;
  report.input_series = alignment.values;
  report.elements.resize(count);
  std::vector<std::uint8_t> fallback(count, 0);
  {
    util::metrics::StageTimer select_timer("extrapolate.select");
    for_each_range(count, kEvaluateRange, options, [&](std::size_t lo, std::size_t hi) {
      std::vector<double> axis_scratch, values_scratch;
      for (std::size_t e = lo; e < hi; ++e) {
        const FitSeries series =
            alignment.fit_series(e, set.options.missing, axis_scratch, values_scratch);
        fallback[e] = evaluate_element(set, e, series, target, options, report.elements[e]);
      }
    });
  }
  apply_rows(set, fallback, out_core_count, options, result);
  return result;
}

}  // namespace

ExtrapolationResult extrapolate_task(std::span<const trace::TaskTrace> inputs,
                                     std::uint32_t target_cores,
                                     const ExtrapolationOptions& options) {
  PMACX_CHECK(target_cores > 0, "target core count must be positive");
  return evaluate_models(fit_task_models(inputs, options), target_cores, target_cores,
                         options);
}

ExtrapolationResult extrapolate_parameter(std::span<const trace::TaskTrace> inputs,
                                          std::span<const double> parameter_values,
                                          double target_value,
                                          const ExtrapolationOptions& options) {
  PMACX_CHECK(inputs.size() >= 2, "extrapolation requires at least two input traces");
  PMACX_CHECK(target_value > 0, "target parameter value must be positive");
  for (std::size_t i = 1; i < inputs.size(); ++i)
    PMACX_CHECK(inputs[i].core_count == inputs[0].core_count,
                "parameter extrapolation requires a fixed core count");
  const TaskModelSet set =
      fit_models(inputs, align_over(inputs, parameter_values, options.missing), "parameter",
                 options);
  return evaluate_models(set, target_value, inputs[0].core_count, options);
}

std::size_t TaskModelSet::memory_bytes() const {
  std::size_t total = sizeof(*this);
  total += alignment.axis.capacity() * sizeof(double);
  total += alignment.keys.capacity() * sizeof(ElementKey);
  total += alignment.slots.capacity() * sizeof(ElementSlot);
  total += alignment.values.capacity() * sizeof(double);
  total += alignment.present.capacity();
  for (const trace::BasicBlockRecord& block : alignment.skeleton) {
    total += sizeof(block);
    total += block.location.file.capacity() + block.location.function.capacity();
    total += block.instructions.capacity() * sizeof(trace::InstructionRecord);
  }
  total += candidates.capacity() * sizeof(stats::FittedModel);
  total += scores.capacity() * sizeof(double);
  total += influential.capacity();
  total += app.capacity() + target_system.capacity() + axis_name.capacity();
  return total;
}

TaskModelSet fit_task_models(std::span<const trace::TaskTrace> inputs,
                             const ExtrapolationOptions& options) {
  return fit_models(inputs, align_cores(inputs, options), "cores", options);
}

TaskModelSet fit_task_models_checkpointed(std::span<const trace::TaskTrace> inputs,
                                          const ExtrapolationOptions& options,
                                          const CheckpointConfig& config,
                                          CheckpointStats* stats_out) {
  TaskModelSet set = start_model_set(inputs, align_cores(inputs, options), "cores", options);
  const std::size_t count = set.size();

  ModelCheckpoint checkpoint(config);
  checkpoint.open(count);

  CheckpointStats stats;
  stats.elements_total = count;

  // Chunks are processed in order — parallel fitting *within* a chunk, one
  // atomic write per completed chunk — so a crash at any instant loses at
  // most the chunk in flight and the on-disk state is always a valid prefix
  // of the work (plus whatever earlier chunks a prior run completed).
  util::metrics::StageTimer fit_timer("extrapolate.fit");
  std::size_t chunks_written = 0;
  for (std::size_t c = 0; c < checkpoint.chunk_count(); ++c) {
    const std::size_t begin = checkpoint.chunk_begin(c);
    const std::size_t end = checkpoint.chunk_end(c);
    if (checkpoint.load_chunk(c, set)) {
      stats.elements_reused += end - begin;
      continue;
    }
    fit_elements(set, options, end - begin, [begin](std::size_t k) { return begin + k; });
    checkpoint.save_chunk(c, set);
    stats.elements_fitted += end - begin;
    ++chunks_written;
    if (config.kill_after_chunks > 0 && chunks_written >= config.kill_after_chunks) {
      // Crash-injection hook for resume tests: SIGKILL cannot be caught or
      // cleaned up after — exactly the failure the checkpoint exists for.
      std::raise(SIGKILL);
    }
  }
  stats.chunks_discarded = checkpoint.chunks_discarded();
  stats.resumed = stats.elements_reused > 0;

  util::metrics::Registry& metrics = util::metrics::Registry::global();
  metrics.counter("checkpoint.elements_reused").add(stats.elements_reused);
  metrics.counter("checkpoint.elements_fitted").add(stats.elements_fitted);
  if (stats.chunks_discarded > 0)
    metrics.counter("checkpoint.chunks_discarded").add(stats.chunks_discarded);
  if (stats.resumed) metrics.counter("checkpoint.resumes").add();
  if (stats_out != nullptr) *stats_out = stats;
  return set;
}

ExtrapolationResult extrapolate_from_models(const TaskModelSet& models,
                                            std::uint32_t target_cores) {
  return extrapolate_from_models(models, target_cores,
                                 models.options.interval_coverage);
}

ExtrapolationResult extrapolate_from_models(const TaskModelSet& models,
                                            std::uint32_t target_cores,
                                            double interval_coverage) {
  PMACX_CHECK(target_cores > 0, "target core count must be positive");
  // Interval mode is a per-query choice layered over the cached fits — the
  // same model set answers PREDICT and PREDICT_INTERVAL without refitting.
  ExtrapolationOptions options = models.options;
  options.interval_coverage = interval_coverage;
  return evaluate_models(models, target_cores, target_cores, options);
}

namespace {

/// Fitting-relevant option fields that must match for a previous set's
/// models to be candidates for reuse.  Evaluation-time knobs (interval
/// coverage, bootstrap resamples, rounding, domain rejection, pool policy)
/// never change fitted candidates and are deliberately excluded.
bool fit_options_compatible(const ExtrapolationOptions& a, const ExtrapolationOptions& b) {
  return a.missing == b.missing && a.influence_threshold == b.influence_threshold &&
         a.fit.forms == b.fit.forms && a.fit.criterion == b.fit.criterion &&
         a.fit.loo_cv == b.fit.loo_cv && a.fit.tie_tolerance == b.fit.tie_tolerance;
}

/// Bitwise series identity: reuse must be exact, so -0.0 vs 0.0 (or any
/// payload difference == would forgive) disqualifies it.
bool same_series(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void record_incremental_metrics(const IncrementalFitStats& stats) {
  util::metrics::Registry& metrics = util::metrics::Registry::global();
  metrics.counter("fits.incremental.reused").add(stats.elements_reused);
  metrics.counter("fits.incremental.refit").add(stats.elements_refit);
  if (stats.cold) metrics.counter("fits.incremental.cold").add();
}

}  // namespace

TaskModelSet fit_task_models_incremental(std::span<const trace::TaskTrace> inputs,
                                         const ExtrapolationOptions& options,
                                         const TaskModelSet* previous,
                                         IncrementalFitStats* stats_out) {
  PMACX_CHECK(inputs.size() >= 2, "extrapolation requires at least two input traces");

  IncrementalFitStats stats;
  const bool compatible =
      previous != nullptr && previous->axis_name == "cores" &&
      previous->app == inputs.back().app && previous->rank == inputs.back().rank &&
      previous->target_system == inputs.back().target_system &&
      fit_options_compatible(previous->options, options) &&
      previous->candidates.size() == previous->size() * previous->forms() &&
      previous->scores.size() == previous->candidates.size();
  if (!compatible) {
    stats.cold = true;
    TaskModelSet set = fit_task_models(inputs, options);
    stats.elements_total = set.size();
    stats.elements_refit = set.size();
    record_incremental_metrics(stats);
    if (stats_out != nullptr) *stats_out = stats;
    return set;
  }

  TaskModelSet set = start_model_set(inputs, align_cores(inputs, options), "cores", options);
  const std::size_t count = set.size();
  const std::size_t forms = set.forms();
  stats.elements_total = count;

  util::metrics::StageTimer fit_timer("extrapolate.fit");

  // Merge-join the new elements against the previous set (both sorted by
  // ElementKey).  An element whose fit series is bitwise unchanged copies
  // its candidate and score slices from the previous set; its influence
  // flag was recomputed with the set, because the influence reference (the
  // largest input trace) has changed.  Everything else refits through the
  // shared stage.
  const Alignment& before = previous->alignment;
  std::vector<std::size_t> refit;
  std::vector<double> axis_now, values_now, axis_before, values_before;
  std::size_t j = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const ElementKey& key = set.alignment.keys[i];
    while (j < before.size() && before.keys[j] < key) ++j;
    if (j < before.size() && before.keys[j] == key) {
      const FitSeries now = set.alignment.fit_series(i, options.missing, axis_now, values_now);
      const FitSeries then = before.fit_series(j, options.missing, axis_before, values_before);
      if (same_series(now.axis, then.axis) && same_series(now.values, then.values)) {
        std::copy_n(previous->candidates.begin() + j * forms, forms,
                    set.candidates.begin() + i * forms);
        std::copy_n(previous->scores.begin() + j * forms, forms, set.scores.begin() + i * forms);
        ++stats.elements_reused;
        continue;
      }
    }
    refit.push_back(i);
  }
  fit_elements(set, options, refit.size(), [&refit](std::size_t k) { return refit[k]; });
  stats.elements_refit = refit.size();

  record_incremental_metrics(stats);
  if (stats_out != nullptr) *stats_out = stats;
  return set;
}

}  // namespace pmacx::core
