#include "core/extrapolator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstring>
#include <optional>
#include <unordered_map>
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
stats::FittedModel select_from_models(const ElementModels& em, double target,
                                      const ElementDomain& domain,
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
    for (const stats::FittedModel& fit : em.candidates) {
      if (!fit.ok || !in_domain(domain, fit.evaluate(target))) continue;
      if (best == nullptr || better(fit, *best)) best = &fit;
    }
    if (best != nullptr) return *best;
  }
  return stats::select_from(em.candidates, em.scores, em.fit_axis, em.fit_values,
                            options.fit);
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
/// (largest core count) trace.  Instructions are keyed by the whole
/// (block id, index) pair, so no two instructions can share a flag.
struct InfluenceIndex {
  using InstrKey = std::pair<std::uint64_t, std::uint32_t>;
  struct InstrKeyHash {
    std::size_t operator()(const InstrKey& key) const {
      return static_cast<std::size_t>(key.first * 0x9e3779b97f4a7c15ull + key.second);
    }
  };
  std::unordered_map<std::uint64_t, bool> blocks;
  std::unordered_map<InstrKey, bool, InstrKeyHash> instrs;

  InfluenceIndex(const trace::TaskTrace& reference, double threshold) {
    const double total_mem = reference.total_memory_ops();
    const double total_fp = reference.total_fp_ops();
    for (const auto& block : reference.blocks) {
      const double mem = block.memory_ops();
      bool influential = false;
      if (mem > 0 && total_mem > 0) {
        influential = mem / total_mem > threshold;
      } else if (total_fp > 0) {
        influential = block.fp_ops() / total_fp > threshold;
      }
      blocks[block.id] = influential;
      for (const auto& instr : block.instructions) {
        const double imem = instr.get(trace::InstrElement::MemOps);
        bool instr_influential = false;
        if (imem > 0 && total_mem > 0) {
          instr_influential = imem / total_mem > threshold;
        } else if (total_fp > 0) {
          instr_influential = instr.get(trace::InstrElement::FpOps) / total_fp > threshold;
        }
        instrs[{block.id, instr.index}] = instr_influential;
      }
    }
  }

  bool lookup(const ElementKey& key) const {
    if (key.is_block_level()) {
      const auto it = blocks.find(key.block_id);
      return it != blocks.end() && it->second;
    }
    const auto it = instrs.find({key.block_id, static_cast<std::uint32_t>(key.instr_index)});
    return it != instrs.end() && it->second;
  }
};

/// The core-count alignment every "cores" model set starts from.
Alignment align_cores(std::span<const trace::TaskTrace> inputs,
                      const ExtrapolationOptions& options) {
  PMACX_CHECK(inputs.size() >= 2, "extrapolation requires at least two input traces");
  return align_traces(inputs, options.missing);
}

/// The start every model-set fitting entry point shares: takes `alignment`
/// of `inputs` along `axis_name`, snapshots the policy (pool pointer
/// cleared: a cached set must not outlive a borrowed pool) and the workload
/// identity, and returns the influence flags of the reference trace.
InfluenceIndex start_model_set(TaskModelSet& set, std::span<const trace::TaskTrace> inputs,
                               Alignment alignment, const char* axis_name,
                               const ExtrapolationOptions& options) {
  set.alignment = std::move(alignment);
  set.options = options;
  set.options.pool = nullptr;
  set.app = inputs.back().app;
  set.rank = inputs.back().rank;
  set.target_system = inputs.back().target_system;
  set.axis_name = axis_name;
  return InfluenceIndex(inputs.back(), options.influence_threshold);
}

/// Everything one element's (pure, thread-safe) evaluate stage produces;
/// the apply stage consumes these strictly in element order so diagnostics
/// and the report are bit-identical however the evaluations were scheduled.
struct ElementOutcome {
  ElementFit fit;
  bool fallback = false;
};

/// The fit-series choice shared by the scalar fit path and the incremental
/// refitter's reuse check: FitPresent restricts the series to the counts
/// where the element was actually observed (≥ 2 needed; otherwise fall
/// back to the full, zero-filled series).
void choose_fit_series(const Alignment& alignment, const AlignedElement& element,
                       const ExtrapolationOptions& options, std::vector<double>& axis,
                       std::vector<double>& values) {
  axis.clear();
  values.clear();
  if (options.missing == MissingPolicy::FitPresent) {
    for (std::size_t i = 0; i < element.values.size(); ++i) {
      if (element.filled[i]) continue;
      axis.push_back(alignment.axis[i]);
      values.push_back(element.values[i]);
    }
    if (axis.size() < 2) {
      axis.clear();
      values.clear();
    }
  }
  if (axis.empty()) {
    axis.assign(alignment.axis.begin(), alignment.axis.end());
    values.assign(element.values.begin(), element.values.end());
  }
}

/// The target-independent half of one element's extrapolation: choose the
/// fit series, fit every canonical candidate, and score them for selection.
/// Pure and thread-safe, so it fans out across the pool.
ElementModels compute_element_models(const Alignment& alignment,
                                     const AlignedElement& element,
                                     const InfluenceIndex& influence,
                                     const ExtrapolationOptions& options) {
  ElementModels em;
  choose_fit_series(alignment, element, options, em.fit_axis, em.fit_values);
  em.candidates = stats::fit_all(em.fit_axis, em.fit_values, options.fit);
  em.scores = stats::selection_scores(em.candidates, em.fit_axis, em.fit_values,
                                      options.fit);
  em.influential = influence.lookup(element.key);
  return em;
}

/// The target-dependent half: select among the precomputed candidates,
/// evaluate at `target`, degrade to the constant fallback if needed, clamp,
/// and (for influential elements) bootstrap.  Touches no shared mutable
/// state.
ElementOutcome evaluate_element(const Alignment& alignment, const AlignedElement& element,
                                const ElementModels& em, double target,
                                const ExtrapolationOptions& options) {
  const ElementDomain domain = domain_of(element.key);

  ElementOutcome outcome;
  stats::FittedModel model = select_from_models(em, target, domain, options);
  double raw = model.evaluate(target);
  if (!model.ok || !std::isfinite(raw)) {
    // Graceful degradation: no canonical form produced a usable
    // extrapolation (degenerate series, overflowed evaluation).  Rather
    // than poisoning the synthetic trace with a non-finite value, fall
    // back to the constant form through the mean of the finite samples
    // and record the substitution.
    model = constant_fallback(em.fit_values);
    raw = model.evaluate(target);
    outcome.fallback = true;
  }
  const double clamped = clamp_value(domain, raw, options.round_counts);

  ElementFit& fit = outcome.fit;
  fit.key = element.key;
  fit.model = model;
  fit.inputs = element.values;
  fit.extrapolated = raw;
  fit.clamped = clamped;
  fit.max_fit_rel_error = max_fit_relative_error(model, em.fit_axis, em.fit_values);
  fit.influential = em.influential;
  if (fit.influential && options.bootstrap_resamples > 0) {
    fit.has_interval = true;
    fit.interval = stats::bootstrap_interval(
        alignment.axis, element.values, target, options.fit,
        options.bootstrap_resamples, 0.9,
        /*seed=*/element.key.block_id * 131 + element.key.element);
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
    bayes_options.seed = util::derive_seed(
        element.key.block_id * 131 + element.key.element,
        static_cast<std::uint64_t>(element.key.instr_index + 2));
    fit.has_bayes = true;
    fit.bayes = stats::bayes::predict(
        stats::bayes::posterior_from(em.candidates, em.fit_axis, em.fit_values,
                                     bayes_options),
        target, bayes_options);
  }
  return outcome;
}

/// Resolves which pool a parallel stage should run on.  nullptr means run
/// serially; `local_pool` owns a private pool when options.threads > 1.
util::ThreadPool* resolve_pool(const ExtrapolationOptions& options,
                               std::optional<util::ThreadPool>& local_pool) {
  if (options.pool != nullptr) return options.pool;
  if (options.threads == 0) {
    // Default (no explicit pool or thread count): one lazily created
    // process-wide pool, sized by PMACX_THREADS / the hardware at first
    // use, shared by every call — library callers looping over
    // extrapolate_task must not pay thread spawn/join per call.
    static util::ThreadPool shared_pool;
    return &shared_pool;
  }
  if (options.threads > 1) {
    // Explicit width: a private pool of exactly that size for this call.
    local_pool.emplace(options.threads);
    return &*local_pool;
  }
  return nullptr;
}

/// Runs `compute(i)` for i in [0, count), fanned out per the options' pool
/// policy, results in index order.
template <typename T, typename F>
std::vector<T> run_stage(std::size_t count, F&& compute,
                         const ExtrapolationOptions& options,
                         std::size_t grain = 16) {
  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool* pool = resolve_pool(options, local_pool);
  if (pool != nullptr && !pool->serial())
    return pool->parallel_map<T>(count, compute, grain);
  std::vector<T> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(compute(i));
  return out;
}

/// Elements whose fit series is the full shared axis are batchable; only
/// FitPresent runs with a genuinely restricted (per-element) axis fall off
/// the SoA fast path.  Mirrors compute_element_models' axis choice exactly:
/// a restriction with < 2 present samples falls back to the full series,
/// and a fully-present element's restriction *is* the full series.
bool fits_full_axis(const AlignedElement& element, const ExtrapolationOptions& options) {
  if (options.missing != MissingPolicy::FitPresent) return true;
  std::size_t present = 0;
  for (bool filled : element.filled)
    if (!filled) ++present;
  return present < 2 || present == element.filled.size();
}

/// Batch size of the SoA fit path: large enough to amortize transposition
/// and fill AVX2 lanes, small enough that chunks still spread across the
/// pool on small alignments.
constexpr std::size_t kFitBatch = 1024;

/// Fits models for elements [lo, hi): full-axis elements go through the
/// shared BatchFitter over a sample-major arena buffer, the rest through
/// the scalar per-element path.  Output order is element order either way,
/// and every model/score is bit-identical to compute_element_models'.
std::vector<ElementModels> compute_models_chunk(const Alignment& alignment,
                                                const InfluenceIndex& influence,
                                                const ExtrapolationOptions& options,
                                                const stats::BatchFitter& fitter,
                                                std::size_t lo, std::size_t hi) {
  const std::size_t n = alignment.axis.size();
  const std::size_t forms = fitter.form_count();
  std::vector<ElementModels> out(hi - lo);
  std::vector<std::size_t> batched;
  batched.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    const AlignedElement& element = alignment.elements[i];
    if (fits_full_axis(element, options)) {
      batched.push_back(i);
    } else {
      out[i - lo] = compute_element_models(alignment, element, influence, options);
    }
  }
  if (batched.empty()) return out;

  util::Arena arena;
  const std::size_t count = batched.size();
  double* y = arena.allocate<double>(n * count);
  for (std::size_t b = 0; b < count; ++b) {
    const AlignedElement& element = alignment.elements[batched[b]];
    for (std::size_t s = 0; s < n; ++s) y[s * count + b] = element.values[s];
  }
  stats::FittedModel* candidates = arena.allocate<stats::FittedModel>(forms * count);
  double* scores = arena.allocate<double>(forms * count);
  fitter.fit(y, count, count, candidates, scores, arena);

  for (std::size_t b = 0; b < count; ++b) {
    const AlignedElement& element = alignment.elements[batched[b]];
    ElementModels& em = out[batched[b] - lo];
    em.fit_axis.assign(alignment.axis.begin(), alignment.axis.end());
    em.fit_values.assign(element.values.begin(), element.values.end());
    em.candidates.assign(candidates + b * forms, candidates + (b + 1) * forms);
    em.scores.assign(scores + b * forms, scores + (b + 1) * forms);
    em.influential = influence.lookup(element.key);
  }
  return out;
}

/// The fit stage shared by every fitting entry point (model-set,
/// checkpointed and incremental fitting): batches of kFitBatch elements
/// fan out across the pool, each batch running the SoA fitter.
std::vector<ElementModels> compute_models_stage(const Alignment& alignment,
                                                const InfluenceIndex& influence,
                                                const ExtrapolationOptions& options,
                                                std::size_t begin, std::size_t count) {
  if (count == 0) return {};
  const stats::BatchFitter fitter(alignment.axis, options.fit);
  const std::size_t chunks = (count + kFitBatch - 1) / kFitBatch;
  std::vector<std::vector<ElementModels>> parts =
      run_stage<std::vector<ElementModels>>(
          chunks,
          [&](std::size_t c) {
            const std::size_t lo = begin + c * kFitBatch;
            const std::size_t hi = std::min(lo + kFitBatch, begin + count);
            return compute_models_chunk(alignment, influence, options, fitter, lo, hi);
          },
          options, /*grain=*/1);
  std::vector<ElementModels> out;
  out.reserve(count);
  for (std::vector<ElementModels>& part : parts)
    for (ElementModels& em : part) out.push_back(std::move(em));
  return out;
}

/// Applies outcomes in element order: skeleton synthesis, trace writes,
/// degradation tallies, report rows.  Serial by construction, so the merge
/// (and every counter tallied here) is deterministic regardless of how the
/// evaluate stage was scheduled.
ExtrapolationResult apply_outcomes(const TaskModelSet& set,
                                   std::vector<ElementOutcome>&& outcomes, double target,
                                   std::uint32_t out_core_count,
                                   const ExtrapolationOptions& options) {
  const Alignment& alignment = set.alignment;
  ExtrapolationResult result;
  result.report.axis = alignment.axis;
  result.report.target = target;
  result.report.axis_name = set.axis_name;

  // Output skeleton.
  trace::TaskTrace& out = result.trace;
  out.app = set.app;
  out.rank = set.rank;
  out.core_count = out_core_count;
  out.target_system = set.target_system;
  out.extrapolated = true;
  out.blocks = alignment.skeleton;
  out.sort_blocks();

  // Index the output blocks for element writes.
  std::unordered_map<std::uint64_t, trace::BasicBlockRecord*> block_index;
  for (auto& block : out.blocks) block_index[block.id] = &block;

  const std::size_t count = alignment.elements.size();
  util::metrics::StageTimer apply_timer("extrapolate.apply");
  util::metrics::Registry& metrics = util::metrics::Registry::global();
  util::metrics::Counter& fits_total = metrics.counter("fits.total");
  util::metrics::Counter& fits_fallback = metrics.counter("fits.constant_fallback");
  util::metrics::Counter& fits_clamped = metrics.counter("fits.clamped_values");
  std::array<util::metrics::Counter*, 7> fits_won{};
  for (stats::Form form : stats::all_forms())
    fits_won[static_cast<std::size_t>(form)] =
        &metrics.counter("fits.won." + stats::form_name(form));
  result.report.elements.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const AlignedElement& element = alignment.elements[i];
    ElementOutcome& outcome = outcomes[i];
    fits_total.add();
    fits_won[static_cast<std::size_t>(outcome.fit.model.form)]->add();
    if (outcome.fallback) {
      fits_fallback.add();
      ++result.diagnostics.fallback_fits;
      result.diagnostics.warn(element.key.describe() +
                              ": no finite canonical fit; using constant fallback");
    }
    if (outcome.fit.clamped != outcome.fit.extrapolated) {
      fits_clamped.add();
      ++result.diagnostics.clamped_values;
    }

    trace::BasicBlockRecord* block = block_index.at(element.key.block_id);
    if (element.key.is_block_level()) {
      block->features[element.key.element] = outcome.fit.clamped;
    } else {
      bool written = false;
      for (auto& instr : block->instructions) {
        if (static_cast<std::int32_t>(instr.index) == element.key.instr_index) {
          instr.features[element.key.element] = outcome.fit.clamped;
          written = true;
          break;
        }
      }
      PMACX_ASSERT(written, "aligned instruction missing from skeleton");
    }
    result.report.elements.push_back(std::move(outcome.fit));
  }

  for (auto& block : out.blocks) monotonize_hit_rates(block);

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
      std::unordered_map<std::uint64_t, trace::BasicBlockRecord*> index;
      for (auto& block : into.blocks) index[block.id] = &block;
      for (std::size_t i = 0; i < count; ++i) {
        const ElementFit& fit = result.report.elements[i];
        if (!fit.has_bayes) continue;
        const ElementDomain domain = domain_of(fit.key);
        const double value =
            clamp_value(domain, fit.bayes.*quantile, options.round_counts);
        trace::BasicBlockRecord* block = index.at(fit.key.block_id);
        if (fit.key.is_block_level()) {
          block->features[fit.key.element] = value;
        } else {
          for (auto& instr : block->instructions) {
            if (static_cast<std::int32_t>(instr.index) == fit.key.instr_index) {
              instr.features[fit.key.element] = value;
              break;
            }
          }
        }
      }
      for (auto& block : into.blocks) monotonize_hit_rates(block);
    };
    write_quantile(result.trace_lo, &stats::bayes::Prediction::lo);
    write_quantile(result.trace_median, &stats::bayes::Prediction::median);
    write_quantile(result.trace_hi, &stats::bayes::Prediction::hi);
  }
  return result;
}

/// Fits every element of `alignment` (of `inputs`, along `axis_name`):
/// the fit half of every extrapolation path.
TaskModelSet fit_models(std::span<const trace::TaskTrace> inputs, Alignment alignment,
                        const char* axis_name, const ExtrapolationOptions& options) {
  TaskModelSet set;
  const InfluenceIndex influence =
      start_model_set(set, inputs, std::move(alignment), axis_name, options);
  util::metrics::StageTimer fit_timer("extrapolate.fit");
  set.models = compute_models_stage(set.alignment, influence, options, 0,
                                    set.alignment.elements.size());
  return set;
}

/// The evaluate half of every extrapolation path: select, evaluate and clamp
/// each element at `target` on the options' pool policy, then apply the
/// outcomes in element order — so every path, thread count and pool emits
/// the same bytes, report and diagnostics.  Everything in `set` is only
/// read, so one cached set can be evaluated from many threads at once.
ExtrapolationResult evaluate_models(const TaskModelSet& set, double target,
                                    std::uint32_t out_core_count,
                                    const ExtrapolationOptions& options) {
  PMACX_CHECK(set.models.size() == set.alignment.elements.size(),
              "model set inconsistent with its alignment");
  std::vector<ElementOutcome> outcomes;
  {
    util::metrics::StageTimer select_timer("extrapolate.select");
    outcomes = run_stage<ElementOutcome>(
        set.models.size(),
        [&](std::size_t i) {
          return evaluate_element(set.alignment, set.alignment.elements[i], set.models[i],
                                  target, options);
        },
        options);
  }
  return apply_outcomes(set, std::move(outcomes), target, out_core_count, options);
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
  for (const AlignedElement& element : alignment.elements) {
    total += sizeof(element);
    total += element.values.capacity() * sizeof(double);
    total += element.filled.capacity() / 8;  // vector<bool> is bit-packed
  }
  for (const trace::BasicBlockRecord& block : alignment.skeleton) {
    total += sizeof(block);
    total += block.location.file.capacity() + block.location.function.capacity();
    total += block.instructions.capacity() * sizeof(trace::InstructionRecord);
  }
  for (const ElementModels& em : models) {
    total += sizeof(em);
    total += em.fit_axis.capacity() * sizeof(double);
    total += em.fit_values.capacity() * sizeof(double);
    total += em.candidates.capacity() * sizeof(stats::FittedModel);
    total += em.scores.capacity() * sizeof(double);
  }
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
  TaskModelSet set;
  const InfluenceIndex influence =
      start_model_set(set, inputs, align_cores(inputs, options), "cores", options);
  const std::size_t count = set.alignment.elements.size();

  ModelCheckpoint checkpoint(config);
  checkpoint.open(count);

  CheckpointStats stats;
  stats.elements_total = count;

  // Chunks are processed in order — parallel fitting *within* a chunk, one
  // atomic write per completed chunk — so a crash at any instant loses at
  // most the chunk in flight and the on-disk state is always a valid prefix
  // of the work (plus whatever earlier chunks a prior run completed).
  set.models.resize(count);
  util::metrics::StageTimer fit_timer("extrapolate.fit");
  std::size_t chunks_written = 0;
  for (std::size_t c = 0; c < checkpoint.chunk_count(); ++c) {
    const std::size_t begin = checkpoint.chunk_begin(c);
    const std::size_t end = checkpoint.chunk_end(c);
    if (std::optional<std::vector<ElementModels>> cached = checkpoint.load_chunk(c)) {
      for (std::size_t i = 0; i < cached->size(); ++i)
        set.models[begin + i] = std::move((*cached)[i]);
      stats.elements_reused += end - begin;
      continue;
    }
    std::vector<ElementModels> chunk =
        compute_models_stage(set.alignment, influence, options, begin, end - begin);
    checkpoint.save_chunk(c, chunk);
    for (std::size_t i = 0; i < chunk.size(); ++i) set.models[begin + i] = std::move(chunk[i]);
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
      previous->models.size() == previous->alignment.elements.size() &&
      fit_options_compatible(previous->options, options);
  if (!compatible) {
    stats.cold = true;
    TaskModelSet set = fit_task_models(inputs, options);
    stats.elements_total = set.models.size();
    stats.elements_refit = set.models.size();
    record_incremental_metrics(stats);
    if (stats_out != nullptr) *stats_out = stats;
    return set;
  }

  TaskModelSet set;
  const InfluenceIndex influence =
      start_model_set(set, inputs, align_cores(inputs, options), "cores", options);
  const std::size_t count = set.alignment.elements.size();
  stats.elements_total = count;
  set.models.resize(count);

  util::metrics::StageTimer fit_timer("extrapolate.fit");

  // Merge-join the new elements against the previous set (both sorted by
  // ElementKey).  An element whose chosen fit series is bitwise unchanged
  // reuses the previous models wholesale — only `influential` is
  // recomputed, because the influence reference (the largest input trace)
  // has changed.  Everything else refits through the shared stage.
  std::vector<std::size_t> refit;
  std::vector<double> axis, values;
  std::size_t j = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const AlignedElement& element = set.alignment.elements[i];
    choose_fit_series(set.alignment, element, options, axis, values);
    while (j < previous->alignment.elements.size() &&
           previous->alignment.elements[j].key < element.key)
      ++j;
    const ElementModels* prev =
        (j < previous->alignment.elements.size() &&
         previous->alignment.elements[j].key == element.key)
            ? &previous->models[j]
            : nullptr;
    if (prev != nullptr && same_series(prev->fit_axis, axis) &&
        same_series(prev->fit_values, values)) {
      set.models[i] = *prev;
      set.models[i].influential = influence.lookup(element.key);
      ++stats.elements_reused;
      continue;
    }
    refit.push_back(i);
  }

  if (!refit.empty()) {
    Alignment scratch;
    scratch.axis = set.alignment.axis;
    scratch.elements.reserve(refit.size());
    for (std::size_t index : refit) scratch.elements.push_back(set.alignment.elements[index]);
    std::vector<ElementModels> fitted =
        compute_models_stage(scratch, influence, options, 0, scratch.elements.size());
    for (std::size_t k = 0; k < refit.size(); ++k)
      set.models[refit[k]] = std::move(fitted[k]);
  }
  stats.elements_refit = refit.size();

  record_incremental_metrics(stats);
  if (stats_out != nullptr) *stats_out = stats;
  return set;
}

}  // namespace pmacx::core
