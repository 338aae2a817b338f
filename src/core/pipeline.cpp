#include "core/pipeline.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "core/comm_extrap.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/threadpool.hpp"

namespace pmacx::core {

double PipelineResult::extrapolated_error() const {
  PMACX_CHECK(measured.has_value(), "pipeline did not measure the target run");
  return stats::absolute_relative_error(prediction_from_extrapolated.runtime_seconds,
                                        measured->runtime_seconds);
}

double PipelineResult::collected_error() const {
  PMACX_CHECK(measured.has_value(), "pipeline did not measure the target run");
  PMACX_CHECK(prediction_from_collected.has_value(),
              "pipeline did not collect at the target count");
  return stats::absolute_relative_error(prediction_from_collected->runtime_seconds,
                                        measured->runtime_seconds);
}

namespace {

/// The target-count collection and the prediction made from it (stage 4).
struct Collected {
  trace::AppSignature signature;
  psins::PredictionResult prediction;
};

/// Waits for a task that may still be running and drops its error: this
/// runs only while an earlier stage's error is leaving the frame.
template <typename T>
void join_quietly(util::TaskFuture<T>& future) noexcept {
  if (!future.valid()) return;
  try {
    std::exchange(future, {}).get();
  } catch (...) {
  }
}

}  // namespace

PipelineResult run_pipeline(const synth::SyntheticApp& app,
                            const machine::MachineProfile& machine,
                            const PipelineConfig& config) {
  PMACX_CHECK(config.small_core_counts.size() >= 2,
              "pipeline needs at least two small core counts");
  PMACX_CHECK(std::is_sorted(config.small_core_counts.begin(), config.small_core_counts.end()),
              "small core counts must be ascending");
  PMACX_CHECK(config.target_core_count > config.small_core_counts.back(),
              "target core count must exceed the largest small count");
  PMACX_CHECK(config.tracer.target.name == machine.system.hierarchy.name,
              "tracer must simulate the prediction target's hierarchy");

  PipelineResult result;

  // Resolve the run's pool once and share it across collection, fitting,
  // and comm synthesis.  An externally supplied extrapolation pool wins.  A
  // 1-thread pool runs each submitted task inline, so a serial run takes
  // the same path.
  util::ThreadPool* pool = config.extrapolation.pool;
  std::optional<util::ThreadPool> pool_storage;
  if (pool == nullptr)
    pool = &pool_storage.emplace(util::ThreadPool::resolve_threads(config.threads));

  auto collect = [&](std::uint32_t cores) {
    synth::TracerOptions tracer = config.tracer;
    tracer.pool = pool;  // nested fan-out: waiting tasks help, so this is safe
    return synth::collect_signature(app, cores, tracer);
  };

  // Stages 1, 4 and 5 are independent simulations: the pool runs the
  // small-count collections (1) and the target-count collection with its
  // prediction (4) while this thread measures (5).  Stages 2 and 3 need
  // only stage 1.  A TaskFuture does not wait when destroyed, so
  // `in_flight` joins what is still running on every exit path, before
  // anything the tasks borrow from this frame goes away.
  std::optional<util::metrics::StageTimer> collect_timer(std::in_place, "pipeline.collect");
  struct InFlight {
    util::TaskFuture<std::vector<trace::AppSignature>> small;
    util::TaskFuture<Collected> target;
    InFlight() = default;
    InFlight(const InFlight&) = delete;
    InFlight& operator=(const InFlight&) = delete;
    ~InFlight() {
      join_quietly(small);
      join_quietly(target);
    }
  } in_flight;

  // 1. Collect at the small counts.  Each count's collection is an
  // independent simulation, so they overlap across the pool; parallel_map
  // keeps the signatures in ascending-count order.  The stage's timer runs
  // from here until the last collection ends.
  in_flight.small = pool->submit([&] {
    std::vector<trace::AppSignature> signatures = pool->parallel_map<trace::AppSignature>(
        config.small_core_counts.size(), [&](std::size_t i) {
          const std::uint32_t cores = config.small_core_counts[i];
          PMACX_LOG_INFO << app.name() << ": collecting signature at " << cores << " cores";
          return collect(cores);
        });
    collect_timer.reset();
    return signatures;
  });

  // 4. Optionally collect at the target count and predict from that.
  if (config.collect_at_target) {
    in_flight.target = pool->submit([&] {
      util::metrics::StageTimer timer("pipeline.collect_target");
      PMACX_LOG_INFO << app.name() << ": collecting signature at target count "
                     << config.target_core_count;
      Collected collected{collect(config.target_core_count), {}};
      collected.prediction = psins::predict(collected.signature, machine);
      return collected;
    });
  }

  // 5. Optionally measure the "real" runtime.  A serial run measures last,
  // so an error here surfaces only if every earlier stage succeeds.
  std::exception_ptr measure_error;
  if (config.measure_at_target) {
    try {
      util::metrics::StageTimer timer("pipeline.measure");
      PMACX_LOG_INFO << app.name() << ": measuring reference run at "
                     << config.target_core_count;
      result.measured =
          psins::measure_run(app, config.target_core_count, machine, config.reference);
    } catch (...) {
      measure_error = std::current_exception();
    }
  }

  result.small_signatures = std::exchange(in_flight.small, {}).get();
  std::vector<trace::TaskTrace> series;
  for (const trace::AppSignature& signature : result.small_signatures)
    series.push_back(signature.demanding_task());

  // 2. Extrapolate the demanding task to the target count.
  PMACX_LOG_INFO << app.name() << ": extrapolating to " << config.target_core_count
                 << " cores";
  ExtrapolationOptions extrapolation = config.extrapolation;
  extrapolation.pool = pool;
  ExtrapolationResult extrapolated = [&] {
    util::metrics::StageTimer timer("pipeline.extrapolate");
    return extrapolate_task(series, config.target_core_count, extrapolation);
  }();
  result.report = std::move(extrapolated.report);
  result.diagnostics.merge(extrapolated.diagnostics);
  if (!result.diagnostics.clean())
    PMACX_LOG_WARN << app.name() << ": extrapolation degraded — "
                   << result.diagnostics.fallback_fits << " fallback fits, "
                   << result.diagnostics.clamped_values << " clamped values";

  // 3. Assemble the synthetic signature and predict.  The extrapolated
  // trace carries the demanding rank of the collections it was fitted on.
  {
    util::metrics::StageTimer timer("pipeline.assemble_predict");
    std::vector<trace::CommTrace> comm;
    if (config.extrapolate_comm) {
      PMACX_LOG_INFO << app.name() << ": extrapolating communication traces";
      comm = extrapolate_comm(result.small_signatures, config.target_core_count).comm;
    } else {
      comm = synth::comm_traces(app, config.target_core_count, pool);
    }
    result.extrapolated_signature =
        trace::AppSignature::for_task(std::move(extrapolated.trace), std::move(comm));
    result.prediction_from_extrapolated =
        psins::predict(result.extrapolated_signature, machine);
  }

  if (config.collect_at_target) {
    Collected collected = std::exchange(in_flight.target, {}).get();
    result.collected_signature = std::move(collected.signature);
    result.prediction_from_collected = std::move(collected.prediction);
  }
  if (measure_error) std::rethrow_exception(measure_error);

  // The DiagnosticsReport above is the per-run ledger; these counters make
  // the same events visible across runs in metrics snapshots.
  util::metrics::Registry& metrics = util::metrics::Registry::global();
  metrics.counter("pipeline.runs").add();
  if (!result.diagnostics.clean()) metrics.counter("pipeline.degraded_runs").add();
  metrics.counter("pipeline.salvaged_files").add(result.diagnostics.salvaged_files);
  metrics.counter("pipeline.lost_blocks").add(result.diagnostics.lost_blocks);

  return result;
}

}  // namespace pmacx::core
