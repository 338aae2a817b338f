#include "ingest/refit.hpp"

#include <chrono>
#include <vector>

#include "core/checkpoint.hpp"
#include "trace/stream_reader.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace pmacx::ingest {
namespace {

using Clock = std::chrono::steady_clock;

util::metrics::Registry& registry() { return util::metrics::Registry::global(); }

}  // namespace

RefitScheduler::RefitScheduler(Options options, const CollectionRegistry* registry,
                               util::ThreadPool* pool, Publish publish)
    : options_(std::move(options)),
      registry_(registry),
      pool_(pool),
      publish_(std::move(publish)) {
  PMACX_CHECK(registry_ != nullptr && pool_ != nullptr && publish_ != nullptr,
              "RefitScheduler needs a registry, a pool, and a publish hook");
  // Background refits must never borrow a request's pool pointer: the set
  // they produce is cached past any request's lifetime.
  options_.fit.pool = nullptr;
}

void RefitScheduler::schedule(const std::string& collection) {
  {
    std::scoped_lock lock(mutex_);
    State& state = states_[collection];
    if (state.running) {
      // Coalesce: a burst of commits costs one running + one follow-up
      // refit, and the follow-up sees every file the burst committed.
      state.dirty = true;
      return;
    }
    state.running = true;
  }
  registry().counter("ingest.refits.scheduled").add();
  pool_->submit([this, collection] { run(collection); });
}

std::uint64_t RefitScheduler::refits_completed() const {
  return registry().counter("ingest.refits").value();
}

void RefitScheduler::run(const std::string& collection) {
  try {
    const std::vector<std::string> paths = registry_->resolve(collection);
    if (paths.size() < 2) {
      // One trace cannot anchor a scaling fit; the collection becomes
      // fittable at its second committed core count.
      registry().counter("ingest.refits.deferred").add();
    } else {
      std::vector<trace::TaskTrace> inputs;
      inputs.reserve(paths.size());
      for (const std::string& path : paths)
        inputs.push_back(
            trace::stream_load(path, options_.stream_budget, /*force_buffered=*/true));

      const std::string digest = core::models_digest_for_files(paths, options_.fit);
      std::shared_ptr<const core::TaskModelSet> previous;
      {
        std::scoped_lock lock(mutex_);
        previous = states_[collection].previous;
      }

      core::IncrementalFitStats stats;
      auto models = std::make_shared<const core::TaskModelSet>(
          core::fit_task_models_incremental(inputs, options_.fit, previous.get(), &stats));

      // The swap itself: one shared_ptr store under the cache's mutex.
      // In-flight requests keep the set they already resolved; new requests
      // see the fresh digest's models immediately.
      const Clock::time_point swap_started = Clock::now();
      publish_(digest, models);
      const auto swap_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - swap_started);
      registry().histogram("ingest.swap_latency")
          .record(static_cast<std::uint64_t>(swap_ns.count()));

      {
        std::scoped_lock lock(mutex_);
        states_[collection].previous = models;
      }
      registry().counter("ingest.refits").add();
      registry().counter("ingest.refit.elements_reused").add(stats.elements_reused);
      registry().counter("ingest.refit.elements_refit").add(stats.elements_refit);
      if (stats.cold) registry().counter("ingest.refit.cold").add();
      PMACX_LOG_INFO << "ingest: refit " << collection << " -> " << digest << " ("
                     << stats.elements_reused << " reused, " << stats.elements_refit
                     << " refit of " << stats.elements_total << ")";
    }
  } catch (const util::Error& e) {
    // A failing refit never takes the serving path down: the previous set
    // keeps serving, the failure is metered, and the next commit retries.
    registry().counter("ingest.refit_failures").add();
    PMACX_LOG_WARN << "ingest: refit of '" << collection << "' failed: " << e.what();
  }

  bool rerun = false;
  {
    std::scoped_lock lock(mutex_);
    State& state = states_[collection];
    if (state.dirty) {
      state.dirty = false;
      rerun = true;  // keep `running` set: the follow-up task owns it now
    } else {
      state.running = false;
    }
  }
  if (rerun) pool_->submit([this, collection] { run(collection); });
}

}  // namespace pmacx::ingest
