#include "service/model_store.hpp"

#include <fstream>
#include <sstream>

#include "core/checkpoint.hpp"
#include "machine/targets.hpp"
#include "service/protocol.hpp"
#include "synth/registry.hpp"
#include "trace/binary_io.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/threadpool.hpp"

namespace pmacx::service {

namespace detail {

void CacheMetrics::hit() { util::metrics::Registry::global().counter("service.cache.hits").add(); }

void CacheMetrics::miss() {
  util::metrics::Registry::global().counter("service.cache.misses").add();
}

void CacheMetrics::eviction() {
  util::metrics::Registry::global().counter("service.cache.evictions").add();
}

void CacheMetrics::invalidation() {
  util::metrics::Registry::global().counter("service.cache.invalidations").add();
}

void CacheMetrics::set_bytes_delta(std::ptrdiff_t delta) {
  // The gauge mirrors the sum of all caches' accounted bytes.  Gauges have
  // no atomic add, and this is only ever called under a cache's mutex, so a
  // read-modify-write race across *different* caches is possible but
  // benign for an advisory gauge.
  util::metrics::Gauge& gauge = util::metrics::Registry::global().gauge("service.cache.bytes");
  gauge.set(gauge.value() + static_cast<double>(delta));
}

}  // namespace detail

namespace {

std::size_t trace_cost(const LoadedTrace& loaded) { return loaded.memory_bytes(); }
std::size_t models_cost(const core::TaskModelSet& set) { return set.memory_bytes(); }
std::size_t profile_cost(const machine::MachineProfile& profile) {
  return sizeof(profile) +
         profile.surface.samples().capacity() * sizeof(machine::BandwidthSample);
}
std::size_t signature_cost(const trace::AppSignature& signature) {
  return signature.memory_bytes();
}
std::size_t body_cost(const std::string& body) { return sizeof(body) + body.size(); }

}  // namespace

ModelStore::ModelStore(std::size_t max_bytes)
    : traces_(max_bytes, trace_cost),
      models_(max_bytes, models_cost),
      profiles_(max_bytes, profile_cost),
      signatures_(max_bytes, signature_cost),
      intervals_(max_bytes, body_cost) {}

std::shared_ptr<const LoadedTrace> ModelStore::load_trace(const std::string& path) {
  return traces_.get_or_load("trace:" + path, [&path]() {
    std::ifstream in(path, std::ios::binary);
    PMACX_CHECK(in.good(), "cannot open trace '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();

    auto loaded = std::make_shared<LoadedTrace>();
    loaded->content_crc = util::crc32(bytes);
    loaded->file_bytes = bytes.size();
    loaded->trace = trace::TaskTrace::load(path);
    loaded->trace.validate();
    return std::shared_ptr<const LoadedTrace>(std::move(loaded));
  });
}

std::string ModelStore::digest(const std::vector<std::string>& trace_paths,
                               const core::ExtrapolationOptions& options) {
  PMACX_CHECK(!trace_paths.empty(), "digest of an empty trace list");
  std::vector<std::uint32_t> crcs;
  crcs.reserve(trace_paths.size());
  for (const std::string& path : trace_paths) crcs.push_back(load_trace(path)->content_crc);
  // The digest lives in core (shared with checkpointing) so a CLI checkpoint
  // and a server cache entry address identical content.
  return core::models_digest(crcs, options);
}

ModelStore::ModelsResult ModelStore::models_for(const std::vector<std::string>& trace_paths,
                                                const core::ExtrapolationOptions& options) {
  ModelsResult result;
  result.digest = digest(trace_paths, options);
  result.models = models_.get_or_load("models:" + result.digest, [&]() {
    std::vector<trace::TaskTrace> inputs;
    inputs.reserve(trace_paths.size());
    for (const std::string& path : trace_paths) inputs.push_back(load_trace(path)->trace);
    return std::make_shared<const core::TaskModelSet>(core::fit_task_models(inputs, options));
  });
  return result;
}

void ModelStore::insert_models(const std::string& digest,
                               std::shared_ptr<const core::TaskModelSet> models) {
  PMACX_CHECK(models != nullptr, "insert_models with a null model set");
  // Atomic swap: in-flight requests holding the old shared_ptr keep serving
  // from it; the next models_for() under this digest resolves to the new
  // set.  Content addressing makes replacement safe for the derived caches
  // (sig:/interval: entries keyed by this digest describe identical bytes).
  models_.insert("models:" + digest, std::move(models));
}

std::shared_ptr<const machine::MachineProfile> ModelStore::profile_for(
    const std::string& target_name) {
  return profiles_.get_or_load("profile:" + target_name, [&target_name]() {
    const machine::TargetSystem target = machine::target_by_name(target_name);
    return std::make_shared<const machine::MachineProfile>(machine::build_profile(target));
  });
}

std::shared_ptr<const trace::AppSignature> ModelStore::signature_for(
    const ModelsResult& models, std::uint32_t target_cores, const std::string& app,
    double work_scale) {
  PMACX_CHECK(models.models != nullptr, "signature_for on an empty models result");
  const std::string key = "sig:" + models.digest + ":" + std::to_string(target_cores) + ":" +
                          app + ":" + util::format("%.17g", work_scale);
  return signatures_.get_or_load(key, [&]() {
    core::ExtrapolationResult extrapolated =
        core::extrapolate_from_models(*models.models, target_cores);
    const auto model = synth::make_app(app, work_scale);
    PMACX_CHECK(extrapolated.trace.app == model->name(),
                "traces were collected from '" + extrapolated.trace.app +
                    "' but the request names app '" + model->name() + "'");
    // The ranks' comm traces fan out on the process-wide pool, in rank order.
    return std::make_shared<const trace::AppSignature>(trace::AppSignature::for_task(
        std::move(extrapolated.trace),
        synth::comm_traces(*model, target_cores, &util::shared_pool())));
  });
}

std::shared_ptr<const std::string> ModelStore::interval_for(const ModelsResult& models,
                                                            std::uint32_t target_cores,
                                                            double interval_coverage) {
  PMACX_CHECK(models.models != nullptr, "interval_for on an empty models result");
  PMACX_CHECK(interval_coverage > 0.0 && interval_coverage < 1.0,
              "interval coverage must be in (0, 1)");
  // %.17g keys: 0.9 and 0.9000001 must not collide the way a fixed 6-decimal
  // rendering would make them.
  const std::string key = "interval:" + models.digest + ":" +
                          std::to_string(target_cores) + ":" +
                          util::format("%.17g", interval_coverage);
  return intervals_.get_or_load(key, [&]() {
    core::ExtrapolationResult result =
        core::extrapolate_from_models(*models.models, target_cores, interval_coverage);
    PMACX_ASSERT(result.has_interval, "interval extrapolation produced no interval");
    IntervalResult encoded;
    encoded.lo = trace::to_binary(result.trace_lo);
    encoded.median = trace::to_binary(result.trace_median);
    encoded.hi = trace::to_binary(result.trace_hi);
    encoded.report_csv = result.report.to_csv();
    return std::make_shared<const std::string>(encode_interval_result(encoded));
  });
}

StoreStats ModelStore::stats() const {
  StoreStats stats;
  util::metrics::Registry& registry = util::metrics::Registry::global();
  stats.hits = registry.counter("service.cache.hits").value();
  stats.misses = registry.counter("service.cache.misses").value();
  stats.evictions = registry.counter("service.cache.evictions").value();
  stats.invalidations = registry.counter("service.cache.invalidations").value();
  stats.bytes = traces_.bytes() + models_.bytes() + profiles_.bytes() +
                signatures_.bytes() + intervals_.bytes();
  stats.entries = traces_.entries() + models_.entries() + profiles_.entries() +
                  signatures_.entries() + intervals_.entries();
  return stats;
}

}  // namespace pmacx::service
