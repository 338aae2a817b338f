// perfbench_driver — the repository benchmark's workload driver.
//
//   perfbench_driver gen --workload <w> --seed <n> --dir <d>
//       writes the workload's seeded input files into <d> (not timed);
//   perfbench_driver run --workload <w> --seed <n> --seconds <s> --trace <0|1>
//                        --dir <d> --serve <pmacx_serve binary>
//       runs the workload on those inputs and prints one JSON line:
//       {"correct", "attempted", "failed", "metrics"} with the end-to-end
//       metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// Workloads: table1, extrapolate_wide, serve_predict, serve_ingest (see
// README.md beside this file for what each measures and why).
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/extrapolator.hpp"
#include "core/pipeline.hpp"
#include "ingest/upload.hpp"
#include "machine/targets.hpp"
#include "psins/convolution.hpp"
#include "psins/predictor.hpp"
#include "service/client.hpp"
#include "service/model_store.hpp"
#include "simmpi/replay.hpp"
#include "synth/registry.hpp"
#include "synth/specfem.hpp"
#include "synth/tracer.hpp"
#include "synth/uh3d.hpp"
#include "trace/binary_io.hpp"
#include "util/crc32.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/threadpool.hpp"

namespace perfbench {
namespace {

using namespace pmacx;
namespace metrics = util::metrics;

// ---------------------------------------------------------------------------
// Fixed benchmark settings.  Rates were set once from the seed's measured
// capacity (README.md); changing any of these redefines the benchmark.

constexpr const char* kMachine = "bluewaters-p1";
constexpr double kLowRate = 20.0;          ///< req/s, open loop
constexpr double kHighRate = 50.0;         ///< req/s, open loop (traced run)
constexpr std::size_t kMinSamples = 200;   ///< per rate point: 10 beyond p95
constexpr double kLatencyLimitMs = 250.0;  ///< p95 limit of the max_rps search
constexpr double kLatenessBoundMs = 50.0;  ///< generator lateness p99 validity bound
constexpr std::size_t kSetups = 3;         ///< set-ups per run; setup_s is their median
constexpr std::size_t kBaseKeys = 32;      ///< PREDICT key population
constexpr double kZipfS = 1.1;
constexpr std::size_t kClosedBatch = 96;   ///< PREDICTs per closed-loop batch
constexpr std::size_t kClosedBatches = 5;
constexpr std::size_t kWideCopies = 1280;  ///< 6 blocks x 1280 = 7680 blocks per wide trace
constexpr std::uint32_t kWideTarget = 6144;
constexpr std::size_t kIngestCopies = 200;
constexpr std::size_t kCollections = 2;
constexpr std::size_t kStagedFiles = 2;    ///< files per collection before timing
constexpr double kUploadEverySeconds = 2.5;
constexpr double kCollectionShare = 0.25;  ///< share of serve_ingest PREDICTs naming @collections
constexpr std::uint64_t kServeRefsCap = 100'000;

std::size_t connections_limit() {
  return std::max<std::size_t>(1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------------
// Metric names.  Every run prints every name of its kind.

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"}, {"wall_s", "s"}, {"p50_ms", "ms"}, {"p95_ms", "ms"},
    {"peak_rss_mib", "MiB"}};

const std::vector<MetricDef> kPerLayer = {
    // Workload-specific user numbers, measured in the traced run.
    {"trace_refs_per_s", "refs/s"},
    {"prediction_error_pct", "%"},
    {"p50_ms.high", "ms"},
    {"p95_ms.high", "ms"},
    {"max_rps", "req/s"},
    {"refit_visible_s", "s"},
    // synth + memsim
    {"synth.collect_s", "s"},
    {"synth.ns_per_ref", "ns"},
    {"memsim.refs", "count"},
    {"memsim.hits.l1", "count"},
    {"memsim.hits.l2", "count"},
    {"memsim.hits.l3", "count"},
    {"memsim.writebacks", "count"},
    // psins / machine
    {"psins.measure_run_s", "s"},
    {"machine.build_profile_s", "s"},
    // trace
    {"trace.load_s", "s"},
    {"trace.bytes_loaded", "bytes"},
    {"trace.write_s", "s"},
    // core + stats
    {"core.fit_task_models_s", "s"},
    {"core.fit.fit_s", "s"},
    {"core.fit.select_s", "s"},
    {"core.fit.apply_s", "s"},
    {"core.extrapolate_from_models_s", "s"},
    {"stats.fits_total", "count"},
    {"stats.simd_batches", "count"},
    {"stats.fallback_ratio", "ratio"},
    // simmpi / psins prediction
    {"simmpi.replay_s", "s"},
    {"simmpi.events_replayed", "count"},
    {"simmpi.ns_per_event", "ns"},
    {"simmpi.timelines_s", "s"},
    {"psins.convolve_s", "s"},
    {"psins.predict_s", "s"},
    // service
    {"service.signature_for_s", "s"},
    {"service.models_for_s", "s"},
    {"service.rtt_ms.p50", "ms"},
    {"service.rtt_ms.mean", "ms"},
    {"service.server_ms.mean", "ms"},
    {"service.unattributed_ms.mean", "ms"},
    {"service.cache.hit_ratio", "ratio"},
    {"service.busy_ratio", "ratio"},
    {"service.cache.invalidations", "count"},
    // ingest + util
    {"ingest.commit_ms", "ms"},
    {"ingest.refit_s", "s"},
    {"ingest.refit.reuse_ratio", "ratio"},
    {"ingest.refits.deferred", "count"},
    {"io.ops", "count"},
    {"io.retries", "count"},
    // benchmark generator validity
    {"loadgen.lateness_ms.p99", "ms"},
    // Layer ledger of the workload's unit (a pass, or one PREDICT).
    {"layer.synth_s", "s"},
    {"layer.memsim_s", "s"},
    {"layer.machine_s", "s"},
    {"layer.trace_s", "s"},
    {"layer.core_s", "s"},
    {"layer.stats_s", "s"},
    {"layer.psins_s", "s"},
    {"layer.simmpi_s", "s"},
    {"layer.service_s", "s"},
    {"layer.ingest_s", "s"},
    {"layer.util_s", "s"},
    {"layer.unattributed_s", "s"},
    {"e2e.untraced_s", "s"},
    {"e2e.traced_s", "s"},
    {"tracing_overhead_s", "s"},
};

const std::vector<std::string> kLayers = {"synth", "memsim", "machine", "trace",
                                          "core",  "stats",  "psins",   "simmpi",
                                          "service", "ingest", "util"};

// ---------------------------------------------------------------------------
// Metrics snapshots: the in-process registry or a pmacx_serve --metrics-json
// file, flattened to counters and timer sums.

struct Snap {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> timers;  ///< name -> (count, sum ns)

  double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
  double counter_prefix(const std::string& prefix) const {
    double total = 0;
    for (const auto& [name, value] : counters)
      if (name.rfind(prefix, 0) == 0) total += value;
    return total;
  }
  /// Sum in seconds of a histogram (exact name, or a StageTimer's
  /// "<stage>.wall_ns").
  double seconds(const std::string& name) const {
    auto it = timers.find(name);
    if (it == timers.end()) it = timers.find(name + ".wall_ns");
    return it == timers.end() ? 0.0 : it->second.second * 1e-9;
  }
};

Snap registry_snap() {
  Snap snap;
  const metrics::Snapshot raw = metrics::Registry::global().snapshot();
  for (const auto& [name, value] : raw.counters) snap.counters[name] = static_cast<double>(value);
  for (const auto& [name, h] : raw.timers)
    snap.timers[name] = {static_cast<double>(h.count), static_cast<double>(h.sum)};
  return snap;
}

/// Reads the counters and timers sections of a pmacx-metrics-v1 document.
Snap file_snap(const std::string& path) {
  Snap snap;
  std::ifstream in(path);
  std::string line, section;
  while (std::getline(in, line)) {
    if (line.find("\"counters\": {") != std::string::npos) section = "counters";
    else if (line.find("\"gauges\": {") != std::string::npos) section = "gauges";
    else if (line.find("\"timers\": {") != std::string::npos) section = "timers";
    const std::size_t open = line.find('"');
    const std::size_t close = open == std::string::npos ? open : line.find('"', open + 1);
    if (close == std::string::npos) continue;
    const std::string name = line.substr(open + 1, close - open - 1);
    const std::string rest = line.substr(close + 1);
    if (section == "counters" && rest.rfind(": ", 0) == 0 && rest.find('{') == std::string::npos) {
      snap.counters[name] = std::atof(rest.c_str() + 2);
    } else if (section == "timers") {
      double count = 0, sum = 0;
      if (std::sscanf(rest.c_str(), ": {\"count\": %lf, \"sum\": %lf", &count, &sum) == 2)
        snap.timers[name] = {count, sum};
    }
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Run state.

struct Options {
  std::string mode, workload, dir, serve;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Run {
  explicit Run(Options o) : opt(std::move(o)), spans(opt.trace) {}
  Options opt;
  SpanRecorder spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  void note_failure(const std::string& what) {
    ++failed;
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  std::string path(const std::string& name) const { return opt.dir + "/" + name; }
};

double ms_to_s(double ms) { return ms * 1e-3; }

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// The Table I experiment layout and configuration (the paper's Section V,
/// as reproduced by bench/table1_prediction_error).
machine::MultiMapsOptions standard_probe() {
  machine::MultiMapsOptions options;
  options.working_sets = {16ull << 10, 64ull << 10, 256ull << 10, 1ull << 20,
                          4ull << 20,  16ull << 20, 48ull << 20};
  options.strides = {1, 2, 4, 8};
  options.min_refs_per_probe = 150'000;
  options.max_refs_per_probe = 1'000'000;
  return options;
}

core::PipelineConfig table1_config(const std::vector<std::uint32_t>& small, std::uint32_t target,
                                   const machine::MachineProfile& machine) {
  core::PipelineConfig config;
  config.small_core_counts = small;
  config.target_core_count = target;
  config.tracer.target = machine.system.hierarchy;
  config.tracer.max_refs_per_kernel = 1'500'000;
  config.collect_at_target = true;
  config.measure_at_target = true;
  config.reference.max_refs_per_kernel = 2'000'000;
  return config;
}

std::unique_ptr<synth::SyntheticApp> table1_app(bool specfem) {
  if (specfem) {
    synth::SpecfemConfig config;
    config.global_elements = 1'000'000;
    config.global_field_bytes = 100'000'000'000;
    config.timesteps = 10;
    config.work_scale = 23'700;
    return std::make_unique<synth::Specfem3dApp>(config);
  }
  synth::Uh3dConfig config;
  config.global_particles = 5'000'000'000;
  config.global_grid_cells = 100'000'000;
  config.timesteps = 10;
  config.work_scale = 183;
  return std::make_unique<synth::Uh3dApp>(config);
}

/// Offline workloads answer once per pass: with fewer than 200 answers a
/// run no percentile above the median has ten samples beyond it, so the
/// tail metric reports the median too.
void offline_e2e(Run& run, const std::vector<double>& setups, const std::vector<double>& passes) {
  run.e2e["setup_s"] = median(setups);
  run.e2e["wall_s"] = median(passes);
  run.e2e["p50_ms"] = median(passes) * 1e3;
  const bool tail = percentile_supported(passes.size(), 0.95);
  run.e2e["p95_ms"] = (tail ? percentile(passes, 0.95) : median(passes)) * 1e3;
  run.e2e["peak_rss_mib"] = peak_rss_mib(::getpid());
}

/// Fills the prediction-path per-layer metrics from a registry snapshot.
void prediction_layers(Run& run, const Snap& snap) {
  run.layer["simmpi.replay_s"] = snap.seconds("simmpi.replay");
  run.layer["simmpi.events_replayed"] = snap.counter("simmpi.events_replayed");
  if (snap.counter("simmpi.events_replayed") > 0)
    run.layer["simmpi.ns_per_event"] =
        snap.seconds("simmpi.replay") * 1e9 / snap.counter("simmpi.events_replayed");
  run.layer["psins.convolve_s"] = snap.seconds("psins.convolve");
  run.layer["psins.predict_s"] = snap.seconds("psins.predict");
}

void fit_layers(Run& run, const Snap& snap) {
  run.layer["core.fit.fit_s"] = snap.seconds("extrapolate.fit");
  run.layer["core.fit.select_s"] = snap.seconds("extrapolate.select");
  run.layer["core.fit.apply_s"] = snap.seconds("extrapolate.apply");
  run.layer["stats.fits_total"] = snap.counter("fits.total");
  run.layer["stats.simd_batches"] = snap.counter("fits.simd_batches");
  if (snap.counter("fits.total") > 0)
    run.layer["stats.fallback_ratio"] =
        snap.counter("fits.constant_fallback") / snap.counter("fits.total");
}

/// Sets the layer ledger: per-layer seconds of one unit, and what is left.
void ledger(Run& run, const std::map<std::string, double>& layers, double unit_s) {
  double attributed = 0;
  for (const std::string& name : kLayers) {
    const auto it = layers.find(name);
    const double value = it == layers.end() ? 0.0 : std::max(0.0, it->second);
    run.layer["layer." + name + "_s"] = value;
    attributed += value;
  }
  run.layer["layer.unattributed_s"] = unit_s - attributed;
}

void overhead(Run& run, double untraced_s, double traced_s) {
  run.layer["e2e.untraced_s"] = untraced_s;
  run.layer["e2e.traced_s"] = traced_s;
  run.layer["tracing_overhead_s"] = traced_s - untraced_s;
}

// ---------------------------------------------------------------------------
// table1: the paper's Table I flow, in process.

void run_table1(Run& run) {
  std::vector<double> setups;
  std::optional<machine::MachineProfile> built;
  for (std::size_t i = 0; i < kSetups; ++i) {
    ScopedSpan span(run.spans, "machine.build_profile");
    const Clock::time_point start = Clock::now();
    built.emplace(machine::build_profile(machine::bluewaters_p1(), standard_probe()));
    setups.push_back(seconds_since(start));
  }
  const machine::MachineProfile& profile = *built;

  struct Experiment {
    bool specfem;
    std::vector<std::uint32_t> small;
    std::uint32_t target;
  };
  const std::vector<Experiment> experiments = {{true, {96, 384, 1536}, 6144},
                                               {false, {1024, 2048, 4096}, 8192}};
  double worst_error = 0;
  auto pass = [&](std::uint64_t parent) {
    const Clock::time_point start = Clock::now();
    for (const Experiment& experiment : experiments) {
      const auto app = table1_app(experiment.specfem);
      ScopedSpan span(run.spans, "core.run_pipeline", parent);
      const core::PipelineResult result = core::run_pipeline(
          *app, profile, table1_config(experiment.small, experiment.target, profile));
      ++run.attempted;
      const double error = result.extrapolated_error();
      worst_error = std::max(worst_error, error);
      if (!(error <= 0.05))
        run.note_failure(app->name() + " extrapolated prediction error " +
                         std::to_string(error * 100) + "% exceeds 5%");
    }
    return seconds_since(start);
  };

  std::vector<double> passes;
  if (!run.opt.trace) {
    const Clock::time_point start = Clock::now();
    do {
      passes.push_back(pass(0));
    } while (seconds_since(start) + median(passes) <= run.opt.seconds);
    offline_e2e(run, setups, passes);
    return;
  }

  // Traced run: one untraced pass for the overhead baseline, then one pass
  // with spans on and the registry zeroed so its counters are this pass's.
  run.spans.set_enabled(false);
  const double untraced = pass(0);
  run.spans.set_enabled(true);
  metrics::Registry::global().reset();
  std::uint64_t root = 0;
  double traced = 0;
  {
    ScopedSpan span(run.spans, "table1.pass");
    root = span.id();
    traced = pass(root);
  }
  const Snap snap = registry_snap();
  const double collect_s =
      snap.seconds("pipeline.collect") + snap.seconds("pipeline.collect_target");
  const double refs = snap.counter("trace.refs_simulated");
  run.layer["trace_refs_per_s"] = collect_s > 0 ? refs / collect_s : 0;
  run.layer["prediction_error_pct"] = worst_error * 100;
  run.layer["synth.collect_s"] = collect_s;
  run.layer["synth.ns_per_ref"] = refs > 0 ? snap.seconds("trace.task") * 1e9 / refs : 0;
  for (const char* name :
       {"memsim.refs", "memsim.hits.l1", "memsim.hits.l2", "memsim.hits.l3", "memsim.writebacks"})
    run.layer[name] = snap.counter(name);
  run.layer["psins.measure_run_s"] = snap.seconds("pipeline.measure");
  run.layer["machine.build_profile_s"] = median(setups);
  run.layer["core.fit_task_models_s"] = snap.seconds("extrapolate.fit");
  run.layer["core.extrapolate_from_models_s"] =
      snap.seconds("extrapolate.select") + snap.seconds("extrapolate.apply");
  fit_layers(run, snap);
  prediction_layers(run, snap);

  // run_pipeline is one call; its stages are split by the program's own
  // stage timers.  Address generation and cache simulation share
  // trace.task (no split yet), so synth carries both.
  const double predict_s = snap.seconds("pipeline.assemble_predict");
  const double replay_s = snap.seconds("simmpi.replay");
  const double fit_s = snap.seconds("extrapolate.fit");
  std::map<std::string, double> layers;
  layers["synth"] = collect_s;
  layers["psins"] = snap.seconds("pipeline.measure") + predict_s - replay_s;
  layers["simmpi"] = replay_s;
  layers["stats"] = fit_s;
  layers["core"] = snap.seconds("pipeline.extrapolate") - fit_s;
  ledger(run, layers, traced);
  overhead(run, untraced, traced);
}

// ---------------------------------------------------------------------------
// extrapolate_wide: load -> fit -> extrapolate -> write on wide traces.

const std::vector<std::uint32_t> kWideCounts = {96, 384, 1536};

std::string wide_path(const Run& run, std::uint32_t cores) {
  return run.path("wide_" + std::to_string(cores) + ".btrace");
}

trace::TaskTrace base_trace(const std::string& app_name, std::uint32_t cores) {
  const auto app = synth::make_app(app_name, 1.0);
  synth::TracerOptions options;
  options.target = machine::target_by_name(kMachine).hierarchy;
  options.max_refs_per_kernel = kServeRefsCap;
  return synth::trace_task(*app, cores, 0, options);
}

void gen_wide(const Run& run) {
  for (std::uint32_t cores : kWideCounts)
    trace::save_binary(widen_trace(base_trace("specfem3d", cores), kWideCopies,
                                   util::derive_seed(run.opt.seed, 1)),
                       wide_path(run, cores));
}

void run_extrapolate_wide(Run& run) {
  struct Pass {
    double wall = 0;
    std::uint32_t crc = 0;
  };
  std::uint64_t bytes_loaded = 0;
  auto pass = [&](std::size_t threads, std::uint64_t parent) {
    const Clock::time_point start = Clock::now();
    Pass out;
    {  // freeing the traces and models is part of the pass, as in a tool run
      std::vector<trace::TaskTrace> inputs;
      {
        ScopedSpan span(run.spans, "trace.load", parent);
        for (std::uint32_t cores : kWideCounts) {
          inputs.push_back(trace::TaskTrace::load(wide_path(run, cores)));
          inputs.back().validate();
          struct stat info {};
          if (::stat(wide_path(run, cores).c_str(), &info) == 0)
            bytes_loaded += static_cast<std::uint64_t>(info.st_size);
        }
      }
      core::ExtrapolationOptions options;
      options.threads = threads;
      core::TaskModelSet models;
      {
        ScopedSpan span(run.spans, "core.fit_task_models", parent);
        models = core::fit_task_models(inputs, options);
      }
      core::ExtrapolationResult result;
      {
        ScopedSpan span(run.spans, "core.extrapolate_from_models", parent);
        result = core::extrapolate_from_models(models, kWideTarget);
      }
      ScopedSpan span(run.spans, "trace.write", parent);
      const std::string bytes = trace::to_binary(result.trace);
      write_file(run.path("wide_out.btrace"), bytes);
      out.crc = util::crc32(bytes);
    }
    out.wall = seconds_since(start);
    return out;
  };

  // Set-up: the single-threaded pass whose output every timed pass must
  // reproduce byte for byte.
  std::vector<double> setups;
  const Pass reference = pass(1, 0);
  setups.push_back(reference.wall);

  auto check = [&](const Pass& p) {
    ++run.attempted;
    if (p.crc != reference.crc)
      run.note_failure(util::format("wide extrapolation CRC %08x differs from the "
                                    "single-threaded pass's %08x", p.crc, reference.crc));
  };

  std::vector<double> passes;
  if (!run.opt.trace) {
    const Clock::time_point start = Clock::now();
    do {
      const Pass p = pass(0, 0);
      check(p);
      passes.push_back(p.wall);
      std::fprintf(stderr, "perfbench: pass %zu: %.3f s\n", passes.size(), p.wall);
    } while (passes.size() < 3 || seconds_since(start) + median(passes) <= run.opt.seconds);
    offline_e2e(run, setups, passes);
    return;
  }

  run.spans.set_enabled(false);
  const Pass untraced = pass(0, 0);
  run.spans.set_enabled(true);
  check(untraced);
  metrics::Registry::global().reset();
  bytes_loaded = 0;
  std::uint64_t root = 0;
  Pass traced;
  {
    ScopedSpan span(run.spans, "extrapolate_wide.pass");
    root = span.id();
    traced = pass(0, root);
  }
  check(traced);
  const Snap snap = registry_snap();
  std::map<std::string, double> by_name;
  for (const Span& span : run.spans.spans())
    if (span.parent == root)
      by_name[span.name] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  run.layer["trace.load_s"] = by_name["trace.load"];
  run.layer["trace.bytes_loaded"] = static_cast<double>(bytes_loaded);
  run.layer["trace.write_s"] = by_name["trace.write"];
  run.layer["core.fit_task_models_s"] = by_name["core.fit_task_models"];
  run.layer["core.extrapolate_from_models_s"] = by_name["core.extrapolate_from_models"];
  fit_layers(run, snap);

  std::map<std::string, double> layers;
  layers["trace"] = by_name["trace.load"] + by_name["trace.write"];
  layers["stats"] = snap.seconds("extrapolate.fit");
  layers["core"] = by_name["core.fit_task_models"] - snap.seconds("extrapolate.fit") +
                   by_name["core.extrapolate_from_models"];
  ledger(run, layers, traced.wall);
  overhead(run, untraced.wall, traced.wall);
}

// ---------------------------------------------------------------------------
// Serving workloads: shared inputs.

struct AppSeries {
  std::string app;
  std::vector<std::uint32_t> counts;
  std::uint32_t target;
  double work_scale;  ///< Table I folding factor; keys scale around it
};

const std::vector<AppSeries> kServeApps = {{"specfem3d", {96, 384, 1536}, 8192, 23'700},
                                           {"uh3d", {1024, 2048, 4096}, 8192, 183}};

std::string base_path(const Run& run, const std::string& app, std::uint32_t cores) {
  return run.path("base_" + app + "_" + std::to_string(cores) + ".btrace");
}

/// The seeded key population: apps alternate by Zipf rank and each app has
/// one target, so every seed puts the same replay cost on the same rank;
/// the seed draws the folding factors.
std::vector<PredictKey> base_keys(const Run& run) {
  SeedRng rng(util::derive_seed(run.opt.seed, 2));
  std::vector<PredictKey> keys;
  for (std::size_t i = 0; i < kBaseKeys; ++i) {
    const AppSeries& series = kServeApps[i % kServeApps.size()];
    PredictKey key;
    key.app = series.app;
    for (std::uint32_t cores : series.counts) key.trace_paths.push_back(base_path(run, series.app, cores));
    key.target_cores = series.target;
    key.work_scale = series.work_scale * (0.5 + rng.uniform());
    keys.push_back(std::move(key));
  }
  return keys;
}

void gen_base(const Run& run) {
  for (const AppSeries& series : kServeApps)
    for (std::uint32_t cores : series.counts)
      trace::save_binary(base_trace(series.app, cores), base_path(run, series.app, cores));
}

/// The live-ingestion plan: per collection, ascending core counts drawn
/// from a fixed grid; the first kStagedFiles are uploaded before timing.
const std::vector<std::uint32_t> kIngestGrid = {64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072};

struct IngestPlan {
  std::vector<std::vector<std::uint32_t>> counts;  ///< per collection, ascending
  std::vector<std::size_t> upload_order;           ///< collection of each timed upload
  std::vector<double> offsets_s;                   ///< due time of each timed upload
};

IngestPlan ingest_plan(std::uint64_t seed, double seconds, std::size_t phases) {
  SeedRng rng(util::derive_seed(seed, 4));
  IngestPlan plan;
  const auto per_phase = static_cast<std::size_t>(std::max(1.0, std::floor(seconds / kUploadEverySeconds - 1e-9)));
  const std::size_t uploads = per_phase * phases;
  for (std::size_t c = 0; c < kCollections; ++c) {
    // Keep the smallest count, drop random others until the series fits.
    std::vector<std::uint32_t> grid = kIngestGrid;
    while (grid.size() > kStagedFiles + (uploads + kCollections - 1) / kCollections &&
           grid.size() > kStagedFiles + 1)
      grid.erase(grid.begin() + 1 + static_cast<std::ptrdiff_t>(rng.below(grid.size() - 1)));
    plan.counts.push_back(grid);
  }
  for (std::size_t phase = 0; phase < phases; ++phase)
    for (std::size_t u = 0; u < per_phase; ++u) {
      plan.upload_order.push_back(plan.upload_order.size() % kCollections);
      plan.offsets_s.push_back(kUploadEverySeconds * (static_cast<double>(u) + 0.5 + 0.2 * rng.uniform()));
    }
  return plan;
}

std::string collection_name(std::size_t c) { return "ing" + std::to_string(c); }

std::string ingest_path(const Run& run, std::size_t c, std::uint32_t cores) {
  return run.path(collection_name(c) + "_" + std::to_string(cores) + ".btrace");
}

void gen_ingest(const Run& run, std::size_t phases) {
  const IngestPlan plan = ingest_plan(run.opt.seed, run.opt.seconds, phases);
  for (std::size_t c = 0; c < kCollections; ++c)
    for (std::uint32_t cores : plan.counts[c])
      trace::save_binary(widen_trace(base_trace("specfem3d", cores), kIngestCopies,
                                     util::derive_seed(run.opt.seed, 10 + c)),
                         ingest_path(run, c, cores));
}

/// Expected PREDICT bodies, computed in process through the same store
/// code the server runs.  Collection keys accept any state the collection
/// passes through during the run.
struct Expected {
  std::vector<std::vector<std::string>> bodies;  ///< per key
  bool accepts(std::size_t key, const std::string& body) const {
    const auto& options = bodies.at(key);
    return std::find(options.begin(), options.end(), body) != options.end();
  }
};

std::string render(service::ModelStore& store, const std::vector<std::string>& paths,
                   const PredictKey& key) {
  const auto models = store.models_for(paths, service::FitSpec{}.to_options());
  const auto signature = store.signature_for(models, key.target_cores, key.app, key.work_scale);
  const auto profile = store.profile_for(kMachine);
  return psins::render_prediction(signature->demanding_task(), profile->system.name,
                                  psins::predict(*signature, *profile));
}

struct Serving {
  std::vector<PredictKey> keys;
  Expected expected;
  std::uint64_t seed = 0;
  std::size_t collection_keys = 0;
  std::size_t blocks = 0;
  /// The next phase's requests: an exact-quota block in seeded order.
  std::vector<std::size_t> take(std::size_t n) {
    return request_sequence(util::derive_seed(seed, 100 + blocks++), n, kBaseKeys, kZipfS,
                            collection_keys, kCollectionShare);
  }
};

/// Spawns pmacx_serve and sends the warm-up PREDICT (which builds the
/// machine profile).  `setup_s` gets spawn-to-warm time.
ServerProcess start_server(Run& run, const Serving& serving, std::size_t index, bool ingest,
                           double* setup_s) {
  std::vector<std::string> args = {"--port", "0", "--metrics-json",
                                   run.path("serve_" + std::to_string(index) + ".json")};
  if (ingest) {
    const std::string dir = run.path("ingest_" + std::to_string(index));
    ::mkdir(dir.c_str(), 0755);
    args.insert(args.end(), {"--ingest-dir", dir});
  }
  ScopedSpan span(run.spans, "service.setup");
  const Clock::time_point start = Clock::now();
  ServerProcess server = spawn_server(run.opt.serve, args);
  service::ClientOptions options;
  options.port = server.port;
  service::Client client(options);
  const service::Response response = client.call(predict_request(serving.keys[0], kMachine));
  if (response.status != service::Status::Ok || !serving.expected.accepts(0, response.body))
    throw std::runtime_error("warm-up PREDICT failed: " + response.body);
  *setup_s = seconds_since(start);
  return server;
}

/// Repeats the set-up kSetups times and keeps the last server running.
ServerProcess setups(Run& run, const Serving& serving, bool ingest, std::vector<double>* out) {
  ServerProcess server;
  for (std::size_t i = 0; i < kSetups; ++i) {
    double setup = 0;
    server = start_server(run, serving, i, ingest, &setup);
    out->push_back(setup);
    if (i + 1 < kSetups && !stop_server(server)) run.note_failure("server did not drain cleanly");
  }
  return server;
}

struct PhaseStats {
  double p50 = 0, p95 = 0, lateness_p99 = 0, rtt_p50 = 0, rtt_mean = 0, latency_mean = 0;
};

PhaseStats account(Run& run, const PhaseResult& phase, const char* what, bool open_loop = true) {
  run.attempted += phase.outcomes.size();
  const std::size_t failures = phase.failed();
  if (failures > 0) {
    run.failed += failures;
    run.correct = false;
    std::fprintf(stderr, "perfbench: %zu of %zu PREDICTs failed in the %s phase\n", failures,
                 phase.outcomes.size(), what);
  }
  PhaseStats stats;
  const std::vector<double> latencies = phase.latencies(kLatencyLimitMs * 4);
  stats.p50 = percentile(latencies, 0.5);
  stats.p95 = percentile(latencies, 0.95);
  std::vector<double> lateness, rtt;
  for (const Outcome& outcome : phase.outcomes) {
    lateness.push_back(outcome.lateness_ms);
    rtt.push_back(outcome.rtt_ms);
    stats.latency_mean += outcome.latency_ms / static_cast<double>(phase.outcomes.size());
    stats.rtt_mean += outcome.rtt_ms / static_cast<double>(phase.outcomes.size());
  }
  stats.lateness_p99 = percentile(lateness, 0.99);
  stats.rtt_p50 = percentile(rtt, 0.5);
  std::fprintf(stderr, "perfbench: %s: %zu requests, p50 %.2f p90 %.2f p95 %.2f p99 %.2f ms\n",
               what, latencies.size(), stats.p50, percentile(latencies, 0.9), stats.p95,
               percentile(latencies, 0.99));
  if (open_loop && !percentile_supported(latencies.size(), 0.95)) {
    run.correct = false;
    std::fprintf(stderr, "perfbench: %s phase has too few samples for p95\n", what);
  }
  if (stats.lateness_p99 > kLatenessBoundMs) {
    run.correct = false;
    std::fprintf(stderr, "perfbench: generator lateness p99 %.1f ms exceeds %.1f ms (%s)\n",
                 stats.lateness_p99, kLatenessBoundMs, what);
  }
  return stats;
}

std::size_t samples_for(double rate, double seconds) {
  return std::max<std::size_t>(kMinSamples, static_cast<std::size_t>(std::ceil(rate * seconds)));
}

/// Per-PREDICT layer ledger of the traced phase.  `served` lists every
/// phase the server answered after its warm-up (priming included): the
/// server's timers cover exactly those requests, so its means and the
/// client's round trips are taken over the same population.  The traced
/// phase's mean round trip is split in the proportions of the server's
/// timers; what is left of its latency is the wait for a free connection,
/// outside every layer span.
void serve_ledger(Run& run, const Snap& server, const std::vector<const PhaseResult*>& served,
                  const PhaseStats& phase, double warmup_ms) {
  double rtt_sum_ms = 0, requests = 0;
  for (const PhaseResult* result : served)
    for (const Outcome& outcome : result->outcomes) {
      rtt_sum_ms += outcome.rtt_ms;
      ++requests;
    }
  const double handler_s = server.seconds("service.latency.predict") - ms_to_s(warmup_ms);
  const double replay_s = server.seconds("simmpi.replay");
  const double predict_s = server.seconds("psins.predict");
  const double fit_s = server.seconds("extrapolate.fit");
  const double core_s = server.seconds("extrapolate.select") + server.seconds("extrapolate.apply");
  const double rtt_s = ms_to_s(phase.rtt_mean);
  auto share = [&](double seconds) { return handler_s > 0 ? rtt_s * seconds / handler_s : 0.0; };
  std::map<std::string, double> layers;
  layers["simmpi"] = share(replay_s);
  layers["psins"] = share(predict_s - replay_s);
  layers["stats"] = share(fit_s);
  layers["core"] = share(core_s);
  // The rest of the round trip: store lookups, signature builds, the
  // handler pool's queue, frame I/O.
  layers["service"] = rtt_s - share(predict_s + fit_s + core_s);
  ledger(run, layers, ms_to_s(phase.latency_mean));
  run.layer["service.rtt_ms.p50"] = phase.rtt_p50;
  run.layer["service.rtt_ms.mean"] = rtt_sum_ms / std::max(1.0, requests);
  run.layer["service.server_ms.mean"] = handler_s * 1e3 / std::max(1.0, requests);
  run.layer["service.unattributed_ms.mean"] =
      run.layer["service.rtt_ms.mean"] - run.layer["service.server_ms.mean"];
  const double hits = server.counter("service.cache.hits");
  const double misses = server.counter("service.cache.misses");
  run.layer["service.cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  run.layer["service.busy_ratio"] =
      server.counter("service.requests.busy") / std::max(1.0, server.counter("service.requests.predict"));
  run.layer["service.cache.invalidations"] = server.counter("service.cache.invalidations");
  run.layer["loadgen.lateness_ms.p99"] = phase.lateness_p99;
  run.layer["io.ops"] = server.counter_prefix("io.ops.");
  run.layer["io.retries"] = server.counter_prefix("io.retries.");
}

/// Replays each distinct key once, in process and uncontended, through the
/// store and the prediction layers, each call in its own span.
void replay_keys(Run& run, const Serving& serving, const std::vector<std::vector<std::string>>& paths) {
  service::ModelStore store;
  metrics::Registry::global().reset();
  ScopedSpan root_span(run.spans, "serve.replay_keys");
  const std::uint64_t root = root_span.id();
  std::map<std::string, double> total;
  auto timed = [&](const std::string& name, const std::function<void()>& call) {
    ScopedSpan span(run.spans, name, root);
    const Clock::time_point start = Clock::now();
    call();
    total[name] += seconds_since(start);
  };
  for (std::size_t k = 0; k < serving.keys.size(); ++k) {
    const PredictKey& key = serving.keys[k];
    service::ModelStore::ModelsResult models;
    std::shared_ptr<const trace::AppSignature> signature;
    std::shared_ptr<const machine::MachineProfile> profile;
    timed("service.models_for", [&] { models = store.models_for(paths[k], service::FitSpec{}.to_options()); });
    timed("service.signature_for", [&] {
      signature = store.signature_for(models, key.target_cores, key.app, key.work_scale);
    });
    timed("machine.profile_for", [&] { profile = store.profile_for(kMachine); });
    psins::ComputePrediction compute;
    timed("psins.convolve_task", [&] { compute = psins::convolve_task(signature->demanding_task(), *profile); });
    std::vector<simmpi::RankTimeline> timelines;
    timed("simmpi.timelines_from_comm", [&] {
      const double units = signature->comm[signature->demanding_rank].total_compute_units();
      const std::vector<double> scales(signature->core_count, compute.seconds / units);
      timelines = simmpi::timelines_from_comm(signature->comm, scales);
    });
    timed("simmpi.replay", [&] { simmpi::replay(timelines, profile->system.network); });
  }
  const Snap snap = registry_snap();
  run.layer["service.models_for_s"] = total["service.models_for"];
  run.layer["service.signature_for_s"] = total["service.signature_for"];
  run.layer["machine.build_profile_s"] = total["machine.profile_for"];
  run.layer["psins.convolve_s"] = total["psins.convolve_task"];
  run.layer["simmpi.timelines_s"] = total["simmpi.timelines_from_comm"];
  run.layer["simmpi.replay_s"] = total["simmpi.replay"];
  run.layer["psins.predict_s"] =
      total["psins.convolve_task"] + total["simmpi.timelines_from_comm"] + total["simmpi.replay"];
  run.layer["simmpi.events_replayed"] = snap.counter("simmpi.events_replayed");
  if (snap.counter("simmpi.events_replayed") > 0)
    run.layer["simmpi.ns_per_event"] = total["simmpi.replay"] * 1e9 / snap.counter("simmpi.events_replayed");
  run.layer["core.extrapolate_from_models_s"] = snap.seconds("extrapolate.select") + snap.seconds("extrapolate.apply");
  run.layer["core.fit_task_models_s"] = snap.seconds("extrapolate.fit");
  fit_layers(run, snap);
}

/// Sends every key once, closed loop, so the timed phases see the server's
/// caches warm: first-touch work arriving in a burst made the first second
/// of a phase, and so p95, swing by 5x between repeats of one seed.
PhaseResult prime(Run& run, const ServerProcess& server, const Serving& serving,
                  std::size_t connections, const BodyCheck& check) {
  std::vector<std::size_t> all(serving.keys.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  ScopedSpan span(run.spans, "perfbench.prime");
  PhaseResult primed = run_requests(server.port, serving.keys, all, 0.0, connections, kMachine,
                                       check, run.spans, span.id());
  account(run, primed, "priming", false);
  return primed;
}

Serving serving_inputs(Run& run, std::size_t collection_keys) {
  Serving serving;
  serving.keys = base_keys(run);
  serving.seed = util::derive_seed(run.opt.seed, 3);
  serving.collection_keys = collection_keys;
  service::ModelStore store;
  ScopedSpan span(run.spans, "perfbench.expected_bodies");
  for (const PredictKey& key : serving.keys)
    serving.expected.bodies.push_back({render(store, key.trace_paths, key)});
  return serving;
}

// ---------------------------------------------------------------------------
// serve_predict

void run_serve_predict(Run& run) {
  const std::size_t connections = connections_limit();
  const std::size_t low_n = samples_for(kLowRate, run.opt.seconds);
  const std::size_t high_n = samples_for(kHighRate, run.opt.seconds);
  Serving serving = serving_inputs(run, 0);
  std::vector<double> setup;
  ServerProcess server = setups(run, serving, false, &setup);
  const BodyCheck check = [&](std::size_t key, const std::string& body) {
    return serving.expected.accepts(key, body);
  };
  prime(run, server, serving, connections, check);

  if (!run.opt.trace) {
    const PhaseResult low = run_requests(server.port, serving.keys, serving.take(low_n), kLowRate,
                                          connections, kMachine, check, run.spans, 0);
    const PhaseStats low_stats = account(run, low, "low-rate");
    std::vector<double> batches;
    for (std::size_t b = 0; b < kClosedBatches; ++b) {
      const PhaseResult batch = run_requests(server.port, serving.keys, serving.take(kClosedBatch),
                                             0.0, connections, kMachine, check, run.spans, 0);
      account(run, batch, "closed-loop", false);
      batches.push_back(batch.wall_s);
    }
    run.e2e["setup_s"] = median(setup);
    run.e2e["wall_s"] = median(batches);
    run.e2e["p50_ms"] = low_stats.p50;
    run.e2e["p95_ms"] = low_stats.p95;
    run.e2e["peak_rss_mib"] = peak_rss_mib(server.pid);
    if (!stop_server(server)) run.note_failure("server did not drain cleanly");
    return;
  }

  // Traced run: untraced low phase, then a fresh server for the traced low
  // phase (so its snapshot covers that phase alone), then a third server
  // for the high rate and the max_rps search.
  run.spans.set_enabled(false);
  const PhaseResult untraced = run_requests(server.port, serving.keys, serving.take(low_n), kLowRate,
                                             connections, kMachine, check, run.spans, 0);
  run.spans.set_enabled(true);
  const PhaseStats untraced_stats = account(run, untraced, "low-rate");
  if (!stop_server(server)) run.note_failure("server did not drain cleanly");

  double warmup = 0;
  server = start_server(run, serving, kSetups, false, &warmup);
  const PhaseResult primed = prime(run, server, serving, connections, check);
  PhaseResult traced;
  {
    ScopedSpan root(run.spans, "serve_predict.low");
    traced = run_requests(server.port, serving.keys, serving.take(low_n), kLowRate, connections,
                           kMachine, check, run.spans, root.id());
  }
  const PhaseStats traced_stats = account(run, traced, "traced low-rate");
  if (!stop_server(server)) run.note_failure("server did not drain cleanly");
  serve_ledger(run, file_snap(run.path("serve_" + std::to_string(kSetups) + ".json")),
               {&primed, &traced}, traced_stats, warmup * 1e3);
  overhead(run, ms_to_s(untraced_stats.latency_mean), ms_to_s(traced_stats.latency_mean));

  server = start_server(run, serving, kSetups + 1, false, &warmup);
  prime(run, server, serving, connections, check);
  const PhaseResult high = run_requests(server.port, serving.keys, serving.take(high_n), kHighRate,
                                         connections, kMachine, check, run.spans, 0);
  const PhaseStats high_stats = account(run, high, "high-rate");
  run.layer["p50_ms.high"] = high_stats.p50;
  run.layer["p95_ms.high"] = high_stats.p95;
  int probes = 0;
  run.layer["max_rps"] = search_max_rate(
      [&](double rate) {
        const PhaseResult probe = run_requests(server.port, serving.keys, serving.take(kMinSamples),
                                                rate, connections, kMachine, check, run.spans, 0);
        account(run, probe, "max_rps probe", false);
        const std::vector<double> latencies = probe.latencies(kLatencyLimitMs * 4);
        // A growing backlog shows as queueing in the last quarter well
        // above the first quarter's.
        const std::size_t q = probe.outcomes.size() / 4;
        double first = 0, last = 0;
        for (std::size_t i = 0; i < q; ++i) {
          first += probe.outcomes[i].latency_ms - probe.outcomes[i].rtt_ms;
          last += probe.outcomes[probe.outcomes.size() - 1 - i].latency_ms -
                  probe.outcomes[probe.outcomes.size() - 1 - i].rtt_ms;
        }
        const bool growing = (last - first) / static_cast<double>(std::max<std::size_t>(1, q)) > 50.0;
        return percentile(latencies, 0.95) <= kLatencyLimitMs && !growing;
      },
      kLowRate, 16 * kHighRate, 0.1, 8, &probes);
  if (!stop_server(server)) run.note_failure("server did not drain cleanly");

  std::vector<std::vector<std::string>> paths;
  for (const PredictKey& key : serving.keys) paths.push_back(key.trace_paths);
  replay_keys(run, serving, paths);
}

// ---------------------------------------------------------------------------
// serve_ingest

struct Upload {
  double cycle_s = 0;    ///< BEGIN until STATUS shows the refit
  double commit_ms = 0;  ///< COMMIT round trip
  double visible_s = 0;  ///< COMMIT reply until STATUS shows the refit
  bool ok = false;
};

service::Response upload_call(service::Client& client, const ingest::UploadRequest& upload) {
  service::Request request;
  request.type = service::MsgType::UploadTrace;
  request.upload = upload;
  return client.call(request);
}

std::uint64_t refits(service::Client& client) {
  service::Request status;
  status.type = service::MsgType::Status;
  const service::Response response = client.call(status);
  return status_value(response.body, "ingest.refits");
}

/// BEGIN / CHUNK... / COMMIT one file, then poll STATUS until the refit the
/// commit scheduled is visible (when `refit_expected`).
Upload upload_file(service::Client& client, const std::string& collection, const std::string& path,
                   bool refit_expected) {
  Upload result;
  const Clock::time_point start = Clock::now();
  const std::uint64_t before = refits(client);
  const std::string bytes = read_file(path);
  const std::uint32_t crc = util::crc32(bytes);
  constexpr std::uint32_t kChunk = 256u << 10;
  ingest::UploadRequest begin;
  begin.op = ingest::UploadOp::Begin;
  begin.session = util::format("pb-%s-%08x-%zu", collection.c_str(), crc, bytes.size());
  begin.collection = collection;
  begin.file_name = path.substr(path.find_last_of('/') + 1);
  begin.total_bytes = bytes.size();
  begin.chunk_bytes = kChunk;
  begin.file_crc = crc;
  if (upload_call(client, begin).status != service::Status::Ok) return result;
  for (std::uint64_t index = 0; index * kChunk < bytes.size(); ++index) {
    ingest::UploadRequest chunk;
    chunk.op = ingest::UploadOp::Chunk;
    chunk.session = begin.session;
    chunk.chunk_index = index;
    chunk.data = bytes.substr(index * kChunk, kChunk);
    if (upload_call(client, chunk).status != service::Status::Ok) return result;
  }
  ingest::UploadRequest commit;
  commit.op = ingest::UploadOp::Commit;
  commit.session = begin.session;
  const Clock::time_point commit_sent = Clock::now();
  const service::Response committed = upload_call(client, commit);
  const Clock::time_point commit_ok = Clock::now();
  result.commit_ms = std::chrono::duration<double, std::milli>(commit_ok - commit_sent).count();
  if (committed.status != service::Status::Ok ||
      committed.body.find("state committed") == std::string::npos)
    return result;
  if (refit_expected) {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    while (refits(client) < before + 1) {
      if (Clock::now() > deadline) return result;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  result.visible_s = seconds_since(commit_ok);
  result.cycle_s = seconds_since(start);
  result.ok = true;
  return result;
}

void run_serve_ingest(Run& run) {
  const std::size_t phases = run.opt.trace ? 2 : 1;
  const IngestPlan plan = ingest_plan(run.opt.seed, run.opt.seconds, phases);
  // Collection keys: two (target, folding) pairs per collection.
  std::vector<PredictKey> collection_keys;
  {
    SeedRng rng(util::derive_seed(run.opt.seed, 5));
    for (std::size_t c = 0; c < kCollections; ++c)
      for (int k = 0; k < 2; ++k) {
        PredictKey key;
        key.app = "specfem3d";
        key.trace_paths = {"@" + collection_name(c)};
        key.target_cores = kServeApps[0].target;
        key.work_scale = 23'700 * (0.5 + rng.uniform());
        collection_keys.push_back(key);
      }
  }
  const std::size_t connections = connections_limit() > 1 ? connections_limit() - 1 : 1;
  const std::size_t low_n = samples_for(kLowRate, run.opt.seconds);
  Serving serving = serving_inputs(run, collection_keys.size());

  // Expected bodies of the collection keys: every state from the staged
  // files to the last upload of the run.
  std::vector<std::size_t> final_files(kCollections, kStagedFiles);
  for (std::size_t c : plan.upload_order) ++final_files[c];
  std::vector<std::vector<std::string>> final_paths;
  {
    service::ModelStore store;
    ScopedSpan span(run.spans, "perfbench.expected_bodies");
    for (std::size_t i = 0; i < collection_keys.size(); ++i) {
      const std::size_t c = i / 2;
      std::vector<std::string> bodies;
      std::vector<std::string> paths;
      for (std::size_t n = 0; n < final_files[c]; ++n) {
        paths.push_back(ingest_path(run, c, plan.counts[c][n]));
        if (n + 1 >= kStagedFiles) bodies.push_back(render(store, paths, collection_keys[i]));
      }
      serving.keys.push_back(collection_keys[i]);
      serving.expected.bodies.push_back(bodies);
      final_paths.push_back(paths);
    }
  }

  std::vector<double> setup;
  ServerProcess server = setups(run, serving, true, &setup);
  service::ClientOptions writer_options;
  writer_options.port = server.port;
  service::Client writer(writer_options);
  // Staging (not timed): the first files of each collection and their refit.
  std::vector<std::size_t> next_file(kCollections, 0);
  for (std::size_t c = 0; c < kCollections; ++c)
    for (; next_file[c] < kStagedFiles; ++next_file[c]) {
      const Upload staged = upload_file(writer, collection_name(c),
                                        ingest_path(run, c, plan.counts[c][next_file[c]]),
                                        next_file[c] + 1 >= kStagedFiles);
      if (!staged.ok) throw std::runtime_error("staging upload failed");
    }

  const BodyCheck check = [&](std::size_t key, const std::string& body) {
    return serving.expected.accepts(key, body);
  };
  const PhaseResult primed = prime(run, server, serving, connections, check);
  std::vector<Upload> uploads;
  std::size_t upload_index = 0;
  auto phase = [&](std::uint64_t parent) {
    const std::size_t per_phase = plan.upload_order.size() / phases;
    const std::size_t first = upload_index;
    upload_index += per_phase;
    std::thread uploader([&, first] {
      const Clock::time_point start = Clock::now();
      for (std::size_t u = first; u < first + per_phase; ++u) {
        std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                                  std::chrono::duration<double>(plan.offsets_s[u])));
        const std::size_t c = plan.upload_order[u];
        ScopedSpan span(run.spans, "ingest.upload_cycle", parent);
        uploads.push_back(upload_file(writer, collection_name(c),
                                      ingest_path(run, c, plan.counts[c][next_file[c]++]), true));
      }
    });
    const PhaseResult result = run_requests(server.port, serving.keys, serving.take(low_n), kLowRate,
                                             connections, kMachine, check, run.spans, parent);
    uploader.join();
    return result;
  };
  auto upload_stats = [&](std::size_t from) {
    std::vector<double> cycles, commits, visible;
    for (std::size_t i = from; i < uploads.size(); ++i) {
      ++run.attempted;
      if (!uploads[i].ok) {
        run.note_failure("upload cycle failed");
        continue;
      }
      cycles.push_back(uploads[i].cycle_s);
      commits.push_back(uploads[i].commit_ms);
      visible.push_back(uploads[i].visible_s);
    }
    return std::make_tuple(cycles, commits, visible);
  };

  if (!run.opt.trace) {
    const PhaseResult low = phase(0);
    const PhaseStats stats = account(run, low, "low-rate");
    const auto [cycles, commits, visible] = upload_stats(0);
    run.e2e["setup_s"] = median(setup);
    run.e2e["wall_s"] = median(cycles);
    run.e2e["p50_ms"] = stats.p50;
    run.e2e["p95_ms"] = stats.p95;
    run.e2e["peak_rss_mib"] = peak_rss_mib(server.pid);
    if (!stop_server(server)) run.note_failure("server did not drain cleanly");
    return;
  }

  run.spans.set_enabled(false);
  const PhaseResult untraced = phase(0);
  run.spans.set_enabled(true);
  const PhaseStats untraced_stats = account(run, untraced, "low-rate");
  upload_stats(0);
  const std::size_t traced_from = uploads.size();
  PhaseResult traced;
  {
    ScopedSpan root(run.spans, "serve_ingest.low");
    traced = phase(root.id());
  }
  const PhaseStats traced_stats = account(run, traced, "traced low-rate");
  const auto [cycles, commits, visible] = upload_stats(traced_from);
  if (!stop_server(server)) run.note_failure("server did not drain cleanly");
  const Snap snap = file_snap(run.path("serve_" + std::to_string(kSetups - 1) + ".json"));
  serve_ledger(run, snap, {&primed, &untraced, &traced}, traced_stats, setup.back() * 1e3);
  overhead(run, ms_to_s(untraced_stats.latency_mean), ms_to_s(traced_stats.latency_mean));
  run.layer["refit_visible_s"] = median(visible);
  run.layer["ingest.commit_ms"] = median(commits);
  run.layer["ingest.refit_s"] =
      snap.seconds("extrapolate.fit") / std::max(1.0, snap.counter("ingest.refits"));
  const double reused = snap.counter("ingest.refit.elements_reused");
  const double refit = snap.counter("ingest.refit.elements_refit");
  run.layer["ingest.refit.reuse_ratio"] = reused + refit > 0 ? reused / (reused + refit) : 0;
  run.layer["ingest.refits.deferred"] = snap.counter("ingest.refits.deferred");

  std::vector<std::vector<std::string>> paths;
  for (const PredictKey& key : serving.keys)
    paths.push_back(key.trace_paths.front()[0] == '@' ? final_paths[paths.size() - kBaseKeys]
                                                       : key.trace_paths);
  replay_keys(run, serving, paths);
}

// ---------------------------------------------------------------------------

void print_result(const Run& run) {
  const std::vector<MetricDef>& defs = run.opt.trace ? kPerLayer : kEndToEnd;
  const std::map<std::string, double>& values = run.opt.trace ? run.layer : run.e2e;
  std::string out = util::format("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                                 run.correct ? "true" : "false",
                                 static_cast<unsigned long long>(std::max<std::uint64_t>(1, run.attempted)),
                                 static_cast<unsigned long long>(run.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const double value = it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    out += util::format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                        defs[i].name, value, defs[i].unit);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

Options parse(int argc, char** argv) {
  Options opt;
  if (argc < 2) throw std::runtime_error("usage: perfbench_driver gen|run|metrics [options]");
  opt.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("option " + arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = std::stoull(value);
    else if (arg == "--seconds") opt.seconds = std::stod(value);
    else if (arg == "--trace") opt.trace = value == "1";
    else if (arg == "--dir") opt.dir = value;
    else if (arg == "--serve") opt.serve = value;
    else throw std::runtime_error("unknown option " + arg);
  }
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    pmacx::util::set_log_level(pmacx::util::LogLevel::Warn);
    Run run(parse(argc, argv));
    const std::string& w = run.opt.workload;
    if (run.opt.mode == "metrics") {
      // Lists the metric names and units, for checking BENCHMARK.json.
      for (const MetricDef& def : kEndToEnd) std::printf("end_to_end %s %s\n", def.name, def.unit);
      for (const MetricDef& def : kPerLayer) std::printf("per_layer %s %s\n", def.name, def.unit);
      return 0;
    }
    if (run.opt.dir.empty()) throw std::runtime_error("--dir is required");
    if (run.opt.mode == "gen") {
      if (w == "extrapolate_wide") gen_wide(run);
      else if (w == "serve_predict") gen_base(run);
      else if (w == "serve_ingest") {
        gen_base(run);
        gen_ingest(run, run.opt.trace ? 2 : 1);
      } else if (w != "table1") throw std::runtime_error("unknown workload " + w);
      return 0;
    }
    if (run.opt.mode != "run") throw std::runtime_error("unknown mode " + run.opt.mode);
    if (w == "table1") run_table1(run);
    else if (w == "extrapolate_wide") run_extrapolate_wide(run);
    else if (w == "serve_predict") run_serve_predict(run);
    else if (w == "serve_ingest") run_serve_ingest(run);
    else throw std::runtime_error("unknown workload " + w);
    if (run.opt.trace) run.spans.write(run.path("spans.jsonl"));
    print_result(run);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
