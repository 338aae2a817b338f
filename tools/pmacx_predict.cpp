// pmacx_predict — predict runtime (and energy) from a trace file.
//
// Reads a computation trace file (collected or extrapolated — the file
// records which), profiles the target machine, rebuilds the run's
// communication timelines from the named application model, and runs the
// PSiNS convolution + replay.
//
//   pmacx_predict --trace s6144.trace --app specfem3d --target bluewaters-p1
#include <cstdio>
#include <exception>
#include <fstream>

#include "machine/profile_io.hpp"
#include "machine/targets.hpp"
#include "psins/energy.hpp"
#include "psins/predictor.hpp"
#include "synth/registry.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace pmacx;
  util::Cli cli("pmacx_predict", "predict runtime from a trace file or signature");
  cli.add_string("trace", "", "computation trace file (from pmacx_trace or "
                 "pmacx_extrapolate); combine with --app for the comm timelines");
  cli.add_string("signature", "",
                 "signature directory (from pmacx_trace --signature-dir); "
                 "self-contained, no --app needed");
  cli.add_string("app", "specfem3d",
                 "application model supplying the communication timelines "
                 "(--trace mode only)");
  cli.add_double("work-scale", 1.0, "production-run folding factor (match the trace's)");
  cli.add_string("target", "bluewaters-p1", "target system to predict on");
  cli.add_string("profile-cache", "",
                 "cache the probed machine profile in this file (loaded when "
                 "present, probed + written otherwise)");
  cli.add_flag("energy", "also print the energy prediction");
  cli.add_flag("blocks", "print the per-block time breakdown");
  cli.add_string("metrics-json", "",
                 "write a pmacx-metrics-v1 snapshot (counters, stage timings, "
                 "run manifest) to this file");

  try {
    if (!cli.parse(argc, argv)) return 0;
    util::set_log_level(util::LogLevel::Warn);
    PMACX_CHECK(cli.get_string("trace").empty() != cli.get_string("signature").empty(),
                "give exactly one of --trace or --signature");

    const trace::AppSignature signature = [&] {
      if (!cli.get_string("signature").empty())
        return trace::AppSignature::load(cli.get_string("signature"));
      trace::TaskTrace task = trace::TaskTrace::load(cli.get_string("trace"));
      task.validate();
      const auto app =
          synth::make_app(cli.get_string("app"), cli.get_double("work-scale"));
      PMACX_CHECK(task.app == app->name(),
                  "trace was collected from '" + task.app + "' but --app is '" +
                      app->name() + "'");
      const std::uint32_t cores = task.core_count;
      return trace::AppSignature::for_task(std::move(task), synth::comm_traces(*app, cores));
    }();
    const trace::TaskTrace& task = signature.demanding_task();

    const machine::TargetSystem target = machine::target_by_name(cli.get_string("target"));
    const std::string cache_path = cli.get_string("profile-cache");
    const machine::MachineProfile profile = [&] {
      if (!cache_path.empty() && std::ifstream(cache_path).good()) {
        std::printf("loading cached profile %s...\n", cache_path.c_str());
        machine::MachineProfile cached = machine::load_profile(cache_path);
        PMACX_CHECK(cached.system.name == target.name,
                    "cached profile is for '" + cached.system.name + "', not '" +
                        target.name + "'");
        return cached;
      }
      std::printf("profiling %s (MultiMAPS)...\n", target.name.c_str());
      machine::MachineProfile probed = machine::build_profile(target);
      if (!cache_path.empty()) machine::save_profile(probed, cache_path);
      return probed;
    }();

    const psins::PredictionResult prediction = psins::predict(signature, profile);
    std::fputs(psins::render_prediction(task, target.name, prediction).c_str(), stdout);

    if (cli.get_flag("blocks")) {
      std::printf("\n  per-block breakdown:\n");
      for (const auto& block : prediction.blocks.blocks) {
        std::printf("    block %-4llu mem %.4f s  fp %.4f s  @ %s\n",
                    static_cast<unsigned long long>(block.block_id), block.memory_seconds,
                    block.fp_seconds, util::human_rate(block.bandwidth_bytes_per_s).c_str());
      }
    }

    if (cli.get_flag("energy")) {
      const auto energy = psins::estimate_energy(signature, profile, prediction);
      std::printf("\n  energy: %.3f MJ dynamic + %.3f MJ static = %.3f MJ (%.1f kW mean)\n",
                  energy.dynamic_joules / 1e6, energy.static_joules / 1e6,
                  energy.total_joules / 1e6, energy.mean_watts / 1e3);
    }

    if (!cli.get_string("metrics-json").empty()) {
      util::metrics::RunManifest manifest =
          util::metrics::RunManifest::for_tool("pmacx_predict");
      manifest.threads = 1;  // prediction replays serially
      manifest.config = cli.values();
      if (!cli.get_string("trace").empty()) manifest.add_input(cli.get_string("trace"));
      if (!cache_path.empty()) manifest.add_input(cache_path);
      util::metrics::write_json(cli.get_string("metrics-json"), manifest,
                                util::metrics::Registry::global().snapshot());
    }
    return 0;
  } catch (const util::Error& e) {
    std::fprintf(stderr, "pmacx_predict: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmacx_predict: internal error: %s\n", e.what());
    return 1;
  }
}
