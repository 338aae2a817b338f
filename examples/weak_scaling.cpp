// Weak-scaling extrapolation (the paper's Section VI future work).
//
// Under weak scaling the per-rank problem size is held constant as cores
// grow, so most per-task elements should be *constant* in the core count —
// a regime the paper flags as untested.  This example builds a weak-scaled
// SPECFEM3D-like series (global problem grows with P), extrapolates, and
// shows (a) the winning-form histogram collapsing onto constant/log and
// (b) prediction accuracy against a trace collected at the target count.
#include <cstdio>
#include <iostream>

#include "core/extrapolator.hpp"
#include "machine/targets.hpp"
#include "psins/predictor.hpp"
#include "synth/specfem.hpp"
#include "synth/tracer.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace pmacx;

/// Weak-scaled instance: the global problem grows linearly with the core
/// count, keeping per-rank work fixed.
synth::Specfem3dApp weak_app(std::uint32_t cores) {
  synth::SpecfemConfig config;
  config.global_elements = 2'000ull * cores;
  config.global_field_bytes = 8'000'000ull * cores;
  config.timesteps = 5;
  return synth::Specfem3dApp(config);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("weak_scaling", "extrapolate a weak-scaled application");
  cli.add_u64("target-cores", 512, "core count to extrapolate to");
  cli.add_u64("refs-cap", 300'000, "simulated references cap per kernel");
  if (!cli.parse(argc, argv)) return 0;
  util::set_log_level(util::LogLevel::Warn);

  machine::MultiMapsOptions probe;
  probe.max_refs_per_probe = 400'000;
  const machine::MachineProfile target =
      machine::build_profile(machine::bluewaters_p1(), probe);

  synth::TracerOptions options;
  options.target = target.system.hierarchy;
  options.max_refs_per_kernel = cli.get_u64("refs-cap");

  const std::vector<std::uint32_t> small_counts = {32, 64, 128};
  const auto target_cores = static_cast<std::uint32_t>(cli.get_u64("target-cores"));

  std::vector<trace::TaskTrace> series;
  for (std::uint32_t cores : small_counts) {
    std::printf("tracing weak-scaled instance at %u cores...\n", cores);
    series.push_back(synth::trace_task(weak_app(cores), cores, 0, options));
  }

  const auto result = core::extrapolate_task(series, target_cores);
  std::printf("\n%s\n", result.report.summary().c_str());

  // Predict at the target and compare against a collected trace there.
  const synth::Specfem3dApp app_at_target = weak_app(target_cores);
  const auto prediction_extrap = psins::predict(
      trace::AppSignature::for_task(result.trace, synth::comm_traces(app_at_target, target_cores)),
      target);
  const auto collected = synth::collect_signature(app_at_target, target_cores, options);
  const auto prediction_collected = psins::predict(collected, target);

  util::Table table({"Quantity", "Value"});
  table.add_row({"predicted runtime (extrapolated trace)",
                 util::format("%.2f s", prediction_extrap.runtime_seconds)});
  table.add_row({"predicted runtime (collected trace)",
                 util::format("%.2f s", prediction_collected.runtime_seconds)});
  const double gap = std::abs(prediction_extrap.runtime_seconds -
                              prediction_collected.runtime_seconds) /
                     prediction_collected.runtime_seconds;
  table.add_row({"extrapolated vs collected gap", util::human_percent(gap, 1)});
  table.print(std::cout);

  std::printf(
      "\nUnder weak scaling most elements fit the constant form (see the form\n"
      "histogram above) and extrapolation is correspondingly easy — the hard\n"
      "part the paper anticipates is work *redistribution*, which appears here\n"
      "only through the log-growth reduction and linear bookkeeping elements.\n");
  return 0;
}
