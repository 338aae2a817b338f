// Ablation A2 — how many training core counts are needed?
//
// Section IV: "using more than three core counts could improve the quality
// of the fit but it became evident during testing that three generally
// provided adequate accuracy."  We collect SPECFEM3D traces at five small
// core counts and extrapolate to 6144 from the last 2, 3, 4 and 5 of them,
// comparing each against the collected-trace prediction.
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/extrapolator.hpp"
#include "psins/predictor.hpp"
#include "stats/descriptive.hpp"
#include "synth/tracer.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace pmacx;
  bench::banner("Ablation A2 — number of training core counts");

  const auto& machine = bench::bluewaters_profile();
  const synth::Specfem3dApp app(bench::specfem_config());
  const auto tracer = bench::tracer_for(machine);
  const std::uint32_t target = 6144;

  const std::vector<std::uint32_t> counts = {96, 192, 384, 768, 1536};
  std::vector<trace::TaskTrace> traces;
  for (std::uint32_t cores : counts) traces.push_back(synth::trace_task(app, cores, 0, tracer));

  const auto collected = synth::collect_signature(app, target, tracer);
  const auto prediction_collected = psins::predict(collected, machine);

  const auto target_comm = synth::comm_traces(app, target);

  util::Table table({"Training Counts", "Worst Infl. Fit Err", "Predicted (s)",
                     "vs Collected Pred"});
  for (std::size_t use = 2; use <= counts.size(); ++use) {
    const std::vector<trace::TaskTrace> series(traces.end() - use, traces.end());
    const auto result = core::extrapolate_task(series, target);

    const auto prediction = psins::predict(
        trace::AppSignature::for_task(result.trace, target_comm), machine);

    std::string label;
    for (std::size_t i = counts.size() - use; i < counts.size(); ++i)
      label += (label.empty() ? "" : ",") + std::to_string(counts[i]);
    table.add_row(
        {label, util::human_percent(result.report.worst_influential_error(), 1),
         util::format("%.1f", prediction.runtime_seconds),
         util::human_percent(
             stats::absolute_relative_error(prediction.runtime_seconds,
                                            prediction_collected.runtime_seconds),
             2)});
  }
  table.print(std::cout, util::format("SPECFEM3D -> %u cores (collected-trace prediction "
                                      "%.1f s):",
                                      target, prediction_collected.runtime_seconds));

  std::printf(
      "\nReading: two points cannot distinguish the forms (every 2-parameter\n"
      "form interpolates them); three are adequate, as the paper found; more\n"
      "points tighten the fit further at linear collection cost.\n");
  return 0;
}
