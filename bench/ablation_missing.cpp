// Ablation A6 — missing-block alignment policies.
//
// Real traces gain and lose basic blocks across core counts (code paths
// gated on rank counts, library fallbacks, ...).  The aligner offers three
// policies — Drop, ZeroFill, CarryLast — whose choice changes what the
// extrapolated trace contains.  This ablation injects controlled
// appearance/disappearance into a SPECFEM3D trace series and compares the
// policies' predictions against the collected-trace prediction.
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
  bench::banner("Ablation A6 — missing-block alignment policies");

  const auto& machine = bench::bluewaters_profile();
  const synth::Specfem3dApp app(bench::specfem_config());
  const auto experiment = bench::specfem_experiment();
  const auto tracer = bench::tracer_for(machine);

  std::vector<trace::TaskTrace> series;
  for (std::uint32_t cores : experiment.small_core_counts)
    series.push_back(synth::trace_task(app, cores, 0, tracer));

  // Inject structural drift: the smallest count misses the bookkeeping
  // block (id 6) — as if that code path only engages above some rank count.
  auto drop_block = [](trace::TaskTrace& task, std::uint64_t id) {
    std::erase_if(task.blocks, [&](const auto& block) { return block.id == id; });
  };
  drop_block(series.front(), 6);

  const auto collected =
      synth::collect_signature(app, experiment.target_core_count, tracer);
  const auto prediction_collected = psins::predict(collected, machine);

  const auto target_comm = synth::comm_traces(app, experiment.target_core_count);

  util::Table table({"Policy", "Blocks in Output", "Predicted (s)", "vs Collected Pred"});
  for (const auto& [name, policy] :
       {std::pair{"drop", core::MissingPolicy::Drop},
        std::pair{"zero-fill", core::MissingPolicy::ZeroFill},
        std::pair{"carry-last", core::MissingPolicy::CarryLast},
        std::pair{"fit-present", core::MissingPolicy::FitPresent}}) {
    core::ExtrapolationOptions options;
    options.missing = policy;
    const auto result =
        core::extrapolate_task(series, experiment.target_core_count, options);

    const auto prediction = psins::predict(
        trace::AppSignature::for_task(result.trace, target_comm), machine);

    table.add_row(
        {name, std::to_string(result.trace.blocks.size()),
         util::format("%.1f", prediction.runtime_seconds),
         util::human_percent(
             stats::absolute_relative_error(prediction.runtime_seconds,
                                            prediction_collected.runtime_seconds),
             2)});
  }
  table.print(std::cout,
              util::format("SPECFEM3D with block 6 absent at 96 cores, -> %u cores "
                           "(collected-trace prediction %.1f s):",
                           experiment.target_core_count,
                           prediction_collected.runtime_seconds));

  std::printf(
      "\nReading: ZeroFill and CarryLast both poison the fits of a block that is\n"
      "merely *unobserved* at one count (a zero or duplicated sample drags every\n"
      "canonical form).  Drop keeps the prediction honest but loses the block's\n"
      "contribution entirely.  FitPresent — fit only the counts where the block\n"
      "actually appears — keeps the block *and* the fit quality, at the cost of\n"
      "one fewer fitting point.\n");
  return 0;
}
