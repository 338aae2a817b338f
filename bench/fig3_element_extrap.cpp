// Figure 3 reproduction — extrapolating individual feature-vector elements.
//
// The figure shows one basic block's feature vector at three core counts,
// with each element fitted and extrapolated independently.  This binary
// traces SPECFEM3D's dominant block at {96, 384, 1536} cores and prints,
// for every element of its feature vector, the measured series, the winning
// canonical form, and the extrapolated value at 6144 cores.
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/extrapolator.hpp"
#include "synth/tracer.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace pmacx;
  bench::banner("Figure 3 — per-element extrapolation of one block's feature vector");

  const auto& machine = bench::bluewaters_profile();
  const synth::Specfem3dApp app(bench::specfem_config());
  const auto experiment = bench::specfem_experiment();
  const auto options = bench::tracer_for(machine);

  std::vector<trace::TaskTrace> series;
  for (std::uint32_t cores : experiment.small_core_counts)
    series.push_back(synth::trace_task(app, cores, 0, options));

  const auto result = core::extrapolate_task(series, experiment.target_core_count);

  constexpr std::uint64_t kBlock = 1;  // compute_forces_elastic
  util::Table table({"Element", "@96", "@384", "@1536", "Best Fit", "Extrap @6144"});
  for (std::size_t i = 0; i < result.report.elements.size(); ++i) {
    const auto& fit = result.report.elements[i];
    if (fit.key.block_id != kBlock || !fit.key.is_block_level()) continue;
    const auto element = static_cast<trace::BlockElement>(fit.key.element);
    const auto inputs = result.report.inputs(i);
    table.add_row({trace::block_element_name(element),
                   util::format("%.4g", inputs[0]),
                   util::format("%.4g", inputs[1]),
                   util::format("%.4g", inputs[2]),
                   fit.model.describe(),
                   util::format("%.4g", fit.clamped)});
  }
  table.print(std::cout, "Block 1 (compute_forces_elastic), block-level elements:");

  std::printf("\nInstruction-level elements of the same block (first memory instr):\n");
  util::Table instr_table({"Element", "@96", "@384", "@1536", "Best Fit", "Extrap @6144"});
  for (std::size_t i = 0; i < result.report.elements.size(); ++i) {
    const auto& fit = result.report.elements[i];
    if (fit.key.block_id != kBlock || fit.key.instr_index != 0) continue;
    const auto element = static_cast<trace::InstrElement>(fit.key.element);
    const auto inputs = result.report.inputs(i);
    instr_table.add_row({trace::instr_element_name(element),
                         util::format("%.4g", inputs[0]),
                         util::format("%.4g", inputs[1]),
                         util::format("%.4g", inputs[2]),
                         fit.model.describe(),
                         util::format("%.4g", fit.clamped)});
  }
  instr_table.print(std::cout);

  std::printf("\n%s", result.report.summary().c_str());
  return 0;
}
