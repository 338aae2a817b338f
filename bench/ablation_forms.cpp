// Ablation A1 — which canonical forms matter?
//
// The paper uses four forms and names polynomial extensions as future work
// ("increasing the number of forms ... has a strong chance of driving down
// this error further").  This ablation holds the traces fixed and swaps the
// form set used for extrapolation:
//
//   paper4            — constant/linear/log/exp, domain-aware rejection on
//   paper4-no-reject  — same forms, rejection off (pure min-SSE selection)
//   default6          — paper4 + power + inverse-p (library default)
//   all7              — default6 + quadratic
//
// Reported per variant: worst influential fit error, the predicted runtime
// from the extrapolated trace, and its error against the collected-trace
// prediction and the measured runtime.
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/extrapolator.hpp"
#include "psins/predictor.hpp"
#include "psins/reference.hpp"
#include "stats/descriptive.hpp"
#include "synth/tracer.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace pmacx;

struct Variant {
  std::string name;
  core::ExtrapolationOptions options;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  {
    Variant v{"paper4", {}};
    v.options.fit.forms.assign(stats::paper_forms().begin(), stats::paper_forms().end());
    out.push_back(v);
  }
  {
    Variant v{"paper4-no-reject", {}};
    v.options.fit.forms.assign(stats::paper_forms().begin(), stats::paper_forms().end());
    v.options.reject_out_of_domain = false;
    out.push_back(v);
  }
  {
    Variant v{"default6", {}};
    out.push_back(v);
  }
  {
    Variant v{"all7", {}};
    v.options.fit.forms.assign(stats::all_forms().begin(), stats::all_forms().end());
    out.push_back(v);
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Ablation A1 — canonical form sets");

  const auto& machine = bench::bluewaters_profile();
  const synth::Specfem3dApp app(bench::specfem_config());
  const auto experiment = bench::specfem_experiment();
  const auto tracer = bench::tracer_for(machine);

  // Collect everything once; only extrapolation varies.
  std::vector<trace::TaskTrace> series;
  for (std::uint32_t cores : experiment.small_core_counts)
    series.push_back(synth::trace_task(app, cores, 0, tracer));
  const auto collected =
      synth::collect_signature(app, experiment.target_core_count, tracer);
  const auto prediction_collected = psins::predict(collected, machine);
  psins::ReferenceOptions roptions;
  roptions.max_refs_per_kernel = 2'000'000;
  const auto measured =
      psins::measure_run(app, experiment.target_core_count, machine, roptions);

  // Shared comm traces for the synthetic signatures.
  const auto target_comm = synth::comm_traces(app, experiment.target_core_count);

  util::Table table({"Form Set", "Worst Infl. Fit Err", "Predicted (s)",
                     "vs Collected Pred", "vs Measured"});
  for (const Variant& variant : variants()) {
    const auto result =
        core::extrapolate_task(series, experiment.target_core_count, variant.options);

    const auto prediction = psins::predict(
        trace::AppSignature::for_task(result.trace, target_comm), machine);
    table.add_row(
        {variant.name, util::human_percent(result.report.worst_influential_error(), 1),
         util::format("%.1f", prediction.runtime_seconds),
         util::human_percent(
             stats::absolute_relative_error(prediction.runtime_seconds,
                                            prediction_collected.runtime_seconds),
             2),
         util::human_percent(stats::absolute_relative_error(prediction.runtime_seconds,
                                                            measured.runtime_seconds),
                             2)});
  }
  table.print(std::cout,
              util::format("SPECFEM3D {96,384,1536} -> %u, collected-trace prediction "
                           "%.1f s, measured %.1f s:",
                           experiment.target_core_count,
                           prediction_collected.runtime_seconds,
                           measured.runtime_seconds));

  std::printf(
      "\nReading: the paper-faithful four-form set handles log/constant/linear\n"
      "elements but extrapolates pure 1/p strong-scaling decay poorly (the log\n"
      "fit wins on SSE and goes negative — domain rejection falls back to exp,\n"
      "which undershoots).  Power/inverse-p — the paper's proposed future work —\n"
      "capture those elements exactly.\n");
  return 0;
}
