// Extension E7 — the Table I protocol in hybrid MPI/OpenMP mode.
//
// Everything extrapolates as before, but the signatures are collected in
// hybrid mode (4 threads per rank, private L1/L2, shared L3): traces at
// small rank counts, extrapolation to the large rank count, prediction with
// the hybrid compute model, and validation against both a collected hybrid
// trace and the hybrid reference simulation.  This is the parallelization
// mode the paper names but does not evaluate.
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

int main() {
  using namespace pmacx;
  bench::banner("Extension E7 — Table I protocol in hybrid MPI/OpenMP mode");

  const auto& machine = bench::bluewaters_profile();
  const synth::Uh3dApp app(bench::uh3d_config());
  constexpr std::uint32_t kThreads = 4;
  constexpr double kEfficiency = 0.9;
  // Hybrid mode doubles the capacity-cliff count: the shared L3 sees the
  // *combined* per-rank footprint while each private L2 sees a 1/T *slice*,
  // and their crossings sit a factor of T apart.  The training window is
  // placed above both (combined-L3 crossing ~800 ranks, slice-L2 crossing
  // ~3100 ranks for this problem) with the target below the next one —
  // the same placement discipline as the flat experiments, applied twice.
  const std::vector<std::uint32_t> small_ranks = {4096, 5120, 6144};
  const std::uint32_t target_ranks = 8192;  // × 4 threads = 32768 cores

  synth::TracerOptions tracer = bench::tracer_for(machine);
  tracer.threads_per_rank = kThreads;
  // Hybrid slicing parks several per-thread footprints near capacity
  // boundaries, where cold-start bias in a sampled simulation is largest;
  // spend more references to keep tracer and reference in agreement.
  tracer.max_refs_per_kernel = 4'000'000;

  // Collect hybrid signatures at the small rank counts and extrapolate.
  std::vector<trace::TaskTrace> series;
  for (std::uint32_t ranks : small_ranks)
    series.push_back(synth::trace_task(app, ranks, 0, tracer));
  const auto extrapolated = core::extrapolate_task(series, target_ranks);

  const auto synthetic =
      trace::AppSignature::for_task(extrapolated.trace, synth::comm_traces(app, target_ranks));

  const auto prediction_extrap =
      psins::predict_hybrid(synthetic, machine, kThreads, kEfficiency);

  // Collected hybrid trace at the target rank count.
  const auto collected = synth::collect_signature(app, target_ranks, tracer);
  const auto prediction_coll =
      psins::predict_hybrid(collected, machine, kThreads, kEfficiency);

  // Hybrid reference ("measured") run.
  psins::ReferenceOptions reference;
  reference.max_refs_per_kernel = 4'000'000;
  reference.threads_per_rank = kThreads;
  reference.thread_efficiency = kEfficiency;
  const auto measured = psins::measure_run(app, target_ranks, machine, reference);

  util::Table table(
      {"Layout", "Trace Type", "Predicted Runtime (s)", "% Error"});
  auto row = [&](const char* type, double predicted) {
    table.add_row({util::format("%u ranks x %u threads", target_ranks, kThreads), type,
                   util::format("%.1f", predicted),
                   util::human_percent(
                       stats::absolute_relative_error(predicted, measured.runtime_seconds),
                       1)});
  };
  row("Extrap.", prediction_extrap.runtime_seconds);
  row("Coll.", prediction_coll.runtime_seconds);
  table.print(std::cout,
              util::format("UH3D hybrid at %u cores, measured %.1f s:",
                           target_ranks * kThreads, measured.runtime_seconds));

  std::printf("\n%s\n", extrapolated.report.summary().c_str());
  std::printf(
      "Reading: the extrapolation methodology carries over to hybrid mode —\n"
      "shared-L3 contention is part of the *measured* feature vectors, and the\n"
      "canonical forms track it.  The practical caveat doubles, though: hybrid\n"
      "mode has capacity crossings for both the combined footprint (shared L3)\n"
      "and the per-thread slice (private L1/L2), a factor of T apart, so the\n"
      "cliff-free training-window discipline (DESIGN.md \u00a76) must clear both.\n");
  return 0;
}
