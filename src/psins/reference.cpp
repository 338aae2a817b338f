#include "psins/reference.hpp"

#include <algorithm>

#include "memsim/hierarchy.hpp"
#include "simmpi/replay.hpp"
#include "synth/replay.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pmacx::psins {
namespace {

/// Per-reference-timed computation seconds of one rank: every kernel's
/// stream goes through the cache simulator and is charged exact per-level
/// costs; sampled kernels scale time by their sampling factor.
double simulate_rank_compute_seconds(const synth::SyntheticApp& app, std::uint32_t cores,
                                     std::uint32_t rank,
                                     const machine::MachineProfile& machine,
                                     const ReferenceOptions& options) {
  const memsim::HierarchyConfig& hierarchy = machine.system.hierarchy;
  const std::uint32_t threads = std::max<std::uint32_t>(options.threads_per_rank, 1);
  memsim::CacheHierarchy sim(hierarchy, threads,
                             std::min(options.shared_from_level, hierarchy.levels.size()));
  double seconds = 0.0;

  for (const synth::KernelSpec& kernel : app.kernels(cores, rank)) {
    const std::uint64_t total_refs = kernel.total_refs();
    const std::uint64_t sim_refs = std::min(total_refs, options.max_refs_per_kernel);
    const double scale =
        sim_refs > 0 ? static_cast<double>(total_refs) / static_cast<double>(sim_refs) : 0.0;

    if (sim_refs > 0) {
      // The tracer's streams: the "machine" executes the same address
      // streams the tracer observed.
      std::vector<synth::RefStream> streams =
          synth::kernel_streams(kernel, threads, hierarchy.line_bytes(), synth::kStreamSeed);
      const memsim::AccessCounters before = sim.scope(kernel.block_id);
      synth::replay(sim, streams, sim_refs, kernel.block_id);
      memsim::AccessCounters delta = sim.scope(kernel.block_id);
      delta.line_accesses -= before.line_accesses;
      for (std::size_t lvl = 0; lvl < memsim::kMaxLevels; ++lvl)
        delta.level_hits[lvl] -= before.level_hits[lvl];
      delta.memory_accesses -= before.memory_accesses;
      delta.tlb_misses -= before.tlb_misses;

      seconds += machine.timing.seconds_for(delta) * scale;
    }

    seconds += machine.fp_seconds(
                   static_cast<double>(kernel.visits) * kernel.fp_per_visit.adds,
                   static_cast<double>(kernel.visits) * kernel.fp_per_visit.muls,
                   static_cast<double>(kernel.visits) * kernel.fp_per_visit.fmas,
                   static_cast<double>(kernel.visits) * kernel.fp_per_visit.divs, kernel.ilp) *
               (1.0 - machine.system.mem_fp_overlap);
    // The overlapped FP fraction hides under memory time in this
    // memory-bound regime, mirroring the machine's real behaviour.
  }
  // Hybrid: the rank's work ran on `threads` cores at the given efficiency.
  // Pure MPI (one thread) has no intra-rank parallel overhead to model.
  if (threads == 1) return seconds;
  return seconds / (static_cast<double>(threads) * options.thread_efficiency);
}

}  // namespace

MeasuredRun measure_run(const synth::SyntheticApp& app, std::uint32_t cores,
                        const machine::MachineProfile& machine,
                        const ReferenceOptions& options) {
  PMACX_CHECK(cores > 0, "measure_run: zero cores");
  const std::uint32_t demanding = app.demanding_rank(cores);

  const double demanding_seconds =
      simulate_rank_compute_seconds(app, cores, demanding, machine, options);
  const double demanding_units = app.work_units(cores, demanding);
  PMACX_CHECK(demanding_units > 0, "measure_run: zero work units");
  const double seconds_per_unit = demanding_seconds / demanding_units;

  // Per-rank noise: run-to-run variation of the "measurement".
  const std::vector<trace::CommTrace> comm = synth::comm_traces(app, cores);
  std::vector<double> scales(cores);
  util::Rng rng(options.seed);
  for (double& scale : scales) {
    const double noise = 1.0 + options.noise * rng.normal();
    scale = seconds_per_unit * std::max(noise, 0.5);
  }

  const std::vector<simmpi::RankTimeline> timelines = simmpi::timelines_from_comm(comm, scales);
  const simmpi::ReplayResult replayed = simmpi::replay(timelines, machine.system.network);

  MeasuredRun run;
  run.runtime_seconds = replayed.runtime;
  run.compute_seconds = replayed.ranks[demanding].compute_seconds;
  run.comm_seconds = replayed.ranks[demanding].comm_seconds;
  return run;
}

}  // namespace pmacx::psins
