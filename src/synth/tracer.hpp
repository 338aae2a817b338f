// The tracer: synthetic-application signature collection.
//
// Implements the pipeline of the paper's Fig. 2: the application's memory
// address stream is generated on the fly (the PEBIL role), pushed through a
// cache simulator configured for the *target* system, and condensed into a
// per-task summary trace file — no raw address stream ever hits disk, which
// is the paper's answer to the ">2 TB/hour per process" problem.
//
// Collection cost is bounded by sampling: a kernel whose dynamic reference
// count exceeds `max_refs_per_kernel` is simulated for that many references
// and its *counts* are recorded analytically (the full dynamic totals) while
// its *rates* (cache hit rates) come from the simulated sample.  This
// mirrors how production tracers bound instrumentation cost [paper ref 1].
#pragma once

#include <cstdint>
#include <vector>

#include "memsim/config.hpp"
#include "synth/app.hpp"
#include "synth/replay.hpp"
#include "trace/signature.hpp"

namespace pmacx::util {
class ThreadPool;
}

namespace pmacx::synth {

/// Knobs for signature collection.
struct TracerOptions {
  /// The hierarchy the cache simulator mimics — the *target* system (which
  /// need not be the base system the app "runs" on; Section III-A).
  memsim::HierarchyConfig target;
  /// Cap on simulated references per kernel (sampling threshold).
  std::uint64_t max_refs_per_kernel = 2'000'000;
  /// Set-sampling factor forwarded to the cache simulator: simulate only
  /// 1/2^sample_shift of cache lines (hit rates stay unbiased; collection
  /// cost drops proportionally).  0 = full simulation.
  std::uint32_t sample_shift = 0;
  /// Hybrid MPI/OpenMP mode: threads hosted by the traced rank.  Each
  /// thread works a slice of every kernel's footprint through private
  /// copies of the shallow cache levels while levels ≥ shared_from_level
  /// are shared — so the trace captures shared-cache contention (the paper
  /// requires tracing in the target's parallelization mode).  1 = pure MPI.
  std::uint32_t threads_per_rank = 1;
  /// First cache level the threads share (clamped to the level count).
  /// Default 2: private L1/L2, shared L3 — the common CMP layout.
  std::size_t shared_from_level = 2;
  /// Collect per-instruction sub-records (Section IV traces instruction
  /// level detail for extrapolation).
  bool instruction_detail = true;
  /// Seed for the generated address streams.
  std::uint64_t seed = kStreamSeed;
  /// Host-side execution pool (not owned; null = serial).  collect_signature
  /// fans independent per-rank trace_task simulations and per-rank comm
  /// trace instantiation across it.  This is an *execution* knob — distinct
  /// from threads_per_rank, which *models* hybrid OpenMP threads inside the
  /// traced rank — and never changes the collected signature: every rank's
  /// simulation is self-contained and results are kept in rank order.
  util::ThreadPool* pool = nullptr;
};

/// Traces one rank of `app` at `cores`, producing its summary trace file.
trace::TaskTrace trace_task(const SyntheticApp& app, std::uint32_t cores, std::uint32_t rank,
                            const TracerOptions& options);

/// Collects a full application signature at `cores`: computation traces for
/// `ranks_to_trace` (default: just the most demanding rank, as the paper's
/// methodology uses) and communication traces for every rank.
trace::AppSignature collect_signature(const SyntheticApp& app, std::uint32_t cores,
                                      const TracerOptions& options,
                                      std::vector<std::uint32_t> ranks_to_trace = {});

}  // namespace pmacx::synth
