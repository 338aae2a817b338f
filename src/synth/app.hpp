// Synthetic application interface.
//
// A SyntheticApp is the stand-in for a real MPI application binary: given a
// core count and a rank it yields (a) the kernel list the tracer executes —
// the computation side — and (b) the rank's communication timeline.  Both
// are deterministic functions of (cores, rank), which is exactly the
// property strong-scaled SPMD codes have and which the trace extrapolation
// methodology exploits.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "synth/kernel.hpp"
#include "trace/comm.hpp"

namespace pmacx::util {
class ThreadPool;
}

namespace pmacx::synth {

/// Abstract synthetic MPI application.
class SyntheticApp {
 public:
  virtual ~SyntheticApp() = default;

  /// Application name ("specfem3d", "uh3d").
  virtual std::string name() const = 0;

  /// Number of simulated timesteps (fixed across core counts).
  virtual std::uint32_t timesteps() const = 0;

  /// The rank's kernels at this core count.  Kernel block ids are stable
  /// across core counts so traces align for extrapolation.
  virtual std::vector<KernelSpec> kernels(std::uint32_t cores, std::uint32_t rank) const = 0;

  /// The rank's communication timeline at this core count.
  virtual trace::CommTrace comm_trace(std::uint32_t cores, std::uint32_t rank) const = 0;

  /// Abstract computation work units of the rank (sum over kernels); used to
  /// scale comm-trace compute bursts and to find the demanding rank cheaply.
  double work_units(std::uint32_t cores, std::uint32_t rank) const;

  /// Rank with the most computation work.  The synthetic apps put their load
  /// imbalance peak on rank 0 by construction.
  virtual std::uint32_t demanding_rank(std::uint32_t cores) const;
};

/// Every rank's communication timeline at `cores`, in rank order.  Ranks
/// are independent, so a (non-serial) pool instantiates them in parallel;
/// the result is identical either way.
std::vector<trace::CommTrace> comm_traces(const SyntheticApp& app, std::uint32_t cores,
                                          util::ThreadPool* pool = nullptr);

/// Deterministic per-rank load-imbalance factor in [1, 1+amplitude], with the
/// unique maximum at rank 0 (smooth cos² profile across ranks).
double imbalance_factor(std::uint32_t rank, std::uint32_t cores, double amplitude);

/// Parameters for the shared bulk-synchronous communication skeleton.
struct CommPattern {
  std::uint32_t timesteps = 10;
  std::uint64_t halo_bytes = 1 << 16;   ///< per neighbour exchange
  std::uint32_t allreduce_every = 1;    ///< timesteps between allreduces (0 = never)
  std::uint32_t allreduce_count = 1;    ///< allreduces per firing (CG: 2 dot products)
  std::uint64_t allreduce_bytes = 8;
  std::uint32_t alltoall_every = 0;     ///< timesteps between alltoalls (0 = never)
  std::uint64_t alltoall_bytes = 0;
  double units_per_step = 1.0;          ///< this rank's compute units per timestep
};

/// Builds a deadlock-free bulk-synchronous timeline: per timestep, a
/// two-phase ring halo exchange (even/odd pairing, rendezvous-safe) plus
/// periodic collectives.  Requires an even core count ≥ 2.
trace::CommTrace build_comm_trace(std::uint32_t cores, std::uint32_t rank,
                                  const CommPattern& pattern);

}  // namespace pmacx::synth
