// Kernel specifications — the synthetic analogue of a static basic block.
//
// A KernelSpec fully describes one basic block of a synthetic application at
// one (core count, rank): how often it runs, how many references and flops
// each visit issues, over what footprint and with what locality pattern.
// Applications produce their kernel lists with per-element scaling laws of
// the core count, which is what makes the downstream extrapolation problem
// real: some elements stay constant, some shrink like N/P, some grow like
// log₂ P (reduction trees) or linearly in P (bookkeeping over rank tables).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "synth/patterns.hpp"
#include "trace/block.hpp"

namespace pmacx::synth {

/// Floating-point work per kernel visit, by operation class.
struct FpMix {
  double adds = 0.0;
  double muls = 0.0;
  double fmas = 0.0;
  double divs = 0.0;

  double total() const { return adds + muls + 2.0 * fmas + divs; }
};

/// Complete description of one kernel at one (core count, rank).
struct KernelSpec {
  std::uint64_t block_id = 0;       ///< stable across core counts
  trace::SourceLocation location;
  Pattern pattern = Pattern::Sequential;
  std::uint64_t visits = 1;         ///< dynamic executions of the block
  std::uint64_t refs_per_visit = 0; ///< memory references per visit
  std::uint32_t elem_bytes = 8;
  std::uint32_t stride_elems = 1;
  double store_fraction = 0.25;
  std::uint64_t footprint_bytes = 4096;  ///< data region the refs fall in
  FpMix fp_per_visit;
  double ilp = 2.0;                 ///< mean independent ops per issue window
  double dep_chain = 4.0;           ///< mean dependency chain length
  std::uint32_t mem_instructions = 4;  ///< per-instruction sub-records (memory)
  std::uint32_t fp_instructions = 2;   ///< per-instruction sub-records (fp)

  /// Total memory references this kernel issues in the run.
  std::uint64_t total_refs() const { return visits * refs_per_visit; }
  /// Total floating-point operations in the run.
  double total_fp_ops() const { return static_cast<double>(visits) * fp_per_visit.total(); }
  /// Abstract work units (for comm-trace compute bursts): references plus
  /// half-weighted flops, a common first-order CPU-work proxy.
  double work_units() const {
    return static_cast<double>(total_refs()) + 0.5 * total_fp_ops();
  }

  /// Throws util::Error on impossible parameters.
  void validate() const;
};

/// Scaling-law helpers shared by the application models.  `p` is the core
/// count; all return positive values.
namespace laws {

/// Strong-scaled share: total/p, floored at `min_value`.
double per_core(double total, double p, double min_value = 1.0);

/// Surface-to-volume share: (total/p)^(2/3)·k — halo sizes under a 3-D
/// domain decomposition.
double surface(double total, double p, double scale = 1.0);

/// Logarithmic growth: base + slope·log2(p).
double log_growth(double base, double slope, double p);

/// Linear growth: base + slope·p.
double linear_growth(double base, double slope, double p);

}  // namespace laws

}  // namespace pmacx::synth
