// The machine profile.
//
// "The machine profile is a description of the rates at which a machine can
// perform certain fundamental operations through simple benchmarks or
// projections" (Section III).  A MachineProfile bundles everything PSiNS
// needs about one target system: its cache hierarchy description (for the
// tracer's target-mimicking simulation), the MultiMAPS bandwidth surface,
// floating-point issue parameters, the interconnect model, and the timing
// model that stands in for the physical machine.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "machine/energy.hpp"
#include "machine/multimaps.hpp"
#include "machine/timing.hpp"
#include "memsim/config.hpp"
#include "simmpi/network.hpp"

namespace pmacx::machine {

/// Static description of one target system (before profiling).
struct TargetSystem {
  std::string name;
  memsim::HierarchyConfig hierarchy;
  double clock_ghz = 2.6;
  double flops_per_cycle = 4.0;   ///< peak FP ops issued per cycle
  double issue_width = 4.0;       ///< superscalar width the ILP term saturates
  double div_cycles = 20.0;       ///< unpipelined divide/sqrt cost
  double latency_exposure = 0.35; ///< fraction of memory latency not hidden
  double mem_fp_overlap = 0.8;    ///< fraction of FP work overlapped with memory
  simmpi::NetworkModel network;
  EnergyModel energy;             ///< per-event energies + static power
};

/// The profiled machine: target description plus the measured surface.
struct MachineProfile {
  TargetSystem system;
  BandwidthSurface surface;
  MemTimingModel timing;

  /// Seconds to execute the given FP work at the given ILP: the effective
  /// rate is peak × min(ilp / issue width, 1), divides cost extra.
  double fp_seconds(double adds, double muls, double fmas, double divs, double ilp) const;
};

/// Runs MultiMAPS against the target and assembles its profile.  This is
/// the "probe the target machine" step of trace-driven modeling; it does
/// not require the application, only the system description.  Timed as the
/// `machine.build_profile` stage.
MachineProfile build_profile(const TargetSystem& system, const MultiMapsOptions& options = {});

}  // namespace pmacx::machine
