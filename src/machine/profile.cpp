#include "machine/profile.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace pmacx::machine {

double MachineProfile::fp_seconds(double adds, double muls, double fmas, double divs,
                                  double ilp) const {
  PMACX_CHECK(ilp > 0, "fp_seconds: non-positive ilp");
  const double efficiency = std::min(ilp / system.issue_width, 1.0);
  const double rate =
      system.flops_per_cycle * efficiency * system.clock_ghz * 1e9;  // flops per second
  const double pipelined = adds + muls + 2.0 * fmas;
  const double div_seconds =
      divs * system.div_cycles / (system.clock_ghz * 1e9);
  return pipelined / rate + div_seconds;
}

MachineProfile build_profile(const TargetSystem& system, const MultiMapsOptions& options) {
  util::metrics::StageTimer timer("machine.build_profile");
  system.hierarchy.validate();
  PMACX_CHECK(system.clock_ghz > 0, "profile: bad clock");
  PMACX_CHECK(system.flops_per_cycle > 0, "profile: bad fp rate");
  PMACX_CHECK(system.issue_width > 0, "profile: bad issue width");
  PMACX_CHECK(system.mem_fp_overlap >= 0 && system.mem_fp_overlap <= 1,
              "profile: overlap out of [0,1]");
  system.energy.validate();

  MemTimingModel timing(system.hierarchy, system.clock_ghz, system.latency_exposure);
  BandwidthSurface surface(run_multimaps(system.hierarchy, timing, options));
  return MachineProfile{system, std::move(surface), timing};
}

}  // namespace pmacx::machine
