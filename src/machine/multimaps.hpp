// MultiMAPS: the memory-bandwidth probing benchmark and its surface.
//
// "MultiMAPS probes a given system to generate a series of memory bandwidth
// measurements across a variety of stride and working set sizes, which ...
// is reflected by varying cache hit rates" (Section III-A, Fig. 1).  The
// probe runs strided and random reference sweeps over growing working sets
// through the target's cache simulator, times them with the parametric
// timing model, and records (hit rates → bandwidth) samples.  The surface
// answers PSiNS's per-block lookups: given a block's simulated hit rates,
// what bandwidth does this machine sustain for references that behave like
// that?
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "machine/timing.hpp"
#include "memsim/config.hpp"

namespace pmacx::machine {

/// One probed point of the surface.
struct BandwidthSample {
  std::uint64_t working_set_bytes = 0;
  std::uint32_t stride_elems = 1;
  bool random = false;  ///< random-access probe instead of strided
  std::array<double, memsim::kMaxLevels> hit_rates{};  ///< cumulative, per level
  double bandwidth_bytes_per_s = 0.0;
};

/// The measured surface.
///
/// The physically faithful representation: the cost of one byte is linear
/// in the cumulative *miss* fractions (every miss at level i adds level
/// i+1's incremental cost), so the surface is a least-squares regression of
/// cost-per-byte on (1, 1-hr1, 1-hr2, 1-hr3) over the probe samples —
/// exactly how trace-driven frameworks turn a probed bandwidth sweep into a
/// machine model.  When the regression is ill-posed (too few / degenerate
/// samples) lookups fall back to k-nearest inverse-distance interpolation
/// in hit-rate space.
class BandwidthSurface {
 public:
  explicit BandwidthSurface(std::vector<BandwidthSample> samples);

  /// Bandwidth for a reference population with the given cumulative hit
  /// rates (unused deeper levels should repeat the last real level's rate,
  /// which is how traces store them).
  double lookup(const std::array<double, memsim::kMaxLevels>& hit_rates) const;

  /// k-nearest inverse-distance interpolation (the fallback path), exposed
  /// for comparison and tests.
  double lookup_idw(const std::array<double, memsim::kMaxLevels>& hit_rates) const;

  /// True when lookups use the miss-fraction cost regression.
  bool regression_active() const { return regression_ok_; }

  const std::vector<BandwidthSample>& samples() const { return samples_; }

 private:
  std::vector<BandwidthSample> samples_;
  /// cost_per_byte ≈ coef_[0] + Σ coef_[i+1]·(1 - hr_i)
  std::array<double, 1 + memsim::kMaxLevels> coef_{};
  double min_cost_ = 0.0;  ///< clamp range from the samples
  double max_cost_ = 0.0;
  bool regression_ok_ = false;
};

/// Probe configuration.
struct MultiMapsOptions {
  std::vector<std::uint64_t> working_sets = {
      16ull << 10, 64ull << 10, 256ull << 10, 1ull << 20,
      4ull << 20,  16ull << 20, 48ull << 20};
  std::vector<std::uint32_t> strides = {1, 2, 4, 8};
  bool include_random = true;           ///< add random-access probes
  std::uint64_t max_refs_per_probe = 1'500'000;
  std::uint64_t min_refs_per_probe = 200'000;
  std::uint64_t seed = 0x3a95;
};

/// Runs the benchmark against `hierarchy` timed by `timing`; returns the
/// full sample set (one per (working set, stride) plus random probes), in
/// that order.  The probes are independent simulations and run on
/// util::shared_pool(); the samples are the same at any thread count.
std::vector<BandwidthSample> run_multimaps(const memsim::HierarchyConfig& hierarchy,
                                           const MemTimingModel& timing,
                                           const MultiMapsOptions& options = {});

}  // namespace pmacx::machine
