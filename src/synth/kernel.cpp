#include "synth/kernel.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pmacx::synth {

void KernelSpec::validate() const {
  PMACX_CHECK(block_id != 0, "kernel block id must be non-zero");
  PMACX_CHECK(refs_per_visit > 0 || fp_per_visit.total() > 0,
              "kernel '" + location.function + "' does no work");
  PMACX_CHECK(elem_bytes > 0, "kernel element size must be positive");
  PMACX_CHECK(footprint_bytes >= elem_bytes, "kernel footprint smaller than one element");
  PMACX_CHECK(store_fraction >= 0.0 && store_fraction <= 1.0, "store fraction out of range");
  PMACX_CHECK(ilp > 0.0, "ilp must be positive");
  PMACX_CHECK(dep_chain > 0.0, "dep chain must be positive");
  PMACX_CHECK(mem_instructions > 0 || refs_per_visit == 0,
              "memory work requires at least one memory instruction");
  PMACX_CHECK(fp_instructions > 0 || fp_per_visit.total() == 0,
              "fp work requires at least one fp instruction");
}

namespace laws {

double per_core(double total, double p, double min_value) {
  PMACX_CHECK(p > 0, "per_core: non-positive core count");
  return std::max(total / p, min_value);
}

double surface(double total, double p, double scale) {
  PMACX_CHECK(p > 0, "surface: non-positive core count");
  return std::max(scale * std::pow(total / p, 2.0 / 3.0), 1.0);
}

double log_growth(double base, double slope, double p) {
  PMACX_CHECK(p > 0, "log_growth: non-positive core count");
  return base + slope * std::log2(p);
}

double linear_growth(double base, double slope, double p) { return base + slope * p; }

}  // namespace laws

}  // namespace pmacx::synth
