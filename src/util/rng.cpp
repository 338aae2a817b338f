#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace pmacx::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t index) {
  // Mix the index in via two SplitMix64 rounds so adjacent indices land far
  // apart in seed space.
  std::uint64_t s = parent ^ (0x6a09e667f3bcc909ULL + index);
  (void)splitmix64(s);
  return splitmix64(s);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::below(std::uint64_t n) {
  PMACX_CHECK(n > 0, "Rng::below requires n > 0");
  return below(n, below_threshold(n));
}

double Rng::normal() {
  // Box–Muller; discards the second deviate to keep the generator stateless.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

}  // namespace pmacx::util
