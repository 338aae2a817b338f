// Deterministic random number generation.
//
// Every stochastic choice in pmacx (synthetic address streams, noise on
// scaling laws, k-means seeding) draws from an Xoshiro256** stream seeded by
// SplitMix64 so that the entire pipeline — trace collection through
// prediction — is reproducible bit-for-bit across runs and platforms.  Seeds
// are derived hierarchically (app → rank → block) via `derive_seed` so that
// changing one block's stream does not perturb any other stream.
#pragma once

#include <cstdint>

namespace pmacx::util {

/// SplitMix64 step: maps any 64-bit value to a well-mixed 64-bit value.
/// Used for seeding and for hierarchical seed derivation.
std::uint64_t splitmix64(std::uint64_t& state);

/// Derives an independent child seed from a parent seed and an index.
/// derive_seed(s, i) != derive_seed(s, j) for i != j with high probability.
std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t index);

/// Xoshiro256** PRNG — fast, high-quality, 2^256-1 period.
/// Satisfies the UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words through SplitMix64 as recommended by the
  /// generator's authors; any seed (including 0) is valid.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next 64 uniformly random bits.  Inline: the reference generators
  /// draw once or twice per simulated memory reference.
  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t below(std::uint64_t n);

  /// below(n) for a caller that draws from one range many times and has
  /// computed its rejection threshold below_threshold(n) once.  Unchecked:
  /// n must be > 0.
  std::uint64_t below(std::uint64_t n, std::uint64_t threshold) {
    // Rejection sampling to avoid modulo bias.
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Rejection threshold of below(n): the draws under it are discarded.
  static std::uint64_t below_threshold(std::uint64_t n) { return (0 - n) % n; }

  /// Standard normal deviate (Box–Muller, stateless variant using two draws).
  double normal();

  /// Normal deviate with given mean and standard deviation.
  double normal(double mean, double stddev);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4];
};

}  // namespace pmacx::util
