// Seeded input generation: the benchmark's RNG, request sequences, PREDICT
// keys and widened traces.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "util/strings.hpp"

namespace perfbench {

namespace {

using pmacx::trace::BlockElement;
using pmacx::trace::InstrElement;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  SeedRng rng(a ^ (b * 0x9e3779b97f4a7c15ULL));
  rng.next();
  return rng.next();
}

/// Cumulative hit rates stay ordered and inside [0, 1] when every level's
/// miss rate is scaled by the same factor.
double scale_miss(double hit_rate, double factor) {
  return std::clamp(1.0 - (1.0 - hit_rate) * factor, 0.0, 1.0);
}

}  // namespace

std::uint64_t SeedRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeedRng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t SeedRng::below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

std::string PredictKey::label() const {
  const std::string source =
      trace_paths.size() == 1 ? trace_paths.front() : app + "[" + std::to_string(trace_paths.size()) + "]";
  return pmacx::util::format("%s@%u*%.6g", source.c_str(), target_cores, work_scale);
}

std::vector<std::size_t> request_sequence(std::uint64_t seed, std::size_t n, std::size_t base_keys,
                                          double zipf_s, std::size_t extra_keys,
                                          double extra_share) {
  // Exact quotas: each key appears round(n * its probability) times (largest
  // remainders fill the rounding gap), so every seed sends the same mix and
  // only the order and the keys' parameters change.
  std::vector<double> weight;
  const std::size_t total_keys = base_keys + extra_keys;
  double base_total = 0;
  for (std::size_t r = 0; r < base_keys; ++r)
    base_total += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
  const double share = extra_keys > 0 ? extra_share : 0.0;
  for (std::size_t r = 0; r < base_keys; ++r)
    weight.push_back((1.0 - share) / std::pow(static_cast<double>(r + 1), zipf_s) / base_total);
  for (std::size_t e = 0; e < extra_keys; ++e) weight.push_back(share / static_cast<double>(extra_keys));
  std::vector<std::size_t> count(total_keys);
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < total_keys; ++k) {
    const double exact = weight[k] * static_cast<double>(n);
    count[k] = static_cast<std::size_t>(std::floor(exact));
    assigned += count[k];
    remainder.emplace_back(exact - std::floor(exact), k);
  }
  std::stable_sort(remainder.begin(), remainder.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < n; ++i, ++assigned) ++count[remainder[i % total_keys].second];
  std::vector<std::size_t> sequence;
  sequence.reserve(n);
  for (std::size_t k = 0; k < total_keys; ++k) sequence.insert(sequence.end(), count[k], k);
  SeedRng rng(seed);
  for (std::size_t i = sequence.size(); i > 1; --i) std::swap(sequence[i - 1], sequence[rng.below(i)]);
  return sequence;
}

pmacx::trace::TaskTrace widen_trace(const pmacx::trace::TaskTrace& base, std::size_t copies,
                                    std::uint64_t seed) {
  pmacx::trace::TaskTrace wide = base;
  wide.blocks.clear();
  wide.blocks.reserve(base.blocks.size() * copies);
  std::uint64_t stride = 1;
  for (const auto& block : base.blocks) stride = std::max(stride, block.id + 1);
  for (std::size_t copy = 0; copy < copies; ++copy) {
    for (const auto& block : base.blocks) {
      SeedRng rng(mix(mix(seed, copy), block.id));
      const double count_factor = 0.6 + 0.8 * rng.uniform();
      const double miss_factor = 0.9 + 0.2 * rng.uniform();
      const double ilp_factor = 0.95 + 0.1 * rng.uniform();
      auto out = block;
      out.id = block.id + copy * stride;
      for (BlockElement element :
           {BlockElement::VisitCount, BlockElement::FpAdd, BlockElement::FpMul,
            BlockElement::FpFma, BlockElement::FpDivSqrt, BlockElement::MemLoads,
            BlockElement::MemStores, BlockElement::WorkingSetBytes})
        out.set(element, block.get(element) * count_factor);
      for (BlockElement element :
           {BlockElement::HitRateL1, BlockElement::HitRateL2, BlockElement::HitRateL3})
        out.set(element, scale_miss(block.get(element), miss_factor));
      out.set(BlockElement::Ilp, block.get(BlockElement::Ilp) * ilp_factor);
      for (auto& instruction : out.instructions) {
        for (InstrElement element :
             {InstrElement::ExecCount, InstrElement::MemOps, InstrElement::FpOps})
          instruction.set(element, instruction.get(element) * count_factor);
        for (InstrElement element :
             {InstrElement::HitRateL1, InstrElement::HitRateL2, InstrElement::HitRateL3})
          instruction.set(element, scale_miss(instruction.get(element), miss_factor));
      }
      wide.blocks.push_back(std::move(out));
    }
  }
  wide.sort_blocks();
  return wide;
}

}  // namespace perfbench
