// Self-tests of the benchmark's own machinery: seeded inputs, the
// percentile rule, span self time, and the max_rps search.  Exits non-zero
// on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "synth/registry.hpp"
#include "synth/tracer.hpp"
#include "machine/targets.hpp"
#include "trace/binary_io.hpp"
#include "util/crc32.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<std::size_t> draws(std::uint64_t seed, std::size_t n) {
  return request_sequence(seed, n, 32, 1.1, 4, 0.25);
}

void test_seeded_inputs() {
  expect(draws(7, 500) == draws(7, 500), "same seed, same request sequence");
  expect(draws(7, 500) != draws(8, 500), "different seed, different request sequence");
  const auto sequence = draws(7, 5000);
  std::size_t head = 0;
  std::size_t extra = 0;
  for (std::size_t key : sequence) {
    head += key == 0 ? 1 : 0;
    extra += key >= 32 ? 1 : 0;
  }
  expect(head > sequence.size() / 10, "Zipf puts the most weight on rank 0");
  expect(extra > sequence.size() / 5 && extra < sequence.size() * 3 / 10,
         "about a quarter of requests name the extra keys");

  const auto app = pmacx::synth::make_app("specfem3d", 1.0);
  pmacx::synth::TracerOptions options;
  options.target = pmacx::machine::target_by_name("bluewaters-p1").hierarchy;
  options.max_refs_per_kernel = 20'000;
  const auto base = pmacx::synth::trace_task(*app, 96, 0, options);
  auto crc = [&](std::uint64_t seed) {
    return pmacx::util::crc32(pmacx::trace::to_binary(widen_trace(base, 8, seed)));
  };
  expect(crc(1) == crc(1), "same seed, same widened-trace CRC");
  expect(crc(1) != crc(2), "different seed, different widened-trace CRC");
  const auto wide = widen_trace(base, 8, 1);
  expect(wide.blocks.size() == 8 * base.blocks.size(), "widening replicates every block");
  wide.validate();  // throws on out-of-range rates or unsorted ids
}

void test_percentile_rule() {
  expect(!percentile_supported(180, 0.95), "180 samples leave 9 beyond p95");
  expect(percentile_supported(200, 0.95), "200 samples leave 10 beyond p95");
  expect(percentile_supported(20, 0.5), "20 samples support the median");
  expect(!percentile_supported(0, 0.5), "no samples support nothing");
  std::vector<double> values;
  for (int i = 1; i <= 200; ++i) values.push_back(i);
  std::size_t beyond = 0;
  const double p95 = percentile(values, 0.95);
  for (double v : values) beyond += v > p95 ? 1 : 0;
  expect(beyond == 10, "p95 of 1..200 has exactly 10 samples above it");
  expect(std::fabs(median(values) - 100.5) < 1e-12, "median interpolates");
}

void test_self_time() {
  // parent [0, 100); children [10, 30) and [20, 50) overlap (parallel);
  // grandchild [12, 14) under the first child.
  std::vector<Span> spans(4);
  spans[0] = {1, 0, 0, "root", 0, 100};
  spans[1] = {2, 1, 0, "a", 10, 30};
  spans[2] = {3, 1, 0, "b", 20, 50};
  spans[3] = {4, 2, 0, "c", 12, 14};
  const std::vector<double> self = self_seconds(spans);
  expect(std::fabs(self[0] - 60e-9) < 1e-15, "parallel children are not double-subtracted");
  expect(std::fabs(self[1] - 18e-9) < 1e-15, "nested child is subtracted from its parent");
  expect(std::fabs(self[2] - 30e-9) < 1e-15, "leaf keeps its whole duration");
  // A child that outlives its parent is clipped to the parent.
  std::vector<Span> clipped = {{1, 0, 0, "p", 0, 10}, {2, 1, 0, "late", 5, 40}};
  expect(std::fabs(self_seconds(clipped)[0] - 5e-9) < 1e-15, "children clip to the parent");
}

void test_rate_search() {
  int probes = 0;
  const double found = search_max_rate([](double rate) { return rate <= 73.0; }, 10, 1000, 0.05,
                                       12, &probes);
  expect(found <= 73.0 && found >= 73.0 / 1.05, "search brackets the true capacity");
  expect(probes <= 12, "search respects its probe budget");
  search_max_rate([](double) { return true; }, 10, 1000, 0.05, 50, &probes);
  expect(probes <= 8, "search stops at the upper bound when everything passes");
  expect(search_max_rate([](double) { return false; }, 10, 1000, 0.05, 50, &probes) == 0.0 &&
             probes == 1,
         "search stops after one probe when the lowest rate fails");
  // A flaky stub must still terminate within the budget.
  int calls = 0;
  search_max_rate([&](double) { return (++calls % 2) == 0; }, 10, 1000, 1e-9, 9, &probes);
  expect(probes <= 9, "search terminates on a non-monotone stub");
}

}  // namespace

int main() {
  test_seeded_inputs();
  test_percentile_rule();
  test_self_time();
  test_rate_search();
  if (failures > 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
