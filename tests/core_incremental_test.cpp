// Incremental refit tests: fit_task_models_incremental must be byte-for-byte
// equivalent to a cold fit_task_models over the same inputs — model
// parameters, point traces, interval traces, everything — for every upload
// order a live server could see, while provably doing less work (reuse
// counters).  Plus the pmacx-ckpt-v3 round trip of every field a fitted
// element keeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/extrapolator.hpp"
#include "core/incremental.hpp"
#include "trace/binary_io.hpp"
#include "trace/task_trace.hpp"

namespace pmacx {
namespace {

using core::ExtrapolationOptions;
using core::IncrementalFitStats;
using core::TaskModelSet;
using trace::BlockElement;
using trace::TaskTrace;

/// A trace with known scaling laws at core count p (constant, 1/p, log p,
/// and a slowly rising rate — one clear winner per canonical form).
TaskTrace law_trace(double p) {
  TaskTrace task;
  task.app = "inc-demo";
  task.core_count = static_cast<std::uint32_t>(p);
  task.target_system = "test target";

  trace::BasicBlockRecord solve;
  solve.id = 1;
  solve.location = {"solver.c", 10, "solve"};
  solve.set(BlockElement::VisitCount, 42.0);
  solve.set(BlockElement::MemLoads, 1e10 / p);
  solve.set(BlockElement::MemStores, 4e9 / p);
  solve.set(BlockElement::BytesPerRef, 8.0);
  solve.set(BlockElement::HitRateL1, 0.4);
  solve.set(BlockElement::HitRateL2, 0.5 + 0.00004 * p);
  solve.set(BlockElement::HitRateL3, 0.95);
  solve.set(BlockElement::WorkingSetBytes, 4.6e9 / p);
  solve.set(BlockElement::Ilp, 3.5);
  solve.set(BlockElement::DepChainLength, 6.0);
  task.blocks.push_back(solve);

  trace::BasicBlockRecord reduce;
  reduce.id = 2;
  reduce.location = {"reduce.c", 2, "reduce"};
  reduce.set(BlockElement::VisitCount, 10.0);
  reduce.set(BlockElement::MemLoads, 4096.0 * (1.0 + std::log2(p)));
  reduce.set(BlockElement::BytesPerRef, 8.0);
  reduce.set(BlockElement::HitRateL1, 0.99);
  reduce.set(BlockElement::HitRateL2, 0.99);
  reduce.set(BlockElement::HitRateL3, 0.99);
  reduce.set(BlockElement::Ilp, 2.0);
  reduce.set(BlockElement::DepChainLength, 3.0);
  task.blocks.push_back(reduce);
  task.sort_blocks();
  return task;
}

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool bits_equal(const std::array<double, 3>& a, const std::array<double, 3>& b) {
  return std::memcmp(a.data(), b.data(), sizeof a) == 0;
}

/// Bitwise equality of every field of element i in two fitted sets: fit
/// series, scores, influence, and each candidate's form, status,
/// parameters, SSE, and R² (EXPECT_EQ on doubles would accept 0.0 == -0.0
/// and reject NaN == NaN — both wrong here).
void expect_same_element(const TaskModelSet& a, const TaskModelSet& b, std::size_t i) {
  std::vector<double> axis_a, values_a, axis_b, values_b;
  const core::FitSeries sa = a.alignment.fit_series(i, a.options.missing, axis_a, values_a);
  const core::FitSeries sb = b.alignment.fit_series(i, b.options.missing, axis_b, values_b);
  EXPECT_TRUE(bits_equal(sa.axis, sb.axis)) << "element " << i;
  EXPECT_TRUE(bits_equal(sa.values, sb.values)) << "element " << i;
  EXPECT_TRUE(bits_equal(a.scores_of(i), b.scores_of(i))) << "element " << i;
  EXPECT_EQ(a.influential[i], b.influential[i]) << "element " << i;
  const std::span<const stats::FittedModel> ca = a.candidates_of(i);
  const std::span<const stats::FittedModel> cb = b.candidates_of(i);
  ASSERT_EQ(ca.size(), cb.size()) << "element " << i;
  for (std::size_t c = 0; c < ca.size(); ++c) {
    const stats::FittedModel& fa = ca[c];
    const stats::FittedModel& fb = cb[c];
    EXPECT_EQ(fa.form, fb.form) << "element " << i << " candidate " << c;
    EXPECT_EQ(fa.ok, fb.ok) << "element " << i << " candidate " << c;
    EXPECT_TRUE(bits_equal(fa.params, fb.params)) << "element " << i << " candidate " << c;
    EXPECT_TRUE(bits_equal(fa.sse, fb.sse)) << "element " << i << " candidate " << c;
    EXPECT_TRUE(bits_equal(fa.r2, fb.r2)) << "element " << i << " candidate " << c;
  }
}

/// Byte-for-byte equality of two fitted sets.
void expect_identical(const TaskModelSet& a, const TaskModelSet& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.target_system, b.target_system);
  EXPECT_EQ(a.axis_name, b.axis_name);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.alignment.keys, b.alignment.keys);
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_element(a, b, i);
}

/// End-to-end check: the sets answer extrapolation queries (point and
/// interval) with byte-identical traces.
void expect_same_answers(const TaskModelSet& a, const TaskModelSet& b,
                         std::uint32_t target) {
  const core::ExtrapolationResult ra = core::extrapolate_from_models(a, target);
  const core::ExtrapolationResult rb = core::extrapolate_from_models(b, target);
  EXPECT_EQ(trace::to_binary(ra.trace), trace::to_binary(rb.trace));

  const core::ExtrapolationResult ia = core::extrapolate_from_models(a, target, 0.8);
  const core::ExtrapolationResult ib = core::extrapolate_from_models(b, target, 0.8);
  ASSERT_TRUE(ia.has_interval);
  ASSERT_TRUE(ib.has_interval);
  EXPECT_EQ(trace::to_binary(ia.trace_lo), trace::to_binary(ib.trace_lo));
  EXPECT_EQ(trace::to_binary(ia.trace_median), trace::to_binary(ib.trace_median));
  EXPECT_EQ(trace::to_binary(ia.trace_hi), trace::to_binary(ib.trace_hi));
}

ExtrapolationOptions serial_options() {
  ExtrapolationOptions options;
  options.threads = 1;
  return options;
}

std::vector<TaskTrace> sorted_by_cores(std::vector<TaskTrace> traces) {
  std::sort(traces.begin(), traces.end(),
            [](const TaskTrace& x, const TaskTrace& y) {
              return x.core_count < y.core_count;
            });
  return traces;
}

TEST(IncrementalFitTest, MatchesColdFitForEveryUploadOrder) {
  const std::vector<double> cores = {16, 32, 64, 128, 256};
  std::vector<TaskTrace> all;
  for (const double p : cores) all.push_back(law_trace(p));
  const ExtrapolationOptions options = serial_options();

  // Upload orders a live collection could accumulate in: ascending (the
  // common case), descending (every arrival prepends), and two shuffles.
  std::vector<std::vector<std::size_t>> orders = {{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}};
  std::mt19937_64 rng(17);
  for (int shuffle = 0; shuffle < 2; ++shuffle) {
    std::vector<std::size_t> order = {0, 1, 2, 3, 4};
    std::shuffle(order.begin(), order.end(), rng);
    orders.push_back(order);
  }

  for (const std::vector<std::size_t>& order : orders) {
    TaskModelSet previous;
    bool have_previous = false;
    std::vector<TaskTrace> arrived;
    for (const std::size_t next : order) {
      arrived.push_back(all[next]);
      if (arrived.size() < 2) continue;  // a one-point series cannot be fit
      const std::vector<TaskTrace> inputs = sorted_by_cores(arrived);

      IncrementalFitStats stats;
      const TaskModelSet incremental = core::fit_task_models_incremental(
          inputs, options, have_previous ? &previous : nullptr, &stats);
      const TaskModelSet cold = core::fit_task_models(inputs, options);

      expect_identical(incremental, cold);
      expect_same_answers(incremental, cold, 1024);
      EXPECT_EQ(stats.elements_total, incremental.size());
      EXPECT_EQ(stats.cold, !have_previous);

      previous = incremental;
      have_previous = true;
    }
  }
}

TEST(IncrementalFitTest, AscendingAppendRefitsEveryGrownSeries) {
  std::vector<TaskTrace> inputs = {law_trace(16), law_trace(32), law_trace(64)};
  const ExtrapolationOptions options = serial_options();
  const TaskModelSet previous = core::fit_task_models(inputs, options);

  inputs.push_back(law_trace(128));  // every element's series gains a sample
  IncrementalFitStats stats;
  const TaskModelSet extended =
      core::fit_task_models_incremental(inputs, options, &previous, &stats);

  expect_identical(extended, core::fit_task_models(inputs, options));
  EXPECT_FALSE(stats.cold);
  EXPECT_EQ(stats.elements_reused, 0u);
  EXPECT_EQ(stats.elements_refit, stats.elements_total);
}

TEST(IncrementalFitTest, IdenticalReuploadReusesEveryElement) {
  const std::vector<TaskTrace> inputs = {law_trace(16), law_trace(32), law_trace(64)};
  const ExtrapolationOptions options = serial_options();
  const TaskModelSet previous = core::fit_task_models(inputs, options);

  IncrementalFitStats stats;
  const TaskModelSet again =
      core::fit_task_models_incremental(inputs, options, &previous, &stats);

  expect_identical(again, previous);
  EXPECT_FALSE(stats.cold);
  EXPECT_EQ(stats.elements_reused, stats.elements_total);
  EXPECT_EQ(stats.elements_refit, 0u);
}

TEST(IncrementalFitTest, IncompatiblePreviousDegradesToColdFitNotWrongModels) {
  const std::vector<TaskTrace> inputs = {law_trace(16), law_trace(32), law_trace(64)};
  const ExtrapolationOptions options = serial_options();

  ExtrapolationOptions other = options;
  other.influence_threshold = 0.5;  // different policy: previous set unusable
  const TaskModelSet mismatched = core::fit_task_models(inputs, other);

  IncrementalFitStats stats;
  const TaskModelSet result =
      core::fit_task_models_incremental(inputs, options, &mismatched, &stats);
  EXPECT_TRUE(stats.cold);
  expect_identical(result, core::fit_task_models(inputs, options));
}

TEST(IncrementalFitTest, CheckpointV3RoundTripsEveryFieldBitwise) {
  // ZeroFill fits every element over the full series; FitPresent with a
  // block missing from the middle trace also stores restricted series.
  std::vector<TaskTrace> gapped = {law_trace(16), law_trace(32), law_trace(64)};
  std::erase_if(gapped[1].blocks, [](const auto& block) { return block.id == 2; });
  ExtrapolationOptions fit_present = serial_options();
  fit_present.missing = core::MissingPolicy::FitPresent;
  const std::pair<std::vector<TaskTrace>, ExtrapolationOptions> cases[] = {
      {{law_trace(16), law_trace(32), law_trace(64)}, serial_options()},
      {gapped, fit_present}};
  for (const auto& [inputs, options] : cases) {
    const TaskModelSet fitted = core::fit_task_models(inputs, options);
    ASSERT_GT(fitted.size(), 0u);

    core::CheckpointConfig config;
    config.dir = testing::TempDir() + "inc_ckpt_v3";
    config.digest = core::models_digest_for_traces(inputs, options);
    config.chunk_elements = 8;
    std::filesystem::remove_all(config.dir);
    core::ModelCheckpoint store(config);
    store.open(fitted.size());
    for (std::size_t chunk = 0; chunk < store.chunk_count(); ++chunk)
      store.save_chunk(chunk, fitted);

    // Load into a set with the same alignment and blanked model columns.
    TaskModelSet loaded = fitted;
    std::fill(loaded.candidates.begin(), loaded.candidates.end(), stats::FittedModel{});
    std::fill(loaded.scores.begin(), loaded.scores.end(), 0.0);
    for (std::size_t chunk = 0; chunk < store.chunk_count(); ++chunk)
      ASSERT_TRUE(store.load_chunk(chunk, loaded)) << "chunk " << chunk;
    EXPECT_EQ(store.chunks_discarded(), 0u);
    expect_identical(loaded, fitted);
    std::filesystem::remove_all(config.dir);
  }
}

}  // namespace
}  // namespace pmacx
