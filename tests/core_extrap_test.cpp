// Tests for the trace extrapolator: exact recovery of canonical scaling
// laws, domain clamping, influence accounting and the fit report.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <thread>

#include "core/extrapolator.hpp"
#include "trace/binary_io.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/threadpool.hpp"

namespace pmacx {
namespace {

using core::ExtrapolationOptions;
using core::extrapolate_task;
using trace::BlockElement;
using trace::InstrElement;
using trace::TaskTrace;

/// Builds a trace whose elements follow known laws of the core count:
///   block 1: mem loads ~ C/p (strong scaling), L2 rate linear in p,
///            visit count constant;
///   block 2: mem loads ~ log2(p) growth (the Fig. 5 shape), tiny volume.
TaskTrace law_trace(double p) {
  TaskTrace task;
  task.app = "law-demo";
  task.core_count = static_cast<std::uint32_t>(p);
  task.target_system = "t";

  trace::BasicBlockRecord dominant;
  dominant.id = 1;
  dominant.location = {"a.c", 1, "dominant"};
  dominant.set(BlockElement::VisitCount, 42.0);
  dominant.set(BlockElement::MemLoads, 1e10 / p);
  dominant.set(BlockElement::MemStores, 4e9 / p);
  dominant.set(BlockElement::BytesPerRef, 8.0);
  dominant.set(BlockElement::HitRateL1, 0.4);
  dominant.set(BlockElement::HitRateL2, 0.5 + 0.00004 * p);  // linear (Fig. 4)
  dominant.set(BlockElement::HitRateL3, 0.95);
  dominant.set(BlockElement::WorkingSetBytes, 4.6e9 / p);
  dominant.set(BlockElement::Ilp, 3.5);
  dominant.set(BlockElement::DepChainLength, 6.0);
  trace::InstructionRecord instr;
  instr.index = 0;
  instr.set(InstrElement::ExecCount, 1e10 / p);
  instr.set(InstrElement::MemOps, 1e10 / p);
  instr.set(InstrElement::BytesPerOp, 8.0);
  instr.set(InstrElement::HitRateL1, 0.4);
  instr.set(InstrElement::HitRateL2, 0.5 + 0.00004 * p);
  instr.set(InstrElement::HitRateL3, 0.97);
  dominant.instructions.push_back(instr);
  task.blocks.push_back(dominant);

  trace::BasicBlockRecord reduction;
  reduction.id = 2;
  reduction.location = {"b.c", 2, "reduction"};
  reduction.set(BlockElement::VisitCount, 10.0);
  reduction.set(BlockElement::MemLoads, 4096.0 * (1.0 + std::log2(p)));  // log growth
  reduction.set(BlockElement::BytesPerRef, 8.0);
  reduction.set(BlockElement::HitRateL1, 0.99);
  reduction.set(BlockElement::HitRateL2, 0.99);
  reduction.set(BlockElement::HitRateL3, 0.99);
  reduction.set(BlockElement::Ilp, 2.0);
  reduction.set(BlockElement::DepChainLength, 3.0);
  task.blocks.push_back(reduction);
  task.sort_blocks();
  return task;
}

std::vector<TaskTrace> law_series() {
  return {law_trace(1024), law_trace(2048), law_trace(4096)};
}

TEST(ExtrapolatorTest, RecoversStrongScalingLaw) {
  const auto series = law_series();
  const auto result = extrapolate_task(series, 8192);
  const auto* block = result.trace.find_block(1);
  ASSERT_NE(block, nullptr);
  // 1e10/8192 within a few percent (1/p isn't exactly any of the four paper
  // forms, but exp/log fits track it closely over one octave extrapolation).
  EXPECT_NEAR(block->get(BlockElement::MemLoads), 1e10 / 8192, 0.20 * (1e10 / 8192));
}

TEST(ExtrapolatorTest, RecoversLinearHitRateExactly) {
  const auto series = law_series();
  const auto result = extrapolate_task(series, 8192);
  const auto* block = result.trace.find_block(1);
  ASSERT_NE(block, nullptr);
  EXPECT_NEAR(block->get(BlockElement::HitRateL2), 0.5 + 0.00004 * 8192, 1e-9);
}

TEST(ExtrapolatorTest, RecoversLogGrowthExactly) {
  const auto series = law_series();
  const auto result = extrapolate_task(series, 8192);
  const auto* block = result.trace.find_block(2);
  ASSERT_NE(block, nullptr);
  EXPECT_NEAR(block->get(BlockElement::MemLoads), 4096.0 * (1.0 + std::log2(8192)),
              1.0);
}

TEST(ExtrapolatorTest, ConstantElementsStayConstant) {
  const auto series = law_series();
  const auto result = extrapolate_task(series, 8192);
  const auto* block = result.trace.find_block(1);
  EXPECT_DOUBLE_EQ(block->get(BlockElement::VisitCount), 42.0);
  EXPECT_DOUBLE_EQ(block->get(BlockElement::Ilp), 3.5);
}

TEST(ExtrapolatorTest, InstructionElementsExtrapolated) {
  const auto series = law_series();
  const auto result = extrapolate_task(series, 8192);
  const auto* block = result.trace.find_block(1);
  ASSERT_EQ(block->instructions.size(), 1u);
  EXPECT_NEAR(block->instructions[0].get(InstrElement::HitRateL2),
              0.5 + 0.00004 * 8192, 1e-9);
}

TEST(ExtrapolatorTest, OutputMarkedExtrapolated) {
  const auto result = extrapolate_task(law_series(), 8192);
  EXPECT_TRUE(result.trace.extrapolated);
  EXPECT_EQ(result.trace.core_count, 8192u);
  EXPECT_EQ(result.trace.app, "law-demo");
}

TEST(ExtrapolatorTest, RatesClampedIntoUnitInterval) {
  // Push the linear L2 law far enough that the unclamped fit exceeds 1.
  std::vector<TaskTrace> series = law_series();
  const auto result = extrapolate_task(series, 2'000'000);
  const auto* block = result.trace.find_block(1);
  EXPECT_LE(block->get(BlockElement::HitRateL2), 1.0);
  EXPECT_GE(block->get(BlockElement::HitRateL2), 0.0);
}

TEST(ExtrapolatorTest, HitRatesMonotoneAfterClamping) {
  const auto result = extrapolate_task(law_series(), 500'000);
  for (const auto& block : result.trace.blocks) {
    EXPECT_LE(block.get(BlockElement::HitRateL1), block.get(BlockElement::HitRateL2));
    EXPECT_LE(block.get(BlockElement::HitRateL2), block.get(BlockElement::HitRateL3));
  }
}

TEST(ExtrapolatorTest, CountsNeverNegative) {
  // A steep decay extrapolated far out must floor at zero, not go negative.
  std::vector<TaskTrace> series;
  for (double p : {64.0, 128.0, 256.0}) {
    TaskTrace task = law_trace(p);
    task.core_count = static_cast<std::uint32_t>(p);
    task.blocks[0].set(BlockElement::MemStores, 1000.0 - 3.0 * p);  // linear decay
    series.push_back(task);
  }
  const auto result = extrapolate_task(series, 8192);
  EXPECT_GE(result.trace.find_block(1)->get(BlockElement::MemStores), 0.0);
}

TEST(ExtrapolatorTest, RoundCountsOptionYieldsIntegers) {
  ExtrapolationOptions options;
  options.round_counts = true;
  const auto result = extrapolate_task(law_series(), 8192, options);
  const double visits = result.trace.find_block(1)->get(BlockElement::VisitCount);
  EXPECT_DOUBLE_EQ(visits, std::round(visits));
}

TEST(ExtrapolatorTest, InfluenceFollowsPaperRule) {
  const auto result = extrapolate_task(law_series(), 8192);
  // Block 1 carries ~all memory ops → influential; block 2 is tiny (~50k of
  // ~3.4e6 at 4096 cores... actually compare against 0.1%): block 2 has
  // 4096·13 ≈ 53k of ≈ 3.4e6 ops ≈ 1.6% → influential too.  Use elements'
  // flags to check consistency rather than exact partition.
  bool block1_flagged = false;
  for (const auto& fit : result.report.elements) {
    if (fit.key.block_id == 1 && fit.influential) block1_flagged = true;
  }
  EXPECT_TRUE(block1_flagged);

  // With an absurdly high threshold nothing is influential.
  ExtrapolationOptions strict;
  strict.influence_threshold = 1.1;
  const auto none = extrapolate_task(law_series(), 8192, strict);
  for (const auto& fit : none.report.elements) EXPECT_FALSE(fit.influential);
}

TEST(ExtrapolatorTest, InfluenceKeysInstructionsByBlockAndIndex) {
  // Block 1's instruction 4096 carries nearly every memory op; block 2's
  // instruction 0 carries one.  Each keeps its own influence flag.
  std::vector<TaskTrace> series = law_series();
  for (TaskTrace& task : series) {
    task.blocks[0].instructions[0].index = 4096;
    trace::InstructionRecord light;
    light.index = 0;
    light.set(InstrElement::ExecCount, 1.0);
    light.set(InstrElement::MemOps, 1.0);
    light.set(InstrElement::BytesPerOp, 8.0);
    task.blocks[1].instructions.push_back(light);
  }
  const auto result = extrapolate_task(series, 8192);
  std::size_t heavy = 0, light = 0;
  for (const auto& fit : result.report.elements) {
    if (fit.key.block_id == 1 && fit.key.instr_index == 4096) {
      EXPECT_TRUE(fit.influential) << fit.key.describe();
      ++heavy;
    }
    if (fit.key.block_id == 2 && fit.key.instr_index == 0) {
      EXPECT_FALSE(fit.influential) << fit.key.describe();
      ++light;
    }
  }
  EXPECT_EQ(heavy, trace::kInstrElementCount);
  EXPECT_EQ(light, trace::kInstrElementCount);
}

TEST(ExtrapolatorTest, ReportCoversEveryElement) {
  const auto result = extrapolate_task(law_series(), 8192);
  // 2 blocks × block elements + 1 instruction × instr elements.
  EXPECT_EQ(result.report.elements.size(),
            2 * trace::kBlockElementCount + trace::kInstrElementCount);
  EXPECT_EQ(result.report.axis.size(), 3u);
  EXPECT_DOUBLE_EQ(result.report.target, 8192.0);
}

TEST(ExtrapolatorTest, PerfectLawsFitWithinPaperBound) {
  // The paper: every influential element fit within 20% absolute relative
  // error.  On exact-law data we do far better.
  const auto result = extrapolate_task(law_series(), 8192);
  EXPECT_LT(result.report.worst_influential_error(), 0.05);
}

TEST(ExtrapolatorTest, ReportSummaryMentionsForms) {
  const auto result = extrapolate_task(law_series(), 8192);
  const std::string summary = result.report.summary();
  EXPECT_NE(summary.find("8192"), std::string::npos);
  EXPECT_NE(summary.find("influential"), std::string::npos);
  EXPECT_FALSE(result.report.form_histogram().empty());
  EXPECT_FALSE(result.report.worst_elements(3).empty());
}

TEST(ExtrapolatorTest, ExtensionFormsImproveInversePLaw) {
  // 1/p work split is exactly InverseP; with extension forms enabled the
  // extrapolation of mem loads should be nearly exact.
  ExtrapolationOptions options;
  options.fit.forms.assign(stats::all_forms().begin(), stats::all_forms().end());
  const auto result = extrapolate_task(law_series(), 8192, options);
  const auto* block = result.trace.find_block(1);
  EXPECT_NEAR(block->get(BlockElement::MemLoads), 1e10 / 8192, 1e-2 * (1e10 / 8192));
}

TEST(ExtrapolatorTest, RejectsBadArguments) {
  std::vector<TaskTrace> one = {law_trace(1024)};
  EXPECT_THROW(extrapolate_task(one, 8192), util::Error);
  EXPECT_THROW(extrapolate_task(law_series(), 0), util::Error);
}

TEST(ExtrapolatorTest, DeterministicOutput) {
  const auto a = extrapolate_task(law_series(), 8192);
  const auto b = extrapolate_task(law_series(), 8192);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(ExtrapolatorTest, FitPresentIgnoresMissingObservations) {
  // Block 2 follows its log law everywhere but is unobserved at 2048; with
  // three present points FitPresent recovers the law exactly, while
  // ZeroFill gets dragged by the injected zero.  (With only two present
  // points every 2-parameter form interpolates — the law is unidentifiable,
  // which is why this test uses a 4-count series.)
  std::vector<TaskTrace> series = {law_trace(1024), law_trace(2048), law_trace(4096),
                                   law_trace(8192)};
  std::erase_if(series[1].blocks, [](const auto& block) { return block.id == 2; });

  core::ExtrapolationOptions fit_present;
  fit_present.missing = core::MissingPolicy::FitPresent;
  fit_present.bootstrap_resamples = 50;
  const auto good = extrapolate_task(series, 16384, fit_present);
  const double expected = 4096.0 * (1.0 + std::log2(16384));
  EXPECT_NEAR(good.trace.find_block(2)->get(BlockElement::MemLoads), expected,
              0.01 * expected);
  // The bootstrap resamples the series that was fitted — the three present
  // points — so its interval centres on the same extrapolation.
  bool checked = false;
  for (const auto& fit : good.report.elements) {
    if (fit.key.block_id != 2 || !fit.key.is_block_level() ||
        fit.key.element != static_cast<std::uint32_t>(BlockElement::MemLoads))
      continue;
    ASSERT_TRUE(fit.has_interval);
    EXPECT_NEAR(fit.interval.point, fit.extrapolated, 0.01 * fit.extrapolated);
    checked = true;
  }
  EXPECT_TRUE(checked);

  core::ExtrapolationOptions zero_fill;
  zero_fill.missing = core::MissingPolicy::ZeroFill;
  const auto bad = extrapolate_task(series, 16384, zero_fill);
  EXPECT_GT(std::fabs(bad.trace.find_block(2)->get(BlockElement::MemLoads) - expected),
            0.05 * expected);
}

TEST(ExtrapolatorTest, FitPresentFallsBackWithOneObservation) {
  // Present at only one count: fall back to the zero-filled series rather
  // than fitting a single point.
  std::vector<TaskTrace> series = law_series();
  std::erase_if(series[0].blocks, [](const auto& block) { return block.id == 2; });
  std::erase_if(series[1].blocks, [](const auto& block) { return block.id == 2; });
  core::ExtrapolationOptions options;
  options.missing = core::MissingPolicy::FitPresent;
  const auto result = extrapolate_task(series, 8192, options);
  EXPECT_NE(result.trace.find_block(2), nullptr);
  EXPECT_GE(result.trace.find_block(2)->get(BlockElement::MemLoads), 0.0);
}

TEST(ExtrapolatorTest, BootstrapIntervalsOnInfluentialElements) {
  ExtrapolationOptions options;
  options.bootstrap_resamples = 50;
  const auto result = extrapolate_task(law_series(), 8192, options);
  std::size_t with_interval = 0;
  for (const auto& fit : result.report.elements) {
    if (!fit.influential) {
      EXPECT_FALSE(fit.has_interval);
      continue;
    }
    ASSERT_TRUE(fit.has_interval) << fit.key.describe();
    EXPECT_LE(fit.interval.lo, fit.interval.hi);
    ++with_interval;
  }
  EXPECT_GT(with_interval, 0u);
}

TEST(ExtrapolatorTest, BootstrapOffByDefault) {
  const auto result = extrapolate_task(law_series(), 8192);
  for (const auto& fit : result.report.elements) EXPECT_FALSE(fit.has_interval);
}

// ----------------------------------------------- parallel golden equality ----

/// The parallel fit stage must be invisible in the output: the v002 binary
/// serialization of the extrapolated trace, the per-element CSV report and
/// the diagnostics ledger are asserted byte-identical between threads=1 and
/// threads=4 runs of the same series.
void expect_identical_results(const core::ExtrapolationResult& serial,
                              const core::ExtrapolationResult& parallel) {
  EXPECT_EQ(trace::to_binary(serial.trace), trace::to_binary(parallel.trace));
  EXPECT_EQ(serial.report.to_csv(), parallel.report.to_csv());
  EXPECT_EQ(serial.diagnostics.fallback_fits, parallel.diagnostics.fallback_fits);
  EXPECT_EQ(serial.diagnostics.clamped_values, parallel.diagnostics.clamped_values);
  EXPECT_EQ(serial.diagnostics.warnings, parallel.diagnostics.warnings);
  ASSERT_EQ(serial.has_interval, parallel.has_interval);
  if (serial.has_interval) {
    EXPECT_EQ(trace::to_binary(serial.trace_lo), trace::to_binary(parallel.trace_lo));
    EXPECT_EQ(trace::to_binary(serial.trace_median), trace::to_binary(parallel.trace_median));
    EXPECT_EQ(trace::to_binary(serial.trace_hi), trace::to_binary(parallel.trace_hi));
  }
}

/// law_series() widened to `copies` copies of its two blocks (fresh ids,
/// each copy's values scaled), with every fifth copy of block 2 missing from
/// the middle trace so FitPresent batches mix full and restricted series.
std::vector<TaskTrace> wide_law_series(std::size_t copies) {
  std::vector<TaskTrace> series = law_series();
  for (std::size_t t = 0; t < series.size(); ++t) {
    const std::vector<trace::BasicBlockRecord> base = series[t].blocks;
    series[t].blocks.clear();
    for (std::size_t c = 0; c < copies; ++c) {
      for (trace::BasicBlockRecord block : base) {
        if (t == 1 && block.id == 2 && c % 5 == 0) continue;
        block.id += 2 * c;
        const double scale = 1.0 + 0.01 * static_cast<double>(c);
        block.set(BlockElement::MemLoads, scale * block.get(BlockElement::MemLoads));
        for (auto& instr : block.instructions)
          instr.set(InstrElement::MemOps, scale * instr.get(InstrElement::MemOps));
        series[t].blocks.push_back(block);
      }
    }
    series[t].sort_blocks();
  }
  return series;
}

/// Counter increments over one call of `run`.
template <typename Run>
std::map<std::string, std::uint64_t> counter_deltas(Run&& run) {
  std::map<std::string, std::uint64_t> deltas;
  for (const auto& [name, value] : util::metrics::Registry::global().snapshot().counters)
    deltas[name] -= value;
  run();
  for (const auto& [name, value] : util::metrics::Registry::global().snapshot().counters)
    deltas[name] += value;
  std::erase_if(deltas, [](const auto& entry) { return entry.second == 0; });
  return deltas;
}

TEST(ExtrapolatorTest, ParallelMatchesSerialByteIdentical) {
  ExtrapolationOptions serial_options;
  serial_options.threads = 1;
  ExtrapolationOptions parallel_options;
  parallel_options.threads = 4;
  for (int round = 0; round < 3; ++round) {
    const auto serial = extrapolate_task(law_series(), 8192, serial_options);
    const auto parallel = extrapolate_task(law_series(), 8192, parallel_options);
    expect_identical_results(serial, parallel);
  }

  // More than three fit batches of 1024 elements, so batches and evaluate
  // ranges really spread across the workers: bytes and counters must not
  // depend on the thread count.
  const std::vector<TaskTrace> wide = wide_law_series(160);
  for (const core::MissingPolicy policy :
       {core::MissingPolicy::ZeroFill, core::MissingPolicy::FitPresent}) {
    serial_options.missing = policy;
    parallel_options.missing = policy;
    core::ExtrapolationResult serial, parallel;
    const auto serial_counters =
        counter_deltas([&] { serial = extrapolate_task(wide, 8192, serial_options); });
    const auto parallel_counters =
        counter_deltas([&] { parallel = extrapolate_task(wide, 8192, parallel_options); });
    ASSERT_GT(serial.report.elements.size(), 3u * 1024u);
    expect_identical_results(serial, parallel);
    EXPECT_EQ(serial_counters, parallel_counters);
    EXPECT_EQ(serial_counters.at("fits.total"), serial.report.elements.size());
  }
}

TEST(ExtrapolatorTest, ParallelMatchesSerialWithBootstrapAndFallbacks) {
  // Bootstrap intervals are seeded per element and the degenerate series
  // forces constant fallbacks + clamping — all of it must survive the
  // parallel fit stage unchanged, warnings in element order included.
  std::vector<TaskTrace> series = law_series();
  series[1].blocks[0].set(BlockElement::MemStores, 0.0);  // breaks the law → fallback

  ExtrapolationOptions serial_options;
  serial_options.threads = 1;
  serial_options.bootstrap_resamples = 40;
  // Allow out-of-domain fits so the linear hit-rate law wins selection and
  // the clamp path (and its tally) actually executes.
  serial_options.reject_out_of_domain = false;
  ExtrapolationOptions parallel_options = serial_options;
  parallel_options.threads = 4;

  const auto serial = extrapolate_task(series, 2'000'000, serial_options);
  const auto parallel = extrapolate_task(series, 2'000'000, parallel_options);
  expect_identical_results(serial, parallel);
  EXPECT_GT(serial.diagnostics.clamped_values, 0u);
}

TEST(ExtrapolatorTest, ExternalPoolMatchesSerial) {
  util::ThreadPool pool(4);
  ExtrapolationOptions pooled;
  pooled.pool = &pool;
  ExtrapolationOptions serial_options;
  serial_options.threads = 1;
  const auto serial = extrapolate_task(law_series(), 8192, serial_options);
  const auto parallel = extrapolate_task(law_series(), 8192, pooled);
  expect_identical_results(serial, parallel);
}

// ------------------------------------------- input-parameter extrapolation ----

/// Trace at fixed cores whose elements follow laws of the problem size N:
/// mem loads ∝ N, working set ∝ N, hit rate saturating like a - b/N.
TaskTrace size_trace(double n) {
  TaskTrace task;
  task.app = "param-demo";
  task.core_count = 64;
  task.target_system = "t";
  trace::BasicBlockRecord block;
  block.id = 1;
  block.location = {"k.c", 1, "kernel"};
  block.set(BlockElement::VisitCount, 10.0);
  block.set(BlockElement::MemLoads, 25.0 * n);
  block.set(BlockElement::BytesPerRef, 8.0);
  block.set(BlockElement::HitRateL1, 0.875);
  block.set(BlockElement::HitRateL2, 0.875);
  block.set(BlockElement::HitRateL3, 0.99 - 2e5 / n);
  block.set(BlockElement::WorkingSetBytes, 40.0 * n);
  block.set(BlockElement::Ilp, 3.0);
  block.set(BlockElement::DepChainLength, 4.0);
  task.blocks.push_back(block);
  return task;
}

// ------------------------------------------------ fit-once/query-many seam --

TEST(ModelSetTest, SplitMatchesExtrapolateTaskByteIdenticalAcrossOptions) {
  // fit_task_models + extrapolate_from_models is the serving layer's cached
  // path; extrapolate_task is the direct path.  A cached answer must be
  // indistinguishable from a fresh one for every policy combination, so the
  // sweep covers the option axes that steer fitting and selection — on one
  // thread, four threads and an external pool, each of which must also
  // match the serial answer.
  std::vector<ExtrapolationOptions> sweep;
  sweep.emplace_back();  // defaults
  {
    ExtrapolationOptions o;
    o.reject_out_of_domain = false;
    sweep.push_back(o);
  }
  {
    ExtrapolationOptions o;
    o.fit.criterion = stats::SelectionCriterion::LooCv;
    o.round_counts = true;
    sweep.push_back(o);
  }
  {
    ExtrapolationOptions o;
    o.fit.forms.assign(stats::paper_forms().begin(), stats::paper_forms().end());
    o.missing = core::MissingPolicy::FitPresent;
    sweep.push_back(o);
  }
  {
    ExtrapolationOptions o;
    o.interval_coverage = 0.9;
    o.bootstrap_resamples = 20;
    sweep.push_back(o);
  }
  util::ThreadPool external(3);
  const auto series = law_series();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    ExtrapolationOptions serial = sweep[i];
    serial.threads = 1;
    for (const std::string run : {"1 thread", "4 threads", "external pool"}) {
      SCOPED_TRACE("options[" + std::to_string(i) + "], " + run);
      ExtrapolationOptions options = sweep[i];
      options.threads = run == "4 threads" ? 4 : 1;
      options.pool = run == "external pool" ? &external : nullptr;
      const core::TaskModelSet models = core::fit_task_models(series, options);
      for (std::uint32_t target : {8192u, 65536u}) {
        const auto direct = extrapolate_task(series, target, options);
        expect_identical_results(direct, core::extrapolate_from_models(models, target));
        expect_identical_results(extrapolate_task(series, target, serial), direct);
      }
    }
  }
}

TEST(ModelSetTest, OneFitServesManyTargets) {
  const auto series = law_series();
  const core::TaskModelSet models = core::fit_task_models(series);
  EXPECT_GT(models.memory_bytes(), sizeof(core::TaskModelSet));
  // A cached set must not keep a reference to a caller-owned pool alive.
  EXPECT_EQ(models.options.pool, nullptr);
  const std::vector<std::uint32_t> targets = {4096u, 8192u, 16384u, 32768u};
  std::vector<core::ExtrapolationResult> serial;
  for (std::uint32_t target : targets) {
    serial.push_back(core::extrapolate_from_models(models, target));
    EXPECT_EQ(serial.back().trace.core_count, target);
    EXPECT_TRUE(serial.back().trace.extrapolated);
  }

  // The set is only read: four threads evaluating it at once, one target
  // each, get the serial answers.
  std::vector<core::ExtrapolationResult> concurrent(targets.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < targets.size(); ++i)
    threads.emplace_back(
        [&, i] { concurrent[i] = core::extrapolate_from_models(models, targets[i]); });
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    SCOPED_TRACE("target " + std::to_string(targets[i]));
    expect_identical_results(serial[i], concurrent[i]);
  }
}

TEST(ParamExtrapTest, RecoversSizeLaws) {
  const std::vector<TaskTrace> series = {size_trace(1e6), size_trace(2e6), size_trace(4e6)};
  const std::vector<double> ns = {1e6, 2e6, 4e6};
  // One thread and four give the same bytes, interval traces included.
  ExtrapolationOptions serial;
  serial.threads = 1;
  serial.interval_coverage = 0.9;
  ExtrapolationOptions parallel = serial;
  parallel.threads = 4;
  const auto result = core::extrapolate_parameter(series, ns, 8e6, serial);
  expect_identical_results(result, core::extrapolate_parameter(series, ns, 8e6, parallel));
  const auto* block = result.trace.find_block(1);
  ASSERT_NE(block, nullptr);
  EXPECT_NEAR(block->get(BlockElement::MemLoads), 25.0 * 8e6, 1.0);
  EXPECT_NEAR(block->get(BlockElement::WorkingSetBytes), 40.0 * 8e6, 1.0);
  EXPECT_NEAR(block->get(BlockElement::HitRateL3), 0.99 - 2e5 / 8e6, 1e-6);
}

TEST(ParamExtrapTest, KeepsCoreCountAndMarksExtrapolated) {
  const std::vector<TaskTrace> series = {size_trace(1e6), size_trace(2e6), size_trace(4e6)};
  const std::vector<double> ns = {1e6, 2e6, 4e6};
  const auto result = core::extrapolate_parameter(series, ns, 8e6);
  EXPECT_EQ(result.trace.core_count, 64u);
  EXPECT_TRUE(result.trace.extrapolated);
  EXPECT_EQ(result.report.axis_name, "parameter");
  EXPECT_DOUBLE_EQ(result.report.target, 8e6);
}

TEST(ParamExtrapTest, RejectsMixedCoreCounts) {
  std::vector<TaskTrace> series = {size_trace(1e6), size_trace(2e6)};
  series[1].core_count = 128;
  const std::vector<double> ns = {1e6, 2e6};
  EXPECT_THROW(core::extrapolate_parameter(series, ns, 4e6), util::Error);
}

TEST(ParamExtrapTest, RejectsNonIncreasingAxis) {
  const std::vector<TaskTrace> series = {size_trace(1e6), size_trace(2e6)};
  const std::vector<double> ns = {2e6, 1e6};
  EXPECT_THROW(core::extrapolate_parameter(series, ns, 4e6), util::Error);
}

}  // namespace
}  // namespace pmacx
