// Golden-digest corpus: pins the observable outputs of the trace → fit →
// extrapolate → predict pipeline to a committed digest file
// (tests/golden_corpus.digests), so a refactor that claims to change no
// behaviour can prove it with one ctest.
//
//   trace.<app>.<target>.<mode>  v002 bytes of one collected task trace
//                                (3 apps × 2 targets × pure-MPI/hybrid)
//   extrap.*                     the extrapolated trace, its FitReport CSV,
//                                and its 0.9-coverage lo/median/hi traces
//   extrap.fitpresent.*          trace and CSV of a FitPresent extrapolation
//                                whose middle input lacks one block, so
//                                that block's elements fit restricted series
//   ckpt.<policy>.*              manifest and chunk files that
//                                fit_task_models_checkpointed writes for the
//                                flow's inputs (zerofill) and for the
//                                FitPresent inputs (fitpresent)
//   predict.<input>.*            the rendered PREDICT body, plus the bit
//                                patterns of every PredictionResult double
//                                (the body rounds to 3 decimals)
//   counter.<name>               every nonzero counter of the trace →
//                                extrapolate → predict flow, except
//                                fits.simd_batches (zero without AVX2)
//   measure.<app>.<target>.<mode> bit patterns of psins::measure_run's
//                                runtime, compute and comm seconds
//                                (Table I's "measured" column)
//   multimaps.<target>           every MultiMAPS sample of the target's
//                                probe (working set, stride, kind, hit
//                                rates and bandwidth bits)
//   replay.<app>.<target>.<net>  bit patterns of simmpi::replay's runtime
//                                and every rank's finish, compute and comm
//                                seconds at 8192 ranks, on the target's
//                                network as it is ("native") and with every
//                                point-to-point message eager ("eager")
//
// Artifacts are recorded as "<name> <bytes> <fnv1a-64>", counters as
// "<name> <value>".  On a mismatch the test prints the line that would
// replace the committed one.  There is no update mode: a changed golden is
// a reviewed edit of the digest file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/extrapolator.hpp"
#include "machine/profile.hpp"
#include "machine/targets.hpp"
#include "psins/predictor.hpp"
#include "psins/reference.hpp"
#include "simmpi/replay.hpp"
#include "synth/registry.hpp"
#include "synth/tracer.hpp"
#include "trace/binary_io.hpp"
#include "util/atomic_file.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

#ifndef PMACX_GOLDEN_CORPUS
#error "PMACX_GOLDEN_CORPUS must name the committed digest file"
#endif

namespace pmacx {
namespace {

constexpr std::uint64_t kMaxRefsPerKernel = 20'000;
constexpr std::uint32_t kHybridThreads = 4;
constexpr std::uint32_t kCorpusCores = 64;
// Replay at serving scale: PREDICT replays 8192 ranks.
constexpr std::uint32_t kReplayRanks = 8192;

// The extrapolation flow: specfem3d on bluewaters-p1, pure MPI.
constexpr const char* kFlowApp = "specfem3d";
constexpr const char* kFlowTarget = "bluewaters-p1";
constexpr std::uint32_t kFlowInputs[] = {16, 32, 64};
constexpr std::uint32_t kFlowTargetCores = 256;
constexpr double kFlowCoverage = 0.9;
// 294 elements in three checkpoint chunks.
constexpr std::size_t kCheckpointChunk = 128;

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string artifact_line(const std::string& name, std::string_view bytes) {
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return name + " " + std::to_string(bytes.size()) + " " + digest;
}

void append_bits(std::string& out, double v) {
  char raw[sizeof v];
  std::memcpy(raw, &v, sizeof v);
  out.append(raw, sizeof v);
}

/// Raw IEEE-754 bytes of every double (and the block ids) of a prediction.
std::string prediction_bits(const psins::PredictionResult& p) {
  std::string out;
  append_bits(out, p.runtime_seconds);
  append_bits(out, p.compute_seconds);
  append_bits(out, p.comm_seconds);
  out.push_back(p.from_extrapolated_trace ? 1 : 0);
  append_bits(out, p.blocks.seconds);
  for (const psins::BlockTime& block : p.blocks.blocks) {
    out.append(reinterpret_cast<const char*>(&block.block_id), sizeof block.block_id);
    append_bits(out, block.memory_seconds);
    append_bits(out, block.fp_seconds);
    append_bits(out, block.block_seconds);
    append_bits(out, block.bandwidth_bytes_per_s);
  }
  return out;
}

synth::TracerOptions tracer_options(const std::string& target, std::uint32_t threads) {
  synth::TracerOptions options;
  options.target = machine::target_by_name(target).hierarchy;
  options.max_refs_per_kernel = kMaxRefsPerKernel;
  options.threads_per_rank = threads;
  return options;
}

trace::TaskTrace collect(const synth::SyntheticApp& app, const std::string& target,
                         std::uint32_t cores, std::uint32_t threads) {
  return synth::trace_task(app, cores, app.demanding_rank(cores),
                           tracer_options(target, threads));
}

/// The PREDICT computation the serving layer runs: the task trace as the
/// demanding rank, comm traces for every rank from the app model.
psins::PredictionResult predict(const synth::SyntheticApp& app, const trace::TaskTrace& task,
                                const machine::MachineProfile& profile) {
  trace::AppSignature signature;
  signature.app = task.app;
  signature.core_count = task.core_count;
  signature.target_system = task.target_system;
  signature.demanding_rank = task.rank;
  signature.tasks.push_back(task);
  for (std::uint32_t rank = 0; rank < task.core_count; ++rank)
    signature.comm.push_back(app.comm_trace(task.core_count, rank));
  signature.validate();
  return psins::predict(signature, profile);
}

/// Raw IEEE-754 bytes of every field of a MultiMAPS sample set.
std::string sample_bits(const std::vector<machine::BandwidthSample>& samples) {
  std::string out;
  for (const machine::BandwidthSample& s : samples) {
    out.append(reinterpret_cast<const char*>(&s.working_set_bytes), sizeof s.working_set_bytes);
    out.append(reinterpret_cast<const char*>(&s.stride_elems), sizeof s.stride_elems);
    out.push_back(s.random ? 1 : 0);
    for (const double rate : s.hit_rates) append_bits(out, rate);
    append_bits(out, s.bandwidth_bytes_per_s);
  }
  return out;
}

machine::MultiMapsOptions fast_probe() {
  machine::MultiMapsOptions options;
  options.working_sets = {16ull << 10, 256ull << 10, 4ull << 20, 32ull << 20};
  options.strides = {1, 8};
  options.min_refs_per_probe = 50'000;
  options.max_refs_per_probe = 200'000;
  return options;
}

/// Every corpus line, by section, computed once per process.
struct Corpus {
  std::vector<std::string> traces;
  std::vector<std::string> extrapolation;
  std::vector<std::string> predictions;
  std::vector<std::string> counters;
  std::vector<std::string> measurements;
  std::vector<std::string> multimaps;
  std::vector<std::string> checkpoints;
};

/// The files fit_task_models_checkpointed writes for `inputs` under
/// `policy`, named ckpt.<label>.manifest and ckpt.<label>.chunk<k>.
void add_checkpoint_lines(const std::string& label, std::span<const trace::TaskTrace> inputs,
                          core::MissingPolicy policy, std::vector<std::string>& out) {
  core::ExtrapolationOptions options;
  options.missing = policy;
  core::CheckpointConfig config;
  config.dir = testing::TempDir() + "pmacx_golden_ckpt_" + label;
  config.digest = core::models_digest_for_traces(inputs, options);
  config.chunk_elements = kCheckpointChunk;
  std::filesystem::remove_all(config.dir);
  core::fit_task_models_checkpointed(inputs, options, config);
  out.push_back(artifact_line("ckpt." + label + ".manifest",
                              util::read_file(config.dir + "/manifest.ckpt")));
  for (std::size_t chunk = 0;; ++chunk) {
    char name[32];
    std::snprintf(name, sizeof name, "/models_%06zu.ckpt", chunk);
    if (!std::filesystem::exists(config.dir + name)) break;
    out.push_back(artifact_line("ckpt." + label + ".chunk" + std::to_string(chunk),
                                util::read_file(config.dir + name)));
  }
  std::filesystem::remove_all(config.dir);
}

/// Replays every rank of `app` at kReplayRanks on both targets' networks.
/// Per-rank scales carry psins::measure_run's noise around a rate that
/// gives the demanding rank 100 s of compute.  At this scale every halo
/// message is far above the targets' eager thresholds, so the "eager"
/// lines raise the threshold to the largest message to reach that path.
void add_replay_lines(const char* app_name, std::vector<std::string>& out) {
  const auto app = synth::make_app(app_name);
  const std::vector<trace::CommTrace> comm = synth::comm_traces(*app, kReplayRanks);
  const double seconds_per_unit =
      100.0 / comm[app->demanding_rank(kReplayRanks)].total_compute_units();
  const psins::ReferenceOptions reference;
  std::vector<double> scales(kReplayRanks);
  util::Rng rng(reference.seed);
  for (double& scale : scales) {
    const double noise = 1.0 + reference.noise * rng.normal();
    scale = seconds_per_unit * std::max(noise, 0.5);
  }
  const std::vector<simmpi::RankTimeline> timelines = simmpi::timelines_from_comm(comm, scales);

  std::uint64_t largest_message = 0;
  for (const trace::CommTrace& rank : comm)
    for (const trace::CommEvent& event : rank.events)
      if (!trace::comm_op_is_collective(event.op))
        largest_message = std::max(largest_message, event.bytes);

  for (const char* target : {"bluewaters-p1", "cray-xt5"}) {
    for (const bool eager : {false, true}) {
      simmpi::NetworkModel network = machine::target_by_name(target).network;
      if (eager) network.eager_threshold_bytes = largest_message;
      const simmpi::ReplayResult result = simmpi::replay(timelines, network);
      std::string bits;
      append_bits(bits, result.runtime);
      for (const simmpi::RankOutcome& rank : result.ranks) {
        append_bits(bits, rank.finish_time);
        append_bits(bits, rank.compute_seconds);
        append_bits(bits, rank.comm_seconds);
      }
      out.push_back(artifact_line(std::string("replay.") + app_name + "." + target + "." +
                                      (eager ? "eager" : "native"),
                                  bits));
    }
  }
}

Corpus compute_corpus() {
  Corpus corpus;
  const machine::MachineProfile profile =
      machine::build_profile(machine::target_by_name(kFlowTarget), fast_probe());

  // The counted flow runs first, on a zeroed registry.
  util::metrics::Registry& registry = util::metrics::Registry::global();
  registry.reset();
  const auto flow_app = synth::make_app(kFlowApp);
  std::vector<trace::TaskTrace> inputs;
  for (const std::uint32_t cores : kFlowInputs)
    inputs.push_back(collect(*flow_app, kFlowTarget, cores, 1));

  core::ExtrapolationOptions options;
  options.interval_coverage = kFlowCoverage;
  const core::ExtrapolationResult result =
      core::extrapolate_task(inputs, kFlowTargetCores, options);
  corpus.extrapolation = {
      artifact_line("extrap.trace", trace::to_binary(result.trace)),
      artifact_line("extrap.report_csv", result.report.to_csv()),
      artifact_line("extrap.trace_lo", trace::to_binary(result.trace_lo)),
      artifact_line("extrap.trace_median", trace::to_binary(result.trace_median)),
      artifact_line("extrap.trace_hi", trace::to_binary(result.trace_hi)),
  };

  const std::pair<const char*, const trace::TaskTrace*> predicted[] = {
      {"predict.extrap", &result.trace}, {"predict.collected", &inputs.back()}};
  for (const auto& [name, task] : predicted) {
    const psins::PredictionResult prediction = predict(*flow_app, *task, profile);
    corpus.predictions.push_back(artifact_line(
        std::string(name) + ".body",
        psins::render_prediction(*task, profile.system.name, prediction)));
    corpus.predictions.push_back(
        artifact_line(std::string(name) + ".doubles", prediction_bits(prediction)));
  }

  for (const auto& [name, value] : registry.snapshot().counters) {
    if (value == 0 || name == "fits.simd_batches") continue;
    corpus.counters.push_back("counter." + name + " " + std::to_string(value));
  }

  // FitPresent over inputs whose middle trace lacks one block, and the
  // checkpoint files of both policies, after the counter snapshot so the
  // flow's counters stay its own.
  std::vector<trace::TaskTrace> gapped = inputs;
  std::vector<trace::BasicBlockRecord>& middle = gapped[1].blocks;
  middle.erase(middle.begin() + static_cast<std::ptrdiff_t>(middle.size() / 2));
  core::ExtrapolationOptions fit_present;
  fit_present.missing = core::MissingPolicy::FitPresent;
  const core::ExtrapolationResult restricted =
      core::extrapolate_task(gapped, kFlowTargetCores, fit_present);
  corpus.extrapolation.push_back(
      artifact_line("extrap.fitpresent.trace", trace::to_binary(restricted.trace)));
  corpus.extrapolation.push_back(
      artifact_line("extrap.fitpresent.report_csv", restricted.report.to_csv()));
  add_checkpoint_lines("zerofill", inputs, core::MissingPolicy::ZeroFill, corpus.checkpoints);
  add_checkpoint_lines("fitpresent", gapped, core::MissingPolicy::FitPresent,
                       corpus.checkpoints);

  for (const char* app_name : {"specfem3d", "uh3d", "hpcg"}) {
    const auto app = synth::make_app(app_name);
    for (const char* target : {"bluewaters-p1", "cray-xt5"}) {
      for (const std::uint32_t threads : {1u, kHybridThreads}) {
        const std::string name = std::string("trace.") + app_name + "." + target + "." +
                                 (threads == 1 ? "mpi" : "hybrid");
        corpus.traces.push_back(artifact_line(
            name, trace::to_binary(collect(*app, target, kCorpusCores, threads))));
      }
    }
  }

  // The reference ("measured") run and the MultiMAPS probe, per target.
  // Both run after the counter snapshot: neither flushes memsim counters,
  // and the measured run's MPI replay must not reach the flow's section.
  for (const char* target : {"bluewaters-p1", "cray-xt5"}) {
    const machine::MachineProfile target_profile =
        machine::build_profile(machine::target_by_name(target), fast_probe());
    corpus.multimaps.push_back(artifact_line(std::string("multimaps.") + target,
                                             sample_bits(target_profile.surface.samples())));
    for (const char* app_name : {"specfem3d", "uh3d", "hpcg"}) {
      const auto app = synth::make_app(app_name);
      for (const std::uint32_t threads : {1u, kHybridThreads}) {
        psins::ReferenceOptions options;
        options.max_refs_per_kernel = kMaxRefsPerKernel;
        options.threads_per_rank = threads;
        const psins::MeasuredRun run =
            psins::measure_run(*app, kCorpusCores, target_profile, options);
        std::string bits;
        append_bits(bits, run.runtime_seconds);
        append_bits(bits, run.compute_seconds);
        append_bits(bits, run.comm_seconds);
        corpus.measurements.push_back(artifact_line(std::string("measure.") + app_name +
                                                        "." + target + "." +
                                                        (threads == 1 ? "mpi" : "hybrid"),
                                                    bits));
      }
    }
  }
  return corpus;
}

const Corpus& corpus() {
  static const Corpus computed = compute_corpus();
  return computed;
}

/// The committed digest file as name → full line.
std::map<std::string, std::string> committed(const std::string& prefix) {
  std::ifstream in(PMACX_GOLDEN_CORPUS);
  EXPECT_TRUE(in.good()) << "cannot read " << PMACX_GOLDEN_CORPUS;
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string name = line.substr(0, line.find(' '));
    if (name.rfind(prefix, 0) == 0) lines[name] = line;
  }
  return lines;
}

/// Compares one section against the committed file, line by line.  A
/// mismatch prints the replacement line; a stale committed line (an
/// artifact or counter the code no longer produces) is a failure too.
void expect_section(const std::string& prefix, const std::vector<std::string>& actual) {
  std::map<std::string, std::string> expected = committed(prefix);
  ASSERT_FALSE(actual.empty());
  for (const std::string& line : actual) {
    const std::string name = line.substr(0, line.find(' '));
    const auto it = expected.find(name);
    if (it == expected.end()) {
      ADD_FAILURE() << name << " is missing from the golden corpus; add:\n" << line;
      continue;
    }
    EXPECT_EQ(it->second, line) << name << " changed; replacement line:\n" << line;
    expected.erase(it);
  }
  for (const auto& [name, line] : expected)
    ADD_FAILURE() << "golden line no longer produced; remove:\n" << line;
}

TEST(GoldenCorpusTest, CollectedTraces) { expect_section("trace.", corpus().traces); }

TEST(GoldenCorpusTest, ExtrapolatedTraceReportAndIntervals) {
  expect_section("extrap.", corpus().extrapolation);
}

TEST(GoldenCorpusTest, PredictBodiesAndDoubles) {
  expect_section("predict.", corpus().predictions);
}

TEST(GoldenCorpusTest, FlowCounters) { expect_section("counter.", corpus().counters); }

TEST(GoldenCorpusTest, MeasuredRuns) { expect_section("measure.", corpus().measurements); }

TEST(GoldenCorpusTest, MultiMapsSamples) { expect_section("multimaps.", corpus().multimaps); }

TEST(GoldenCorpusTest, CheckpointBytes) { expect_section("ckpt.", corpus().checkpoints); }

// Computed in the test itself (not in corpus()) so its run time shows.
TEST(GoldenCorpusTest, ReplayAtScale) {
  std::vector<std::string> replays;
  for (const char* app_name : {"specfem3d", "uh3d", "hpcg"}) add_replay_lines(app_name, replays);
  expect_section("replay.", replays);
}

}  // namespace
}  // namespace pmacx
