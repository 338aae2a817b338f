// pmacx_extrapolate — synthesize a trace at a larger core count.
//
// Reads a series of trace files collected at increasing small core counts
// (positional arguments), fits every feature-vector element with the
// canonical forms, and writes the extrapolated trace for the target count —
// the paper's Section IV as a command.
//
//   pmacx_extrapolate --target-cores 6144 --out s6144.trace \
//       s96.trace s384.trace s1536.trace
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/comm_extrap.hpp"
#include "core/extrapolator.hpp"
#include "trace/binary_io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/threadpool.hpp"

namespace {

void usage() {
  std::puts(
      "pmacx_extrapolate — extrapolate a trace series to a larger core count\n"
      "\n"
      "usage: pmacx_extrapolate [options] <trace files, ascending core counts>\n"
      "       pmacx_extrapolate --signatures [options] <signature dirs, ascending>\n"
      "\n"
      "options:\n"
      "  --target-cores <n>     core count to extrapolate to (required)\n"
      "  --signatures           inputs are signature directories (from\n"
      "                         pmacx_trace --signature-dir); extrapolates the\n"
      "                         communication timelines too and writes a full\n"
      "                         signature directory to --out\n"
      "  --out <file|dir>       output path (default: extrapolated.trace)\n"
      "  --forms <set>          paper | default | all   (default: default)\n"
      "  --missing <policy>     drop | zero | carry | fit-present (default: zero)\n"
      "  --influence <frac>     influence threshold     (default: 0.001)\n"
      "  --loo-cv               leave-one-out selection (needs >= 4 inputs)\n"
      "  --salvage              recover damaged binary traces block-by-block\n"
      "                         instead of rejecting them (lost blocks are\n"
      "                         reported in the diagnostics)\n"
      "  --report               print the fit-quality report\n"
      "  --worst <n>            with --report, list the n worst elements\n"
      "  --csv <file>           write the full per-element fit report as CSV\n"
      "  --bootstrap <n>        attach n-resample 90% intervals to the report\n"
      "  --interval <coverage>  Bayesian prediction intervals: write the\n"
      "                         lo/median/hi traces next to --out (suffixes\n"
      "                         .lo/.median/.hi) and add bayes_* columns to\n"
      "                         the --csv report; coverage in (0, 1)\n"
      "  --holdout              coverage check: hold out the *last* (largest\n"
      "                         core count) input as ground truth, fit on the\n"
      "                         rest, and report how many element intervals\n"
      "                         contain the held-out value (counters\n"
      "                         fits.bayes.holdout_total / _covered); implies\n"
      "                         --interval 0.9 unless --interval is given,\n"
      "                         and defaults --target-cores to the held-out\n"
      "                         trace's core count\n"
      "  --threads <n>          worker threads for input loading and fitting\n"
      "                         (default: PMACX_THREADS, else all hardware\n"
      "                         threads; 1 = serial — output is identical\n"
      "                         either way)\n"
      "  --metrics-json <file>  write a pmacx-metrics-v1 snapshot (counters,\n"
      "                         stage timings, run manifest) to this file\n"
      "  --checkpoint-dir <dir> crash-safe fitting: persist fitted models in\n"
      "                         pmacx-ckpt-v3 chunks under <dir> as they\n"
      "                         complete; a re-run after a crash re-fits only\n"
      "                         the missing chunks and produces byte-identical\n"
      "                         output.  Stale checkpoints (different inputs\n"
      "                         or options) are detected by content digest\n"
      "                         and redone\n"
      "  --checkpoint-chunk <n> elements per checkpoint chunk (default: 256;\n"
      "                         smaller chunks lose less work to a crash but\n"
      "                         pay more fsyncs)\n"
      "  --crash-after-chunks <n>\n"
      "                         test hook: SIGKILL this process after n\n"
      "                         checkpoint chunk writes (requires\n"
      "                         --checkpoint-dir)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pmacx;

  std::vector<std::string> inputs;
  std::uint32_t target_cores = 0;
  std::string out = "extrapolated.trace";
  std::string forms = "default";
  std::string missing = "zero";
  double influence = 0.001;
  bool loo = false, report = false, signatures = false, salvage = false;
  std::uint64_t worst = 5;
  std::string csv;
  std::uint64_t bootstrap = 0;
  double interval = 0.0;
  bool holdout = false;
  std::uint64_t threads = 0;  // 0 = PMACX_THREADS / hardware
  std::string metrics_json;
  std::string checkpoint_dir;
  std::uint64_t checkpoint_chunk = 256;
  std::uint64_t crash_after_chunks = 0;

  try {
    // PMACX_IO_FAULTS fault-injects every checkpoint/trace write in this
    // process (spawn tests and operators rehearse disk failure with it).
    util::io::install_faults_from_env();
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        PMACX_CHECK(i + 1 < argc, "option " + arg + " requires a value");
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else if (arg == "--target-cores") {
        target_cores = static_cast<std::uint32_t>(util::parse_flag_u64(value(), arg));
      } else if (arg == "--out") {
        out = value();
      } else if (arg == "--forms") {
        forms = value();
      } else if (arg == "--missing") {
        missing = value();
      } else if (arg == "--influence") {
        influence = util::parse_flag_double(value(), arg);
      } else if (arg == "--loo-cv") {
        loo = true;
      } else if (arg == "--salvage") {
        salvage = true;
      } else if (arg == "--signatures") {
        signatures = true;
      } else if (arg == "--report") {
        report = true;
      } else if (arg == "--worst") {
        worst = util::parse_flag_u64(value(), arg);
      } else if (arg == "--csv") {
        csv = value();
      } else if (arg == "--bootstrap") {
        bootstrap = util::parse_flag_u64(value(), arg);
      } else if (arg == "--interval") {
        interval = util::parse_flag_double(value(), arg);
        PMACX_CHECK(interval > 0.0 && interval < 1.0, "--interval must be in (0, 1)");
      } else if (arg == "--holdout") {
        holdout = true;
      } else if (arg == "--threads") {
        threads = util::parse_flag_u64(value(), arg);
      } else if (arg == "--metrics-json") {
        metrics_json = value();
      } else if (arg == "--checkpoint-dir") {
        checkpoint_dir = value();
      } else if (arg == "--checkpoint-chunk") {
        checkpoint_chunk = util::parse_flag_u64(value(), arg);
        PMACX_CHECK(checkpoint_chunk > 0, "--checkpoint-chunk must be positive");
      } else if (arg == "--crash-after-chunks") {
        crash_after_chunks = util::parse_flag_u64(value(), arg);
      } else if (util::starts_with(arg, "--")) {
        PMACX_CHECK(false, "unknown option " + arg);
      } else {
        inputs.push_back(arg);
      }
    }
    if (holdout && interval == 0.0) interval = 0.9;
    PMACX_CHECK(target_cores > 0 || holdout,
                "--target-cores is required (defaulted only under --holdout)");
    PMACX_CHECK(inputs.size() >= (holdout ? 3u : 2u),
                holdout ? "--holdout needs at least three inputs (two to fit, one held out)"
                        : "need at least two inputs");
    PMACX_CHECK(!(holdout && signatures), "--holdout does not support --signatures");
    PMACX_CHECK(crash_after_chunks == 0 || !checkpoint_dir.empty(),
                "--crash-after-chunks requires --checkpoint-dir");

    const std::size_t n_threads = util::ThreadPool::resolve_threads(threads);
    std::optional<util::ThreadPool> pool;
    if (n_threads > 1) pool.emplace(n_threads);

    // Ingestion: every input file loads (and validates) independently, so
    // I/O + parsing overlap across the pool.  Per-file salvage outcomes are
    // collected per slot and merged into the diagnostics in input order —
    // identical to the serial loop's ledger.  A failing file's ParseError
    // propagates with its original type, lowest input index first.
    struct LoadedInput {
      trace::TaskTrace trace;
      std::optional<trace::AppSignature> signature;
      trace::SalvageReport salvaged;
    };
    core::DiagnosticsReport diagnostics;
    auto load_one = [&](std::size_t i) {
      const std::string& path = inputs[i];
      LoadedInput loaded;
      if (signatures) {
        loaded.signature = trace::AppSignature::load(path);
        loaded.trace = loaded.signature->demanding_task();
      } else if (salvage) {
        loaded.trace = trace::load_salvage(path, loaded.salvaged);
      } else {
        loaded.trace = trace::TaskTrace::load(path);
      }
      loaded.trace.validate();
      return loaded;
    };
    std::vector<LoadedInput> loaded_inputs;
    {
      util::metrics::StageTimer load_timer("extrapolate.load");
      if (pool) {
        loaded_inputs = pool->parallel_map<LoadedInput>(inputs.size(), load_one);
      } else {
        loaded_inputs.reserve(inputs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i)
          loaded_inputs.push_back(load_one(i));
      }
    }
    std::vector<trace::AppSignature> input_signatures;
    std::vector<trace::TaskTrace> traces;
    traces.reserve(inputs.size());
    for (std::size_t i = 0; i < loaded_inputs.size(); ++i) {
      LoadedInput& loaded = loaded_inputs[i];
      if (loaded.signature) input_signatures.push_back(std::move(*loaded.signature));
      if (loaded.salvaged.used) {
        ++diagnostics.salvaged_files;
        diagnostics.salvaged_blocks += loaded.salvaged.blocks_recovered;
        diagnostics.lost_blocks += loaded.salvaged.blocks_lost();
        diagnostics.warn(inputs[i] + ": salvaged " +
                         std::to_string(loaded.salvaged.blocks_recovered) + " of " +
                         std::to_string(loaded.salvaged.blocks_expected) + " blocks (" +
                         loaded.salvaged.error + ")");
      }
      traces.push_back(std::move(loaded.trace));
    }

    // Holdout mode: the largest-count input becomes ground truth — the fit
    // never sees it, and the interval it produces at that count is judged
    // against it below.
    std::optional<trace::TaskTrace> truth;
    if (holdout) {
      truth = std::move(traces.back());
      traces.pop_back();
      if (target_cores == 0) target_cores = truth->core_count;
    }

    core::ExtrapolationOptions options;
    if (forms == "paper") {
      options.fit.forms.assign(stats::paper_forms().begin(), stats::paper_forms().end());
    } else if (forms == "all") {
      options.fit.forms.assign(stats::all_forms().begin(), stats::all_forms().end());
    } else {
      PMACX_CHECK(forms == "default", "unknown --forms value '" + forms + "'");
    }
    if (missing == "drop") {
      options.missing = core::MissingPolicy::Drop;
    } else if (missing == "carry") {
      options.missing = core::MissingPolicy::CarryLast;
    } else if (missing == "fit-present") {
      options.missing = core::MissingPolicy::FitPresent;
    } else {
      PMACX_CHECK(missing == "zero", "unknown --missing value '" + missing + "'");
    }
    options.influence_threshold = influence;
    options.fit.loo_cv = loo;
    options.bootstrap_resamples = bootstrap;
    options.interval_coverage = interval;
    options.threads = n_threads;
    options.pool = pool ? &*pool : nullptr;

    // Fit, checkpointed or not, then evaluate once.  The checkpoint persists
    // fitted models chunk by chunk and reuses any valid chunks from a prior
    // (possibly killed) run.  Its digest is computed over the loaded traces'
    // canonical binary encoding, so it is stable across runs and across
    // --salvage / --signatures input modes.
    const core::TaskModelSet models = [&] {
      if (checkpoint_dir.empty()) return core::fit_task_models(traces, options);
      core::CheckpointConfig ckpt;
      ckpt.dir = checkpoint_dir;
      ckpt.digest = core::models_digest_for_traces(traces, options);
      ckpt.chunk_elements = checkpoint_chunk;
      ckpt.kill_after_chunks = crash_after_chunks;
      core::CheckpointStats stats;
      core::TaskModelSet fitted =
          core::fit_task_models_checkpointed(traces, options, ckpt, &stats);
      // Progress on stderr: stdout stays byte-identical to an uncheckpointed
      // run, which the resume golden test relies on.
      std::fprintf(stderr,
                   "pmacx_extrapolate: checkpoint %s: reused %zu/%zu elements, fitted "
                   "%zu, discarded %zu stale chunk(s)\n",
                   ckpt.digest.c_str(), stats.elements_reused, stats.elements_total,
                   stats.elements_fitted, stats.chunks_discarded);
      return fitted;
    }();
    const core::ExtrapolationResult result = core::extrapolate_from_models(models, target_cores);
    diagnostics.merge(result.diagnostics);
    if (signatures) {
      // Full-signature mode: extrapolate the communication side too and
      // write a self-contained signature directory.
      if (out == "extrapolated.trace") out = "extrapolated.sig";
      trace::AppSignature::for_task(result.trace,
                                    core::extrapolate_comm(input_signatures, target_cores).comm)
          .save(out);
      std::printf("extrapolated %zu blocks + %u comm timelines to %u cores -> %s\n",
                  result.trace.blocks.size(), target_cores, target_cores, out.c_str());
    } else {
      result.trace.save(out);
      std::printf("extrapolated %zu blocks to %u cores -> %s\n",
                  result.trace.blocks.size(), target_cores, out.c_str());
      if (result.has_interval) {
        result.trace_lo.save(out + ".lo");
        result.trace_median.save(out + ".median");
        result.trace_hi.save(out + ".hi");
        std::printf("interval traces (%g%% coverage) -> %s.{lo,median,hi}\n",
                    interval * 100.0, out.c_str());
      }
    }

    if (truth) {
      // Coverage tally: for every element with an interval, look up the true
      // value in the held-out trace and check lo ≤ truth ≤ hi (raw posterior
      // quantiles; the truth is always in-domain, so clamping cannot change
      // the verdict).  A tiny scale-relative tolerance absorbs the float
      // noise of a collapsed (exact-fit) interval.
      std::unordered_map<std::uint64_t, const trace::BasicBlockRecord*> truth_blocks;
      for (const auto& block : truth->blocks) truth_blocks[block.id] = &block;
      std::uint64_t interval_total = 0, interval_covered = 0;
      for (const auto& fit : result.report.elements) {
        if (!fit.has_bayes) continue;
        const auto it = truth_blocks.find(fit.key.block_id);
        if (it == truth_blocks.end()) continue;
        double actual = 0.0;
        if (fit.key.is_block_level()) {
          actual = it->second->features[fit.key.element];
        } else {
          const trace::InstructionRecord* found = nullptr;
          for (const auto& instr : it->second->instructions) {
            if (static_cast<std::int32_t>(instr.index) == fit.key.instr_index) {
              found = &instr;
              break;
            }
          }
          if (found == nullptr) continue;
          actual = found->features[fit.key.element];
        }
        ++interval_total;
        const double tolerance = 1e-9 * (1.0 + std::fabs(actual));
        if (actual >= fit.bayes.lo - tolerance && actual <= fit.bayes.hi + tolerance)
          ++interval_covered;
      }
      util::metrics::Registry& registry = util::metrics::Registry::global();
      registry.counter("fits.bayes.holdout_total").add(interval_total);
      registry.counter("fits.bayes.holdout_covered").add(interval_covered);
      const double rate = interval_total > 0
                              ? static_cast<double>(interval_covered) /
                                    static_cast<double>(interval_total)
                              : 1.0;
      std::printf(
          "holdout coverage at %u cores: %llu/%llu elements inside the %g%% "
          "interval (%.1f%%)\n",
          target_cores, static_cast<unsigned long long>(interval_covered),
          static_cast<unsigned long long>(interval_total), interval * 100.0,
          rate * 100.0);
    }

    if (!csv.empty()) {
      std::ofstream out(csv, std::ios::trunc);
      PMACX_CHECK(out.good(), "cannot open '" + csv + "' for writing");
      out << result.report.to_csv();
      std::printf("fit report CSV -> %s\n", csv.c_str());
    }

    if (report) {
      std::printf("\n%s", result.report.summary().c_str());
      std::printf("\nworst-fitting influential elements:\n");
      for (const auto* fit : result.report.worst_elements(worst)) {
        std::printf("  %-40s %-28s fit err %s\n", fit->key.describe().c_str(),
                    fit->model.describe().c_str(),
                    util::human_percent(fit->max_fit_rel_error, 1).c_str());
      }
    }
    // A degraded run must be visibly different from a clean one, report
    // flag or not.
    if (report || !diagnostics.clean())
      std::printf("\n%s", diagnostics.summary().c_str());

    if (!metrics_json.empty()) {
      util::metrics::RunManifest manifest =
          util::metrics::RunManifest::for_tool("pmacx_extrapolate");
      manifest.threads = static_cast<std::uint32_t>(n_threads);
      manifest.config = {
          {"target-cores", std::to_string(target_cores)},
          {"out", out},
          {"forms", forms},
          {"missing", missing},
          {"influence", util::format("%g", influence)},
          {"loo-cv", loo ? "1" : "0"},
          {"salvage", salvage ? "1" : "0"},
          {"signatures", signatures ? "1" : "0"},
          {"bootstrap", std::to_string(bootstrap)},
          {"interval", util::format("%g", interval)},
          {"holdout", holdout ? "1" : "0"},
          {"threads", std::to_string(threads)},
          {"checkpoint-dir", checkpoint_dir},
      };
      for (const std::string& path : inputs) manifest.add_input(path);
      util::metrics::write_json(metrics_json, manifest,
                                util::metrics::Registry::global().snapshot());
    }
    return 0;
  } catch (const util::Error& e) {
    std::fprintf(stderr, "pmacx_extrapolate: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmacx_extrapolate: internal error: %s\n", e.what());
    return 1;
  }
}
