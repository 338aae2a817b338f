#!/usr/bin/env python3
"""Validate a --metrics-json snapshot for the CI observability gate.

  metrics_check.py <snapshot.json> [--max-fallback-ratio 0.05]
                                   [--require-counter NAME ...]
                                   [--require-positive-counter NAME ...]
                                   [--require-nonzero-timer STAGE ...]
                                   [--min-counter-ratio NUM DEN MIN ...]
                                   [--max-counter NAME MAX ...]

Checks, in order:

  1. Schema: the document is a pmacx-metrics-v1 object with a well-formed
     manifest (tool/version/git_sha/threads/config/inputs), and counters,
     gauges, and timers sections of the right shapes.  A malformed snapshot
     means the emitter and this checker disagree about the schema — that is
     a bug, not a tuning problem, so it always fails.
  2. Required metrics: every stage the emitting tool is expected to run
     (TOOL_REQUIRED_STAGES, keyed by manifest.tool — a serve-only run has no
     trace.* timers, so one global list cannot work) plus every
     --require-nonzero-timer stage must have recorded wall time
     ("<stage>.wall_ns" with count > 0 and sum > 0); every counter the tool
     is expected to register (TOOL_REQUIRED_COUNTERS — e.g. the SIMD/mmap
     fast-path counters fits.simd_batches, trace.mmap_bytes,
     trace.mmap_fallbacks for pmacx_extrapolate) plus every
     --require-counter name must be present, and every
     --require-positive-counter name must be present with a value > 0.
  3. Fit health: when the snapshot contains fit counters, the fraction of
     elements that fell back to the constant form
     (fits.constant_fallback / fits.total) must not exceed
     --max-fallback-ratio.  A fallback surge means the canonical forms
     stopped representing the workload — the extrapolations still "work"
     but quietly degrade to flat lines, which is exactly the failure mode
     the observability layer exists to surface.
  4. Ceiling gates: each --max-counter NAME MAX asserts
     counters[NAME] <= MAX, treating an absent counter as 0 (failure
     counters are registered lazily, on the first failure — absence IS the
     healthy state).  CI uses --max-counter ingest.refit_failures 0 and
     --max-counter service.requests.error 0 to pin "the soak lost nothing".
  5. Ratio gates: each --min-counter-ratio NUM DEN MIN asserts
     counters[NUM] / counters[DEN] >= MIN (with DEN required present and
     > 0).  CI uses this for the Bayesian interval coverage gate:
     fits.bayes.holdout_covered / fits.bayes.holdout_total must stay at or
     above the stated coverage minus the agreed slack.

Exit code 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import sys


# Stage timers every healthy run of a tool records, keyed by manifest.tool.
# Tools without an entry (pmacx_serve, pmacx_fit, pmacx_inspect) have no
# mandatory stages — what they must show is asserted per-run via
# --require-*-counter flags instead.
TOOL_REQUIRED_STAGES = {
    "pmacx_extrapolate": ("extrapolate.load", "extrapolate.fit", "extrapolate.apply"),
    "pmacx_trace": ("trace.task", "synth.replay.generate", "synth.replay.simulate"),
    "pmacx_predict": ("psins.predict",),
}

# Counters every snapshot from a tool must carry (presence, not positivity —
# a run may legitimately record zero).  The fast-path counters are registered
# up front by the trace loader and the batch fitter precisely so their
# absence means the instrumented code path was compiled out or regressed,
# which this map turns into a hard failure.  Positivity (e.g. "the bench run
# must actually have exercised the SIMD batch path") is asserted per-run via
# --require-positive-counter; see docs/OBSERVABILITY.md.
TOOL_REQUIRED_COUNTERS = {
    # pmacx_fit is absent deliberately: it fits one series via select_best
    # and never constructs the BatchFitter that registers fits.simd_batches.
    "pmacx_extrapolate": ("fits.total", "fits.simd_batches",
                          "trace.mmap_bytes", "trace.mmap_fallbacks"),
    # The fault layer registers its op/fault/retry counters up front, and
    # the sweep registers io.temp_leaks before the first round — if any of
    # these vanish from a diskchaos snapshot the fault-injection shim has
    # been bypassed or compiled out.  Positivity of io.faults.injected
    # (the sweep actually injected something) and the io.temp_leaks == 0
    # ceiling are asserted per-run in CI.
    "pmacx_diskchaos": ("io.ops.write", "io.ops.fsync", "io.ops.rename",
                        "io.faults.injected", "io.temp_leaks"),
}


def fail(errors):
    for err in errors:
        print(f"metrics_check: {err}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail([f"cannot read {path}: {err}"])


def is_uint(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_manifest(manifest, errors):
    if not isinstance(manifest, dict):
        errors.append("manifest is not an object")
        return
    for key in ("tool", "version", "git_sha"):
        if not isinstance(manifest.get(key), str) or not manifest.get(key):
            errors.append(f"manifest.{key} missing or not a non-empty string")
    threads = manifest.get("threads")
    if not is_uint(threads) or threads < 1:
        errors.append(f"manifest.threads must be a positive integer, got {threads!r}")
    config = manifest.get("config")
    if not isinstance(config, dict):
        errors.append("manifest.config is not an object")
    else:
        for key, value in config.items():
            if not isinstance(value, str):
                errors.append(f"manifest.config[{key!r}] is not a string")
    inputs = manifest.get("inputs")
    if not isinstance(inputs, list):
        errors.append("manifest.inputs is not an array")
        return
    for i, entry in enumerate(inputs):
        if not isinstance(entry, dict):
            errors.append(f"manifest.inputs[{i}] is not an object")
            continue
        if not isinstance(entry.get("path"), str) or not entry.get("path"):
            errors.append(f"manifest.inputs[{i}].path missing")
        if not is_uint(entry.get("bytes")):
            errors.append(f"manifest.inputs[{i}].bytes is not a non-negative integer")
        crc = entry.get("crc32")
        if not (isinstance(crc, str) and len(crc) == 8
                and all(c in "0123456789abcdef" for c in crc)):
            errors.append(f"manifest.inputs[{i}].crc32 is not 8 lowercase hex digits")
        if not isinstance(entry.get("readable"), bool):
            errors.append(f"manifest.inputs[{i}].readable is not a boolean")


def check_sections(doc, errors):
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        errors.append("counters is not an object")
        counters = {}
    for name, value in counters.items():
        if not is_uint(value):
            errors.append(f"counter {name!r} is not a non-negative integer")

    gauges = doc.get("gauges")
    if not isinstance(gauges, dict):
        errors.append("gauges is not an object")
    else:
        for name, value in gauges.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"gauge {name!r} is not a number")

    timers = doc.get("timers")
    if not isinstance(timers, dict):
        errors.append("timers is not an object")
        timers = {}
    for name, hist in timers.items():
        if not isinstance(hist, dict):
            errors.append(f"timer {name!r} is not an object")
            continue
        for field in ("count", "sum", "min", "max"):
            if not is_uint(hist.get(field)):
                errors.append(f"timer {name!r}.{field} is not a non-negative integer")
                break
        else:
            if hist["min"] > hist["max"]:
                errors.append(f"timer {name!r} has min > max")
            if hist["count"] > 0 and hist["sum"] < hist["max"]:
                errors.append(f"timer {name!r} has sum < max")
    return counters, timers


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("snapshot")
    parser.add_argument("--max-fallback-ratio", type=float, default=0.05,
                        help="allowed fits.constant_fallback / fits.total "
                             "(default 0.05)")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME", help="counter that must be present")
    parser.add_argument("--require-positive-counter", action="append", default=[],
                        metavar="NAME",
                        help="counter that must be present with a value > 0")
    parser.add_argument("--require-nonzero-timer", action="append", default=[],
                        metavar="STAGE",
                        help="stage whose <STAGE>.wall_ns must have count > 0 "
                             "and sum > 0 (added to the emitting tool's "
                             "TOOL_REQUIRED_STAGES)")
    parser.add_argument("--max-counter", action="append", default=[],
                        nargs=2, metavar=("NAME", "MAX"),
                        help="require counters[NAME] <= MAX (absent counts "
                             "as 0 — failure counters register lazily)")
    parser.add_argument("--min-counter-ratio", action="append", default=[],
                        nargs=3, metavar=("NUM", "DEN", "MIN"),
                        help="require counters[NUM] / counters[DEN] >= MIN; "
                             "DEN must be present and > 0")
    args = parser.parse_args()

    doc = load(args.snapshot)
    errors = []
    if not isinstance(doc, dict):
        fail(["snapshot is not a JSON object"])
    if doc.get("schema") != "pmacx-metrics-v1":
        errors.append(f"unexpected schema {doc.get('schema')!r} "
                      "(this checker understands pmacx-metrics-v1)")
    check_manifest(doc.get("manifest"), errors)
    counters, timers = check_sections(doc, errors)

    manifest_tool = doc.get("manifest", {})
    tool_name = manifest_tool.get("tool") if isinstance(manifest_tool, dict) else None
    required_counters = list(TOOL_REQUIRED_COUNTERS.get(tool_name, ()))
    for name in args.require_counter:
        if name not in required_counters:
            required_counters.append(name)
    for name in required_counters:
        if name not in counters:
            errors.append(f"required counter {name!r} is missing")
    for name in args.require_positive_counter:
        if name not in counters:
            errors.append(f"required counter {name!r} is missing")
        elif not (is_uint(counters[name]) and counters[name] > 0):
            errors.append(f"required counter {name!r} must be > 0, "
                          f"got {counters[name]!r}")

    manifest = doc.get("manifest") if isinstance(doc.get("manifest"), dict) else {}
    tool_stages = TOOL_REQUIRED_STAGES.get(manifest.get("tool"), ())
    required_stages = list(tool_stages)
    for stage in args.require_nonzero_timer:
        if stage not in required_stages:
            required_stages.append(stage)
    for stage in required_stages:
        hist = timers.get(f"{stage}.wall_ns")
        if not isinstance(hist, dict):
            errors.append(f"required timer {stage!r} ({stage}.wall_ns) is missing")
        elif not (is_uint(hist.get("count")) and hist["count"] > 0
                  and is_uint(hist.get("sum")) and hist["sum"] > 0):
            errors.append(f"required timer {stage!r} recorded no time")

    total = counters.get("fits.total", 0)
    fallback = counters.get("fits.constant_fallback", 0)
    if is_uint(total) and is_uint(fallback) and total > 0:
        ratio = fallback / total
        print(f"metrics_check: fits.constant_fallback {fallback} / "
              f"fits.total {total} = {ratio:.4f} "
              f"(max {args.max_fallback_ratio:.4f})")
        if ratio > args.max_fallback_ratio:
            errors.append(
                f"constant-fallback ratio {ratio:.4f} exceeds "
                f"{args.max_fallback_ratio:.4f} — the canonical forms are "
                "failing to represent this workload")

    for name, max_text in args.max_counter:
        try:
            maximum = int(max_text)
        except ValueError:
            errors.append(f"--max-counter maximum {max_text!r} is not an integer")
            continue
        value = counters.get(name, 0)
        if not is_uint(value) or value > maximum:
            errors.append(f"counter {name!r} = {value!r} exceeds the allowed "
                          f"maximum {maximum}")

    for num_name, den_name, min_text in args.min_counter_ratio:
        try:
            minimum = float(min_text)
        except ValueError:
            errors.append(f"--min-counter-ratio minimum {min_text!r} is not a number")
            continue
        numerator = counters.get(num_name)
        denominator = counters.get(den_name)
        if not is_uint(denominator) or denominator == 0:
            errors.append(f"ratio gate {num_name}/{den_name}: denominator "
                          f"{den_name!r} missing or zero ({denominator!r})")
            continue
        if not is_uint(numerator):
            errors.append(f"ratio gate {num_name}/{den_name}: numerator "
                          f"{num_name!r} missing ({numerator!r})")
            continue
        ratio = numerator / denominator
        print(f"metrics_check: {num_name} {numerator} / {den_name} "
              f"{denominator} = {ratio:.4f} (min {minimum:.4f})")
        if ratio < minimum:
            errors.append(f"ratio {num_name}/{den_name} = {ratio:.4f} is below "
                          f"the required minimum {minimum:.4f}")

    if errors:
        fail(errors)
    print(f"metrics_check: {args.snapshot} OK "
          f"({len(counters)} counters, {len(timers)} timers)")


if __name__ == "__main__":
    main()
