#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the driver and pmacx_serve from this checkout's sources (CMake, into
.perfbench_build/ at the checkout root), generates the workload's seeded
inputs in a separate process, runs the workload, and prints one JSON object
as the last line of standard output:

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".perfbench_build")
WORKLOADS = ("table1", "extrapolate_wide", "serve_predict", "serve_ingest")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, capture=False):
    """Runs cmd in its own process group; the group is killed on timeout and
    after exit, so no child (e.g. a spawned server) outlives the run."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{os.path.basename(cmd[0])} timed out after {timeout} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(cmd[0])} exited with code {proc.returncode}")
    return out


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no pmacx sources next to the benchmark (src/CMakeLists.txt missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_group(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 600)
    run_group(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets], 900)


def expected_names(trace):
    """Metric names BENCHMARK.json lists for this kind of run (None when the
    file is absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_selftest"])
        run_group([os.path.join(BUILD, "perfbench_selftest")], 300)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    build(["perfbench_driver", "pmacx_serve"])
    work = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    driver = os.path.join(BUILD, "perfbench_driver")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", work]
    try:
        run_group([driver, "gen", *common], 300)
        out = run_group([driver, "run", *common, "--serve", os.path.join(BUILD, "pmacx_serve")],
                        RUN_TIMEOUT_S, capture=True)
    finally:
        if args.trace:
            spans = os.path.join(work, "spans.jsonl")
            if os.path.isfile(spans):
                shutil.copy(spans, os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.jsonl"))
        shutil.rmtree(work, ignore_errors=True)

    lines = [line for line in out.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    names = expected_names(args.trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        raise RuntimeError("driver metrics do not match BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(result['metrics']))}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError) as e:
        log(str(e))
        sys.exit(2)
