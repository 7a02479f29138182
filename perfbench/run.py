#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload wire_mix --seed 1 --seconds 30 --trace 0

The `perfbench` binary is compiled (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later runs reuse the build. Diagnostics go to stdout as '#' lines; the last stdout line is one
JSON object with "correct", "attempted", "failed" and "metrics". Build
output goes to stderr. Any failure to build or run exits non-zero without
printing a result.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_mix", "paper10_engine", "events_scan")
FIG31 = os.path.join(ROOT, "results", "bench_fig31_granularity.json")
FIG31_IPS = ("4", "16", "50")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then (re)builds the binary; serialized by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dfdb sources next to " + HERE)
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        compile_cmd = ["cmake", "--build", build_dir, "--target",
                       "perfbench", "--parallel", "2"]
        if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "perfbench")


def fig31_makespans():
    """The committed FIG-3.1 makespans the simulator must reproduce."""
    with open(FIG31) as f:
        runs = json.load(f)["runs"]
    items = []
    for run in runs:
        if run.get("backend") != "machine":
            continue
        granularity, _, ips = run["label"].partition(" p=")
        if ips in FIG31_IPS:
            ns = run["counters"]["machine.makespan_ns"]
            items.append("%s:%s:%d" % (granularity, ips, ns))
    if len(items) != 2 * len(FIG31_IPS):
        fail("FIG-3.1 results lack the 4/16/50-IP makespans")
    return ",".join(items)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    binary = build(build_dir)

    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--git-sha=" + git_sha()]
    if args.workload == "paper10_engine":
        cmd.append("--fig31=" + fig31_makespans())
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace-out=" + os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed)))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result")
    names = expected_metrics(args.trace == 1)
    if sorted(result["metrics"]) != sorted(names):
        fail("benchmark metrics %s differ from BENCHMARK.json %s" %
             (sorted(result["metrics"]), sorted(names)))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
