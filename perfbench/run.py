#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
program's src/ layers plus the workload runner (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR (default .bench_build) inside the checkout; later
runs only check that the build is current. Build output goes to stderr.

The runner prints an `info` line and, last, one JSON line with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). A traced run also writes a Chrome
trace-event file under <build dir>/traces/, which this script loads once to
check it is valid JSON. The exit code is the runner's: nonzero when the
build fails, an output check fails or the run times out.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ("optimistic-batch", "sharded-stream", "interactive-session")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no program sources (src/) next to perfbench/",
              file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per build directory.
    with open(os.path.join(build_root, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "yt_perfbench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                print("perfbench: build failed: " + " ".join(step),
                      file=sys.stderr)
                return 3

    cmd = [os.path.join(build_dir, "yt_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not result or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: the runner printed no result line", file=sys.stderr)
        return 5
    if trace_path is not None:
        with open(trace_path) as f:
            events = json.load(f).get("traceEvents")
        if not isinstance(events, list) or not events:
            print("perfbench: %s has no trace events" % trace_path,
                  file=sys.stderr)
            return 6
        print("perfbench: trace %s (%d events)" % (trace_path, len(events)),
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
