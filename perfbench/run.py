#!/usr/bin/env python3
"""Build the vrex load generator from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload edge-stream --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds perfbench/ (and through it the
vrex libraries under src/) into .bench_build/ — or into
$CARGO_TARGET_DIR when that is set — and later runs only re-check the
build. Build output goes to stderr; stdout carries the load
generator's report, whose last line is the result JSON. A traced run
(--trace 1) also writes a Perfetto-loadable trace to
<build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("edge-stream", "serve-mix", "resume-churn")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Run a build step; on failure show its output and stop."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"{' '.join(cmd)}: {err}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")


def build(root, build_dir):
    source = root / "perfbench"
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no vrex sources under {root} (need CMakeLists.txt and src/)")
    binary = build_dir / "vrex_perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if _has("ninja") else []
        run_quiet(["cmake", "-S", str(source), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release", *generator], 300)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_quiet(["cmake", "--build", str(build_dir), "-j", jobs], 800)
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def _has(program):
    return any((Path(d) / program).is_file()
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    root = Path(__file__).resolve().parent.parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    binary = build(root, build_root / "perfbench")

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = build_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("the load generator did not finish in time")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
