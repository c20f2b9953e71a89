#!/usr/bin/env python3
"""Builds the flowsched benchmark program from this checkout and runs one
workload.

    python3 perfbench/run.py --workload batch-maxweight --seed 3 \
        --seconds 30 --trace 0

Run from the root of a flowsched checkout. The first run configures and
builds a Release copy of the library plus the benchmark into the directory
named by CARGO_TARGET_DIR (default .bench_build); build output goes to
stderr. The report lines go to stdout and the last line is the
result object: {"correct", "attempted", "failed", "metrics"}. Without the
flowsched sources next to this directory the run fails before printing a
result. perfbench/README.md describes the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("batch-maxweight", "batch-light", "serve-open", "offline-lp")
# The benchmark paces itself by --seconds; this only stops a hung run.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_hash():
    """SHA-256 over the program's sources: names the code even where the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 2)
    program = build_dir / "perfbench"
    if not program.is_file():
        fail(f"build produced no {program}", 2)
    return program


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0", 2)
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be in [1, 600]", 2)
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no flowsched sources in {ROOT}", 2)

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    program = build(build_dir)
    out_dir = build_dir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pinned", str(BENCH_DIR / "pinned.json"),
           "--out-dir", str(out_dir), "--source-hash", source_hash()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with {done.returncode}", 4)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout)
        fail("benchmark printed no result line", 4)
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
