#!/usr/bin/env python3
"""Build libsplice's pipeline benchmark and run one workload.

    python3 perfbench/run.py --workload public-splice --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles libsplice from src/)
under the build directory: $CARGO_TARGET_DIR if set, else .bench_build.
Later runs rebuild only what changed.  Build output goes to stderr.

The last line of stdout is the benchmark's JSON result
{"correct", "attempted", "failed", "metrics"}; it is printed only when the
build and the run both succeed.  Otherwise the exit code is non-zero and no
result is printed.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("public-splice", "local-rewire")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def run_checked(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build(target):
    cmake_dir = build_dir() / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", str(cmake_dir), "--target", target, "-j", jobs])
    return cmake_dir / target


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build("pipeline_bench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(build_dir() / "work")]
    # Stop the benchmark if we are stopped, and always wait for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if code != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("\n".join(lines), file=sys.stderr)
        print(f"run.py: benchmark exited {code} without a result", file=sys.stderr)
        return code or 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
