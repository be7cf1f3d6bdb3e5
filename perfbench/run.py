#!/usr/bin/env python3
"""Build and run one workload of the crowdrank benchmark.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The first run configures and
builds the library and the benchmark (Release) into .bench_build/; later
runs only re-check the build. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of the traced replay. The last line of
stdout is the result object; the exit code is non-zero when the build
fails or any output fails its correctness check. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build(env):
    """Configures once, then builds both benchmark binaries."""
    stamp = os.path.join(BUILD, "perfbench.configured")
    if not os.path.exists(stamp):
        subprocess.run(
            ["cmake", "-S", ROOT, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release",
             "-DCROWDRANK_BUILD_TESTS=OFF",
             "-DCROWDRANK_BUILD_BENCHES=OFF",
             "-DCROWDRANK_BUILD_EXAMPLES=OFF",
             "-DCROWDRANK_WERROR=OFF",
             "-DCMAKE_PROJECT_crowdrank_INCLUDE=" +
             os.path.join(HERE, "attach.cmake")],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
        with open(stamp, "w", encoding="utf-8"):
            pass
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs,
         "--target", "perfbench", "perfbench_trace"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_cold", "serve_warm", "rank_large"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject", default="none",
                        help="deliberate fault, for the benchmark's tests")
    args = parser.parse_args()

    # Compiler and run scratch stay inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    binary = "perfbench_trace" if args.trace else "perfbench"
    out_dir = os.path.join(BUILD, "perfbench-out",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    command = [os.path.join(BUILD, "perfbench", binary),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out-dir", out_dir,
               "--inject", args.inject]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
