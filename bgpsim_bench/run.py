#!/usr/bin/env python3
"""Build bgpsim_bench from source and run one workload, or the whole suite.

One workload (the interface BENCHMARK.json names):

    python3 bgpsim_bench/run.py --workload NAME --seed N --seconds T --trace 0|1

builds the package into $CARGO_TARGET_DIR (default .bench_build) on first
use, runs the workload, and passes its output through: the last stdout line
is the JSON result, and the exit code is non-zero when a correctness gate
failed. At a workload's default seed the pinned digest is enforced too.
Spans and the full per-run record land in <build dir>/out/.

The whole suite at the default seeds, timed then traced:

    python3 bgpsim_bench/run.py --all --out DIR [--seconds T]

Run from the repository root.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

# Default seed and the svc::trialset_digest (campaign_digest for the
# campaign) of one timed rep at that seed: the rep's trials for the
# single-trial workloads, the whole campaign for campaign-fig8.
PINNED = {
    "headline-tdown": (3, "7fa21cc2dc0305fe"),
    "fulltable-512": (1, "c0cd4e6ee333bf20"),
    "policy-10k": (1, "cff5d48ba555667a"),
    "campaign-fig8": (1, "adba9156d34a9707"),
}

RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"

HERE = Path(__file__).resolve().parent


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found next to {HERE.name}/")
        return None
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    compile_cmd = ["cmake", "--build", str(build_dir), "-j", BUILD_JOBS,
                   "--target", "bgpsim_bench"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return build_dir / "bgpsim_bench"


def run_one(binary, workload, seed, seconds, trace, out_dir):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_dir)]
    default_seed, digest = PINNED[workload]
    if seed == default_seed:
        cmd += ["--expect-digest", digest]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PINNED))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload at its default seed, "
                             "timed and traced")
    parser.add_argument("--out", help="result directory for --all")
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give either --workload or --all")
    if args.workload is not None and args.seed is None:
        parser.error("--seed is required")
    if args.all and not args.out:
        parser.error("--all needs --out")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary = build(build_dir)
    if binary is None:
        return 1

    if not args.all:
        out_dir = build_dir / "out"
        out_dir.mkdir(exist_ok=True)
        code, stdout = run_one(binary, args.workload, args.seed, args.seconds,
                               args.trace, out_dir)
        sys.stdout.write(stdout)
        return code

    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for workload, (seed, _) in PINNED.items():
        for trace in (0, 1):
            code, stdout = run_one(binary, workload, seed, args.seconds, trace,
                                   out_dir)
            log(f"{workload} trace={trace} exit={code}")
            worst = max(worst, code)
            if stdout:
                print(stdout.strip().splitlines()[-1])
    return worst


if __name__ == "__main__":
    sys.exit(main())
