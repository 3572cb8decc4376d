#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--smoke]

NAME is one of safety-n5, liveness-s4, campaign-e10, fuzz-seed7, or
`all`, which runs each workload in its own process (so each peak RSS
belongs to one workload) and ends with a combined result line.

The benchmark package is built from source first (`cargo build
--release --offline`, into $CARGO_TARGET_DIR, default `.bench_build`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
every correctness gate passed, and non-zero otherwise; when the build or
a workload process fails, no result line is printed. With `--trace 1`
the Chrome trace-event file is written under `.bench_out/`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["safety-n5", "liveness-s4", "campaign-e10", "fuzz-seed7"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for checking the harness")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def build():
    """Builds the benchmark binary and returns its path, or exits."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    try:
        built = subprocess.run(command, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {built.returncode}")
    return os.path.join(target, "release", "perfbench")


def run_workload(binary, workload, args):
    """Runs one workload process; returns (exit code, output lines, result)."""
    command = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: {workload} did not finish: {e}")
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        sys.exit(f"perfbench: {workload} ended without a result (exit code {done.returncode})")
    return done.returncode, lines, result


def main():
    args = parse_args()
    os.chdir(ROOT)
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in workloads:
        code, lines, result = run_workload(binary, workload, args)
        worst = max(worst, code)
        if len(workloads) == 1:
            print("\n".join(lines))
            sys.exit(code)
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
