#!/usr/bin/env python3
"""Build and run the Ariadne benchmark from the root of a checkout.

    python3 perfbench/run.py --workload monitor|lineage|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds the `perfbench` binary (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs one workload, and prints its figure lines
followed by the result line, which is checked against the metric names
and units in `BENCHMARK.json` before it is printed. Any failure (build,
correctness gate, missing metric, timeout) exits non-zero without a
result line.

`--smoke` runs every workload at a tiny size, untraced and traced, in a
few seconds each, and checks that every metric `BENCHMARK.json` names is
emitted with its unit.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("monitor", "lineage", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"), "--bin", "perfbench",
    ]
    subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=True)
    return target.resolve() / "release" / "perfbench"


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_result(line, traced, bench):
    """The result line, parsed, if it carries exactly the declared metrics."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(result)}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(k for k in set(got) & set(declared) if got[k] != declared[k])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise ValueError("run reported incorrect output or no attempts")
    return result


def run_workload(binary, workload, seed, seconds, trace, size="full"):
    """Run one workload; returns (figure lines, parsed result)."""
    cmd = [
        str(binary), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--size", size,
        "--work-dir", ".bench_work",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    return lines[:-1], lines[-1], check_result(lines[-1], trace == 1, spec())


def smoke(binary):
    for workload in WORKLOADS:
        for trace in (0, 1):
            figures, _, result = run_workload(binary, workload, 1, 1, trace, size="smoke")
            print(f"smoke {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed, {len(figures)} figure lines")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not args.smoke and (args.workload is None or args.seed is None or args.seconds is None):
        p.error("--workload, --seed and --seconds are required (or --smoke)")
    try:
        binary = build()
        if args.smoke:
            smoke(binary)
            return 0
        figures, line, _ = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for f in figures:
        print(f)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
