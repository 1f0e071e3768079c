#!/usr/bin/env python3
"""Build and run the wall-clock benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of the repository.  The first call configures and builds
perfbench/ (which compiles ../src) into the build directory: $CARGO_TARGET_DIR
if set, else .bench_build.  Later calls rebuild incrementally.  Build output
goes to stderr; stdout is the benchmark's own, whose last line is the result
object.  A build failure or a run past its deadline exits non-zero without a
result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DEADLINE_S = 170


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build() -> Path:
    out = build_dir()
    # Keep the compiler's temporary files inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write(f"perfbench: build step failed: {' '.join(step)}\n")
            sys.exit(1)
    return out


def run(cmd, capture=False):
    """Runs cmd with the deadline; exits non-zero if it is missed."""
    try:
        return subprocess.run(cmd, timeout=RUN_DEADLINE_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {cmd[0]} missed its "
                         f"{RUN_DEADLINE_S} s deadline\n")
        sys.exit(1)


def selftest(out: Path) -> int:
    """Quick mode of every workload, traced and untraced, must pass its
    correctness gate and print exactly the metrics BENCHMARK.json names;
    then the gate itself must refuse wrong digests and byte counts."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            done = run([str(out / "perfbench"), "--workload", workload,
                        "--seed", "1", "--seconds", "0", "--trace", trace,
                        "--quick"], capture=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            units = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            ok = (done.returncode == 0 and result.get("correct") is True
                  and result.get("failed") == 0 and units == expected[trace])
            print(f"{'ok  ' if ok else 'FAIL'} quick {workload} --trace {trace}")
            if not ok:
                failures += 1
                print(done.stdout)
    failures += run([str(out / "perfbench_selftest")]).returncode != 0
    print("perfbench selftest " + ("passed" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build()
    if args.selftest:
        return selftest(out)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    return run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
