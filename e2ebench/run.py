#!/usr/bin/env python3
"""Builds and runs one workload of the LRGP end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package (this directory's CMakeLists.txt) is configured and
built from ../src into $CARGO_TARGET_DIR/e2ebench (default .bench_build),
then the e2e_bench binary runs the workload.  Its output is passed
through; the last line is the result object, its metrics laid out by
the catalogs of BENCHMARK.json.  --trace 1 also writes the span log as a
Chrome trace to <build>/traces/<workload>-seed<n>.json.

Exit code: 0 when the run passed every check, non-zero otherwise
(including when the sources or the toolchain are missing).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_federated", "churn_reconverge")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds e2e_bench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no LRGP sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps = [configure]
    else:
        steps = []
    steps.append(["cmake", "--build", str(build_dir), "--target", "e2e_bench", "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "e2e_bench"


def check_result(line, trace):
    """Parses the driver's result line and lays its metrics out in the
    order of the BENCHMARK.json catalog the run reports: per-layer
    metrics a workload does not reach read 0, a missing end-to-end
    metric, an unknown name or a wrong unit is an error."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    unknown = set(got) - {m["name"] for m in catalog}
    if unknown:
        raise ValueError(f"metrics {sorted(unknown)} are not in BENCHMARK.json")
    metrics = {}
    for m in catalog:
        measured = got.get(m["name"])
        if measured is None and not trace:
            raise ValueError(f"end-to-end metric {m['name']} is missing")
        if measured is not None and measured["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} is in {measured['unit']}, not {m['unit']}")
        metrics[m["name"]] = measured or {"value": 0.0, "unit": m["unit"]}
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    binary = build(build_root / "e2ebench")

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_root / "e2ebench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 and (not lines or not lines[-1].startswith('{"correct"')):
        fail(f"e2e_bench exited with {done.returncode}", 1)
    try:
        result = check_result(lines[-1], args.trace)
    except (ValueError, KeyError, IndexError) as error:
        fail(f"malformed result: {error}", 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
