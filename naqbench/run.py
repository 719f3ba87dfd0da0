#!/usr/bin/env python3
"""naq benchmark: one command, two workloads, checked outputs.

Run from the repository root:

    python3 naqbench/run.py --workload corpus|loss-sweep \
        --seed N --seconds S --trace 0|1 [--tiny]

The script builds the benchmark binary (naqbench/CMakeLists.txt compiles the
library from src/) into $CARGO_TARGET_DIR or .bench_build, runs one
workload, and prints the binary's human-readable lines followed by one
JSON result line:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"wall_s": {"value": 0.41, "unit": "s"}, ...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics, 0 for the layers a workload does
not cross (spans are also written to
<build>/naqbench-out/spans-<workload>-<seed>.json). The result is
validated against BENCHMARK.json before it is printed: every metric
present, finite, with its unit, and end-to-end metrics non-zero.
Exit status is 0 only when every output check passed and the result
validated; a failed check still prints its result, with correct=false.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print("naqbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configure (once) and build the binary; returns the binary path."""
    if not (root / "src" / "core" / "pipeline.h").is_file():
        fail("library sources not found under %s/src; run from the "
             "repository root" % root, 2)
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "naqbench"
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode:
            fail("cmake configure failed", 2)
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=log, stderr=log).returncode:
        fail("build failed", 2)
    return build_dir / "naqbench", build_root / "naqbench-out"


def load_contract(root):
    path = root / "BENCHMARK.json"
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e), 2)


def validate(result, contract, trace):
    """Problems with `result` under the contract (empty list = valid)."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key, low in (("attempted", 1), ("failed", 0)):
        v = result[key]
        if isinstance(v, bool) or not isinstance(v, int) or v < low:
            problems.append("%s must be an integer >= %d" % (key, low))
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m for m in contract[section]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(expected) - set(metrics)):
        problems.append("metric %s missing" % name)
    for name in sorted(set(metrics) - set(expected)):
        problems.append("metric %s is not in BENCHMARK.json %s"
                        % (name, section))
    for name, spec in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append("metric %s is not {value, unit}" % name)
            continue
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            problems.append("metric %s value %r is not finite" % (name, v))
        elif not trace and v == 0:
            problems.append("end-to-end metric %s is 0" % name)
        if m["unit"] != spec["unit"]:
            problems.append("metric %s unit %r, BENCHMARK.json says %r"
                            % (name, m["unit"], spec["unit"]))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (self-test)")
    args = ap.parse_args()

    root = Path.cwd()
    contract = load_contract(root)
    workloads = [w["name"] for w in contract["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (BENCHMARK.json has %s)"
             % (args.workload, ", ".join(workloads)), 2)
    exe, out_dir = build(root)

    cmd = [str(exe), "--workload", args.workload,
           "--seed", str(args.seed % (1 << 63)),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", str(out_dir)]
    if args.tiny:
        cmd.append("--tiny")
    # Own process group: on a timeout the binary and the server it forks
    # are killed together and waited for.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("naqbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("naqbench exited %d without a JSON result" % proc.returncode)
    if args.trace == "1" and isinstance(result, dict) \
            and isinstance(result.get("metrics"), dict):
        # The binary reports the layers a workload crosses; the rest of
        # BENCHMARK.json's per-layer metrics read 0 on it.
        absent = [m for m in contract["per_layer"]
                  if m["name"] not in result["metrics"]]
        for m in absent:
            result["metrics"][m["name"]] = {"value": 0, "unit": m["unit"]}
        if absent:
            print("per-layer 0 (not measured on this workload): "
                  + ", ".join(m["name"] for m in absent))
    problems = validate(result, contract, args.trace == "1")
    if problems:
        fail("malformed result, not printed:\n  " + "\n  ".join(problems))
    print(json.dumps(result, separators=(",", ":")))
    if proc.returncode != 0 or not result["correct"]:
        fail("output checks failed (%d of %d operations)"
             % (result["failed"], result["attempted"]))


if __name__ == "__main__":
    main()
