#!/usr/bin/env python3
"""Fast self-test of the naq benchmark's output contract.

Run from the repository root:

    python3 naqbench/test/selftest.py

Runs every workload named in BENCHMARK.json at tiny sizes (--tiny, one
second), untraced and traced, and checks each result line with run.py's
own validator: exit status 0, correct=true, every metric present,
finite, carrying its unit. Then checks that the command refuses to run,
without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent.parent
RUN = BENCH_DIR / "run.py"


def load_run_module():
    spec = importlib.util.spec_from_file_location("naqbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(args, cwd, env=None):
    return subprocess.run([sys.executable, str(RUN)] + args, cwd=cwd,
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def main():
    validate = load_run_module().validate
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    failures = []
    for workload in [w["name"] for w in contract["workloads"]]:
        for trace in ("0", "1"):
            proc = run(["--workload", workload, "--seed", "7",
                        "--seconds", "1", "--trace", trace, "--tiny"], ROOT)
            label = "%s trace=%s" % (workload, trace)
            lines = proc.stdout.strip().split("\n")
            try:
                result = json.loads(lines[-1])
            except ValueError:
                failures.append("%s: no JSON result line (exit %d)\n%s"
                                % (label, proc.returncode, proc.stderr))
                continue
            problems = validate(result, contract, trace == "1")
            if proc.returncode != 0 or not result.get("correct"):
                problems.append("exit %d, correct=%s" %
                                (proc.returncode, result.get("correct")))
            if not any(line.startswith("host: ") for line in lines):
                problems.append("no host stamp")
            if not any(line.startswith("inputs: ") and "digest=" in line
                       for line in lines):
                problems.append("no input digest")
            for p in problems:
                failures.append("%s: %s" % (label, p))
            print("%-22s %s" % (label, "ok" if not problems else "FAILED"))

    # Bare directory: only BENCHMARK.json and the benchmark's files.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, str(bare / BENCH_DIR.name / "run.py"),
         "--workload", contract["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    printed_result = any(line.startswith("{")
                         for line in proc.stdout.split("\n"))
    if proc.returncode == 0 or printed_result:
        failures.append("bare directory: exit %d, result printed: %s"
                        % (proc.returncode, printed_result))
    print("%-22s %s" % ("bare directory",
                        "ok" if proc.returncode and not printed_result
                        else "FAILED"))
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAILED: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
