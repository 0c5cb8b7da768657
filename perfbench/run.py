#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dblp_mix --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (the engine library from src/ plus the
benchmark binary perfbench_e2e) into .bench_build/perfbench, runs the
self-test of its helpers, then runs perfbench_e2e. Its last stdout line,
a JSON object with the keys correct/attempted/failed/metrics, is printed
as this script's last stdout line; everything else goes to stderr. When
perfbench/baseline.json holds a result with the same fingerprint, the
script also prints each metric's change against it to stderr; results
whose fingerprints differ are never compared.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds; returns False on any failure."""
    configure = ["cmake", "-S", HERE, "-B", BUILD]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def compare_with_baseline(result_line, stderr_text):
    """Prints metric changes against a baseline run with the same
    fingerprint, if one is recorded."""
    fingerprint = None
    for line in stderr_text.splitlines():
        if line.startswith("result fingerprint="):
            fingerprint = line.split()[1].split("=", 1)[1]
    path = os.path.join(HERE, "baseline.json")
    if fingerprint is None or not os.path.exists(path):
        return
    with open(path) as f:
        baseline = json.load(f)
    base = baseline.get("runs", {}).get(fingerprint)
    if base is None:
        log(f"baseline: no run with fingerprint {fingerprint}; not comparing")
        return
    metrics = json.loads(result_line)["metrics"]
    for name, entry in metrics.items():
        old = base.get(name)
        # A percent change needs a positive base; signed residues such as
        # core.unattributed_ms are left out.
        if old is not None and old > 0:
            log(f"baseline: {name} {entry['value']:.6g} vs {old:.6g} "
                f"({100.0 * (entry['value'] - old) / old:+.1f}%)")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    selftest = os.path.join(BUILD, "perfbench_selftest")
    if subprocess.run([selftest], stdout=sys.stderr).returncode != 0:
        log("perfbench: helper self-test failed")
        return 1

    command = [os.path.join(BUILD, "perfbench_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stderr or "")
        log("perfbench: run timed out")
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"perfbench: perfbench_e2e exited with {run.returncode}")
        return 1
    result = lines[-1]
    compare_with_baseline(result, run.stderr)
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
