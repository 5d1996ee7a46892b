#!/usr/bin/env python3
"""Build the modcon benchmark driver from source and run one workload.

usage: python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root.  The driver is configured and built under
.bench_build/perfbench from perfbench/CMakeLists.txt, which compiles the
library straight from src/ at the repository's default build type.  The
driver's output is passed through; a provenance line (compiler, build
type, CPU, nproc, workers, git describe, seed) precedes its last line,
which is the one-line JSON result.  Traces and per-run result records go
to .bench_out/.  Exit status is nonzero only on a usage or harness error
(missing sources, failed build, driver crash or timeout), and then no
result line is printed.
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
OUT = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(BUILD, "modcon_perfbench")
BUILD_TYPE = "RelWithDebInfo"  # the root CMakeLists.txt's default
WORKLOADS = ("oneshot_sim", "verify", "multishot_sim", "rt_threads")
# The driver's own run plus set-up and warm-up must end well inside the
# 180 s a run may take.
DRIVER_GRACE_S = 120


class HarnessError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def workers():
    return min(os.cpu_count() or 1, 4)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr (stdout is the result)."""
    log("$ " + " ".join(cmd))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"timed out after {timeout} s: {cmd[0]}")
    if proc.returncode != 0:
        raise HarnessError(f"exit {proc.returncode}: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise HarnessError(f"library sources not found under {ROOT}/src; "
                           "run from a full checkout of the repository")
    if shutil.which("cmake") is None:
        raise HarnessError("cmake not found on PATH")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], timeout=300)
    run_logged(["cmake", "--build", BUILD, "--target", "modcon_perfbench",
                "-j", str(workers())], timeout=840)


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip().splitlines()[0] if out.returncode == 0 \
        and out.stdout.strip() else ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(seed):
    compiler = cache_value("CMAKE_CXX_COMPILER")
    describe = first_line(["git", "describe", "--always", "--dirty",
                           "--tags"]) or "unavailable (not a git checkout)"
    return {
        "compiler": compiler,
        "compiler_version": first_line([compiler, "--version"])
        if compiler else "",
        "build_type": cache_value("CMAKE_BUILD_TYPE") or BUILD_TYPE,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "worker_threads": workers(),
        "git_describe": describe,
        "seed": seed,
    }


def parse_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        raise HarnessError("driver's last line is not JSON")
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise HarnessError("driver's result line has the wrong keys")
    return result


def run_driver(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=args.seconds + DRIVER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise HarnessError("driver timed out")
    if proc.returncode != 0:
        raise HarnessError(f"driver exited with status {proc.returncode}")
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        raise HarnessError("driver printed nothing")
    return lines[:-1], parse_result(lines[-1]), lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    try:
        build()
        body, result, last = run_driver(args)
        prov = provenance(args.seed)
        os.makedirs(OUT, exist_ok=True)
        record = os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(record, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": args.seconds, "provenance": prov,
                       "result": result}, f, indent=2)
            f.write("\n")
    except (HarnessError, OSError) as e:
        log(f"harness error: {e}")
        return 1
    for line in body:
        print(line)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(last, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
