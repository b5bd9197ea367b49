#!/usr/bin/env python3
"""End-to-end benchmark of the mlaas library: one command, three workloads.

    python3 perfbench/run.py --workload <campaign|serve|reproduce> --seed <n>
                             --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke            # the benchmark's own test
    python3 perfbench/run.py --record-digests   # after an intended output change

Run from the repository root.  The first call configures and builds
perfbench/ (Release) into .bench_build/; later calls rebuild incrementally.
The last line of standard output is the result:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1.  Any failed check (an output digest that
differs from the one recorded for seed 42, a traced run whose outputs differ
from the untraced run's, a span ledger that does not reconcile) exits with
status 1 and prints no result.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "run"
BINARY = BUILD_DIR / "perfbench"
DIGESTS = HERE / "digests.json"
WORKLOADS = ["campaign", "serve", "reproduce"]
DIGEST_SEED = 42
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_threads():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once) and build the benchmark; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources not found at src/; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, "configure")
    run_checked(["cmake", "--build", str(BUILD_DIR), "-j", str(host_threads()),
                 "--target", "perfbench"], "build")


def run_checked(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"{what} failed (exit {proc.returncode})")


def run_binary(workload, seed, seconds, trace, smoke):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(WORK_DIR)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(proc.stdout[-4000:])
        raise BenchError(f"{workload}: benchmark exited with status {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def source_digest():
    """SHA-256 over src/, so results name the code they measured even where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():  # git would report an enclosing repository
        return "none"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check(result, workload, seed, trace, smoke):
    """Every check a result must pass before it is reported."""
    failures = []
    if result["meta"]["build_type"] != "Release":
        failures.append(f"build type {result['meta']['build_type']} is not Release")
    if not result["correct"]:
        failures.append("the benchmark's own checks failed (CHECK FAILED lines above)")
    if seed == DIGEST_SEED:
        expected = load_digests().get(workload, {}).get("smoke" if smoke else "full")
        if expected != result["digest"]:
            failures.append(f"output digest {result['digest']} differs from the one recorded "
                            f"for seed {DIGEST_SEED}: {expected}")
    if not smoke:
        missing = set(declared_metrics(trace)) ^ set(result["metrics"])
        if missing:
            failures.append(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    if failures:
        raise BenchError(f"{workload} seed {seed} trace {trace}: " + "; ".join(failures))


def measure(args):
    lines, result = run_binary(args.workload, args.seed, args.seconds, args.trace, False)
    try:
        check(result, args.workload, args.seed, args.trace, False)
    except BenchError:
        log("\n".join(lines))
        raise
    for line in lines:
        print(line)
    meta = dict(result["meta"], commit=git_commit(), source=source_digest(), seed=args.seed,
                workload=args.workload, trace=args.trace)
    print("# meta " + json.dumps(meta))
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))


def smoke():
    """Every workload at smoke size, untraced and traced, with all checks."""
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = time.monotonic()
            lines, result = run_binary(workload, DIGEST_SEED, 1, trace, True)
            for line in lines:
                print(line)
            check(result, workload, DIGEST_SEED, trace, True)
            print(f"smoke {workload} trace={trace}: ok ({time.monotonic() - start:.1f} s)")
    print("smoke: all workloads passed")


def record_digests():
    digests = load_digests()
    for workload in WORKLOADS:
        for size, smoke_size in (("full", False), ("smoke", True)):
            _, result = run_binary(workload, DIGEST_SEED, 1, 0, smoke_size)
            if not result["correct"]:
                raise BenchError(f"{workload} {size}: checks failed; not recording")
            digests.setdefault(workload, {})[size] = result["digest"]
            log(f"{workload} {size}: {result['digest']}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (args.smoke or args.record_digests or args.workload):
        parser.error("--workload is required")
    try:
        build()
        if args.smoke:
            smoke()
        elif args.record_digests:
            record_digests()
        else:
            measure(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
