#!/usr/bin/env python3
"""The repository benchmark: builds perfbench and the chpl-uaf-serve daemon
from this checkout's sources into .bench_build/, then runs one workload.

    python3 perfbench/run.py --workload table1 --seed 20170529 \
        --seconds 20 --trace 0

Workloads: table1, serve_hot. --trace 1 makes the traced run that reports
per-layer metrics instead of end-to-end ones. The last line of stdout is
the JSON result; perfbench/README.md describes it.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then brings the build up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: src/CMakeLists.txt is missing; nothing to build")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit("perfbench: build failed (see .bench_build/build.log)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table1", "serve_hot"])
    parser.add_argument("--seed", type=int, default=20170529)
    parser.add_argument("--corpus-seed", type=int, default=20170529,
                        help="generator seed of the table1 corpus")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    # A private working directory holds the daemon socket and scratch cache
    # dirs; relative paths keep the socket path short wherever the checkout
    # is.
    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # One vCPU for the benchmark and the daemon it starts (children inherit
    # the mask). On a shared VM, wake-ups across vCPUs made serve_hot swing
    # fivefold with the host's load; on one vCPU it measures the CPU cost
    # of serving, and table1, single-threaded, is unaffected.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result = subprocess.run(
            [str(BUILD / "perfbench"),
             "--workload", args.workload,
             "--seed", str(args.seed),
             "--corpus-seed", str(args.corpus_seed),
             "--seconds", str(args.seconds),
             "--trace", str(args.trace),
             "--serve-bin", str(BUILD / "cuaf" / "tools" / "chpl-uaf-serve")],
            cwd=work, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
