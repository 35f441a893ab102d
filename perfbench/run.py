#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload cold-serial --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # build and run the benchmark's own tests

The program is built from source in Release into .bench_build/perfbench on
first use (incremental afterwards); build output goes to
.bench_build/perfbench-build.log, so stdout carries only the benchmark's
report, whose last line is the result object. Exits non-zero without a
result when the build or the run fails.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
LOG = ROOT / ".bench_build" / "perfbench-build.log"
# Compiler and runtime temporaries stay inside the checkout too.
TMP = ROOT / ".bench_build" / "tmp"
ENV = dict(os.environ, TMPDIR=str(TMP))


def build(target):
    BUILD.mkdir(parents=True, exist_ok=True)
    TMP.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs])
    with open(LOG, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=ENV).returncode != 0:
                sys.stderr.write(f"perfbench: build step failed: {' '.join(step)} "
                                 f"(see {LOG})\n")
                return False
    return True


def main(argv):
    if argv == ["--test"]:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([str(BUILD / "perfbench_test")], cwd=ROOT, env=ENV).returncode
    if not build("perfbench"):
        return 1
    return subprocess.run([str(BUILD / "perfbench")] + argv, cwd=ROOT, env=ENV).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
