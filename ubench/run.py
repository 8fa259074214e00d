#!/usr/bin/env python3
"""Build the ubench driver from this checkout's sources and run one workload.

    python3 ubench/run.py --workload <dse_cold|replay_warm|serve_sweep> \
        --seed <n> --seconds <s> --trace <0|1> [--designs FILE] [--spans FILE]

The build lives in .bench_build/ubench under the checkout root: the first
run configures and compiles it (a minute or so), later runs only check
that it is current. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. A traced run writes its spans to
.bench_build/ubench/spans-<workload>.jsonl unless --spans names a file.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "ubench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"ubench: no library sources at {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", *generator, "-S", str(HERE), "-B", str(BUILD)])
    jobs = str(min(3, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("ubench: build failed: " + " ".join(cmd))


def main():
    args = sys.argv[1:]
    build()
    if "--spans" not in args and ["--trace", "1"] in [
            args[i:i + 2] for i in range(len(args))]:
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args[:-1] else "unknown"
        args += ["--spans", str(BUILD / f"spans-{workload}.jsonl")]
    return subprocess.run([str(BUILD / "ubench"), *args]).returncode


if __name__ == "__main__":
    sys.exit(main())
