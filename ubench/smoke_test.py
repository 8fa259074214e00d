#!/usr/bin/env python3
"""Smoke test for ubench: two short runs of each workload with one seed
must give identical design lists, an identical sim_cycles_geomean and
zero failures.

    python3 ubench/smoke_test.py [--seed N]

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_build" / "ubench" / "smoke"
WORKLOADS = ["dse_cold", "replay_warm", "serve_sweep"]


def run(workload, seed, tag):
    designs = OUT / f"{workload}-{tag}.txt"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0",
         "--designs", str(designs)],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), designs


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    OUT.mkdir(parents=True, exist_ok=True)
    problems = []
    for workload in WORKLOADS:
        (a, designs_a), (b, designs_b) = (run(workload, seed, tag)
                                          for tag in ("a", "b"))
        if designs_a.read_text() != designs_b.read_text():
            problems.append(f"{workload}: design lists differ")
        geo = [r["metrics"]["sim_cycles_geomean"]["value"] for r in (a, b)]
        if geo[0] != geo[1]:
            problems.append(f"{workload}: sim_cycles_geomean {geo}")
        for r in (a, b):
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append(f"{workload}: correct={r['correct']} "
                                f"attempted={r['attempted']} "
                                f"failed={r['failed']}")
        print(f"{workload}: {len(designs_a.read_text().splitlines())} "
              f"designs, sim_cycles_geomean {geo[0]}")
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
