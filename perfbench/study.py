"""The replication-study operation, run in a process of its own.

    python3 perfbench/study.py --seed 1

Repeats the coverage_study with one seed for SECONDS (at least MIN_CALLS
timed calls, after one untimed call) and prints one JSON line: replicates
per second of each timed call, whether every call returned the rows of the
first, and those rows.  The benchmark runs several of these processes per
run: a process runs the study's 65536-point FFTs at one of two speeds, up
to four times apart, for its whole life, and which one it gets varies from
process to process.  Add --toy for the smoke test's small study.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import ops
from workloads import STUDY, TOY_STUDY

SECONDS = 0.5
MIN_CALLS = 3


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--toy", action="store_true")
    args = p.parse_args()
    study = TOY_STUDY if args.toy else STUDY
    grid = ops.study_grid()

    first = ops.run_study(study, args.seed, grid)
    rates, same = [], True
    start = time.perf_counter()
    while len(rates) < MIN_CALLS or time.perf_counter() - start < SECONDS:
        t0 = time.perf_counter()
        rows = ops.run_study(study, args.seed, grid)
        rates.append(study.reps / (time.perf_counter() - t0))
        same = same and rows == first
    print(json.dumps({"reps_per_s": rates, "identical": same, "rows": first}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
