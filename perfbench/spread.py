"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ar1-long --seeds 1-10

The spread of a metric is the distance between the first and third
quartiles of its per-run values (statistics.quantiles(values, n=4)) as a
share of their median.  Each run measures for run_seconds from
BENCHMARK.json; compare each spread with the metric's bound there.  Results are appended as JSON lines to --log; --summary
records each metric's median, spread and values per workload in a JSON file.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0")
    p.add_argument("--log", default=os.path.join(ROOT, ".perfbench", "spread.jsonl"))
    p.add_argument("--summary", default=None, help="JSON file to record this workload's spreads in")
    args = p.parse_args()
    os.makedirs(os.path.dirname(args.log), exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    values: dict[str, list[float]] = {}
    walls, facts, inputs = [], None, None
    for seed in seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", seconds, "--trace", args.trace],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        facts = json.loads(lines[0])["facts"]
        if args.trace == "0":
            inputs = json.loads(lines[1])["input_bytes"]
        walls.append(round(time.perf_counter() - t0, 1))
        with open(args.log, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}"
              f" wall {walls[-1]} s", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        bound = bounds.get(name)
        flag = "" if bound is None or spread(vals) < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:<28} median {statistics.median(vals):12.6g}  spread {spread(vals):7.4f}"
              f"  bound {bound}{flag}")
    if args.summary:
        summary = {}
        if os.path.exists(args.summary):
            with open(args.summary) as fh:
                summary = json.load(fh)
        summary[args.workload + ("/trace" if args.trace == "1" else "")] = {
            "seeds": args.seeds, "seconds": seconds, "trace": args.trace, "facts": facts,
            "input_bytes": inputs,
            "run_wall_s": walls,
            "metrics": {name: {"median": statistics.median(vals), "spread": spread(vals) if any(vals) else None,
                               "values": vals}
                        for name, vals in values.items()},
        }
        with open(args.summary, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
