"""mcvar benchmark: one workload, end to end (--trace 0) or layer by layer (--trace 1).

Run from the repository root:

    python3 perfbench/run.py --workload ar1-wide --seed 1 --seconds 50 --trace 0

The workload's chains are generated from --seed.  The end-to-end run times
every user operation in a closed loop, one operation at a time: each gets a
minimum number of samples, then more while --seconds allow.  The traced run
wraps the package's public functions in spans and reports per-layer
numbers.  Every output is checked.  Human-readable detail goes to stdout
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Add --toy for the smoke test's small inputs.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from spawner import Spawner

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
MIN_OP_SECONDS = 0.5  # a cheap in-process operation repeats within one call until this is spent
MAX_OP_SAMPLES = 10  # ... or until it has this many samples from the call
CLI_MIN_SAMPLES = 2
STUDY_PROCESSES = 3
MAX_CALLS = 8

END_TO_END = {
    "setup_s": "s", "bm_s": "s", "obm_s": "s", "sv_s": "s", "sv_qs_s": "s", "initseq_s": "s",
    "stopcheck_s": "s", "simci_s": "s", "cli_estimate_s": "s", "cli_stopcheck_s": "s",
    "cli_simci_s": "s", "cli_startup_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB",
    "cli_peak_rss_mb": "MB",
}


def cap_threads() -> dict:
    """Cap the BLAS/OpenMP pools at the usable core count; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    caps = {var: str(threads) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                          "NUMEXPR_NUM_THREADS")}
    os.environ.update(caps)
    return caps


class Tally:
    """Attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def run(self, label: str, fn, *args):
        """Call fn, counting an exception as a failed operation; returns (ok, result)."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:  # the loop must go on; the traceback is reported
            self.failed += 1
            self.problems.append(f"{label} raised: {traceback.format_exc(limit=3)}")
            return False, None


def summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "samples": len(ordered), "tail_pct": None, "tail": None}
    if len(ordered) > 10:
        k = len(ordered) - 10
        out["tail_pct"] = round(100.0 * k / len(ordered), 1)
        out["tail"] = ordered[k - 1]
    return out


def set_up(w, seed: int) -> list:
    """Generate the chains and warm every operation on a prefix of the first."""
    from mcvar import NotPositiveDefinite, SampleMatrix

    import ops
    from workloads import WARM_ROWS, generate_chains

    chains = generate_chains(w, seed)
    for values in chains:
        SampleMatrix(values)
    head = chains[0][:WARM_ROWS]
    for op in ops.library_ops(w.targets).values():
        try:
            op(SampleMatrix(head))
        except NotPositiveDefinite:  # a prefix can be too short for a PD lugsail estimate
            pass
    return chains


class Task:
    """One timed operation; each call to step() adds samples and returns its wall time."""

    def __init__(self, name: str, step, min_samples: int):
        self.name, self.step, self.min_samples = name, step, min_samples
        self.samples: list[float] = []
        self.calls = 0
        self.last_s = 0.0


def schedule(tasks: list[Task], seconds: float) -> float:
    """Closed loop: passes over the tasks, one operation at a time.

    A task is called until it has its minimum number of samples; after that,
    only while another call like its last one fits in the time left.  Passes
    spread each task's samples over the run.  No task gets more than
    MAX_CALLS calls, which also ends the retries of an operation that fails.
    """
    start = time.perf_counter()
    while True:
        ran = False
        for task in tasks:
            elapsed = time.perf_counter() - start
            needs = len(task.samples) < task.min_samples
            fits = elapsed + task.last_s <= seconds
            if task.calls >= MAX_CALLS or not (needs or fits):
                continue
            task.last_s = task.step(task.samples)
            task.calls += 1
            ran = True
        if not ran:
            return time.perf_counter() - start


def run_end_to_end(w, seed: int, seconds: float, csv_path: str, tally: Tally, import_s: float, spawner) -> dict:
    from mcvar import SampleMatrix

    import ops
    from workloads import write_csv

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        chains = set_up(w, seed)
        setups.append(time.perf_counter() - t0)
    values = chains[0]
    t0 = time.perf_counter()
    csv_bytes = write_csv(csv_path, values)
    print(json.dumps({"input_bytes": {"arrays": sum(c.nbytes for c in chains), "csv": csv_bytes},
                      "import_s": import_s,
                      "setup_repeats_s": setups, "csv_write_s": time.perf_counter() - t0}))

    refs = ops.cli_references(values, w)
    env = ops.child_env()
    state = {"t_n": None, "children_peak": 0.0}

    def library(name, op):
        def step(samples):
            """Samples rotate over the chains; a call repeats while it is cheap."""
            spent, taken = 0.0, 0
            while not taken or (spent < MIN_OP_SECONDS and taken < MAX_OP_SAMPLES):
                chain = SampleMatrix(chains[len(samples) % len(chains)])
                t0 = time.perf_counter()
                ok, out = tally.run(name, op, chain)
                dt = time.perf_counter() - t0
                spent, taken = spent + dt, taken + 1
                if not ok:
                    break
                samples.append(dt)
                tally.check(ops.check_outputs(out))
                state["t_n"] = out.get("t_n", state["t_n"])
            return spent
        return Task(name, step, min_samples=len(chains))

    def command(name, argv):
        def step(samples):
            ok, run = tally.run(name, ops.run_child, spawner, ops.CLI_PREFIX + argv, env)
            if not ok:
                return 0.0
            samples.append(run.wall_s)
            state["children_peak"] = max(state["children_peak"], run.children_peak_rss_mb)
            tally.check(ops.check_child(name, run, refs[name]))
            return run.wall_s
        return Task(name, step, min_samples=CLI_MIN_SAMPLES)

    def study(samples):
        """One study process; its sample is the median rate of its timed calls."""
        ok, run = tally.run("reps_per_s", ops.run_child, spawner, ops.study_command(w, seed), env)
        if ok:
            problems, rates = ops.check_study(run)
            if tally.check(problems):
                samples.append(statistics.median(rates))
        return run.wall_s if ok else 0.0

    tasks = [library(name, op) for name, op in ops.library_ops(w.targets).items()]
    tasks += [command(name, argv) for name, argv in ops.cli_commands(csv_path, w).items()]
    study_task = Task("reps_per_s", study, min_samples=STUDY_PROCESSES)
    tasks.append(study_task)
    measured_s = schedule(tasks, seconds)

    if state["t_n"] is not None:
        tally.check(ops.check_identities(values, state["t_n"]))
    detail = {t.name: summary(t.samples) for t in tasks if t.samples}
    metrics = {name: d["median"] for name, d in detail.items()}
    # A process runs the study's small FFTs at one of two speeds, up to 4x
    # apart, for its whole life; the mean over processes varies less than a median.
    if study_task.samples:
        metrics["reps_per_s"] = statistics.fmean(study_task.samples)
    metrics["setup_s"] = import_s + statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The launcher reports the largest child so far; the commands that load the CSV outgrow the others.
    metrics["cli_peak_rss_mb"] = state["children_peak"]
    print(json.dumps({"samples": detail, "measured_s": measured_s}))
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mcvar", "__init__.py")):
        print(f"perfbench: no package sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    caps = cap_threads()
    with Spawner() as spawner:
        return _run(args, caps, spawner)


def _run(args, caps: dict, spawner) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import mcvar  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS, machine_facts

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.toy:
        w = w.toy()
    print(json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace, "why": w.why,
                      "shape": [w.n, w.p], "phi": w.phi, "facts": machine_facts(caps)}))

    os.makedirs(OUT_DIR, exist_ok=True)
    csv_path = os.path.join(OUT_DIR, f"{w.name}-seed{args.seed}-{os.getpid()}.csv")
    tally = Tally()
    try:
        if args.trace:
            from tracing import PER_LAYER, run_traced

            metrics = run_traced(w, args.seed, csv_path, tally, set_up, OUT_DIR, spawner)
            units = PER_LAYER
        else:
            metrics = run_end_to_end(w, args.seed, args.seconds, csv_path, tally, import_s, spawner)
            units = END_TO_END
    finally:
        if os.path.exists(csv_path):
            os.remove(csv_path)

    missing = sorted(set(units) - set(metrics))
    if missing:
        tally.check([f"metrics not measured: {missing}"])
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"failed_frac {tally.failed / max(tally.attempted, 1):.6f} ({tally.failed} of {tally.attempted})")
    if missing:
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
