"""The traced run: per-layer metrics built from spans around calls into the package.

The spans come from spans.Tracer, which the package does not know about.
Every timed in-process operation alternates an untraced and a traced call,
ROUNDS times, so the tracing overhead is a ratio of medians.  The
replication study does the same STUDY_ROUNDS times: its many small calls
are where span cost shows.
"""
from __future__ import annotations

import json
import os
import re
import statistics
import sys
import time

import numpy as np
from mcvar import batch, chain as chain_mod, cli, diagnostics, initseq, lrv, quantiles, spectral

import ops
from spans import LAYERS, Tracer
from workloads import write_csv

ROUNDS = 3  # untraced/traced pairs of each operation
STUDY_ROUNDS = 15  # ... and of the study: its calls vary by about 15%, its span cost is a few percent
CLI_PARTS_RUNS = 3  # runs of the split and of the unsplit estimate command
CLI_PARTS = ("interp_s", "import_s", "parse_s", "compute_s", "emit_s")

# name -> (unit, the end-to-end metric it should move and on which workload)
LAYER_METRICS = {
    "chain.construct_s": ("s", "reps_per_s"),
    "chain.lag_fft_s": ("s", "initseq_s; FFT side of the direct/FFT crossover"),
    "chain.lag_direct_s": ("s", "initseq_s; direct side of the direct/FFT crossover"),
    "chain.lags_needed": ("count", "initseq_s (K = 2 t_n + 1)"),
    "batch.bm_s": ("s", "bm_s, stopcheck_s on ar1-long; reps_per_s"),
    "batch.bm_over_s": ("s", "bm_s, stopcheck_s on ar1-long; reps_per_s"),
    "batch.obm_s": ("s", "obm_s on ar1-long"),
    "batch.lag1_s": ("s", "reps_per_s"),
    "spectral.sv_cold_s": ("s", "sv_s (transform plus Gram)"),
    "spectral.sv_warm_s": ("s", "sv_s (Gram only)"),
    "spectral.sv_qs_warm_s": ("s", "sv_qs_s"),
    "initseq.scan_cold_s": ("s", "initseq_s on ar1-wide and ar1-long (fresh chain)"),
    "initseq.scan_warm_s": ("s", "initseq_s on ar1-wide and ar1-long (spectrum already cached)"),
    "initseq.s_n": ("count", "initseq_s"),
    "initseq.t_n": ("count", "initseq_s"),
    "initseq.chol_calls": ("count", "initseq_s"),
    "lrv.chol_logdet_s": ("s", "reps_per_s; not initseq_s"),
    "lrv.estimate_construct_s": ("s", "reps_per_s; not initseq_s"),
    "diagnostics.mcse_s": ("s", "bm_s"),
    "diagnostics.ess_s": ("s", "bm_s, stopcheck_s"),
    "diagnostics.fixed_volume_s": ("s", "stopcheck_s"),
    "quantiles.transform_s": ("s", "simci_s on ar1-long"),
    "quantiles.omega_s": ("s", "simci_s on ar1-long"),
    "quantiles.zstar_s": ("s", "simci_s on ar1-wide"),
    "quantiles.rect_prob_calls": ("count", "simci_s"),
    "quantiles.rect_prob_s": ("s", "simci_s on ar1-wide"),
    "experiments.generate_s": ("s", "reps_per_s"),
    "experiments.rep_s": ("s", "reps_per_s"),
    "cli.interp_s": ("s", "cli_* on every workload: launch to the first statement"),
    "cli.import_s": ("s", "cli_*; not the in-process metrics"),
    "cli.import_scipy_stats_s": ("s", "cli_*"),
    "cli.import_scipy_linalg_s": ("s", "cli_*"),
    "cli.parse_s": ("s", "cli_estimate_s, cli_stopcheck_s, cli_simci_s on ar1-wide and ar1-long"),
    "cli.compute_s": ("s", "cli_estimate_s"),
    "cli.emit_s": ("s", "cli_estimate_s"),
    "cli.parts_wall_s": ("s", "cli_estimate_s: wall of the split command, the sum of its parts"),
    "cli.unaccounted_s": ("s", "cli_estimate_s: parts_wall minus interp + import + parse + compute + emit"),
    "cli.estimate_wall_s": ("s", "cli_estimate_s: the unsplit command, median of CLI_PARTS_RUNS runs"),
    "sv_s.cpu_wall_ratio": ("ratio", "sv_s: whether the thread pools are used"),
    "initseq_s.cpu_wall_ratio": ("ratio", "initseq_s: whether the thread pools are used"),
    "trace.overhead_ratio": ("ratio", "traced over untraced median time of the in-process operations"),
    "trace.study_overhead_ratio": ("ratio", "traced over untraced median time of a coverage_study call"),
    **{f"{layer}.self_s": ("s", "self time per traced round of the operations and the study; "
                                "cli: in the split estimate command") for layer in LAYERS},
}
PER_LAYER = {name: unit for name, (unit, _) in LAYER_METRICS.items()}


def _median_probe(tracer: Tracer, op: str, fn, repeats: int) -> float:
    return statistics.median(tracer.duration(tracer.probe(op, fn)[1]) for _ in range(repeats))


def _cli_parts(spawner, argv: list, env: dict) -> dict:
    """The estimate command split into parts, in the run whose wall time is the median of CLI_PARTS_RUNS."""
    runs = []
    for _ in range(CLI_PARTS_RUNS):
        run = ops.run_child(spawner, [sys.executable, os.path.join(ops.ROOT, "perfbench", "cli_parts.py"), *argv],
                            env)
        if run.returncode != 0:
            raise RuntimeError(f"cli_parts exited {run.returncode}: {run.stderr[-500:]}")
        parts = json.loads(run.stdout.strip().splitlines()[-1])
        if parts["exit"] != 0:
            raise RuntimeError(f"the split command returned {parts['exit']}")
        runs.append((run.wall_s, parts))
    wall, parts = sorted(runs, key=lambda r: r[0])[len(runs) // 2]
    m = {f"cli.{key}": parts[key] for key in (*CLI_PARTS, "self_s")}
    m["cli.parts_wall_s"] = wall
    m["cli.unaccounted_s"] = wall - sum(m[f"cli.{key}"] for key in CLI_PARTS)
    return m


def _scipy_import_split(spawner, env: dict) -> dict:
    """Cumulative import times of scipy.stats and scipy.linalg under the console script's imports."""
    run = ops.run_child(spawner, [sys.executable, "-X", "importtime", "-c", "import mcvar._main, mcvar.cli"], env)
    if run.returncode != 0:
        raise RuntimeError(f"the import exited {run.returncode}: {run.stderr[-500:]}")
    cumulative: dict[str, float] = {}
    for line in run.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \| *(\S+)", line)
        if match:
            cumulative.setdefault(match.group(2), int(match.group(1)) / 1e6)
    return {"cli.import_scipy_stats_s": cumulative.get("scipy.stats", 0.0),
            "cli.import_scipy_linalg_s": cumulative.get("scipy.linalg", 0.0)}


def run_traced(w, seed: int, csv_path: str, tally, set_up, out_dir: str, spawner) -> dict:
    SampleMatrix = chain_mod.SampleMatrix
    values = set_up(w, seed)[0]
    write_csv(csv_path, values)
    n = values.shape[0]
    targets = cli.parse_targets(w.targets)
    lib = ops.library_ops(w.targets)
    grid = ops.study_grid()
    m: dict[str, float] = {}
    tracer = Tracer()

    # Alternating untraced and traced calls: the overhead, CPU/wall ratios and per-op attribution.
    untraced = {name: [] for name in lib}  # (wall, cpu) per call
    traced = {name: [] for name in lib}  # root span per call
    outputs = {}  # the last traced call's output
    t_n = None
    for _ in range(ROUNDS):
        for name, op in lib.items():
            ok, res = tally.run(name, ops.cpu_wall, op, SampleMatrix(values))
            if ok:
                out, wall, cpu = res
                tally.check(ops.check_outputs(out))
                t_n = out.get("t_n", t_n)
                untraced[name].append((wall, cpu))
            chain = SampleMatrix(values)
            with tracer.installed():
                ok, res = tally.run(name, tracer.probe, name, op, chain)
            if ok:
                outputs[name], idx = res
                tally.check(ops.check_outputs(outputs[name]))
                traced[name].append(idx)
    untraced_s = {name: statistics.median(wall for wall, _ in samples) for name, samples in untraced.items()}
    traced_s = {name: statistics.median(map(tracer.duration, spans)) for name, spans in traced.items()}
    m["trace.overhead_ratio"] = sum(traced_s.values()) / sum(untraced_s.values())
    for name in ("sv_s", "initseq_s"):
        m[f"{name}.cpu_wall_ratio"] = statistics.median(cpu / wall for wall, cpu in untraced[name])

    scans = [tracer.descendants(idx, "initseq.initial_sequence")[0] for idx in traced["initseq_s"]]
    m["initseq.scan_cold_s"] = statistics.median(map(tracer.duration, scans))
    m["lrv.chol_logdet_s"] = statistics.median(
        sum(map(tracer.duration, tracer.descendants(i, "lrv.chol_logdet"))) for i in scans)
    m["initseq.chol_calls"] = len(tracer.descendants(scans[-1], "lrv.chol_logdet"))
    m["initseq.s_n"], m["initseq.t_n"] = outputs["initseq_s"]["s_n"], outputs["initseq_s"]["t_n"]

    ops.run_study(w.study, seed, grid)  # warm
    study_untraced, studies = [], []
    for _ in range(STUDY_ROUNDS):
        t0 = time.perf_counter()
        ops.run_study(w.study, seed, grid)
        study_untraced.append(time.perf_counter() - t0)
        with tracer.installed():
            studies.append(tracer.probe("experiments.study", ops.run_study, w.study, seed, grid)[1])
    study_s = statistics.median(map(tracer.duration, studies))
    m["trace.study_overhead_ratio"] = study_s / statistics.median(study_untraced)
    m["experiments.rep_s"] = study_s / w.study.reps
    m["experiments.generate_s"] = statistics.median(
        map(tracer.duration, tracer.descendants(studies[-1], "experiments.ar1_generate")))
    ops_self, study_self = tracer.self_times(set(lib)), tracer.self_times({"experiments.study"})
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = ops_self[layer] / ROUNDS + study_self[layer] / STUDY_ROUNDS

    with tracer.installed():
        m["chain.construct_s"] = _median_probe(tracer, "construct", lambda: SampleMatrix(values), 3)

        b = batch.default_batch_size(n, "sqrt")
        b_over = batch.default_batch_size(n, "sqrt", r=3.0)
        over = lrv.LugsailConfig(r=3.0, c=0.5, regime="over")
        for key, op in (("batch.bm_s", lambda c: batch.batch_means(c, b)),
                        ("batch.bm_over_s", lambda c: batch.lugsail_batch_means(c, b_over, over)),
                        ("batch.obm_s", lambda c: batch.overlapping_batch_means(c, b)),
                        ("batch.lag1_s", batch.lag1_autocorrelation)):
            chain = SampleMatrix(values)
            m[key] = tracer.duration(tracer.probe(key, op, chain)[1])

        chain = SampleMatrix(values)
        for key, window in (("spectral.sv_cold_s", spectral.BARTLETT), ("spectral.sv_warm_s", spectral.BARTLETT),
                            ("spectral.sv_qs_warm_s", spectral.QUADRATIC_SPECTRAL)):
            m[key] = tracer.duration(tracer.probe(key, spectral.spectral_variance, chain, window, b)[1])
        # The scan on a chain whose spectrum spectral_variance has already cached.
        m["initseq.scan_warm_s"] = tracer.duration(tracer.probe("initseq.scan_warm", initseq.initial_sequence,
                                                                chain)[1])

        lags = min(2 * m["initseq.t_n"] + 1, n)
        m["chain.lags_needed"] = lags
        fft, idx = tracer.probe("chain.lag_fft", chain_mod.lag_covariances_fft, SampleMatrix(values), lags - 1)
        m["chain.lag_fft_s"] = tracer.duration(idx)
        direct_chain = SampleMatrix(values)
        direct, idx = tracer.probe("chain.lag_direct",
                                   lambda: [chain_mod.lag_covariance(direct_chain, k) for k in range(lags)])
        m["chain.lag_direct_s"] = tracer.duration(idx)
        worst = max(float(np.abs(a.matrix - d.matrix).max()) for a, d in zip(fft, direct))
        tally.check([] if worst <= ops.LAG_TOL else
                    [f"FFT and direct lag covariances differ by {worst:.3e} > {ops.LAG_TOL:g}"])

        sigma = np.array(outputs["initseq_s"]["sigma"])
        m["lrv.estimate_construct_s"] = _median_probe(
            tracer, "lrv.estimate_construct", lambda: lrv.LrvEstimate(sigma, family="initseq"), 5)

        chain = SampleMatrix(values)
        est = ops.BM_OVER(chain)
        m["diagnostics.mcse_s"] = tracer.duration(tracer.probe("diagnostics.mcse", diagnostics.mcse, est, n)[1])
        m["diagnostics.ess_s"] = tracer.duration(tracer.probe("diagnostics.ess", diagnostics.ess, chain, est)[1])
        m["diagnostics.fixed_volume_s"] = tracer.duration(
            tracer.probe("diagnostics.fixed_volume", diagnostics.fixed_volume_check, chain, est, ops.STOP)[1])

        chain = SampleMatrix(values)
        m["quantiles.transform_s"] = tracer.duration(
            tracer.probe("quantiles.transform", quantiles.joint_transformed_chain, chain, targets)[1])
        joint, idx = tracer.probe("quantiles.omega", quantiles.estimate_omega, chain, targets)
        m["quantiles.omega_s"] = tracer.duration(idx)
        _, idx = tracer.probe("quantiles.zstar", quantiles.solve_z_star, joint, 0.05)
        m["quantiles.zstar_s"] = tracer.duration(idx)
        rect = tracer.descendants(idx, "quantiles.mvn_rect_prob")
        m["quantiles.rect_prob_calls"] = len(rect)
        m["quantiles.rect_prob_s"] = sum(tracer.duration(i) for i in rect)

    env = ops.child_env()
    argv = ops.cli_commands(csv_path, w)["cli_estimate_s"]
    ok, parts = tally.run("cli_parts", _cli_parts, spawner, argv, env)
    if ok:
        m.update(parts)
    ok_split, split = tally.run("scipy_import_split", _scipy_import_split, spawner, env)
    if ok_split:
        m.update(split)
    ref = ops.cli_references(values, w)["cli_estimate_s"]
    unsplit = []
    for _ in range(CLI_PARTS_RUNS):
        run = ops.run_child(spawner, ops.CLI_PREFIX + argv, env)
        tally.check(ops.check_child("cli_estimate_s", run, ref))
        unsplit.append(run.wall_s)
    m["cli.estimate_wall_s"] = statistics.median(unsplit)
    if t_n is not None:
        tally.check(ops.check_identities(values, t_n))

    if ok:
        _report(m, tracer, set(lib), traced_s, untraced_s)
    tracer.write(os.path.join(out_dir, f"spans-{w.name}-seed{seed}.json"), {"workload": w.name, "seed": seed})
    return m


def _report(m: dict, tracer: Tracer, op_ids: set, traced_s: dict, untraced_s: dict) -> None:
    """Human-readable attribution: each operation's time by layer self time, and the CLI split."""
    for op in sorted(op_ids):
        by_layer = {layer: sec / ROUNDS for layer, sec in tracer.self_times({op}).items()}
        top = sorted(by_layer.items(), key=lambda kv: -kv[1])[:3]
        print(f"{op:<12} untraced {untraced_s[op]:9.4f} s  traced {traced_s[op]:9.4f} s  "
              + "  ".join(f"{layer} {sec:.4f}" for layer, sec in top))
    print("cli estimate (split): " + " + ".join(f"{k[:-2]} {m['cli.' + k]:.3f}" for k in CLI_PARTS)
          + f" + unaccounted {m['cli.unaccounted_s']:.3f} = wall {m['cli.parts_wall_s']:.3f} s;"
          f" unsplit wall {m['cli.estimate_wall_s']:.3f} s")
    print(f"tracing overhead: {100.0 * (m['trace.overhead_ratio'] - 1.0):+.2f}% of operation time, "
          f"{100.0 * (m['trace.study_overhead_ratio'] - 1.0):+.2f}% of a coverage_study call")
