"""The user operations the benchmark times, and the checks on their outputs.

Package functions are looked up through their modules at call time, so the
span wrappers that the traced run installs see every call.
"""
from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
from mcvar import batch, chain as chain_mod, cli, diagnostics, experiments, initseq, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_PREFIX = [sys.executable, "-c", "from mcvar._main import entry; entry()"]
CHILD_TIMEOUT_S = 150
REL_TOL = 1e-12
LAG_TOL = 1e-10

BM_OVER = experiments.make_estimator("bm", lugsail="over")
OBM_OVER = experiments.make_estimator("obm", lugsail="over")
SV_OVER = experiments.make_estimator("sv", lugsail="over")
SV_QS = experiments.make_estimator("sv", window="quadratic-spectral")
BM = experiments.make_estimator("bm")
STOP = diagnostics.StoppingConfig(alpha=0.05, epsilon=0.05)


def _estimate_then_diagnose(estimator, chain) -> dict:
    est = estimator(chain)
    return {"sigma": est.matrix, "mcse": diagnostics.mcse(est, chain.n), "ess": diagnostics.ess(chain, est)}


def op_initseq(chain) -> dict:
    res = initseq.initial_sequence(chain)
    return {"sigma": res.sigma, "ess": diagnostics.ess(chain, res.sigma), "s_n": res.s_n, "t_n": res.t_n}


def op_stopcheck(chain) -> dict:
    est = BM_OVER(chain)
    d = diagnostics.fixed_volume_check(chain, est, STOP)
    return {"sigma": est.matrix, "lhs": d.lhs, "rhs": d.rhs, "ess": d.ess}


def make_simci(targets: list):
    def op_simci(chain) -> dict:
        joint = quantiles.estimate_omega(chain, targets)
        region = quantiles.solve_z_star(joint, 0.05)
        return {"sigma": joint.omega, "z_star": region.z_star, "intervals": region.intervals}

    return op_simci


def library_ops(targets: str) -> dict:
    """End-to-end metric name -> operation on a fresh SampleMatrix; targets as for `mcvar simci`."""
    targets = cli.parse_targets(targets)
    return {
        "bm_s": lambda c: _estimate_then_diagnose(BM_OVER, c),
        "obm_s": lambda c: _estimate_then_diagnose(OBM_OVER, c),
        "sv_s": lambda c: _estimate_then_diagnose(SV_OVER, c),
        "sv_qs_s": lambda c: _estimate_then_diagnose(SV_QS, c),
        "initseq_s": op_initseq,
        "stopcheck_s": op_stopcheck,
        "simci_s": make_simci(targets),
    }


def check_outputs(out: dict) -> list[str]:
    """Every value finite; every sigma symmetric."""
    problems = []
    for key, value in out.items():
        arr = np.asarray(value, float)
        if not np.isfinite(arr).all():
            problems.append(f"{key} is not finite")
    sigma = np.asarray(out["sigma"], float)
    if np.abs(sigma - sigma.T).max() > REL_TOL * np.abs(sigma).max():
        problems.append("sigma is not symmetric")
    return problems


# -- command line -----------------------------------------------------------

def cli_commands(csv_path: str, w) -> dict:
    """End-to-end metric name -> argv after the console-script prefix."""
    return {
        "cli_estimate_s": ["estimate", csv_path, "--method", "bm"],
        "cli_stopcheck_s": ["stopcheck", csv_path, "--lugsail", "over"],
        "cli_simci_s": ["simci", csv_path, "--targets", w.targets],
        "cli_startup_s": ["miness", "--p", str(w.p)],
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(spawner, argv: list, env: dict):
    """One subprocess, timed from launch until it has been reaped."""
    return spawner.run(argv, env, ROOT, CHILD_TIMEOUT_S)


def cli_references(values: np.ndarray, w) -> dict:
    """In-process results the command-line JSON must reproduce."""
    c = chain_mod.SampleMatrix(values)
    est = BM(c)
    ess = diagnostics.ess(c, est)
    estimate = {
        "method": {"family": "bm", "lugsail": "none", "b": est.b},
        "n": c.n, "p": c.p, "sigma": est.matrix, "psd": est.psd,
        "mcse": diagnostics.mcse(est, c.n), "ess": ess, "ess_per_n": ess / c.n,
        "mean": chain_mod.mean_vector(c),
    }
    d = diagnostics.fixed_volume_check(c, BM_OVER(c), STOP)
    stop = {"terminate": d.terminate, "lhs": d.lhs, "rhs": d.rhs, "ess": d.ess,
            "min_ess": d.min_ess, "n": d.n, "n_star": d.n_star}
    joint = quantiles.estimate_omega(c, cli.parse_targets(w.targets), BM)
    region = quantiles.solve_z_star(joint, 0.05, seed=0)
    simci = {"z_star": region.z_star, "nu_hat": joint.nu_hat, "intervals": region.intervals}
    return {"cli_estimate_s": estimate, "cli_stopcheck_s": stop, "cli_simci_s": simci,
            "cli_startup_s": diagnostics.min_ess(0.05, 0.05, w.p)}


def _mismatch(ref, got, path: str) -> str | None:
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object"
        for key, value in ref.items():
            if key not in got:
                return f"{path}.{key}: missing"
            bad = _mismatch(value, got[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, np.ndarray):
        ref = ref.tolist()
    if isinstance(ref, (list, tuple)):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: expected {len(ref)} entries"
        for i, (a, b) in enumerate(zip(ref, got)):
            bad = _mismatch(a, b, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(ref, (bool, np.bool_, str)) or ref is None:
        return None if got == ref else f"{path}: {got!r} != {ref!r}"
    a, b = float(ref), float(got)
    if a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b)):
        return None
    return f"{path}: {b!r} differs from {a!r}"


def check_child(name: str, run, ref) -> list[str]:
    """Exit code and output of one command against the in-process reference."""
    if name == "cli_stopcheck_s":
        if run.returncode not in (0, 10):
            return [f"stopcheck exited {run.returncode}: {run.stderr.strip()[-300:]}"]
        expected = 0 if ref["terminate"] else 10
        if run.returncode != expected:
            return [f"stopcheck exited {run.returncode}, terminate={ref['terminate']}"]
    elif run.returncode != 0:
        return [f"{name} exited {run.returncode}: {run.stderr.strip()[-300:]}"]
    if name == "cli_startup_s":
        return [] if run.stdout.strip() == str(ref) else [f"miness printed {run.stdout.strip()!r}, expected {ref}"]
    try:
        got = json.loads(run.stdout)
    except json.JSONDecodeError as exc:
        return [f"{name}: output is not JSON ({exc})"]
    bad = _mismatch(ref, got, name)
    return [bad] if bad else []


# -- replication study ------------------------------------------------------

def study_grid() -> dict:
    """bm and sv with none / zero / over lugsail, plus initseq."""
    return experiments.standard_grid(methods=("bm", "sv", "initseq"))


def run_study(study, seed: int, grid: dict) -> list[dict]:
    return experiments.coverage_study(experiments.ar1_chain_factory(study.phi), 0.0, grid,
                                      [study.n], study.reps, seed)


def study_command(w, seed: int) -> list:
    return [sys.executable, os.path.join(ROOT, "perfbench", "study.py"), "--seed", str(seed),
            *(["--toy"] if w.is_toy else [])]


def check_study(run) -> tuple[list[str], list[float]]:
    """Problems with a study child's output, and its replicates-per-second samples."""
    if run.returncode != 0:
        return [f"study exited {run.returncode}: {run.stderr.strip()[-300:]}"], []
    try:
        out = json.loads(run.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        return [f"study printed no result: {run.stdout[-300:]!r}"], []
    problems = [] if out["identical"] else ["coverage_study rows differ for a repeated seed"]
    if not all(0.0 <= row["coverage"] <= 1.0 for row in out["rows"]):
        problems.append("coverage outside [0, 1]")
    return problems, out["reps_per_s"]


# -- library identities -----------------------------------------------------

def check_identities(values: np.ndarray, t_n: int, prefix: int = 8192) -> list[str]:
    """FFT lags equal direct lags, and batch means at b=1 is the sample covariance.

    The lag check covers the 2*t_n+1 lags the initial-sequence scan reads,
    on a prefix of the chain so it stays cheap next to the timed work.
    """
    problems = []
    head = chain_mod.SampleMatrix(values[:prefix])
    kmax = min(2 * t_n, head.n - 1)
    fft = chain_mod.lag_covariances_fft(head, kmax)
    worst = max(float(np.abs(fft[k].matrix - chain_mod.lag_covariance(head, k).matrix).max())
                for k in range(kmax + 1))
    if not worst <= LAG_TOL:
        problems.append(f"FFT and direct lag covariances differ by {worst:.3e} > {LAG_TOL:g}")
    c = chain_mod.SampleMatrix(values)
    one = batch.batch_means(c, 1).matrix
    cov = chain_mod.sample_covariance(c)
    if np.abs(one - cov).max() > REL_TOL * np.abs(cov).max():
        problems.append("batch_means(b=1) differs from sample_covariance")
    return problems


def cpu_wall(fn, *args):
    """(result, wall seconds, process CPU seconds) of one call."""
    c0, t0 = time.process_time(), time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0, time.process_time() - c0

