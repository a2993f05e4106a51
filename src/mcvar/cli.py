"""Command-line interface: chain ingestion, estimation, diagnostics, studies.

Exit codes partition disjointly: 0 success (or stop-rule terminate),
2 input/parse failure, 3 usage or invalid flag combination, 4 numerical
failure (a matrix that must be positive definite is not), 10 stop-rule
continue.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .batch import lag1_autocorrelation
from .chain import SampleMatrix, mean_vector
from .diagnostics import NotPositiveDefinite, StoppingConfig, ess, fixed_volume_check, mcse, min_ess
from .experiments import (
    METHODS,
    MixtureConfig,
    ar1_chain_factory,
    ar1_truth,
    coverage_study,
    ess_study,
    logistic_mh_generate,
    make_estimator,
    mh_acceptance_rate,
    mixture_mh_generate,
    standard_grid,
    timing_bench,
)
from .lrv import REGIMES
from .quantiles import TargetSpec, estimate_omega, solve_z_star

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 3
EXIT_NUMERICAL = 4
EXIT_CONTINUE = 10


class ChainFileError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here reserves 2 for
    # input files and uses 3 for bad flags.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


NPY_MAGIC = b"\x93NUMPY"


@dataclass(frozen=True)
class ChainFile:
    path: str
    delimiter: str
    header: bool
    columns: tuple[int, ...] | None = None
    npy: bool = False


def sniff_chain_file(path: str, columns: str | None = None) -> ChainFile:
    """Detect a .npy array by its magic bytes (whatever the suffix), else
    the delimiter and header of UTF-8 CSV/TSV text from its first line."""
    cols = None
    if columns:
        try:
            cols = tuple(int(c) for c in columns.split(","))
        except ValueError as exc:
            raise ChainFileError(f"bad column selection {columns!r}") from exc
    try:
        with open(path, "rb") as fh:
            if fh.read(len(NPY_MAGIC)) == NPY_MAGIC:
                return ChainFile(path=path, delimiter="", header=False, columns=cols, npy=True)
            fh.seek(0)
            first = fh.readline().decode("utf-8")
    except OSError as exc:
        raise ChainFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ChainFileError(f"{path} is not UTF-8 text: {exc}") from exc
    if not first.strip():
        raise ChainFileError(f"{path} is empty")
    delimiter = "\t" if "\t" in first else ","
    fields = [f.strip() for f in first.strip().split(delimiter)]

    def numeric(s: str) -> bool:
        try:
            float(s)
            return True
        except ValueError:
            return False

    header = not all(numeric(f) for f in fields)
    return ChainFile(path=path, delimiter=delimiter, header=header, columns=cols)


def _read_npy(path: str) -> np.ndarray:
    """An n x p array from a .npy file; never unpickles, always reads into memory."""
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ChainFileError(f"cannot parse {path}: {exc}") from exc
    if data.dtype.kind not in "biuf":
        raise ChainFileError(f"{path}: need a numeric array, got dtype {data.dtype}")
    if data.ndim not in (1, 2):
        raise ChainFileError(f"{path}: need a 1- or 2-dimensional array, got ndim={data.ndim}")
    return data.reshape(-1, 1) if data.ndim == 1 else data


def _read_text(spec: ChainFile) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # a header-only file: the n >= 2 check in SampleMatrix reports it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(spec.path, delimiter=spec.delimiter,
                              skiprows=1 if spec.header else 0, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ChainFileError(f"cannot parse {spec.path}: {exc}") from exc


def load_chain(spec: ChainFile) -> SampleMatrix:
    data = _read_npy(spec.path) if spec.npy else _read_text(spec)
    if spec.columns is not None:
        if any(c < 0 or c >= data.shape[1] for c in spec.columns):
            raise ChainFileError(f"column selection {spec.columns} out of range for {data.shape[1]} columns")
        data = data[:, list(spec.columns)]
    try:
        return SampleMatrix(data)
    except ValueError as exc:
        raise ChainFileError(f"{spec.path}: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def emit_json(payload) -> None:
    print(json.dumps(_jsonable(payload), indent=2))


def _flat_items(payload: dict):
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            for i, row in enumerate(value):
                for j, v in enumerate(row):
                    yield f"{key}_{i}_{j}", v
        elif isinstance(value, list):
            for i, v in enumerate(value):
                yield f"{key}_{i}", v
        elif isinstance(value, dict):
            for k, v in value.items():
                yield f"{key}_{k}", v
        else:
            yield key, value


def emit_report_csv(payload: dict) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flat_items(_jsonable(payload)):
        writer.writerow([key, repr(value) if isinstance(value, float) else value])
    sys.stdout.write(buf.getvalue())


def emit_rows(rows: list[dict], out: str) -> None:
    if out == "json":
        emit_json(rows)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            values = [_jsonable(row[k]) for k in header]
            writer.writerow([repr(v) if isinstance(v, float) else v for v in values])
    sys.stdout.write(buf.getvalue())


def add_estimator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=METHODS, default="bm")
    parser.add_argument("--window", default=None,
                        help="lag window for --method sv (bartlett, bartlett-flattop, tukey-hanning, quadratic-spectral)")
    parser.add_argument("--lugsail", choices=[*REGIMES, "custom"], default="none")
    parser.add_argument("--r", type=float, default=None, help="lugsail ratio (only with --lugsail custom)")
    parser.add_argument("--c", type=float, default=None, help="lugsail weight (only with --lugsail custom)")
    parser.add_argument("--b", type=int, default=None, help="batch size / truncation point (default: floor(sqrt(n)))")


def estimator_from_args(args) -> tuple:
    """Build (estimator, metadata); make_estimator validates the values, this
    only refuses flags that the chosen method or regime would ignore."""
    if args.window is not None and args.method != "sv":
        raise ValueError("--window is only valid with --method sv")
    if (args.r is not None or args.c is not None) and args.lugsail != "custom":
        raise ValueError("--r/--c are only valid with --lugsail custom")
    window = args.window or "bartlett"
    estimator = make_estimator(args.method, b=args.b, lugsail=args.lugsail,
                               r=args.r, c=args.c, window=window)
    meta = {"family": args.method, "lugsail": args.lugsail}
    if args.method == "sv":
        meta["window"] = window
    if args.lugsail == "custom":
        meta["r"], meta["c"] = args.r, args.c
    return estimator, meta


def cmd_estimate(args) -> int:
    estimator, meta = estimator_from_args(args)
    chain = load_chain(sniff_chain_file(args.file, args.columns))
    t0 = time.perf_counter()
    estimate = estimator(chain)
    errors = mcse(estimate, chain.n)
    try:
        ess_val = ess(chain, estimate)
    except NotPositiveDefinite:
        ess_val = None
    wall = time.perf_counter() - t0
    meta = dict(meta)
    meta["b"] = estimate.b
    if estimate.lugsail is not None:
        meta["r"], meta["c"] = estimate.lugsail.r, estimate.lugsail.c
    report = {
        "method": meta,
        "n": chain.n,
        "p": chain.p,
        "sigma": estimate.matrix,
        "psd": estimate.psd,
        "mcse": errors,
        "ess": None if ess_val is None else float(ess_val),
        "ess_per_n": None if ess_val is None else float(ess_val) / chain.n,
        "wall_time_s": wall,
        "mean": mean_vector(chain),
    }
    if args.out == "json":
        emit_json(report)
    else:
        emit_report_csv(report)
    return EXIT_OK


def cmd_ess(args) -> int:
    estimator, meta = estimator_from_args(args)
    chain = load_chain(sniff_chain_file(args.file, args.columns))
    value = ess(chain, estimator(chain))
    emit_json({"method": meta, "n": chain.n, "p": chain.p, "ess": value, "ess_per_n": value / chain.n})
    return EXIT_OK


def cmd_miness(args) -> int:
    print(min_ess(args.alpha, args.eps, args.p))
    return EXIT_OK


def cmd_stopcheck(args) -> int:
    estimator, meta = estimator_from_args(args)
    chain = load_chain(sniff_chain_file(args.file, args.columns))
    config = StoppingConfig(alpha=args.alpha, epsilon=args.eps, n_star=args.nstar)
    decision = fixed_volume_check(chain, estimator(chain), config)
    emit_json({
        "method": meta,
        "terminate": decision.terminate,
        "lhs": decision.lhs,
        "rhs": decision.rhs,
        "ess": decision.ess,
        "min_ess": decision.min_ess,
        "n": decision.n,
        "n_star": decision.n_star,
    })
    return EXIT_OK if decision.terminate else EXIT_CONTINUE


def parse_targets(text: str) -> list[TargetSpec]:
    targets = []
    for part in text.split(","):
        bits = part.strip().split(":")
        try:
            if bits[0] == "mean" and len(bits) == 2:
                targets.append(TargetSpec("mean", int(bits[1])))
            elif bits[0] in ("quant", "quantile") and len(bits) == 3:
                targets.append(TargetSpec("quantile", int(bits[1]), float(bits[2])))
            else:
                raise ValueError(part)
        except (ValueError, IndexError) as exc:
            raise ValueError(
                f"bad target {part!r}; use mean:<col> or quant:<col>:<q>") from exc
    if not targets:
        raise ValueError("no targets given")
    return targets


def cmd_simci(args) -> int:
    estimator, meta = estimator_from_args(args)
    targets = parse_targets(args.targets)
    chain = load_chain(sniff_chain_file(args.file, args.columns))
    joint = estimate_omega(chain, targets, estimator)
    region = solve_z_star(joint, args.alpha, seed=args.seed)
    emit_json({
        "method": meta,
        "alpha": args.alpha,
        "z_star": region.z_star,
        "targets": [t.label() for t in targets],
        "nu_hat": _jsonable(joint.nu_hat),
        "intervals": _jsonable(region.intervals),
    })
    return EXIT_OK


def _experiment_rows(args) -> list[dict]:
    n_grid = [int(x) for x in args.n_grid.split(",")] if args.n_grid else [args.n]
    grid = standard_grid(methods=tuple(args.methods.split(",")))
    if args.name == "ar1-coverage":
        return coverage_study(ar1_chain_factory(args.phi), 0.0, grid, n_grid,
                              args.reps, args.seed, alpha=args.alpha)
    if args.name == "ar1-ess":
        return ess_study(ar1_chain_factory(args.phi), ar1_truth(args.phi), grid, n_grid,
                         args.reps, args.seed)
    raise ValueError(f"unknown experiment {args.name!r}")


def cmd_experiment(args) -> int:
    if args.name in ("ar1-coverage", "ar1-ess"):
        emit_rows(_experiment_rows(args), args.out)
        return EXIT_OK
    if args.name == "mixture":
        chain = mixture_mh_generate(MixtureConfig(n=args.n, seed=args.seed, proposal_sd=args.proposal_sd))
        estimator = make_estimator("bm", lugsail="over")
        estimate = estimator(chain)
        emit_json({
            "n": chain.n,
            "mean": float(mean_vector(chain)[0]),
            "mcse": float(mcse(estimate, chain.n)[0]),
            "ess": float(ess(chain, estimate)),
            "lag1_autocorrelation": lag1_autocorrelation(chain),
            "acceptance_rate": mh_acceptance_rate(chain),
        })
        return EXIT_OK
    if args.name == "logistic":
        chain = logistic_mh_generate(args.n_obs, args.p_coef, args.n, seed=args.seed)
        estimator = make_estimator("bm", lugsail="over")
        estimate = estimator(chain)
        emit_json({
            "n": chain.n,
            "p": chain.p,
            "posterior_mean": _jsonable(mean_vector(chain)),
            "mcse": _jsonable(mcse(estimate, chain.n)),
            "ess": float(ess(chain, estimate)),
        })
        return EXIT_OK
    if args.name == "bench":
        rng = np.random.default_rng(args.seed)
        eps = rng.standard_normal((args.n, args.p_coef))
        from scipy.signal import lfilter

        values, _ = lfilter([1.0], [1.0, -0.9], eps, axis=0, zi=np.zeros((1, args.p_coef)))
        chain = SampleMatrix(values)
        grid = standard_grid(methods=("bm", "sv", "initseq"))
        emit_rows(timing_bench(chain, grid, repetitions=args.reps), args.out)
        return EXIT_OK
    raise ValueError(f"unknown experiment {args.name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mcvar", description="MCMC long-run variance estimation and output analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def chain_command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("file")
        p.add_argument("--columns", default=None, help="comma-separated column indices to keep")
        add_estimator_flags(p)
        return p

    p_est = chain_command("estimate", "estimate the long-run covariance of a chain file")
    p_est.add_argument("--out", choices=["json", "csv"], default="json")

    chain_command("ess", "effective sample size of a chain file")

    p_min = sub.add_parser("miness", help="minimum ESS needed for the fixed-volume rule")
    p_min.add_argument("--alpha", type=float, default=0.05)
    p_min.add_argument("--eps", type=float, default=0.05)
    p_min.add_argument("--p", type=int, default=1)

    p_stop = chain_command("stopcheck", "evaluate the relative fixed-volume stopping rule")
    p_stop.add_argument("--alpha", type=float, default=0.05)
    p_stop.add_argument("--eps", type=float, default=0.05)
    p_stop.add_argument("--nstar", type=int, default=None)

    p_sim = chain_command("simci", "simultaneous confidence intervals for means and quantiles")
    p_sim.add_argument("--targets", required=True,
                       help='e.g. "mean:0,quant:0:0.1,quant:0:0.9"')
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--seed", type=int, default=0)

    p_exp = sub.add_parser("experiment", help="run a replication study or benchmark")
    p_exp.add_argument("name", choices=["ar1-coverage", "ar1-ess", "mixture", "logistic", "bench"])
    p_exp.add_argument("--phi", type=float, default=0.92)
    p_exp.add_argument("--n", type=int, default=50000)
    p_exp.add_argument("--n-grid", default=None, help="comma-separated chain lengths")
    p_exp.add_argument("--reps", type=int, default=500)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--alpha", type=float, default=0.05)
    p_exp.add_argument("--methods", default="bm", help="comma-separated estimator families")
    p_exp.add_argument("--proposal-sd", type=float, default=0.5)
    p_exp.add_argument("--n-obs", type=int, default=200)
    p_exp.add_argument("--p-coef", type=int, default=19)
    p_exp.add_argument("--out", choices=["json", "csv"], default="csv")
    return parser


COMMANDS = {
    "estimate": cmd_estimate,
    "ess": cmd_ess,
    "miness": cmd_miness,
    "stopcheck": cmd_stopcheck,
    "simci": cmd_simci,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except ChainFileError as exc:
        print(f"mcvar: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotPositiveDefinite as exc:
        print(f"mcvar: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"mcvar: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
