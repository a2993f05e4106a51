"""Command-line interface: chain ingestion, estimation, diagnostics, studies.

Exit codes partition disjointly: 0 success (or stop-rule terminate),
2 input/parse failure, 3 usage or invalid flag combination, 4 numerical
failure (a matrix that must be positive definite is not), 10 stop-rule
continue.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .batch import lag1_autocorrelation
from .chain import SampleMatrix, mean_vector
from .diagnostics import NotPositiveDefinite, StoppingConfig, ess, fixed_volume_check, mcse, min_ess
from .experiments import (
    METHODS,
    Ar1Config,
    MixtureConfig,
    ar1_chain_factory,
    ar1_generate,
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
from .quantiles import TargetSpec, _check_z_star_settings, estimate_omega, solve_z_star
from .spectral import WINDOWS

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
    blank_lines: int = 0  # blank lines before the first row, header or data


def sniff_chain_file(path: str, columns: str | None = None) -> ChainFile:
    """Detect a .npy array by its magic bytes (whatever the suffix), else
    the delimiter and header of UTF-8 CSV/TSV text (an optional byte-order
    mark is dropped) from its first non-blank line."""
    cols = None
    if columns is not None:
        try:
            cols = tuple(int(c) for c in columns.split(","))
        except ValueError as exc:
            raise ValueError(f"bad column selection {columns!r}") from exc
    try:
        with open(path, "rb") as fh:
            if fh.read(len(NPY_MAGIC)) == NPY_MAGIC:
                return ChainFile(path=path, delimiter="", header=False, columns=cols, npy=True)
            fh.seek(0)
            blank, first = 0, ""
            for line in fh:
                first = line.decode("utf-8-sig")
                if first.strip():
                    break
                blank += 1
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
    return ChainFile(path=path, delimiter=delimiter, header=header, columns=cols, blank_lines=blank)


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
    def parse(source):
        # skiprows counts physical lines, blank ones included
        return np.loadtxt(source, delimiter=spec.delimiter, skiprows=spec.blank_lines + spec.header,
                          ndmin=2, encoding="utf-8-sig")

    try:
        with warnings.catch_warnings():
            # a header-only file: the n >= 2 check in SampleMatrix reports it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                return parse(spec.path)
            except ValueError:
                # loadtxt skips empty lines but not whitespace-only ones: parse
                # again with those emptied, so a clean file is read only once
                with open(spec.path, encoding="utf-8-sig") as fh:
                    return parse(line if line.strip() else "\n" for line in fh)
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


def _plain(obj):
    """json's default= hook: numpy arrays and scalars as Python lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, default=_plain))


def _flat_items(value, key: str = ""):
    """(key, value) rows of a report, its nested keys and indices joined by _."""
    if not isinstance(value, (dict, list)):
        yield key, value
        return
    for k, v in value.items() if isinstance(value, dict) else enumerate(value):
        yield from _flat_items(v, f"{key}_{k}" if key else str(k))


def emit(report, out: str) -> None:
    """Write a report to stdout: JSON, else a list of rows as a CSV table or
    a dict as key,value lines.  csv writes floats as repr, round-trip exact."""
    if out == "json":
        emit_json(report)
        return
    report = json.loads(json.dumps(report, default=_plain))  # the values JSON would print
    if isinstance(report, dict):
        rows = [["key", "value"], *_flat_items(report)]
    else:
        rows = [list(report[0]), *([row[k] for k in report[0]] for row in report)] if report else []
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


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
    return targets


def run_chain_command(args) -> int:
    """estimate, ess, stopcheck and simci: the estimator's flags, then the
    command's own settings (args.settings builds them), then the chain file are
    checked in that order; args.report builds the report and exit code."""
    estimator = make_estimator(args.method, b=args.b, lugsail=args.lugsail, r=args.r, c=args.c,
                               window=args.window)
    settings = args.settings(args) if args.settings else None
    chain = load_chain(sniff_chain_file(args.file, args.columns))
    meta = {k: v for k, v in asdict(estimator).items() if v is not None and k not in ("b", "batch_rule")}
    # an overflow shows as a non-finite estimate, which LrvEstimate refuses (exit 4)
    with np.errstate(over="ignore", invalid="ignore"):
        report, code = args.report(args, chain, estimator, meta, settings)
    emit(report, args.out)
    return code


def _estimate_report(args, chain, estimator, meta, settings):
    t0 = time.perf_counter()
    estimate = estimator(chain)
    errors = mcse(estimate, chain.n)
    try:
        ess_val = float(ess(chain, estimate))
    except NotPositiveDefinite:
        ess_val = None
    wall = time.perf_counter() - t0
    meta = dict(meta, b=estimate.b)
    if estimate.lugsail is not None:
        meta["r"], meta["c"] = estimate.lugsail.r, estimate.lugsail.c
    return {
        "method": meta,
        "n": chain.n,
        "p": chain.p,
        "sigma": estimate.matrix,
        "psd": estimate.psd,
        "mcse": errors,
        "ess": ess_val,
        "ess_per_n": None if ess_val is None else ess_val / chain.n,
        "wall_time_s": wall,
        "mean": mean_vector(chain),
    }, EXIT_OK


def _ess_report(args, chain, estimator, meta, settings):
    value = ess(chain, estimator(chain))
    return {"method": meta, "n": chain.n, "p": chain.p, "ess": value, "ess_per_n": value / chain.n}, EXIT_OK


def _stopcheck_report(args, chain, estimator, meta, config):
    decision = fixed_volume_check(chain, estimator(chain), config)
    return {
        "method": meta,
        "terminate": decision.terminate,
        "lhs": decision.lhs,
        "rhs": decision.rhs,
        "ess": decision.ess,
        "min_ess": decision.min_ess,
        "n": decision.n,
        "n_star": decision.n_star,
    }, EXIT_OK if decision.terminate else EXIT_CONTINUE


def _simci_settings(args) -> list[TargetSpec]:
    _check_z_star_settings(args.alpha, args.seed)
    return parse_targets(args.targets)


def _simci_report(args, chain, estimator, meta, targets):
    joint = estimate_omega(chain, targets, estimator)
    region = solve_z_star(joint, args.alpha, seed=args.seed)
    return {
        "method": meta,
        "alpha": args.alpha,
        "z_star": region.z_star,
        "targets": [t.label() for t in targets],
        "nu_hat": joint.nu_hat,
        "intervals": region.intervals,
    }, EXIT_OK


def cmd_miness(args) -> int:
    print(min_ess(args.alpha, args.eps, args.p))
    return EXIT_OK


def cmd_experiment(args) -> int:
    if args.name in ("mixture", "logistic"):
        if args.name == "mixture":
            chain = mixture_mh_generate(MixtureConfig(n=args.n, seed=args.seed, proposal_sd=args.proposal_sd))
        else:
            chain = logistic_mh_generate(args.n_obs, args.p_coef, args.n, seed=args.seed)
        # the bm-over summary both samplers report
        estimate = make_estimator("bm", lugsail="over")(chain)
        mean, errors, ess_val = mean_vector(chain), mcse(estimate, chain.n), float(ess(chain, estimate))
        if args.name == "mixture":
            report = {"n": chain.n, "mean": float(mean[0]), "mcse": float(errors[0]), "ess": ess_val,
                      "lag1_autocorrelation": lag1_autocorrelation(chain),
                      "acceptance_rate": mh_acceptance_rate(chain)}
        else:
            report = {"n": chain.n, "p": chain.p, "posterior_mean": mean, "mcse": errors, "ess": ess_val}
    elif args.name == "bench":
        chain = ar1_generate(Ar1Config(phi=0.9, n=args.n, seed=args.seed, p=args.p_coef))
        report = timing_bench(chain, standard_grid(methods=("bm", "sv", "initseq")), repetitions=args.reps)
    else:
        n_grid = [int(x) for x in args.n_grid.split(",")] if args.n_grid else [args.n]
        grid = standard_grid(methods=tuple(args.methods.split(",")))
        if args.name == "ar1-coverage":
            report = coverage_study(ar1_chain_factory(args.phi), 0.0, grid, n_grid,
                                    args.reps, args.seed, alpha=args.alpha)
        else:
            report = ess_study(ar1_chain_factory(args.phi), ar1_truth(args.phi), grid, n_grid,
                               args.reps, args.seed)
    emit(report, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mcvar", description="MCMC long-run variance estimation and output analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def chain_command(name, help, report, settings=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run_chain_command, report=report, settings=settings, out="json")
        p.add_argument("file")
        p.add_argument("--columns", default=None, help="comma-separated column indices to keep")
        p.add_argument("--method", choices=METHODS, default="bm")
        p.add_argument("--window", default=None, help=f"lag window for --method sv ({', '.join(WINDOWS)})")
        p.add_argument("--lugsail", choices=[*REGIMES, "custom"], default="none")
        p.add_argument("--r", type=float, default=None, help="lugsail ratio (only with --lugsail custom)")
        p.add_argument("--c", type=float, default=None, help="lugsail weight (only with --lugsail custom)")
        p.add_argument("--b", type=int, default=None, help="batch size / truncation point (default: floor(sqrt(n)))")
        return p

    p_est = chain_command("estimate", "estimate the long-run covariance of a chain file", _estimate_report)
    p_est.add_argument("--out", choices=["json", "csv"], default="json")

    chain_command("ess", "effective sample size of a chain file", _ess_report)

    p_min = sub.add_parser("miness", help="minimum ESS needed for the fixed-volume rule")
    p_min.set_defaults(run=cmd_miness)
    p_min.add_argument("--alpha", type=float, default=0.05)
    p_min.add_argument("--eps", type=float, default=0.05)
    p_min.add_argument("--p", type=int, default=1)

    p_stop = chain_command("stopcheck", "evaluate the relative fixed-volume stopping rule", _stopcheck_report,
                           lambda args: StoppingConfig(alpha=args.alpha, epsilon=args.eps, n_star=args.nstar))
    p_stop.add_argument("--alpha", type=float, default=0.05)
    p_stop.add_argument("--eps", type=float, default=0.05)
    p_stop.add_argument("--nstar", type=int, default=None)

    p_sim = chain_command("simci", "simultaneous confidence intervals for means and quantiles", _simci_report,
                          _simci_settings)
    p_sim.add_argument("--targets", required=True,
                       help='e.g. "mean:0,quant:0:0.1,quant:0:0.9"')
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--seed", type=int, default=0)

    # each experiment declares the flags it reads; shared ones come from parents
    p_exp = sub.add_parser("experiment", help="run a replication study or benchmark")
    p_exp.set_defaults(run=cmd_experiment)
    names = p_exp.add_subparsers(dest="name", required=True)
    every = argparse.ArgumentParser(add_help=False)
    every.add_argument("--seed", type=int, default=0)
    every.add_argument("--out", choices=["json", "csv"], default="csv")
    reps = argparse.ArgumentParser(add_help=False)
    reps.add_argument("--reps", type=int, default=500)
    p_coef = argparse.ArgumentParser(add_help=False)
    p_coef.add_argument("--p-coef", type=int, default=19)
    n = {"type": int, "default": 50000}
    one_chain = argparse.ArgumentParser(add_help=False, parents=[every])
    one_chain.add_argument("--n", **n)
    study = argparse.ArgumentParser(add_help=False, parents=[every, reps])
    study.add_argument("--phi", type=float, default=0.92)
    lengths = study.add_mutually_exclusive_group()
    lengths.add_argument("--n", **n)
    lengths.add_argument("--n-grid", default=None, help="comma-separated chain lengths")
    study.add_argument("--methods", default="bm", help="comma-separated estimator families")
    coverage = names.add_parser("ar1-coverage", parents=[study], help="coverage of the AR(1) mean's region")
    coverage.add_argument("--alpha", type=float, default=0.05)
    names.add_parser("ar1-ess", parents=[study], help="estimated ESS/n on AR(1) chains")
    mixture = names.add_parser("mixture", parents=[one_chain], help="a Metropolis chain on a normal mixture")
    mixture.add_argument("--proposal-sd", type=float, default=0.5)
    logistic = names.add_parser("logistic", parents=[one_chain, p_coef], help="a Metropolis chain on a logistic model")
    logistic.add_argument("--n-obs", type=int, default=200)
    names.add_parser("bench", parents=[one_chain, p_coef, reps], help="median wall time per estimator")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ChainFileError as exc:
        print(f"mcvar: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotPositiveDefinite as exc:
        print(f"mcvar: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"mcvar: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
