"""Workload table, seeded inputs and the facts recorded with every run.

Every workload is one AR(1) chain shape.  Its chains are generated from the
run's seed with the same ``lfilter`` recipe as acceptance criterion 11 and
handed to the package only as arrays (in-process operations) or, for the
first chain, as a CSV file (command-line operations).  The replication study
is the same on every workload: univariate AR(1) chains, phi 0.92, at the
README's smallest coverage size.
"""
from __future__ import annotations

import os
import platform
import sys
from dataclasses import dataclass, replace

import numpy as np
import scipy
from scipy.signal import lfilter

WARM_ROWS = 8192  # prefix of the first chain that set-up runs every operation on
TOY_ROWS = 30_000  # smoke-test chains; shorter 19-column chains can fail positive-definiteness checks


@dataclass(frozen=True)
class Study:
    """The replication study: coverage_study on univariate AR(1) chains."""
    n: int
    reps: int  # replicates per coverage_study call
    phi: float = 0.92


STUDY = Study(n=30_000, reps=20)
TOY_STUDY = Study(n=2000, reps=2)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: int
    phi: float
    why: str
    chains: int  # in-process samples rotate over the chains: scan length and QMC effort vary by chain
    is_toy: bool = False

    def toy(self) -> "Workload":
        """The same workload at smoke-test size."""
        return replace(self, n=min(self.n, TOY_ROWS), phi=min(self.phi, 0.9), is_toy=True)

    @property
    def study(self) -> Study:
        return TOY_STUDY if self.is_toy else STUDY

    @property
    def targets(self) -> str:
        """simci targets: the mean and the 10%/90% quantiles of components 0 and 1."""
        cols = range(min(self.p, 2))
        return ",".join([f"mean:{j}" for j in cols] + [f"quant:{j}:{q}" for j in cols for q in (0.1, 0.9)])


WORKLOADS = {w.name: w for w in (
    Workload("ar1-wide", n=200_000, p=19, phi=0.9, chains=2,
             why="The gate's 200k x 19 timing chain: per-column transforms and p^2 work dominate the library, "
                 "CSV parsing the CLI; ~1 lag block per scan."),
    Workload("ar1-long", n=1_000_000, p=3, phi=0.99, chains=3,
             why="1M x 3 at phi 0.99: passes that scale with n, and initial-sequence scans long enough "
                 "(t_n ~200-600) to regrow the lag block."),
)}


def generate_chains(w: Workload, seed: int) -> list[np.ndarray]:
    """The workload's chains for this seed, each from its own child stream."""
    out = []
    for child in np.random.SeedSequence(seed, spawn_key=(w.n, w.p)).spawn(w.chains):
        eps = np.random.default_rng(child).standard_normal((w.n, w.p))
        values, _ = lfilter([1.0], [1.0, -w.phi], eps, axis=0, zi=np.zeros((1, w.p)))
        out.append(values)
    return out


def write_csv(path: str, values: np.ndarray, chunk: int = 20_000) -> int:
    """Write rows with 17 significant digits, which parse back bit for bit."""
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w") as fh:
        for i in range(0, values.shape[0], chunk):
            block = values[i:i + chunk]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))
    return os.path.getsize(path)


def _cpuinfo() -> dict:
    facts = {"cpu_model": platform.processor() or platform.machine(), "llc": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name":
                    facts["cpu_model"] = value.strip()
                elif key == "cache size":
                    facts["llc"] = value.strip()
                    break
    except OSError:
        pass
    return facts


def machine_facts(thread_caps: dict) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        **_cpuinfo(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": thread_caps,
        "executable": os.path.basename(sys.executable),
    }
