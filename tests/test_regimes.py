"""Every named estimator and lugsail regime means the same thing on every path.

The factory used by studies and the command line must reproduce the direct
library call, bit for bit, for each method and each named regime.  The
regime table is spelled out here independently of the package.
"""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcvar import (
    BARTLETT,
    LrvEstimate,
    LugsailConfig,
    NotPositiveDefinite,
    SampleMatrix,
    adjusted_initial_sequence,
    default_batch_size,
    ess,
    initial_sequence,
    lugsail_batch_means,
    lugsail_overlapping_batch_means,
    lugsail_policy,
    lugsail_spectral_variance,
)
from mcvar.cli import EXIT_OK, EXIT_USAGE, main
from mcvar.experiments import METHODS as FACTORY_METHODS, Ar1Config, Estimator, ar1_generate, make_estimator
from mcvar.lrv import REGIMES
from mcvar.spectral import WINDOWS

from conftest import ar1_chains

METHODS = ("bm", "obm", "sv", "initseq", "initseq-adj")
REGIME_RC = {"none": (1.0, 0.0), "zero": (2.0, 0.5), "adaptive": (2.0, None), "over": (3.0, 0.5)}


@pytest.fixture(scope="module")
def chain():
    return SampleMatrix(np.column_stack([
        ar1_generate(Ar1Config(phi=0.8, n=3000, seed=seed)).values[:, 0] for seed in (5, 6)
    ]))


def direct(method, name, chain, b=None):
    r, c = REGIME_RC[name]
    config = LugsailConfig(r=r, c=c, regime=name)
    b = default_batch_size(chain.n, "sqrt", r=r) if b is None else b
    if method == "bm":
        return lugsail_batch_means(chain, b, config)
    if method == "obm":
        return lugsail_overlapping_batch_means(chain, b, config)
    return lugsail_spectral_variance(chain, BARTLETT, b, r, c)


@pytest.mark.parametrize("name", sorted(REGIME_RC))
@pytest.mark.parametrize("method", METHODS)
def test_factory_matches_direct_call(chain, method, name):
    if method.startswith("initseq"):
        if name != "none":
            with pytest.raises(ValueError):
                make_estimator(method, lugsail=name)
            return
        scan = initial_sequence if method == "initseq" else adjusted_initial_sequence
        got, want = make_estimator(method)(chain), scan(chain)
        assert isinstance(got, LrvEstimate)
        assert got.family == method
        assert np.array_equal(got.matrix, want.sigma)
        assert (got.s_n, got.t_n) == (want.s_n, want.t_n)
        assert np.array_equal(got.logdet_path, want.logdet_path)
        return
    got = make_estimator(method, lugsail=name)(chain)
    want = direct(method, name, chain)
    assert np.array_equal(got.matrix, want.matrix)
    assert (got.family, got.b, got.lugsail) == (want.family, want.b, want.lugsail)


@pytest.mark.parametrize("name", sorted(REGIME_RC))
def test_constructor_names_table_entries(name):
    r, c = REGIME_RC[name]
    assert LugsailConfig(r=r, c=c).regime == name
    assert LugsailConfig(r=r, c=c) == LugsailConfig(r=r, c=c, regime=name)


@pytest.mark.parametrize("r, c", [(2.5, 0.4), (2.0, 0.0), (3.0, None), (2.0, 0.25)])
def test_constructor_names_other_parameters_custom(r, c):
    assert LugsailConfig(r=r, c=c).regime == "custom"


@pytest.mark.parametrize("kwargs, message", [
    ({"method": "nope", "window": "nope", "r": 2.0}, "unknown estimator method"),
    *[({"method": m, "window": "bartlett"}, "--window is only valid with --method sv")
      for m in ("bm", "obm", "initseq", "initseq-adj")],
    ({"method": "initseq", "window": "bartlett", "lugsail": "zero", "r": 2.0}, "--window is only valid"),
    *[({"method": "bm", "lugsail": g, **rc}, "--r/--c are only valid with --lugsail custom")
      for g in ("none", "zero", "over") for rc in ({"r": 3.0}, {"c": 0.9}, {"r": 3.0, "c": 0.9})],
    ({"method": "initseq", "lugsail": "zero", "r": 2.0}, "--r/--c are only valid"),
    ({"method": "initseq", "lugsail": "custom", "r": 2.0, "c": 0.5}, "initseq takes no lugsail adjustment"),
    ({"method": "initseq-adj", "b": 10}, "initseq-adj takes no batch size b"),
    ({"method": "sv", "lugsail": "custom", "r": 2.0, "window": "nope"}, "custom lugsail needs both r and c"),
    ({"method": "bm", "lugsail": "custom", "c": 0.5}, "custom lugsail needs both r and c"),
    ({"method": "bm", "lugsail": "custom", "r": 0.5, "c": 0.5}, "lugsail ratio r must be finite and >= 1"),
    ({"method": "obm", "lugsail": "custom", "r": 2.0, "c": 1.0}, "lugsail weight c must lie in"),
    ({"method": "sv", "lugsail": "bogus", "window": "nope"}, "unknown lugsail regime"),
    ({"method": "sv", "window": "nope", "b": 0}, "unknown lag window"),
    ({"method": "bm", "b": 0, "batch_rule": "bogus"}, "batch size must be >= 1, got 0"),
    ({"method": "bm", "b": -3}, "batch size must be >= 1, got -3"),
    ({"method": "bm", "batch_rule": "bogus"}, "unknown batch size rule 'bogus'"),
])
def test_make_estimator_refusals(kwargs, message):
    # one refusal per setting, in the order the command line reports them;
    # Estimator refuses the same, word for word, built by position or by replace
    fields = {"family": kwargs["method"], "lugsail": "none", "window": None, "r": None, "c": None, "b": None,
              "batch_rule": "sqrt", **{k: v for k, v in kwargs.items() if k != "method"}}
    refusals = []
    for build in (lambda: make_estimator(**kwargs), lambda: Estimator(*fields.values()),
                  lambda: dataclasses.replace(make_estimator("bm"), **fields)):
        with pytest.raises(ValueError, match=message) as info:
            build()
        refusals.append(str(info.value))
    assert refusals[1:] == refusals[:1] * 2


@pytest.mark.parametrize("method, message", [
    ("bm", "batch size must be >= 1"),
    ("obm", "overlapping batch size must satisfy"),
    ("sv", "truncation point must satisfy"),
])
def test_family_batch_check_runs_before_the_lugsail_one(chain, method, message):
    # make_estimator refuses b = 0 first; each family still checks b itself
    with pytest.raises(ValueError, match=message):
        direct(method, "over", chain, b=0)


def test_make_estimator_returns_a_frozen_value_under_canonical_names():
    estimator = make_estimator("sv", window="Tukey_Hanning")
    assert isinstance(estimator, Estimator)
    assert estimator == make_estimator("sv", window="tukey-hanning")
    assert estimator.window == "tukey-hanning"
    assert make_estimator("sv") == make_estimator("sv", window="bartlett")
    with pytest.raises(dataclasses.FrozenInstanceError):
        estimator.b = 10


@pytest.mark.parametrize("rho, name", [(0.0, "zero"), (0.8, "adaptive"), (0.99, "over")])
def test_policy_returns_table_entries(rho, name):
    r, c = REGIME_RC[name]
    assert lugsail_policy(rho) == LugsailConfig(r=r, c=c, regime=name)


def test_package_tables_match():
    assert REGIMES == REGIME_RC
    assert FACTORY_METHODS == METHODS
    for name, (r, c) in REGIME_RC.items():
        assert LugsailConfig.named(name) == LugsailConfig(r=r, c=c, regime=name)
    with pytest.raises(ValueError, match="unknown lugsail regime"):
        LugsailConfig.named("custom")
    with pytest.raises(ValueError, match="unknown estimator method"):
        make_estimator("nope")


@pytest.mark.parametrize("method", ["bm", "obm", "sv"])
def test_adaptive_regime_carries_its_resolved_weight(chain, method):
    est = make_estimator(method, lugsail="adaptive")(chain)
    assert est.lugsail.regime == "adaptive" and 0.5 < est.lugsail.c < 1.0


def test_named_regime_rejects_other_parameters():
    # new: a regime name that contradicts its (r, c) is refused
    with pytest.raises(ValueError):
        LugsailConfig(r=2, c=0.5, regime="none")
    with pytest.raises(ValueError, match="unknown lugsail regime 'bogus'"):
        LugsailConfig(2.0, 0.5, regime="bogus")


def test_cli_adjusted_initial_sequence(capsys, tmp_path):
    # new: the adjusted initial-sequence estimator is reachable from the CLI
    path = tmp_path / "chain4.csv"
    path.write_text("1\n2\n3\n4\n")
    assert main(["estimate", str(path), "--method", "initseq-adj"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["sigma"] == [[1.875]]
    assert main(["estimate", str(path), "--method", "initseq-adj", "--lugsail", "over"]) == EXIT_USAGE


# Every estimator the factory builds: bm and obm under each regime, sv under
# each window and regime, and both initial-sequence variants.
ESTIMATORS = {
    **{f"{m}-{g}": make_estimator(m, lugsail=g) for m in ("bm", "obm") for g in REGIME_RC},
    **{f"sv-{w}-{g}": make_estimator("sv", lugsail=g, window=w) for w in WINDOWS for g in REGIME_RC},
    "initseq": initial_sequence,
    "initseq-adj": adjusted_initial_sequence,
}


def assert_close_to(got, want, rel: float) -> None:
    """got == want within rel of want's largest entry, floored as in assert_lugsail_mix."""
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), np.finfo(float).tiny)


@pytest.mark.parametrize("label", ESTIMATORS)
@given(ar1_chains(), st.lists(st.floats(-8.0, 8.0), min_size=3, max_size=3))
def test_column_scaling_is_equivariant(label, x, log_scales):
    # Sigma(X D) = D Sigma(X) D for positive diagonal D; the initial-sequence
    # scans truncate at the same s_n and t_n.  Clipping the negative
    # eigenvalues of each pair sum is not scale-equivariant, so the adjusted
    # variant's matrix is not compared.
    d = 10.0 ** np.array(log_scales[: x.shape[1]])
    estimate = ESTIMATORS[label]
    base, scaled = estimate(SampleMatrix(x)), estimate(SampleMatrix(x * d))
    if label.startswith("initseq"):
        assert (scaled.s_n, scaled.t_n) == (base.s_n, base.t_n)
    if label != "initseq-adj":
        assert_close_to(scaled.matrix / np.outer(d, d), base.matrix, 1e-12)


@pytest.mark.parametrize("label", ESTIMATORS)
@given(ar1_chains(), st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
def test_shift_leaves_the_estimate_unchanged(label, x, shifts):
    # Sigma(X + 1 c^T) = Sigma(X) for |c_j| up to 1e3 standard deviations of
    # column j; the initial-sequence scans truncate at the same s_n and t_n.
    c = np.array(shifts[: x.shape[1]]) * x.std(axis=0)
    estimate = ESTIMATORS[label]
    base, shifted = estimate(SampleMatrix(x)), estimate(SampleMatrix(x + c))
    if label.startswith("initseq"):
        assert (shifted.s_n, shifted.t_n) == (base.s_n, base.t_n)
    assert_close_to(shifted.matrix, base.matrix, 1e-10)


@pytest.mark.parametrize("label", ESTIMATORS)
@given(ar1_chains(), st.sampled_from([0.1, 1 / 3, -7.3e5]) | st.floats(-1e6, 1e6), st.integers(0, 2))
def test_a_constant_column_has_no_ess_whatever_its_value(label, x, const, j):
    # the mean of n copies of a float need not be that float, and its residue
    # must not pass for a component with variance of its own
    x[:, min(j, x.shape[1] - 1)] = const
    chain = SampleMatrix(x)
    with pytest.raises(NotPositiveDefinite):
        ess(chain, ESTIMATORS[label](chain))


@pytest.mark.parametrize("label", ESTIMATORS)
@given(ar1_chains(), st.permutations(range(3)))
def test_column_permutation_is_equivariant(label, x, order):
    perm = [j for j in order if j < x.shape[1]]
    estimate = ESTIMATORS[label]
    base, permuted = estimate(SampleMatrix(x)), estimate(SampleMatrix(x[:, perm]))
    assert_close_to(permuted.matrix, base.matrix[np.ix_(perm, perm)], 1e-12)
