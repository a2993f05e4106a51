import numpy as np
import pytest
from scipy.fft import next_fast_len

from mcvar import (
    LrvEstimate,
    NotPositiveDefinite,
    SampleMatrix,
    adjusted_initial_sequence,
    initial_sequence,
    lag_covariance,
    lag_covariances_fft,
)
from mcvar import initseq as initseq_module
from mcvar.chain import _lag_cov_block
from mcvar.lrv import chol_logdet

from conftest import ar1_paths, naive_lag_cov


def scalar_initseq_oracle(values):
    """Independent univariate implementation: pair the naive lag covariances,
    accumulate while the scalar partial sums strictly increase."""
    v = np.asarray(values, float).ravel()
    n = v.size
    limit = n // 2 - 1
    r = [naive_lag_cov(v, k)[0, 0] for k in range(2 * limit + 2)]
    partial = -r[0]
    s_n = None
    best = None
    for m in range(limit + 1):
        partial += 2.0 * (r[2 * m] + r[2 * m + 1])
        if s_n is None:
            if partial > 0:
                s_n, best = m, partial
            continue
        if partial <= best:
            return best, s_n, m - 1
        best = partial
    return best, s_n, limit


def adjacent_pair_sums(chain, mmax):
    """Symmetrized lag-covariance pairs sym R(2i) + sym R(2i+1), i = 0..mmax,
    the increments the initial-sequence scan accumulates."""
    lags = np.array([lc.matrix for lc in lag_covariances_fft(chain, 2 * mmax + 1)])
    sym = 0.5 * (lags + np.transpose(lags, (0, 2, 1)))
    return sym[0::2] + sym[1::2]


class TestAdjacentPairSums:
    def test_hand_case(self):
        sums = adjacent_pair_sums(SampleMatrix([1.0, 2.0, 3.0, 4.0]), 1)
        assert sums[0][0, 0] == pytest.approx(1.5625)
        assert sums[1][0, 0] == pytest.approx(-0.9375)

    def test_constant_chain_gives_zeros(self):
        sums = adjacent_pair_sums(SampleMatrix(np.full((10, 2), 3.0)), 2)
        assert np.allclose(sums, 0.0, atol=1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError, match="lag"):
            adjacent_pair_sums(SampleMatrix([1.0, 2.0, 3.0, 4.0]), 2)

    def test_entries_are_symmetric(self, rng):
        sums = adjacent_pair_sums(SampleMatrix(rng.standard_normal((40, 3))), 5)
        assert np.allclose(sums, np.transpose(sums, (0, 2, 1)), atol=0)


class TestInitialSequence:
    def test_hand_case(self):
        res = initial_sequence(SampleMatrix([1.0, 2.0, 3.0, 4.0]))
        assert res.scalar() == pytest.approx(1.875)
        assert (res.s_n, res.t_n) == (0, 0)
        assert res.logdet_path.shape == (1,)

    def test_constant_chain_has_no_pd_truncation(self):
        with pytest.raises(NotPositiveDefinite, match="no positive definite"):
            initial_sequence(SampleMatrix(np.full((20, 1), 2.0)))

    def test_matches_scalar_oracle_on_random_chains(self, rng):
        for _ in range(20):
            n = int(rng.integers(8, 200))
            v = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
            res = initial_sequence(SampleMatrix(v))
            want, s_n, t_n = scalar_initseq_oracle(v)
            assert res.scalar() == pytest.approx(want, rel=1e-10)
            assert (res.s_n, res.t_n) == (s_n, t_n)

    def test_logdet_path_strictly_increases(self, rng):
        res = initial_sequence(SampleMatrix(ar1_paths(rng, 1, 5000, 0.8)[0]))
        assert np.all(np.diff(res.logdet_path) > 0)

    def test_result_symmetric_and_pd(self, rng):
        res = initial_sequence(SampleMatrix(ar1_paths(rng, 3, 3000, 0.6).T))
        assert np.abs(res.sigma - res.sigma.T).max() < 1e-12
        eig = np.linalg.eigvalsh(res.sigma)
        assert eig.min() > 1e-10 * eig.max()

    def test_iid_replication_mean_near_truth(self, rng):
        vals = [initial_sequence(SampleMatrix(rng.standard_normal(100_000))).scalar() for _ in range(60)]
        assert np.mean(vals) == pytest.approx(1.0, rel=0.10)

    def test_conservative_on_correlated_chain(self, rng):
        # replication mean should not fall much below the true long-run variance
        sig = [initial_sequence(SampleMatrix(p)).scalar() for p in ar1_paths(rng, 40, 200_000, 0.92)]
        assert np.mean(sig) >= 0.9 * 156.25


class TestAdjustedInitialSequence:
    def test_degenerate_hand_case(self):
        res = adjusted_initial_sequence(SampleMatrix([1.0, 2.0, 3.0, 4.0]))
        assert res.scalar() == pytest.approx(1.875)
        assert res.adjusted

    def test_never_below_unadjusted_univariate(self, rng):
        for _ in range(10):
            v = rng.standard_normal(int(rng.integers(20, 400)))
            adj = adjusted_initial_sequence(SampleMatrix(v)).scalar()
            raw = initial_sequence(SampleMatrix(v)).scalar()
            assert adj >= raw - 1e-12

    def test_difference_is_psd_multivariate(self, rng):
        for path in ar1_paths(rng, 8, 20_000, 0.92):
            v = np.column_stack([path, 0.5 * path + ar1_paths(rng, 1, 20_000, 0.5)[0]])
            s = SampleMatrix(v)
            diff = adjusted_initial_sequence(s).sigma - initial_sequence(s).sigma
            assert np.linalg.eigvalsh(diff).min() >= -1e-10 * max(np.abs(diff).max(), 1e-12)

    def test_same_truncation_as_unadjusted(self, rng):
        s = SampleMatrix(ar1_paths(rng, 1, 10_000, 0.9)[0])
        raw = initial_sequence(s)
        adj = adjusted_initial_sequence(s)
        assert (adj.s_n, adj.t_n) == (raw.s_n, raw.t_n)


@pytest.mark.parametrize("scan, family", [(initial_sequence, "initseq"),
                                          (adjusted_initial_sequence, "initseq-adj")])
def test_result_is_an_lrv_estimate(rng, scan, family):
    res = scan(SampleMatrix(ar1_paths(rng, 2, 2000, 0.7).T))
    assert isinstance(res, LrvEstimate)
    assert (res.family, res.adjusted, res.psd) == (family, family == "initseq-adj", True)
    assert res.sigma is res.matrix and not res.sigma.flags.writeable
    assert res.logdet_path.shape == (res.t_n - res.s_n + 1,)
    with pytest.raises(ValueError, match="dimension 2"):
        res.scalar()


def direct_scan(values):
    """The multivariate scan over direct lag covariances fetched one at a time.

    Returns (s_n, t_n, logdet path, sigma) for the unadjusted estimate and
    (logdet path, sigma) for the eigenvalue-adjusted one.
    """
    s = SampleMatrix(values)

    def sym(k):
        m = lag_covariance(s, k).matrix
        return 0.5 * (m + m.T)

    running = -sym(0)
    s_n, path, partials, sums = None, [], [], []
    for m in range(s.n // 2):
        sums.append(sym(2 * m) + sym(2 * m + 1))
        running = running + 2.0 * sums[-1]
        pd, logdet, _ = chol_logdet(running)
        if s_n is None:
            if pd:
                s_n, path, partials = m, [logdet], [running]
            continue
        if not pd or logdet <= path[-1]:
            break
        path.append(logdet)
        partials.append(running)
    t_n = s_n + len(path) - 1
    adjusted = partials[0]
    adjusted_path = [path[0]]
    for m in range(s_n + 1, t_n + 1):
        vals, vecs = np.linalg.eigh(sums[m])
        adjusted = adjusted + 2.0 * (vecs * np.maximum(vals, 0.0)) @ vecs.T
        adjusted_path.append(chol_logdet(adjusted)[1])
    return (s_n, t_n, np.array(path), partials[-1]), (np.array(adjusted_path), adjusted)


class TestLagBlockRegrowth:
    def test_doubling_blocks_match_direct_scan(self, rng, monkeypatch):
        # A 4-lag first block makes the scan regrow its lag block before it
        # reaches t_n, and every regrowth must transform at a longer length.
        monkeypatch.setattr(initseq_module, "_FIRST_BLOCK", 4)
        passes = []

        def counting_block(chain, kmax):
            passes.append(next_fast_len(chain.n + kmax, real=True))
            return _lag_cov_block(chain, kmax)

        monkeypatch.setattr(initseq_module, "_lag_cov_block", counting_block)
        values = ar1_paths(rng, 2, 4000, 0.95).T
        (s_n, t_n, path, sigma), (adjusted_path, adjusted_sigma) = direct_scan(values)
        for estimate, want_path, want_sigma in ((initial_sequence, path, sigma),
                                                (adjusted_initial_sequence, adjusted_path, adjusted_sigma)):
            passes.clear()
            res = estimate(SampleMatrix(values))
            assert len(passes) >= 2 and all(a < b for a, b in zip(passes, passes[1:]))
            assert (res.s_n, res.t_n) == (s_n, t_n)
            assert res.logdet_path.shape == want_path.shape
            assert np.allclose(res.logdet_path, want_path, rtol=1e-12, atol=0)
            assert np.abs(res.sigma - want_sigma).max() <= 1e-12 * np.abs(want_sigma).max()


@pytest.mark.parametrize("scan", [initial_sequence, adjusted_initial_sequence])
@pytest.mark.parametrize("case, message", [
    ("constant", r"columns \[1\] are constant, so no positive definite partial sum exists"),
    ("overflow", "the lag covariances overflow, so no partial sum is finite"),
])
def test_a_hopeless_scan_stops_after_one_lag_block(rng, monkeypatch, scan, case, message):
    # a constant column or overflowing lags leave no partial sum to find, so
    # the scan raises after its first lag block instead of walking n/2 pairs
    passes = []

    def counting_block(chain, kmax):
        passes.append(kmax)
        return _lag_cov_block(chain, kmax)

    monkeypatch.setattr(initseq_module, "_lag_cov_block", counting_block)
    values = ar1_paths(rng, 3, 5000, 0.9).T
    if case == "constant":
        values[:, 1] = 0.1
    else:
        values = np.sign(values) * 1e200
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotPositiveDefinite, match=message):
        scan(SampleMatrix(values))
    assert len(passes) == 1
