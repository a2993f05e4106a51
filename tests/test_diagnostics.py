import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaln

from mcvar import (
    LrvEstimate,
    NotPositiveDefinite,
    SampleMatrix,
    StoppingConfig,
    chi2_quantile,
    ess,
    fixed_volume_check,
    mcse,
    min_ess,
    region_contains,
    region_volume,
    sample_covariance,
)
from mcvar.experiments import make_estimator
from mcvar.lrv import chol_logdet, matrix_of, pd_logdet

from conftest import ar1_chains

CHI2_95_1 = 3.8414588206941236


def chi2_cdf_by_quadrature(x: float, df: int) -> float:
    def pdf(t):
        return math.exp((df / 2 - 1) * math.log(t) - t / 2 - gammaln(df / 2) - (df / 2) * math.log(2))

    val, _ = integrate.quad(pdf, 0, x, limit=200)
    return val


def unit_variance_chain(n: int) -> SampleMatrix:
    """Zero-mean chain whose sample covariance is exactly 1."""
    v = np.tile([1.0, -1.0], n // 2) * math.sqrt((n - 1) / n)
    return SampleMatrix(v)


class TestMcse:
    def test_univariate_value(self):
        got = mcse(np.array([[156.25]]), 200_000)
        assert got[0] == pytest.approx(0.027951, abs=1e-6)

    def test_zero_matrix_gives_zero(self):
        assert np.array_equal(mcse(np.zeros((3, 3)), 100), np.zeros(3))

    def test_diagonal_case(self):
        assert np.allclose(mcse(np.diag([4.0, 9.0]), 100), [0.2, 0.3])

    def test_negative_diagonal_names_component(self):
        with pytest.raises(NotPositiveDefinite, match="component 1"):
            mcse(np.diag([1.0, -0.5]), 100)


class TestChi2Quantile:
    @pytest.mark.parametrize(
        "prob, df, want",
        [(0.95, 1, 3.8414588), (0.5, 2, 1.3862944), (0.95, 3, 7.8147279)],
    )
    def test_reference_values(self, prob, df, want):
        assert chi2_quantile(prob, df) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("prob, df", [(0.95, 1), (0.5, 2), (0.99, 7), (0.1, 4)])
    def test_quadrature_oracle_roundtrip(self, prob, df):
        q = chi2_quantile(prob, df)
        assert chi2_cdf_by_quadrature(q, df) == pytest.approx(prob, abs=1e-8)

    def test_exponential_special_case(self):
        assert chi2_quantile(0.5, 2) == pytest.approx(2 * math.log(2), rel=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            chi2_quantile(1.0, 2)
        with pytest.raises(ValueError):
            chi2_quantile(0.5, 0)


class TestRegionVolume:
    def test_univariate_interval_width(self):
        got = region_volume(np.array([[1.0]]), 10_000, 0.05)
        assert got == pytest.approx(2 * 1.95996 / 100, abs=1e-5)

    def test_bivariate_identity(self):
        got = region_volume(np.eye(2), 100, 0.05)
        assert got == pytest.approx(math.pi * 5.99146 / 100, abs=1e-4)

    def test_determinant_homogeneity(self, rng):
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 3 * np.eye(3)
        base = region_volume(sigma, 500, 0.05)
        scaled = region_volume(4.0 * sigma, 500, 0.05)
        assert scaled == pytest.approx(2.0**3 * base, rel=1e-10)

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefinite):
            region_volume(np.array([[1.0, 2.0], [2.0, 1.0]]), 100, 0.05)


class TestRegionContains:
    def test_center_always_inside(self):
        assert region_contains([0.3, -0.1], [0.3, -0.1], np.eye(2), 50, 0.05)

    def test_univariate_reduces_to_z_interval(self, rng):
        for _ in range(25):
            sigma, n = rng.uniform(0.5, 4.0), int(rng.integers(10, 1000))
            theta0 = rng.normal(0, 0.2)
            inside = region_contains([theta0], [0.0], np.array([[sigma]]), n, 0.05)
            z = abs(theta0) / math.sqrt(sigma / n)
            assert inside == (z < math.sqrt(CHI2_95_1))

    def test_bivariate_hand_case(self):
        assert not region_contains([0.0, 0.0], [0.2, 0.2], np.eye(2), 100, 0.05)

    def test_iid_coverage_with_known_truth(self, rng):
        hits = 0
        reps, n = 2000, 10_000
        for _ in range(reps):
            chain = SampleMatrix(rng.standard_normal((n, 2)))
            if region_contains([0.0, 0.0], chain.values.mean(axis=0), np.eye(2), n, 0.05):
                hits += 1
        assert hits / reps == pytest.approx(0.95, abs=0.015)


class TestEss:
    def test_equal_matrices_give_n(self, rng):
        chain = SampleMatrix(rng.standard_normal((500, 2)))
        lam = sample_covariance(chain)
        assert ess(chain, lam) == pytest.approx(500.0, rel=1e-12)

    def test_univariate_ratio(self):
        chain = unit_variance_chain(1000)
        assert ess(chain, np.array([[4.0]])) == pytest.approx(250.0, rel=1e-12)

    def test_non_pd_estimate_rejected(self, rng):
        chain = SampleMatrix(rng.standard_normal((100, 2)))
        with pytest.raises(NotPositiveDefinite):
            ess(chain, np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_estimate_of_another_dimension_rejected(self, rng):
        chain = SampleMatrix(rng.standard_normal((500, 3)))
        for p, sigma in ((2, np.eye(2)), (4, LrvEstimate(np.eye(4), family="bm"))):
            with pytest.raises(ValueError, match=f"dimension {p}, chain has 3"):
                ess(chain, sigma)
            with pytest.raises(ValueError, match=f"dimension {p}, chain has 3"):
                fixed_volume_check(chain, sigma, StoppingConfig())

    def test_invariant_under_linear_maps(self, rng):
        chain = SampleMatrix(rng.standard_normal((400, 3)))
        sigma = sample_covariance(chain) * 2.5
        a = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        mapped = SampleMatrix(chain.values @ a.T)
        assert ess(mapped, a @ sigma @ a.T) == pytest.approx(ess(chain, sigma), rel=1e-8)


class TestMinEss:
    @pytest.mark.parametrize(
        "alpha, eps, p, want",
        [(0.05, 0.05, 1, 6146), (0.05, 0.05, 3, 8123), (0.05, 0.05, 10, 8831), (0.05, 0.10, 1, 1536)],
    )
    def test_published_thresholds(self, alpha, eps, p, want):
        assert abs(min_ess(alpha, eps, p) - want) <= 1

    def test_decreasing_in_epsilon(self):
        values = [min_ess(0.05, eps, 2) for eps in (1e-150, 0.02, 0.05, 0.1, 0.2)]
        assert values == sorted(values, reverse=True)

    def test_increasing_in_dimension_on_low_grid(self):
        values = [min_ess(0.05, 0.05, p) for p in (1, 2, 3, 5, 10)]
        assert values == sorted(values)


class TestFixedVolumeCheck:
    def test_continue_until_minimum_size(self):
        chain = unit_variance_chain(100)
        decision = fixed_volume_check(chain, np.array([[1.0]]), StoppingConfig(n_star=1000))
        assert not decision.terminate
        assert decision.n_star == 1000

    def test_terminates_on_long_precise_chain(self):
        chain = unit_variance_chain(10_000)
        decision = fixed_volume_check(chain, np.array([[1.0]]), StoppingConfig(n_star=100))
        assert decision.lhs == pytest.approx(0.0392 + 1e-4, abs=2e-4)
        assert decision.rhs == pytest.approx(0.05, rel=1e-12)
        assert decision.terminate

    def test_continues_on_short_chain(self):
        chain = unit_variance_chain(4900)
        decision = fixed_volume_check(chain, np.array([[1.0]]), StoppingConfig(n_star=100))
        assert decision.lhs == pytest.approx(0.0560 + 1 / 4900, abs=2e-4)
        assert not decision.terminate

    def test_default_n_star_is_the_ess_threshold(self):
        chain = unit_variance_chain(100)
        decision = fixed_volume_check(chain, np.array([[1.0]]), StoppingConfig())
        assert decision.n_star == 6146

    def test_crossing_matches_ess_threshold(self):
        # Without the 1/n padding the first terminating n matches the ESS
        # threshold to within 2; the padding defers the literal rule by ~40
        # at this tolerance, so it only agrees to about 1%.
        threshold = min_ess(0.05, 0.05, 1)

        def lhs(n, padded):
            return 2 * math.sqrt(CHI2_95_1 / n) + (1.0 / n if padded else 0.0)

        first_unpadded = next(n for n in range(5000, 9000) if lhs(n, False) < 0.05)
        first_padded = next(n for n in range(5000, 9000) if lhs(n, True) < 0.05)
        assert abs(first_unpadded - threshold) <= 2
        assert abs(first_padded - threshold) / threshold < 0.01

        chain = unit_variance_chain(first_padded + 2)
        assert fixed_volume_check(chain, np.array([[1.0]]), StoppingConfig(n_star=10)).terminate
        chain = unit_variance_chain(first_padded - 2)
        assert not fixed_volume_check(chain, np.array([[1.0]]), StoppingConfig(n_star=10)).terminate

    def test_decision_reports_ess_view(self):
        chain = unit_variance_chain(10_000)
        decision = fixed_volume_check(chain, np.array([[1.0]]), StoppingConfig(n_star=100))
        assert decision.ess == pytest.approx(10_000.0, rel=1e-9)
        assert decision.min_ess == 6146
        # the decision's ESS is exactly, and its volume to rounding, what the public functions give
        rng = np.random.default_rng(4)
        for chain, sigma in ((chain, np.array([[1.0]])),
                             (SampleMatrix(rng.standard_normal((500, 3))), np.diag([2.0, 1.0, 0.5]) + 0.1)):
            n, p = chain.n, chain.p
            decision = fixed_volume_check(chain, sigma, StoppingConfig(alpha=0.1, n_star=100))
            assert decision.ess == ess(chain, sigma)
            assert decision.lhs == pytest.approx(region_volume(sigma, n, 0.1) ** (1 / p) + 1 / n, rel=1e-14)

    def test_non_pd_sigma_is_a_numerical_error(self):
        chain = SampleMatrix(np.random.default_rng(0).standard_normal((50, 2)))
        with pytest.raises(NotPositiveDefinite):
            fixed_volume_check(chain, np.array([[1.0, 0.0], [0.0, -2.0]]), StoppingConfig())


@pytest.mark.parametrize("method", ["bm", "obm", "sv", "initseq"])
class TestColumnScales:
    """ESS and the stopping decision do not depend on the components' units."""

    @given(ar1_chains(), st.lists(st.floats(-8.0, 8.0), min_size=3, max_size=3))
    def test_ess_is_scale_free(self, method, x, log_scales):
        d = 10.0 ** np.array(log_scales[: x.shape[1]])
        estimate = make_estimator(method)
        base, scaled = SampleMatrix(x), SampleMatrix(x * d)
        assert ess(scaled, estimate(scaled)) == pytest.approx(ess(base, estimate(base)), rel=1e-9)

    @given(ar1_chains(), st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3), st.floats(0.01, 1.0))
    def test_stopping_decision_is_scale_free(self, method, x, log_scales, epsilon):
        # Vol^(1/p) and epsilon |Lambda|^(1/2p) both scale by det(D)^(1/p),
        # but the rule pads the volume by 1/n, which does not scale; so these
        # scales, each in [1e-8, 1e8], keep det(D) = 1.
        e = np.array(log_scales[: x.shape[1]])
        d = 10.0 ** (e - e.mean())
        estimate, config = make_estimator(method), StoppingConfig(epsilon=epsilon, n_star=1)
        base, scaled = SampleMatrix(x), SampleMatrix(x * d)
        want = fixed_volume_check(base, estimate(base), config)
        got = fixed_volume_check(scaled, estimate(scaled), config)
        assert got.terminate == want.terminate
        assert (got.lhs, got.rhs, got.ess) == pytest.approx((want.lhs, want.rhs, want.ess), rel=1e-9)


class TestLrvEstimateFlag:
    def test_lugsail_output_can_be_non_psd(self):
        est = LrvEstimate(np.array([[-0.5]]), family="bm", b=4)
        assert not est.psd
        with pytest.raises(NotPositiveDefinite):
            mcse(est, 100)

    def test_finite_estimate_stays_finite_when_symmetrized(self):
        # sv's estimate of the golden chain times 1e153 has a diagonal entry
        # above half the float range; it used to be stored as inf
        m = np.array([[7.3e307, -4.9e306], [-4.9e306, 1.1e308]])
        assert np.array_equal(LrvEstimate(m, family="sv", b=44).matrix, m)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_estimate_is_refused(self, bad):
        with pytest.raises(NotPositiveDefinite, match="the sv estimate is not finite"):
            LrvEstimate(np.array([[1.0, 0.0], [0.0, bad]]), family="sv", b=4)


@pytest.mark.parametrize("call, message", [
    (lambda: StoppingConfig(alpha=1.0), "alpha must lie in"),
    (lambda: StoppingConfig(epsilon=0.0), "epsilon must be positive"),
    (lambda: StoppingConfig(epsilon=math.nan), "epsilon must be positive"),
    (lambda: StoppingConfig(epsilon=math.inf), "epsilon must be positive"),
    (lambda: StoppingConfig(n_star=0), "n_star must be >= 1"),
    (lambda: min_ess(0.0, 0.05, 1), "alpha must lie in"),
    (lambda: min_ess(0.05, -1.0, 1), "epsilon must be positive"),
    (lambda: min_ess(0.05, math.nan, 1), "epsilon must be positive"),
    (lambda: min_ess(0.05, math.inf, 1), "epsilon must be positive"),
    (lambda: min_ess(0.05, 0.05, 0), "dimension must be >= 1"),
    (lambda: min_ess(0.05, 1e-300, 1), "epsilon 1e-300 needs a minimum ESS beyond the float range"),
    (lambda: mcse(np.eye(2), 0), "n must be >= 1"),
    (lambda: LrvEstimate(np.ones((2, 3)), family="bm"), "estimate must be square"),
    (lambda: matrix_of(np.ones((2, 3))), "expected a square matrix"),
])
def test_out_of_range_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_pivot_small_against_its_own_variance_is_not_positive_definite():
    # both factorizations succeed; the second squared pivot is 2e-12 of its
    # variance in the first, below REL_TOL, and 2e-9 in the second
    for rho, pd in ((1 - 1e-12, False), (1 - 1e-9, True)):
        for scale in (1.0, 1e-6, 1e6):
            d = np.array([1.0, scale])
            m = np.array([[1.0, rho], [rho, 1.0]]) * np.outer(d, d)
            np.linalg.cholesky(m)  # succeeds
            assert chol_logdet(m)[0] is pd
    assert chol_logdet(np.array([[1.0, 1 - 1e-12], [1 - 1e-12, 1.0]])) == (False, -np.inf, None)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_matrix_is_not_positive_definite(bad):
    for m in (np.array([[bad]]), np.array([[1.0, bad], [bad, 4.0]])):
        assert chol_logdet(m) == (False, -np.inf, None)
    assert chol_logdet(np.array([[4.0]]))[:2] == (True, pytest.approx(np.log(4.0)))


def test_pd_logdet_names_an_overflow_as_not_finite():
    with pytest.raises(NotPositiveDefinite, match="^the matrix is not finite$"):
        pd_logdet(np.array([[1.0, np.inf], [np.inf, 4.0]]), "the matrix")
    with pytest.raises(NotPositiveDefinite, match="^the matrix is not positive definite$"):
        pd_logdet(np.array([[1.0, 2.0], [2.0, 1.0]]), "the matrix")
