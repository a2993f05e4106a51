import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, norm

from mcvar import quantiles
from mcvar import (
    JointEstimate,
    NotPositiveDefinite,
    SampleMatrix,
    TargetSpec,
    batch_means,
    estimate_omega,
    joint_transformed_chain,
    kde_density_at,
    mvn_rect_prob,
    quantile_estimate,
    solve_z_star,
)


def column_by_column_transform(chain: SampleMatrix, targets):
    """Reference: each target on its own column view, KDE bandwidth and all."""
    nu, cols = [], []
    for t in targets:
        v = chain.column(t.component)
        if t.kind == "mean":
            nu.append(v.mean())
            cols.append(v)
        else:
            xi = quantile_estimate(v, t.q)
            dens = kde_density_at(v, xi)
            nu.append(xi)
            cols.append((t.q - (v <= xi)) / dens)
    return np.array(nu), np.column_stack(cols)


def sidak_bracket(alpha: float, p: int) -> tuple[float, float]:
    """The marginal and the Sidak quantile of a centred symmetric rectangle."""
    return norm.isf(alpha / 2), norm.isf((1 - (1 - alpha) ** (1 / p)) / 2)


class TestTargetSpec:
    def test_quantile_needs_probability(self):
        with pytest.raises(ValueError):
            TargetSpec("quantile", 0)

    def test_mean_takes_no_probability(self):
        with pytest.raises(ValueError):
            TargetSpec("mean", 0, q=0.5)

    @pytest.mark.parametrize("kind, component, message", [
        ("median", 0, "target kind must be 'mean' or 'quantile'"),
        ("mean", -1, "component index must be non-negative"),
    ])
    def test_kind_and_component_are_checked(self, kind, component, message):
        with pytest.raises(ValueError, match=message):
            TargetSpec(kind, component)

    def test_labels(self):
        assert TargetSpec("mean", 2).label() == "mean[2]"
        assert TargetSpec("quantile", 0, 0.9).label() == "q0.9[0]"


class TestQuantileEstimate:
    def test_median_of_three(self):
        assert quantile_estimate([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_first_third(self):
        assert quantile_estimate([3.0, 1.0, 2.0], 1.0 / 3.0) == 1.0

    def test_upper_tail_is_max(self):
        v = [5.0, 9.0, 1.0, 7.0]
        assert quantile_estimate(v, 0.999) == 9.0

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            quantile_estimate([], 0.5)

    @pytest.mark.parametrize("q", [0.0, 1.0, math.nan])
    def test_probability_outside_the_unit_interval(self, q):
        with pytest.raises(ValueError, match=r"quantile probability must lie in \(0, 1\)"):
            quantile_estimate([3.0, 1.0, 2.0], q)

    def test_returns_an_actual_sample_value(self, rng):
        v = rng.standard_normal(10_001)
        for q in (0.1, 0.25, 0.5, 0.9):
            assert quantile_estimate(v, q) in v

    def test_float_rank_does_not_round_up(self):
        # n*q = 5000 must pick the 5000th order statistic even though
        # 50000 * 0.1 lands a hair above 5000 in floats
        v = np.arange(50_000, dtype=float)
        assert quantile_estimate(v, 0.1) == 4999.0


class TestKdeDensity:
    def test_standard_normal_at_origin(self, rng):
        v = rng.standard_normal(200_000)
        assert kde_density_at(v, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=0.02)

    def test_mirror_symmetry(self, rng):
        v = rng.standard_normal(5000)
        sym = np.concatenate([v, -v])
        assert kde_density_at(sym, 1.3) == pytest.approx(kde_density_at(sym, -1.3), rel=1e-12)

    def test_two_point_hand_value(self):
        v = np.array([-1.0, 1.0])
        h = 0.9 * (1.0 / 1.34) * 2 ** (-0.2)  # IQR/1.34 < sd here
        want = np.mean(norm.pdf((0.0 - v) / h)) / h
        assert kde_density_at(v, 0.0) == pytest.approx(want, rel=1e-12)

    def test_zero_spread_rejected(self):
        with pytest.raises(ValueError, match="spread"):
            kde_density_at(np.full(10, 3.0), 3.0)


class TestJointTransformedChain:
    def test_mean_targets_pass_through(self, rng):
        v = rng.standard_normal((100, 3))
        out = joint_transformed_chain(SampleMatrix(v), [TargetSpec("mean", 2), TargetSpec("mean", 0)])
        assert np.array_equal(out.values, v[:, [2, 0]])

    def test_quantile_column_is_nearly_centered(self, rng):
        v = rng.standard_normal(10_000)
        out = joint_transformed_chain(SampleMatrix(v), [TargetSpec("quantile", 0, 0.25)])
        dens = kde_density_at(v, quantile_estimate(v, 0.25))
        assert abs(out.values.mean()) <= 1.0 / (10_000 * dens) + 1e-12

    def test_iid_uniform_quantile_variance(self, rng):
        # asymptotic variance q(1-q)/f(xi)^2 = 0.25 for the median of U(0,1)
        v = rng.random(100_000)
        out = joint_transformed_chain(SampleMatrix(v), [TargetSpec("quantile", 0, 0.5)])
        omega = batch_means(out, 316).scalar()
        assert omega == pytest.approx(0.25, rel=0.15)

    def test_component_out_of_range(self, rng):
        with pytest.raises(ValueError, match="component"):
            joint_transformed_chain(SampleMatrix(rng.standard_normal(50)), [TargetSpec("mean", 1)])

    def test_needs_targets(self, rng):
        with pytest.raises(ValueError, match="target"):
            joint_transformed_chain(SampleMatrix(rng.standard_normal(50)), [])

    def test_shared_components_match_column_by_column_code(self, rng):
        values = np.cumsum(rng.standard_normal((4000, 3)), axis=0) * 0.05 + rng.standard_normal((4000, 3))
        chain = SampleMatrix(values)
        targets = [TargetSpec("quantile", 1, 0.1), TargetSpec("mean", 0), TargetSpec("quantile", 1, 0.9),
                   TargetSpec("mean", 1), TargetSpec("quantile", 0, 0.5), TargetSpec("quantile", 1, 0.5),
                   TargetSpec("mean", 1)]
        nu_want, cols_want = column_by_column_transform(chain, targets)
        nu_got, transformed = quantiles._estimates_and_transform(chain, targets)
        assert np.array_equal(nu_got, nu_want)
        assert np.array_equal(transformed.values, cols_want)

    def test_every_component_checked_before_any_work(self, rng, monkeypatch):
        def no_work(*args):
            raise AssertionError("quantile work ran before the component check")

        monkeypatch.setattr(quantiles, "quantile_estimate", no_work)
        monkeypatch.setattr(quantiles, "_silverman_bandwidth", no_work)
        targets = [TargetSpec("mean", 0), TargetSpec("quantile", 0, 0.5), TargetSpec("mean", 5)]
        with pytest.raises(ValueError, match="component 5 out of range for dimension 3"):
            joint_transformed_chain(SampleMatrix(rng.standard_normal((50, 3))), targets)


class TestEstimateOmega:
    def test_single_mean_equals_univariate_lrv(self, rng):
        v = rng.standard_normal((2000, 2))
        chain = SampleMatrix(v)
        got = estimate_omega(chain, [TargetSpec("mean", 1)], estimator=lambda s: batch_means(s, 40))
        want = batch_means(SampleMatrix(v[:, 1]), 40).scalar()
        assert got.omega[0, 0] == pytest.approx(want, rel=1e-12)
        assert got.nu_hat[0] == pytest.approx(v[:, 1].mean())

    def test_duplicated_targets_are_rank_deficient(self, rng):
        chain = SampleMatrix(rng.standard_normal(3000))
        got = estimate_omega(chain, [TargetSpec("mean", 0), TargetSpec("mean", 0)])
        assert np.linalg.det(got.omega) == pytest.approx(0.0, abs=1e-9)

    def test_mixture_targets_shape_and_health(self):
        from mcvar.experiments import MixtureConfig, mixture_mh_generate

        targets = [TargetSpec("mean", 0), TargetSpec("quantile", 0, 0.1), TargetSpec("quantile", 0, 0.9)]
        pd_count = 0
        for seed in range(10):
            chain = mixture_mh_generate(MixtureConfig(n=50_000, seed=seed))
            joint = estimate_omega(chain, targets)
            assert joint.omega.shape == (3, 3)
            assert joint.nu_hat.shape == (3,)
            if np.linalg.eigvalsh(joint.omega).min() > 0:
                pd_count += 1
        assert pd_count >= 9

    def test_quantile_point_estimates_are_order_statistics(self, rng):
        v = rng.standard_normal(5000)
        joint = estimate_omega(SampleMatrix(v), [TargetSpec("quantile", 0, 0.9)])
        assert joint.nu_hat[0] == quantile_estimate(v, 0.9)


class TestMvnRectProb:
    def test_univariate_is_exact(self):
        z = 1.9599639845400545
        got = mvn_rect_prob([0.0], np.array([[4.0]]), [[-2 * z, 2 * z]])
        assert got == pytest.approx(0.95, abs=1e-12)

    def test_independent_product_rule(self):
        z = 1.959964
        got = mvn_rect_prob([0.0, 0.0], np.eye(2), [[-z, z], [-z, z]], tol=1e-3, seed=1)
        assert got == pytest.approx(0.9025, abs=1e-3)

    def test_correlated_case_against_inclusion_exclusion(self):
        cov = np.array([[2.0, 0.8, -0.3], [0.8, 1.5, 0.4], [-0.3, 0.4, 1.0]])
        rect = np.array([[-1.5, 2.0], [-1.0, 1.2], [-0.8, 2.5]])
        mine = mvn_rect_prob([0.1, -0.2, 0.0], cov, rect, tol=5e-4, seed=3)
        oracle = multivariate_normal(mean=[0.1, -0.2, 0.0], cov=cov).cdf(rect[:, 1], lower_limit=rect[:, 0])
        assert mine == pytest.approx(float(oracle), abs=2e-3)

    def test_near_degenerate_correlation_approaches_univariate(self):
        cov = np.array([[1.0, 0.9999], [0.9999, 1.0]])
        z = 1.959964
        got = mvn_rect_prob([0.0, 0.0], cov, [[-z, z], [-z, z]], tol=1e-3, seed=5)
        assert got == pytest.approx(0.95, abs=0.003)

    def test_seed_reproducibility_within_tolerance(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        rect = [[-1.0, 2.0], [-1.5, 0.5]]
        tol = 1e-3
        a = mvn_rect_prob([0.0, 0.0], cov, rect, tol=tol, seed=11)
        b = mvn_rect_prob([0.0, 0.0], cov, rect, tol=tol, seed=99)
        assert a == mvn_rect_prob([0.0, 0.0], cov, rect, tol=tol, seed=11)
        assert abs(a - b) <= 3 * tol

    def test_rejects_non_pd_covariance(self):
        with pytest.raises(NotPositiveDefinite, match="covariance is not positive definite"):
            mvn_rect_prob([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]), [[-1, 1], [-1, 1]])

    def test_rejects_bad_tolerance_and_inverted_bounds(self):
        for tol in (0.0, -1e-3):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                mvn_rect_prob([0.0], np.eye(1), [[-1.0, 1.0]], tol=tol)
        with pytest.raises(ValueError, match="rectangle has inverted bounds"):
            mvn_rect_prob([0.0, 0.0], np.eye(2), [[-1.0, 1.0], [1.0, -1.0]])

    def test_integrates_a_component_of_tiny_variance(self):
        # positive definiteness is judged per component, not against the
        # largest variance
        z = 1.959964
        got = mvn_rect_prob([0.0, 0.0], np.diag([1.0, 1e-12]), [[-z, z], [-z * 1e-6, z * 1e-6]], seed=5)
        assert got == pytest.approx(0.95**2, abs=3e-3)

    def test_unreachable_tolerance_warns_instead_of_spinning(self):
        cov = 0.5 * np.eye(4) + 0.5
        rect = [[-1.0, 1.0]] * 4
        with pytest.warns(UserWarning, match="point budget"):
            got = mvn_rect_prob(np.zeros(4), cov, rect, tol=1e-16, seed=1)
        assert 0.0 < got < 1.0

    def test_random_covariances_match_scipy(self, rng):
        for trial in range(8):
            p = 2 + trial % 3
            a = rng.standard_normal((p, p))
            cov = a @ a.T + 0.5 * np.eye(p)
            center = rng.standard_normal(p)
            half = rng.uniform(0.5, 2.5, size=p) * np.sqrt(np.diag(cov))
            rect = np.column_stack([center - half, center + half])
            mine = mvn_rect_prob(center, cov, rect, tol=5e-4, seed=trial)
            oracle = multivariate_normal(mean=center, cov=cov).cdf(rect[:, 1], lower_limit=rect[:, 0])
            assert mine == pytest.approx(float(oracle), abs=3e-3)

    def test_thirty_dimensions_match_scipy(self, rng):
        # one generator per conditioned variable: 29 primes for the lattice
        p = 30
        a = rng.standard_normal((p, p)) / math.sqrt(p)
        cov = a @ a.T + 0.5 * np.eye(p)
        center = rng.standard_normal(p)
        half = rng.uniform(2.5, 3.5, size=p) * np.sqrt(np.diag(cov))
        rect = np.column_stack([center - half, center + half])
        mine = mvn_rect_prob(center, cov, rect, seed=30)
        oracle = float(multivariate_normal(mean=center, cov=cov).cdf(rect[:, 1], lower_limit=rect[:, 0]))
        assert 0.5 < oracle < 0.99
        assert mine == pytest.approx(oracle, abs=3e-3)


@pytest.mark.parametrize("nu_hat, omega, n, message", [
    (np.zeros((2, 1)), np.eye(2), 10, r"nu_hat must be 1-D, got shape \(2, 1\)"),
    (np.float64(0.0), np.eye(1), 10, r"nu_hat must be 1-D, got shape \(\)"),
    (np.zeros(3), np.eye(2), 10, r"omega must be 3 x 3, one row per target, got shape \(2, 2\)"),
    (np.zeros(2), np.ones(2), 10, r"omega must be 2 x 2"),
    (np.zeros(2), np.eye(2), 0, "need n >= 1, got 0"),
])
def test_joint_estimate_is_checked_when_built(nu_hat, omega, n, message):
    with pytest.raises(ValueError, match=message):
        JointEstimate(nu_hat=nu_hat, omega=omega, n=n)


class TestSolveZStar:
    def test_univariate_normal_quantile(self):
        joint = JointEstimate(nu_hat=np.array([0.0]), omega=np.array([[2.0]]), n=400)
        assert solve_z_star(joint, 0.05).z_star == pytest.approx(1.95996, abs=0.01)

    @pytest.mark.parametrize("alpha", [1e-12, 1e-3, 0.05, 0.5, 0.999])
    def test_univariate_is_the_exact_quantile_without_integration(self, alpha, monkeypatch):
        def no_integral(*args, **kwargs):
            raise AssertionError("a rectangle probability was computed at p = 1")

        monkeypatch.setattr(quantiles, "mvn_rect_prob", no_integral)
        joint = JointEstimate(nu_hat=np.array([1.5]), omega=np.array([[3.0]]), n=50)
        assert solve_z_star(joint, alpha).z_star == pytest.approx(norm.isf(alpha / 2), rel=1e-12, abs=1e-12)

    @given(st.integers(2, 8), st.floats(0.001, 0.5), st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_z_star_lies_in_the_sidak_bracket(self, p, alpha, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p, p))
        omega = a @ a.T + 0.1 * np.eye(p)
        joint = JointEstimate(nu_hat=rng.standard_normal(p), omega=omega, n=int(rng.integers(10, 10_000)))
        z_lo, z_hi = sidak_bracket(alpha, p)
        assert z_lo - 1e-3 <= solve_z_star(joint, alpha, seed=seed).z_star <= z_hi + 1e-3

    def test_bracket_bounds_the_rectangle_probability_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return mvn_rect_prob(*args, **kwargs)

        monkeypatch.setattr(quantiles, "mvn_rect_prob", counted)
        omega = 0.3 * np.eye(6) + 0.7
        region = solve_z_star(JointEstimate(nu_hat=np.zeros(6), omega=omega, n=1000), 0.05)
        z_lo, z_hi = sidak_bracket(0.05, 6)
        assert len(calls) == math.ceil(math.log2((z_hi - z_lo) / 1e-3)) == 10
        cover = multivariate_normal(cov=omega).cdf(region.z_star * np.ones(6), lower_limit=-region.z_star * np.ones(6))
        assert float(cover) == pytest.approx(0.95, abs=3e-3)

    def test_bivariate_diagonal(self):
        joint = JointEstimate(nu_hat=np.array([1.0, -2.0]), omega=np.diag([2.0, 5.0]), n=900)
        assert solve_z_star(joint, 0.05).z_star == pytest.approx(2.2365, abs=0.01)

    def test_simultaneous_wider_than_marginal(self):
        joint = JointEstimate(nu_hat=np.zeros(2), omega=np.eye(2), n=100)
        assert solve_z_star(joint, 0.05).z_star > 1.96

    def test_extreme_alpha_shrinks_z(self):
        joint = JointEstimate(nu_hat=np.zeros(2), omega=np.eye(2), n=100)
        assert solve_z_star(joint, 0.999).z_star < 0.1

    def test_monotone_in_alpha(self):
        joint = JointEstimate(nu_hat=np.zeros(2), omega=np.array([[1.0, 0.4], [0.4, 1.0]]), n=250)
        zs = [solve_z_star(joint, a).z_star for a in (0.2, 0.1, 0.05, 0.01)]
        assert zs == sorted(zs)

    def test_interval_width_scales_as_root_n(self):
        omega = np.array([[1.0, 0.3], [0.3, 2.0]])
        r1 = solve_z_star(JointEstimate(nu_hat=np.zeros(2), omega=omega, n=500), 0.05)
        r2 = solve_z_star(JointEstimate(nu_hat=np.zeros(2), omega=omega, n=2000), 0.05)
        w1 = r1.intervals[:, 1] - r1.intervals[:, 0]
        w2 = r2.intervals[:, 1] - r2.intervals[:, 0]
        assert np.allclose(w1, 2.0 * w2, rtol=1e-12)

    def test_intervals_centered_on_estimates(self):
        joint = JointEstimate(nu_hat=np.array([3.0, -1.0]), omega=np.diag([1.0, 4.0]), n=100)
        region = solve_z_star(joint, 0.05)
        mid = region.intervals.mean(axis=1)
        assert np.allclose(mid, joint.nu_hat)

    def test_rejects_non_pd_omega(self):
        joint = JointEstimate(nu_hat=np.zeros(2), omega=np.array([[1.0, 0.0], [0.0, -1.0]]), n=100)
        with pytest.raises(NotPositiveDefinite):
            solve_z_star(joint, 0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, math.nan])
    def test_rejects_alpha_outside_the_unit_interval(self, alpha):
        joint = JointEstimate(nu_hat=np.zeros(2), omega=np.eye(2), n=100)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            solve_z_star(joint, alpha)

    @pytest.mark.parametrize("p", [1, 2])
    def test_rejects_a_negative_seed_at_every_dimension(self, p):
        # p = 1 draws no QMC point, so numpy would never see the seed
        joint = JointEstimate(nu_hat=np.zeros(p), omega=np.eye(p), n=100)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            solve_z_star(joint, 0.05, seed=-1)
