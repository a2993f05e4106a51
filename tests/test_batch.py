import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcvar import (
    BARTLETT,
    LrvEstimate,
    LugsailConfig,
    SampleMatrix,
    adaptive_c,
    batch_means,
    bm_exact_bias_ar1,
    default_batch_size,
    initial_sequence,
    lag1_autocorrelation,
    lugsail_batch_means,
    lugsail_combine,
    lugsail_exact_bias_ar1,
    lugsail_overlapping_batch_means,
    lugsail_policy,
    lugsail_spectral_variance,
    overlapping_batch_means,
    sample_covariance,
)

from conftest import ar1_paths, assert_lugsail_mix, lugsail_cases

chains = arrays(
    np.float64,
    st.tuples(st.integers(4, 64), st.integers(1, 3)),
    elements=st.floats(-10, 10, allow_nan=False, width=64),
)


class TestBatchMeans:
    def test_hand_case(self):
        assert batch_means(SampleMatrix([1.0, 2.0, 3.0, 4.0]), 2).scalar() == pytest.approx(4.0)

    def test_constant_chain_is_zero(self):
        est = batch_means(SampleMatrix(np.full((12, 2), 5.0)), 3)
        assert np.array_equal(est.matrix, np.zeros((2, 2)))

    def test_b_one_is_exactly_the_sample_covariance(self, rng):
        s = SampleMatrix(rng.standard_normal((57, 3)))
        assert np.array_equal(batch_means(s, 1).matrix, sample_covariance(s))

    def test_too_few_batches(self):
        with pytest.raises(ValueError, match="at least 2 batches"):
            batch_means(SampleMatrix([1.0, 2.0, 3.0, 4.0]), 3)

    @given(chains, st.integers(1, 8))
    def test_always_symmetric_psd(self, values, b):
        s = SampleMatrix(values)
        b = min(b, s.n // 2)
        est = batch_means(s, b)
        assert np.array_equal(est.matrix, est.matrix.T)
        eig = np.linalg.eigvalsh(est.matrix)
        assert eig.min() >= -1e-10 * max(eig.max(), 1e-300)
        assert est.psd


class TestOverlappingBatchMeans:
    def test_hand_case(self):
        assert overlapping_batch_means(SampleMatrix([1.0, 2.0, 3.0]), 2).scalar() == pytest.approx(1.5)

    def test_constant_chain_is_zero(self):
        est = overlapping_batch_means(SampleMatrix(np.full((9, 1), 2.0)), 4)
        assert est.scalar() == 0.0

    def test_batch_size_must_leave_room(self):
        with pytest.raises(ValueError, match="1 <= b <= n-1"):
            overlapping_batch_means(SampleMatrix([1.0, 2.0, 3.0]), 3)

    def test_agrees_with_batch_means_on_average(self, rng):
        # same first-order bias: replication means should land within 5%
        paths = ar1_paths(rng, 100, 10_000, 0.5)
        bm_mean = np.mean([batch_means(SampleMatrix(p), 100).scalar() for p in paths])
        obm_mean = np.mean([overlapping_batch_means(SampleMatrix(p), 100).scalar() for p in paths])
        assert abs(obm_mean - bm_mean) / bm_mean < 0.05


class TestLugsailCombine:
    def test_c_zero_returns_base_entrywise(self, rng):
        s = SampleMatrix(rng.standard_normal((40, 2)))
        big = batch_means(s, 8)
        assert lugsail_combine(big, batch_means(s, 4), 0.0) is big

    def test_r_one_returns_base_entrywise(self, rng):
        s = SampleMatrix(rng.standard_normal((40, 2)))
        big = batch_means(s, 8)
        combined = lugsail_combine(big, batch_means(s, 8), 0.5)
        assert np.array_equal(combined.matrix, big.matrix)

    def test_univariate_hand_case(self):
        big = LrvEstimate(np.array([[4.0]]), family="bm", b=4)
        small = LrvEstimate(np.array([[2.0]]), family="bm", b=2)
        assert lugsail_combine(big, small, 0.5).scalar() == pytest.approx(6.0)

    def test_weight_must_be_below_one(self, rng):
        s = SampleMatrix(rng.standard_normal((20, 1)))
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            lugsail_combine(batch_means(s, 4), batch_means(s, 2), 1.0)

    def test_mixed_families_rejected(self, rng):
        s = SampleMatrix(rng.standard_normal((20, 1)))
        with pytest.raises(ValueError, match="families"):
            lugsail_combine(batch_means(s, 4), overlapping_batch_means(s, 2), 0.5)

    def test_estimates_without_batch_sizes_rejected(self, rng):
        s = SampleMatrix(rng.standard_normal((20, 1)))
        with pytest.raises(ValueError, match="needs the batch sizes of both estimates"):
            lugsail_combine(initial_sequence(s), initial_sequence(s), 0.5)

    def test_zero_lugsail_arithmetic_identity(self, rng):
        for _ in range(5):
            s = SampleMatrix(rng.standard_normal((64, 2)))
            est = lugsail_batch_means(s, 8, LugsailConfig(r=2.0, c=0.5, regime="zero"))
            manual = 2.0 * batch_means(s, 8).matrix - batch_means(s, 4).matrix
            assert np.allclose(est.matrix, manual, atol=1e-14)


class TestAdaptiveC:
    def test_ratio_e_gives_two_thirds(self):
        assert adaptive_c(2_718_282, 1_000_000) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_ratio_e_squared_gives_three_fifths(self):
        assert adaptive_c(738_906, 100_000) == pytest.approx(0.6, abs=1e-6)

    def test_limit_is_one_half(self):
        assert adaptive_c(10**12, 1) == pytest.approx(0.5, abs=0.02)

    def test_b_must_be_smaller_than_n(self):
        with pytest.raises(ValueError):
            adaptive_c(10, 10)

    @given(st.integers(2, 10**6), st.integers(1, 10**6))
    def test_range_and_monotonicity(self, n, b):
        if b >= n:
            b = n - 1
        c = adaptive_c(n, b)
        assert 0.5 < c < 1.0
        assert adaptive_c(2 * n, b) < c


class TestLugsailPolicy:
    @pytest.mark.parametrize(
        "rho, r, c, regime",
        [
            (0.5, 2.0, 0.5, "zero"),
            (0.0, 2.0, 0.5, "zero"),
            (-0.4, 2.0, 0.5, "zero"),
            (0.8, 2.0, None, "adaptive"),
            (0.97, 3.0, 0.5, "over"),
            (1.0, 3.0, 0.5, "over"),
        ],
    )
    def test_regimes(self, rho, r, c, regime):
        cfg = lugsail_policy(rho)
        assert (cfg.r, cfg.c, cfg.regime) == (r, c, regime)

    def test_adaptive_resolves_per_chain(self):
        cfg = lugsail_policy(0.8)
        assert cfg.resolve(2_718_282, 1_000_000).c == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lugsail_policy(1.5)


class TestLag1Autocorrelation:
    def test_iid_is_near_zero(self, rng):
        s = SampleMatrix(rng.standard_normal(100_000))
        assert abs(lag1_autocorrelation(s)) < 0.02

    def test_ar1_recovers_phi(self, rng):
        s = SampleMatrix(ar1_paths(rng, 1, 100_000, 0.9)[0])
        assert lag1_autocorrelation(s) == pytest.approx(0.9, abs=0.02)

    def test_constant_chain_returns_zero(self):
        assert lag1_autocorrelation(SampleMatrix(np.full((10, 2), 1.0))) == 0.0

    def test_constant_column_skipped(self, rng):
        v = np.column_stack([np.full(5000, 2.0), ar1_paths(rng, 1, 5000, 0.8)[0]])
        assert lag1_autocorrelation(SampleMatrix(v)) == pytest.approx(0.8, abs=0.05)

    def test_takes_the_largest_component(self, rng):
        v = np.column_stack([rng.standard_normal(50_000), ar1_paths(rng, 1, 50_000, 0.7)[0]])
        assert lag1_autocorrelation(SampleMatrix(v)) == pytest.approx(0.7, abs=0.03)


class TestDefaultBatchSize:
    def test_cuberoot_examples(self):
        assert default_batch_size(1000, "cuberoot") == 10
        assert default_batch_size(200_000, "cuberoot") == 58

    def test_sqrt_example(self):
        assert default_batch_size(50_000, "sqrt") == 223

    def test_keeps_two_batches(self):
        b = default_batch_size(5, "sqrt")
        assert 5 // b >= 2

    def test_small_batch_floor_for_lugsail(self):
        assert default_batch_size(16, "cuberoot", r=3.0) >= 3


class TestExactAr1Bias:
    def test_independent_chain_has_no_bias(self):
        assert bm_exact_bias_ar1(0.0, 100, 10) == 0.0

    def test_bias_is_negative_for_positive_correlation(self):
        assert bm_exact_bias_ar1(0.5, 1000, 10) < 0.0

    def test_matches_first_order_term_for_large_batches(self):
        phi = 0.92
        gamma = -2 * phi / ((1 - phi) ** 2 * (1 - phi * phi))
        bias = bm_exact_bias_ar1(phi, 5000 * 100, 5000)
        assert bias / (gamma / 5000) == pytest.approx(1.0, abs=0.02)

    def test_requires_divisible_length(self):
        with pytest.raises(ValueError, match="multiple"):
            bm_exact_bias_ar1(0.5, 1001, 10)

    @pytest.mark.parametrize("b", [0, -5])
    def test_rejects_non_positive_batch_size(self, b):
        with pytest.raises(ValueError, match=f"batch size must be >= 1, got {b}"):
            bm_exact_bias_ar1(0.5, 100, b)
        with pytest.raises(ValueError, match=f"batch size must be >= 1, got {b}"):
            lugsail_exact_bias_ar1(0.5, 100, b, 2.0, 0.5)

    def test_monte_carlo_agreement(self, rng):
        # stationary start so the finite-sample formula applies exactly
        from scipy.signal import lfilter

        phi, n, b = 0.5, 1000, 10
        reps = 4000
        x0 = rng.standard_normal(reps) / math.sqrt(1 - phi * phi)
        eps = rng.standard_normal((reps, n))
        paths, _ = lfilter([1.0], [1.0, -phi], eps, axis=1, zi=(phi * x0)[:, None])
        sig = np.array([batch_means(SampleMatrix(p), b).scalar() for p in paths])
        mc_bias = sig.mean() - 1.0 / (1 - phi) ** 2
        mc_se = sig.std(ddof=1) / math.sqrt(reps)
        assert abs(mc_bias - bm_exact_bias_ar1(phi, n, b)) < 3 * mc_se

    def test_lugsail_bias_by_linearity(self):
        phi, n, b = 0.6, 1200, 12
        direct = (bm_exact_bias_ar1(phi, n, b) - 0.5 * bm_exact_bias_ar1(phi, n, 6)) / 0.5
        assert lugsail_exact_bias_ar1(phi, n, b, 2.0, 0.5) == pytest.approx(direct, rel=1e-12)


class TestLugsailWrappers:
    def test_none_regime_is_plain(self, rng):
        s = SampleMatrix(rng.standard_normal((50, 1)))
        assert np.array_equal(lugsail_batch_means(s, 5, LugsailConfig()).matrix, batch_means(s, 5).matrix)

    def test_small_batch_clamp_warns(self, rng):
        # floor(b/r) = 0 is refused by every family and by the exact bias,
        # also when c = 0 makes the correction a no-op
        s = SampleMatrix(rng.standard_normal((50, 1)))
        floor = r"floor\(b/r\) must be >= 1"
        for wrapper in (lugsail_batch_means, lugsail_overlapping_batch_means):
            with pytest.raises(ValueError, match=floor):
                wrapper(s, 2, LugsailConfig(r=3.0, c=0.5, regime="over"))
        with pytest.raises(ValueError, match=floor):
            lugsail_spectral_variance(s, BARTLETT, 1, 2.0, 0.0)
        with pytest.raises(ValueError, match=floor):
            lugsail_exact_bias_ar1(0.5, 1000, 2, 3.0, 0.5)

    @given(lugsail_cases())
    def test_equals_linear_combination(self, case):
        values, r, b, c = case
        s, config = SampleMatrix(values), LugsailConfig(r=r, c=c, regime="custom")
        for wrapper, base in ((lugsail_batch_means, batch_means),
                              (lugsail_overlapping_batch_means, overlapping_batch_means)):
            got = wrapper(s, b, config).matrix
            assert_lugsail_mix(got, base(s, b).matrix, base(s, b // int(r)).matrix, c, 1e-12)

    def test_obm_lugsail_mixes_the_right_scales(self, rng):
        s = SampleMatrix(rng.standard_normal((200, 1)))
        est = lugsail_overlapping_batch_means(s, 10, LugsailConfig(r=2.0, c=0.5, regime="zero"))
        manual = 2.0 * overlapping_batch_means(s, 10).scalar() - overlapping_batch_means(s, 5).scalar()
        assert est.scalar() == pytest.approx(manual, rel=1e-12)

    def test_metadata_records_regime(self, rng):
        s = SampleMatrix(rng.standard_normal((60, 1)))
        est = lugsail_batch_means(s, 6, LugsailConfig(r=3.0, c=0.5, regime="over"))
        assert est.lugsail.regime == "over"
        assert est.b == 6
