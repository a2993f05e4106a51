import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcvar import (
    BARTLETT,
    BARTLETT_FLATTOP,
    QUADRATIC_SPECTRAL,
    TUKEY_HANNING,
    WINDOWS,
    LagWindow,
    SampleMatrix,
    get_window,
    lag_covariance,
    lugsail_spectral_variance,
    lugsail_window,
    overlapping_batch_means,
    spectral_variance,
)

from conftest import ar1_paths, assert_lugsail_mix, lugsail_cases, nested_sv

GRID = np.linspace(-1.5, 1.5, 301)


class TestWindowValues:
    def test_bartlett(self):
        assert isinstance(BARTLETT(0.5), float)
        assert BARTLETT(0.5) == pytest.approx(0.5)
        assert BARTLETT(1.2) == 0.0

    def test_bartlett_flattop_two_pieces(self):
        assert BARTLETT_FLATTOP(0.25) == 1.0
        assert BARTLETT_FLATTOP(0.75) == pytest.approx(0.5)

    def test_tukey_hanning(self):
        assert TUKEY_HANNING(0.5) == pytest.approx(0.5)
        assert TUKEY_HANNING(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_spectral_origin_limit(self):
        assert QUADRATIC_SPECTRAL(0.0) == 1.0

    def test_quadratic_spectral_series_is_smooth_and_bounded(self):
        # the closed form overshoots 1 near the origin from cancellation; the
        # series branch must not
        x = np.logspace(-8, -1, 200)
        vals = QUADRATIC_SPECTRAL(x)
        assert (vals <= 1.0).all()
        assert np.all(np.diff(vals) <= 0)
        assert np.all(np.diff(QUADRATIC_SPECTRAL(np.linspace(1e-4, 0.5, 100))) < 0)

    @pytest.mark.parametrize("name", sorted(WINDOWS))
    def test_unit_at_zero_and_symmetric_on_grid(self, name):
        w = WINDOWS[name]
        assert w(0.0) == 1.0
        assert np.allclose(w(GRID), w(-GRID), atol=0)

    def test_get_window_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown lag window"):
            get_window("boxcar")


class TestLugsailWindow:
    def test_c_zero_is_base(self):
        assert lugsail_window(BARTLETT, 2.0, 0.0) is BARTLETT

    def test_zero_lugsail_of_bartlett_is_flattop(self):
        w = lugsail_window(BARTLETT, 2.0, 0.5)
        grid = np.arange(0, 1.51, 0.01)
        assert np.allclose(w(grid), BARTLETT_FLATTOP(grid), atol=1e-15)

    def test_over_lugsail_lifts_above_one(self):
        w = lugsail_window(BARTLETT, 3.0, 0.5)
        assert w(1.0 / 3.0) == pytest.approx(4.0 / 3.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            lugsail_window(BARTLETT, 2.0, 1.0)
        with pytest.raises(ValueError):
            lugsail_window(BARTLETT, 0.5, 0.25)

    @given(st.sampled_from(sorted(WINDOWS)), st.floats(1.0, 5.0), st.floats(0.0, 0.95))
    def test_always_unit_at_zero_and_symmetric(self, name, r, c):
        w = lugsail_window(WINDOWS[name], r, c)
        assert w(0.0) == pytest.approx(1.0)
        assert np.allclose(w(GRID), w(-GRID), atol=0)


class TestWindowSmoothness:
    def test_bartlett_first_order(self):
        assert (BARTLETT.q, BARTLETT.k_q) == (1, 1.0)

    def test_tukey_hanning_second_order(self):
        q, kq = TUKEY_HANNING.q, TUKEY_HANNING.k_q
        assert q == 2
        assert kq == pytest.approx(math.pi**2 / 4)
        # numeric limit from the raw formula
        x = 1e-4
        assert (1 - TUKEY_HANNING(x)) / x**2 == pytest.approx(kq, rel=1e-6)

    def test_flattop_is_flat_at_origin(self):
        assert (BARTLETT_FLATTOP.q, BARTLETT_FLATTOP.k_q) == (1, 0.0)

    def test_quadratic_spectral_constant_by_numeric_limit(self):
        # confirm the stored constant against the closed form evaluated just
        # outside the series switchover, where cancellation is still mild
        q, kq = QUADRATIC_SPECTRAL.q, QUADRATIC_SPECTRAL.k_q
        assert q == 2
        x = 0.02
        numeric = (1 - QUADRATIC_SPECTRAL(x)) / x**2
        assert numeric == pytest.approx(kq, rel=5e-4)
        assert kq == pytest.approx(18 * math.pi**2 / 125, rel=1e-12)

    def test_zero_lugsail_kills_first_order_constant(self):
        assert lugsail_window(BARTLETT, 2.0, 0.5).k_q == 0.0

    def test_over_lugsail_flips_the_sign(self):
        assert lugsail_window(BARTLETT, 3.0, 0.5).k_q == pytest.approx(-1.0)


class TestSpectralVariance:
    def test_univariate_hand_cases(self):
        s = SampleMatrix([1.0, 2.0, 3.0])
        assert spectral_variance(s, BARTLETT, 1).scalar() == pytest.approx(2.0 / 3.0)
        assert spectral_variance(s, BARTLETT, 2).scalar() == pytest.approx(2.0 / 3.0)

    def test_constant_chain_is_zero(self):
        s = SampleMatrix(np.full((10, 2), 4.0))
        for name in WINDOWS:
            assert np.allclose(spectral_variance(s, WINDOWS[name], 3).matrix, 0.0, atol=1e-12)

    def test_truncation_point_range(self):
        s = SampleMatrix([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="truncation point"):
            spectral_variance(s, BARTLETT, 3)

    def test_output_exactly_symmetric(self, rng):
        s = SampleMatrix(rng.standard_normal((200, 4)))
        m = spectral_variance(s, TUKEY_HANNING, 14).matrix
        assert np.array_equal(m, m.T)

    def test_bartlett_is_psd(self, rng):
        for _ in range(5):
            s = SampleMatrix(rng.standard_normal((100, 3)))
            assert spectral_variance(s, BARTLETT, 9).psd

    @pytest.mark.parametrize("name", sorted(WINDOWS))
    def test_matches_nested_loop_oracle(self, rng, name):
        v = rng.uniform(-5, 5, size=(151, 2))
        got = spectral_variance(SampleMatrix(v), WINDOWS[name], 11).matrix
        assert np.abs(got - nested_sv(v, WINDOWS[name], 11)).max() < 1e-9

    @given(
        arrays(np.float64, st.tuples(st.integers(4, 40), st.integers(1, 2)),
               elements=st.floats(-10, 10, allow_nan=False, width=64)),
        st.integers(1, 12),
    )
    @settings(max_examples=25)
    def test_property_matches_oracle(self, values, b):
        s = SampleMatrix(values)
        b = min(b, s.n - 1)
        got = spectral_variance(s, BARTLETT, b).matrix
        assert np.abs(got - nested_sv(values, BARTLETT, b)).max() < 1e-9

    @given(st.integers(2, 64), st.data())
    @settings(max_examples=50)
    def test_property_any_length_every_window(self, n, data):
        # n=2 and n=8 give the odd lengths 3 and 15, which have no Nyquist bin
        values = data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 2))),
                                  elements=st.floats(-10, 10, allow_nan=False, width=64)))
        b = data.draw(st.integers(1, n - 1))
        s = SampleMatrix(values)
        for window in (*WINDOWS.values(), lugsail_window(BARTLETT, 3.0, 0.5)):
            got = spectral_variance(s, window, b).matrix
            assert np.abs(got - nested_sv(values, window, b)).max() < 1e-9, window.name

    def test_every_length_every_window(self, rng):
        for n in range(2, 65):
            s = SampleMatrix(rng.uniform(-10, 10, size=(n, 2)))
            lags = np.array([lag_covariance(s, k).matrix for k in range(n)])
            both = lags + np.transpose(lags, (0, 2, 1))
            for b in sorted({1, max(1, n // 3), n - 1}):
                for window in (*WINDOWS.values(), lugsail_window(BARTLETT, 3.0, 0.5)):
                    weights = window(np.arange(n) / b)
                    direct = lags[0] * weights[0] + np.tensordot(weights[1:], both[1:], axes=1)
                    got = spectral_variance(s, window, b).matrix
                    assert np.abs(got - direct).max() < 1e-9, (n, b, window.name)

    def test_user_window_with_infinite_support(self, rng):
        s = SampleMatrix(rng.standard_normal((300, 2)))
        user = LagWindow("user-qs", support=float("inf"), q=2, k_q=QUADRATIC_SPECTRAL.k_q,
                         fn=QUADRATIC_SPECTRAL.fn)
        assert np.array_equal(spectral_variance(s, user, 12).matrix,
                              spectral_variance(s, QUADRATIC_SPECTRAL, 12).matrix)

    @pytest.mark.parametrize("support, fn, message", [
        (-1.0, BARTLETT.fn, "support must be >= 0"),
        (math.nan, BARTLETT.fn, "support must be >= 0"),
        (1.0, lambda ax: 2.0 * BARTLETT.fn(ax), r"needs kappa\(0\) = 1, got 2.0"),
        (1.0, lambda ax: BARTLETT.fn(ax) + 1e-11, r"needs kappa\(0\) = 1"),
        (1.0, lambda ax: np.full_like(ax, np.nan), r"needs kappa\(0\) = 1, got nan"),
    ])
    def test_user_window_is_checked_when_built(self, support, fn, message):
        with pytest.raises(ValueError, match=message):
            LagWindow("user", support=support, q=1, k_q=1.0, fn=fn)

    def test_windows_are_exactly_one_at_zero(self):
        LagWindow("user", support=0.0, q=1, k_q=1.0, fn=lambda ax: BARTLETT.fn(ax) + 1e-13)
        for window in WINDOWS.values():
            assert window(0.0) == 1.0
            for r, c in ((2.0, 0.5), (3.0, 0.5), (3.0, 0.9), (1.5, 0.25)):
                assert lugsail_window(window, r, c)(0.0) == 1.0

    def test_close_to_overlapping_batch_means(self, rng):
        # Bartlett window and overlapping batches agree up to end effects
        diffs = []
        for path in ar1_paths(rng, 30, 10_000, 0.5):
            s = SampleMatrix(path)
            sv = spectral_variance(s, BARTLETT, 100).matrix
            obm = overlapping_batch_means(s, 100).matrix
            diffs.append(np.linalg.norm(sv - obm) / np.linalg.norm(obm))
        assert np.mean(diffs) < 0.05


class TestLugsailSpectralVariance:
    def test_c_zero_is_plain(self, rng):
        s = SampleMatrix(rng.standard_normal((100, 2)))
        got = lugsail_spectral_variance(s, BARTLETT, 10, 2.0, 0.0)
        assert np.array_equal(got.matrix, spectral_variance(s, BARTLETT, 10).matrix)

    def test_zero_lugsail_equals_flattop_for_even_b(self, rng):
        s = SampleMatrix(rng.standard_normal((300, 2)))
        a = lugsail_spectral_variance(s, BARTLETT, 16, 2.0, 0.5).matrix
        b = spectral_variance(s, BARTLETT_FLATTOP, 16).matrix
        assert np.abs(a - b).max() < 1e-12

    @given(lugsail_cases())
    # subnormal results: the bound must not underflow to 0
    @example((np.array([[0.0], [2.8776076e-159], [2.8776076e-159], [2.8776076e-159]]), 2.0, 2, 0.5))
    def test_equals_linear_combination_when_r_divides_b(self, case):
        values, r, b, c = case
        s = SampleMatrix(values)
        for window in WINDOWS.values():
            got = lugsail_spectral_variance(s, window, b, r, c).matrix
            big, small = spectral_variance(s, window, b).matrix, spectral_variance(s, window, b // int(r)).matrix
            assert_lugsail_mix(got, big, small, c, 1e-10)

    def test_small_truncation_guard(self, rng):
        s = SampleMatrix(rng.standard_normal((50, 1)))
        with pytest.raises(ValueError, match="floor"):
            lugsail_spectral_variance(s, BARTLETT, 2, 3.0, 0.5)

    def test_over_lugsail_exceeds_plain_on_average(self, rng):
        plain, over = [], []
        for path in ar1_paths(rng, 200, 20_000, 0.92):
            s = SampleMatrix(path)
            plain.append(spectral_variance(s, BARTLETT, 141).scalar())
            over.append(lugsail_spectral_variance(s, BARTLETT, 141, 3.0, 0.5).scalar())
        assert np.mean(over) > np.mean(plain)

    def test_adaptive_weight_resolved_from_chain(self, rng):
        s = SampleMatrix(rng.standard_normal((1000, 1)))
        est = lugsail_spectral_variance(s, BARTLETT, 31, 2.0, None)
        from mcvar import adaptive_c

        assert est.lugsail.c == pytest.approx(adaptive_c(1000, 31))
