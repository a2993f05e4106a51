import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcvar import SampleMatrix, lag1_autocorrelation, lag_covariance, lag_covariances_fft, mean_vector, sample_covariance
from mcvar.chain import _lag_cov_block

from conftest import naive_lag_cov

chains = arrays(
    np.float64,
    st.tuples(st.integers(2, 48), st.integers(1, 4)),
    elements=st.floats(-10, 10, allow_nan=False, width=64),
)


class TestSampleMatrix:
    def test_one_dimensional_input_becomes_a_column(self):
        s = SampleMatrix([1.0, 2.0, 3.0])
        assert s.values.shape == (3, 1)
        assert (s.n, s.p) == (3, 1)

    def test_rejects_short_chains(self):
        with pytest.raises(ValueError, match="at least 2"):
            SampleMatrix([[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            SampleMatrix([1.0, np.nan, 2.0])

    def test_values_are_read_only(self):
        s = SampleMatrix([[1.0], [2.0]])
        with pytest.raises(ValueError):
            s.values[0, 0] = 7.0

    def test_cached_centering_and_spectrum_are_read_only(self):
        s = SampleMatrix([[1.0], [2.0]])
        with pytest.raises(ValueError):
            s._centered[0, 0] = 7.0
        with pytest.raises(ValueError):
            s._spectrum[0][0, 0] = 7.0
        assert np.array_equal(s._centered, [[-0.5], [0.5]])

    @pytest.mark.parametrize("const", [0.1, 1 / 3, -7.3e5, 2.0])
    def test_centering_is_exactly_zero_on_a_constant_column_only(self, const):
        # column 2 equals the constant at the first, middle and last rows only
        x = np.random.default_rng(3).standard_normal((1001, 3))
        x[[0, 500, 1000], 2] = const
        before = SampleMatrix(x)._centered
        x[:, 1] = const
        s = SampleMatrix(x)
        assert not s._centered[:, 1].any()
        assert np.array_equal(s._centered[:, [0, 2]], before[:, [0, 2]])
        assert lag1_autocorrelation(s) == pytest.approx(lag1_autocorrelation(SampleMatrix(x[:, [0, 2]])), rel=1e-12)


class TestMeanVector:
    def test_constant_chain_is_idempotent(self):
        s = SampleMatrix(np.tile([3.0, -1.0], (5, 1)))
        assert np.array_equal(mean_vector(s), [3.0, -1.0])

    def test_univariate(self):
        assert mean_vector(SampleMatrix([1.0, 2.0, 3.0])) == [2.0]

    def test_hand_case(self):
        assert np.array_equal(mean_vector(SampleMatrix([[1.0, 0.0], [3.0, 2.0]])), [2.0, 1.0])


class TestSampleCovariance:
    def test_constant_chain_is_zero(self):
        s = SampleMatrix(np.tile([3.0, -1.0], (5, 1)))
        assert np.array_equal(sample_covariance(s), np.zeros((2, 2)))

    def test_univariate_variance(self):
        assert sample_covariance(SampleMatrix([1.0, 2.0, 3.0]))[0, 0] == pytest.approx(1.0)

    def test_two_by_two(self):
        got = sample_covariance(SampleMatrix([[0.0, 0.0], [1.0, 1.0]]))
        assert np.allclose(got, [[0.5, 0.5], [0.5, 0.5]])

    def test_row_permutation_invariant(self, rng):
        v = rng.standard_normal((31, 3))
        shuffled = v[rng.permutation(31)]
        assert np.allclose(sample_covariance(SampleMatrix(v)), sample_covariance(SampleMatrix(shuffled)))


class TestLagCovariance:
    def test_lag_zero_rescales_sample_covariance(self, rng):
        v = rng.standard_normal((23, 2))
        s = SampleMatrix(v)
        assert np.allclose(lag_covariance(s, 0).matrix, (22 / 23) * sample_covariance(s))

    def test_univariate_hand_cases(self):
        assert lag_covariance(SampleMatrix([1.0, 2.0, 3.0]), 1).matrix[0, 0] == pytest.approx(0.0)
        assert lag_covariance(SampleMatrix([1.0, 3.0, 2.0, 4.0]), 1).matrix[0, 0] == pytest.approx(-0.4375)

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            lag_covariance(SampleMatrix([1.0, 2.0, 3.0]), 3)

    def test_not_row_permutation_invariant(self):
        before = lag_covariance(SampleMatrix([1.0, 2.0, 4.0]), 1).matrix[0, 0]
        after = lag_covariance(SampleMatrix([4.0, 2.0, 1.0]), 1).matrix[0, 0]
        assert before != after

    @given(chains)
    def test_lag_zero_is_psd(self, values):
        m = lag_covariance(SampleMatrix(values), 0).matrix
        eig = np.linalg.eigvalsh(m)
        assert eig.min() >= -1e-12 * max(eig.max(), 1e-300)

    @given(chains, st.integers(0, 10))
    def test_matches_naive_oracle(self, values, k):
        s = SampleMatrix(values)
        k = min(k, s.n - 1)
        assert np.allclose(lag_covariance(s, k).matrix, naive_lag_cov(values, k), atol=1e-10)


class TestLagCovariancesFft:
    def test_hand_case(self):
        got = lag_covariances_fft(SampleMatrix([1.0, 3.0, 2.0, 4.0]), 1)
        assert got[0].matrix[0, 0] == pytest.approx(1.25, abs=1e-12)
        assert got[1].matrix[0, 0] == pytest.approx(-0.4375, abs=1e-12)

    def test_constant_chain_gives_zero_matrices(self):
        for lc in lag_covariances_fft(SampleMatrix(np.full((8, 2), 3.0)), 7):
            assert np.allclose(lc.matrix, 0.0, atol=1e-12)

    def test_kmax_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            lag_covariances_fft(SampleMatrix([1.0, 2.0]), 2)

    def test_full_lag_range_matches_direct(self, rng):
        v = rng.uniform(-10, 10, size=(512, 3))
        s = SampleMatrix(v)
        got = lag_covariances_fft(s, 511)
        for k in range(0, 512, 17):
            assert np.abs(got[k].matrix - lag_covariance(s, k).matrix).max() <= 1e-10

    @given(chains, st.integers(0, 12))
    @settings(max_examples=25)
    def test_matches_direct_everywhere(self, values, kmax):
        s = SampleMatrix(values)
        kmax = min(kmax, s.n - 1)
        block = lag_covariances_fft(s, kmax)
        for k in range(kmax + 1):
            assert np.abs(block[k].matrix - lag_covariance(s, k).matrix).max() <= 1e-10

    @given(st.integers(2, 64), st.data())
    @settings(max_examples=100)
    def test_property_any_length_and_lag_count(self, n, data):
        # the transform length next_fast_len(n + kmax) is often odd or not a power of two
        kmax = data.draw(st.integers(0, n - 1))
        values = data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 3))),
                                  elements=st.floats(-10, 10, allow_nan=False, width=64)))
        s = SampleMatrix(values)
        block = lag_covariances_fft(s, kmax)
        for k in range(kmax + 1):
            assert np.abs(block[k].matrix - lag_covariance(s, k).matrix).max() <= 1e-10

    def test_every_length_and_lag_count(self, rng):
        for n in range(2, 65):
            s = SampleMatrix(rng.uniform(-10, 10, size=(n, 2)))
            direct = [lag_covariance(s, k).matrix for k in range(n)]
            for kmax in range(n):
                worst = max(np.abs(lc.matrix - d).max() for lc, d in zip(lag_covariances_fft(s, kmax), direct))
                assert worst <= 1e-10, (n, kmax)

    def test_large_chain_against_direct(self, rng):
        v = rng.uniform(-10, 10, size=(2048, 2))
        s = SampleMatrix(v)
        block = lag_covariances_fft(s, 2047)
        for k in (0, 1, 2, 63, 512, 2047):
            assert np.abs(block[k].matrix - lag_covariance(s, k).matrix).max() <= 1e-10


class TestLagBlockTransforms:
    """The block inverse-transforms one row per unordered component pair."""

    @pytest.fixture
    def irfft_rows(self, monkeypatch):
        import mcvar.chain as chain_module

        real = chain_module._sp_fft()
        rows = []

        def counting_irfft(x, *args, **kwargs):
            rows.append(np.atleast_2d(x).shape[0])
            return real.irfft(x, *args, **kwargs)

        fake = types.SimpleNamespace(rfft=real.rfft, next_fast_len=real.next_fast_len, irfft=counting_irfft)
        monkeypatch.setattr(chain_module, "_sp_fft", lambda: fake)
        return rows

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_one_inverse_transform_per_unordered_pair(self, rng, irfft_rows, p):
        lag_covariances_fft(SampleMatrix(rng.standard_normal((200, p))), 30)
        assert sum(irfft_rows) == p * (p + 1) // 2

    def test_tail_reaches_the_last_lag(self, rng, irfft_rows):
        # the raw block, before LagCovariance symmetrizes lag 0
        s = SampleMatrix(rng.uniform(-10, 10, size=(257, 5)))
        block = _lag_cov_block(s, s.n - 1)
        assert sum(irfft_rows) == 15
        for k in range(s.n):
            assert np.abs(block[k] - lag_covariance(s, k).matrix).max() <= 1e-10, k
