import numpy as np
import pytest

from mcvar import SampleMatrix, lag1_autocorrelation, mcse, mean_vector
from mcvar.experiments import (
    Ar1Config,
    MixtureConfig,
    ar1_chain_factory,
    ar1_generate,
    ar1_truth,
    coverage_study,
    ess_study,
    logistic_mh_generate,
    make_estimator,
    median_times,
    mh_acceptance_rate,
    mixture_mh_generate,
    ordering_ok,
    standard_grid,
    timing_bench,
)


class TestAr1Generator:
    def test_deterministic_for_a_seed(self):
        a = ar1_generate(Ar1Config(phi=0.7, n=500, seed=42))
        b = ar1_generate(Ar1Config(phi=0.7, n=500, seed=42))
        assert np.array_equal(a.values, b.values)

    def test_phi_zero_is_iid_standard_normal(self):
        chain = ar1_generate(Ar1Config(phi=0.0, n=100_000, seed=1))
        assert chain.values.var(ddof=1) == pytest.approx(1.0, abs=0.02)
        assert abs(lag1_autocorrelation(chain)) < 0.02

    def test_invariant_distribution_variance(self):
        chain = ar1_generate(Ar1Config(phi=0.9, n=1_000_000, seed=2))
        assert chain.values.var(ddof=1) == pytest.approx(1.0 / (1 - 0.81), rel=0.03)

    def test_start_value_feeds_first_step(self):
        cfg = Ar1Config(phi=0.5, n=10, seed=3, x0=100.0)
        chain = ar1_generate(cfg)
        assert chain.values[0, 0] > 40.0

    def test_columns_are_independent_recursions_from_x0(self):
        x = ar1_generate(Ar1Config(phi=0.6, n=50, seed=9, x0=2.0, p=3)).values
        eps = np.random.default_rng(9).standard_normal((50, 3))
        previous = np.vstack([np.full((1, 3), 2.0), x[:-1]])
        assert x.shape == (50, 3)
        assert np.allclose(x, 0.6 * previous + eps, rtol=0.0, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Ar1Config(phi=1.0, n=100)
        with pytest.raises(ValueError, match="need p >= 1"):
            Ar1Config(phi=0.5, n=100, p=0)


class TestAr1Truth:
    def test_moderate_correlation(self):
        t = ar1_truth(0.92)
        assert t.sigma_true == pytest.approx(156.25)
        assert t.ess_ratio == pytest.approx(0.0416667, abs=1e-6)
        assert t.gamma == pytest.approx(-2 * 0.92 / (0.08**2 * (1 - 0.92**2)))

    def test_independent_case(self):
        t = ar1_truth(0.0)
        assert (t.sigma_true, t.ess_ratio, t.gamma) == (1.0, 1.0, 0.0)

    def test_high_correlation(self):
        t = ar1_truth(0.98)
        assert t.sigma_true == pytest.approx(2500.0)
        assert t.ess_ratio == pytest.approx(0.0101010, abs=1e-6)


class TestMixtureSampler:
    def test_deterministic_for_a_seed(self):
        a = mixture_mh_generate(MixtureConfig(n=2000, seed=7))
        b = mixture_mh_generate(MixtureConfig(n=2000, seed=7))
        assert np.array_equal(a.values, b.values)

    def test_single_run_matches_known_mean(self):
        chain = mixture_mh_generate(MixtureConfig(n=50_000, seed=11))
        estimate = make_estimator("bm", lugsail="over")(chain)
        err = mcse(estimate, chain.n)[0]
        assert mean_vector(chain)[0] == pytest.approx(5.6, abs=3 * err)

    def test_small_steps_mean_high_autocorrelation(self):
        chain = mixture_mh_generate(MixtureConfig(n=50_000, seed=13))
        assert lag1_autocorrelation(chain) == pytest.approx(0.98, abs=0.01)

    def test_acceptance_drops_with_giant_proposals(self):
        small = mixture_mh_generate(MixtureConfig(n=20_000, seed=17, proposal_sd=0.5))
        large = mixture_mh_generate(MixtureConfig(n=20_000, seed=17, proposal_sd=50.0))
        assert mh_acceptance_rate(large) < mh_acceptance_rate(small)


class TestLogisticSampler:
    def test_deterministic_for_a_seed(self):
        a = logistic_mh_generate(50, 3, 500, seed=5)
        b = logistic_mh_generate(50, 3, 500, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_prior_only_moments(self):
        chain = logistic_mh_generate(0, 2, 200_000, seed=9)
        means = mean_vector(chain)
        assert np.allclose(means, 0.0, atol=0.01)
        assert np.allclose(chain.values.var(axis=0, ddof=1), 0.01, atol=0.002)

    def test_informative_data_recovers_coefficient_sign(self):
        agree = 0
        for seed in range(20):
            chain = logistic_mh_generate(500, 1, 4000, seed=seed)
            agree += mean_vector(chain)[0] > 0  # true coefficient is +0.5
        assert agree >= 19

    def test_dimensions(self):
        chain = logistic_mh_generate(30, 4, 100, seed=1)
        assert (chain.n, chain.p) == (100, 4)


class TestStudies:
    def test_iid_coverage_close_to_nominal(self):
        rows = coverage_study(ar1_chain_factory(0.0), 0.0, {"bm": make_estimator("bm")},
                              [10_000], replications=1000, seed=123)
        assert rows[0]["coverage"] == pytest.approx(0.95, abs=0.02)

    def test_iid_ess_ratio_close_to_one(self):
        rows = ess_study(ar1_chain_factory(0.0), ar1_truth(0.0), {"bm": make_estimator("bm")},
                         [10_000], replications=200, seed=5)
        assert rows[0]["mean_ess_per_n"] == pytest.approx(1.0, abs=0.05)
        assert rows[0]["truth_ess_per_n"] == 1.0

    def test_studies_are_reproducible(self):
        grid = {k: v for k, v in standard_grid().items() if k in ("bm", "bm-zero")}
        a = coverage_study(ar1_chain_factory(0.5), 0.0, grid, [2000], 50, seed=77)
        b = coverage_study(ar1_chain_factory(0.5), 0.0, grid, [2000], 50, seed=77)
        assert a == b

    def test_rows_cover_the_grid(self):
        grid = standard_grid()
        rows = ess_study(ar1_chain_factory(0.3), ar1_truth(0.3), grid, [1000, 2000], 5, seed=3)
        assert len(rows) == 6
        assert {row["estimator"] for row in rows} == set(grid)
        assert all(0.0 <= row["mean_ess_per_n"] for row in rows)

    def test_coverage_in_unit_interval(self):
        rows = coverage_study(ar1_chain_factory(0.5), 0.0, standard_grid(), [1500], 20, seed=9)
        assert all(0.0 <= row["coverage"] <= 1.0 for row in rows)


class TestTimingBench:
    def test_tiny_chain_is_fast_and_complete(self, rng):
        chain = SampleMatrix(rng.standard_normal((100, 2)))
        grid = {k: v for k, v in standard_grid(methods=("bm", "sv", "initseq")).items()
                if k in ("bm", "sv", "initseq")}
        rows = timing_bench(chain, grid, repetitions=3)
        med = median_times(rows)
        assert set(med) == set(grid)
        assert all(t < 1.0 for t in med.values())

    def test_repetitions_run_round_robin_on_fresh_matrices(self, rng):
        chain, calls = SampleMatrix(rng.standard_normal((50, 2))), []

        def recorder(name):
            def estimate(fresh):
                calls.append((name, fresh))
            return estimate

        rows = timing_bench(chain, {"a": recorder("a"), "b": recorder("b")}, repetitions=3)
        assert [name for name, _ in calls] == ["a", "b"] * 3
        assert len({id(fresh) for _, fresh in calls}) == 6 and chain not in [m for _, m in calls]
        assert [row["estimator"] for row in rows] == ["a", "b"]

    def test_ordering_helper(self):
        rows = [
            {"estimator": "a", "median_seconds": 0.01, "repetitions": 3},
            {"estimator": "b", "median_seconds": 0.02, "repetitions": 3},
            {"estimator": "c", "median_seconds": 0.019, "repetitions": 3},
        ]
        assert ordering_ok(rows, ["a", "b"])
        assert not ordering_ok(rows, ["b", "c"])
        assert ordering_ok(rows, ["b", "c"], slack=1.1)
