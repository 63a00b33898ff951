"""Sampling determinism, distribution quality, and estimator behavior."""
import math

import numpy as np
import pytest

from clab.montecarlo import (
    MonteCarloEstimate,
    UniformInterval,
    _key,
    derive_seed,
    mc_estimate,
    mc_mean,
    sample_uniform,
    standard_normal,
    uniform01,
)


class TestUniformDraws:
    def test_degenerate_interval_returns_endpoint(self):
        assert sample_uniform(UniformInterval(2.5, 2.5), seed=9, index=123) == 2.5

    def test_interval_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            UniformInterval(1.0, 0.0)

    def test_mean_of_a_million_draws(self):
        # CLT at 4 sigma gives 0.5 +- 0.00116; the contract allows 0.002.
        draws = uniform01(31337, np.arange(1_000_000))
        assert abs(draws.mean() - 0.5) < 0.002

    def test_same_key_same_value(self):
        assert uniform01(7, 42) == uniform01(7, 42)
        a = sample_uniform(UniformInterval(-3.0, 5.0), 11, np.arange(100))
        b = sample_uniform(UniformInterval(-3.0, 5.0), 11, np.arange(100))
        np.testing.assert_array_equal(a, b)

    def test_bounds_respected(self):
        draws = sample_uniform(UniformInterval(-2.0, 3.0), 5, np.arange(100_000))
        assert draws.min() >= -2.0 and draws.max() <= 3.0

    def test_values_keyed_by_index_not_call_order(self):
        perm = np.random.default_rng(0).permutation(1000).astype(np.uint64)
        shuffled = uniform01(3, perm)
        straight = uniform01(3, np.arange(1000))
        np.testing.assert_array_equal(shuffled, straight[perm])

    def test_distinct_seeds_decorrelated(self):
        a = uniform01(1, np.arange(200_000))
        b = uniform01(2, np.arange(200_000))
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


class TestStandardNormal:
    def test_moments(self):
        draws = standard_normal(99, np.arange(1_000_000))
        assert abs(draws.mean()) < 4.0 / 1000.0
        assert abs(draws.var() - 1.0) < 4.0 * math.sqrt(2.0 / 1_000_000)

    def test_deterministic(self):
        assert standard_normal(4, 17) == standard_normal(4, 17)


class TestDeriveSeed:
    def test_streams_differ(self):
        seeds = {derive_seed(1, salt) for salt in ("a", "b", "c", 0, 1, 2)}
        assert len(seeds) == 6

    def test_pure_function(self):
        assert derive_seed(5, "trial", 12) == derive_seed(5, "trial", 12)


# Includes the largest seed, 2**64 - 1, and values with the top bit set.
EDGE_SEEDS = np.array([0, 1, 12345, 2**63, 2**63 + 7, 2**64 - 1], dtype=np.uint64)


class TestArraySeeds:
    def test_key_matches_scalar_loop(self):
        keys = _key(EDGE_SEEDS)
        assert keys.dtype == np.uint64 and keys.shape == EDGE_SEEDS.shape
        assert [int(k) for k in keys] == [int(_key(int(s))) for s in EDGE_SEEDS]

    def test_derive_seed_array_seed_matches_scalar_loop(self):
        derived = derive_seed(EDGE_SEEDS, "detector", 7, "amp_re")
        assert isinstance(derived, np.ndarray) and derived.dtype == np.uint64
        assert [int(d) for d in derived] == [derive_seed(int(s), "detector", 7, "amp_re") for s in EDGE_SEEDS]

    def test_derive_seed_array_salt_matches_scalar_loop(self):
        salts = np.concatenate([np.arange(50, dtype=np.uint64), EDGE_SEEDS])
        for seed in (0, 2**64 - 1):
            derived = derive_seed(seed, "detector", salts)
            assert [int(d) for d in derived] == [derive_seed(seed, "detector", int(i)) for i in salts]

    def test_scalar_calls_return_int(self):
        assert type(derive_seed(2**64 - 1, "x", 3)) is int
        assert type(derive_seed(np.uint64(5), "x")) is int

    @pytest.mark.parametrize(
        "draw",
        [uniform01, standard_normal, lambda seed, idx: sample_uniform(UniformInterval(-2.0, 3.0), seed, idx)],
        ids=["uniform01", "standard_normal", "sample_uniform"],
    )
    def test_seed_column_broadcasts_against_index_row(self, draw):
        idx = np.arange(37, dtype=np.uint64)
        table = draw(EDGE_SEEDS[:, None], idx[None, :])
        assert table.shape == (EDGE_SEEDS.size, idx.size)
        for row, seed in zip(table, EDGE_SEEDS):
            np.testing.assert_array_equal(row, draw(int(seed), idx))


class TestMcMean:
    def test_constant_function(self):
        est = mc_mean(lambda idx, seed: np.full(idx.size, 0.5), 100, seed=0)
        assert est.mean == 0.5
        assert est.stderr == 0.0
        assert est.n == 100

    def test_cos_of_uniform_on_symmetric_pi_interval(self):
        # E[cos(u)] for u ~ U[-pi, pi] is sin(pi)/pi = 0.
        interval = UniformInterval(-math.pi, math.pi)

        def f(idx, seed):
            return np.cos(sample_uniform(interval, seed, idx))

        est = mc_mean(f, 200_000, seed=77)
        assert abs(est.mean - 0.0) <= 4.0 * est.stderr

    def test_stderr_shrinks_like_root_n(self):
        interval = UniformInterval(0.0, 1.0)

        def f(idx, seed):
            return sample_uniform(interval, seed, idx)

        for trial_seed in range(5):
            small = mc_mean(f, 10_000, seed=trial_seed)
            big = mc_mean(f, 20_000, seed=derive_seed(trial_seed, "big"))
            assert 0.6 <= big.stderr / small.stderr <= 0.85

    def test_rejects_non_finite_with_index(self):
        def f(idx, seed):
            vals = np.ones(idx.size)
            vals[3] = np.nan
            return vals

        with pytest.raises(ValueError, match="index 3"):
            mc_mean(f, 10, seed=0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 2"):
            mc_mean(lambda idx, seed: np.ones(idx.size), 1, seed=0)

    def test_estimate_is_pure_function_of_seed(self):
        def f(idx, seed):
            return np.cos(uniform01(seed, idx))

        a = mc_mean(f, 5000, seed=123)
        b = mc_mean(f, 5000, seed=123)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_chunked_evaluation_merges_identically(self):
        # Evaluating the per-index values in shuffled chunks and summing in
        # index order reproduces the estimator's mean bit for bit.
        def f(idx, seed):
            return np.cos(uniform01(seed, idx))

        est = mc_mean(f, 4096, seed=5)
        order = np.random.default_rng(1).permutation(4096)
        vals = np.empty(4096)
        for chunk in np.array_split(order, 7):
            vals[chunk] = f(chunk.astype(np.uint64), 5)
        assert float(np.sum(vals) / 4096) == est.mean

    def test_estimate_of_drawn_values_matches_mc_mean(self):
        def f(idx, seed):
            return np.cos(uniform01(seed, idx))

        est = mc_mean(f, 3001, seed=9)
        again = mc_estimate(f(np.arange(3001, dtype=np.uint64), 9))
        assert (again.mean, again.stderr, again.n) == (est.mean, est.stderr, est.n)

    def test_estimate_of_one_value_has_zero_stderr(self):
        est = mc_estimate([0.25])
        assert (est.mean, est.stderr, est.n) == (0.25, 0.0, 1)

    def test_estimate_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError, match="at least one"):
            mc_estimate([])
        with pytest.raises(ValueError, match="index 1"):
            mc_estimate([0.5, math.inf])

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            MonteCarloEstimate(mean=0.5, stderr=-1.0, n=10)
        with pytest.raises(ValueError):
            MonteCarloEstimate(mean=math.nan, stderr=0.0, n=10)
