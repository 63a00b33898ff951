"""Sampling determinism, distribution quality, and estimator behavior."""
import math

import numpy as np
import pytest

from clab.montecarlo import (
    MonteCarloEstimate,
    SWEEP_CHUNK,
    UniformInterval,
    _key,
    cos_squared_sweep,
    derive_seed,
    mc_estimate,
    mc_mean,
    sample_uniform,
    standard_exponential,
    uniform01,
)
from clab.qcore import cos_squared


class TestUniformDraws:
    def test_degenerate_interval_returns_endpoint(self):
        assert sample_uniform(UniformInterval(2.5, 2.5), seed=9, index=123) == 2.5

    def test_interval_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            UniformInterval(1.0, 0.0)

    @pytest.mark.parametrize("lo,hi", [(-math.inf, 0.0), (0.0, math.inf), (math.inf, math.inf), (-1e308, 1e308)])
    def test_interval_rejects_non_finite_bounds_and_width(self, lo, hi):
        with pytest.raises(ValueError, match="must be finite"):
            UniformInterval(lo, hi)
        with pytest.raises(ValueError, match="lo <= hi"):
            UniformInterval(math.nan, hi)

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

    def test_scalar_path_equals_array_path(self):
        idx = np.array([0, 1, 2, 12345, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
        for seed in (0, 42, 2**64 - 1):
            row = uniform01(seed, idx)
            assert [uniform01(seed, int(i)) for i in idx] == row.tolist()
            assert [uniform01(seed, i) for i in idx] == row.tolist()  # numpy uint64 scalars too

    def test_draw_i_is_splitmix64_output_i(self):
        # The generator form of splitmix64 (Steele, Lea & Flood 2014): add gamma to the state, then mix.
        state, expected = _key(77), []
        for _ in range(5):
            state = (state + 0x9E3779B97F4A7C15) % 2**64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
            expected.append(((z ^ (z >> 31)) >> 11) / 2**53)
        assert uniform01(77, np.arange(5)).tolist() == expected

    def test_chi_square_and_lag_one_correlation(self):
        n, bins = 1_000_000, 64
        draws = uniform01(2024, np.arange(n))
        counts = np.bincount((draws * bins).astype(np.int64), minlength=bins)
        chi2 = float(np.sum((counts - n / bins) ** 2) / (n / bins))
        assert abs(chi2 - (bins - 1)) <= 4.0 * math.sqrt(2.0 * (bins - 1))
        assert abs(np.corrcoef(draws[:-1], draws[1:])[0, 1]) <= 4.0 / math.sqrt(n)


class TestStandardExponential:
    def test_deterministic_and_scalar_equals_array(self):
        assert standard_exponential(4, 17) == standard_exponential(4, 17)
        assert standard_exponential(4, 17) == standard_exponential(4, np.arange(18))[17]


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
        [
            uniform01,
            standard_exponential,
            lambda seed, idx: sample_uniform(UniformInterval(-2.0, 3.0), seed, idx),
        ],
        ids=["uniform01", "standard_exponential", "sample_uniform"],
    )
    def test_seed_column_broadcasts_against_index_row(self, draw):
        idx = np.arange(37, dtype=np.uint64)
        table = draw(EDGE_SEEDS[:, None], idx[None, :])
        assert table.shape == (EDGE_SEEDS.size, idx.size)
        for row, seed in zip(table, EDGE_SEEDS):
            np.testing.assert_array_equal(row, draw(int(seed), idx))


class TestPinnedStreams:
    """Exact stream values: a change to the mixer or its vectorized form must reproduce every stored run."""

    @pytest.mark.parametrize(
        "args, expected",
        [
            ((0,), 13117734496055819114),
            ((1, "detector", 3), 17201993198600770236),
            ((2**64 - 1, "delta"), 15593932876730868963),
            ((12345, "amp_re", 7), 5500212547518961616),
        ],
    )
    def test_derive_seed_scalar(self, args, expected):
        assert derive_seed(*args) == expected

    def test_derive_seed_arrays(self):
        seeds = np.array([0, 5, 2**64 - 1], dtype=np.uint64)
        assert derive_seed(seeds, "energy_0").tolist() == [5551317959559935262, 6286981584400384354, 10235721322347737344]
        salts = np.arange(3, dtype=np.uint64)
        assert derive_seed(7, "detector", salts).tolist() == [10521281150022899058, 16762102535234117723, 15742796351109411959]

    @pytest.mark.parametrize(
        "seed, index, expected",
        [
            (0, 0, 0.196338986772445),
            (1, 1, 0.9613672767105869),
            (2**64 - 1, 12345, 0.5287662551980394),
            (42, 2**64 - 1, 0.6114782064122354),
        ],
    )
    def test_uniform01_scalar(self, seed, index, expected):
        assert uniform01(seed, index) == expected

    def test_uniform01_arrays(self):
        row = uniform01(9, np.array([0, 1, 2, 2**40], dtype=np.uint64))
        assert row.tolist() == [0.41928576237959814, 0.6481742634529369, 0.07085978986241304, 0.5375294840535927]
        table = uniform01(np.array([[3], [2**63]], dtype=np.uint64), np.arange(3, dtype=np.uint64))
        assert table.tolist() == [
            [0.09069772828080835, 0.5141784341552155, 0.6531396227266221],
            [0.4335439802820815, 0.7157435211346317, 0.4699008218210712],
        ]


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

    @pytest.mark.parametrize("n", [2, 3, 1000, 8193, 100_001])
    def test_estimate_equals_numpy_std_bit_for_bit_and_may_overwrite(self, n):
        rng = np.random.default_rng(n)
        for vals in (rng.uniform(0.0, 1.0, n), rng.standard_normal(n) * 1e-7 + 3e5, np.cos(rng.uniform(0.0, 1e4, n)) ** 2):
            expected = (float(np.sum(vals)) / n, float(np.std(vals, ddof=1) / math.sqrt(n)), n)
            est = mc_estimate(vals)
            assert (est.mean, est.stderr, est.n) == expected

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


def law(weights, gaps, tau):
    """Per-trial values of the sweep's law, evaluated on all trials at once."""
    p = cos_squared(gaps * (0.5 * tau))
    return p if weights is None else np.minimum(np.sum(p * weights, axis=1), 1.0 + 1e-12)


class TestCosSquaredSweep:
    @staticmethod
    def drawer(K, weighted):
        """draw(lo, hi) of fixed per-trial gaps (and weights summing to 1 per row), keyed by trial index."""

        def draw(lo, hi):
            idx = np.arange(lo * K, hi * K, dtype=np.uint64)
            gaps = (uniform01(11, idx) - 0.5) * 40.0
            if not weighted:
                return None, gaps
            w = uniform01(12, idx).reshape(hi - lo, K)
            return w / np.sum(w, axis=1, keepdims=True), gaps.reshape(hi - lo, K)

        return draw

    @pytest.mark.parametrize("K, weighted", [(1, False), (1, True), (16, True)])
    def test_one_chunk_equals_mc_estimate_bit_for_bit(self, K, weighted):
        trials = SWEEP_CHUNK // K
        base = self.drawer(K, weighted)

        def draw(lo, hi):  # gaps off centre, as the stochastic route's are by its D
            weights, gaps = base(lo, hi)
            return weights, gaps + 0.25

        taus = [0.0, 0.3, 7.0]
        sweep = cos_squared_sweep(draw, trials, K, taus)
        weights, gaps = draw(0, trials)
        assert sweep == [mc_estimate(law(weights, gaps, tau)) for tau in taus]

    @pytest.mark.parametrize("K, weighted", [(1, False), (16, True)])
    def test_chunks_merge_within_1e_15(self, K, weighted):
        trials = 3 * (SWEEP_CHUNK // K) + 5
        draw = self.drawer(K, weighted)
        taus = [0.0, 0.3, 7.0]
        sweep = cos_squared_sweep(draw, trials, K, taus)
        weights, gaps = draw(0, trials)
        for tau, est in zip(taus, sweep):
            # The whole array in one chunk, reduced by mc_estimate.
            whole = mc_estimate(law(weights, gaps, tau))
            assert est.n == trials
            assert abs(est.mean - whole.mean) <= 1e-15 and abs(est.stderr - whole.stderr) <= 1e-15

    def test_non_finite_value_named_by_its_trial_index(self):
        def draw(lo, hi):
            gaps = np.zeros(hi - lo)
            if lo <= SWEEP_CHUNK + 3 < hi:
                gaps[SWEEP_CHUNK + 3 - lo] = np.nan
            return None, gaps

        with pytest.raises(ValueError, match=f"trial index {SWEEP_CHUNK + 3}"):
            cos_squared_sweep(draw, 2 * SWEEP_CHUNK, 1, [1.0])

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    def test_bad_tau_refused_before_any_draw(self, tau):
        def draw(lo, hi):
            raise AssertionError("drew before checking the taus")

        with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
            cos_squared_sweep(draw, 10, 1, [1.0, tau])
