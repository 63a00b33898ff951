"""Stochastic interaction model: sampling, phases, expansion, averages."""
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clab.decoherence import DetectorModel, prob_full_propagation, propagate_exact
from clab.montecarlo import mc_mean
from clab.qcore import HermitianOperator, StateVector, expm_propagator
from clab.runner import run
from clab.stochastic import (
    EnergySample,
    StochasticInteraction,
    analytic_mean_probability,
    mc_probability,
    mc_probability_sweep,
    mean_cos_uniform,
    overlap_probability,
    phase_span,
    sample_energies,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)
HALF_MAX = sys.float_info.max / 2.0


def direct_overlap_probability(s, sample, tau):
    """Independent check: assemble the two phased amplitudes and square."""
    amp = 0.5 * np.exp(-1j * tau * (s.a_tilde + np.asarray(sample.alpha))) + 0.5 * np.exp(
        -1j * tau * (s.b_tilde + np.asarray(sample.beta))
    )
    return np.abs(amp) ** 2


class TestStochasticInteraction:
    def test_rejects_negative_estimates(self):
        with pytest.raises(ValueError, match="a_tilde"):
            StochasticInteraction(a_tilde=-1.0, b_tilde=0.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            StochasticInteraction(a_tilde=1.0, b_tilde=1.0, mode="gaussian")

    @pytest.mark.parametrize(
        "a_tilde,b_tilde,mode", [(1e308, 0.0, "uniform_argument"), (0.0, 1e308, "independent_uniform")]
    )
    def test_rejects_a_draw_interval_wider_than_the_float_range(self, a_tilde, b_tilde, mode):
        # Widths 2 (A_tilde + B_tilde) and 2 max(A_tilde, B_tilde): both overflow here.
        with pytest.raises(ValueError, match="draw interval width inf is not finite"):
            StochasticInteraction(a_tilde=a_tilde, b_tilde=b_tilde, mode=mode)


class TestSampleEnergies:
    def test_degenerate_bounds_give_zero(self):
        s = StochasticInteraction(a_tilde=0.0, b_tilde=0.0, mode="independent_uniform")
        sample = sample_energies(s, seed=0, index=5)
        assert (sample.alpha, sample.beta) == (0.0, 0.0)

    def test_bounds_respected_independent(self):
        s = StochasticInteraction(a_tilde=2.0, b_tilde=3.0, mode="independent_uniform")
        sample = sample_energies(s, seed=1, index=np.arange(100_000))
        assert np.abs(sample.alpha).max() <= 2.0
        assert np.abs(sample.beta).max() <= 3.0

    def test_uniform_argument_stores_difference_only(self):
        s = StochasticInteraction(a_tilde=2.0, b_tilde=3.0)
        sample = sample_energies(s, seed=2, index=np.arange(100_000))
        assert np.all(sample.beta == 0.0)
        assert np.abs(sample.alpha).max() <= 5.0

    def test_uniform_argument_mean_is_centered(self):
        s = StochasticInteraction(a_tilde=1.0, b_tilde=1.0)
        n = 1_000_000
        sample = sample_energies(s, seed=3, index=np.arange(n))
        delta = sample.alpha - sample.beta
        sigma = 2.0 / math.sqrt(3.0) / math.sqrt(n)
        assert abs(delta.mean()) <= 4.0 * sigma

    def test_deterministic(self):
        s = StochasticInteraction(a_tilde=1.0, b_tilde=0.5)
        a = sample_energies(s, seed=4, index=7)
        b = sample_energies(s, seed=4, index=7)
        assert (a.alpha, a.beta) == (b.alpha, b.beta)


def one_configuration(s, sample):
    """Route one's detector at one configuration: the instance's branch energies, weight 1."""
    return DetectorModel([1.0], [s.a_tilde + sample.alpha], [s.b_tilde + sample.beta])


class TestOneConfigurationEvolution:
    """An instance's exact evolution is ``propagate_exact`` on its one-configuration detector."""

    def test_zero_time_is_initial_state(self):
        s = StochasticInteraction(a_tilde=4.0, b_tilde=2.0)
        psi = propagate_exact(one_configuration(s, EnergySample(alpha=0.3, beta=0.0)), 0.0)
        np.testing.assert_array_equal(psi.amps, [SQRT_HALF, SQRT_HALF])

    def test_phases_match_branch_energies(self):
        s = StochasticInteraction(a_tilde=4.0, b_tilde=2.0, mode="independent_uniform")
        tau = 0.65
        psi = propagate_exact(one_configuration(s, EnergySample(alpha=0.5, beta=-0.25)), tau)
        np.testing.assert_allclose(np.angle(psi.amps), [-tau * 4.5, -tau * 1.75], atol=1e-15)
        np.testing.assert_allclose(np.abs(psi.amps), [SQRT_HALF, SQRT_HALF], atol=1e-15)

    def test_matches_kernel_exponential(self):
        s = StochasticInteraction(a_tilde=1.5, b_tilde=0.7)
        sample = sample_energies(s, seed=6, index=11)
        tau = 0.9
        psi = propagate_exact(one_configuration(s, sample), tau)
        h = HermitianOperator.from_dense(np.diag([s.a_tilde + sample.alpha, s.b_tilde + sample.beta]))
        expected = expm_propagator(h, tau).apply(StateVector([SQRT_HALF, SQRT_HALF]))
        np.testing.assert_allclose(psi.amps, expected.amps, atol=1e-12)

    def test_norm_is_one(self):
        s = StochasticInteraction(a_tilde=9.0, b_tilde=4.0)
        psi = propagate_exact(one_configuration(s, sample_energies(s, seed=7, index=0)), 12.0)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["uniform_argument", "independent_uniform"])
    def test_overlap_probability_is_the_full_propagation(self, mode):
        # The cross-route identity: route two's per-instance law is route one's at one configuration.
        s = StochasticInteraction(a_tilde=2.5, b_tilde=1.25, mode=mode)
        for index in range(20):
            sample = sample_energies(s, seed=5, index=index)
            for tau in (0.0, 1e-3, 0.4, 1.7, 25.0):
                p = prob_full_propagation(one_configuration(s, sample), tau).p_sx_plus
                assert abs(overlap_probability(s, sample, tau) - p) <= 1e-12


class TestOverlapProbability:
    def test_identical_phases_give_one(self):
        s = StochasticInteraction(a_tilde=3.0, b_tilde=3.0, mode="independent_uniform")
        assert overlap_probability(s, EnergySample(alpha=0.2, beta=0.2), 5.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_time_gives_one(self):
        s = StochasticInteraction(a_tilde=3.0, b_tilde=1.0)
        sample = sample_energies(s, seed=8, index=0)
        assert overlap_probability(s, sample, 0.0) == 1.0

    def test_expansion_matches_direct_modulus(self):
        s = StochasticInteraction(a_tilde=2.0, b_tilde=1.0, mode="independent_uniform")
        sample = sample_energies(s, seed=9, index=np.arange(10_000))
        tau = 1.7
        p = overlap_probability(s, sample, tau)
        direct = direct_overlap_probability(s, sample, tau)
        assert np.abs(p - direct).max() <= 1e-12

    @pytest.mark.parametrize("mode", ["uniform_argument", "independent_uniform"])
    def test_matches_paper_expansion(self, mode):
        # The cos^2 law against the module docstring's expansion, written out here.
        s = StochasticInteraction(a_tilde=2.5, b_tilde=0.75, mode=mode)
        sample = sample_energies(s, seed=12, index=np.arange(10_000))
        for tau in (0.0, 0.43, 2.4, 36.0):
            d = (s.a_tilde - s.b_tilde) * tau
            delta = (sample.alpha - sample.beta) * tau
            expansion = 0.5 + 0.5 * np.cos(d) * np.cos(delta) - 0.5 * np.sin(d) * np.sin(delta)
            p = overlap_probability(s, sample, tau)
            assert np.abs(p - expansion).max() <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "a_tilde,b_tilde,mode,tau_max",
        # The widest intervals accepted, each with the largest tau whose phase span (A_tilde + B_tilde) tau is finite.
        [(HALF_MAX, 0.0, "uniform_argument", 2.0), (0.0, HALF_MAX, "uniform_argument", 2.0),
         (HALF_MAX, HALF_MAX, "independent_uniform", 1.0), (HALF_MAX, 0.0, "independent_uniform", 2.0)],
    )
    def test_half_angle_finite_at_the_widest_intervals(self, a_tilde, b_tilde, mode, tau_max):
        s = StochasticInteraction(a_tilde=a_tilde, b_tilde=b_tilde, mode=mode)
        if mode == "independent_uniform":  # every pair of interval ends
            sample = EnergySample(alpha=np.array([-a_tilde, -a_tilde, a_tilde, a_tilde]),
                                  beta=np.array([-b_tilde, b_tilde, -b_tilde, b_tilde]))
        else:
            sample = EnergySample(alpha=np.array([-(a_tilde + b_tilde), a_tilde + b_tilde]), beta=0.0)
        for tau in (1e-300, 1.0, tau_max):
            p = overlap_probability(s, sample, tau)
            assert np.all((p >= 0.0) & (p <= 1.0))
        wider = math.nextafter(max(a_tilde, b_tilde), math.inf)
        a_wider, b_wider = (wider, b_tilde) if a_tilde >= b_tilde else (a_tilde, wider)
        with pytest.raises(ValueError, match="draw interval width"):  # one ulp more is refused
            StochasticInteraction(a_tilde=a_wider, b_tilde=b_wider, mode=mode)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.0, 50.0),
        st.floats(0.0, 50.0),
        st.floats(0.0, 10.0),
        st.integers(0, 2**31 - 1),
    )
    def test_probability_range(self, a_tilde, b_tilde, tau, seed):
        s = StochasticInteraction(a_tilde=a_tilde, b_tilde=b_tilde)
        sample = sample_energies(s, seed=seed, index=np.arange(64))
        p = overlap_probability(s, sample, tau)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


class TestPhaseSpan:
    def test_zero(self):
        assert phase_span(StochasticInteraction(0.0, 0.0), 5.0) == 0.0

    def test_direct_value(self):
        assert phase_span(StochasticInteraction(1.0, 2.0), 3.0) == pytest.approx(9.0)

    def test_bounds_all_samples(self):
        for mode in ("uniform_argument", "independent_uniform"):
            s = StochasticInteraction(a_tilde=1.5, b_tilde=2.5, mode=mode)
            tau = 1.2
            sample = sample_energies(s, seed=10, index=np.arange(1_000_000))
            args = np.abs(np.asarray(sample.alpha) - np.asarray(sample.beta)) * tau
            assert args.max() <= phase_span(s, tau)


class TestMeanCosUniform:
    def test_limit_at_zero(self):
        assert mean_cos_uniform(0.0) == 1.0

    def test_series_matches_ratio_at_crossover(self):
        xi = 1e-4
        assert mean_cos_uniform(xi) == pytest.approx(math.sin(xi) / xi, abs=1e-15)

    def test_zero_at_pi(self):
        assert abs(mean_cos_uniform(math.pi)) <= 1e-15

    def test_envelope_below_reciprocal(self):
        assert abs(mean_cos_uniform(1e4)) <= 1e-4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mean_cos_uniform(-0.1)

    def test_matches_quadrature(self):
        from scipy.integrate import quad

        for xi in (0.3, 2.0, 7.7):
            integral, _ = quad(math.cos, -xi, xi)
            assert mean_cos_uniform(xi) == pytest.approx(integral / (2 * xi), abs=1e-12)


class TestAnalyticMeanProbability:
    @pytest.mark.parametrize("mode", ["uniform_argument", "independent_uniform"])
    @pytest.mark.parametrize("a_tilde", [0.0, 2.0])
    def test_rejects_negative_tau(self, mode, a_tilde):
        s = StochasticInteraction(a_tilde=a_tilde, b_tilde=0.0, mode=mode)
        with pytest.raises(ValueError, match="tau must be >= 0"):
            analytic_mean_probability(s, -1.0)


class TestMcProbability:
    def test_degenerate_interaction_always_one(self):
        s = StochasticInteraction(a_tilde=0.0, b_tilde=0.0)
        for n in (2, 10, 1000):
            est = mc_probability(s, tau=3.0, seed=0, n=n)
            assert est.mean == 1.0 and est.stderr == 0.0

    def test_classical_limit(self):
        s = StochasticInteraction(a_tilde=5e3, b_tilde=5e3)
        est = mc_probability(s, tau=1.0, seed=1, n=1_000_000)
        assert abs(est.mean - 0.5) <= 0.005

    def test_moderate_span_matches_analytic(self):
        # span pi with equal estimates: expectation 1/2 + sinc(pi)/2 = 1/2.
        s = StochasticInteraction(a_tilde=math.pi / 2.0, b_tilde=math.pi / 2.0)
        est = mc_probability(s, tau=1.0, seed=2, n=200_000)
        expected = analytic_mean_probability(s, 1.0)
        assert expected == pytest.approx(0.5, abs=1e-15)
        assert abs(est.mean - expected) <= 4.0 * est.stderr

    @pytest.mark.parametrize("d_tilde,span", [(0.0, 0.5), (1.0, 3.0), (2.5, 30.0), (0.3, 100.0)])
    def test_analytic_agreement_across_spans(self, d_tilde, span):
        a_tilde = (span + d_tilde) / 2.0
        b_tilde = (span - d_tilde) / 2.0
        s = StochasticInteraction(a_tilde=a_tilde, b_tilde=b_tilde)
        est = mc_probability(s, tau=1.0, seed=3, n=400_000)
        expected = analytic_mean_probability(s, 1.0)
        assert abs(est.mean - expected) <= 4.0 * max(est.stderr, 1e-9)

    def test_sine_average_vanishes_by_symmetry(self):
        s = StochasticInteraction(a_tilde=1.0, b_tilde=1.0)
        tau = 1.0
        n = 1_000_000
        sample = sample_energies(s, seed=4, index=np.arange(n))
        sines = np.sin((sample.alpha - sample.beta) * tau)
        assert abs(sines.mean()) <= 5.0 / math.sqrt(n)

    def test_classical_regime_fixed_seed(self):
        s = StochasticInteraction(a_tilde=500.0, b_tilde=500.0)
        est = mc_probability(s, tau=1.0, seed=2718, n=1_000_000)
        assert 0.49 <= est.mean <= 0.51

    def test_independent_mode_product_envelope(self):
        s = StochasticInteraction(a_tilde=3.0, b_tilde=1.5, mode="independent_uniform")
        tau = 1.0
        expected = 0.5 + 0.5 * math.cos((3.0 - 1.5) * tau) * mean_cos_uniform(3.0) * mean_cos_uniform(1.5)
        assert analytic_mean_probability(s, tau) == pytest.approx(expected, abs=1e-15)
        est = mc_probability(s, tau=tau, seed=5, n=400_000)
        assert abs(est.mean - expected) <= 4.0 * est.stderr

    def test_reproducible(self):
        s = StochasticInteraction(a_tilde=2.0, b_tilde=1.0)
        a = mc_probability(s, tau=1.0, seed=6, n=1000)
        b = mc_probability(s, tau=1.0, seed=6, n=1000)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)


class TestMcProbabilitySweep:
    @pytest.mark.parametrize("mode", ["uniform_argument", "independent_uniform"])
    def test_tau_list_matches_single_tau_calls(self, mode):
        s = StochasticInteraction(a_tilde=3.0, b_tilde=1.25, mode=mode)
        taus = [0.0, 1e-3, 0.6, 2.5, 50.0]
        sweep = mc_probability_sweep(s, taus, seed=2**64 - 1, n=5000)
        assert sweep == [mc_probability(s, tau, seed=2**64 - 1, n=5000) for tau in taus]
        # The per-tau reference: a fresh draw for each tau through mc_mean.
        for tau, est in zip(taus, sweep):

            def per_tau(idx, seed, tau=tau):
                return overlap_probability(s, sample_energies(s, seed, idx), tau)

            assert est == mc_mean(per_tau, 5000, 2**64 - 1)
        assert sweep[0].mean == 1.0 and sweep[0].stderr == 0.0

    def test_rejects_small_n_and_negative_tau(self):
        s = StochasticInteraction(a_tilde=1.0, b_tilde=1.0)
        with pytest.raises(ValueError, match="n >= 2"):
            mc_probability_sweep(s, [1.0], n=1)
        with pytest.raises(ValueError, match="tau"):
            mc_probability_sweep(s, [1.0, -1.0], n=10)

    @pytest.mark.parametrize("mode", ["uniform_argument", "independent_uniform"])
    def test_chunk_equals_fresh_probabilities_bit_for_bit(self, mode, numpy_estimate):
        s = StochasticInteraction(a_tilde=5e3, b_tilde=2e3, mode=mode)
        taus = [0.0, 1e-4, 3e-3, 0.6, 0.9]
        n = 20_001  # one chunk
        sample = sample_energies(s, 17, np.arange(n, dtype=np.uint64))
        expected = [numpy_estimate(overlap_probability(s, sample, tau)) for tau in taus]
        assert mc_probability_sweep(s, taus, seed=17, n=n) == expected

    def test_memory_bounded_by_chunk(self):
        s = StochasticInteraction(a_tilde=5e3, b_tilde=2e3, mode="independent_uniform")
        tracemalloc.start()
        try:
            mc_probability_sweep(s, np.linspace(0.0, 1.0, 12).tolist(), seed=3, n=1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


NON_FINITE = [math.nan, math.inf]


class TestNonFiniteTau:
    """A NaN or infinite tau (or xi) is refused up front, by name, without a numerical warning on the way."""

    @pytest.mark.parametrize("tau", NON_FINITE)
    @pytest.mark.parametrize("mode", ["uniform_argument", "independent_uniform"])
    def test_every_entry_point_names_tau(self, tau, mode):
        s = StochasticInteraction(a_tilde=2.0, b_tilde=1.0, mode=mode)
        sample = sample_energies(s, 3, np.arange(4, dtype=np.uint64))
        calls = [
            lambda: mc_probability_sweep(s, [1.0, tau], n=10),
            lambda: mc_probability(s, tau, n=10),
            lambda: overlap_probability(s, sample, tau),
            lambda: phase_span(s, tau),
            lambda: analytic_mean_probability(s, tau),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
                    call()

    @pytest.mark.parametrize("xi", NON_FINITE)
    def test_mean_cos_uniform_names_xi(self, xi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="xi must be >= 0 and finite"):
                mean_cos_uniform(xi)


# Coverage runs, fixed before the test was first run: seed s uses COVERAGE_PARAMS[s % 4]. Each run has one tau,
# because the rows of one run share their draws; the two modes draw under different salts, so all runs are
# independent. Every (A_tilde, B_tilde, tau) has phase span xi = (A_tilde + B_tilde) tau in [1.6, 2.7], where
# the per-instance probability is spread over (0, 1).
COVERAGE_SEEDS = range(1, 1201)
COVERAGE_PARAMS = [(1.0, 0.5, 1.3), (2.0, 2.0, 0.4), (0.7, 0.2, 3.0), (3.0, 1.0, 0.5)]
COVERAGE_N = 2000
COVERAGE_RATE = math.erf(math.sqrt(2.0))  # P(|Z| <= 2) = 0.9545 for a normal Z


def binomial_acceptance(trials: int, p: float, alpha: float) -> tuple[int, int]:
    """Acceptance region [lo, hi] of the two-sided level-alpha test of X ~ Binomial(trials, p).

    Each tail outside it, P(X < lo) and P(X > hi), holds at most alpha / 2.
    """
    pmf = [
        math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                 + k * math.log(p) + (trials - k) * math.log1p(-p))
        for k in range(trials + 1)
    ]
    lo, tail = 0, 0.0
    while tail + pmf[lo] <= alpha / 2:
        tail += pmf[lo]
        lo += 1
    hi, tail = trials, 0.0
    while tail + pmf[hi] <= alpha / 2:
        tail += pmf[hi]
        hi -= 1
    return lo, hi


class TestCoverage:
    @pytest.mark.parametrize("mode", ["uniform_argument", "independent_uniform"])
    def test_error_bars_cover_the_truth_at_their_stated_rate(self, mode):
        # A two-sided binomial test of the count of rows with |p_mean - p_analytic| <= 2 p_stderr against the
        # nominal 95.45%: with correct error bars it fails with probability at most 1e-4.
        covered = 0
        for seed in COVERAGE_SEEDS:
            a_tilde, b_tilde, tau = COVERAGE_PARAMS[seed % len(COVERAGE_PARAMS)]
            params = {"A_tilde": a_tilde, "B_tilde": b_tilde, "mode": mode, "tau": tau, "n": COVERAGE_N}
            (row,) = run({"experiment": "stochastic", "seed": seed, "params": params}).outputs["rows"]
            covered += abs(row["p_mean"] - row["p_analytic"]) <= 2.0 * row["p_stderr"]
        lo, hi = binomial_acceptance(len(COVERAGE_SEEDS), COVERAGE_RATE, 1e-4)
        assert lo <= covered <= hi, (covered, lo, hi)
