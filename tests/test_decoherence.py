"""Exact-propagation measurement model vs its closed form, and the averaged limit."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import clab.decoherence as decoherence
import clab.montecarlo as montecarlo
import clab.stochastic as stochastic
from clab.decoherence import (
    DetectorModel,
    MeasurementResult,
    build_interaction,
    decohered_probability,
    decohered_probability_sweep,
    initial_product_state,
    prob_closed_form,
    prob_full_propagation,
    propagate_exact,
    sample_random_detector,
)
from clab.montecarlo import derive_seed
from clab.qcore import HermitianOperator, PhysicalConstants, expm_propagator

SQRT_HALF = 1.0 / math.sqrt(2.0)


class TestInitialSuperposition:
    """The particle factor (|0> + |1>)/sqrt(2) of the initial product state."""

    def test_equal_amplitudes(self):
        # A one-configuration detector leaves the particle amplitudes bare.
        psi = initial_product_state(DetectorModel([1.0], [0.0], [0.0]))
        np.testing.assert_allclose(psi.amps, [SQRT_HALF, SQRT_HALF], atol=1e-16)

    def test_normalized(self):
        psi = initial_product_state(sample_random_detector(6, 5.0, seed=3))
        assert psi.norm() == pytest.approx(1.0, abs=1e-15)

    def test_overlap_with_zero_ket(self):
        # <0| (x) <a| applied to the product state leaves 1/sqrt(2).
        d = sample_random_detector(5, 5.0, seed=4)
        ket0_a = np.kron([1.0, 0.0], d.a)
        psi = initial_product_state(d)
        assert np.vdot(ket0_a, psi.amps) == pytest.approx(SQRT_HALF, abs=1e-15)


class TestDetectorModel:
    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError, match="sum"):
            DetectorModel([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="mismatched"):
            DetectorModel([1.0], [0.0, 1.0], [0.0])

    def test_rejects_non_finite_energy(self):
        with pytest.raises(ValueError, match="finite"):
            DetectorModel([1.0], [np.inf], [0.0])


class TestBuildInteraction:
    def test_single_configuration(self):
        d = DetectorModel([1.0], [2.0], [3.0])
        np.testing.assert_array_equal(build_interaction(d), [2.0, 3.0])

    def test_zero_energies_zero_operator(self):
        d = DetectorModel([SQRT_HALF, SQRT_HALF], [0.0, 0.0], [0.0, 0.0])
        assert np.abs(build_interaction(d)).max() == 0.0

    def test_real_diagonal_is_hermitian(self):
        d = sample_random_detector(8, 5.0, seed=1)
        energies = build_interaction(d)
        assert energies.dtype == np.float64  # real energies on the diagonal make the operator Hermitian
        assert HermitianOperator.from_dense(np.diag(energies)).dim == 16


class TestPropagateExact:
    def test_zero_time_returns_product_state(self):
        d = sample_random_detector(6, 3.0, seed=2)
        np.testing.assert_allclose(
            propagate_exact(d, 0.0).amps, initial_product_state(d).amps, atol=1e-15
        )

    def test_single_configuration_phases(self):
        # K=1, a=[1]: the two branches pick up exactly exp(-i tau A/hbar)
        # and exp(-i tau B/hbar).
        d = DetectorModel([1.0], [2.0], [5.0])
        tau = 0.7
        out = propagate_exact(d, tau)
        np.testing.assert_allclose(out.amps[0], SQRT_HALF * np.exp(-1j * tau * 2.0), atol=1e-14)
        np.testing.assert_allclose(out.amps[1], SQRT_HALF * np.exp(-1j * tau * 5.0), atol=1e-14)

    def test_norm_preserved(self):
        d = sample_random_detector(32, 10.0, seed=3)
        assert propagate_exact(d, 2.5).norm() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("K", [1, 8, 64])
    def test_matches_kernel_exponential(self, K):
        # The phase vector is the exact exponential of the interaction operator.
        d = sample_random_detector(K, 7.0, seed=K)
        c = PhysicalConstants(hbar=0.7)
        tau = 1.3
        h = HermitianOperator.from_dense(np.diag(build_interaction(d)))
        expected = expm_propagator(h, tau, c).apply(initial_product_state(d))
        np.testing.assert_allclose(propagate_exact(d, tau, c).amps, expected.amps, rtol=0, atol=1e-12)

    def test_rejects_negative_tau(self):
        d = DetectorModel([1.0], [0.0], [0.0])
        with pytest.raises(ValueError, match="tau"):
            propagate_exact(d, -1.0)


class TestProbabilities:
    def test_zero_time_is_certain(self):
        d = sample_random_detector(16, 4.0, seed=4)
        assert prob_closed_form(d, 0.0).p_sx_plus == pytest.approx(1.0, abs=1e-15)
        assert prob_full_propagation(d, 0.0).p_sx_plus == pytest.approx(1.0, abs=1e-12)

    def test_half_turn_kills_single_configuration(self):
        # (A - B) tau / hbar = pi makes cos^2(pi/2) = 0.
        d = DetectorModel([1.0], [math.pi], [0.0])
        assert prob_closed_form(d, 1.0).p_sx_plus == pytest.approx(0.0, abs=1e-15)

    def test_zero_interaction_two_configurations(self):
        d = DetectorModel([SQRT_HALF, SQRT_HALF], [0.0, 0.0], [0.0, 0.0])
        assert prob_full_propagation(d, 3.0).p_sx_plus == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("trial", range(20))
    def test_closed_form_matches_full_propagation(self, trial):
        rng = np.random.default_rng(trial)
        k = int(rng.integers(1, 65))
        scale = float(rng.uniform(0.1, 100.0))
        tau = float(rng.uniform(0.0, 5.0))
        d = sample_random_detector(k, scale, seed=trial)
        closed = prob_closed_form(d, tau).p_sx_plus
        full = prob_full_propagation(d, tau).p_sx_plus
        assert abs(closed - full) <= 1e-10

    def test_closed_form_with_nontrivial_hbar(self):
        d = DetectorModel([1.0], [math.pi], [0.0])
        c = PhysicalConstants(hbar=2.0)
        # (A - B) tau / (2 hbar) = pi/4 -> cos^2 = 1/2
        assert prob_closed_form(d, 1.0, c).p_sx_plus == pytest.approx(
            math.cos(math.pi / 4.0) ** 2, abs=1e-14
        )

    def test_period_in_tau_for_single_configuration(self):
        d = DetectorModel([1.0], [3.0], [1.0])
        period = 2.0 * math.pi / 2.0  # 2 pi hbar / |A - B|
        for tau in (0.3, 1.1, 2.9):
            base = prob_closed_form(d, tau).p_sx_plus
            for m in (1, 2, 3):
                assert prob_closed_form(d, tau + m * period).p_sx_plus == pytest.approx(base, abs=1e-9)

    def test_probability_range_on_random_models(self):
        for trial in range(50):
            d = sample_random_detector(12, 50.0, seed=trial + 100)
            p = prob_closed_form(d, 1.7).p_sx_plus
            assert 0.0 <= p <= 1.0 + 1e-12

    def test_global_phase_invariance(self):
        d = sample_random_detector(10, 8.0, seed=9)
        tau = 1.3
        base_closed = prob_closed_form(d, tau).p_sx_plus
        base_full = prob_full_propagation(d, tau).p_sx_plus
        # Exactly representable unit phases leave the closed form bit-identical.
        for phase in (1j, -1.0, -1j):
            rotated = DetectorModel(d.a * phase, d.energies_0, d.energies_1)
            assert prob_closed_form(rotated, tau).p_sx_plus == base_closed
            assert abs(prob_full_propagation(rotated, tau).p_sx_plus - base_full) <= 1e-12
        # A generic phase rounds the inputs themselves; allow ulp-level slack.
        rotated = DetectorModel(d.a * np.exp(0.7j), d.energies_0, d.energies_1)
        assert prob_closed_form(rotated, tau).p_sx_plus == pytest.approx(base_closed, abs=5e-15)
        assert abs(prob_full_propagation(rotated, tau).p_sx_plus - base_full) <= 1e-12

    def test_result_type_validates(self):
        with pytest.raises(ValueError, match="range"):
            MeasurementResult(p_sx_plus=1.5)


class TestSampleRandomDetector:
    def test_amplitudes_normalized(self):
        d = sample_random_detector(500, 2.0, seed=11)
        assert np.sum(np.abs(d.a) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_energies_in_range(self):
        d = sample_random_detector(1000, 7.5, seed=12)
        for energies in (d.energies_0, d.energies_1):
            assert energies.min() >= 0.0 and energies.max() <= 7.5

    def test_fixed_seed_reproduces_model(self):
        d1 = sample_random_detector(64, 3.0, seed=13)
        d2 = sample_random_detector(64, 3.0, seed=13)
        np.testing.assert_array_equal(d1.a, d2.a)
        np.testing.assert_array_equal(d1.energies_0, d2.energies_0)
        np.testing.assert_array_equal(d1.energies_1, d2.energies_1)

    def test_all_zero_draw_falls_back_to_first_configuration(self, monkeypatch):
        def zeros(seed, idx):
            return np.zeros(np.broadcast(seed, idx).shape)

        # One patch covers both paths: the detector and the sweep draw their moduli alike.
        monkeypatch.setattr(decoherence, "standard_exponential", zeros)
        np.testing.assert_array_equal(np.abs(sample_random_detector(4, 1.0, seed=0).a) ** 2, [1.0, 0.0, 0.0, 0.0])
        sweep = decohered_probability_sweep(4, 1.0, TAUS, seed=0, trials=3)
        assert [(e.mean, e.stderr) for e in sweep] == scalar_sweep(4, 1.0, TAUS, PhysicalConstants(), 0, 3)

    def test_weights_are_the_normalised_exponential_draws(self):
        d = sample_random_detector(1000, 1.0, seed=5)
        e = montecarlo.standard_exponential(derive_seed(5, "amplitude"), np.arange(1000, dtype=np.uint64))
        np.testing.assert_allclose(np.abs(d.a) ** 2, e / e.sum(), rtol=1e-14)

    def test_amplitude_moments(self):
        # Sphere-uniform amplitudes: sqrt(K) a_k is close to a complex normal with E|z|^2 = 1 at large K.
        K = 1_000_000
        z = math.sqrt(K) * sample_random_detector(K, 1.0, seed=99).a
        re, im = z.real, z.imag
        for part in (re, im):
            assert abs(part.mean()) <= 4.0 * math.sqrt(0.5 / K)
            assert abs(part.var() - 0.5) <= 4.0 * 0.5 * math.sqrt(2.0 / K)
        assert abs(np.corrcoef(re, im)[0, 1]) <= 4.0 / math.sqrt(K)
        # K |a_k|^2 has mean 1 exactly and variance (K - 1) / (K + 1), about Exp(1)'s (whose fourth moment is 9).
        w = np.abs(z) ** 2
        assert w.mean() == pytest.approx(1.0, abs=1e-12)
        assert abs(w.var() - (K - 1) / (K + 1)) <= 4.0 * math.sqrt(8.0 / K)
        # Uniform phases: the first two circular moments vanish, and the phase is independent of the modulus.
        phase = z / np.abs(z)
        for m in (1, 2):
            assert abs(np.mean(phase**m)) <= 4.0 / math.sqrt(K)
        assert abs(np.corrcoef(w, phase.real)[0, 1]) <= 4.0 / math.sqrt(K)

    @pytest.mark.parametrize("seed, same", [(-1, 2**64 - 1), (2**64 + 5, 5)])
    def test_seed_taken_modulo_2_to_the_64(self, seed, same):
        d1 = sample_random_detector(16, 3.0, seed=seed)
        d2 = sample_random_detector(16, 3.0, seed=same)
        np.testing.assert_array_equal(d1.a, d2.a)
        np.testing.assert_array_equal(d1.energies_0, d2.energies_0)
        np.testing.assert_array_equal(d1.energies_1, d2.energies_1)


class TestDecoheredProbability:
    def test_zero_spread_is_exactly_one(self):
        est = decohered_probability(K=50, energy_scale=5.0, tau=0.0, seed=1, trials=10)
        assert est.mean == 1.0

    def test_classical_limit_band(self):
        est = decohered_probability(K=1000, energy_scale=1e4, tau=1.0, seed=2, trials=40)
        assert abs(est.mean - 0.5) <= 0.02

    def test_single_huge_detector_self_averages(self):
        # One draw with K = 10^4 configurations already sits near 1/2 by
        # the law of large numbers over k.
        d = sample_random_detector(10_000, 1e4, seed=21)
        assert abs(prob_closed_form(d, 1.0).p_sx_plus - 0.5) <= 0.02

    def test_classical_regression_fixed_seed(self):
        est = decohered_probability(K=1000, energy_scale=1e3, tau=1.0, seed=31415, trials=30)
        assert 0.48 <= est.mean <= 0.52

    def test_reproducible(self):
        a = decohered_probability(K=20, energy_scale=10.0, tau=0.5, seed=5, trials=8)
        b = decohered_probability(K=20, energy_scale=10.0, tau=0.5, seed=5, trials=8)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)


def scalar_sweep(K, energy_scale, taus, c, seed, trials):
    """(mean, stderr) per tau from one scalar draw and closed form per trial."""
    detectors = [sample_random_detector(K, energy_scale, derive_seed(seed, "detector", i)) for i in range(trials)]
    out = []
    for tau in taus:
        vals = np.array([prob_closed_form(d, tau, c).p_sx_plus for d in detectors])
        stderr = float(np.std(vals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        out.append((float(np.sum(vals) / trials), stderr))
    return out


TAUS = [0.0, 1e-3, 0.37, 1.0, 25.0]


class TestDecoheredProbabilitySweep:
    @pytest.mark.parametrize(
        "trials, K",
        # K = 10,000 rows are longer than numpy's 8,192-element buffer, and 4096 one-configuration rows are many.
        [(trials, K) for K in (1, 8, 1000) for trials in (1, 2, 100)] + [(1, 10_000), (2, 10_000), (7, 10_000), (4096, 1)],
    )
    def test_matches_scalar_oracle_within_1e_15(self, K, trials):
        # The oracle's |a_k|^2, with a_k = sqrt(w_k) exp(2 pi i v_k), rounds apart from the sweep's weights w_k
        # by ulps; several chunks also merge by Chan's update.
        c = PhysicalConstants(hbar=0.7)
        sweep = decohered_probability_sweep(K, 40.0, TAUS, c, seed=2**64 - 1, trials=trials)
        expected = scalar_sweep(K, 40.0, TAUS, c, 2**64 - 1, trials)
        np.testing.assert_allclose([(e.mean, e.stderr) for e in sweep], expected, rtol=0, atol=1e-15)
        assert all(e.n == trials for e in sweep)

    def test_tau_list_matches_single_tau_calls(self):
        sweep = decohered_probability_sweep(30, 12.0, TAUS, seed=44, trials=17)
        for tau, est in zip(TAUS, sweep):
            assert est == decohered_probability(30, 12.0, tau, seed=44, trials=17)

    def test_chunk_boundaries_do_not_change_results(self, monkeypatch):
        whole = decohered_probability_sweep(8, 5.0, TAUS, seed=3, trials=23)
        expected = scalar_sweep(8, 5.0, TAUS, PhysicalConstants(), 3, 23)
        np.testing.assert_allclose([(e.mean, e.stderr) for e in whole], expected, rtol=0, atol=1e-15)
        monkeypatch.setattr(montecarlo, "SWEEP_CHUNK", 5 * 8 + 3)  # chunks of 5 trials, the last of 3
        chunked = decohered_probability_sweep(8, 5.0, TAUS, seed=3, trials=23)
        assert all(e.n == 23 for e in chunked)
        moments = [[(e.mean, e.stderr) for e in sweep] for sweep in (chunked, whole)]
        np.testing.assert_allclose(*moments, rtol=0, atol=1e-15)

    def test_draw_size_bounded_by_chunk(self, monkeypatch):
        """Both routes draw every trial exactly once, in contiguous ranges of at most one chunk."""
        monkeypatch.setattr(montecarlo, "SWEEP_CHUNK", 1000)
        ranges = []
        sweep = montecarlo.cos_squared_sweep

        def recording(draw, trials, K, *args):
            def draw_and_record(lo, hi):
                weights, gaps = draw(lo, hi)
                assert gaps.size == (hi - lo) * K and (weights is None or weights.shape == gaps.shape)
                ranges.append((lo, hi))
                return weights, gaps

            return sweep(draw_and_record, trials, K, *args)

        for module in (decoherence, stochastic):
            monkeypatch.setattr(module, "cos_squared_sweep", recording)
        s = stochastic.StochasticInteraction(1.0, 2.0)
        routes = [
            (lambda: decohered_probability_sweep(64, 5.0, [1.0, 2.0], seed=0, trials=100), 100, 64),
            (lambda: decohered_probability_sweep(5000, 5.0, [1.0], seed=0, trials=3), 3, 5000),  # K above the chunk
            (lambda: stochastic.mc_probability_sweep(s, [1.0, 2.0], n=2500), 2500, 1),
        ]
        for run, trials, K in routes:
            ranges.clear()
            run()
            assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]] and ranges[-1][1] == trials
            assert all(lo < hi and ((hi - lo) * K <= 1000 or hi - lo == 1) for lo, hi in ranges)
        assert ranges == [(0, 1000), (1000, 2000), (2000, 2500)]

    def test_memory_does_not_grow_with_taus(self):
        tracemalloc.start()
        try:
            decohered_probability_sweep(1, 30.0, [0.0], seed=7, trials=200_000)
            one = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            decohered_probability_sweep(1, 30.0, np.linspace(0.0, 5.0, 48).tolist(), seed=7, trials=200_000)
            many = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert many <= one + (1 << 20)

    def test_normalisation_check_kept(self, monkeypatch):
        # Infinite moduli normalise to NaN weights.
        def infinite(seed, idx):
            return np.full(np.broadcast(seed, idx).shape, np.inf)

        monkeypatch.setattr(decoherence, "standard_exponential", infinite)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="sum"):
            decohered_probability_sweep(4, 1.0, [1.0], seed=0, trials=3)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tau_is_refused_by_name(self, tau):
        d = DetectorModel([1.0], [0.0], [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: decohered_probability_sweep(4, 1.0, [1.0, tau], seed=0, trials=3),
                lambda: decohered_probability(4, 1.0, tau, seed=0, trials=3),
                lambda: prob_closed_form(d, tau),
                lambda: propagate_exact(d, tau),
            ):
                with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
                    call()

    def test_rejects_negative_tau_and_bad_sizes(self):
        with pytest.raises(ValueError, match="tau"):
            decohered_probability_sweep(4, 1.0, [1.0, -0.5], seed=0, trials=3)
        with pytest.raises(ValueError, match="trials"):
            decohered_probability_sweep(4, 1.0, [1.0], trials=0)
        with pytest.raises(ValueError, match="K"):
            decohered_probability_sweep(0, 1.0, [1.0])
        with pytest.raises(ValueError, match="energy_scale"):
            decohered_probability_sweep(4, 0.0, [1.0])
