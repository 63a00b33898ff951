"""Acceptance suite: one test per exit criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Budgets are wall-clock seconds on a desk-scale machine.
"""
import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from clab.decoherence import (
    decohered_probability,
    prob_closed_form,
    prob_full_propagation,
    propagate_exact,
    sample_random_detector,
)
from clab.montecarlo import UniformInterval, mc_mean, sample_uniform
from clab.qcore import HermitianOperator, expm_propagator
from clab.reduction import (
    SpectralDecisionInstance,
    brute_force_exact_cover,
    decide_energy_threshold,
    ground_energy,
    load_instance,
    reduce_energy_decision,
    verify_eigenpair,
)
from clab.runner import run
from clab.stochastic import (
    StochasticInteraction,
    mc_probability,
    mean_cos_uniform,
    overlap_probability,
    sample_energies,
)

REPO = Path(__file__).resolve().parents[1]
INSTANCES = REPO / "instances"


def _report(num: int, description: str) -> None:
    print(f"\ncriterion {num} ({description}): PASS")


def test_criterion_1_classical_limit_decoherence_route():
    started = time.perf_counter()
    est = decohered_probability(K=1000, energy_scale=1e4, tau=1.0, seed=101, trials=100)
    elapsed = time.perf_counter() - started
    assert abs(est.mean - 0.5) <= 0.02, f"mean {est.mean} outside 0.5 +- 0.02"
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    _report(1, f"detector-averaged mean {est.mean:.4f} in 0.5 +- 0.02, {elapsed:.2f}s")


def test_criterion_2_classical_limit_stochastic_route():
    started = time.perf_counter()
    s = StochasticInteraction(a_tilde=5e3, b_tilde=5e3, mode="uniform_argument")
    est = mc_probability(s, tau=1.0, seed=202, n=1_000_000)
    elapsed = time.perf_counter() - started
    assert abs(est.mean - 0.5) <= 0.005, f"mean {est.mean} outside 0.5 +- 0.005"
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
    _report(2, f"stochastic mean {est.mean:.5f} in 0.5 +- 0.005, {elapsed:.2f}s")


def test_criterion_3_closed_form_vs_propagation_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(200):
        k = int(rng.integers(1, 65))
        scale = float(rng.uniform(0.1, 500.0))
        tau = float(rng.uniform(0.0, 2.0))
        d = sample_random_detector(k, scale, seed=trial)
        gap = abs(prob_closed_form(d, tau).p_sx_plus - prob_full_propagation(d, tau).p_sx_plus)
        worst = max(worst, gap)
        assert gap <= 1e-10, f"model {trial} (K={k}): |closed - full| = {gap:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    _report(3, f"200 models agree, worst gap {worst:.2e} <= 1e-10, {elapsed:.2f}s")


def test_criterion_4_expansion_identity():
    s = StochasticInteraction(a_tilde=3.0, b_tilde=1.0, mode="independent_uniform")
    tau = 1.3
    sample = sample_energies(s, seed=404, index=np.arange(100_000))
    expansion = overlap_probability(s, sample, tau)
    direct = (
        np.abs(
            0.5 * np.exp(-1j * tau * (s.a_tilde + sample.alpha))
            + 0.5 * np.exp(-1j * tau * (s.b_tilde + sample.beta))
        )
        ** 2
    )
    worst = float(np.abs(expansion - direct).max())
    assert worst <= 1e-12, f"worst expansion gap {worst:.2e}"
    _report(4, f"10^5 samples, expansion vs direct modulus gap {worst:.1e} <= 1e-12")


def test_criterion_5_sinc_average():
    for xi in (0.1, math.pi, 10.0, 1e3):
        interval = UniformInterval(-xi, xi)

        def cos_of_draw(idx, seed):
            return np.cos(sample_uniform(interval, seed, idx))

        est = mc_mean(cos_of_draw, 400_000, seed=505)
        analytic = mean_cos_uniform(xi)
        stderr = max(est.stderr, 1e-12)
        assert abs(est.mean - analytic) <= 4.0 * stderr, (
            f"xi={xi}: MC {est.mean} vs sin(xi)/xi {analytic}, stderr {est.stderr}"
        )
    assert abs(mean_cos_uniform(1e4)) <= 1e-4
    _report(5, "MC cosine average matches sin(xi)/xi at 4 stderr; |sinc(1e4)| <= 1e-4")


@pytest.mark.parametrize(
    "name,budget",
    [("ec_n3_single.json", 30.0), ("ec_n6_unique.json", 30.0), ("ec_n8_unique.json", 60.0)],
)
def test_criterion_6_adiabatic_exact_cover(name, budget):
    inst = load_instance(INSTANCES / name)
    satisfying = brute_force_exact_cover(inst)
    assert satisfying, "bundled instance must be satisfiable"
    if inst.n > 3:
        assert len(satisfying) == 1, "bundled instances above n=3 must have unique solutions"
    started = time.perf_counter()
    record = run(
        {
            "experiment": "adiabatic",
            "seed": 0,
            "params": {
                "instance_path": str(INSTANCES / name),
                "schedule": {"T_min": 1.0, "doublings": 7, "target": 0.9},
            },
        }
    )
    elapsed = time.perf_counter() - started
    summary = record.outputs["summary"]
    final = record.outputs["rows"][-1]["success_probability"]
    assert final >= 0.9, f"{name}: sweep topped out at {final:.3f}"
    assert summary["most_probable_satisfies"] is True
    assert summary["most_probable_bitstring"] in satisfying
    assert elapsed < budget, f"{name}: took {elapsed:.1f}s, budget {budget}s"
    _report(6, f"{name}: success {final:.3f} >= 0.9, best bitstring verified, {elapsed:.1f}s")


def test_criterion_7_spectral_decision():
    grid_points = 512
    box_length = 20.0
    dx = box_length / (grid_points + 1)
    x = dx * np.arange(1, grid_points + 1)
    potential = 0.5 * (x - box_length / 2.0) ** 2  # m = omega = 1

    def instance(threshold):
        return SpectralDecisionInstance(
            grid_points=grid_points, box_length=box_length, mass=1.0, potential=potential, threshold=threshold
        )

    h, _ = reduce_energy_decision(instance(1.0))
    e0 = ground_energy(h)
    assert abs(e0 - 0.5) / 0.5 < 0.01, f"ground energy {e0} vs hbar omega / 2 = 0.5"
    assert decide_energy_threshold(instance(1.0)) is True
    assert decide_energy_threshold(instance(0.25)) is False
    _report(7, f"harmonic ground {e0:.5f} within 1% of 0.5; threshold decisions correct")


def test_criterion_8_verifier_over_randomized_hamiltonians():
    rng = np.random.default_rng(808)
    tol = 1e-8
    for trial in range(50):
        n = int(rng.integers(48, 200))
        length = float(rng.uniform(4.0, 15.0))
        # smooth random potential: a few Fourier modes
        x = np.linspace(0, 1, n)
        v = sum(
            float(rng.uniform(-5, 5)) * np.sin((m + 1) * math.pi * x + float(rng.uniform(0, 2 * math.pi)))
            for m in range(4)
        )
        inst = SpectralDecisionInstance(
            grid_points=n, box_length=length, mass=float(rng.uniform(0.5, 2.0)), potential=v, threshold=0.0
        )
        h, _ = reduce_energy_decision(inst)
        w, vecs = np.linalg.eigh(h.dense())
        norm = float(np.abs(w).max())
        for idx in (0, n // 2, n - 1):
            assert verify_eigenpair(h, vecs[:, idx], w[idx], tol=tol), f"trial {trial}: rejected exact pair"
            assert not verify_eigenpair(h, vecs[:, idx], w[idx] + 10.0 * tol * norm, tol=tol), (
                f"trial {trial}: accepted perturbed energy"
            )
    _report(8, "50 random grid operators: exact pairs accepted, 10*tol*|H| perturbations rejected")


def test_criterion_9_property_suite():
    # Norm preservation through exact propagation.
    d = sample_random_detector(64, 25.0, seed=900)
    assert abs(propagate_exact(d, 3.0).norm() - 1.0) <= 1e-10

    # Unitarity of the exponential route.
    rng = np.random.default_rng(901)
    for dim in (2, 32, 256):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = HermitianOperator.from_dense((m + m.conj().T) / 2.0)
        assert expm_propagator(h, 0.7).unitarity_defect() <= 1e-10

    # Probability range across both measurement models.
    for trial in range(40):
        d = sample_random_detector(16, 200.0, seed=trial)
        p = prob_closed_form(d, 1.1).p_sx_plus
        assert -1e-12 <= p <= 1.0 + 1e-12
    s = StochasticInteraction(a_tilde=40.0, b_tilde=10.0)
    sample = sample_energies(s, seed=902, index=np.arange(10_000))
    probs = overlap_probability(s, sample, 2.2)
    assert np.all(probs >= -1e-12) and np.all(probs <= 1.0 + 1e-12)

    # Determinism under a fixed seed, module by module.
    assert decohered_probability(50, 100.0, 1.0, seed=903, trials=10) == decohered_probability(
        50, 100.0, 1.0, seed=903, trials=10
    )
    assert mc_probability(s, 1.0, seed=904, n=1000) == mc_probability(s, 1.0, seed=904, n=1000)
    config = {
        "experiment": "compare",
        "seed": 905,
        "params": {"K": 20, "energy_scale": 50.0, "tau": 1.0, "trials": 10, "n": 1000},
    }
    payload_a = dataclasses.asdict(run(config))
    payload_b = dataclasses.asdict(run(config))
    payload_a.pop("wall_clock_s")
    payload_b.pop("wall_clock_s")
    assert json.dumps(payload_a, sort_keys=True) == json.dumps(payload_b, sort_keys=True)
    _report(9, "norm preservation, unitarity, probability range, fixed-seed determinism")
