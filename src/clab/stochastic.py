"""Stochastic-Hamiltonian measurement model and its analytic average.

Instead of tracking detector microstates, the interaction energies carry
bounded random uncertainties: per experiment instance the |0> branch sees
A_tilde + alpha and the |1> branch sees B_tilde + beta, each drawn once
and constant over the interaction window. The solution is a pure phase on
each branch, the per-instance return probability expands into

    1/2 + (1/2) cos(D tau/hbar) cos(delta tau/hbar)
        - (1/2) sin(D tau/hbar) sin(delta tau/hbar),

with D = A_tilde - B_tilde and delta = alpha - beta, and averaging over a
uniformly distributed phase argument multiplies the oscillatory part by
sin(xi)/xi where xi = (A_tilde + B_tilde) tau / hbar. Large xi kills the
oscillation and leaves the classical value 1/2.

Two sampling modes exist because the bounds constrain alpha and beta
separately while the averaging rule treats the *difference* as uniform:
``uniform_argument`` (default) draws delta uniformly on the full span;
``independent_uniform`` draws alpha and beta independently, whose average
carries a product of two sinc envelopes instead (reported, not asserted).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import MonteCarloEstimate, UniformInterval, derive_seed, mc_estimate, sample_uniform
from .qcore import NATURAL_UNITS, PhysicalConstants, StateVector

__all__ = [
    "SAMPLING_MODES",
    "StochasticInteraction",
    "EnergySample",
    "StochasticSolution",
    "sample_energies",
    "evolve_stochastic",
    "overlap_probability",
    "phase_span",
    "mean_cos_uniform",
    "analytic_mean_probability",
    "mc_probability",
    "mc_probability_sweep",
]

_SQRT_HALF = 1.0 / math.sqrt(2.0)

SAMPLING_MODES = ("uniform_argument", "independent_uniform")


@dataclass(frozen=True)
class StochasticInteraction:
    """Best-guess branch energies with maximal bounded uncertainties."""

    a_tilde: float
    b_tilde: float
    mode: str = "uniform_argument"

    def __post_init__(self):
        for name, value in (("a_tilde", self.a_tilde), ("b_tilde", self.b_tilde)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.mode not in SAMPLING_MODES:
            raise ValueError(f"mode must be one of {SAMPLING_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class EnergySample:
    """One instance (alpha, beta) of the energy uncertainties.

    In ``uniform_argument`` mode only the difference is drawn; it is
    stored in ``alpha`` with ``beta`` fixed at 0, which leaves every
    difference-dependent quantity unchanged.
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray


@dataclass(frozen=True)
class StochasticSolution:
    """Pure phases acquired by the two equal-weight branches."""

    c0_phase: float
    c1_phase: float

    def state(self) -> StateVector:
        return StateVector([_SQRT_HALF * np.exp(1j * self.c0_phase), _SQRT_HALF * np.exp(1j * self.c1_phase)])


def sample_energies(s: StochasticInteraction, seed: int, index) -> EnergySample:
    """Draw the uncertainties for instance ``index`` (int or index array)."""
    if s.mode == "independent_uniform":
        alpha = sample_uniform(UniformInterval(-s.a_tilde, s.a_tilde), derive_seed(seed, "alpha"), index)
        beta = sample_uniform(UniformInterval(-s.b_tilde, s.b_tilde), derive_seed(seed, "beta"), index)
        return EnergySample(alpha=alpha, beta=beta)
    span = s.a_tilde + s.b_tilde
    delta = sample_uniform(UniformInterval(-span, span), derive_seed(seed, "delta"), index)
    return EnergySample(alpha=delta, beta=0.0)


def evolve_stochastic(
    s: StochasticInteraction,
    sample: EnergySample,
    tau: float,
    c: PhysicalConstants = NATURAL_UNITS,
) -> StochasticSolution:
    """Exact evolution of (|0> + |1>)/sqrt(2) under one energy instance.

    The generator is diagonal, so the exponential is an exact phase per
    branch: -tau (A_tilde + alpha)/hbar on |0> and -tau (B_tilde + beta)/hbar
    on |1>.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return StochasticSolution(
        c0_phase=-tau * (s.a_tilde + float(sample.alpha)) / c.hbar,
        c1_phase=-tau * (s.b_tilde + float(sample.beta)) / c.hbar,
    )


def overlap_probability(
    s: StochasticInteraction,
    sample: EnergySample,
    tau: float,
    c: PhysicalConstants = NATURAL_UNITS,
):
    """Per-instance return probability |<initial|evolved>|^2.

    Evaluates the trigonometric expansion in the module docstring; accepts
    scalar samples or arrays (vectorized over instances).
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    d_angle = (s.a_tilde - s.b_tilde) * tau / c.hbar
    delta_angle = (np.asarray(sample.alpha) - np.asarray(sample.beta)) * tau / c.hbar
    p = 0.5 + 0.5 * np.cos(d_angle) * np.cos(delta_angle) - 0.5 * np.sin(d_angle) * np.sin(delta_angle)
    return p if np.ndim(p) else float(p)


def phase_span(s: StochasticInteraction, tau: float, c: PhysicalConstants = NATURAL_UNITS) -> float:
    """Maximal dimensionless span (A_tilde + B_tilde) tau / hbar of the random phase."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return (s.a_tilde + s.b_tilde) * tau / c.hbar


def mean_cos_uniform(xi: float) -> float:
    """Average of cos over a uniform argument on [-xi, xi]: sin(xi)/xi.

    Small arguments use the series 1 - xi^2/6 to avoid the 0/0 corner.
    """
    if xi < 0:
        raise ValueError(f"xi must be >= 0, got {xi}")
    if xi < 1e-4:
        return 1.0 - xi * xi / 6.0
    return math.sin(xi) / xi


def analytic_mean_probability(s: StochasticInteraction, tau: float, c: PhysicalConstants = NATURAL_UNITS) -> float:
    """Expected return probability under the sampling mode's own law.

    uniform_argument: 1/2 + (1/2) cos(D tau/hbar) * sinc(span). The sine
    term averages to zero by the symmetry of the argument's limits.
    independent_uniform: the cosine average factorizes into
    sinc(A_tilde tau/hbar) * sinc(B_tilde tau/hbar).
    """
    d_angle = (s.a_tilde - s.b_tilde) * tau / c.hbar
    if s.mode == "independent_uniform":
        envelope = mean_cos_uniform(s.a_tilde * tau / c.hbar) * mean_cos_uniform(s.b_tilde * tau / c.hbar)
    else:
        envelope = mean_cos_uniform(phase_span(s, tau, c))
    return 0.5 + 0.5 * math.cos(d_angle) * envelope


def mc_probability_sweep(
    s: StochasticInteraction,
    taus,
    c: PhysicalConstants = NATURAL_UNITS,
    seed: int = 0,
    n: int = 100_000,
) -> list[MonteCarloEstimate]:
    """``mc_probability`` for every tau in ``taus``, on one draw of n instances.

    The energies are sampled once and every tau is evaluated on them, so
    each estimate equals the single-tau call bit for bit.
    """
    if n < 2:
        raise ValueError(f"mc_probability needs n >= 2, got {n}")
    sample = sample_energies(s, seed, np.arange(n, dtype=np.uint64))
    return [mc_estimate(overlap_probability(s, sample, tau, c)) for tau in taus]


def mc_probability(
    s: StochasticInteraction,
    tau: float,
    c: PhysicalConstants = NATURAL_UNITS,
    seed: int = 0,
    n: int = 100_000,
) -> MonteCarloEstimate:
    """Monte Carlo mean of the per-instance probability over n instances."""
    return mc_probability_sweep(s, [tau], c, seed, n)[0]
