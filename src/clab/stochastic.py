"""Stochastic-Hamiltonian measurement model and its analytic average.

Instead of tracking detector microstates, the interaction energies carry
bounded random uncertainties: per experiment instance the |0> branch sees
A_tilde + alpha and the |1> branch sees B_tilde + beta, each drawn once
and constant over the interaction window. The solution is a pure phase on
each branch, and the per-instance return probability depends only on the
relative phase of the two branches:

    cos^2((D + delta) tau / 2),

with D = A_tilde - B_tilde, delta = alpha - beta and tau in natural units
(hbar = 1); this is the law of one detector configuration in the
decoherence route. It expands into

    1/2 + (1/2) cos(D tau) cos(delta tau) - (1/2) sin(D tau) sin(delta tau),

and averaging over a uniformly distributed phase argument multiplies the
oscillatory part by sin(xi)/xi where xi = (A_tilde + B_tilde) tau.
Large xi kills the oscillation and leaves the classical value 1/2. The
samples are evaluated in the cos^2 form, by ``qcore.cos_squared`` on the
half angle, which cannot overflow where the phase span xi is finite; that
kernel is the identity cos^2 = 1 / (1 + tan^2) on numpy's float64 tangent.
A tau sweep is ``montecarlo.cos_squared_sweep``, the loop of the decoherence
route, on the gaps alpha - beta + D, formed once per draw.

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

from .montecarlo import MonteCarloEstimate, UniformInterval, cos_squared_sweep, derive_seed, require_tau, sample_uniform
from .qcore import StateVector, cos_squared

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
        width = 2.0 * (max(self.a_tilde, self.b_tilde) if self.mode == "independent_uniform" else self.a_tilde + self.b_tilde)
        if not math.isfinite(width):  # the widest interval an uncertainty is drawn on; it bounds |alpha - beta + D|
            raise ValueError(f"draw interval width {width:g} is not finite")


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


def evolve_stochastic(s: StochasticInteraction, sample: EnergySample, tau: float) -> StochasticSolution:
    """Exact evolution of (|0> + |1>)/sqrt(2) under one energy instance.

    The generator is diagonal, so the exponential is an exact phase per
    branch: -tau (A_tilde + alpha) on |0> and -tau (B_tilde + beta) on |1>.
    """
    require_tau(tau)
    return StochasticSolution(
        c0_phase=-tau * (s.a_tilde + float(sample.alpha)),
        c1_phase=-tau * (s.b_tilde + float(sample.beta)),
    )


def overlap_probability(s: StochasticInteraction, sample: EnergySample, tau: float):
    """Per-instance return probability |<initial|evolved>|^2 = cos^2((D + delta) tau / 2).

    Accepts scalar samples or arrays (vectorized over instances). The half
    angle is (alpha - beta + D) * tau / 2, as the sweep forms it: |alpha -
    beta + D| <= the draw width, finite in every accepted interaction, so the
    half angle is finite wherever the phase span is; the full angle can
    overflow there. ``qcore.cos_squared`` turns it into the probability in place.
    """
    scale = 0.5 * require_tau(tau)
    p = np.asarray(np.subtract(sample.alpha, sample.beta), dtype=np.float64)
    p += s.a_tilde - s.b_tilde
    p *= scale
    cos_squared(p, out=p)
    return p if np.ndim(p) else float(p)


def phase_span(s: StochasticInteraction, tau: float) -> float:
    """Maximal dimensionless span (A_tilde + B_tilde) tau of the random phase."""
    return (s.a_tilde + s.b_tilde) * require_tau(tau)


def mean_cos_uniform(xi: float) -> float:
    """Average of cos over a uniform argument on [-xi, xi]: sin(xi)/xi.

    Small arguments use the series 1 - xi^2/6 to avoid the 0/0 corner.
    """
    if not 0.0 <= xi < math.inf:  # NaN fails too
        raise ValueError(f"xi must be >= 0 and finite, got {xi}")
    if xi < 1e-4:
        return 1.0 - xi * xi / 6.0
    return math.sin(xi) / xi


def analytic_mean_probability(s: StochasticInteraction, tau: float) -> float:
    """Expected return probability under the sampling mode's own law.

    uniform_argument: 1/2 + (1/2) cos(D tau) * sinc(span). The sine term
    averages to zero by the symmetry of the argument's limits.
    independent_uniform: the cosine average factorizes into
    sinc(A_tilde tau) * sinc(B_tilde tau).
    """
    d_angle = (s.a_tilde - s.b_tilde) * require_tau(tau)
    if s.mode == "independent_uniform":
        envelope = mean_cos_uniform(s.a_tilde * tau) * mean_cos_uniform(s.b_tilde * tau)
    else:
        envelope = mean_cos_uniform(phase_span(s, tau))
    return 0.5 + 0.5 * math.cos(d_angle) * envelope


def mc_probability_sweep(
    s: StochasticInteraction,
    taus,
    seed: int = 0,
    n: int = 100_000,
) -> list[MonteCarloEstimate]:
    """``mc_probability`` for every tau in ``taus``, on one draw of n instances.

    Every tau is evaluated on each chunk of instances, so each estimate
    equals the single-tau call bit for bit.
    """
    if n < 2:
        raise ValueError(f"mc_probability needs n >= 2, got {n}")

    def draw(lo, hi):  # gaps alpha - beta + D
        sample = sample_energies(s, seed, np.arange(lo, hi, dtype=np.uint64))
        gaps = np.subtract(sample.alpha, sample.beta, out=sample.alpha)
        gaps += s.a_tilde - s.b_tilde
        return None, gaps

    return cos_squared_sweep(draw, n, 1, taus)


def mc_probability(s: StochasticInteraction, tau: float, seed: int = 0, n: int = 100_000) -> MonteCarloEstimate:
    """Monte Carlo mean of the per-instance probability over n instances."""
    return mc_probability_sweep(s, [tau], seed, n)[0]
