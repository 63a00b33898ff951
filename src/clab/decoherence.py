"""Exact-propagation measurement model and its averaged classical limit.

A spin-1/2 test particle prepared in (|0> + |1>)/sqrt(2) couples to a
detector with K microscopic configurations through an interaction that is
diagonal in the product basis: energy A_k on the |0> branch and B_k on the
|1> branch of configuration k. Propagating the joint state exactly for a
time tau and projecting back onto the initial particle state gives the
closed-form return probability

    P = sum_k |a_k|^2 cos^2((A_k - B_k) tau / (2 hbar)),

which decays to the classical value 1/2 once the dimensionless energy
spread (A_k - B_k) tau / hbar is large and random across configurations.
Averaging over randomly drawn detectors realizes that limit numerically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import MonteCarloEstimate, UniformInterval, derive_seed, mc_estimate, sample_uniform, standard_normal
from .qcore import (
    NATURAL_UNITS,
    HermitianOperator,
    PhysicalConstants,
    StateVector,
    expm_propagator,
    tensor_product,
)

__all__ = [
    "QubitState",
    "DetectorModel",
    "MeasurementResult",
    "initial_superposition",
    "build_interaction",
    "initial_product_state",
    "propagate_exact",
    "prob_closed_form",
    "prob_full_propagation",
    "sample_random_detector",
    "decohered_probability",
    "decohered_probability_sweep",
]

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class QubitState:
    """Two amplitudes on the z-basis states |0> and |1>."""

    c0: complex
    c1: complex

    def __post_init__(self):
        nrm2 = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if not np.isfinite(nrm2) or abs(nrm2 - 1.0) > 1e-12:
            raise ValueError(f"qubit amplitudes must be normalized, got |c0|^2+|c1|^2 = {nrm2!r}")

    def as_state_vector(self) -> StateVector:
        return StateVector([self.c0, self.c1], "qubit")


@dataclass(frozen=True)
class MeasurementResult:
    """Return probability for the initially prepared spin state."""

    p_sx_plus: float

    def __post_init__(self):
        if not (-1e-12 <= self.p_sx_plus <= 1.0 + 1e-12):
            raise ValueError(f"probability out of range: {self.p_sx_plus!r}")


def initial_superposition() -> QubitState:
    """Equal superposition (|0> + |1>)/sqrt(2) the particle starts in."""
    return QubitState(_SQRT_HALF, _SQRT_HALF)


class DetectorModel:
    """Detector with K configurations: amplitudes a_k and branch energies A_k, B_k."""

    __slots__ = ("a", "energies_0", "energies_1")

    def __init__(self, a, energies_0, energies_1):
        a = np.array(a, dtype=np.complex128, copy=True).reshape(-1)
        e0 = np.array(energies_0, dtype=np.float64, copy=True).reshape(-1)
        e1 = np.array(energies_1, dtype=np.float64, copy=True).reshape(-1)
        if a.size < 1:
            raise ValueError("detector needs K >= 1 configurations")
        if not (a.size == e0.size == e1.size):
            raise ValueError(
                f"mismatched lengths: a has {a.size}, energies_0 has {e0.size}, energies_1 has {e1.size}"
            )
        if not (np.all(np.isfinite(a.view(np.float64))) and np.all(np.isfinite(e0)) and np.all(np.isfinite(e1))):
            raise ValueError("detector fields must be finite")
        total = float(np.sum(np.abs(a) ** 2))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"configuration amplitudes must satisfy sum |a_k|^2 = 1, got {total!r}")
        for arr in (a, e0, e1):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "energies_0", e0)
        object.__setattr__(self, "energies_1", e1)

    def __setattr__(self, name, value):
        raise AttributeError("DetectorModel is immutable")

    @property
    def K(self) -> int:
        return self.a.size

    def initial_state(self) -> StateVector:
        return StateVector(self.a, "detector")

    def __repr__(self):
        return f"DetectorModel(K={self.K})"


def build_interaction(d: DetectorModel) -> HermitianOperator:
    """Interaction operator, diagonal on the 2K product basis.

    Ordering follows the tensor product with the particle index major:
    entry A_k at (|0>, k) and B_k at (|1>, k).
    """
    return HermitianOperator.from_diagonal(np.concatenate([d.energies_0, d.energies_1]))


def initial_product_state(d: DetectorModel) -> StateVector:
    """Joint particle (x) detector state before the interaction."""
    return tensor_product(initial_superposition().as_state_vector(), d.initial_state())


def propagate_exact(d: DetectorModel, tau: float, c: PhysicalConstants = NATURAL_UNITS) -> StateVector:
    """Joint state after interacting for tau under the exact exponential."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    u = expm_propagator(build_interaction(d), tau, c)
    return u.apply(initial_product_state(d))


def prob_closed_form(d: DetectorModel, tau: float, c: PhysicalConstants = NATURAL_UNITS) -> MeasurementResult:
    """Return probability from the per-configuration cosine formula."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    half_angles = (d.energies_0 - d.energies_1) * (tau / (2.0 * c.hbar))
    p = float(np.sum(np.abs(d.a) ** 2 * np.cos(half_angles) ** 2))
    return MeasurementResult(p_sx_plus=min(p, 1.0 + 1e-12))


def prob_full_propagation(d: DetectorModel, tau: float, c: PhysicalConstants = NATURAL_UNITS) -> MeasurementResult:
    """Return probability from explicit propagation of the joint state.

    Propagates the full 2K-dimensional state and sums the squared overlaps
    with (initial particle state) (x) (configuration k) over all k. Serves
    as the independent check on ``prob_closed_form``.
    """
    psi_f = propagate_exact(d, tau, c).amps
    k = d.K
    # <psi0 (x) eps_k | Psi_f> = (psi_f[0,k] + psi_f[1,k]) / sqrt(2)
    overlaps = _SQRT_HALF * (psi_f[:k] + psi_f[k:])
    p = float(np.sum(np.abs(overlaps) ** 2))
    return MeasurementResult(p_sx_plus=min(p, 1.0 + 1e-12))


def sample_random_detector(K: int, energy_scale: float, seed: int) -> DetectorModel:
    """Random detector: sphere-uniform amplitudes, uniform branch energies.

    Amplitudes come from normalized complex standard normals (uniform on
    the unit sphere); A_k and B_k are independent uniform on
    [0, energy_scale].
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not (np.isfinite(energy_scale) and energy_scale > 0):
        raise ValueError(f"energy_scale must be positive, got {energy_scale}")
    idx = np.arange(K, dtype=np.uint64)
    re = standard_normal(derive_seed(seed, "amp_re"), idx)
    im = standard_normal(derive_seed(seed, "amp_im"), idx)
    a = re + 1j * im
    nrm = np.linalg.norm(a)
    if nrm == 0.0:  # astronomically unlikely, but the draw must stay total
        a = np.zeros(K, dtype=np.complex128)
        a[0] = 1.0
    else:
        a = a / nrm
    interval = UniformInterval(0.0, energy_scale)
    e0 = sample_uniform(interval, derive_seed(seed, "energy_0"), idx)
    e1 = sample_uniform(interval, derive_seed(seed, "energy_1"), idx)
    return DetectorModel(a, e0, e1)


# Trials are drawn in chunks of about this many detector configurations
# (trials x K elements), so a sweep's memory does not grow with its trials.
_CHUNK_ELEMENTS = 1 << 18


def _draw_detectors(K: int, energy_scale: float, trial_seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights |a_k|^2 and energy gaps A_k - B_k of one detector per trial seed.

    Row i is ``sample_random_detector(K, energy_scale, trial_seeds[i])``,
    bit for bit, with the same normalisation check as ``DetectorModel``.
    """
    seeds = trial_seeds[:, None]
    idx = np.arange(K, dtype=np.uint64)
    a = standard_normal(derive_seed(seeds, "amp_re"), idx) + 1j * standard_normal(derive_seed(seeds, "amp_im"), idx)
    for row in a:
        # One norm per row: np.linalg.norm(row) rounds like the scalar draw, norm(axis=1) does not.
        nrm = np.linalg.norm(row)
        if nrm == 0.0:
            row[:] = 0.0
            row[0] = 1.0
        else:
            row /= nrm
    weights = np.abs(a) ** 2
    totals = np.sum(weights, axis=1)
    bad = ~(np.abs(totals - 1.0) <= 1e-10)  # NaN fails too
    if bad.any():
        raise ValueError(f"configuration amplitudes must satisfy sum |a_k|^2 = 1, got {totals[bad][0]!r}")
    interval = UniformInterval(0.0, energy_scale)
    e0 = sample_uniform(interval, derive_seed(seeds, "energy_0"), idx)
    e1 = sample_uniform(interval, derive_seed(seeds, "energy_1"), idx)
    return weights, e0 - e1


def decohered_probability_sweep(
    K: int,
    energy_scale: float,
    taus,
    c: PhysicalConstants = NATURAL_UNITS,
    seed: int = 0,
    trials: int = 100,
) -> list[MonteCarloEstimate]:
    """``decohered_probability`` for every tau in ``taus``, on one set of detectors.

    Trial i's detector is ``sample_random_detector(K, energy_scale,
    derive_seed(seed, "detector", i))``. All detectors are drawn once, as
    arrays, and every tau is evaluated on them, so each estimate equals the
    single-tau call bit for bit.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not (np.isfinite(energy_scale) and energy_scale > 0):
        raise ValueError(f"energy_scale must be positive, got {energy_scale}")
    for tau in taus:
        if tau < 0:
            raise ValueError(f"tau must be >= 0, got {tau}")
    scales = [tau / (2.0 * c.hbar) for tau in taus]
    probs = np.empty((len(scales), trials))
    rows = max(1, _CHUNK_ELEMENTS // K)
    for lo in range(0, trials, rows):
        hi = min(lo + rows, trials)
        weights, gaps = _draw_detectors(K, energy_scale, derive_seed(seed, "detector", np.arange(lo, hi, dtype=np.uint64)))
        for out, scale in zip(probs, scales):
            out[lo:hi] = np.sum(weights * np.cos(gaps * scale) ** 2, axis=1)
    np.minimum(probs, 1.0 + 1e-12, out=probs)
    return [mc_estimate(p) for p in probs]


def decohered_probability(
    K: int,
    energy_scale: float,
    tau: float,
    c: PhysicalConstants = NATURAL_UNITS,
    seed: int = 0,
    trials: int = 100,
) -> MonteCarloEstimate:
    """Average the closed-form probability over randomly drawn detectors.

    As energy_scale * tau / hbar grows, the per-detector cosine weights
    oscillate incoherently and the average settles at 1/2. A single trial
    reports stderr 0.
    """
    return decohered_probability_sweep(K, energy_scale, [tau], c, seed, trials)[0]
