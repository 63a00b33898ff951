"""Exact-propagation measurement model and its averaged classical limit.

A spin-1/2 test particle prepared in (|0> + |1>)/sqrt(2) couples to a
detector with K microscopic configurations through an interaction that is
diagonal in the product basis: energy A_k on the |0> branch and B_k on the
|1> branch of configuration k. The interaction is therefore kept as its
2K energies, and exact propagation for a time tau multiplies each product
amplitude by its phase exp(-i E tau / hbar). Projecting back onto the
initial particle state gives the closed-form return probability

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
from .qcore import NATURAL_UNITS, PhysicalConstants, StateVector

__all__ = [
    "DetectorModel",
    "MeasurementResult",
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
class MeasurementResult:
    """Return probability for the initially prepared spin state."""

    p_sx_plus: float

    def __post_init__(self):
        if not (-1e-12 <= self.p_sx_plus <= 1.0 + 1e-12):
            raise ValueError(f"probability out of range: {self.p_sx_plus!r}")


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

    def __repr__(self):
        return f"DetectorModel(K={self.K})"


def build_interaction(d: DetectorModel) -> np.ndarray:
    """Diagonal of the interaction operator on the 2K product basis: its energies.

    Ordering follows the tensor product with the particle index major:
    entry A_k at (|0>, k) and B_k at (|1>, k).
    """
    return np.concatenate([d.energies_0, d.energies_1])


def initial_product_state(d: DetectorModel) -> StateVector:
    """Joint state (|0> + |1>)/sqrt(2) (x) sum_k a_k |k> before the interaction, particle index major."""
    return StateVector(np.kron([_SQRT_HALF, _SQRT_HALF], d.a))


def propagate_exact(d: DetectorModel, tau: float, c: PhysicalConstants = NATURAL_UNITS) -> StateVector:
    """Joint state after interacting for tau under the exact exponential, one phase per product amplitude."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return StateVector(np.exp(-1j * tau / c.hbar * build_interaction(d)) * initial_product_state(d).amps)


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
    a, e0, e1 = _draw_detectors(K, energy_scale, np.array([int(seed) % (1 << 64)], dtype=np.uint64))
    return DetectorModel(a[0], e0[0], e1[0])


# Trials are drawn in chunks of about this many detector configurations
# (trials x K elements), so a sweep's memory does not grow with its trials.
_CHUNK_ELEMENTS = 1 << 18


def _draw_detectors(K: int, energy_scale: float, trial_seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes a and branch energies A, B of one detector per trial seed (uint64), one row each.

    Each row is normalised on its own, and rounds the same whatever the
    number of rows, so a one-row draw equals that row of any batch.
    """
    seeds = trial_seeds[:, None]
    idx = np.arange(K, dtype=np.uint64)
    a = standard_normal(derive_seed(seeds, "amp_re"), idx) + 1j * standard_normal(derive_seed(seeds, "amp_im"), idx)
    v = a.view(np.float64)
    # A sum along the contiguous axis rounds a row alike at any batch size; einsum does not.
    nrm = np.sqrt(np.sum(v * v, axis=1))
    zero = nrm == 0.0  # astronomically unlikely, but the draw must stay total
    a[zero, 0] = 1.0
    nrm[zero] = 1.0
    v /= nrm[:, None]
    interval = UniformInterval(0.0, energy_scale)
    e0 = sample_uniform(interval, derive_seed(seeds, "energy_0"), idx)
    e1 = sample_uniform(interval, derive_seed(seeds, "energy_1"), idx)
    return a, e0, e1


def _weights_and_gaps(K: int, energy_scale: float, trial_seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights |a_k|^2 and gaps A_k - B_k of ``_draw_detectors``, with the normalisation check of ``DetectorModel``."""
    a, e0, e1 = _draw_detectors(K, energy_scale, trial_seeds)
    weights = np.abs(a) ** 2
    totals = np.sum(weights, axis=1)
    bad = ~(np.abs(totals - 1.0) <= 1e-10)  # NaN fails too
    if bad.any():
        raise ValueError(f"configuration amplitudes must satisfy sum |a_k|^2 = 1, got {totals[bad][0]!r}")
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
        weights, gaps = _weights_and_gaps(K, energy_scale, derive_seed(seed, "detector", np.arange(lo, hi, dtype=np.uint64)))
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
