"""Exact-propagation measurement model and its averaged classical limit.

A spin-1/2 test particle prepared in (|0> + |1>)/sqrt(2) couples to a
detector with K microscopic configurations through an interaction that is
diagonal in the product basis: energy A_k on the |0> branch and B_k on the
|1> branch of configuration k. The interaction is therefore kept as its
2K energies, and exact propagation for a time tau multiplies each product
amplitude by its phase exp(-i E tau). Projecting back onto the initial
particle state gives the closed-form return probability

    P = sum_k |a_k|^2 cos^2((A_k - B_k) tau / 2),

which decays to the classical value 1/2 once the dimensionless energy
spread (A_k - B_k) tau is large and random across configurations. Times
are in natural units (hbar = 1), as everywhere in the package.
Averaging over randomly drawn detectors realizes that limit numerically.
Each cos^2 term is ``qcore.cos_squared`` of its half angle, in the closed
form and in the sweep alike; the sweep is ``montecarlo.cos_squared_sweep``,
the loop of the stochastic route, on chunks of detectors drawn as arrays.
A detector's weights |a_k|^2 are Exp(1) draws over their sum, the squared
moduli of normalised complex normals, and its amplitudes add a uniform
phase each. The law needs the weights alone, so the sweep draws only those,
through the same ``_draw_detectors`` as ``sample_random_detector``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import (
    MonteCarloEstimate, UniformInterval, cos_squared_sweep, derive_seed, require_tau, sample_uniform,
    standard_exponential, uniform01,
)
from .qcore import StateVector, cos_squared

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


@dataclass(frozen=True, eq=False)
class DetectorModel:
    """Detector with K configurations: amplitudes a_k and branch energies A_k, B_k."""

    a: np.ndarray
    energies_0: np.ndarray
    energies_1: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=np.complex128, copy=True).reshape(-1)
        e0 = np.array(self.energies_0, dtype=np.float64, copy=True).reshape(-1)
        e1 = np.array(self.energies_1, dtype=np.float64, copy=True).reshape(-1)
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
        for name, arr in (("a", a), ("energies_0", e0), ("energies_1", e1)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def K(self) -> int:
        return self.a.size


def build_interaction(d: DetectorModel) -> np.ndarray:
    """Diagonal of the interaction operator on the 2K product basis: its energies.

    Ordering follows the tensor product with the particle index major:
    entry A_k at (|0>, k) and B_k at (|1>, k).
    """
    return np.concatenate([d.energies_0, d.energies_1])


def initial_product_state(d: DetectorModel) -> StateVector:
    """Joint state (|0> + |1>)/sqrt(2) (x) sum_k a_k |k> before the interaction, particle index major."""
    return StateVector(np.kron([_SQRT_HALF, _SQRT_HALF], d.a))


def propagate_exact(d: DetectorModel, tau: float) -> StateVector:
    """Joint state after interacting for tau under the exact exponential, one phase per product amplitude."""
    require_tau(tau)
    return StateVector(np.exp(-1j * tau * build_interaction(d)) * initial_product_state(d).amps)


def prob_closed_form(d: DetectorModel, tau: float) -> MeasurementResult:
    """Return probability from the per-configuration cosine formula."""
    half_angles = (d.energies_0 - d.energies_1) * (0.5 * require_tau(tau))
    p = float(np.sum(np.abs(d.a) ** 2 * cos_squared(half_angles, out=half_angles)))
    return MeasurementResult(p_sx_plus=min(p, 1.0 + 1e-12))


def prob_full_propagation(d: DetectorModel, tau: float) -> MeasurementResult:
    """Return probability from explicit propagation of the joint state.

    Propagates the full 2K-dimensional state and sums the squared overlaps
    with (initial particle state) (x) (configuration k) over all k. Serves
    as the independent check on ``prob_closed_form``.
    """
    psi_f = propagate_exact(d, tau).amps
    k = d.K
    # <psi0 (x) eps_k | Psi_f> = (psi_f[0,k] + psi_f[1,k]) / sqrt(2)
    overlaps = _SQRT_HALF * (psi_f[:k] + psi_f[k:])
    p = float(np.sum(np.abs(overlaps) ** 2))
    return MeasurementResult(p_sx_plus=min(p, 1.0 + 1e-12))


def sample_random_detector(K: int, energy_scale: float, seed: int) -> DetectorModel:
    """Random detector: sphere-uniform amplitudes, uniform branch energies.

    The weights w_k and the energies are ``_draw_detectors``' for the seed,
    and a_k = sqrt(w_k) exp(2 pi i v_k) with uniform v_k.
    """
    _require_detector_args(K, energy_scale)
    seed = int(seed) % (1 << 64)
    weights, e0, e1 = _draw_detectors(K, energy_scale, np.array([[seed]], dtype=np.uint64))
    v = uniform01(derive_seed(derive_seed(seed, "amplitude"), "phase"), np.arange(K, dtype=np.uint64))
    return DetectorModel(np.sqrt(weights[0]) * np.exp(2j * np.pi * v), e0[0], e1[0])


def _require_detector_args(K: int, energy_scale: float) -> None:
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not (np.isfinite(energy_scale) and energy_scale > 0):
        raise ValueError(f"energy_scale must be positive, got {energy_scale}")


def _draw_detectors(K: int, energy_scale: float, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights |a_k|^2 and energies A_k, B_k, each (trials, K), of each seed's detector in a (trials, 1) uint64 column.

    The weights are Exp(1) draws over their row sum, checked as in ``DetectorModel``; a row of zeros
    keeps its first configuration, so the draw is total. The energies are uniform on [0, energy_scale].
    """
    idx = np.arange(K, dtype=np.uint64)
    weights = standard_exponential(derive_seed(seeds, "amplitude"), idx)
    totals = np.sum(weights, axis=1)  # a sum along the contiguous axis rounds a row alike at any batch size
    zero = totals == 0.0  # astronomically unlikely, but the draw must stay total
    weights[zero, 0] = totals[zero] = 1.0
    weights /= totals[:, None]
    totals = np.sum(weights, axis=1)
    bad = ~(np.abs(totals - 1.0) <= 1e-10)  # NaN fails too
    if bad.any():
        raise ValueError(f"configuration amplitudes must satisfy sum |a_k|^2 = 1, got {totals[bad][0]!r}")
    interval = UniformInterval(0.0, energy_scale)
    e0, e1 = (sample_uniform(interval, derive_seed(seeds, salt), idx) for salt in ("energy_0", "energy_1"))
    return weights, e0, e1


def decohered_probability_sweep(
    K: int,
    energy_scale: float,
    taus,
    seed: int = 0,
    trials: int = 100,
) -> list[MonteCarloEstimate]:
    """``decohered_probability`` for every tau in ``taus``, on one set of detectors.

    Trial i's detector is ``sample_random_detector(K, energy_scale,
    derive_seed(seed, "detector", i))``, drawn without its phases. Every
    tau is evaluated on each chunk of detectors, so each estimate equals
    the single-tau call bit for bit.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _require_detector_args(K, energy_scale)

    def draw(lo, hi):  # weights |a_k|^2 and gaps A_k - B_k
        seeds = derive_seed(seed, "detector", np.arange(lo, hi, dtype=np.uint64))[:, None]
        weights, e0, e1 = _draw_detectors(K, energy_scale, seeds)
        return weights, np.subtract(e0, e1, out=e0)

    return cos_squared_sweep(draw, trials, K, taus)


def decohered_probability(
    K: int,
    energy_scale: float,
    tau: float,
    seed: int = 0,
    trials: int = 100,
) -> MonteCarloEstimate:
    """Average the closed-form probability over randomly drawn detectors.

    As energy_scale * tau grows, the per-detector cosine weights
    oscillate incoherently and the average settles at 1/2. A single trial
    reports stderr 0.
    """
    return decohered_probability_sweep(K, energy_scale, [tau], seed, trials)[0]
