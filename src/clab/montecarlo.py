"""Seeded randomness and Monte Carlo estimation.

Draws are stateless and counter-keyed: the value at (seed, index) never
depends on other draws, so trials can be evaluated in any order, in
parallel, or in chunks with bit-identical results. The mixing function is
the splitmix64 finalizer applied twice, vectorized over index arrays and
over seed arrays: a ``(trials, 1)`` column of trial seeds against a
``(1, K)`` row of indices draws every trial in one call.

A Monte Carlo sweep uses this to draw its random numbers once and evaluate
every tau on the same draws, reducing each tau's per-trial values with
``mc_estimate``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UniformInterval",
    "MonteCarloEstimate",
    "derive_seed",
    "uniform01",
    "sample_uniform",
    "standard_normal",
    "mc_mean",
    "mc_estimate",
]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: np.ndarray) -> np.ndarray:
    # Modular 64-bit wraparound is the point; silence numpy's overflow warning.
    with np.errstate(over="ignore"):
        z = z + _U64(_GOLDEN)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def _u64(value):
    """An int as np.uint64 (modulo 2^64), or an integer array as a uint64 array."""
    if isinstance(value, np.ndarray):
        return value.astype(np.uint64, copy=False)
    return _U64(int(value) & _MASK64)


def _key(seed):
    return _mix64(_u64(seed) ^ _U64(0xA3EC4E93C0A4F205))


def derive_seed(seed, *salts):
    """Deterministic sub-seed for an independent named stream.

    Salts may be ints or short strings; the same (seed, salts) always maps
    to the same sub-seed. The seed or any int salt may also be a uint64
    array: the result is then the array of sub-seeds, element by element
    equal to the scalar calls. Scalar calls return an int.
    """
    acc = _key(seed)
    for salt in salts:
        if isinstance(salt, str):
            for byte in salt.encode("utf-8"):
                acc = _mix64(acc ^ _U64(byte))
        else:
            acc = _mix64(acc ^ _u64(salt))
    return acc if isinstance(acc, np.ndarray) else int(acc)


def uniform01(seed, index) -> np.ndarray | float:
    """Uniform draw(s) on [0, 1) keyed purely by (seed, index).

    ``seed`` may be a uint64 array; it broadcasts against ``index``.
    """
    idx = np.asarray(index, dtype=np.uint64)
    key = _key(seed)
    with np.errstate(over="ignore"):
        bits = _mix64(_mix64(idx + key) ^ key)
    out = (bits >> _U64(11)).astype(np.float64) * (1.0 / (1 << 53))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class UniformInterval:
    """Closed interval [lo, hi] for uniform sampling."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("interval bounds must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")


def sample_uniform(interval: UniformInterval, seed, index) -> np.ndarray | float:
    """Uniform draw(s) on [lo, hi]; degenerate intervals return lo exactly."""
    u = uniform01(seed, index)
    return interval.lo + (interval.hi - interval.lo) * u


def standard_normal(seed, index) -> np.ndarray | float:
    """Standard normal draw(s) via Box-Muller on two sub-draws per index."""
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        even = idx * _U64(2)
        odd = even + _U64(1)
    u1 = uniform01(seed, even)
    u2 = uniform01(seed, odd)
    u1 = np.maximum(u1, 2.0 ** -53)  # guard the log at u1 = 0
    out = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with its standard error over n trials."""

    mean: float
    stderr: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("estimate needs n >= 1")
        if not (np.isfinite(self.mean) and np.isfinite(self.stderr) and self.stderr >= 0):
            raise ValueError("estimate fields must be finite with stderr >= 0")


def mc_mean(f, n: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo mean of f over trial indices 0..n-1.

    ``f(indices, seed)`` receives the full uint64 index array and must
    return one finite value per index (anything per-index and stateless
    qualifies). Values are always accumulated in index order with numpy's
    pairwise summation, so the estimate is independent of how callers
    would have scheduled the evaluations.
    """
    if n < 2:
        raise ValueError(f"mc_mean needs n >= 2, got {n}")
    idx = np.arange(n, dtype=np.uint64)
    vals = np.asarray(f(idx, seed), dtype=np.float64).reshape(-1)
    if vals.size != n:
        raise ValueError(f"f returned {vals.size} values for {n} indices")
    return mc_estimate(vals)


def mc_estimate(values) -> MonteCarloEstimate:
    """Mean and standard error of per-trial values, in trial order.

    This is ``mc_mean``'s reduction on values already drawn; a sweep calls
    it once per tau on the same draws. A single value has stderr 0.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    n = vals.size
    if n < 1:
        raise ValueError("mc_estimate needs at least one value")
    finite = np.isfinite(vals)
    if not finite.all():
        bad = int(np.nonzero(~finite)[0][0])
        raise ValueError(f"non-finite value at trial index {bad}: {vals[bad]}")
    mean = float(np.sum(vals) / n)
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MonteCarloEstimate(mean=mean, stderr=stderr, n=n)
