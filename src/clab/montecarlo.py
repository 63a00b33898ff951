"""Seeded randomness and Monte Carlo estimation.

Draws are stateless and counter-keyed: the value at (seed, index) never
depends on other draws, so trials can be evaluated in any order, in
parallel, or in chunks with bit-identical results. Draw i of a seed is
splitmix64's output i (Steele, Lea & Flood, OOPSLA 2014), one finalizer
round, vectorized over index arrays and over seed arrays: a ``(trials, 1)``
column of trial seeds against a ``(1, K)`` row of indices draws every trial
in one call.

``cos_squared_sweep``, the sweep loop of both measurement routes, evaluates
every tau on chunks of trials and merges the chunks' moments by the pairwise
update of Chan, Golub & LeVeque (Am. Stat. 37, 242, 1983). Each route's gaps
lie within its draw width (|A_k - B_k| <= energy_scale, |alpha - beta + D| <=
the stochastic width), so a half angle is finite wherever its phase span is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import cos_squared

__all__ = [
    "UniformInterval",
    "MonteCarloEstimate",
    "derive_seed",
    "uniform01",
    "sample_uniform",
    "standard_exponential",
    "mc_mean",
    "mc_estimate",
    "cos_squared_sweep",
]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# cos^2 terms (trials x K) per chunk of a sweep, whose memory so grows with neither its trials nor its taus.
SWEEP_CHUNK = 1 << 15


def _mix64(z):
    """splitmix64 finalizer of z + golden gamma.

    An array argument is overwritten with the result and returned, so callers
    pass a fresh temporary; uint64 array arithmetic wraps without a warning.
    A scalar gives an int, computed in Python ints masked to 64 bits.
    """
    if isinstance(z, np.ndarray):
        z += _U64(_GOLDEN)
        t = np.right_shift(z, _U64(30))
        z ^= t
        z *= _U64(0xBF58476D1CE4E5B9)
        z ^= np.right_shift(z, _U64(27), out=t)
        z *= _U64(0x94D049BB133111EB)
        z ^= np.right_shift(z, _U64(31), out=t)
        return z
    z = (int(z) + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _u64(value):
    """An int modulo 2^64, or an integer array as a uint64 array."""
    if isinstance(value, np.ndarray):
        return value.astype(np.uint64, copy=False)
    return int(value) & _MASK64


def _key(seed):
    return _mix64(_u64(seed) ^ 0xA3EC4E93C0A4F205)


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
                acc = _mix64(acc ^ byte)
        else:
            acc = _mix64(_u64(salt) ^ acc)
    return acc


def uniform01(seed, index) -> np.ndarray | float:
    """Uniform draw(s) on [0, 1) keyed purely by (seed, index).

    Draw i is the top 53 bits of ``_mix64(i * gamma + key)``: splitmix64's
    output i for the state seeded at the seed's key. ``seed`` may be a
    uint64 array; it broadcasts against ``index``.
    """
    key = _key(seed)
    if np.ndim(index) == 0 and not isinstance(key, np.ndarray):
        return (_mix64(int(index) * _GOLDEN + key) >> 11) * (1.0 / (1 << 53))
    idx = np.asarray(index, dtype=np.uint64)
    bits = np.empty(np.broadcast_shapes(idx.shape, np.shape(key)), dtype=np.uint64)
    np.multiply(idx, _U64(_GOLDEN), out=bits)
    bits += key
    bits = _mix64(bits)
    bits >>= _U64(11)
    return np.multiply(bits, 1.0 / (1 << 53))  # each 53-bit integer converts to float64 exactly


@dataclass(frozen=True)
class UniformInterval:
    """Closed interval [lo, hi] for uniform sampling."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:  # NaN fails too
            raise ValueError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")
        if not math.isfinite(float(self.hi) - float(self.lo)):  # also an infinite bound
            raise ValueError(f"interval bounds and width hi - lo must be finite, got [{self.lo}, {self.hi}]")


def sample_uniform(interval: UniformInterval, seed, index) -> np.ndarray | float:
    """Uniform draw(s) on [lo, hi]; degenerate intervals return lo exactly."""
    u = np.asarray(uniform01(seed, index))  # scaled and shifted in place: lo + (hi - lo) u
    u *= interval.hi - interval.lo
    u += interval.lo
    return u if u.ndim else float(u)


def standard_exponential(seed, index) -> np.ndarray | float:
    """Exp(1) draw(s) -ln(1 - u) on the uniforms u of ``uniform01(seed, index)``.

    That is |a|^2 / 2 of a complex normal a with iid N(0, 1) parts, drawn
    without its phase. 1 - u is exact and never 0.
    """
    e = np.asarray(uniform01(seed, index))  # a fresh array (0-d for a scalar) that the passes below overwrite
    np.negative(np.log(np.subtract(1.0, e, out=e), out=e), out=e)
    return e if e.ndim else float(e)


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

    A single value has stderr 0. The standard error takes the steps of
    ``np.std(values, ddof=1) / sqrt(n)`` in its order (sum, mean, deviations,
    their squares, sum / (n - 1), sqrt) and equals it bit for bit.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.size < 1:
        raise ValueError("mc_estimate needs at least one value")
    return _estimate(_moments(vals))


def _moments(vals: np.ndarray, first: int = 0) -> tuple[int, float, float]:
    """Count, mean and sum of squared deviations of values whose first has trial index ``first``."""
    total = float(np.sum(vals))
    if not math.isfinite(total):  # a finite sum has only finite terms; the index is searched for on failure
        finite = np.isfinite(vals)
        if not finite.all():
            bad = int(np.nonzero(~finite)[0][0])
            raise ValueError(f"non-finite value at trial index {first + bad}: {vals[bad]}")
    mean = total / vals.size
    dev = vals - mean
    return vals.size, mean, float(np.sum(np.square(dev, out=dev)))


def _estimate(moments) -> MonteCarloEstimate:
    n, mean, m2 = moments
    return MonteCarloEstimate(mean=mean, stderr=math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0, n=n)


def require_tau(tau: float) -> float:
    """``tau`` itself, or a ValueError unless it is >= 0 and finite; shared by every entry point taking a tau."""
    if not 0.0 <= tau < math.inf:  # NaN fails too
        raise ValueError(f"tau must be >= 0 and finite, got {tau}")
    return tau


def cos_squared_sweep(draw, trials: int, K: int, taus) -> list[MonteCarloEstimate]:
    """Mean and standard error over ``trials`` trials of the cos^2 law, for every tau in ``taus``.

    ``draw(lo, hi)`` returns trials lo..hi-1 as ``(weights, gaps)``: both of
    shape (hi - lo, K), or gaps of shape (hi - lo,) and weights None. A
    trial's value is cos^2(gap tau / 2), or its weighted row sum clipped at
    1 + 1e-12. Trials are drawn once for all taus, in chunks of
    max(1, SWEEP_CHUNK // K) whose moments merge by Chan's update, so a
    sweep of one chunk equals ``mc_estimate`` bit for bit.
    """
    scales = [0.5 * require_tau(tau) for tau in taus]  # every tau is checked before any draw
    moments = [(0, 0.0, 0.0)] * len(scales)
    rows = max(1, SWEEP_CHUNK // K)
    for lo in range(0, trials, rows):
        weights, gaps = draw(lo, min(lo + rows, trials))
        buf = np.empty_like(gaps)
        for i, scale in enumerate(scales):
            p = cos_squared(np.multiply(gaps, scale, out=buf), out=buf)
            if weights is not None:  # cos^2 <= 1 holds exactly; only a weighted sum can round above it
                p = np.minimum(np.sum(np.multiply(p, weights, out=p), axis=1), 1.0 + 1e-12)
            nb, mean_b, m2_b = _moments(p, lo)
            na, mean_a, m2_a = moments[i]
            n, delta = na + nb, mean_b - mean_a  # Chan's update, which passes the first chunk (na = 0) exactly
            moments[i] = n, mean_a + delta * (nb / n), m2_a + m2_b + delta * delta * (na * nb / n)
    return [_estimate(m) for m in moments]
