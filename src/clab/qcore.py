"""Complex linear algebra and unitary dynamics kernel.

Measurement models and adiabatic sweeps go through the state types and
the integrator defined here. Dense Hermitian operators and their exact
exponentials are the reference that the integrator, and the detector
model's phase propagation, are checked against. ``cos_squared`` is the
kernel for cos^2 that both measurement routes evaluate their per-instance
law with, as 1 / (1 + tan^2) on numpy's float64 tangent.
Values are immutable after construction and all operations are pure
functions, so callers may share them freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalConstants",
    "NATURAL_UNITS",
    "StateVector",
    "HermitianOperator",
    "UnitaryPropagator",
    "expm_propagator",
    "integrate_tdse",
    "cos_squared",
]

# Tolerances used throughout the package.
NORM_ATOL = 1e-10
HERMITICITY_ATOL = 1e-12
UNITARITY_ATOL = 1e-10
# Chebyshev series of a step's exponential end after the last Bessel coefficient above this.
CHEBYSHEV_CUTOFF = 1e-17


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system for the dynamics; hbar defaults to 1 (natural units)."""

    hbar: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be finite and positive, got {self.hbar}")


NATURAL_UNITS = PhysicalConstants()


class StateVector:
    """Complex amplitude vector over a finite basis.

    Amplitudes are stored as a read-only complex128 array. Construction
    checks finiteness; normalization is explicit via the ``normalize=True``
    flag.
    """

    __slots__ = ("amps",)

    def __init__(self, amps, normalize: bool = False):
        arr = np.array(amps, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size < 1:
            raise ValueError("state vector needs at least one amplitude")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("state vector contains non-finite amplitudes")
        if normalize:
            nrm = np.linalg.norm(arr)
            if nrm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            arr = arr / nrm
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def require_normalized(self, atol: float = NORM_ATOL) -> None:
        defect = abs(self.norm() - 1.0)
        if defect > atol:
            raise ValueError(f"state is not normalized: |norm - 1| = {defect:.3e} > {atol:.1e}")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


class HermitianOperator:
    """Finite-dimensional Hermitian operator, stored as a dense read-only matrix.

    Input is rejected at construction if it deviates from M = M^dagger
    beyond an entrywise tolerance scaled by the largest entry magnitude.
    Real input stays real.
    """

    __slots__ = ("matrix", "dim")

    def __init__(self, *, dense):
        m = np.array(dense, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"dense operator must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.real)) or (np.iscomplexobj(m) and not np.all(np.isfinite(m.imag))):
            raise ValueError("operator contains non-finite entries")
        scale = max(1.0, float(np.abs(m).max()))
        defect = float(np.abs(m - m.conj().T).max())
        if defect > HERMITICITY_ATOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e} "
                f"exceeds {HERMITICITY_ATOL * scale:.1e}"
            )
        m = m.astype(np.complex128) if np.iscomplexobj(m) else m.astype(np.float64)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @classmethod
    def from_dense(cls, matrix) -> "HermitianOperator":
        return cls(dense=matrix)

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


class UnitaryPropagator:
    """Dense unitary map; construction verifies max |U^dagger U - I| <= UNITARITY_ATOL."""

    __slots__ = ("matrix", "dim")

    def __init__(self, *, matrix):
        u = np.array(matrix, dtype=np.complex128, copy=True)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"propagator must be square, got shape {u.shape}")
        u.setflags(write=False)
        object.__setattr__(self, "matrix", u)
        object.__setattr__(self, "dim", u.shape[0])
        gram_defect = self.unitarity_defect()
        if gram_defect > UNITARITY_ATOL:
            raise ValueError(f"matrix is not unitary: max |U^dagger U - I| = {gram_defect:.3e}")

    def __setattr__(self, name, value):
        raise AttributeError("UnitaryPropagator is immutable")

    def unitarity_defect(self) -> float:
        u = self.matrix
        return float(np.abs(u.conj().T @ u - np.eye(self.dim)).max())

    def apply(self, psi: StateVector) -> StateVector:
        if psi.dim != self.dim:
            raise ValueError(f"dimension mismatch: propagator dim {self.dim}, state dim {psi.dim}")
        return StateVector(self.matrix @ psi.amps)

    def __repr__(self):
        return f"UnitaryPropagator(dim={self.dim})"


def expm_propagator(
    h: HermitianOperator, dt: float, c: PhysicalConstants = NATURAL_UNITS
) -> UnitaryPropagator:
    """Exact propagator exp(-i dt H / hbar), through the eigendecomposition H = Q L Q^dagger."""
    w, v = np.linalg.eigh(h.matrix)
    return UnitaryPropagator(matrix=(v * np.exp(-1j * dt / c.hbar * w)) @ v.conj().T)


def _bessel_series(x: float, tail: float = 0.0) -> np.ndarray:
    """J_0(x), ..., J_K(x) for x >= 0: the shortest prefix whose dropped part is at most ``tail``.

    The series is first cut after the last term above ``CHEBYSHEV_CUTOFF``.
    Of that, it keeps the shortest prefix J_0..J_K with sum_{k>K} |J_k(x)|
    <= ``tail``, the sum taken from the end over every computed term, so
    the terms below the cutoff count too. A ``tail`` of 0 drops nothing
    more: every kept term is above the cutoff, so no shorter prefix fits.

    Miller's backward recurrence, in two parts so that it neither overflows
    at tiny x nor loses accuracy at large x. Above k0 = floor(x), where J_k
    decays, the ratios J_k / J_{k-1} = x / (2k - x J_{k+1} / J_k) run down
    from an order far past roundoff. Below k0, where J_k oscillates, the
    three-term recurrence J_{k-1} = (2k / x) J_k - J_{k+1} continues from
    J_{k0} = 1. The identity J_0 + 2 sum_k J_{2k} = 1 then fixes the scale.
    """
    if x == 0.0:
        return np.ones(1)
    top = int(x + 10.0 * x ** (1.0 / 3.0) + 40.0)
    k0 = int(x)
    ratio = np.zeros(top + 2)
    for k in range(top, k0, -1):
        ratio[k] = x / (2.0 * k - x * ratio[k + 1])
    j = np.empty(top + 1)
    j[k0] = 1.0
    j[k0 + 1 :] = np.cumprod(ratio[k0 + 1 : top + 1])
    for k in range(k0, 0, -1):
        j[k - 1] = (2.0 * k / x) * j[k] - j[k + 1]
    j /= j[0] + 2.0 * j[2::2].sum()
    cut = np.flatnonzero(np.abs(j) > CHEBYSHEV_CUTOFF)[-1] + 1
    dropped = np.cumsum(np.abs(j[:0:-1]))[::-1]  # dropped[K] = sum_{k>K} |J_k|, non-increasing in K
    return j[: 1 + np.count_nonzero(dropped[: cut - 1] > tail)]


def _chebyshev_apply(
    matvec, amps: np.ndarray, coeffs: np.ndarray, block: np.ndarray, rows: list, reals: list
) -> np.ndarray:
    """sum_k coeffs[k] T_k(A) amps, where ``matvec(v, out)`` adds 2 A v into ``out``; one matvec per k >= 1.

    The terms T_k(A) amps are written into the rows of ``block``, one row
    per coefficient (``rows`` lists their views, ``reals`` their float64
    views), by T_k = 2 A T_{k-1} - T_{k-2}: each row starts as -T_{k-2},
    and the matvec adds the rest. The negation runs on the float64 views:
    numpy 2.4 negates float64 with SIMD but complex128 in a scalar loop
    (0.46 against 0.99 us for 256 entries on 2 shared Xeon vCPUs). One
    product with ``coeffs`` sums the block. The result is a new array.
    """
    np.copyto(rows[0], amps)
    if coeffs.size > 1:
        rows[1].fill(0.0)
        matvec(amps, rows[1])
        rows[1] *= 0.5
    negative = np.negative
    for older_real, prev, row, row_real in zip(reals, rows[1:], rows[2:], reals[2:]):
        negative(older_real, row_real)
        matvec(prev, row)
    return coeffs @ block


def integrate_tdse(
    h_at,
    psi0: StateVector,
    t_final: float,
    steps: int,
    spectral_bound: float,
    c: PhysicalConstants = NATURAL_UNITS,
    truncation: float = 0.0,
) -> StateVector:
    """Commutator-free Magnus (CF4) integrator for i hbar d/dt psi = H(t) psi.

    Each step is the two-exponential CF4 step of Blanes & Moan, Appl.
    Numer. Math. 56, 1519 (2006). When H(t) is affine in t, as on a linear
    schedule, each exponent is a single shifted node:
    psi_{j+1} = exp(-i dt/2 H(t_j + 5dt/6) / hbar) exp(-i dt/2 H(t_j + dt/6) / hbar) psi_j,
    with the t_j + dt/6 factor applied first, and the global error is
    O(dt^4); for other H(t) the same nodes give O(dt^2). Each exponential
    is the Chebyshev series of Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984), in H / spectral_bound with Bessel coefficients J_k(dt
    spectral_bound / (2 hbar)) computed once per call, and it costs about
    that argument plus O(log) matvecs. The series' terms fill a
    preallocated block of one row per term, terms x dim complex entries,
    and one product with the coefficients sums them.

    ``truncation`` is the budget, in the state's 2-norm, for the terms the
    series leave out. Each series drops a Bessel tail of at most
    ``truncation / (4 steps)`` (see ``_bessel_series``). With A = H /
    spectral_bound, ||A|| <= 1 gives ||T_k(A)|| <= 1, so each exponential
    is off by at most twice its dropped tail; the steps are unitary, so
    the errors of the 2 steps exponentials add, and the state before
    renormalization is within ``truncation`` of the untruncated series'
    result. After it, the state is within truncation / (1 - truncation / 2)
    (the Dunkl-Williams inequality). A budget of 0 keeps every term above
    CHEBYSHEV_CUTOFF, which is exact to roundoff.

    ``h_at(t, scale)`` returns a matvec ``matvec(v, out=None)`` that adds
    ``scale * H(t) v`` into ``out`` (into zeros when ``out`` is None) and
    returns it, for vectors of the state's dimension, so each term of the
    recurrence is a write of -T_{k-2} and one matvec. ``h_at`` is called
    twice per step, with ``scale = 2 / spectral_bound`` (0 when the bound
    is 0, where the series is the identity and the matvec goes unused).
    ``spectral_bound`` must bound the spectral norm of every H(t), or the
    series diverges; shifting H by a constant to centre its spectrum
    changes only the global phase and halves the bound a non-negative H
    needs. The returned state is renormalized.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not (np.isfinite(truncation) and truncation >= 0.0):
        raise ValueError(f"truncation must be finite and >= 0, got {truncation}")
    psi0.require_normalized()
    dt = t_final / steps
    # Jacobi-Anger: exp(-i x A) = J_0(x) + 2 sum_k (-i)^k J_k(x) T_k(A) for A = H / spectral_bound.
    j = _bessel_series(abs(dt) * spectral_bound / (2.0 * c.hbar), truncation / (4.0 * steps))
    k = np.arange(j.size)
    coeffs = np.where(k == 0, 1.0, 2.0) * (-1j * np.sign(dt)) ** k * j
    scale = 2.0 / spectral_bound if spectral_bound else 0.0
    block = np.empty((coeffs.size, psi0.dim), dtype=np.complex128)
    rows, reals = list(block), list(block.view(np.float64))  # indexing a list of views is cheaper than the block
    amps = psi0.amps
    for step in range(steps):
        amps = _chebyshev_apply(h_at((step + 1.0 / 6.0) * dt, scale), amps, coeffs, block, rows, reals)
        amps = _chebyshev_apply(h_at((step + 5.0 / 6.0) * dt, scale), amps, coeffs, block, rows, reals)
    return StateVector(amps, normalize=True)


def cos_squared(half, out=None) -> np.ndarray:
    """cos(half)^2 elementwise, as a float64 array of half's shape, written into ``out`` when given.

    ``out`` may be ``half`` itself (a C-contiguous float64 array) to work in
    place. The kernel is the exact identity cos^2 = 1 / (1 + tan^2), in four
    in-place passes; it is within 1e-15 of ``np.cos(half) ** 2`` and each
    result depends on its own element alone. No finite input warns: |tan|
    stays below about 2e18 on doubles, so its square cannot overflow. NaN
    and inf give NaN; inf raises the invalid-value error of ``np.tan``
    under the caller's ``np.errstate``.

    The identity is for speed: numpy 2.4.6 dispatches float64 tan to SIMD
    (AVX-512 where the CPU has it) but evaluates cos with the scalar libm. On 2 shared Xeon
    vCPUs this kernel took 3.7 ms per 10^6 elements, against 26 ms for
    ``np.cos(half) ** 2`` at |half| of about 10^3. A numpy build whose
    float64 tan is scalar libm gets the same accuracy, more slowly.
    """
    h = np.asarray(half, dtype=np.float64)
    if out is None:
        out = np.empty(h.shape)
    elif out.shape != h.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {h.shape}")
    np.tan(h, out=out)  # ``h`` may be gone after this
    np.square(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out
