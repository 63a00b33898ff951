"""Complex linear algebra and unitary dynamics kernel.

Measurement models and adiabatic sweeps go through the state types and
the integrator defined here. Dense Hermitian operators and their exact
exponentials are the reference that the integrator, and the detector
model's phase propagation, are checked against.
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


def _bessel_series(x: float) -> np.ndarray:
    """J_0(x), ..., J_K(x) for x >= 0, cut after the last one above ``CHEBYSHEV_CUTOFF``.

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
    return j[: np.flatnonzero(np.abs(j) > CHEBYSHEV_CUTOFF)[-1] + 1]


def _chebyshev_apply(matvec, amps: np.ndarray, coeffs: list, bound: float) -> np.ndarray:
    """sum_k coeffs[k] T_k(H / bound) amps, where ``matvec(v)`` returns H v; one matvec per k >= 1."""
    acc = coeffs[0] * amps
    if len(coeffs) > 1:
        prev, cur = amps, matvec(amps) / bound
        acc += coeffs[1] * cur
        for ck in coeffs[2:]:
            prev, cur = cur, (2.0 / bound) * matvec(cur) - prev
            acc += ck * cur
    return acc


def integrate_tdse(
    h_at,
    psi0: StateVector,
    t_final: float,
    steps: int,
    spectral_bound: float,
    c: PhysicalConstants = NATURAL_UNITS,
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
    spectral_bound / (2 hbar)) computed once per call; it is exact to
    roundoff, and it costs about that argument plus O(log) matvecs.

    ``h_at(t)`` returns the matvec ``v -> H(t) v`` for vectors of the
    state's dimension; it is called twice per step. ``spectral_bound`` must
    bound the spectral norm of every H(t), or the series diverges; shifting
    H by a constant to centre its spectrum changes only the global phase
    and halves the bound a non-negative H needs. The returned state is
    renormalized.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    psi0.require_normalized()
    dt = t_final / steps
    # Jacobi-Anger: exp(-i x A) = J_0(x) + 2 sum_k (-i)^k J_k(x) T_k(A) for A = H / spectral_bound.
    j = _bessel_series(abs(dt) * spectral_bound / (2.0 * c.hbar))
    k = np.arange(j.size)
    coeffs = (np.where(k == 0, 1.0, 2.0) * (-1j * np.sign(dt)) ** k * j).tolist()
    amps = psi0.amps
    for step in range(steps):
        amps = _chebyshev_apply(h_at((step + 1.0 / 6.0) * dt), amps, coeffs, spectral_bound)
        amps = _chebyshev_apply(h_at((step + 5.0 / 6.0) * dt), amps, coeffs, spectral_bound)
    return StateVector(amps, normalize=True)
