"""Complex linear algebra and unitary dynamics kernel.

Measurement models and adiabatic sweeps go through the state types and
the integrator defined here; dense and diagonal operators live here too.
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
    "TdseResult",
    "tensor_product",
    "expm_propagator",
    "integrate_tdse",
]

# Tolerances used throughout the package.
NORM_ATOL = 1e-10
HERMITICITY_ATOL = 1e-12
UNITARITY_ATOL = 1e-10
# Chebyshev series of a step's exponential end after the last Bessel coefficient above this.
CHEBYSHEV_CUTOFF = 1e-17

BASIS_LABELS = ("qubit", "detector", "product", "bitstring", "grid")


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system for the dynamics; hbar defaults to 1 (natural units)."""

    hbar: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be finite and positive, got {self.hbar}")


NATURAL_UNITS = PhysicalConstants()


class StateVector:
    """Complex amplitude vector over a finite labeled basis.

    Amplitudes are stored as a read-only complex128 array. Construction
    checks finiteness; normalization is explicit via ``normalized()`` or
    the ``normalize=True`` flag.
    """

    __slots__ = ("amps", "basis_label")

    def __init__(self, amps, basis_label: str = "product", normalize: bool = False):
        arr = np.array(amps, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size < 1:
            raise ValueError("state vector needs at least one amplitude")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("state vector contains non-finite amplitudes")
        if basis_label not in BASIS_LABELS:
            raise ValueError(f"unknown basis label {basis_label!r}, expected one of {BASIS_LABELS}")
        if basis_label == "qubit" and arr.size != 2:
            raise ValueError(f"qubit basis requires dim 2, got {arr.size}")
        if normalize:
            nrm = np.linalg.norm(arr)
            if nrm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            arr = arr / nrm
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)
        object.__setattr__(self, "basis_label", basis_label)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "StateVector":
        return StateVector(self.amps, self.basis_label, normalize=True)

    def require_normalized(self, atol: float = NORM_ATOL) -> None:
        defect = abs(self.norm() - 1.0)
        if defect > atol:
            raise ValueError(f"state is not normalized: |norm - 1| = {defect:.3e} > {atol:.1e}")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def __repr__(self):
        return f"StateVector(dim={self.dim}, basis={self.basis_label!r})"


class HermitianOperator:
    """Finite-dimensional Hermitian operator, dense or diagonal.

    The diagonal representation stores a real vector and is exact by
    construction. Dense input is rejected at construction if it deviates
    from M = M^dagger beyond an entrywise tolerance scaled by the largest
    entry magnitude.
    """

    __slots__ = ("_dense", "_diag", "dim")

    def __init__(self, *, dense=None, diagonal=None):
        if (dense is None) == (diagonal is None):
            raise ValueError("provide exactly one of dense= or diagonal=")
        if diagonal is not None:
            d = np.array(diagonal, dtype=np.float64, copy=True).reshape(-1)
            if d.size < 1 or not np.all(np.isfinite(d)):
                raise ValueError("diagonal must be a finite, non-empty real vector")
            d.setflags(write=False)
            object.__setattr__(self, "_diag", d)
            object.__setattr__(self, "_dense", None)
            object.__setattr__(self, "dim", d.size)
        else:
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
            object.__setattr__(self, "_dense", m)
            object.__setattr__(self, "_diag", None)
            object.__setattr__(self, "dim", m.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @classmethod
    def from_dense(cls, matrix) -> "HermitianOperator":
        return cls(dense=matrix)

    @classmethod
    def from_diagonal(cls, diagonal) -> "HermitianOperator":
        return cls(diagonal=diagonal)

    @property
    def is_diagonal(self) -> bool:
        return self._diag is not None

    @property
    def diagonal(self) -> np.ndarray:
        if self._diag is None:
            raise ValueError("operator is stored dense; use dense()")
        return self._diag

    def dense(self) -> np.ndarray:
        if self._diag is not None:
            return np.diag(self._diag.astype(np.complex128))
        return self._dense.astype(np.complex128, copy=False)

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        if self._diag is not None:
            return self._diag * vec
        return self._dense @ vec

    def __repr__(self):
        kind = "diagonal" if self.is_diagonal else "dense"
        return f"HermitianOperator(dim={self.dim}, {kind})"


class UnitaryPropagator:
    """Unitary map, stored dense or as diagonal phases.

    Construction verifies unitarity: max-norm of U^dagger U - I for the
    dense form, |phase| = 1 entrywise for the diagonal form.
    """

    __slots__ = ("_matrix", "_phases", "dim")

    def __init__(self, *, matrix=None, phases=None):
        if (matrix is None) == (phases is None):
            raise ValueError("provide exactly one of matrix= or phases=")
        if phases is not None:
            p = np.asarray(phases, dtype=np.complex128).reshape(-1)
            defect = float(np.abs(np.abs(p) - 1.0).max())
            if defect > UNITARITY_ATOL:
                raise ValueError(f"diagonal propagator has non-unit phases (defect {defect:.3e})")
            p.setflags(write=False)
            object.__setattr__(self, "_phases", p)
            object.__setattr__(self, "_matrix", None)
            object.__setattr__(self, "dim", p.size)
        else:
            u = np.asarray(matrix, dtype=np.complex128)
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise ValueError(f"propagator must be square, got shape {u.shape}")
            gram_defect = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
            if gram_defect > UNITARITY_ATOL:
                raise ValueError(f"matrix is not unitary: max |U^dagger U - I| = {gram_defect:.3e}")
            u = u.copy()
            u.setflags(write=False)
            object.__setattr__(self, "_matrix", u)
            object.__setattr__(self, "_phases", None)
            object.__setattr__(self, "dim", u.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError("UnitaryPropagator is immutable")

    @property
    def matrix(self) -> np.ndarray:
        if self._phases is not None:
            return np.diag(self._phases)
        return self._matrix

    def unitarity_defect(self) -> float:
        if self._phases is not None:
            return float(np.abs(np.abs(self._phases) - 1.0).max())
        u = self._matrix
        return float(np.abs(u.conj().T @ u - np.eye(self.dim)).max())

    def apply(self, psi: StateVector) -> StateVector:
        if psi.dim != self.dim:
            raise ValueError(f"dimension mismatch: propagator dim {self.dim}, state dim {psi.dim}")
        amps = self._phases * psi.amps if self._phases is not None else self._matrix @ psi.amps
        return StateVector(amps, psi.basis_label)

    def __repr__(self):
        kind = "phases" if self._phases is not None else "dense"
        return f"UnitaryPropagator(dim={self.dim}, {kind})"


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product with a's index major: amp[(i, j)] = a_i * b_j."""
    a.require_normalized()
    b.require_normalized()
    return StateVector(np.kron(a.amps, b.amps), "product")


def expm_propagator(
    h: HermitianOperator, dt: float, c: PhysicalConstants = NATURAL_UNITS
) -> UnitaryPropagator:
    """Exact propagator exp(-i dt H / hbar).

    Diagonal operators exponentiate entrywise; dense ones go through the
    eigendecomposition H = Q L Q^dagger.
    """
    angle = -1j * dt / c.hbar
    if h.is_diagonal:
        return UnitaryPropagator(phases=np.exp(angle * h.diagonal))
    w, v = np.linalg.eigh(h._dense)
    u = (v * np.exp(angle * w)) @ v.conj().T
    return UnitaryPropagator(matrix=u)


@dataclass(frozen=True)
class TdseResult:
    """Final state of an integration, renormalized."""

    state: StateVector


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
) -> TdseResult:
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
    return TdseResult(state=StateVector(amps, psi0.basis_label, normalize=True))
