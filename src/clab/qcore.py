"""Complex linear algebra and unitary dynamics kernel.

Measurement models and adiabatic sweeps go through the state types and
the integrator defined here; dense and diagonal operators live here too.
Values are immutable after construction and all operations are pure
functions, so callers may share them freely across threads.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalConstants",
    "NATURAL_UNITS",
    "StateVector",
    "HermitianOperator",
    "UnitaryPropagator",
    "TdseResult",
    "inner_product",
    "tensor_product",
    "expm_propagator",
    "first_order_propagator",
    "first_order_amplification",
    "integrate_tdse",
]

# Tolerances used throughout the package.
NORM_ATOL = 1e-10
HERMITICITY_ATOL = 1e-12
UNITARITY_ATOL = 1e-10
DRIFT_WARN_THRESHOLD = 1e-6

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

    def eigensystem(self):
        """Eigenvalues and eigenvectors; trivial for the diagonal repr."""
        if self._diag is not None:
            return self._diag.copy(), np.eye(self.dim, dtype=np.complex128)
        try:
            w, v = np.linalg.eigh(self._dense)
        except np.linalg.LinAlgError as exc:
            cond = float(np.abs(self._dense).max())
            raise np.linalg.LinAlgError(
                f"eigendecomposition failed for dim {self.dim}, max entry {cond:.3e}: {exc}"
            ) from exc
        return w, v.astype(np.complex128, copy=False)

    def spectral_bound(self) -> float:
        """Cheap upper bound on max |eigenvalue| (Gershgorin row sums)."""
        if self._diag is not None:
            return float(np.abs(self._diag).max())
        return float(np.abs(self._dense).sum(axis=1).max())

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

    def apply_raw(self, amps: np.ndarray) -> np.ndarray:
        if self._phases is not None:
            return self._phases * amps
        return self._matrix @ amps

    def apply(self, psi: StateVector) -> StateVector:
        if psi.dim != self.dim:
            raise ValueError(f"dimension mismatch: propagator dim {self.dim}, state dim {psi.dim}")
        return StateVector(self.apply_raw(psi.amps), psi.basis_label)

    def __repr__(self):
        kind = "phases" if self._phases is not None else "dense"
        return f"UnitaryPropagator(dim={self.dim}, {kind})"


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product <a|b> = sum_i conj(a_i) b_i."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: <a| has dim {a.dim}, |b> has dim {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


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
    w, v = h.eigensystem()
    u = (v * np.exp(angle * w)) @ v.conj().T
    return UnitaryPropagator(matrix=u)


def first_order_propagator(
    h: HermitianOperator, dt: float, c: PhysicalConstants = NATURAL_UNITS
) -> np.ndarray:
    """Truncated propagator I - i dt H / hbar, returned verbatim.

    This map is not unitary for any finite dt: every eigenvalue E of H
    contributes an amplification |1 - i dt E/hbar| = sqrt(1 + (dt E/hbar)^2).
    Use ``first_order_amplification`` to quantify the norm growth; the
    exact exponential (``expm_propagator``) is the canonical propagator.
    """
    return np.eye(h.dim, dtype=np.complex128) + (-1j * dt / c.hbar) * h.dense()


def first_order_amplification(
    h: HermitianOperator, dt: float, c: PhysicalConstants = NATURAL_UNITS
) -> float:
    """Largest singular value of the first-order propagator (>= 1)."""
    if h.is_diagonal:
        lam_max = float(np.abs(h.diagonal).max())
    else:
        lam_max = float(np.abs(np.linalg.eigvalsh(h.dense())).max())
    return float(np.sqrt(1.0 + (dt * lam_max / c.hbar) ** 2))


@dataclass(frozen=True)
class TdseResult:
    """Final state plus the worst norm drift observed before renormalization."""

    state: StateVector
    norm_drift: float
    steps: int


def _expm_apply(apply_h, amps: np.ndarray, scale: complex, theta: float) -> np.ndarray:
    """exp(scale * H) @ amps via a scaled Taylor series; ``apply_h(v)`` returns H v.

    ``theta`` must bound |scale| * ||H||. Substeps keep each series
    argument <= 1, where 24 terms leave a remainder below 1e-23, so the
    result matches the eigendecomposition route to machine precision.
    """
    nsub = max(1, int(np.ceil(theta)))
    s = scale / nsub
    out = amps
    for _ in range(nsub):
        term = out
        acc = out.copy()
        for k in range(1, 25):
            term = (s / k) * apply_h(term)
            acc += term
            if np.abs(term).max() <= 1e-16 * np.abs(acc).max():
                break
        out = acc
    return out


def integrate_tdse(
    apply_h,
    psi0: StateVector,
    t_final: float,
    steps: int,
    spectral_bound: float,
    c: PhysicalConstants = NATURAL_UNITS,
) -> TdseResult:
    """Midpoint-exponential integrator for i hbar d/dt psi = H(t) psi.

    Each step applies the exact exponential of the midpoint Hamiltonian,
    psi_{j+1} = exp(-i dt H(t_j + dt/2) / hbar) psi_j, so the evolution is
    unitary step by step. The returned state is renormalized; the worst
    pre-renormalization drift |norm - 1| is reported, with a warning above
    1e-6 suggesting more steps.

    ``apply_h(t, v)`` returns H(t) v for a vector of the state's
    dimension; ``spectral_bound`` must bound the spectral norm of every
    H(t).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    psi0.require_normalized()
    dt = t_final / steps
    amps = psi0.amps.copy()
    drift = 0.0
    scale = -1j * dt / c.hbar
    theta = abs(dt / c.hbar) * spectral_bound
    for j in range(steps):
        t = (j + 0.5) * dt
        amps = _expm_apply(lambda v: apply_h(t, v), amps, scale, theta)
        drift = max(drift, abs(float(np.linalg.norm(amps)) - 1.0))
    if drift > DRIFT_WARN_THRESHOLD:
        warnings.warn(
            f"norm drift {drift:.3e} exceeds {DRIFT_WARN_THRESHOLD:.1e}; "
            f"increase steps (currently {steps})",
            RuntimeWarning,
            stacklevel=2,
        )
    final = StateVector(amps, psi0.basis_label, normalize=True)
    return TdseResult(state=final, norm_drift=drift, steps=steps)
