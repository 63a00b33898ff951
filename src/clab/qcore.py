"""Complex linear algebra and unitary dynamics kernel.

Measurement models and adiabatic sweeps go through the state types and
the integrator defined here, in natural units (hbar = 1): a time is a
phase per unit energy. Dense Hermitian operators and their exact
exponentials are the reference that the integrator, and the detector
model's phase propagation, are checked against. ``cos_squared`` is the
kernel for cos^2 that both measurement routes evaluate their per-instance
law with, as 1 / (1 + tan^2) on numpy's float64 tangent.
Values are immutable after construction and all operations are pure
functions, so callers may share them freely across threads.
"""
from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from itertools import islice

import numpy as np

__all__ = [
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
# Each exponential runs the series of the first rung 2^(m / RUNGS_PER_OCTAVE) at or above its argument.
RUNGS_PER_OCTAVE = 8


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over a finite basis.

    Amplitudes are stored as a read-only complex128 array. Construction
    checks finiteness; normalization is explicit via the ``normalize=True``
    flag.
    """

    amps: np.ndarray
    normalize: InitVar[bool] = False

    def __post_init__(self, normalize):
        arr = np.array(self.amps, dtype=np.complex128, copy=True).reshape(-1)
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


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Finite-dimensional Hermitian operator, stored as a dense read-only matrix.

    Input is rejected at construction if it deviates from M = M^dagger
    beyond an entrywise tolerance scaled by the largest entry magnitude.
    Real input stays real.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, copy=True)
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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_dense(cls, matrix) -> "HermitianOperator":
        return cls(matrix)


@dataclass(frozen=True, eq=False)
class UnitaryPropagator:
    """Dense unitary map; construction verifies max |U^dagger U - I| <= UNITARITY_ATOL."""

    matrix: np.ndarray

    def __post_init__(self):
        u = np.array(self.matrix, dtype=np.complex128, copy=True)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"propagator must be square, got shape {u.shape}")
        u.setflags(write=False)
        object.__setattr__(self, "matrix", u)
        gram_defect = self.unitarity_defect()
        if gram_defect > UNITARITY_ATOL:
            raise ValueError(f"matrix is not unitary: max |U^dagger U - I| = {gram_defect:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def unitarity_defect(self) -> float:
        u = self.matrix
        return float(np.abs(u.conj().T @ u - np.eye(self.dim)).max())

    def apply(self, psi: StateVector) -> StateVector:
        if psi.dim != self.dim:
            raise ValueError(f"dimension mismatch: propagator dim {self.dim}, state dim {psi.dim}")
        return StateVector(self.matrix @ psi.amps)


def expm_propagator(h: HermitianOperator, dt: float) -> UnitaryPropagator:
    """Exact propagator exp(-i dt H), through the eigendecomposition H = Q L Q^dagger."""
    w, v = np.linalg.eigh(h.matrix)
    return UnitaryPropagator(matrix=(v * np.exp(-1j * dt * w)) @ v.conj().T)


@functools.lru_cache(maxsize=1024)
def _bessel_terms(x: float) -> tuple[np.ndarray, np.ndarray]:
    """J_0(x), ..., J_K(x) for x >= 0, cut after the last term above CHEBYSHEV_CUTOFF, and their dropped sums.

    ``dropped[K]`` is sum_{k>K} |J_k(x)| for K < the kept size - 1, taken
    from the end over every computed term, so the terms below the cutoff
    count too; it is non-increasing in K. Both arrays are read-only and
    cached, so each x is computed once per process.

    Miller's backward recurrence, in two parts so that it neither overflows
    at tiny x nor loses accuracy at large x. Above k0 = floor(x), where J_k
    decays, the ratios J_k / J_{k-1} = x / (2k - x J_{k+1} / J_k) run down
    from an order far past roundoff. Below k0, where J_k oscillates, the
    three-term recurrence J_{k-1} = (2k / x) J_k - J_{k+1} continues from
    J_{k0} = 1. The identity J_0 + 2 sum_k J_{2k} = 1 then fixes the scale.
    """
    j = np.ones(1)  # J_0(0) = 1, J_k(0) = 0
    if x > 0.0:
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
    dropped = np.cumsum(np.abs(j[:0:-1]))[::-1]
    j.setflags(write=False)
    dropped.setflags(write=False)
    return j[:cut], dropped[: cut - 1]


def _bessel_series(x: float, tail: float = 0.0) -> np.ndarray:
    """J_0(x), ..., J_K(x) for x >= 0: the shortest prefix whose dropped part is at most ``tail``.

    The series is first cut after the last term above ``CHEBYSHEV_CUTOFF``.
    Of that, it keeps the shortest prefix J_0..J_K with sum_{k>K} |J_k(x)|
    <= ``tail`` (see ``_bessel_terms``). A ``tail`` of 0 drops nothing
    more: every kept term is above the cutoff, so no shorter prefix fits.
    """
    j, dropped = _bessel_terms(x)
    return j[: 1 + np.count_nonzero(dropped > tail)]


def _ladder(x: float) -> float:
    """The first rung 2^(m / RUNGS_PER_OCTAVE), m an integer, at or above x > 0."""
    m = math.ceil(RUNGS_PER_OCTAVE * math.log2(x))
    rung = 2.0 ** (m / RUNGS_PER_OCTAVE)
    return rung if rung >= x else 2.0 ** ((m + 1) / RUNGS_PER_OCTAVE)  # log2 may round x's logarithm down


def integrate_tdse(
    h_at,
    psi0: StateVector,
    t_final: float,
    steps: int,
    spectral_bound,
    truncation: float = 0.0,
) -> StateVector:
    """Commutator-free Magnus (CF4) integrator for i d/dt psi = H(t) psi.

    Each step is the two-exponential CF4 step of Blanes & Moan, Appl.
    Numer. Math. 56, 1519 (2006). When H(t) is affine in t, as on a linear
    schedule, each exponent is a single shifted node:
    psi_{j+1} = exp(-i dt/2 H(t_j + 5dt/6)) exp(-i dt/2 H(t_j + dt/6)) psi_j,
    with the t_j + dt/6 factor applied first, and the global error is
    O(dt^4); for other H(t) the same nodes give O(dt^2). Each exponential
    is the Chebyshev series of Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984), exp(-i x A) = J_0(x) + 2 sum_k J_k(x) S_k with A = H dt / (2x)
    and S_k = (-i)^k T_k(A) = 2(-iA) S_{k-1} + S_{k-2}, S_0 = 1, S_1 = -iA;
    it costs about x plus O(log) matvecs.

    ``spectral_bound`` is a number, or a function r(t), that bounds the
    spectral norm of H(t) at each node t, or the series diverges. Each
    series is sized to its own node: the argument |dt| r(t) / 2 is rounded
    up to the ladder x = 2^(m / RUNGS_PER_OCTAVE), at most 9% above it, so
    the Bessel terms of a few rungs, each computed once per process
    (``_bessel_terms``), serve every node; a run cuts each rung's series
    once, to its tail (below). Each term copies S_{k-2} into its row of a
    preallocated block, grown to the longest series, and one matvec adds
    2(-iA) S_{k-1}; no term subtracts, and one float64 product of the real
    coefficients J_0, 2 J_1, 2 J_2, ... with the block's real view sums it.

    ``truncation`` is the budget, in the state's 2-norm, for the terms the
    series leave out. Each series drops a Bessel tail of at most
    ``truncation / (4 steps)`` (see ``_bessel_series``). ||A|| <= 1 gives
    ||T_k(A)|| <= 1, so each exponential is off by at most twice its
    dropped tail; the steps are unitary, so the errors of the 2 steps
    exponentials add, and the state before renormalization is within
    ``truncation`` of the untruncated series' result. After it, the state
    is within truncation / (1 - truncation / 2) (the Dunkl-Williams
    inequality). A budget of 0 keeps every term above CHEBYSHEV_CUTOFF,
    which is exact to roundoff.

    ``h_at(t, scale)`` returns a matvec ``matvec(v, out)`` that adds
    ``-i scale H(t) v`` into ``out`` for vectors of the state's dimension,
    called positionally and with ``out`` never overlapping ``v``; ``h_at``
    is called twice per step, with ``scale = dt / x`` for the node's rung
    x, negative when ``t_final`` is (0 where the bound is 0: that series is
    the identity and the matvec goes unused). The latest matvec is used
    before the next ``h_at`` call, so ``h_at`` may refill one operator in place.

    Shifting each H(t) by a constant c(t) to centre its spectrum changes
    only the global phase, by the integral of c over the run when c is
    affine in t: the node pair of each step integrates an affine c exactly.
    So runs of any step counts keep the same phase, and their difference
    measures discretisation alone. The returned state is renormalized.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not (np.isfinite(truncation) and truncation >= 0.0):
        raise ValueError(f"truncation must be finite and >= 0, got {truncation}")
    psi0.require_normalized()
    dt = t_final / steps
    radius = spectral_bound if callable(spectral_bound) else lambda t: spectral_bound
    half, tail = abs(dt) / 2.0, truncation / (4.0 * steps)
    series = {}  # rung -> (scale, coefficients), for this run's tail
    block = np.empty((1, psi0.dim), dtype=np.complex128)
    rows, triples = [block[0]], []
    amps = psi0.amps
    for step in range(steps):
        for t in ((step + 1.0 / 6.0) * dt, (step + 5.0 / 6.0) * dt):
            x = half * radius(t)
            if not 0.0 <= x < math.inf:
                raise ValueError(f"spectral bound at t = {t:g} must be finite and >= 0, got {radius(t)}")
            rung = _ladder(x) if x else 0.0
            if rung not in series:
                j = _bessel_series(rung, tail)
                series[rung] = (dt / rung if rung else 0.0, np.where(np.arange(j.size) == 0, 1.0, 2.0) * j)
                if j.size > len(rows):
                    block = np.empty((j.size, psi0.dim), dtype=np.complex128)
                    rows = list(block)
                    triples = list(zip(rows, rows[1:], rows[2:]))  # rows k-2, k-1, k
            scale, coeffs = series[rung]
            matvec = h_at(t, scale)
            np.copyto(rows[0], amps)
            if coeffs.size > 1:
                rows[1].fill(0.0)
                matvec(amps, rows[1])
                rows[1] *= 0.5
                for older, prev, row in islice(triples, coeffs.size - 2):
                    np.copyto(row, older)
                    matvec(prev, row)
            amps = (coeffs @ block[: coeffs.size].view(np.float64)).view(np.complex128)
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

    The identity is for speed where numpy dispatches float64 tan to AVX-512
    (``__cpu_features__["AVX512_SKX"]``; numpy 2.4.6 on x86-64), while it
    evaluates cos with the scalar libm. There, on 2 shared Xeon vCPUs, this
    kernel took 3.7 ms per 10^6 elements, against 26 ms for
    ``np.cos(half) ** 2`` at |half| of about 10^3. With AVX2 only, tan is
    scalar too, and the kernel takes about what ``np.cos(half) ** 2`` takes
    (1.32 against 1.33 ms per 2^15 elements), with the same accuracy.
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
