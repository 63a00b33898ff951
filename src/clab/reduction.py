"""Exact Cover encoding, adiabatic evolution, and the spectral decision problem.

Two concrete problem families back the complexity story:

* Exact Cover over n bits (every clause (i, j, k) demands exactly one of
  the three bits set). A diagonal cost operator counts violated clauses,
  a transverse-field begin operator (stored as its per-bit clause counts)
  has the uniform superposition as its known ground state, and a linear
  interpolation between them, stored as a sparse (CSR) matrix, drives an
  adiabatic sweep whose final state concentrates on satisfying
  assignments when the total time is large enough. Success is the final
  weight on the zero set of the cost operator; a brute-force enumerator
  is kept as the independent oracle the tests check that against.

* A one-particle energy-threshold decision on a 1D grid: discretize
  -hbar^2/(2m) d^2/dx^2 + V(x) with Dirichlet walls into a tridiagonal
  operator, ask whether the ground energy is at most a threshold, and
  verify candidate eigenpairs by a residual check that costs one O(N)
  matrix-vector product.

Bit conventions: assignments are bitstrings z_1 ... z_n with bit 1 the
leftmost character and the most significant bit of the basis index, so
``format(index, "0{n}b")`` reads off the assignment directly.
"""
from __future__ import annotations

import errno
import functools
import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .qcore import NATURAL_UNITS, PhysicalConstants, StateVector, integrate_tdse

__all__ = [
    "ExactCoverInstance",
    "SpectralDecisionInstance",
    "GridHamiltonian",
    "read_json",
    "load_instance",
    "bitstring_satisfies",
    "brute_force_exact_cover",
    "build_cost_hamiltonian",
    "build_begin_hamiltonian",
    "interpolation_matvec",
    "uniform_superposition",
    "projected_steps",
    "SweepResult",
    "success_sweep",
    "most_probable_bitstring",
    "reduce_energy_decision",
    "ground_energy",
    "below_threshold",
    "decide_energy_threshold",
    "verify_eigenpair",
]

BRUTE_FORCE_MAX_BITS = 24
EVOLUTION_MAX_BITS = 12
# The step-doubling loop of success_sweep. The first run's steps span a phase dt E_max / hbar
# of at most START_PHASE rad: of 4, 6, 8, 12 and 16 rad, 6 took the fewest matvecs on the
# criterion-6 sweeps with truncated series (102,780, against 125,188 at 4, 111,876 at 8, 125,022
# at 12 and 130,794 at 16; untruncated, 137,342 at 6 was also the fewest).
START_PHASE = 6.0
MAX_DOUBLINGS = 5
STEP_ERROR_TOL = 1e-6
# Limit on a sweep's projected integration steps; the n=8 criterion-6 sweep projects 88,389.
SWEEP_MAX_STEPS = 10_000_000
# Largest JSON file read_json takes; a spectral config with a 4096-value potential is about 110 KB.
JSON_MAX_BYTES = 1 << 20


@functools.cache
def _load_scipy(subpackage: str, name: str):
    """One of scipy's compiled modules, loaded from its file on the first call, without scipy's package inits.

    ``import scipy.linalg`` takes about 0.3 s and ``import scipy.sparse``
    about 0.24 s, mostly in modules no call here needs, and even ``import
    scipy`` costs about 1.2 MiB of peak RSS, so scipy's directory is found
    without running its init; nothing loads at import, so only spectral runs
    map ``_flapack`` and its OpenBLAS (about 2.7 MiB). The module stays out
    of ``sys.modules``, so a later ``import scipy.linalg`` or ``import
    scipy.sparse`` loads its own copy. Two threads making the first call at
    once may each load the file, which is harmless; the cache keeps one.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed")
    directory = os.path.join(scipy.submodule_search_locations[0], subpackage)
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"scipy's compiled module {name} not found in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(spec.name, None)  # a single-phase extension module registers itself on load
    return module


_lapack = functools.partial(_load_scipy, "linalg", "_flapack")
# csr_matvec(rows, cols, indptr, indices, data, x, y) adds the CSR product into y, in compiled code.
_sparsetools = functools.partial(_load_scipy, "sparse", "_sparsetools")


# ---------------------------------------------------------------------------
# Exact Cover instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactCoverInstance:
    """n bits and clauses (i, j, k), 1-based with i < j < k <= n."""

    n: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1 bits, got {self.n}")
        seen = set()
        norm = []
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} must have exactly 3 indices")
            i, j, k = (int(x) for x in clause)
            if not (1 <= i < j < k <= self.n):
                raise ValueError(f"clause {clause} must satisfy 1 <= i < j < k <= {self.n}")
            if (i, j, k) in seen:
                raise ValueError(f"duplicate clause {clause}")
            seen.add((i, j, k))
            norm.append((i, j, k))
        object.__setattr__(self, "clauses", tuple(norm))

    @classmethod
    def from_dict(cls, data: dict) -> "ExactCoverInstance":
        """Parse the JSON form; ``n`` and every index must be JSON integers, not floats, strings or bools."""
        if not isinstance(data, dict):
            raise ValueError(f"instance must be a JSON object, got {type(data).__name__}")
        extra = set(data) - {"n", "clauses"}
        if extra:
            raise ValueError(f"unknown instance keys: {sorted(extra)}")
        n, clauses = data.get("n"), data.get("clauses")
        if not _is_json_int(n):
            raise ValueError(f"n must be an integer, got {n!r}")
        if not isinstance(clauses, list):
            raise ValueError(f"clauses must be a list of [i, j, k] lists, got {clauses!r}")
        for clause in clauses:
            if not (isinstance(clause, list) and len(clause) == 3 and all(map(_is_json_int, clause))):
                raise ValueError(f"clause {clause!r} must be a list of 3 integers")
        return cls(n=n, clauses=tuple(tuple(c) for c in clauses))


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def read_json(path):
    """Parse a UTF-8 JSON file, reading at most JSON_MAX_BYTES + 1 bytes of it.

    A longer file (``/dev/zero``, say) raises OSError (errno EFBIG) rather
    than filling memory. The file is opened without blocking, so a FIFO with
    no writer reads as empty, which is not JSON; the read itself blocks, so
    a pipe still delivers everything its writer sends.
    """
    with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as fh:
        os.set_blocking(fh.fileno(), True)
        data = fh.read(JSON_MAX_BYTES + 1)
    if len(data) > JSON_MAX_BYTES:
        raise OSError(errno.EFBIG, f"file is larger than {JSON_MAX_BYTES:,} bytes", str(path))
    return json.loads(data.decode("utf-8"))


def load_instance(path) -> ExactCoverInstance:
    """Read an instance from the JSON file format {"n": ..., "clauses": [[i,j,k], ...]} (see ``read_json``)."""
    return ExactCoverInstance.from_dict(read_json(path))


def bitstring_satisfies(inst: ExactCoverInstance, bits: str) -> bool:
    """True when every clause sees exactly one set bit."""
    if len(bits) != inst.n or set(bits) - {"0", "1"}:
        raise ValueError(f"expected a {inst.n}-char bitstring, got {bits!r}")
    return all(int(bits[i - 1]) + int(bits[j - 1]) + int(bits[k - 1]) == 1 for i, j, k in inst.clauses)


def brute_force_exact_cover(inst: ExactCoverInstance) -> list[str]:
    """All satisfying bitstrings by plain enumeration of the 2^n assignments.

    Deliberately naive (string bits, per-clause sums): this is the oracle
    the operator constructions are checked against. Minutes of runtime at
    the top of the allowed range.
    """
    if inst.n > BRUTE_FORCE_MAX_BITS:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_MAX_BITS}, got {inst.n}")
    hits = []
    for z in range(1 << inst.n):
        bits = format(z, f"0{inst.n}b")
        if bitstring_satisfies(inst, bits):
            hits.append(bits)
    return hits


# ---------------------------------------------------------------------------
# Operator encodings
# ---------------------------------------------------------------------------

def build_cost_hamiltonian(inst: ExactCoverInstance) -> np.ndarray:
    """The cost operator's diagonal: each assignment's violated-clause count (read-only int64, 0 on solutions)."""
    z = np.arange(1 << inst.n, dtype=np.int64)
    energies = np.zeros(1 << inst.n, dtype=np.int64)
    for clause in inst.clauses:
        energies += sum((z >> (inst.n - idx)) & 1 for idx in clause) != 1
    energies.setflags(write=False)
    return energies


def build_begin_hamiltonian(inst: ExactCoverInstance) -> np.ndarray:
    """The transverse-field operator sum_i d_i (1 - X_i)/2 as d, each bit's clause count (read-only int64).

    The per-bit terms commute: the uniform superposition is an exact eigenvector
    with eigenvalue 0, and the largest eigenvalue is sum_i d_i.
    """
    d = np.bincount(np.array(inst.clauses, dtype=np.int64).reshape(-1) - 1, minlength=inst.n)
    d.setflags(write=False)
    return d


def interpolation_matvec(d: np.ndarray, energies: np.ndarray, shift: float = 0.0):
    """H(s) - shift for the linear schedule H(s) = (1 - s) H_begin + s H_cost, as a CSR matrix.

    ``d`` is the begin operator's clause counts and ``energies`` the cost
    diagonal, of 2^d.size entries (a ValueError otherwise). With w_i = d_i/2
    and W = sum_i w_i, H_begin v = W v - sum_i w_i v[z XOR bit_i], so row z
    of H(s) holds (1 - s) W + s E_z at column z and -(1 - s) w_i at column
    z XOR bit_i for each bit i in some clause. That pattern (int32 indices)
    is built here, once, and the shift is folded into W and E. The returned
    ``at(s, scale=1.0)`` fills a data array of its own with scale (H(s) -
    shift), diagonal first, and returns the matvec ``matvec(v, out=None)``.
    It adds scale (H(s) - shift) v into ``out`` with scipy's compiled
    ``csr_matvec`` and returns ``out``, at a cost of O(n 2^n); without
    ``out`` it adds into zeros. ``v`` and ``out`` are arrays of 2^n entries
    (a ValueError otherwise) that do not overlap, and ``out`` is complex128
    (csr_matvec raises a ValueError otherwise).
    """
    n = d.size
    if energies.size != 1 << n:
        raise ValueError(f"need 2^{n} = {1 << n} cost energies for {n} bits, got {energies.size}")
    sites = np.flatnonzero(d)
    z = np.arange(1 << n)[:, None]
    indices = np.hstack([z, z ^ np.left_shift(1, n - 1 - sites)]).astype(np.int32).reshape(-1)
    indptr = np.arange(0, indices.size + 1, sites.size + 1, dtype=np.int32)
    # H_begin - shift as CSR data; complex, the data type csr_matvec needs for a complex state.
    w = d[sites] / 2.0
    begin_data = np.empty((energies.size, sites.size + 1), dtype=np.complex128)
    begin_data[:, 0] = float(w.sum()) - shift
    begin_data[:, 1:] = -w
    energies = (energies - shift).astype(np.complex128)
    size, csr_matvec = energies.size, _sparsetools().csr_matvec

    def at(s: float, scale: float = 1.0):
        data = np.multiply(begin_data, scale * (1.0 - s))
        data[:, 0] += (scale * s) * energies
        data = data.reshape(-1)

        def matvec(v, out=None):
            if out is None:
                out = np.zeros(size, dtype=np.complex128)
            if v.size != size or out.size != size:  # csr_matvec reads v and writes out unchecked
                raise ValueError(f"need vectors of {size} entries, got {v.size} and {out.size}")
            csr_matvec(size, size, indptr, indices, data, v, out)
            return out

        return matvec

    return at


def uniform_superposition(n: int) -> StateVector:
    return StateVector(np.full(1 << n, (1 << n) ** -0.5, dtype=np.complex128))


# ---------------------------------------------------------------------------
# Adiabatic sweep
# ---------------------------------------------------------------------------

def _max_energy(inst: ExactCoverInstance) -> float:
    """E_max = sum_i d_i = 3 * clauses, a bound on the spectral norm of every H(s).

    It is the begin operator's top eigenvalue and also bounds the number of
    violated clauses.
    """
    return 3.0 * len(inst.clauses)


def _first_steps(total_time: float, e_max: float, c: PhysicalConstants) -> float:
    """Steps of the first run at total time T: max(1, ceil(T E_max / (hbar START_PHASE))); inf and NaN pass through."""
    return max(float(np.ceil(total_time * e_max / (c.hbar * START_PHASE))), 1.0)


def projected_steps(inst: ExactCoverInstance, total_times, c: PhysicalConstants = NATURAL_UNITS) -> float:
    """Bound on the integration steps a sweep over ``total_times`` takes, known before any operator is built.

    At each T the step-doubling loop of ``success_sweep`` runs N, 2N, ...,
    at most 2^MAX_DOUBLINGS N steps, with N the first run's steps, so it
    takes at most (2^(MAX_DOUBLINGS + 1) - 1) N steps in all. The bound
    sums that over T; it is inf or NaN when a term is not finite.
    """
    e_max = _max_energy(inst)
    return sum((2 ** (MAX_DOUBLINGS + 1) - 1) * _first_steps(t, e_max, c) for t in total_times)


@dataclass(frozen=True)
class SweepResult:
    """One row per schedule time run, the last run's final state, and the solution count."""

    rows: list
    state: StateVector
    satisfying_count: int


def success_sweep(
    inst: ExactCoverInstance,
    total_times,
    c: PhysicalConstants = NATURAL_UNITS,
    target: float | None = None,
) -> SweepResult:
    """Integrate the interpolation from the uniform superposition at each total time.

    The operators are built once for the whole sweep, and the sweep stops
    early once ``target`` is hit. At each T, ``integrate_tdse`` runs with
    N, 2N, 4N, ... steps, N = max(1, ceil(T E_max / (hbar START_PHASE))),
    until the step-doubling (Richardson) estimate of the fourth-order
    error of the finer run, step_error = ||psi_2N - psi_N|| / 15, is at
    most STEP_ERROR_TOL, or the step count has doubled MAX_DOUBLINGS
    times. H(s) is passed shifted by -E_max/2 with the bound E_max/2: its
    spectrum lies in [0, E_max], and the shift changes only the global
    phase. Success is the finer run's final weight on the zero set of the
    cost operator, i.e. on the satisfying assignments. Each row holds T,
    the finer run's steps, its success probability, and its step_error.

    Each run's Chebyshev series are truncated at a budget of
    STEP_ERROR_TOL / 1000, a fixed ratio (see ``integrate_tdse``): against
    untruncated series, each run's final state moves by at most about that
    budget, so a row's success probability moves by at most twice it and
    its step_error by at most a fifteenth of that.
    """
    if inst.n > EVOLUTION_MAX_BITS:
        raise ValueError(f"evolution capped at n <= {EVOLUTION_MAX_BITS}, got {inst.n}")
    total_times = [float(t) for t in total_times]
    if not total_times or not all(math.isfinite(t) and t > 0 for t in total_times):
        raise ValueError(f"need one or more finite, positive total times, got {total_times}")
    energies = build_cost_hamiltonian(inst)
    e_max = _max_energy(inst)
    at = interpolation_matvec(build_begin_hamiltonian(inst), energies, shift=e_max / 2.0)
    psi0 = uniform_superposition(inst.n)
    solutions = energies == 0
    rows = []
    for total_time in total_times:

        def run(steps):
            return integrate_tdse(
                lambda t, scale: at(t / total_time, scale), psi0, total_time, steps, e_max / 2.0, c,
                truncation=STEP_ERROR_TOL / 1000.0,
            )

        steps = int(_first_steps(total_time, e_max, c))
        coarse = run(steps)
        for _ in range(MAX_DOUBLINGS):
            steps *= 2
            state = run(steps)
            step_error = float(np.linalg.norm(state.amps - coarse.amps)) / 15.0
            if step_error <= STEP_ERROR_TOL:
                break
            coarse = state
        success = float(state.probabilities()[solutions].sum())
        rows.append({"T": total_time, "steps": steps, "success_probability": success, "step_error": step_error})
        if target is not None and success >= target:
            break
    return SweepResult(rows=rows, state=state, satisfying_count=int(solutions.sum()))


def most_probable_bitstring(state: StateVector, n: int) -> str:
    """Assignment carrying the largest probability in a 2^n state."""
    if state.dim != 1 << n:
        raise ValueError(f"state dim {state.dim} does not match 2^{n}")
    return format(int(np.argmax(state.probabilities())), f"0{n}b")


# ---------------------------------------------------------------------------
# Spectral decision problem on a 1D grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecisionInstance:
    """One particle in a hard box: grid resolution, geometry, potential, threshold."""

    grid_points: int
    box_length: float
    mass: float
    potential: np.ndarray
    threshold: float

    def __post_init__(self):
        if self.grid_points < 3:
            raise ValueError(f"need grid_points >= 3, got {self.grid_points}")
        if not (np.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(f"box_length must be positive, got {self.box_length}")
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive, got {self.mass}")
        v = np.array(self.potential, dtype=np.float64, copy=True).reshape(-1)
        if v.size != self.grid_points:
            raise ValueError(f"potential has {v.size} samples for {self.grid_points} grid points")
        if not np.all(np.isfinite(v)):
            raise ValueError("potential must be finite")
        if not np.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "potential", v)


@dataclass(frozen=True)
class GridHamiltonian:
    """Boxed Schrodinger operator on the grid: N diagonal and N - 1 symmetric off-diagonal entries."""

    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def dim(self) -> int:
        return self.diag.size

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """H vec in O(N)."""
        out = self.diag * vec
        out[:-1] += self.offdiag * vec[1:]
        out[1:] += self.offdiag * vec[:-1]
        return out

    def dense(self) -> np.ndarray:
        """The full N x N matrix, built on demand as a reference."""
        return np.diag(self.diag) + np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)


def reduce_energy_decision(
    inst: SpectralDecisionInstance, c: PhysicalConstants = NATURAL_UNITS
) -> tuple[GridHamiltonian, float]:
    """Build the grid operator and pass the threshold through unchanged.

    Central second differences with Dirichlet walls:
    H = -hbar^2/(2m) D2 + diag(V). Polynomial-time data transform.
    """
    n = inst.grid_points
    dx = inst.box_length / (n + 1)
    t = c.hbar**2 / (2.0 * inst.mass * dx * dx)
    diag = 2.0 * t + inst.potential
    offdiag = np.full(n - 1, -t)
    diag.setflags(write=False)
    offdiag.setflags(write=False)
    return GridHamiltonian(diag=diag, offdiag=offdiag), float(inst.threshold)


# Limits on the grid operator's kinetic term hbar^2 / (m dx^2), the range of _ground_energy_direct. LAPACK's
# tridiagonal eigensolver stops converging once the off-diagonal passes about 1.3e154, sqrt(float max), and below
# about 1e-154 the squared off-diagonals it works on underflow, which splits the operator into 1x1 blocks.
MAX_KINETIC = 1e150
MIN_KINETIC = 1e-150
INVERSE_TOL = 1e-12
INVERSE_MAX_ITER = 200


def _ground_energy_direct(h: GridHamiltonian) -> float:
    """Lowest eigenvalue by LAPACK stebz, bisected to full precision; raises on info != 0."""
    # tol=0 lets stebz stop at a width of eps * ||H||_1, far wider than E0 if one entry of V is huge.
    tiny = 2.0 * np.finfo(float).tiny
    # Eigenvalues il=1 to iu=1 (range 2, by index), in order "E": what eigvalsh_tridiagonal(select="i") asks for.
    _, w, _, _, info = _lapack().dstebz(h.diag, h.offdiag, 2, 0.0, 1.0, 1, 1, tiny, "E")
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dstebz failed (info={info})")
    return float(w[0])


def _ground_energy_inverse(h: GridHamiltonian) -> float:
    """Smallest eigenvalue by inverse iteration with certified shifts, else by bisection on the inertia of H - x.

    It runs on A = H / s, s the largest entry magnitude, so no entry of A - x
    overflows and its rules hold in any units. A - x is positive definite,
    every eigenvalue above x, exactly when LAPACK pttrf factors it
    (Sylvester's law of inertia): x is a certified shift. The first is 1e-6
    max(|g|, c) below the Gershgorin bound g, c the largest coupling of A;
    each solve reuses its factors (pttrs), O(N). After each iterate, with
    Rayleigh quotient lam and residual r, some eigenvalue lies within r of
    lam, so the shift and its factors move up to lam - 1.01 r whenever pttrf
    certifies it: shifts rise toward E0, never past it. The iteration stops
    once lam moves by at most INVERSE_TOL max(|lam|, c) and r <= 1e-8
    max(|lam|, c); if it fails or stalls, ``_bisect_inertia`` finishes from
    the last certified shift. The answer is clamped into [g, min(diag)],
    which holds E0, then scaled back by s.

    The start u / sqrt(N), u_0 = 1 and u_{i+1} = -u_i where the coupling
    e_i > 0, else u_i, has the ground state's signs (diag(u) H diag(u) has
    couplings <= 0), so it is never orthogonal to it; on the grid, u = 1.
    """
    lapack, tiny = _lapack(), float(np.finfo(float).tiny)
    scale = max(float(np.abs(h.diag).max()), float(np.abs(h.offdiag).max(initial=0.0)), tiny)
    a = GridHamiltonian(diag=h.diag / scale, offdiag=h.offdiag / scale)
    off = np.abs(a.offdiag)
    coupling = float(off.max(initial=0.0))
    radii = np.concatenate(([0.0], off)) + np.concatenate((off, [0.0]))
    low, top = float((a.diag - radii).min()), float(a.diag.min())  # min(diag), a Rayleigh quotient, bounds E0 above
    # A margin scaled by the largest entry would put the shift far below E0 under one huge V entry.
    shift = low - 1e-6 * max(abs(low), coupling)
    d, e, info = lapack.dpttrf(a.diag - shift, a.offdiag)
    if info == 0:
        signs = np.cumprod(np.where(a.offdiag > 0.0, -1.0, 1.0))
        v, lam_old = np.concatenate(([1.0], signs)) * a.dim**-0.5, None
        for _ in range(INVERSE_MAX_ITER):
            v, info = lapack.dpttrs(d, e, v)
            peak = float(np.abs(v).max())
            if info != 0 or not 0.0 < peak < math.inf:  # pivots of A - x underflow where V spans 1e300
                break
            v /= peak  # v grows by up to 1 / (E0 - shift), whose square overflows under a huge V entry
            v /= np.linalg.norm(v)
            av = a.matvec(v)
            lam = float(v @ av)
            size = max(abs(lam), coupling, tiny)
            residual = float(np.linalg.norm((av - lam * v) / size))  # in units of size, lest its squares underflow
            if lam_old is not None and abs(lam - lam_old) <= INVERSE_TOL * size and residual <= 1e-8:
                return scale * min(max(lam, low), top)
            lam_old = lam
            trial = lam - 1.01 * residual * size
            if trial > shift:
                factors = lapack.dpttrf(a.diag - trial, a.offdiag)
                if factors[2] == 0:
                    shift, (d, e, _) = trial, factors
    return scale * min(max(_bisect_inertia(a, shift, top), low), top)


def _bisect_inertia(h: GridHamiltonian, lo: float, hi: float) -> float:
    """E0 in (lo, hi], bisected to adjacent floats: pttrf factors H - mid exactly when E0 > mid."""
    pttrf = _lapack().dpttrf
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        if pttrf(h.diag - mid, h.offdiag)[2] == 0:
            lo = mid
        else:
            hi = mid
    return hi


def ground_energy(h: GridHamiltonian, method: str = "dense") -> float:
    """Smallest eigenvalue of the grid operator; raises ValueError on a non-finite entry.

    ``dense`` (the name the payloads carry) bisects the lowest eigenvalue
    only, to full precision, with LAPACK's direct tridiagonal eigensolver;
    ``inverse`` runs shifted inverse iteration, finished by inertia
    bisection if it stalls, as a cross-check that never calls the direct
    solver.
    """
    if method not in ("dense", "inverse"):
        raise ValueError(f"unknown method {method!r}, expected 'dense' or 'inverse'")
    # stebz returns a finite number with info 0 for a NaN entry; inverse iteration returns NaN.
    if not (np.isfinite(h.diag).all() and np.isfinite(h.offdiag).all()):
        raise ValueError("grid operator entries must be finite")
    if h.dim == 1:
        return float(h.diag[0])
    return _ground_energy_direct(h) if method == "dense" else _ground_energy_inverse(h)


def below_threshold(energy: float, threshold: float) -> bool:
    """Is ``energy`` at most ``threshold``? Ties resolve to yes.

    The comparison allows an absolute slack of 1e-9 * max(1, |threshold|)
    so that exact-tie inputs are not lost to rounding.
    """
    return energy <= threshold + 1e-9 * max(1.0, abs(threshold))


def decide_energy_threshold(inst: SpectralDecisionInstance, c: PhysicalConstants = NATURAL_UNITS) -> bool:
    """Is the ground energy at most the threshold? Ties resolve to yes (see ``below_threshold``)."""
    h, threshold = reduce_energy_decision(inst, c)
    return below_threshold(ground_energy(h), threshold)


def verify_eigenpair(h: GridHamiltonian, psi: np.ndarray, energy: float, tol: float) -> bool:
    """Residual check ||H psi - E psi||_2 <= tol for a 1-D array psi.

    Costs one O(N) matrix-vector product with the tridiagonal grid
    operator, so a claimed eigenpair is checkable far more cheaply than it
    is findable.
    """
    psi = np.asarray(psi)
    if psi.size != h.dim:
        raise ValueError(f"dimension mismatch: operator dim {h.dim}, vector dim {psi.size}")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"eigenvector must be normalized, |norm - 1| = {abs(nrm - 1.0):.3e}")
    residual = float(np.linalg.norm(h.matvec(psi) - energy * psi))
    return residual <= tol
