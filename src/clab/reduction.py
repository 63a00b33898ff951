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
  -1/(2m) d^2/dx^2 + V(x) with Dirichlet walls into a tridiagonal
  operator and ask whether the ground energy is at most a threshold.
  Finding E0 takes an eigensolver; checking it is cheaper: two O(N)
  factorizations certify a bracket around it, and a residual check of
  one O(N) matrix-vector product verifies a candidate eigenpair.

Everything is in natural units (hbar = 1): a time is a phase per unit
energy, and a mass m from units with another hbar enters as m / hbar^2.

Bit conventions: assignments are bitstrings z_1 ... z_n with bit 1 the
leftmost character and the most significant bit of the basis index, so
``format(index, "0{n}b")`` reads off the assignment directly.
"""
from __future__ import annotations

import ctypes
import errno
import functools
import importlib.machinery
import importlib.util
import json
import math
import os
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

from .qcore import StateVector, integrate_tdse

__all__ = [
    "ExactCoverInstance",
    "SpectralDecisionInstance",
    "GridHamiltonian",
    "read_json",
    "shown",
    "load_instance",
    "bitstring_satisfies",
    "brute_force_exact_cover",
    "build_cost_hamiltonian",
    "build_begin_hamiltonian",
    "uniform_superposition",
    "projected_steps",
    "SweepResult",
    "success_sweep",
    "most_probable_bitstring",
    "reduce_energy_decision",
    "ground_energy",
    "ground_energy_bracket",
    "below_threshold",
    "decide_energy_threshold",
    "verify_eigenpair",
]

BRUTE_FORCE_MAX_BITS = 24
EVOLUTION_MAX_BITS = 12
# The step-doubling loop of success_sweep. The first run's steps span a phase dt E_max
# of at most START_PHASE rad: of 6, 8, 12, 16 and 24 rad, 12 took the fewest matvecs on the
# benchmark's three criterion-6 sweeps under the probability-error stop (58,560, against 82,067
# at 6, 67,048 at 8, 83,309 at 16 and 70,490 at 24). After MAX_DOUBLINGS doublings a step spans
# about 12 / 64 rad, the finest run the search can reach.
START_PHASE = 12.0
MAX_DOUBLINGS = 6
STEP_ERROR_TOL = 1e-6
# Largest JSON file read_json takes; a spectral config with a 4096-value potential is about 110 KB.
JSON_MAX_BYTES = 1 << 20
# reprlib's cuts (a string or an int to 30 characters, a list to 6 items, a dict to 4) at one level of nesting,
# where a list of lists shows as [[...], ...]. So ``shown`` of any value is at most about 270 characters.
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel, _SHOWN.maxlong = 1, 30


@functools.cache
def _load_scipy():
    """scipy's compiled sparse kernels, ``scipy/sparse/_sparsetools``, loaded from their file on the first call.

    ``csr_matvec(rows, cols, indptr, indices, data, x, y)`` adds the CSR
    product into y, in compiled code; only an adiabatic run needs it.
    ``import scipy.sparse`` takes about 0.24 s, mostly in modules no call
    here needs, and even ``import scipy`` costs about 1.2 MiB of peak RSS,
    so scipy's directory is found without running any of scipy's package
    inits. The module stays out of ``sys.modules``, so a later ``import
    scipy.sparse`` loads its own copy. Two threads making the first call at
    once may each load the file, which is harmless; the cache keeps one.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed")
    directory = os.path.join(scipy.submodule_search_locations[0], "sparse")
    spec = importlib.machinery.PathFinder.find_spec("_sparsetools", [directory])
    if spec is None:
        raise ImportError(f"scipy's compiled module _sparsetools not found in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(spec.name, None)  # a single-phase extension module registers itself on load
    return module


# numpy's compiled core, which links numpy's OpenBLAS, and the names under which that OpenBLAS exports LAPACK's
# dstebz and dpttrf with 64-bit integers: numpy >= 2 wheels prefix them with scipy_, numpy 1.x wheels do not.
_LAPACK_CORES = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")
_LAPACK_SYMBOLS = (("scipy_dstebz_64_", "scipy_dpttrf_64_"), ("dstebz_64_", "dpttrf_64_"))


@functools.cache
def _lapack():
    """LAPACK's ``(dstebz, dpttrf)`` from the OpenBLAS that numpy has already loaded, as ctypes functions.

    ``dlsym`` on the handle of numpy's compiled core module searches the
    libraries that module links, so no library file name is needed and
    nothing new is mapped: the lookup takes about 0.1 ms, and a spectral
    run loads no scipy module. Raises ImportError naming every module and
    symbol it tried when no pair is found (a numpy built against a LAPACK
    with 32-bit integers, say); there is no second route.
    """
    tried = []
    for name in _LAPACK_CORES:
        if name not in sys.modules:
            tried.append(f"{name} (not loaded)")
            continue
        library = ctypes.CDLL(sys.modules[name].__file__)
        for symbols in _LAPACK_SYMBOLS:
            tried.append(f"{' and '.join(symbols)} in {name}")
            if all(hasattr(library, symbol) for symbol in symbols):
                return tuple(getattr(library, symbol) for symbol in symbols)
    raise ImportError("no LAPACK with 64-bit integers found through numpy: tried " + "; ".join(tried))


def _ref(kind, value=0):
    return ctypes.byref(kind(value))


def _dstebz_lowest(diag: np.ndarray, offdiag: np.ndarray) -> tuple[float, int]:
    """LAPACK dstebz's lowest eigenvalue of the tridiagonal (diag, offdiag), and its info.

    RANGE "I" with il = iu = 1, ORDER "E", as scipy's
    ``eigvalsh_tridiagonal(select="i")`` asks. The absolute tolerance is
    2 tiny: tol = 0 would let dstebz stop at a width of eps ||H||_1, far
    wider than E0 if one entry of V is huge. dstebz reads N - 1 couplings
    unchecked, so their count is checked first (a ValueError otherwise).
    """
    d, e = np.ascontiguousarray(diag, dtype=np.float64), np.ascontiguousarray(offdiag, dtype=np.float64)
    n = d.size
    if e.size != n - 1:
        raise ValueError(f"need {n - 1} couplings for {n} diagonal entries, got {e.size}")
    w, work, ints = np.empty(n), np.empty(4 * n), np.empty(5 * n, dtype=np.int64)  # ints: IBLOCK, ISPLIT, IWORK
    info = ctypes.c_int64()
    _lapack()[0](
        b"I", b"E", _ref(ctypes.c_int64, n), _ref(ctypes.c_double), _ref(ctypes.c_double), _ref(ctypes.c_int64, 1),
        _ref(ctypes.c_int64, 1), _ref(ctypes.c_double, 2.0 * np.finfo(float).tiny), d.ctypes, e.ctypes,
        _ref(ctypes.c_int64), _ref(ctypes.c_int64), w.ctypes, ints.ctypes, ints[n:].ctypes, work.ctypes,
        ints[2 * n:].ctypes, ctypes.byref(info), ctypes.c_size_t(1), ctypes.c_size_t(1),  # the lengths of "I" and "E"
    )
    return float(w[0]), info.value


def _dpttrf_info(d: np.ndarray, e: np.ndarray) -> int:
    """LAPACK dpttrf's info on the tridiagonal (d, e): 0 when it is positive definite, else the first non-positive pivot's row.

    dpttrf overwrites both arrays with the factors, so callers pass fresh
    float64 arrays; it reads N - 1 couplings unchecked, so their count is
    checked first (a ValueError otherwise).
    """
    if e.size != d.size - 1:
        raise ValueError(f"need {d.size - 1} couplings for {d.size} diagonal entries, got {e.size}")
    info = ctypes.c_int64()
    _lapack()[1](_ref(ctypes.c_int64, d.size), d.ctypes, e.ctypes, ctypes.byref(info))
    return info.value


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
            raise ValueError(f"need n >= 1 bits, got {shown(self.n)}")
        seen = set()
        norm = []
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {shown(clause)} must have exactly 3 indices")
            i, j, k = (int(x) for x in clause)
            if not (1 <= i < j < k <= self.n):
                raise ValueError(f"clause {shown(clause)} must satisfy 1 <= i < j < k <= {shown(self.n)}")
            if (i, j, k) in seen:
                raise ValueError(f"duplicate clause {shown(clause)}")
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
            raise ValueError(f"unknown instance keys: {shown(sorted(extra))}")
        n, clauses = data.get("n"), data.get("clauses")
        if not _is_json_int(n):
            raise ValueError(f"n must be an integer, got {shown(n)}")
        if not isinstance(clauses, list):
            raise ValueError(f"clauses must be a list of [i, j, k] lists, got {shown(clauses)}")
        for clause in clauses:
            if not (isinstance(clause, list) and len(clause) == 3 and all(map(_is_json_int, clause))):
                raise ValueError(f"clause {shown(clause)} must be a list of 3 integers")
        return cls(n=n, clauses=tuple(tuple(c) for c in clauses))


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def shown(value) -> str:
    """``repr(value)`` for a short value, cut by ``_SHOWN`` for a long one: how an error message echoes input."""
    return _SHOWN.repr(value)


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


def _centred_interpolation(d: np.ndarray, energies: np.ndarray):
    """-i (H(s) - c(s)) for the linear schedule H(s) = (1 - s) H_begin + s H_cost, as one CSR matrix refilled in place.

    ``d`` is the begin operator's clause counts and ``energies`` the cost
    diagonal, of 2^d.size entries (a ValueError otherwise). With w_i = d_i/2
    and W = sum_i w_i, H_begin v = W v - sum_i w_i v[z XOR bit_i], so row z
    of H(s) holds (1 - s) W + s E_z at column z and -(1 - s) w_i at column
    z XOR bit_i for each bit i in some clause. That pattern (int32 indices)
    is built here, once.

    Each endpoint is centred on its own spectrum: H_begin on [0, E_max]
    with E_max = 2W, H_cost on [0, max E]. So the operator is
    H(s) - c(s) with the affine centre c(s) = ((1 - s) E_max + s max E) / 2,
    and its spectral norm is at most c(s). Returns ``(at, centre)``, with
    ``centre(s)`` = c(s). ``at(s, scale=1.0)`` refills the one data array
    with the generator -i scale (H(s) - c(s)), so a product from an
    earlier call applies the latest fill, and returns scipy's compiled
    ``csr_matvec`` bound to the matrix, called as ``product(v, out)``: it
    adds -i scale (H(s) - c(s)) v into ``out`` at a cost of O(n 2^n). It
    reads ``v`` and writes ``out`` unchecked, so both must be complex128
    arrays of 2^n entries that do not overlap.
    """
    n = d.size
    if energies.size != 1 << n:
        raise ValueError(f"need 2^{n} = {1 << n} cost energies for {n} bits, got {energies.size}")
    sites = np.flatnonzero(d)
    z = np.arange(1 << n)[:, None]
    indices = np.hstack([z, z ^ np.left_shift(1, n - 1 - sites)]).astype(np.int32).reshape(-1)
    indptr = np.arange(0, indices.size + 1, sites.size + 1, dtype=np.int32)
    # Every entry is imaginary; each fill writes float64 views: all entries from -i (H_begin - W), then the diagonal.
    data = np.zeros((energies.size, sites.size + 1), dtype=np.complex128)
    begin = data.copy()
    begin.imag[:, 1:] = d[sites] / 2.0  # H_begin - W has a zero diagonal: W = sum_i w_i is the centre of [0, E_max]
    begin, flat, diagonal = begin.view(np.float64).reshape(-1), data.view(np.float64).reshape(-1), data.imag[:, 0]
    e_max, top = float(d.sum()), float(energies.max())
    cost = top / 2.0 - energies
    size = energies.size
    product = functools.partial(_load_scipy().csr_matvec, size, size, indptr, indices, data.reshape(-1))

    def at(s: float, scale: float = 1.0):
        np.multiply(begin, scale * (1.0 - s), out=flat)
        np.multiply(cost, scale * s, out=diagonal)
        return product

    return at, lambda s: ((1.0 - s) * e_max + s * top) / 2.0


def uniform_superposition(n: int) -> StateVector:
    return StateVector(np.full(1 << n, (1 << n) ** -0.5, dtype=np.complex128))


# ---------------------------------------------------------------------------
# Adiabatic sweep
# ---------------------------------------------------------------------------

def _first_steps(total_time: float, e_max: float) -> float:
    """Steps of the first run at total time T: max(1, ceil(T E_max / START_PHASE)); inf and NaN pass through."""
    return max(float(np.ceil(total_time * e_max / START_PHASE)), 1.0)


def projected_steps(inst: ExactCoverInstance, total_times) -> float:
    """Bound on the integration steps a sweep over ``total_times`` takes, known before any run.

    At each T the step-doubling loop of ``success_sweep`` runs N, 2N, ...,
    at most 2^MAX_DOUBLINGS N steps, with N = max(1, ceil(T E_max /
    START_PHASE)) the first run's steps and E_max = sum_i d_i (see
    ``_sweep``), so it takes at most (2^(MAX_DOUBLINGS + 1) - 1) N = 127 N
    steps in all, whichever error stops it. The bound sums that over T; it
    is inf or NaN when a term is not finite.
    """
    e_max = float(build_begin_hamiltonian(inst).sum())
    return sum((2 ** (MAX_DOUBLINGS + 1) - 1) * _first_steps(t, e_max) for t in total_times)


@dataclass(frozen=True)
class SweepResult:
    """One row per schedule time run, the last run's final state, and the solution count.

    Each row holds ``T``, ``steps`` (of the finer run of the accepted pair),
    ``success_probability``, and two error estimates of it:
    ``probability_error``, the estimate the step search stops on, and
    ``state_error``, the conservative bar (see ``_sweep``).
    """

    rows: list
    state: StateVector
    satisfying_count: int


def success_sweep(
    inst: ExactCoverInstance,
    total_times,
    target: float | None = None,
) -> SweepResult:
    """Integrate the instance's interpolation from the uniform superposition at each total time (see ``_sweep``)."""
    if inst.n > EVOLUTION_MAX_BITS:
        raise ValueError(f"evolution capped at n <= {EVOLUTION_MAX_BITS}, got {inst.n}")
    return _sweep(build_begin_hamiltonian(inst), build_cost_hamiltonian(inst), total_times, target)


def _sweep(d: np.ndarray, energies: np.ndarray, total_times, target: float | None) -> SweepResult:
    """The sweep over a begin operator's per-bit counts ``d`` and a cost diagonal ``energies`` of 2^d.size entries.

    E_max = sum_i d_i must bound max E (it does for Exact Cover, where
    both count clauses). The operators are built once for the whole sweep,
    and the sweep stops early once ``target`` is hit. At each T,
    ``integrate_tdse`` runs with N, 2N, 4N, ... steps,
    N = max(1, ceil(T E_max / START_PHASE)), until the step-doubling
    (Richardson) estimate of the fourth-order error of the finer run's
    success probability, probability_error = 2 |p_2N - p_N| / 15, is at
    most STEP_ERROR_TOL, or the step count has doubled MAX_DOUBLINGS
    times. The factor 2 guards pairs that are not yet in the asymptotic
    regime, where |p_2N - p_N| / 15 under-reads (by up to 3.9x, measured
    on the criterion-6 sweeps). Each row also keeps the estimate for the
    whole state, state_error = ||psi_2N - psi_N|| / 15, as the
    probability's conservative error bar: it has not under-read the true
    error of the success probability on any row the tests check (at most
    0.77 of it), and it is usually far above it.

    H(s) is passed centred, as H(s) - c(s) with the affine centre
    c(s) = ((1 - s) E_max + s max E) / 2 (see ``_centred_interpolation``),
    and c(s) bounds its norm at each node: near s = 1 the series pay for
    the cost diagonal's range, not for E_max. The centre changes only the
    global phase, by the same amount in every run (see ``integrate_tdse``),
    so both estimates measure discretisation alone. Success is the finer
    run's final weight on the zero set of the cost diagonal (the
    satisfying assignments of an Exact Cover instance).

    Each run's Chebyshev series are truncated at a budget of
    STEP_ERROR_TOL / 1000, a fixed ratio (see ``integrate_tdse``): against
    untruncated series, each run's final state moves by at most about that
    budget, so a row's success probability moves by at most twice it, its
    state_error by at most a fifteenth of that, and its probability_error
    by at most 8/15 of that budget.
    """
    total_times = [float(t) for t in total_times]
    if not total_times or not all(math.isfinite(t) and t > 0 for t in total_times):
        raise ValueError(f"need one or more finite, positive total times, got {total_times}")
    e_max = float(d.sum())
    at, centre = _centred_interpolation(d, energies)
    psi0 = uniform_superposition(d.size)
    solutions = energies == 0
    rows = []
    for total_time in total_times:

        def run(steps):
            state = integrate_tdse(
                lambda t, scale: at(t / total_time, scale), psi0, total_time, steps,
                lambda t: centre(t / total_time),
                truncation=STEP_ERROR_TOL / 1000.0,
            )
            return state, float(state.probabilities()[solutions].sum())

        steps = int(_first_steps(total_time, e_max))
        coarse, coarse_success = run(steps)
        for _ in range(MAX_DOUBLINGS):
            steps *= 2
            state, success = run(steps)
            probability_error = 2.0 * abs(success - coarse_success) / 15.0
            state_error = float(np.linalg.norm(state.amps - coarse.amps)) / 15.0
            if probability_error <= STEP_ERROR_TOL:
                break
            coarse, coarse_success = state, success
        rows.append({
            "T": total_time, "steps": steps, "success_probability": success,
            "probability_error": probability_error, "state_error": state_error,
        })
        if target is not None and success >= target:
            break
    return SweepResult(rows=rows, state=state, satisfying_count=int(solutions.sum()))


def most_probable_bitstring(state: StateVector, n: int) -> str:
    """Assignment carrying the largest probability in a 2^n state; the lowest among those within 1e-12 of it (ties)."""
    if state.dim != 1 << n:
        raise ValueError(f"state dim {state.dim} does not match 2^{n}")
    probs = state.probabilities()
    return format(int(np.argmax(probs >= probs.max() - 1e-12)), f"0{n}b")


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
        if not self.mass > 0:  # an infinite mass has no kinetic term
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
    """Boxed Schrodinger operator on the grid: N diagonal and N - 1 symmetric off-diagonal entries, all finite."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        for name in ("diag", "offdiag"):  # read-only float64 copies
            entries = np.array(getattr(self, name), dtype=np.float64, copy=True).reshape(-1)
            if not np.isfinite(entries).all():  # stebz returns a finite number with info 0 for a NaN entry
                raise ValueError(f"grid operator {name} entries must be finite")
            entries.setflags(write=False)
            object.__setattr__(self, name, entries)
        if self.offdiag.size != self.dim - 1:
            raise ValueError(f"need {self.dim - 1} couplings for {self.dim} diagonal entries, got {self.offdiag.size}")

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


def reduce_energy_decision(inst: SpectralDecisionInstance) -> tuple[GridHamiltonian, float]:
    """Build the grid operator and pass the threshold through unchanged.

    Central second differences with Dirichlet walls: H = -1/(2m) D2 + diag(V),
    diagonal 1/(m dx^2) + V. Polynomial-time data transform. Formed in float64
    under errstate, an m dx^2 that underflows to 0 or a sum that overflows gives
    a non-finite entry, which ``GridHamiltonian`` refuses with a ValueError.
    """
    n = inst.grid_points
    dx = inst.box_length / (n + 1)
    with np.errstate(all="ignore"):
        kinetic = 1.0 / (np.float64(inst.mass) * dx * dx)
        diag = kinetic + inst.potential
    return GridHamiltonian(diag, np.full(n - 1, -0.5 * kinetic)), float(inst.threshold)


# Half-width of the certified bracket on A = H / s in units of s (see ground_energy_bracket), and the clamp on A's
# diagonal (see _scaled): it moves the eigenvalues near E0 by about 2^-CLAMP_BITS s at most, and below 2^1000 no Sturm
# pivot of A overflows in LAPACK (a pivot adds up to e^2 / pivmin = 2^1022). A clamp as low as 2^56 moves stebz's
# answer by an ulp on a grid spiked at 2^59 s: its bisection starts from the clamped Gershgorin bound.
BRACKET_MARGIN = 10.0 * float(np.finfo(float).eps)
CLAMP_BITS = 1000


def _scaled(h: GridHamiltonian, magnitude: float) -> tuple[int, np.ndarray, np.ndarray]:
    """The exponent k of s = 2^k, the power of two above max(|coupling|, magnitude, -min(diag)), and H / s.

    Dividing by s is exact, up to underflow below 2^-1022 s. Diagonal entries above C = 2^CLAMP_BITS s are
    clamped to C first (no finite entry lies above a C past the float range), so none of H / s overflows.
    """
    exponent = math.frexp(max(float(np.abs(h.offdiag).max(initial=0.0)), magnitude, -float(h.diag.min())))[1]
    cap = math.ldexp(1.0, exponent + CLAMP_BITS) if exponent + CLAMP_BITS < sys.float_info.max_exp else math.inf
    return exponent, np.ldexp(np.minimum(h.diag, cap), -exponent), np.ldexp(h.offdiag, -exponent)


def ground_energy(h: GridHamiltonian) -> float:
    """Smallest eigenvalue of the grid operator, by LAPACK stebz bisected to full precision.

    stebz runs on H / s, s of ``_scaled`` at |min(diag)| (by Gershgorin |E0| <= 3 s): the couplings are below
    s, so the squares stebz works on neither overflow nor underflow at any scale of H. An E0 below the float
    range is -inf. Raises LinAlgError when stebz reports info != 0.
    """
    exponent, diag, offdiag = _scaled(h, abs(float(h.diag.min())))
    energy, info = _dstebz_lowest(diag, offdiag)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dstebz failed (info={info})")
    return _unscaled(energy, exponent)


def _unscaled(value: float, exponent: int) -> float:
    with np.errstate(over="ignore"):  # -inf or inf past the float range
        return float(np.ldexp(value, exponent))


def ground_energy_bracket(h: GridHamiltonian, energy: float) -> tuple[float, float]:
    """Bounds ``lower <= E0 <= upper`` around a claimed ground energy, each certified by one O(N) factorization.

    The checks run on A = H / s, s of ``_scaled`` at |energy| (for a true E0,
    -min(diag) is at most |E0|: each diagonal entry is a Rayleigh quotient),
    so the bracket reads the same in any units and is as fine as E0 and the
    couplings, however large other entries are. An entry clamped to C stays
    clamped for the lower check (lowering an entry lowers every eigenvalue)
    and its row is dropped for the upper check (a principal submatrix: by
    Cauchy interlacing its lowest eigenvalue is at least E0). With
    x = energy / s and d = BRACKET_MARGIN:

    * Below: A - y is positive definite, every eigenvalue above y, exactly
      when LAPACK pttrf factors it (Sylvester's law of inertia), so
      info == 0 at y = x - d/2 certifies E0 > y.
    * Above: a first non-positive pivot at k (info == k > 0) shows that the
      leading k x k block of A - y is not positive definite, so by Cauchy
      interlacing info > 0 at y = x + d/2 certifies E0 <= y.

    Rounding (Kahan 1966; Demmel, *Applied Numerical Linear Algebra*, 5.3):
    pttrf's pivots in floating point have the signs of the exact pivots of
    a matrix whose couplings differ from A's by at most 1.25 eps relative,
    the diagonal unchanged (the rounding of each a_i - y included, however
    large a_i), so its eigenvalues lie within 2.5 eps of A's (Weyl; no
    coupling of A exceeds 1). The checks run at d/2 and the bounds are
    x -/+ d: the other d/2 = 5 eps covers that 2.5 eps plus one rounding of
    y and one of the bound (|x| < 1, so each is at most eps / 2). So each
    bound holds for A itself, up to underflow in entries below 2^-1022 s.

    A side whose check fails falls back to the bound that always holds:
    the Gershgorin bound of the clamped A less d below (d covers its two
    roundings), and min(diag), a Rayleigh quotient, above. A lower bound
    below the float range is -inf, and an upper one above it is the largest
    float, which min(diag) never exceeds. No loop, no retry. Raises
    ValueError on a non-finite energy.
    """
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    if h.dim == 1:  # E0 is the entry
        return float(h.diag[0]), float(h.diag[0])
    exponent, a, off = _scaled(h, abs(energy))
    x = math.ldexp(energy, -exponent)
    if _dpttrf_info(a - (x - BRACKET_MARGIN / 2.0), off.copy()) == 0:
        lower = x - BRACKET_MARGIN
    else:
        radii = np.concatenate(([0.0], np.abs(off))) + np.concatenate((np.abs(off), [0.0]))
        lower = float((a - radii).min()) - BRACKET_MARGIN
    keep = a < 2.0**CLAMP_BITS
    kept = np.flatnonzero(keep)  # a coupling next to a dropped row leaves the submatrix with it
    sub_off = np.where(keep[:-1] & keep[1:], off, 0.0)[kept[:-1]]
    upper_holds = kept.size > 0 and _dpttrf_info(a[kept] - (x + BRACKET_MARGIN / 2.0), sub_off) > 0
    upper = min(_unscaled(x + BRACKET_MARGIN, exponent), sys.float_info.max) if upper_holds else float(h.diag.min())
    return _unscaled(lower, exponent), upper


def below_threshold(energy: float, threshold: float) -> bool:
    """Is ``energy`` at most ``threshold``? Ties resolve to yes.

    The comparison allows an absolute slack of 1e-9 * max(1, |threshold|)
    so that exact-tie inputs are not lost to rounding.
    """
    return energy <= threshold + 1e-9 * max(1.0, abs(threshold))


def decide_energy_threshold(inst: SpectralDecisionInstance) -> bool:
    """Is the ground energy at most the threshold? Ties resolve to yes (see ``below_threshold``)."""
    h, threshold = reduce_energy_decision(inst)
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
