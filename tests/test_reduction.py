"""Exact Cover encodings, adiabatic sweeps, and the grid decision problem."""
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

import clab.reduction as reduction
from clab.reduction import (
    ExactCoverInstance,
    GridHamiltonian,
    SpectralDecisionInstance,
    below_threshold,
    bitstring_satisfies,
    brute_force_exact_cover,
    build_begin_hamiltonian,
    build_cost_hamiltonian,
    decide_energy_threshold,
    ground_energy,
    ground_energy_bracket,
    load_instance,
    most_probable_bitstring,
    projected_steps,
    reduce_energy_decision,
    success_sweep,
    uniform_superposition,
    verify_eigenpair,
)

UNSAT_N4 = ExactCoverInstance(n=4, clauses=((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))

# n = 1..6; from n = 4 on, bit n is in no clause.
MATVEC_INSTANCES = [
    ExactCoverInstance(n=1, clauses=()),
    ExactCoverInstance(n=2, clauses=()),
    ExactCoverInstance(n=3, clauses=((1, 2, 3),)),
    ExactCoverInstance(n=4, clauses=((1, 2, 3),)),
    ExactCoverInstance(n=5, clauses=((1, 2, 4), (2, 3, 4), (1, 3, 4))),
    ExactCoverInstance(n=6, clauses=((1, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5))),
]


def kron_begin_matrix(inst):
    """Dense reference sum_i d_i (1 - X_i)/2, one Kronecker product per bit."""
    half = np.array([[0.5, -0.5], [-0.5, 0.5]])
    matrix = np.zeros((1 << inst.n, 1 << inst.n))
    for site in range(inst.n):
        d = sum(site + 1 in clause for clause in inst.clauses)
        matrix += d * np.kron(np.kron(np.eye(1 << site), half), np.eye(1 << (inst.n - site - 1)))
    return matrix


def random_instance(n, seed):
    """Up to 2n distinct random clauses over n bits."""
    rng = np.random.default_rng(seed)
    clauses = {tuple(int(i) + 1 for i in sorted(rng.choice(n, 3, replace=False))) for _ in range(2 * n)}
    return ExactCoverInstance(n=n, clauses=tuple(sorted(clauses)))


RANDOM_INSTANCES = [random_instance(n, seed) for n in range(3, 11) for seed in (n, 100 + n)]


def instance_id(inst):
    return f"n{inst.n}-{len(inst.clauses)}"


def violated_clause_counts(inst):
    """Reference cost diagonal, counted clause by clause on bitstrings."""
    counts = []
    for z in range(1 << inst.n):
        bits = format(z, f"0{inst.n}b")
        counts.append(sum(int(bits[i - 1]) + int(bits[j - 1]) + int(bits[k - 1]) != 1 for i, j, k in inst.clauses))
    return np.array(counts, dtype=float)


def centre(inst, s):
    """c(s) = ((1 - s) E_max + s max E) / 2, the centre the sweep's CSR fill takes off H(s)."""
    return ((1.0 - s) * 3.0 * len(inst.clauses) + s * violated_clause_counts(inst).max()) / 2.0


def centred_operator(inst):
    """The sweep's CSR fill ``at(s, scale)`` of -i (H(s) - c(s)) for ``inst``."""
    return reduction._centred_interpolation(build_begin_hamiltonian(inst), build_cost_hamiltonian(inst))[0]


def reference_success(inst, total_time, steps):
    """Success probability of an untruncated CF4 run of ``steps`` steps at total time T (for 8x or 16x a row's steps)."""
    energies = build_cost_hamiltonian(inst)
    at = reduction._centred_interpolation(build_begin_hamiltonian(inst), energies)[0]
    ends = centre(inst, 0.0), centre(inst, 1.0)
    state = reduction.integrate_tdse(
        lambda t, scale: at(t / total_time, scale), uniform_superposition(inst.n), total_time, steps,
        lambda t: (1.0 - t / total_time) * ends[0] + (t / total_time) * ends[1],
    )
    return state.probabilities()[energies == 0].sum()


def planted_instance(n, seed):
    """An Exact Cover instance whose one solution is a random assignment, planted.

    Draws the assignment, then adds clauses that it satisfies, in random
    order, until no other assignment satisfies them all; an assignment no
    clause set makes unique is redrawn.
    """
    rng = np.random.default_rng(seed)
    while True:
        planted = rng.integers(0, 2, n)
        pool = [c for c in itertools.combinations(range(1, n + 1), 3) if sum(planted[i - 1] for i in c) == 1]
        clauses = []
        for k in rng.permutation(len(pool)):
            clauses.append(pool[k])
            inst = ExactCoverInstance(n=n, clauses=tuple(sorted(clauses)))
            if np.count_nonzero(build_cost_hamiltonian(inst) == 0) == 1:
                return inst


# (n, seed) of the planted instances the error gate runs; fixed before the gate was first run.
PLANTED = [(6, 1), (6, 2), (6, 3), (8, 1), (8, 2)]
CRITERION_6_TIMES = [2.0**k for k in range(8)]  # T_min 1, doublings 7


def separable_oracle(d, w, total_time, steps):
    """Exact success probability of the sweep with begin counts d and cost E_z = sum_i w_i z_i, all w_i >= 1.

    H(s) is then a sum of one-qubit terms (1 - s) d_i (1 - X_i)/2 + s w_i (1 - Z_i)/2, so the
    final state is a product of n 2x2 evolutions from |+>, and success is the product of their
    weights on |0>. Each is integrated by Gauss-node CF4 with closed-form SU(2) exponentials
    (the traceless part; the trace is a global phase) and multiplied out pairwise. It shares no
    code with ``integrate_tdse``: at 2^13 steps it agrees with 2^14 to 1e-12 up to T = 64.
    """
    root3 = math.sqrt(3.0)
    nodes = (np.arange(steps)[:, None] + [0.5 - root3 / 6.0, 0.5 + root3 / 6.0]) / steps  # s at the Gauss nodes
    dt = total_time / steps
    factors = []
    for weights in ([(3.0 + 2.0 * root3) / 12.0, (3.0 - 2.0 * root3) / 12.0],
                    [(3.0 - 2.0 * root3) / 12.0, (3.0 + 2.0 * root3) / 12.0]):  # the first factor, then the second
        s = nodes @ weights  # the weighted sum of the two nodes' s; the weights sum to 1/2
        bx, bz = -dt * (0.5 - s)[:, None] * d / 2.0, -dt * s[:, None] * w / 2.0  # exp(-i (bx X + bz Z))
        angle = np.hypot(bx, bz)
        sinc = np.sinc(angle / np.pi)
        factors.append((np.cos(angle) - 1j * sinc * bz, -1j * sinc * bx))  # [[a, -conj(b)], [b, conj(a)]]
    # Factors in the order they apply, then multiplied pairwise: later @ earlier, which stays in SU(2).
    a = np.stack([factors[0][0], factors[1][0]], axis=1).reshape(2 * steps, -1)
    b = np.stack([factors[0][1], factors[1][1]], axis=1).reshape(2 * steps, -1)
    while len(a) > 1:
        a, b = a[1::2] * a[0::2] - np.conj(b[1::2]) * b[0::2], b[1::2] * a[0::2] + np.conj(a[1::2]) * b[0::2]
    return float(np.prod(np.abs(a[0] - np.conj(b[0])) ** 2 / 2.0))


def apply(at, s, v, scale=1.0):
    """scale (H(s) - c(s)) v: i times the fill's compiled product, adding into zeros (exact: i swaps the parts)."""
    out = np.zeros(v.size, dtype=np.complex128)
    at(s, scale)(np.ascontiguousarray(v, dtype=np.complex128), out)
    return 1j * out


def operator_columns(at, s, dim):
    """The dense matrix of the sparse operator at s, one basis vector at a time."""
    return np.column_stack([apply(at, s, e) for e in np.eye(dim, dtype=complex)])


def dense_grid_matrix(inst):
    """Reference grid operator -1/(2m) D2 + diag(V), built entry by entry."""
    n = inst.grid_points
    dx = inst.box_length / (n + 1)
    t = 1.0 / (2.0 * inst.mass * dx * dx)
    matrix = np.diag(2.0 * t + inst.potential)
    for i in range(n - 1):
        matrix[i, i + 1] = matrix[i + 1, i] = -t
    return matrix


def harmonic_instance(grid_points=512, box_length=20.0, mass=1.0, omega=1.0, threshold=1.0):
    dx = box_length / (grid_points + 1)
    x = dx * np.arange(1, grid_points + 1)
    v = 0.5 * mass * omega**2 * (x - box_length / 2.0) ** 2
    return SpectralDecisionInstance(
        grid_points=grid_points, box_length=box_length, mass=mass, potential=v, threshold=threshold
    )


def bracket_scale(h, energy):
    """s of A = H / s in ground_energy_bracket: the power of two at or above |coupling|, |energy| and -min(diag)."""
    peak = max(np.abs(h.offdiag).max(initial=0.0), abs(energy), -h.diag.min())
    return math.ldexp(1.0, math.frexp(peak)[1])


def assert_certified(h, exactly_positive_definite):
    """The bracket around stebz's E0 holds the exact E0, and both checks passed: it is 2 BRACKET_MARGIN s wide."""
    energy = ground_energy(h)
    lower, upper = ground_energy_bracket(h, energy)
    assert lower <= energy <= upper
    assert exactly_positive_definite(h.diag, h.offdiag, lower)
    assert not exactly_positive_definite(h.diag, h.offdiag, upper)
    assert upper - lower <= 2.2 * reduction.BRACKET_MARGIN * bracket_scale(h, energy)  # 2 margins, plus one rounding each
    return lower, upper


class TestExactCoverInstance:
    def test_validates_ranges_and_order(self):
        with pytest.raises(ValueError, match="1 <= i < j < k"):
            ExactCoverInstance(n=3, clauses=((1, 3, 2),))
        with pytest.raises(ValueError, match="1 <= i < j < k"):
            ExactCoverInstance(n=3, clauses=((1, 2, 4),))
        with pytest.raises(ValueError, match="duplicate"):
            ExactCoverInstance(n=4, clauses=((1, 2, 3), (1, 2, 3)))

    def test_json_roundtrip(self, tmp_path):
        inst = ExactCoverInstance(n=5, clauses=((1, 2, 3), (2, 4, 5)))
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 5, "clauses": [[1, 2, 3], [2, 4, 5]]}))
        assert load_instance(path) == inst

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "clauses": [[1, 2, 3]], "comment": "hi"}))
        with pytest.raises(ValueError, match="unknown instance keys"):
            load_instance(path)

    @pytest.mark.parametrize("data", [
        [],
        {"n": 3},
        {"n": True, "clauses": []},
        {"n": 3.0, "clauses": []},
        {"n": 3, "clauses": [[1, 2, 3.0]]},
        {"n": 3, "clauses": [[1, 2, "3"]]},
        {"n": 3, "clauses": [[True, 2, 3]]},
        {"n": 4, "clauses": [[1, 2, 3, 4]]},
    ])
    def test_from_dict_requires_json_integers(self, data):
        with pytest.raises(ValueError):
            ExactCoverInstance.from_dict(data)


class TestBruteForce:
    def test_no_clauses_everything_satisfies(self):
        inst = ExactCoverInstance(n=2, clauses=())
        assert brute_force_exact_cover(inst) == ["00", "01", "10", "11"]

    def test_single_clause_n3(self):
        inst = ExactCoverInstance(n=3, clauses=((1, 2, 3),))
        assert brute_force_exact_cover(inst) == ["001", "010", "100"]

    def test_unsatisfiable_instance(self):
        assert brute_force_exact_cover(UNSAT_N4) == []

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="n <= 24"):
            brute_force_exact_cover(ExactCoverInstance(n=25, clauses=()))


class TestCostHamiltonian:
    def test_no_clauses_all_zero(self):
        hc = build_cost_hamiltonian(ExactCoverInstance(n=3, clauses=()))
        assert hc.max() == 0

    def test_single_clause_counts(self):
        hc = build_cost_hamiltonian(ExactCoverInstance(n=3, clauses=((1, 2, 3),)))
        assert hc[int("100", 2)] == 0
        assert hc[int("111", 2)] == 1
        assert hc[int("000", 2)] == 1

    @pytest.mark.parametrize(
        "path", ["instances/ec_n3_single.json", "instances/ec_n6_unique.json", "instances/ec_n8_unique.json"]
    )
    def test_ground_space_matches_brute_force(self, path):
        inst = load_instance(Path(__file__).resolve().parents[1] / path)
        hc = build_cost_hamiltonian(inst)
        satisfying = brute_force_exact_cover(inst)
        ground = hc.min()
        assert ground == 0
        argmin = {format(z, f"0{inst.n}b") for z in np.nonzero(hc == ground)[0]}
        assert argmin == set(satisfying)

    def test_unsatisfiable_has_positive_ground_energy(self):
        hc = build_cost_hamiltonian(UNSAT_N4)
        assert hc.min() >= 1

    @pytest.mark.parametrize("inst", RANDOM_INSTANCES, ids=instance_id)
    def test_matches_string_bit_counts(self, inst):
        """Pins the bit order: bit 1 is the leftmost character and the most significant bit of the index."""
        hc = build_cost_hamiltonian(inst)
        assert hc.dtype == np.int64 and not hc.flags.writeable
        np.testing.assert_array_equal(hc, violated_clause_counts(inst))


class TestBeginHamiltonian:
    def test_no_clauses_zero_operator(self):
        at = centred_operator(ExactCoverInstance(n=2, clauses=()))
        v = np.random.default_rng(1).standard_normal(4) + 0j
        assert np.abs(apply(at, 0.0, v)).max() == 0.0

    def test_membership_counts_and_ground_state(self):
        inst = ExactCoverInstance(n=3, clauses=((1, 2, 3),))
        np.testing.assert_array_equal(build_begin_hamiltonian(inst), [1, 1, 1])
        u = uniform_superposition(3).amps
        residual = apply(centred_operator(inst), 0.0, u) + centre(inst, 0.0) * u  # (H_begin - c(0)) u = -c(0) u
        assert np.abs(residual).max() <= 1e-12

    def test_hermitian(self):
        inst = ExactCoverInstance(n=4, clauses=((1, 2, 3), (2, 3, 4)))
        m = operator_columns(centred_operator(inst), 0.37, 16)
        assert np.abs(m - m.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("inst", [*MATVEC_INSTANCES, *RANDOM_INSTANCES], ids=instance_id)
    def test_counts_are_clause_membership(self, inst):
        d = build_begin_hamiltonian(inst)
        assert d.dtype == np.int64 and not d.flags.writeable
        members = [sum(bit in clause for clause in inst.clauses) for bit in range(1, inst.n + 1)]
        np.testing.assert_array_equal(d, members)

    def test_max_eigenvalue_is_membership_sum(self):
        inst = ExactCoverInstance(n=4, clauses=((1, 2, 3), (2, 3, 4), (1, 2, 4)))
        top = np.linalg.eigvalsh(operator_columns(centred_operator(inst), 0.0, 16))[-1] + centre(inst, 0.0)
        assert top == pytest.approx(build_begin_hamiltonian(inst).sum(), abs=1e-9)


class TestInterpolate:
    def test_endpoints_exact(self):
        inst = ExactCoverInstance(n=3, clauses=((1, 2, 3),))
        hc = build_cost_hamiltonian(inst)
        at, _ = reduction._centred_interpolation(build_begin_hamiltonian(inst), hc)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.array_equal(apply(at, 1.0, v), (hc - hc.max() / 2.0) * v)
        np.testing.assert_allclose(apply(at, 0.0, v), kron_begin_matrix(inst) @ v - centre(inst, 0.0) * v, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("s", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("inst", MATVEC_INSTANCES, ids=lambda inst: f"n{inst.n}")
    def test_matvec_matches_kronecker_reference(self, inst, s):
        dim = 1 << inst.n
        reference = (1.0 - s) * kron_begin_matrix(inst) + s * np.diag(violated_clause_counts(inst))
        reference -= centre(inst, s) * np.eye(dim)
        at = centred_operator(inst)
        rng = np.random.default_rng(inst.n)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        np.testing.assert_allclose(apply(at, s, v), reference @ v, rtol=0, atol=1e-13)

    def test_rejects_mismatched_sizes(self):
        inst = ExactCoverInstance(n=4, clauses=((1, 2, 3),))
        d, hc = build_begin_hamiltonian(inst), build_cost_hamiltonian(inst)
        for energies in (hc[:8], np.concatenate([hc, hc]), hc[:0]):
            with pytest.raises(ValueError, match="need 2\\^4 = 16 cost energies for 4 bits"):
                reduction._centred_interpolation(d, energies)
        with pytest.raises(ValueError, match="for 3 bits, got 16"):
            reduction._centred_interpolation(d[:3], hc)

    @pytest.mark.parametrize("s", [0.0, 0.37, 1.0])
    def test_scaled_product_adds_into_out(self, s):
        """The product adds -i scale (H(s) - c(s)) v into a prefilled ``out`` on each call and leaves ``v`` as it was."""
        inst = MATVEC_INSTANCES[-1]
        dim, scale = 1 << inst.n, 0.3
        reference = (1.0 - s) * kron_begin_matrix(inst) + s * np.diag(violated_clause_counts(inst))
        reference -= centre(inst, s) * np.eye(dim)
        product = centred_operator(inst)(s, scale)
        rng = np.random.default_rng(inst.n + 1)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        prior = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        kept, out = v.copy(), prior.copy()
        product(v, out)
        np.testing.assert_allclose(out, prior - 1j * scale * (reference @ v), rtol=0, atol=1e-13)
        product(v, out)
        np.testing.assert_allclose(out, prior - 2j * scale * (reference @ v), rtol=0, atol=1e-13)
        np.testing.assert_array_equal(v, kept)

    def test_sweep_feeds_the_product_full_vectors(self, monkeypatch):
        """The compiled product reads v and writes out unchecked: every call a sweep makes passes 2^n complex entries."""
        calls, integrate_tdse = [], reduction.integrate_tdse

        def checking(h_at, *args, **kwargs):
            def checked_h_at(t, scale):
                product = h_at(t, scale)

                def matvec(v, out):
                    calls.append((v.size, out.size, v.dtype.name, out.dtype.name, out.flags.c_contiguous,
                                  np.shares_memory(v, out)))
                    return product(v, out)

                return matvec

            return integrate_tdse(checked_h_at, *args, **kwargs)

        monkeypatch.setattr(reduction, "integrate_tdse", checking)
        inst = load_instance(Path(__file__).resolve().parents[1] / "instances" / "ec_n6_unique.json")
        success_sweep(inst, [1.0, 2.0])
        assert calls and set(calls) == {(64, 64, "complex128", "complex128", True, False)}

    @pytest.mark.parametrize("inst", [*MATVEC_INSTANCES, *RANDOM_INSTANCES[:6]], ids=instance_id)
    def test_centre_bounds_the_norm(self, inst):
        """||H(s) - c(s)|| <= c(s): the radius success_sweep sizes each series to, returned with the fill."""
        at, radius = reduction._centred_interpolation(build_begin_hamiltonian(inst), build_cost_hamiltonian(inst))
        for s in (0.0, 0.2, 0.5, 0.9, 1.0):
            norm = np.abs(np.linalg.eigvalsh(operator_columns(at, s, 1 << inst.n))).max()
            assert radius(s) == pytest.approx(centre(inst, s), rel=1e-15)
            assert norm <= radius(s) * (1.0 + 1e-12)

    def test_each_call_refills_the_one_operator(self):
        """A product from an earlier ``at`` call applies the latest fill."""
        inst = MATVEC_INSTANCES[-1]
        at = centred_operator(inst)
        v = np.random.default_rng(3).standard_normal(1 << inst.n) + 0j
        first = at(0.2)
        expected = np.zeros_like(v)
        at(0.7, 2.0)(v, expected)
        out = np.zeros_like(v)
        first(v, out)
        np.testing.assert_array_equal(out, expected)


class TestAdiabaticRun:
    def test_tiny_time_stays_uniform(self):
        inst = ExactCoverInstance(n=3, clauses=((1, 2, 3),))
        row = success_sweep(inst, [1e-8]).rows[0]
        assert row["steps"] == 2  # the loop's minimum: one step, then two
        assert row["success_probability"] == pytest.approx(3.0 / 8.0, abs=1e-6)

    def test_single_clause_sweep_reaches_target(self):
        inst = ExactCoverInstance(n=3, clauses=((1, 2, 3),))
        rows = success_sweep(inst, [1, 2, 4, 8, 16, 32], target=0.9).rows
        assert rows[-1]["success_probability"] >= 0.9
        assert len(rows) < 6  # stopped at the target

    def test_success_grows_with_time(self):
        inst = ExactCoverInstance(n=3, clauses=((1, 2, 3),))
        rows = success_sweep(inst, [0.25, 16.0]).rows
        assert rows[-1]["success_probability"] >= rows[0]["success_probability"]

    def test_step_error_within_tolerance(self):
        inst = ExactCoverInstance(n=3, clauses=((1, 2, 3),))
        row = success_sweep(inst, [4.0]).rows[0]
        assert 0.0 < row["probability_error"] <= reduction.STEP_ERROR_TOL
        assert 0.0 < row["state_error"]
        assert set(row) == {"T", "steps", "success_probability", "probability_error", "state_error"}

    def test_zero_clause_instance_succeeds(self):
        row = success_sweep(ExactCoverInstance(n=3, clauses=()), [1.0, 2.0]).rows[-1]
        assert row["success_probability"] == pytest.approx(1.0, abs=1e-12)
        assert row["probability_error"] == row["state_error"] == 0.0

    @pytest.mark.parametrize(
        "inst",
        [*(load_instance(Path(__file__).resolve().parents[1] / "instances" / name)
           for name in ("ec_n3_single.json", "ec_n6_unique.json", "ec_n8_unique.json")),
         *(planted_instance(n, seed) for n, seed in PLANTED)],
        ids=["ec_n3", "ec_n6", "ec_n8", *(f"planted-n{n}-seed{seed}" for n, seed in PLANTED)],
    )
    def test_true_error_within_tolerance_and_state_error(self, inst):
        """Every row of a criterion-6 sweep, against an untruncated run at 16x its steps (a true error to ~1e-5 of it)."""
        for row in success_sweep(inst, CRITERION_6_TIMES, target=0.9).rows:
            true_error = abs(row["success_probability"] - reference_success(inst, row["T"], 16 * row["steps"]))
            assert row["probability_error"] <= reduction.STEP_ERROR_TOL, row
            assert true_error <= min(reduction.STEP_ERROR_TOL, row["state_error"]), row

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_separable_oracle_within_tolerance_and_state_error(self, seed):
        """n = 8 with begin counts d_i in 1..3 and cost E_z = sum_i w_i z_i, 1 <= w_i <= d_i, against the exact product."""
        rng = np.random.default_rng(seed)
        d = rng.integers(1, 4, 8)
        w = rng.integers(1, d + 1)
        energies = (np.arange(256)[:, None] >> np.arange(7, -1, -1) & 1) @ w  # bit 1 is the most significant
        rows = reduction._sweep(d, energies, CRITERION_6_TIMES, 0.9).rows
        assert rows[-1]["success_probability"] >= 0.9
        for row in rows:
            true_error = abs(row["success_probability"] - separable_oracle(d, w, row["T"], 1 << 13))
            assert true_error <= min(reduction.STEP_ERROR_TOL, row["state_error"]), row

    def test_most_probable_bitstring_satisfies(self):
        inst = ExactCoverInstance(n=3, clauses=((1, 2, 3),))
        bits = most_probable_bitstring(success_sweep(inst, [16.0]).state, 3)
        assert bitstring_satisfies(inst, bits)

    @pytest.mark.parametrize("name", ["ec_n3_single.json", "ec_n6_unique.json"])
    def test_success_matches_brute_force_set(self, name):
        inst = load_instance(Path(__file__).resolve().parents[1] / "instances" / name)
        sweep = success_sweep(inst, [2.0])
        probs = sweep.state.probabilities()
        oracle = sum(probs[int(bits, 2)] for bits in brute_force_exact_cover(inst))
        assert sweep.rows[0]["success_probability"] == pytest.approx(oracle, abs=1e-15)

    def test_sweep_builds_operators_once_and_reports_solutions(self):
        inst = ExactCoverInstance(n=3, clauses=((1, 2, 3),))
        sweep = success_sweep(inst, [1.0, 2.0])
        assert [row["T"] for row in sweep.rows] == [1.0, 2.0]
        assert sweep.satisfying_count == len(brute_force_exact_cover(inst))
        assert sweep.state.dim == 8

    @pytest.mark.parametrize(
        "name,pairs",
        [
            ("ec_n3_single.json", [(1, 8), (2, 16), (4, 16), (8, 32)]),
            ("ec_n6_unique.json", [(1, 24), (2, 40), (4, 40), (8, 80), (16, 160), (32, 160), (64, 320)]),
            ("ec_n8_unique.json", [(1, 12), (2, 24), (4, 44), (8, 44), (16, 88), (32, 176), (64, 352)]),
        ],
    )
    def test_truncation_keeps_the_criterion_6_steps(self, monkeypatch, name, pairs):
        inst = load_instance(Path(__file__).resolve().parents[1] / "instances" / name)
        times = CRITERION_6_TIMES
        rows = success_sweep(inst, times, target=0.9).rows
        assert [(row["T"], row["steps"]) for row in rows] == pairs
        integrate_tdse = reduction.integrate_tdse
        monkeypatch.setattr(reduction, "integrate_tdse", lambda *args, truncation: integrate_tdse(*args))
        exact = success_sweep(inst, times, target=0.9).rows
        assert [(row["T"], row["steps"]) for row in exact] == pairs
        budget = reduction.STEP_ERROR_TOL / 1000.0
        for row, untruncated in zip(rows, exact):
            assert abs(row["success_probability"] - untruncated["success_probability"]) <= 2.0 * budget
            assert abs(row["state_error"] - untruncated["state_error"]) <= 2.0 * budget / 15.0
            assert abs(row["probability_error"] - untruncated["probability_error"]) <= 8.0 * budget / 15.0

    def test_criterion_6_sweep_takes_the_pinned_matvecs(self, monkeypatch):
        """ec_n6's criterion-6 sweep: 29,671 matvecs with each series sized to its node (34,246 at E_max / 2 for all)."""
        calls, integrate_tdse = [0], reduction.integrate_tdse

        def counting(h_at, *args, **kwargs):
            def counted_h_at(t, scale):
                product = h_at(t, scale)

                def matvec(v, out):
                    calls[0] += 1
                    return product(v, out)

                return matvec

            return integrate_tdse(counted_h_at, *args, **kwargs)

        monkeypatch.setattr(reduction, "integrate_tdse", counting)
        inst = load_instance(Path(__file__).resolve().parents[1] / "instances" / "ec_n6_unique.json")
        rows = success_sweep(inst, CRITERION_6_TIMES, target=0.9).rows
        assert [row["steps"] for row in rows] == [24, 40, 40, 80, 160, 160, 320]
        assert calls[0] == 29_671

    @pytest.mark.parametrize("tol", [1e-6, 0.0], ids=["default", "never_met"])
    def test_projected_steps_bound_the_sweep(self, monkeypatch, tol):
        taken, integrate_tdse = [], reduction.integrate_tdse

        def counting(h_at, psi0, t_final, steps, spectral_bound, truncation):
            taken.append(steps)
            return integrate_tdse(h_at, psi0, t_final, steps, spectral_bound, truncation)

        monkeypatch.setattr(reduction, "integrate_tdse", counting)
        monkeypatch.setattr(reduction, "STEP_ERROR_TOL", tol)
        inst = load_instance(Path(__file__).resolve().parents[1] / "instances" / "ec_n6_unique.json")
        times = [0.1, 1.0, 3.0]
        bound = projected_steps(inst, times)
        success_sweep(inst, times)
        assert 0 < sum(taken) <= bound
        if tol == 0.0:  # every T doubles to the cap, which the bound sums exactly
            assert sum(taken) == bound
        assert projected_steps(inst, [1e308, 2e308]) == math.inf

    def test_schedule_validation(self):
        inst = ExactCoverInstance(n=3, clauses=((1, 2, 3),))
        for bad in ([0.0], [1.0, -2.0], [math.inf], [math.nan], []):
            with pytest.raises(ValueError, match="total times"):
                success_sweep(inst, bad)
        with pytest.raises(ValueError, match="n <= 12"):
            success_sweep(ExactCoverInstance(n=13, clauses=()), [1.0])


class TestGridHamiltonian:
    def test_free_particle_matrix_structure(self):
        inst = SpectralDecisionInstance(
            grid_points=5, box_length=6.0, mass=2.0, potential=np.zeros(5), threshold=0.0
        )
        h, threshold = reduce_energy_decision(inst)
        t = 1.0 / (2.0 * 2.0 * 1.0**2)
        expected = 2.0 * t * np.eye(5) - t * np.eye(5, k=1) - t * np.eye(5, k=-1)
        np.testing.assert_allclose(h.dense(), expected, atol=1e-15)
        assert threshold == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        inst = SpectralDecisionInstance(
            grid_points=64, box_length=5.0, mass=1.0, potential=rng.uniform(0, 3, 64), threshold=1.0
        )
        h, _ = reduce_energy_decision(inst)
        u, v = rng.standard_normal((2, 64))
        assert abs(u @ h.matvec(v) - h.matvec(u) @ v) <= 1e-12 * np.abs(h.dense()).max()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid_points", [3, 40, 257, 512])
    def test_matches_dense_reference(self, grid_points, exactly_positive_definite):
        rng = np.random.default_rng(grid_points)
        x = np.linspace(0.0, 1.0, grid_points)
        # smooth random potential: a few Fourier modes (rough ones: test_bracket_certifies_rough_potential)
        potential = sum(rng.uniform(-5, 5) * np.sin((m + 1) * math.pi * x + rng.uniform(0, 6.3)) for m in range(4))
        inst = SpectralDecisionInstance(
            grid_points=grid_points,
            box_length=float(rng.uniform(2.0, 10.0)),
            mass=float(rng.uniform(0.5, 2.0)),
            potential=potential,
            threshold=0.0,
        )
        h, _ = reduce_energy_decision(inst)
        reference = dense_grid_matrix(inst)
        v = rng.standard_normal(grid_points)
        np.testing.assert_allclose(h.matvec(v), reference @ v, rtol=0, atol=1e-12 * np.abs(reference).max())
        np.testing.assert_array_equal(h.dense(), reference)
        exact = np.linalg.eigvalsh(reference)[0]
        assert abs(ground_energy(h) - exact) <= 1e-10 * max(1.0, abs(exact))
        assert_certified(h, exactly_positive_definite)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid_points,box_length,seed", [(257, 10.0, 257), (4096, 30.0, 2), (4096, 100.0, 1)])
    def test_bracket_certifies_rough_potential(self, grid_points, box_length, seed, exactly_positive_definite):
        # An iid potential leaves a gap E1 - E0 far below the spectrum's width; the inertia checks do not see the gap.
        rng = np.random.default_rng(seed)
        inst = SpectralDecisionInstance(
            grid_points=grid_points,
            box_length=box_length,
            mass=1.0,
            potential=rng.uniform(-5.0, 5.0, grid_points),
            threshold=0.0,
        )
        assert_certified(reduce_energy_decision(inst)[0], exactly_positive_definite)

    @pytest.mark.filterwarnings("error")
    def test_bracket_costs_two_factorizations(self, monkeypatch):
        # Counted at the LAPACK functions themselves: one dstebz call finds E0, two dpttrf calls of N rows bracket it.
        stebz, pttrf = reduction._lapack()
        solved, factored = [], []

        def counting_stebz(*args):
            solved.append(args[2]._obj.value)  # N, by reference
            return stebz(*args)

        def counting_pttrf(n, d, e, info):
            factored.append(n._obj.value)
            return pttrf(n, d, e, info)

        monkeypatch.setattr(reduction, "_lapack", lambda: (counting_stebz, counting_pttrf))
        h, _ = reduce_energy_decision(harmonic_instance(grid_points=512))
        ground_energy_bracket(h, ground_energy(h))
        assert solved == [512]
        assert factored == [512, 512]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("signs", ["positive", "mixed"])
    def test_bracket_holds_under_positive_couplings(self, signs, exactly_positive_definite):
        # With equal positive couplings and even N the ground state alternates in sign, orthogonal to the
        # uniform vector; the inertia depends only on the couplings' squares.
        offdiag = np.full(63, 0.25)
        if signs == "mixed":
            offdiag *= np.random.default_rng(64).choice([-1.0, 1.0], 63)
        h = GridHamiltonian(diag=np.full(64, 0.3), offdiag=offdiag)
        exact = np.linalg.eigvalsh(h.dense())[0]
        assert abs(ground_energy(h) - exact) <= 1e-12 * max(1.0, abs(exact))
        assert_certified(h, exactly_positive_definite)

    @pytest.mark.filterwarnings("error")
    def test_bracket_holds_on_random_tridiagonals(self, exactly_positive_definite):
        # LAPACK's QR eigenvalues (eigvalsh) were up to 24 eps s from 40-digit ones on these, more than the
        # bracket's half-width; the exact inertia is the oracle for what the bracket claims.
        rng = np.random.default_rng(24)
        for dim in rng.integers(2, 65, 100):
            h = GridHamiltonian(diag=rng.standard_normal(dim), offdiag=rng.standard_normal(dim - 1))
            assert_certified(h, exactly_positive_definite)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid_points", [8, 64, 512, 4096])
    @pytest.mark.parametrize("spike", [1e20, 1e100, 1e200])
    def test_single_huge_potential_entry_acts_as_a_wall(self, grid_points, spike):
        # V[0] far above the spectrum leaves N - 1 free sites between walls: E0 = 2t (1 - cos(pi / N)).
        potential = np.zeros(grid_points)
        potential[0] = spike
        inst = SpectralDecisionInstance(
            grid_points=grid_points, box_length=1.0, mass=1.0, potential=potential, threshold=0.0
        )
        h, _ = reduce_energy_decision(inst)
        t = (grid_points + 1) ** 2 / 2.0
        wall = 2.0 * t * (1.0 - math.cos(math.pi / grid_points))
        assert abs(ground_energy(h) - wall) <= 1e-10 * wall
        assert decide_energy_threshold(inst) is False

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid_points", [8, 64])
    def test_huge_span_brackets_the_wall(self, grid_points, exactly_positive_definite):
        # V[0] = 1e300 over couplings of 4e-9 (N = 8) or 2e-7 (N = 64) at mass 1e10: in A = H / s they sit near
        # the smallest normal float. The bracket is 2 BRACKET_MARGIN s wide, s = 2^997, and it holds E0.
        potential = np.zeros(grid_points)
        potential[0] = 1e300
        inst = SpectralDecisionInstance(
            grid_points=grid_points, box_length=1.0, mass=1e10, potential=potential, threshold=0.0
        )
        h, _ = reduce_energy_decision(inst)
        wall = (grid_points + 1) ** 2 / 1e10 * (1.0 - math.cos(math.pi / grid_points))
        assert ground_energy(h) == pytest.approx(wall, rel=1e-12, abs=0.0)
        assert_certified(h, exactly_positive_definite)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mass", [1.0, 1e9, 1e12, 1e20, 1e100])
    def test_small_scale_grid_solves_to_relative_precision(self, mass, exactly_positive_definite):
        # Entries far below 1: an absolute rule anywhere would show here (180% off at mass 1e20, once).
        inst = SpectralDecisionInstance(grid_points=64, box_length=1.0, mass=mass, potential=np.zeros(64), threshold=0.0)
        h, _ = reduce_energy_decision(inst)
        t = 65.0**2 / (2.0 * mass)
        exact = 2.0 * t * (1.0 - math.cos(math.pi / 65.0))
        assert ground_energy(h) == pytest.approx(exact, rel=1e-12, abs=0.0)
        lower, upper = assert_certified(h, exactly_positive_definite)
        assert upper - lower <= 1e-11 * exact  # 20 eps s, with s below 1712 E0 at every mass

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "box_length,mass",
        [(1e76, 1.0), (1e80, 1.0), (1.0, 2.1e-151), (1e140, 1.0), (1.0, 1e-300)],
        ids=["coupling_2e-149", "coupling_2e-157", "coupling_1e154", "coupling_2e-277", "coupling_2e303"],
    )
    def test_stebz_solves_every_coupling_scale(self, box_length, mass):
        # Unscaled, stebz returned the diagonal 2t below couplings of about 1e-154, 856 times
        # E0 = 2t (1 - cos(pi / 65)), and above about 1e154 the same, until it failed with info 4 past 1.3e154.
        inst = SpectralDecisionInstance(
            grid_points=64, box_length=box_length, mass=mass, potential=np.zeros(64), threshold=0.0
        )
        h, _ = reduce_energy_decision(inst)
        t = -float(h.offdiag[0])
        assert ground_energy(h) == pytest.approx(2.0 * t * (1.0 - math.cos(math.pi / 65.0)), rel=1e-12, abs=0.0)

    def test_direct_route_takes_zero_couplings(self):
        assert ground_energy(GridHamiltonian(diag=np.array([3.0, 1.0, 2.0]), offdiag=np.zeros(2))) == 1.0

    def test_grid_refinement_converges(self):
        coarse = ground_energy(reduce_energy_decision(harmonic_instance(grid_points=256))[0])
        fine = ground_energy(reduce_energy_decision(harmonic_instance(grid_points=512))[0])
        assert abs(fine - coarse) / abs(fine) < 0.01

    def test_harmonic_ground_energy(self):
        e0 = ground_energy(reduce_energy_decision(harmonic_instance())[0])
        assert abs(e0 - 0.5) / 0.5 < 0.01

    def test_box_ground_energy(self):
        length = 3.0
        inst = SpectralDecisionInstance(
            grid_points=1024, box_length=length, mass=1.0, potential=np.zeros(1024), threshold=0.0
        )
        e0 = ground_energy(reduce_energy_decision(inst)[0])
        exact = math.pi**2 / (2.0 * length**2)
        assert abs(e0 - exact) / exact < 0.01

    def test_constant_shift_identity(self):
        base = harmonic_instance(grid_points=200)
        shifted = SpectralDecisionInstance(
            grid_points=200,
            box_length=base.box_length,
            mass=base.mass,
            potential=base.potential + 4.25,
            threshold=base.threshold,
        )
        e_base = ground_energy(reduce_energy_decision(base)[0])
        e_shift = ground_energy(reduce_energy_decision(shifted)[0])
        assert abs((e_shift - e_base) - 4.25) <= 1e-9

    def test_second_order_error_scaling(self):
        # Halving dx divides the discretization error by ~4.
        exact = 0.5
        e1 = ground_energy(reduce_energy_decision(harmonic_instance(grid_points=255))[0])
        e2 = ground_energy(reduce_energy_decision(harmonic_instance(grid_points=511))[0])
        ratio = abs(e2 - exact) / abs(e1 - exact)
        assert 0.2 <= ratio <= 0.3

    def test_variational_bound(self):
        h, _ = reduce_energy_decision(harmonic_instance(grid_points=128))
        e0 = ground_energy(h)
        rng = np.random.default_rng(7)
        for _ in range(100):
            phi = rng.standard_normal(128)
            phi /= np.linalg.norm(phi)
            assert e0 <= phi @ h.matvec(phi) + 1e-9


class TestDirectLapack:
    """The stebz and pttrf calls on numpy's own LAPACK, against scipy.linalg's public wrappers."""

    TINY = 2.0 * np.finfo(float).tiny

    @staticmethod
    def random_grid(rng, dim):
        return GridHamiltonian(diag=rng.uniform(-5.0, 5.0, dim), offdiag=-rng.uniform(0.1, 10.0, dim - 1))

    def assert_matches_scipy(self, h):
        reference = scipy.linalg.eigvalsh_tridiagonal(
            h.diag, h.offdiag, select="i", select_range=(0, 0), tol=self.TINY
        )[0]
        assert ground_energy(h) == reference

    @pytest.mark.parametrize("dim", [2, 3, 257, 4096])
    def test_random_tridiagonal_bit_identical(self, dim):
        self.assert_matches_scipy(self.random_grid(np.random.default_rng(dim), dim))

    @pytest.mark.parametrize("grid_points", [3, 257, 4096])
    def test_harmonic_bit_identical(self, grid_points):
        self.assert_matches_scipy(reduce_energy_decision(harmonic_instance(grid_points=grid_points))[0])

    def test_rough_potential_bit_identical(self):
        rng = np.random.default_rng(257)
        inst = SpectralDecisionInstance(
            grid_points=257, box_length=10.0, mass=1.0, potential=rng.uniform(-5.0, 5.0, 257), threshold=0.0
        )
        self.assert_matches_scipy(reduce_energy_decision(inst)[0])

    def test_huge_potential_entry_repro(self):
        potential = np.zeros(8)
        potential[0] = 1e20
        inst = SpectralDecisionInstance(grid_points=8, box_length=1.0, mass=1.0, potential=potential, threshold=0.0)
        h, _ = reduce_energy_decision(inst)
        self.assert_matches_scipy(h)
        assert ground_energy(h) == 6.165757866585773
        assert decide_energy_threshold(inst) is False

    def test_one_point_returns_the_entry(self):
        h = GridHamiltonian(diag=np.array([2.5]), offdiag=np.empty(0))
        assert ground_energy(h) == 2.5
        assert ground_energy_bracket(h, 2.5) == (2.5, 2.5)

    def test_two_points(self, exactly_positive_definite):
        # E0 of [[1, -1], [-1, 2]] is (3 - sqrt 5) / 2. The LU route's gttrf raised a ValueError on two points.
        h = GridHamiltonian(diag=np.array([1.0, 2.0]), offdiag=np.array([-1.0]))
        assert abs(ground_energy(h) - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-15
        assert_certified(h, exactly_positive_definite)

    @pytest.mark.filterwarnings("error")  # the check must come before any arithmetic on the entries
    @pytest.mark.parametrize(
        "solve", [ground_energy, lambda h: ground_energy_bracket(h, 0.0)], ids=["energy", "bracket"]
    )
    @pytest.mark.parametrize("where", ["diag", "offdiag"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, solve, where, bad):
        h = self.random_grid(np.random.default_rng(0), 5)
        entries = {"diag": h.diag.copy(), "offdiag": h.offdiag.copy()}
        entries[where][1] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(GridHamiltonian(**entries))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ground_energy_bracket(self.random_grid(np.random.default_rng(0), 5), bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "grid_points,box_length,potential",
        # A finite potential can still overflow the diagonal 2t + V, and an m dx^2 that underflows to 0 gives an
        # infinite kinetic term: the operator refuses both, with no warning and no ZeroDivisionError.
        [(4, 1e-153, np.full(4, 1.7e308)), (3, 1e-200, np.zeros(3))],
        ids=["diagonal_overflow", "kinetic_division_by_zero"],
    )
    def test_overflowing_grid_rejected(self, grid_points, box_length, potential):
        inst = SpectralDecisionInstance(
            grid_points=grid_points, box_length=box_length, mass=1.0, potential=potential, threshold=0.0
        )
        with pytest.raises(ValueError, match="finite"):
            reduce_energy_decision(inst)

    @pytest.mark.parametrize("couplings", [0, 1, 3])
    def test_coupling_count_rejected(self, couplings):
        with pytest.raises(ValueError, match="need 2 couplings for 3 diagonal entries"):
            GridHamiltonian(diag=np.ones(3), offdiag=np.ones(couplings))

    def test_entries_are_read_only_float64_copies(self):
        diag, offdiag = [1, 2, 3, 4], np.array([-1.0, -1.0, -1.0])
        h = GridHamiltonian(diag=diag, offdiag=offdiag)
        offdiag[0] = 5.0
        assert h.diag.dtype == h.offdiag.dtype == np.float64
        assert h.diag.tolist() == [1.0, 2.0, 3.0, 4.0] and h.offdiag.tolist() == [-1.0, -1.0, -1.0]
        with pytest.raises(ValueError, match="read-only"):
            h.diag[0] = 0.0

    @pytest.mark.filterwarnings("error")
    def test_lower_bound_below_the_float_range_is_minus_inf(self, exactly_positive_definite):
        # E0 of this operator lies below -float max, so no finite lower bound holds: H + float max is not
        # positive definite in exact arithmetic. The upper bound still holds.
        big = 1.7e308
        h = GridHamiltonian(diag=np.array([big, -big, big]), offdiag=np.full(2, big))
        assert not exactly_positive_definite(h.diag, h.offdiag, -sys.float_info.max)
        lower, upper = ground_energy_bracket(h, -big)
        assert lower == -math.inf
        assert not exactly_positive_definite(h.diag, h.offdiag, upper)
        assert ground_energy(h) == -math.inf

    def test_stebz_failure_raises(self, monkeypatch):
        # dstebz runs, then reports INFO = 4 (its 18th argument, by reference), as it does when bisection fails.
        stebz, pttrf = reduction._lapack()

        def failing(*args):
            stebz(*args)
            args[17]._obj.value = 4

        monkeypatch.setattr(reduction, "_lapack", lambda: (failing, pttrf))
        with pytest.raises(np.linalg.LinAlgError, match="info=4"):
            ground_energy(self.random_grid(np.random.default_rng(0), 3))

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 4096), seed=st.integers(0, 2**32 - 1))
    def test_lapack_calls_match_scipy_bit_for_bit(self, dim, seed):
        # Entries log-uniform over +-[1e-150, 1e150]: the ABI (64-bit integers, the two hidden lengths of dstebz's
        # character arguments) is wrong somewhere if any result or info differs from scipy's compiled wrappers.
        rng = np.random.default_rng(seed)
        diag, offdiag = (rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-150.0, 150.0, size) for size in (dim, dim - 1))
        _, w, _, _, info = scipy.linalg.lapack.dstebz(diag, offdiag, 2, 0.0, 1.0, 1, 1, self.TINY, "E")
        energy, found = reduction._dstebz_lowest(diag, offdiag)
        assert found == info
        assert info != 0 or energy == w[0]
        h = GridHamiltonian(diag=diag, offdiag=offdiag)
        # ground_energy runs stebz on H / 2^k; unscaled and scaled results differ in the last bits on some draws.
        exponent, scaled_diag, scaled_offdiag = reduction._scaled(h, abs(diag.min()))
        _, scaled_w, _, _, scaled_info = scipy.linalg.lapack.dstebz(
            scaled_diag, scaled_offdiag, 2, 0.0, 1.0, 1, 1, self.TINY, "E"
        )
        assert scaled_info == 0
        assert ground_energy(h) == math.ldexp(scaled_w[0], exponent)
        calls, pttrf_info = [], reduction._dpttrf_info

        def recording(d, e):
            given_d, given_e = d.copy(), e.copy()
            result = pttrf_info(d, e)
            calls.append((given_d, given_e, d.copy(), e.copy(), result))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction, "_dpttrf_info", recording)
            ground_energy_bracket(h, energy if info == 0 else 0.0)
        # Shifted past E0 by far more than stebz's error, the factorization must fail.
        above = energy + 1e-6 * max(np.abs(diag).max(), np.abs(offdiag).max())
        failing = pttrf_info(diag - above, offdiag.copy())
        calls.append((diag - above, offdiag, None, None, failing))
        assert info != 0 or failing > 0
        assert len(calls) == 3
        for given_d, given_e, factored_d, factored_e, result in calls:
            if given_d.size == 1:  # a submatrix of one row; scipy's wrapper takes no empty e, dpttrf checks d > 0
                d, e, reference = given_d, given_e, int(not given_d[0] > 0.0)
            else:
                d, e, reference = scipy.linalg.lapack.dpttrf(given_d, given_e)
            assert result == reference
            if factored_d is not None:  # the factors, or the partial ones up to a failing pivot
                assert np.array_equal(factored_d, d) and np.array_equal(factored_e, e)

    def test_lookup_without_the_symbols_names_what_it_searched(self, monkeypatch):
        monkeypatch.setattr(reduction, "_LAPACK_CORES", (*reduction._LAPACK_CORES, "clab.no_such_core"))
        monkeypatch.setattr(reduction, "_LAPACK_SYMBOLS", (("clab_missing_dstebz_", "clab_missing_dpttrf_"),))
        with pytest.raises(ImportError) as raised:
            reduction._lapack.__wrapped__()  # the lookup itself, past the cache
        for name in (*reduction._LAPACK_CORES, "clab_missing_dstebz_", "clab_missing_dpttrf_"):
            assert name in str(raised.value)
        assert reduction._lapack()[0].__name__ != "clab_missing_dstebz_"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("offset", [-1.0, 1.0])
    def test_failed_check_falls_back_to_the_bound_that_always_holds(self, offset, exactly_positive_definite):
        # A claimed energy 1 above E0 fails the lower check, one 1 below fails the upper check: that side falls
        # back to the Gershgorin bound less the margin, or to min(diag); the other side still holds.
        h = self.random_grid(np.random.default_rng(3), 40)
        claimed = ground_energy(h) + offset
        lower, upper = ground_energy_bracket(h, claimed)
        s = bracket_scale(h, claimed)
        radii = np.concatenate(([0.0], np.abs(h.offdiag))) + np.concatenate((np.abs(h.offdiag), [0.0]))
        if offset > 0:
            assert lower == s * ((h.diag - radii).min() / s - reduction.BRACKET_MARGIN)
            assert upper == pytest.approx(claimed, abs=2.0 * reduction.BRACKET_MARGIN * s)
        else:
            assert lower == pytest.approx(claimed, abs=2.0 * reduction.BRACKET_MARGIN * s)
            assert upper == h.diag.min()
        assert exactly_positive_definite(h.diag, h.offdiag, lower)
        assert not exactly_positive_definite(h.diag, h.offdiag, upper)


class TestDecision:
    def test_harmonic_yes_and_no(self):
        yes = harmonic_instance(threshold=1.0)
        no = harmonic_instance(threshold=0.25)
        assert decide_energy_threshold(yes) is True
        assert decide_energy_threshold(no) is False

    def test_tie_resolves_to_yes(self):
        inst = harmonic_instance(grid_points=128)
        e0 = ground_energy(reduce_energy_decision(inst)[0])
        tie = harmonic_instance(grid_points=128, threshold=e0)
        assert decide_energy_threshold(tie) is True

    @pytest.mark.parametrize("threshold", [0.0, 0.5, -3.0, 1e6, -1e6])
    def test_slack_is_relative_above_one(self, threshold):
        slack = 1e-9 * max(1.0, abs(threshold))
        assert below_threshold(threshold + 0.5 * slack, threshold) is True
        assert below_threshold(threshold + 2.0 * slack, threshold) is False
        assert below_threshold(threshold - slack, threshold) is True


class TestVerifyEigenpair:
    def test_accepts_solver_pairs(self):
        h, _ = reduce_energy_decision(harmonic_instance(grid_points=128))
        w, v = np.linalg.eigh(h.dense())
        for idx in (0, 1, 64, 127):
            assert verify_eigenpair(h, v[:, idx], w[idx], tol=1e-8)

    def test_rejects_perturbed_energy(self):
        h, _ = reduce_energy_decision(harmonic_instance(grid_points=128))
        w, v = np.linalg.eigh(h.dense())
        tol = 1e-8
        norm = np.abs(w).max()
        assert not verify_eigenpair(h, v[:, 0], w[0] + 10.0 * tol * norm, tol=tol)

    def test_rejects_random_vector(self):
        h, _ = reduce_energy_decision(harmonic_instance(grid_points=128))
        e0 = ground_energy(h)
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(128)
        phi /= np.linalg.norm(phi)
        assert not verify_eigenpair(h, phi, e0, tol=1e-8)

    def test_soundness_margin(self):
        # Anything with residual beyond 2 tol must be rejected.
        h, _ = reduce_energy_decision(harmonic_instance(grid_points=64))
        w, v = np.linalg.eigh(h.dense())
        tol = 1e-8
        vec = v[:, 0].copy()
        vec[0] += 1e-5
        vec /= np.linalg.norm(vec)
        residual = np.linalg.norm(h.dense() @ vec - w[0] * vec)
        assert residual > 2 * tol
        assert not verify_eigenpair(h, vec, w[0], tol=tol)

    def test_requires_normalized_vector(self):
        h, _ = reduce_energy_decision(harmonic_instance(grid_points=16))
        with pytest.raises(ValueError, match="normalized"):
            verify_eigenpair(h, np.ones(16), 0.5, tol=1e-8)
