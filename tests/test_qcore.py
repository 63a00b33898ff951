"""Kernel tests: states, operators, propagators, and the integrator."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clab.qcore import (
    HermitianOperator,
    PhysicalConstants,
    StateVector,
    UnitaryPropagator,
    expm_propagator,
    first_order_amplification,
    first_order_propagator,
    inner_product,
    integrate_tdse,
    tensor_product,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def random_state(dim, seed, basis="product"):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(amps, basis, normalize=True)


def random_hermitian(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator.from_dense(scale * (m + m.conj().T) / 2.0)


class TestStateVector:
    def test_normalize_and_invariant(self):
        psi = StateVector([3.0, 4.0], "qubit", normalize=True)
        assert abs(psi.norm() - 1.0) < 1e-15
        assert psi.amps[0] == pytest.approx(0.6)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            StateVector([np.nan, 1.0])

    def test_rejects_zero_normalization(self):
        with pytest.raises(ValueError, match="zero vector"):
            StateVector([0.0, 0.0], normalize=True)

    def test_rejects_bad_basis(self):
        with pytest.raises(ValueError, match="basis"):
            StateVector([1.0], "momentum")
        with pytest.raises(ValueError, match="dim 2"):
            StateVector([1.0, 0.0, 0.0], "qubit")

    def test_immutable(self):
        psi = StateVector([1.0, 0.0], "qubit")
        with pytest.raises((AttributeError, ValueError)):
            psi.amps = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            psi.amps[0] = 5.0


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        psi = random_state(17, seed=1)
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_qubit_basis(self):
        ket0 = StateVector([1.0, 0.0], "qubit")
        ket1 = StateVector([0.0, 1.0], "qubit")
        assert inner_product(ket0, ket1) == 0.0

    def test_plus_with_zero(self):
        plus = StateVector([SQRT_HALF, SQRT_HALF], "qubit")
        ket0 = StateVector([1.0, 0.0], "qubit")
        assert inner_product(plus, ket0) == pytest.approx(SQRT_HALF, abs=1e-15)

    def test_dimension_mismatch_names_dims(self):
        with pytest.raises(ValueError, match="dim 2.*dim 3"):
            inner_product(StateVector([1, 0]), StateVector([1, 0, 0]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 12))
    def test_conjugate_symmetry(self, seed, dim):
        a = random_state(dim, seed)
        b = random_state(dim, seed + 1)
        lhs = inner_product(a, b)
        rhs = inner_product(b, a)
        assert lhs == pytest.approx(rhs.conjugate(), abs=1e-14)


class TestTensorProduct:
    def test_unit_vectors(self):
        ket0 = StateVector([1.0, 0.0], "qubit")
        e0 = StateVector([1.0, 0.0, 0.0], "detector")
        out = tensor_product(ket0, e0)
        assert out.dim == 6
        expected = np.zeros(6)
        expected[0] = 1.0
        np.testing.assert_allclose(out.amps, expected)

    def test_superposition_times_detector_pattern(self):
        # (|0> + |1>)/sqrt(2) (x) sum_k a_k |e_k>: amplitude a_k/sqrt(2)
        # in slot (0, k) and slot (1, k), a-major ordering.
        rng = np.random.default_rng(5)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a /= np.linalg.norm(a)
        plus = StateVector([SQRT_HALF, SQRT_HALF], "qubit")
        detector = StateVector(a, "detector")
        out = tensor_product(plus, detector)
        np.testing.assert_allclose(out.amps[:4], a * SQRT_HALF, atol=1e-15)
        np.testing.assert_allclose(out.amps[4:], a * SQRT_HALF, atol=1e-15)

    def test_norm_multiplicative(self):
        out = tensor_product(random_state(3, 7), random_state(5, 8))
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        bad = StateVector([1.0, 1.0])
        good = StateVector([1.0, 0.0])
        with pytest.raises(ValueError, match="not normalized"):
            tensor_product(bad, good)


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator.from_dense(m)

    def test_rejects_non_finite_diagonal(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator.from_diagonal([1.0, np.inf])

    def test_diagonal_roundtrip(self):
        h = HermitianOperator.from_diagonal([2.0, 3.0])
        assert h.is_diagonal
        np.testing.assert_allclose(h.dense(), np.diag([2.0, 3.0]))

    def test_spectral_bound_dominates(self):
        h = random_hermitian(9, seed=3)
        w, _ = h.eigensystem()
        assert h.spectral_bound() >= np.abs(w).max() - 1e-12


class TestExpmPropagator:
    def test_zero_generator_is_identity(self):
        h = HermitianOperator.from_dense(np.zeros((3, 3)))
        np.testing.assert_allclose(expm_propagator(h, 1.7).matrix, np.eye(3), atol=1e-15)

    def test_half_period_phase(self):
        # diagonal entry E with dt E / hbar = pi picks up phase -1
        h = HermitianOperator.from_diagonal([2.0])
        u = expm_propagator(h, math.pi / 2.0)
        assert u.matrix[0, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_pauli_x_quarter_turn_matches_hand_eigendecomposition(self):
        # sigma_x = Q diag(1, -1) Q^T with Q = [[1,1],[1,-1]]/sqrt(2), so
        # exp(-i (pi/2) sigma_x) = Q diag(-i, i) Q^T = [[0, -i], [-i, 0]].
        sigma_x = HermitianOperator.from_dense([[0.0, 1.0], [1.0, 0.0]])
        u = expm_propagator(sigma_x, math.pi / 2.0)
        expected = np.array([[0.0, -1.0j], [-1.0j, 0.0]])
        np.testing.assert_allclose(u.matrix, expected, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 16, 128, 512])
    def test_unitarity(self, dim):
        u = expm_propagator(random_hermitian(dim, seed=dim), 0.37)
        assert u.unitarity_defect() <= 1e-10

    def test_composition_same_generator(self):
        h = random_hermitian(12, seed=21, scale=2.0)
        u1 = expm_propagator(h, 0.4).matrix
        u2 = expm_propagator(h, 1.1).matrix
        u12 = expm_propagator(h, 1.5).matrix
        assert np.abs(u1 @ u2 - u12).max() <= 1e-9

    def test_hbar_scaling(self):
        h = HermitianOperator.from_diagonal([3.0])
        u = expm_propagator(h, 1.0, PhysicalConstants(hbar=2.0))
        assert u.matrix[0, 0] == pytest.approx(np.exp(-1.5j), abs=1e-14)

    def test_norm_preserved_by_application(self):
        psi = random_state(64, seed=11)
        u = expm_propagator(random_hermitian(64, seed=12), 0.9)
        assert abs(u.apply(psi).norm() - 1.0) <= 1e-10


class TestFirstOrderPropagator:
    def test_zero_generator(self):
        h = HermitianOperator.from_diagonal([0.0, 0.0])
        np.testing.assert_allclose(first_order_propagator(h, 2.0), np.eye(2))

    def test_diagonal_entry_and_amplification(self):
        h = HermitianOperator.from_diagonal([4.0])
        dt = 0.5
        m = first_order_propagator(h, dt)
        assert m[0, 0] == pytest.approx(1.0 - 2.0j, abs=1e-15)
        growth = abs(m[0, 0]) ** 2
        assert growth == pytest.approx(1.0 + (dt * 4.0) ** 2, abs=1e-12)
        assert first_order_amplification(h, dt) == pytest.approx(math.sqrt(5.0), abs=1e-12)

    def test_non_unitary_for_finite_step(self):
        h = HermitianOperator.from_diagonal([1.0, 2.0])
        m = first_order_propagator(h, 0.3)
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryPropagator(matrix=m)

    def test_agrees_with_exponential_at_tiny_step(self):
        h = HermitianOperator.from_diagonal([1.0])
        dt = 1e-8
        exact = expm_propagator(h, dt).matrix[0, 0]
        approx = first_order_propagator(h, dt)[0, 0]
        assert abs(exact - approx) <= 1e-15


class TestIntegrateTdse:
    def test_constant_hamiltonian_matches_single_exponential(self):
        h = random_hermitian(24, seed=31, scale=1.5)
        psi0 = random_state(24, seed=32)
        direct = expm_propagator(h, 2.0).apply(psi0)
        stepped = integrate_tdse(lambda t, v: h.matvec(v), psi0, 2.0, steps=64, spectral_bound=h.spectral_bound()).state
        overlap = abs(inner_product(direct, stepped))
        assert overlap == pytest.approx(1.0, abs=1e-10)
        assert np.abs(direct.amps - stepped.amps).max() <= 1e-10

    def test_zero_hamiltonian_is_identity(self):
        psi0 = random_state(8, seed=41)
        zero = HermitianOperator.from_diagonal(np.zeros(8))
        out = integrate_tdse(lambda t, v: zero.matvec(v), psi0, 5.0, steps=7, spectral_bound=0.0)
        np.testing.assert_allclose(out.state.amps, psi0.amps, atol=1e-15)
        assert out.norm_drift <= 1e-15

    def test_step_doubling_converges_on_smooth_schedule(self):
        h0 = random_hermitian(8, seed=51)
        h1 = random_hermitian(8, seed=52)
        total = 3.0

        def apply_h(t, v):
            s = t / total
            return (1 - s) * h0.matvec(v) + s * h1.matvec(v)

        bound = max(h0.spectral_bound(), h1.spectral_bound())
        psi0 = random_state(8, seed=53)
        coarse = integrate_tdse(apply_h, psi0, total, steps=600, spectral_bound=bound).state
        fine = integrate_tdse(apply_h, psi0, total, steps=1200, spectral_bound=bound).state
        assert 1.0 - abs(inner_product(coarse, fine)) <= 1e-6

    def test_reports_small_drift_on_exact_path(self):
        h = random_hermitian(16, seed=61)
        res = integrate_tdse(
            lambda t, v: h.matvec(v), random_state(16, seed=62), 1.0, steps=50, spectral_bound=h.spectral_bound()
        )
        assert res.norm_drift <= 1e-8
        assert abs(res.state.norm() - 1.0) <= 1e-12

    def test_rejects_bad_steps(self):
        h = HermitianOperator.from_diagonal([1.0])
        with pytest.raises(ValueError, match="steps"):
            integrate_tdse(lambda t, v: h.matvec(v), StateVector([1.0]), 1.0, steps=0, spectral_bound=1.0)
