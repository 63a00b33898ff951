"""Kernel tests: states, operators, propagators, and the integrator."""
import math

import numpy as np
import pytest
import scipy.special

from clab.qcore import (
    HermitianOperator,
    PhysicalConstants,
    StateVector,
    UnitaryPropagator,
    expm_propagator,
    _bessel_series,
    integrate_tdse,
)
from clab.decoherence import DetectorModel, initial_product_state

SQRT_HALF = 1.0 / math.sqrt(2.0)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(amps, normalize=True)


def random_hermitian(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator.from_dense(scale * (m + m.conj().T) / 2.0)


def gershgorin_bound(h):
    """Largest absolute row sum, a bound on the spectral norm."""
    return float(np.abs(h.matrix).sum(axis=1).max())


def constant(h):
    """``h_at`` for integrate_tdse with the time-independent H = h."""
    return lambda t: lambda v: h.matrix @ v


class TestStateVector:
    def test_normalize_and_invariant(self):
        psi = StateVector([3.0, 4.0], normalize=True)
        assert abs(psi.norm() - 1.0) < 1e-15
        assert psi.amps[0] == pytest.approx(0.6)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            StateVector([np.nan, 1.0])

    def test_rejects_zero_normalization(self):
        with pytest.raises(ValueError, match="zero vector"):
            StateVector([0.0, 0.0], normalize=True)

    def test_immutable(self):
        psi = StateVector([1.0, 0.0])
        with pytest.raises((AttributeError, ValueError)):
            psi.amps = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            psi.amps[0] = 5.0


class TestTensorProduct:
    def test_superposition_times_detector_pattern(self):
        # (|0> + |1>)/sqrt(2) (x) sum_k a_k |k>: amplitude a_k/sqrt(2)
        # in slot (0, k) and slot (1, k), particle-major ordering.
        rng = np.random.default_rng(5)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a /= np.linalg.norm(a)
        psi = initial_product_state(DetectorModel(a, np.zeros(4), np.zeros(4)))
        assert psi.dim == 8
        np.testing.assert_allclose(psi.amps[:4], a * SQRT_HALF, atol=1e-16)
        np.testing.assert_allclose(psi.amps[4:], a * SQRT_HALF, atol=1e-16)
        assert psi.norm() == pytest.approx(1.0, abs=1e-15)


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator.from_dense(m)

    def test_rejects_non_finite_diagonal(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator.from_dense(np.diag([1.0, np.inf]))


class TestExpmPropagator:
    def test_zero_generator_is_identity(self):
        h = HermitianOperator.from_dense(np.zeros((3, 3)))
        np.testing.assert_allclose(expm_propagator(h, 1.7).matrix, np.eye(3), atol=1e-15)

    def test_half_period_phase(self):
        # diagonal entry E with dt E / hbar = pi picks up phase -1
        h = HermitianOperator.from_dense([[2.0]])
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
        h = HermitianOperator.from_dense([[3.0]])
        u = expm_propagator(h, 1.0, PhysicalConstants(hbar=2.0))
        assert u.matrix[0, 0] == pytest.approx(np.exp(-1.5j), abs=1e-14)

    def test_norm_preserved_by_application(self):
        psi = random_state(64, seed=11)
        u = expm_propagator(random_hermitian(64, seed=12), 0.9)
        assert abs(u.apply(psi).norm() - 1.0) <= 1e-10


class TestUnitaryPropagator:
    def test_rejects_non_unitary_matrix(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryPropagator(matrix=[[1.0, 0.0], [0.0, 2.0]])

    @pytest.mark.parametrize("form", ["matrix", "dense"])
    def test_later_writes_to_the_input_leave_it_unchanged(self, form):
        # matrix= builds a UnitaryPropagator, dense= a HermitianOperator; each keeps a read-only copy.
        if form == "matrix":
            expected = np.diag(np.exp(1j * np.array([0.1, 0.2])))
            source = expected.copy()
            op = UnitaryPropagator(matrix=source)
        else:
            expected = np.array([[1.0, 2.0], [2.0, 3.0]])
            source = expected.copy()
            op = HermitianOperator(dense=source)
        source[0, 0] = 5.0
        np.testing.assert_array_equal(op.matrix, expected)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestIntegrateTdse:
    def test_constant_hamiltonian_matches_single_exponential(self):
        h = random_hermitian(24, seed=31, scale=1.5)
        psi0 = random_state(24, seed=32)
        direct = expm_propagator(h, 2.0).apply(psi0)
        stepped = integrate_tdse(constant(h), psi0, 2.0, steps=64, spectral_bound=gershgorin_bound(h))
        overlap = abs(np.vdot(direct.amps, stepped.amps))
        assert overlap == pytest.approx(1.0, abs=1e-10)
        assert np.abs(direct.amps - stepped.amps).max() <= 1e-10

    def test_zero_hamiltonian_is_identity(self):
        psi0 = random_state(8, seed=41)
        zero = HermitianOperator.from_dense(np.zeros((8, 8)))
        out = integrate_tdse(constant(zero), psi0, 5.0, steps=7, spectral_bound=0.0)
        np.testing.assert_allclose(out.amps, psi0.amps, atol=1e-15)

    def test_step_doubling_converges_on_smooth_schedule(self):
        h0 = random_hermitian(8, seed=51)
        h1 = random_hermitian(8, seed=52)
        total = 3.0

        def h_at(t):
            s = t / total
            return lambda v: (1 - s) * (h0.matrix @ v) + s * (h1.matrix @ v)

        bound = max(gershgorin_bound(h0), gershgorin_bound(h1))
        psi0 = random_state(8, seed=53)
        coarse = integrate_tdse(h_at, psi0, total, steps=600, spectral_bound=bound)
        fine = integrate_tdse(h_at, psi0, total, steps=1200, spectral_bound=bound)
        assert 1.0 - abs(np.vdot(coarse.amps, fine.amps)) <= 1e-6

    def test_large_constant_step_matches_exponential(self):
        h = random_hermitian(16, seed=61)
        bound = gershgorin_bound(h)
        total = 50.0 / bound  # one step with dt * bound / hbar = 50
        psi0 = random_state(16, seed=62)
        direct = expm_propagator(h, total).apply(psi0)
        stepped = integrate_tdse(constant(h), psi0, total, steps=1, spectral_bound=bound)
        assert np.abs(direct.amps - stepped.amps).max() <= 1e-12

    def test_assembles_hamiltonian_at_cf4_nodes(self):
        h = random_hermitian(8, seed=71)
        times = []

        def h_at(t):
            times.append(t)
            return lambda v: h.matrix @ v

        integrate_tdse(h_at, random_state(8, seed=72), 2.0, steps=5, spectral_bound=gershgorin_bound(h))
        expected = [0.4 * (j + node) for j in range(5) for node in (1.0 / 6.0, 5.0 / 6.0)]
        np.testing.assert_allclose(times, expected, rtol=0, atol=1e-15)

    def test_fourth_order_on_linear_schedule(self):
        h0 = random_hermitian(8, seed=81)
        h1 = random_hermitian(8, seed=82)
        total = 2.0

        def h_at(t):
            s = t / total
            return lambda v: (1 - s) * (h0.matrix @ v) + s * (h1.matrix @ v)

        bound = gershgorin_bound(h0) + gershgorin_bound(h1)
        psi0 = random_state(8, seed=83)

        def run(steps):
            return integrate_tdse(h_at, psi0, total, steps=steps, spectral_bound=bound).amps

        reference = run(2048)
        coarse, fine = (np.linalg.norm(run(steps) - reference) for steps in (16, 32))
        assert coarse >= 12.0 * fine  # fourth order gives 16x; a second-order step gives 4x

    @pytest.mark.parametrize("x", [1e-300, 1e-7, 0.5, 1.0, 4.0, 50.0, 1000.0])
    def test_bessel_series_matches_scipy(self, x):
        j = _bessel_series(x)
        atol = 1e-13 if x > 100.0 else 1e-15  # about 1000 terms of roundoff at x = 1000
        np.testing.assert_allclose(j, scipy.special.jv(np.arange(j.size), x), rtol=0, atol=atol)
        assert abs(scipy.special.jv(j.size, x)) <= 1e-17  # the first term left out is negligible

    def test_rejects_bad_steps(self):
        h = HermitianOperator.from_dense([[1.0]])
        with pytest.raises(ValueError, match="steps"):
            integrate_tdse(constant(h), StateVector([1.0]), 1.0, steps=0, spectral_bound=1.0)
