"""Kernel tests: states, operators, propagators, the integrator, and the cos^2 kernel."""
import math
import warnings

import numpy as np
import pytest
import scipy.special

from clab.qcore import (
    HermitianOperator,
    PhysicalConstants,
    StateVector,
    UnitaryPropagator,
    expm_propagator,
    CHEBYSHEV_CUTOFF,
    _bessel_series,
    _chebyshev_apply,
    cos_squared,
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


def scaled_matvec(matrix, scale):
    """``matvec(v, out=None)`` adding scale * matrix @ v into ``out`` (into zeros when None), as ``h_at`` returns."""

    def matvec(v, out=None):
        if out is None:
            return scale * (matrix @ v)
        out += scale * (matrix @ v)
        return out

    return matvec


def chebyshev_apply(matvec, amps, coeffs, block):
    """``_chebyshev_apply`` over the rows of ``block``, as integrate_tdse lists them."""
    return _chebyshev_apply(matvec, amps, coeffs, block, list(block), list(block.view(np.float64)))


def constant(h):
    """``h_at`` for integrate_tdse with the time-independent H = h."""
    return lambda t, scale: scaled_matvec(h.matrix, scale)


def linear(h0, h1, total):
    """``h_at`` for integrate_tdse on the schedule H(t) = (1 - t/total) h0 + (t/total) h1."""
    return lambda t, scale: scaled_matvec((1 - t / total) * h0.matrix + (t / total) * h1.matrix, scale)


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
        scales = []

        def h_at(t, scale):
            scales.append(scale)
            return lambda v, out=None: pytest.fail("a zero bound needs no matvec")

        out = integrate_tdse(h_at, psi0, 5.0, steps=7, spectral_bound=0.0)
        np.testing.assert_allclose(out.amps, psi0.amps, atol=1e-15)
        assert scales == [0.0] * 14  # still assembled twice per step, without dividing by the zero bound

    def test_step_doubling_converges_on_smooth_schedule(self):
        h0 = random_hermitian(8, seed=51)
        h1 = random_hermitian(8, seed=52)
        total = 3.0

        bound = max(gershgorin_bound(h0), gershgorin_bound(h1))
        psi0 = random_state(8, seed=53)
        coarse = integrate_tdse(linear(h0, h1, total), psi0, total, steps=600, spectral_bound=bound)
        fine = integrate_tdse(linear(h0, h1, total), psi0, total, steps=1200, spectral_bound=bound)
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
        bound = gershgorin_bound(h)
        times, scales = [], []

        def h_at(t, scale):
            times.append(t)
            scales.append(scale)
            return scaled_matvec(h.matrix, scale)

        integrate_tdse(h_at, random_state(8, seed=72), 2.0, steps=5, spectral_bound=bound)
        expected = [0.4 * (j + node) for j in range(5) for node in (1.0 / 6.0, 5.0 / 6.0)]
        np.testing.assert_allclose(times, expected, rtol=0, atol=1e-15)
        assert scales == [2.0 / bound] * 10

    def test_series_of_over_96_terms_matches_exact_propagator(self):
        h = random_hermitian(16, seed=63)
        bound = gershgorin_bound(h)
        total = 200.0 / bound  # one step with dt * bound / hbar = 200: each series runs past 3 x 32 terms
        psi0 = random_state(16, seed=64)
        calls = []

        def h_at(t, scale):
            def matvec(v, out=None):
                calls.append(t)
                out += scale * (h.matrix @ v)
                return out

            return matvec

        stepped = integrate_tdse(h_at, psi0, total, steps=1, spectral_bound=bound)
        terms = _bessel_series(total * bound / 2.0).size  # each exponential spans dt / 2
        assert len(calls) == 2 * (terms - 1) and terms > 3 * 32
        direct = expm_propagator(h, total).apply(psi0)
        assert np.abs(direct.amps - stepped.amps).max() <= 1e-12

    @pytest.mark.parametrize("terms", [1, 2, 3, 31, 32, 33, 34, 62, 63, 64, 100])
    def test_chebyshev_block_sum_matches_plain_recurrence(self, terms):
        a = random_hermitian(12, seed=91).matrix
        a = a / np.abs(np.linalg.eigvalsh(a)).max()
        amps = random_state(12, seed=92).amps
        coeffs = np.random.default_rng(terms).standard_normal(terms) + 0j
        block = np.empty((terms, 12), dtype=np.complex128)
        got = chebyshev_apply(scaled_matvec(a, 2.0), amps, coeffs, block)
        prev, cur, expected = amps, a @ amps, coeffs[0] * amps
        for k in range(1, terms):
            expected = expected + coeffs[k] * cur
            prev, cur = cur, 2.0 * (a @ cur) - prev
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert not np.shares_memory(got, block)

    def test_results_do_not_alias_the_block(self):
        h = random_hermitian(8, seed=93)
        bound = gershgorin_bound(h)
        psi0 = random_state(8, seed=94)
        before = psi0.amps.copy()
        first = integrate_tdse(constant(h), psi0, 1.0, steps=3, spectral_bound=bound)
        kept = first.amps.copy()
        integrate_tdse(constant(h), first, 1.0, steps=3, spectral_bound=bound)
        np.testing.assert_array_equal(first.amps, kept)
        np.testing.assert_array_equal(psi0.amps, before)
        coeffs = np.array([0.5, 0.25j, -0.125])
        block = np.empty((3, 8), dtype=np.complex128)
        earlier = chebyshev_apply(scaled_matvec(h.matrix / bound, 2.0), psi0.amps, coeffs, block)
        copy = earlier.copy()
        chebyshev_apply(scaled_matvec(h.matrix / bound, 2.0), first.amps, coeffs, block)
        np.testing.assert_array_equal(earlier, copy)

    def test_fourth_order_on_linear_schedule(self):
        h0 = random_hermitian(8, seed=81)
        h1 = random_hermitian(8, seed=82)
        total = 2.0

        bound = gershgorin_bound(h0) + gershgorin_bound(h1)
        psi0 = random_state(8, seed=83)

        def run(steps):
            return integrate_tdse(linear(h0, h1, total), psi0, total, steps=steps, spectral_bound=bound).amps

        reference = run(2048)
        coarse, fine = (np.linalg.norm(run(steps) - reference) for steps in (16, 32))
        assert coarse >= 12.0 * fine  # fourth order gives 16x; a second-order step gives 4x

    @pytest.mark.parametrize("x", [1e-300, 1e-7, 0.5, 1.0, 4.0, 50.0, 1000.0])
    def test_bessel_series_matches_scipy(self, x):
        j = _bessel_series(x)
        atol = 1e-13 if x > 100.0 else 1e-15  # about 1000 terms of roundoff at x = 1000
        np.testing.assert_allclose(j, scipy.special.jv(np.arange(j.size), x), rtol=0, atol=atol)
        assert abs(scipy.special.jv(j.size, x)) <= 1e-17  # the first term left out is negligible

    @pytest.mark.parametrize("tail", [1e-9, 1e-13, 1e-17])
    @pytest.mark.parametrize("x", [0.19, 0.375, 0.75, 1.5, 10.0, 100.0])
    def test_bessel_series_drops_the_shortest_tail_within_budget(self, x, tail):
        j = _bessel_series(x, tail)
        np.testing.assert_array_equal(j, _bessel_series(x)[: j.size])
        past = np.abs(scipy.special.jv(np.arange(j.size - 1, j.size + 400), x))
        assert past[1:].sum() <= tail  # what the series drops
        assert past.sum() > tail  # dropping J_K as well would not fit

    @pytest.mark.parametrize("x", [1e-300, 0.19, 1.5, 100.0, 1000.0])
    def test_zero_budget_keeps_every_term_above_the_cutoff(self, x):
        j = _bessel_series(x, 0.0)
        np.testing.assert_array_equal(j, _bessel_series(x))
        assert abs(j[-1]) > CHEBYSHEV_CUTOFF >= abs(scipy.special.jv(j.size, x))

    @pytest.mark.parametrize("budget", [1e-4, 1e-7, 1e-10])
    def test_truncated_series_stay_within_budget(self, budget):
        h = random_hermitian(24, seed=33, scale=1.5)
        psi0 = random_state(24, seed=34)
        bound = gershgorin_bound(h)
        direct = expm_propagator(h, 3.0).apply(psi0).amps
        exact = integrate_tdse(constant(h), psi0, 3.0, steps=16, spectral_bound=bound)
        cut = integrate_tdse(constant(h), psi0, 3.0, steps=16, spectral_bound=bound, truncation=budget)
        assert np.linalg.norm(cut.amps - direct) <= budget / (1.0 - budget / 2.0) + 1e-13
        assert np.linalg.norm(cut.amps - exact.amps) > 1e-15  # the budget did drop terms

    def test_zero_budget_is_the_default_bit_for_bit(self):
        h0, h1 = random_hermitian(8, seed=35), random_hermitian(8, seed=36)
        bound = gershgorin_bound(h0) + gershgorin_bound(h1)
        psi0 = random_state(8, seed=37)
        default = integrate_tdse(linear(h0, h1, 2.0), psi0, 2.0, steps=9, spectral_bound=bound)
        zero = integrate_tdse(linear(h0, h1, 2.0), psi0, 2.0, steps=9, spectral_bound=bound, truncation=0.0)
        np.testing.assert_array_equal(zero.amps, default.amps)

    @pytest.mark.parametrize("budget", [-1e-9, math.nan, math.inf])
    def test_rejects_bad_truncation(self, budget):
        h = HermitianOperator.from_dense([[1.0]])
        with pytest.raises(ValueError, match="truncation"):
            integrate_tdse(constant(h), StateVector([1.0]), 1.0, steps=1, spectral_bound=1.0, truncation=budget)

    def test_rejects_bad_steps(self):
        h = HermitianOperator.from_dense([[1.0]])
        with pytest.raises(ValueError, match="steps"):
            integrate_tdse(constant(h), StateVector([1.0]), 1.0, steps=0, spectral_bound=1.0)


def libm_cos_squared(half):
    return np.cos(half) ** 2


class TestCosSquared:
    def test_matches_numpy_from_tiny_to_past_the_reduction_limit(self):
        rng = np.random.default_rng(7)
        half = np.exp(rng.uniform(math.log(1e-8), math.log(1e8), 200_000)) * rng.choice([-1.0, 1.0], 200_000)
        got = cos_squared(half)
        assert np.abs(got - libm_cos_squared(half)).max() <= 1e-15
        assert got.min() >= 0.0 and got.max() <= 1.0

    def test_multiples_of_half_pi_and_their_neighbours(self):
        # Zeros and maxima of cos^2, each at +-1 ulp.
        rng = np.random.default_rng(8)
        j = np.concatenate([np.arange(0, 200), rng.integers(0, 1 << 22, 2000)]).astype(np.float64)
        points = j * (np.pi / 2)
        half = np.concatenate([points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf)])
        half = np.concatenate([half, -half])
        got = cos_squared(half)
        assert np.abs(got - libm_cos_squared(half)).max() <= 1e-15
        assert got.min() >= 0.0 and got.max() <= 1.0

    @pytest.mark.parametrize(
        "shape",
        [(), (1,), (5,), (3, 4), (0,), (0, 3)],
    )
    def test_shapes_and_chunk_edges(self, shape):
        half = np.random.default_rng(9).uniform(-500.0, 500.0, shape)
        got = cos_squared(half)
        assert isinstance(got, np.ndarray) and got.shape == half.shape and got.dtype == np.float64
        np.testing.assert_allclose(got, libm_cos_squared(half), rtol=0, atol=1e-15)
        for i in {0, half.size - 1} if half.size else ():  # each alone: a result depends on its own element only
            assert got.flat[i] == cos_squared(half.flat[i])

    def test_scalar_and_list_inputs(self):
        assert cos_squared(0.0).shape == () and cos_squared(0.0) == 1.0
        np.testing.assert_allclose(cos_squared([1.0, 2.0]), libm_cos_squared(np.array([1.0, 2.0])), rtol=0, atol=1e-15)

    def test_in_place_equals_out_of_place(self):
        half = np.random.default_rng(10).uniform(-1e4, 1e4, (7, 5461))
        half[0, 0], half[6, -1] = 3e7, -1e300
        expected = cos_squared(half)
        assert cos_squared(half, out=half) is half
        np.testing.assert_array_equal(half, expected)

    def test_rejects_an_out_it_cannot_fill(self):
        half = np.ones((4, 6))
        for out in (np.empty(24), np.empty((4, 6), dtype=np.float32), np.empty((6, 4)).T):
            with pytest.raises(ValueError, match="out"):
                cos_squared(half, out=out)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps, reason="long double is float64 here")
    def test_within_5e_16_of_the_long_double_reference(self):
        rng = np.random.default_rng(11)
        wide = np.exp(rng.uniform(math.log(1e-8), math.log(1e15), 200_000)) * rng.choice([-1.0, 1.0], 200_000)
        points = np.concatenate([np.arange(0, 200), rng.integers(0, 1 << 40, 2000)]) * (np.pi / 2)
        half = np.concatenate([wide, points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf)])
        half = np.concatenate([half, -half])
        reference = np.cos(half.astype(np.longdouble)) ** 2
        assert float(np.abs(cos_squared(half) - reference).max()) <= 5e-16

    def test_non_finite_inputs_give_nan_with_one_invalid_value_warning(self):
        half = np.array([np.nan, 1.0, -np.inf, 2.0, np.inf])
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            got = cos_squared(half)
        np.testing.assert_array_equal(np.isnan(got), [True, False, True, False, True])
        np.testing.assert_allclose(got[[1, 3]], libm_cos_squared(half[[1, 3]]), rtol=0, atol=1e-15)
        assert [w.category for w in ours] == [RuntimeWarning] and "invalid value" in str(ours[0].message)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(cos_squared(np.nan))

    def test_non_finite_in_place_follows_the_callers_errstate(self):
        # In place, ``half`` is gone once tan has run; the report still follows the caller's errstate.
        half = np.array([2.0, np.inf, np.nan, -np.inf])
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            cos_squared(half, out=half)
        assert np.isnan(half[1:]).all() and half[0] == cos_squared(2.0)
        assert [w.category for w in ours] == [RuntimeWarning] and "invalid value" in str(ours[0].message)
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError, match="invalid value"):
                cos_squared(np.array([1.0, -np.inf]))
            assert np.isnan(cos_squared(np.array([np.nan]))).all()
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(cos_squared(np.array([np.inf]))).all()

    def test_no_warning_on_any_finite_input(self):
        tiny = np.nextafter(0.0, 1.0)
        half = np.array([0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 1.0, 1e16, 1.7976931348623157e308])
        half = np.concatenate([half, -half])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cos_squared(half)
        np.testing.assert_allclose(got, libm_cos_squared(half), rtol=0, atol=1e-15)
