"""Tests for the dense complex linear-algebra layer."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
import scipy.linalg

from oscpert import linalg, threemode
from oscpert.benchmarks import registry
from oscpert.errors import NonConvergence, NonFiniteResult
from oscpert.threemode import ThreeModeModel

from oracles import cardano_roots, charpoly3, rk4_evolution

FIG1_LAPLACIAN = np.array([[3.0, -2.0, -1.0], [-3.0, 6.0, -3.0], [-4.0, -2.0, 6.0]])
OMEGA1_LARGE = np.array([[12.0, -6.0, 0.0], [0.0, 35.0 / 4.0, -7.0], [-5.0, 0.0, 2.0]])
OMEGA1_SMALL = np.array(
    [[10.5, -1.0, 0.0], [0.0, 6.0 + 34.0 / 21.0, -2.0], [-1.0, 0.0, 1.0 / 40.0]]
)


def _fraction_det(m) -> Fraction:
    """The exact determinant of a square list of Fractions, by the Leibniz
    sum over permutations (the sign from the inversion count)."""
    n = len(m)
    total = Fraction(0)
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][p[i]] for i in range(n))
    return total


class TestEigenvalues:
    def test_identity(self):
        vals = linalg.eigenvalues(np.eye(3))
        assert len(vals) == 3
        for v in vals:
            assert abs(v - 1.0) < 1e-12

    def test_laplacian_has_zero_mode(self):
        vals = linalg.eigenvalues(FIG1_LAPLACIAN)
        assert min(abs(v) for v in vals) < 1e-10

    def test_singular_matrix_with_conjugate_pair(self):
        vals = linalg.eigenvalues(OMEGA1_LARGE)
        assert min(abs(v) for v in vals) < 1e-9
        complex_vals = [v for v in vals if abs(v.imag) > 1e-6]
        assert len(complex_vals) == 2
        assert abs(complex_vals[0] - complex_vals[1].conjugate()) < 1e-8

    def test_against_cubic_solver(self):
        reference = sorted(
            cardano_roots(*charpoly3(OMEGA1_LARGE)), key=lambda r: (r.real, r.imag)
        )
        got = sorted(linalg.eigenvalues(OMEGA1_LARGE), key=lambda r: (r.real, r.imag))
        for r, g in zip(reference, got):
            assert abs(r - g) < 1e-9

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            vals = linalg.eigenvalues(m)
            scale = np.linalg.norm(m)
            assert abs(sum(vals) - np.trace(m)) <= 1e-8 * scale
            prod = vals[0] * vals[1] * vals[2]
            det = np.linalg.det(m)
            assert abs(prod - det) <= 1e-8 * max(abs(det), 1.0)

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError, match=r"^matrix must be a non-empty square matrix, got shape \(2, 3\)$"):
            linalg.eigenvalues(np.ones((2, 3)))
        with pytest.raises(ValueError):
            linalg.eigenvalues(np.array([[np.nan, 0], [0, 1]]))


    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            stack = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
            got = linalg.eigenvalues(stack)
            assert isinstance(got, np.ndarray) and got.shape == (5, n)
            for k in range(5):
                assert got[k].tolist() == linalg.eigenvalues(stack[k])

    def test_empty_stack(self):
        got = linalg.eigenvalues(np.zeros((0, 3, 3)))
        assert got.shape == (0, 3) and got.dtype == complex

    @pytest.mark.parametrize("stack", [False, True])
    def test_large_entries_keep_the_residual_check(self, stack, monkeypatch):
        # max(1, ||M||)**3 and the residual of the unscaled check overflow
        # here, which once let every root pass
        big = np.diag([1e200, 2e200, 3e200])
        m = np.stack([big, 0.5 * big]) if stack else big
        got = np.asarray(linalg.eigenvalues(m))
        diagonal = np.diagonal(m, axis1=-2, axis2=-1)
        assert np.array_equal(np.sort(got.real.ravel()), np.sort(diagonal.ravel()))
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: 1.5 * eigvals(a))
        with pytest.raises(NonConvergence):
            linalg.eigenvalues(m)

    def test_large_coupling_stack_is_checked(self, monkeypatch):
        # a1*a2*a3 = 1e330 is past the double range, M/s is not
        model = ThreeModeModel(omega=(1.0, 2.0, 3.5), a=(1e110,) * 3, d=(0.0, 0.0, 0.0), epsilon=1.0)
        stack = threemode.omega_matrix(model, np.array([0.25, 0.5, 1.0]))
        got = linalg.eigenvalues(stack)
        for k, eps in enumerate((0.25, 0.5, 1.0)):
            # omega is lost to rounding: the spectrum is eps * 1e110 times
            # the cube roots of -1
            assert np.allclose((got[k] / (eps * 1e110)) ** 3, -1.0, rtol=1e-9)
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: 1.5 * eigvals(a))
        with pytest.raises(NonConvergence):
            linalg.eigenvalues(stack)

    @pytest.mark.parametrize("scale, stack", [(1e-4, False), (1e-150, False), (1e-150, True)])
    def test_small_entries_keep_the_residual_check(self, scale, stack, monkeypatch):
        # the check is relative below unit scale too: divided by max(1, s),
        # these roots, 1.5 times too large, once passed
        m = scale * FIG1_LAPLACIAN / 6.0
        m = np.stack([m, m.T]) if stack else m
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: 1.5 * eigvals(a))
        with pytest.raises(NonConvergence, match=r"^eigenvalue .* has characteristic residual "):
            linalg.eigenvalues(m)

    def test_zero_matrix_has_zero_roots(self):
        assert linalg.eigenvalues(np.zeros((3, 3))) == [0j, 0j, 0j]
        got = linalg.eigenvalues(np.zeros((4, 2, 2)))
        assert got.shape == (4, 2) and not np.any(got)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_det_is_exact_on_small_integers(self, n):
        rng = np.random.default_rng(n)
        stack = rng.integers(-9, 10, size=(200, n, n))
        rows = [[stack[:, i, j].astype(float) for j in range(n)] for i in range(n)]
        got = linalg._det(rows)
        want = [float(_fraction_det([[Fraction(int(x)) for x in row] for row in m])) for m in stack]
        assert got.tolist() == want

    def test_stack_rejects_bad_input(self):
        with pytest.raises(ValueError, match=r"^matrix stack must be \(N, n, n\), got shape \(2, 2, 3\)$"):
            linalg.eigenvalues(np.ones((2, 2, 3)))
        with pytest.raises(ValueError, match=r"^matrix stack must be \(N, n, n\), got shape \(1, 0, 0\)$"):
            linalg.eigenvalues(np.ones((1, 0, 0)))
        with pytest.raises(ValueError):
            linalg.eigenvalues(np.full((2, 3, 3), np.inf))


class TestPropagator:
    def test_zero_matrix_is_identity(self):
        v = np.array([1.0 + 2.0j, -0.5, 0.25j])
        out = linalg.matrix_exponential_apply(np.zeros((3, 3)), 3.7, v)
        assert np.allclose(out, v, rtol=0, atol=1e-15)

    def test_diagonal_is_entrywise_phase(self):
        omega = np.array([2.5, -1.0, 0.75])
        t = 1.3
        out = linalg.matrix_exponential_apply(np.diag(omega), t, [1.0, 1.0, 1.0])
        expected = np.exp(-1j * omega * t)
        assert np.max(np.abs(out - expected)) < 5e-16

    def test_against_rk4(self):
        v = np.array([1.0, 0.0, 0.0], dtype=complex)
        got = linalg.matrix_exponential_apply(OMEGA1_SMALL, 1.0, v)
        reference = rk4_evolution(OMEGA1_SMALL, 1.0, v, dt=1e-4)
        assert np.linalg.norm(got - reference) < 1e-8

    def test_against_scipy_expm(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            t = float(rng.uniform(0.1, 2.0))
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            got = linalg.matrix_exponential_apply(m, t, v)
            ref = scipy.linalg.expm(-1j * m * t) @ v
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_group_property(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 3))
        m *= 5.0 / np.linalg.norm(m)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        t, s = 1.1, 0.7
        two_step = linalg.matrix_exponential_apply(
            m, s, linalg.matrix_exponential_apply(m, t, v)
        )
        one_step = linalg.matrix_exponential_apply(m, t + s, v)
        assert np.linalg.norm(two_step - one_step) <= 1e-10 * np.linalg.norm(one_step)

    def test_wave_equation_second_derivative(self):
        # psi(t) = exp(-i M t) psi0 must satisfy psi'' = -M^2 psi to O(h^2)
        v = np.array([0.6, -0.2, 0.3], dtype=complex)
        t = 0.8
        target = -OMEGA1_SMALL @ OMEGA1_SMALL @ linalg.matrix_exponential_apply(
            OMEGA1_SMALL, t, v
        )
        errs = []
        for h in (1e-3, 5e-4):
            second = (
                linalg.matrix_exponential_apply(OMEGA1_SMALL, t + h, v)
                - 2 * linalg.matrix_exponential_apply(OMEGA1_SMALL, t, v)
                + linalg.matrix_exponential_apply(OMEGA1_SMALL, t - h, v)
            ) / h**2
            errs.append(np.linalg.norm(second - target))
        assert errs[1] < errs[0] / 3.0  # O(h^2): halving h gains ~4x

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^vector has length 2, expected 3$"):
            linalg.matrix_exponential_apply(np.eye(3), 1.0, [1.0, 2.0])

    def test_non_finite_inputs(self):
        with pytest.raises(ValueError, match="^psi0 contains non-finite entries$"):
            linalg.as_vector([1.0, np.nan, 0.0], 3, "psi0")
        with pytest.raises(ValueError, match="^t must be finite$"):
            linalg.propagator(OMEGA1_SMALL, np.nan)

    def test_overflow_is_refused_by_type(self):
        # exp(-i Omega t) of `large` at t = 1000 leaves the double range; the
        # Pade steps warn nothing (a RuntimeWarning fails tier-1)
        with pytest.raises(NonFiniteResult, match="propagator"):
            linalg.matrix_exponential_apply(threemode.omega_matrix(registry("l")), 1000.0, [1, 0, 0])

    @pytest.mark.parametrize("m, t", [
        (np.diag([1e308, 1, 0]), 10.0),  # m * t overflows: a NaN phase
        (np.diag([1 + 1e3j, 1]), 1.0),  # exp(1000 - 1j) overflows: inf - inf j
        ([[1e308, 1], [0, 0]], 10.0),  # m * t overflows: the Pade 1-norm is inf
        ([[3, 1e-300], [0, 1]], 1e308),
    ], ids=["diagonal m", "diagonal exp", "Pade m", "Pade t"])
    def test_overflowing_argument_is_refused_by_type(self, m, t):
        with pytest.raises(NonFiniteResult, match="propagator"):
            linalg.propagator(m, t)
