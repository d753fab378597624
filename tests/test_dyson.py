"""Tests for the order-by-order expansion engine."""
import numpy as np
import pytest

from oscpert import dyson, linalg, threemode
from oscpert.benchmarks import registry
from oscpert.dyson import PerturbedSystem
from oscpert.errors import ResolutionTooCoarse

from oracles import (
    loop_convergence_residuals,
    loop_partial_sum,
    loop_term,
    path_term,
)

PSI0 = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.5 - 0.3j])


def small_system(eps=1.0):
    return threemode.perturbed_system(registry("s").at_epsilon(eps))


class TestTerm:
    def test_order_zero_is_diagonal_evolution(self):
        sys = PerturbedSystem(omega0=(2.0, -1.0, 0.5), omegaI=np.zeros((3, 3)), epsilon=0.3)
        out = dyson.term(sys, 0, 1.7, [1.0, 0.0, 0.0], steps=10)
        assert abs(out[0] - np.exp(-1j * 2.0 * 1.7)) < 1e-15
        assert abs(out[1]) == 0.0 and abs(out[2]) == 0.0

    def test_zero_perturbation_kills_higher_orders(self):
        sys = PerturbedSystem(omega0=(2.0, -1.0, 0.5), omegaI=np.zeros((3, 3)), epsilon=1.0)
        for n in (1, 2, 4):
            out = dyson.term(sys, n, 1.0, PSI0, steps=10 * n)
            assert np.max(np.abs(out)) <= 1e-14

    def test_first_order_matches_closed_form(self):
        m = registry("s")
        closed = threemode.psi1_analytic(m, 1, 1.0, PSI0)
        quad = dyson.term(small_system(), 1, 1.0, PSI0, steps=2000)[0]
        assert abs(closed - quad) <= 1e-8 * abs(closed)

    def test_matches_divided_difference_oracle_high_order(self):
        m = registry("s")
        w = threemode.effective_frequencies(m)
        sys = small_system()
        for n, t in ((4, 0.9), (5, 1.3), (7, 0.6)):
            mu = {0: 0, 1: 2, 2: 1}[n % 3]
            e_mu = np.zeros(3, dtype=complex)
            e_mu[mu] = 1.0
            exact = path_term(w, m.a, n, t)
            quad = dyson.term(sys, n, t, e_mu, steps=1500)[0]
            assert abs(exact - quad) <= 1e-10 * max(abs(exact), 1e-12)

    def test_term_independent_of_epsilon(self):
        m = registry("s")
        a = dyson.term(threemode.perturbed_system(m.at_epsilon(1.0)), 2, 1.0, PSI0, 400)
        sys_b = PerturbedSystem(
            omega0=threemode.effective_frequencies(m.at_epsilon(1.0)),
            omegaI=threemode.coupling_matrix(m),
            epsilon=0.25,
        )
        b = dyson.term(sys_b, 2, 1.0, PSI0, 400)
        assert np.max(np.abs(a - b)) <= 1e-14

    def test_coupling_scaling_power(self):
        base = small_system()
        scaled = PerturbedSystem(
            omega0=base.omega0, omegaI=2.5 * base.omegaI, epsilon=base.epsilon
        )
        for n in (1, 2, 3):
            a = dyson.term(base, n, 0.8, PSI0, 800)
            b = dyson.term(scaled, n, 0.8, PSI0, 800)
            assert np.max(np.abs(b - 2.5**n * a)) <= 1e-9 * np.max(np.abs(b))

    def test_quadrature_order(self):
        sys = small_system()
        reference = dyson.term(sys, 3, 1.0, PSI0, steps=6400)
        errs = []
        for steps in (100, 200, 400):
            errs.append(
                np.linalg.norm(dyson.term(sys, 3, 1.0, PSI0, steps) - reference)
            )
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0

    def test_resolution_too_coarse(self):
        with pytest.raises(ResolutionTooCoarse):
            dyson.term(small_system(), 4, 1.0, PSI0, steps=39)


class TestTerms:
    def test_every_order_equals_term(self):
        sys = small_system(0.3)
        for n in (0, 1, 3, 5):
            coeffs = dyson.terms(sys, n, 0.9, PSI0, 10 * n + 20)
            assert len(coeffs) == n + 1
            for k, coeff in enumerate(coeffs):
                expected = dyson.term(sys, k, 0.9, PSI0, 10 * n + 20)
                assert coeff.tobytes() == expected.tobytes()

    def test_resolution_too_coarse(self):
        with pytest.raises(ResolutionTooCoarse):
            dyson.terms(small_system(), 4, 1.0, PSI0, steps=39)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestAgainstPerOrderLoop:
    """The one-pass path reproduces the per-order loop oracle bit for bit."""

    MAX_ORDER = 6

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 7.3])
    def test_bitwise_equal(self, mid, eps, t):
        sys = threemode.perturbed_system(registry(mid).at_epsilon(eps))
        orders = range(self.MAX_ORDER + 1)
        for order in orders:
            coarsest = 10 * order
            assert _same_bits(
                dyson.term(sys, order, t, PSI0, coarsest),
                loop_term(sys, order, t, PSI0, coarsest),
            )
        for steps in (10 * self.MAX_ORDER, 100, 2000):
            coeffs = dyson.terms(sys, self.MAX_ORDER, t, PSI0, steps)
            for order in orders:
                expected = loop_term(sys, order, t, PSI0, steps)
                assert _same_bits(coeffs[order], expected)
                assert _same_bits(dyson.term(sys, order, t, PSI0, steps), expected)
                assert _same_bits(
                    dyson.partial_sum(sys, order, t, PSI0, steps),
                    loop_partial_sum(sys, order, t, PSI0, steps),
                )
            rep = dyson.convergence_report(
                sys, t, PSI0, orders=orders, eps_grid=[0.0, 0.3, 1.0], steps=steps
            )
            expected = loop_convergence_residuals(
                sys, t, PSI0, tuple(orders), (0.0, 0.3, 1.0), steps
            )
            assert _same_bits(rep.residuals, expected)

    @pytest.mark.parametrize(
        "order, t, steps",
        [(-1, 1.0, 100), (2, -0.5, 100), (2, float("nan"), 100),
         (2, float("inf"), 100), (4, 1.0, 39)],
    )
    def test_same_refusals(self, order, t, steps):
        sys = small_system()
        with pytest.raises((ValueError, ResolutionTooCoarse)) as expected:
            loop_term(sys, order, t, PSI0, steps)

        def report(sys, order, t, psi0, steps):
            return dyson.convergence_report(
                sys, t, psi0, orders=(0, order), eps_grid=[0.5], steps=steps
            )

        for call in (dyson.terms, dyson.term, dyson.partial_sum, report):
            with pytest.raises(expected.type) as got:
                call(sys, order, t, PSI0, steps)
            assert str(got.value) == str(expected.value)


class TestPartialSum:
    def test_k0_equals_term0(self):
        sys = small_system()
        assert np.array_equal(
            dyson.partial_sum(sys, 0, 1.2, PSI0, 100), dyson.term(sys, 0, 1.2, PSI0, 100)
        )

    def test_epsilon_zero_is_unperturbed(self):
        sys = PerturbedSystem(
            omega0=(9.0, 6.0, 0.0),
            omegaI=threemode.coupling_matrix(registry("s")),
            epsilon=0.0,
        )
        total = dyson.partial_sum(sys, 5, 1.0, PSI0, 200)
        expected = np.exp(-1j * np.array([9.0, 6.0, 0.0])) * PSI0
        assert np.max(np.abs(total - expected)) <= 1e-12

    def test_small_model_converges_to_propagator(self):
        # measured residuals at t=1, eps=1: 3.8e-4 (K=6), 4.6e-5 (K=7)
        m = registry("s")
        sys = threemode.perturbed_system(m)
        exact = linalg.matrix_exponential_apply(threemode.omega_matrix(m), 1.0, PSI0)
        assert np.linalg.norm(dyson.partial_sum(sys, 6, 1.0, PSI0, 2000) - exact) <= 5e-4
        assert np.linalg.norm(dyson.partial_sum(sys, 7, 1.0, PSI0, 2000) - exact) <= 1e-4

    def test_residual_scales_as_next_power(self):
        # truncating at K=3 leaves an O(eps^4) remainder: halving eps ~ 16x
        m = registry("m")
        res = {}
        for eps in (0.1, 0.05):
            at_eps = m.at_epsilon(eps)
            sys = threemode.perturbed_system(at_eps)
            exact = linalg.matrix_exponential_apply(
                threemode.omega_matrix(at_eps), 1.0, PSI0
            )
            total = dyson.partial_sum(sys, 3, 1.0, PSI0, 2000)
            res[eps] = np.linalg.norm(total - exact)
        ratio = res[0.1] / res[0.05]
        assert 10.0 <= ratio <= 24.0


class TestConvergenceReport:
    def test_zero_perturbation_all_tiny(self):
        sys = PerturbedSystem(omega0=(3.0, 1.0), omegaI=np.zeros((2, 2)), epsilon=1.0)
        rep = dyson.convergence_report(sys, 1.0, [1.0, 1.0], orders=(0, 1, 2), eps_grid=[0.5, 1.0], steps=100)
        assert float(rep.residuals.max()) <= 1e-12
        assert all(rep.monotone)

    def test_small_model_strictly_decreasing(self):
        rep = dyson.convergence_report(
            small_system(), 1.0, PSI0, orders=(0, 1, 2, 3), eps_grid=[1.0], steps=1200
        )
        res = rep.residuals[:, 0]
        assert all(res[i + 1] < res[i] for i in range(len(res) - 1))
        assert rep.monotone == (True,)

    def test_large_model_not_monotone(self):
        sys = threemode.perturbed_system(registry("l"))
        psi0 = np.ones(3) / np.sqrt(3.0)
        rep = dyson.convergence_report(
            sys, 1.0, psi0, orders=tuple(range(7)), eps_grid=[1.0], steps=1200
        )
        res = rep.residuals[:, 0]
        assert any(res[i + 1] >= res[i] for i in range(len(res) - 1))
        assert rep.monotone == (False,)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            dyson.convergence_report(small_system(), 1.0, PSI0, orders=(), eps_grid=[0.5])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            dyson.convergence_report(
                small_system(), 1.0, PSI0, orders=(-1, 2), eps_grid=[0.5], steps=100
            )

    @pytest.mark.parametrize("eps", [1.5, -0.2, float("nan")])
    def test_epsilon_outside_unit_interval_rejected(self, eps):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]"):
            dyson.convergence_report(
                small_system(), 1.0, PSI0, orders=(0, 2), eps_grid=[0.5, eps], steps=100
            )


class TestPerturbedSystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbedSystem(omega0=(1.0, 2.0), omegaI=np.zeros((3, 3)), epsilon=0.5)
        with pytest.raises(ValueError):
            PerturbedSystem(omega0=(1.0, 2.0), omegaI=np.zeros((2, 2)), epsilon=1.5)

    def test_full_matrix(self):
        sys = small_system()
        full = sys.full_matrix()
        assert np.allclose(full, threemode.omega_matrix(registry("s")), atol=1e-14)
