"""Acceptance suite: every exit criterion at its frozen tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure)
and also enforces the criterion's runtime budget.
"""
import time

import numpy as np

from oscpert import dyson, eigenfreq as ef, graph, linalg, threemode as tm
from oscpert.benchmarks import COUPLING_TABLE, registry
from oscpert.threemode import SeriesTruncation

import property_checks as pc

PSI0 = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.5 - 0.3j])
UNIT111 = np.ones(3) / np.sqrt(3.0)


class _Criterion:
    """Times a criterion, prints its line, and enforces the runtime budget."""

    def __init__(self, number: int, description: str, budget_s: float):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number:02d} {status}: {self.description} "
            f"({elapsed:.2f}s < {self.budget_s:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def test_criterion_01_coupling_ratio_table():
    with _Criterion(1, "coupling-ratio table |X|,|Y|,|Z| at eps=1", 1.0):
        for mid, expected in COUPLING_TABLE.items():
            r = tm.xyz(registry(mid))
            for got, want in zip((abs(r.X), abs(r.Y), abs(r.Z)), expected):
                assert abs(got - want) <= 5e-4, (mid, got, want)


def test_criterion_02_zero_eigenvalue_feature():
    with _Criterion(2, "min |lambda(Omega(1))| < 1e-9 on all benchmarks", 1.0):
        for mid in ("small", "moderate", "large"):
            vals = linalg.eigenvalues(tm.omega_matrix(registry(mid)))
            assert min(abs(v) for v in vals) < 1e-9, mid


def test_criterion_03_real_to_complex_transition():
    with _Criterion(3, "spectrum reality: onset bracket and real sweeps", 5.0):
        onset = ef.transition_epsilon(registry("large"), 0.40, 0.50)
        assert 0.40 < onset < 0.50, onset
        for mid in ("small", "moderate"):
            model = registry(mid)
            for eps in np.linspace(0.0, 1.0, 101):
                vals = linalg.eigenvalues(tm.omega_matrix(model, float(eps)))
                assert all(ef.is_real_mode(v) for v in vals), (mid, eps)


def test_criterion_04_analytic_vs_quadrature_orders():
    with _Criterion(4, "closed forms vs quadrature, orders 0..3", 30.0):
        for mid in ("moderate", "small"):
            for eps in (0.2, 1.0):
                model = registry(mid).at_epsilon(eps)
                system = tm.perturbed_system(model)
                for order in range(4):
                    for t in (0.1, 0.5, 1.0, 2.0):
                        closed = tm.psi1_analytic(model, order, t, PSI0)
                        quad = (eps**order) * dyson.term(system, order, t, PSI0, 4000)[0]
                        assert abs(closed - quad) <= 1e-7 * max(abs(closed), 1e-12), (
                            mid, eps, order, t,
                        )


def test_criterion_05_resummation_equivalence_through_order_nine():
    with _Criterion(5, "nine blocks (k_max=3, orders <= 9) vs quadrature K=9", 60.0):
        model = registry("small")
        system = tm.perturbed_system(model)
        trunc = SeriesTruncation(k_max=3)
        for t in (0.25, 0.5, 1.0):
            blocks = tm.psi1_infinite(model, t, UNIT111, trunc, order_cap=9)
            quad = dyson.partial_sum(system, 9, t, UNIT111, 4000)[0]
            assert abs(blocks - quad) <= 1e-5, (t, abs(blocks - quad))


def test_criterion_06_resummation_converges_to_propagator():
    with _Criterion(6, "resummed psi_1 vs propagator, k_max 1..4", 60.0):
        model = registry("small")
        full = tm.omega_matrix(model)
        residuals = []
        for k_max in (1, 2, 3, 4):
            trunc = SeriesTruncation(k_max=k_max)
            worst = 0.0
            for t in (0.25, 0.5, 0.75, 1.0):
                exact = linalg.matrix_exponential_apply(full, t, UNIT111)[0]
                got = tm.psi1_infinite(model, t, UNIT111, trunc)
                worst = max(worst, abs(got - exact))
            residuals.append(worst)
        assert residuals[-1] <= 5e-4, residuals
        assert all(b < a for a, b in zip(residuals, residuals[1:])), residuals


def test_criterion_07_correction_order_monotonicity():
    with _Criterion(7, "err(app2) <= err(app1) <= err(app0), app2 <= 1e-2", 5.0):
        rep = ef.report(registry("small"), 1.0)
        assert rep.real_spectrum
        for i in range(3):
            e0 = rep.abs_errors["app0"][i]
            e1 = rep.abs_errors["app1"][i]
            e2 = rep.abs_errors["app2"][i]
            assert e2 <= e1 <= e0, (i, e0, e1, e2)
            assert e2 <= 1e-2, (i, e2)


def test_criterion_08_small_coupling_error_slope():
    with _Criterion(8, "app0 error log-log slope >= 2.7 on eps in [0.05,0.2]", 10.0):
        eps_grid = np.linspace(0.05, 0.2, 6)
        for mid in ("small", "moderate", "large"):
            model = registry(mid)
            for which in (1, 2, 3):
                errs = []
                for eps in eps_grid:
                    at_eps = model.at_epsilon(float(eps))
                    true = ef.true_eigenfrequencies(at_eps)[which - 1]
                    errs.append(abs(true.real - ef.estimate(at_eps, which, "app0")))
                slope = float(np.polyfit(np.log(eps_grid), np.log(errs), 1)[0])
                assert slope >= 2.7, (mid, which, slope)


def test_criterion_09_decomposition_round_trip():
    with _Criterion(9, "worked decomposition round trip with certificate", 1.0):
        lap = np.array([[3.0, -2.0, -1.0], [-3.0, 6.0, -3.0], [-4.0, -2.0, 6.0]])
        one_way = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])
        dec = graph.decompose(lap, li=one_way)
        assert np.allclose(
            dec.L0, [[2.0, -1.0, -1.0], [-3.0, 5.0, -2.0], [-3.0, -2.0, 5.0]], atol=1e-12
        )
        assert np.allclose(dec.certificate, [3.0, 1.0, 1.0], atol=1e-12)
        graph.validate_decomposition(dec)


def test_criterion_10_randomized_property_suites():
    with _Criterion(10, "five property families on 200 random models", 120.0):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            model = pc.draw_model(rng, eps_max=0.3)
            pc.check_xyz_cross_identity(model)
            pc.check_nesting_identity(model)
            pc.check_hyp_reductions(rng)
            pc.check_group_property(model, rng)
            pc.check_wave_equation(model, rng)
