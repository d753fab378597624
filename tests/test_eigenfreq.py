"""Tests for eigenfrequency estimates, matching, and the transition search."""
import numpy as np
import pytest

from oscpert import eigenfreq as ef, threemode as tm
from oscpert.benchmarks import registry
from oscpert.errors import DegenerateFrequencies, NoTransition

from oracles import per_point_increments, per_point_sweep

# Effective frequencies 1 + eps, 2, 3.5: modes 1 and 2 coincide at eps = 1.
DEGENERATE_AT_ONE = tm.ThreeModeModel(
    omega=(1, 2, 3.5), a=(0.1, 0.2, 0.3), d=(1, 0, 0), epsilon=0.0
)


class TestEstimate:
    def test_uncoupled_limit(self):
        m = registry("m").at_epsilon(0.0)
        for which, expected in ((1, 9.0), (2, 6.0), (3, 0.0)):
            for level in ef.LEVELS:
                assert ef.estimate(m, which, level) == pytest.approx(expected, abs=1e-14)

    def test_mode1_app0_structure(self):
        m = registry("m")
        ratios = tm.xyz(m)
        w1 = tm.effective_frequencies(m)[0]
        got = ef.estimate(m, 1, "app0")
        assert ratios.X < 0 and abs(abs(ratios.X) - 1.148) <= 5e-4
        assert got == pytest.approx(w1 + ratios.X, abs=1e-14)
        assert w1 == pytest.approx(12.3, abs=1e-14)

    def test_app2_accuracy_small_model(self):
        m = registry("s")
        true_vals = ef.true_eigenfrequencies(m)
        for which in (1, 2, 3):
            err = abs(true_vals[which - 1].real - ef.estimate(m, which, "app2"))
            assert err <= 1e-2

    def test_nesting_identity(self):
        m = registry("m").at_epsilon(0.8)
        for which in (1, 2, 3):
            base, inc1, inc2 = ef.estimate_increments(m, which)
            app0 = ef.estimate(m, which, "app0")
            app1 = ef.estimate(m, which, "app1")
            app2 = ef.estimate(m, which, "app2")
            assert app1 - app0 == pytest.approx(inc1, abs=1e-12)
            assert app2 - app1 == pytest.approx(inc2, abs=1e-12)

    def test_relabeling_invariance(self):
        m = registry("l").at_epsilon(0.3)
        for which, target in ((3, "psi3"), (2, "psi2")):
            view, _ = tm.cyclic_view(m, target)
            for level in ef.LEVELS:
                assert ef.estimate(m, which, level) == pytest.approx(
                    ef.estimate(view, 1, level), abs=1e-12
                )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ef.estimate(registry("m"), 4, "app0")
        with pytest.raises(ValueError):
            ef.estimate(registry("m"), 1, "app9")


class TestTrueEigenfrequencies:
    def test_uncoupled_exact(self):
        vals = ef.true_eigenfrequencies(registry("m").at_epsilon(0.0))
        assert vals == (9.0 + 0.0j, 6.0 + 0.0j, 0.0 + 0.0j)

    def test_zero_mode_at_full_coupling(self):
        vals = ef.true_eigenfrequencies(registry("m"))
        assert min(abs(v) for v in vals) < 1e-9

    def test_large_model_conjugate_pair(self):
        vals = ef.true_eigenfrequencies(registry("l"))
        non_real = [v for v in vals if not ef.is_real_mode(v)]
        assert len(non_real) == 2
        assert non_real[0] == pytest.approx(non_real[1].conjugate(), abs=1e-8)

    def test_branch_continuity(self):
        # matched curves move smoothly: steps bounded by a local slope scale
        for mid in ("m", "s", "l"):
            model = registry(mid)
            grid = np.linspace(0.0, 1.0, 101)
            path = ef.matched_path(model, grid)
            jumps = np.abs(np.diff(path, axis=0))
            assert float(jumps.max()) < 0.5  # d lambda / d eps stays desk-scale


class TestTransition:
    def test_large_model_onset(self):
        onset = ef.transition_epsilon(registry("l"), 0.40, 0.50, tol=1e-4)
        assert 0.40 < onset < 0.50

    def test_small_model_no_transition(self):
        with pytest.raises(NoTransition):
            ef.transition_epsilon(registry("s"), 0.0, 1.0)

    def test_empty_bracket_rejected(self):
        with pytest.raises(ValueError):
            ef.transition_epsilon(registry("l"), 0.45, 0.45)


class TestReport:
    def test_uncoupled_errors_vanish(self):
        rep = ef.report(registry("m"), 0.0)
        assert rep.real_spectrum
        for level in ef.LEVELS:
            assert all(err == 0.0 for err in rep.abs_errors[level])

    def test_small_model_error_ordering(self):
        rep = ef.report(registry("s"), 1.0)
        assert rep.real_spectrum
        for i in range(3):
            e0 = rep.abs_errors["app0"][i]
            e1 = rep.abs_errors["app1"][i]
            e2 = rep.abs_errors["app2"][i]
            assert e2 <= e1 <= e0

    def test_large_model_mixed_reality(self):
        rep = ef.report(registry("l"), 1.0)
        assert not rep.real_spectrum
        assert rep.mode_real.count(False) == 2
        # the surviving real mode is the zero eigenvalue; its error is reported
        real_idx = rep.mode_real.index(True)
        assert abs(rep.true_values[real_idx]) < 1e-9
        for level in ef.LEVELS:
            assert rep.abs_errors[level][real_idx] is not None
            for i in range(3):
                if not rep.mode_real[i]:
                    assert rep.abs_errors[level][i] is None

    def test_app0_error_cubic_in_coupling(self):
        # app0 captures the coupling ratio exactly, so its error falls at
        # least as fast as eps^3 (measured slopes sit near 6)
        for mid in ("m", "s", "l"):
            model = registry(mid)
            eps = np.linspace(0.05, 0.2, 6)
            for which in (1, 2, 3):
                errs = []
                for e in eps:
                    at_eps = model.at_epsilon(float(e))
                    true = ef.true_eigenfrequencies(at_eps)[which - 1]
                    errs.append(abs(true.real - ef.estimate(at_eps, which, "app0")))
                slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
                assert slope >= 2.7


def _assert_grid_matches_per_point_path(model, eps_grid):
    grid = ef.spectral_grid(model, eps_grid)
    true_ref, est_ref = per_point_sweep(model, eps_grid)
    assert grid.epsilon == tuple(float(e) for e in eps_grid)
    assert grid.true_values.tobytes() == true_ref.tobytes()
    assert np.array_equal(ef.matched_path(model, eps_grid), true_ref)
    assert len(grid.estimates) == len(est_ref)
    for got, ref in zip(grid.estimates, est_ref):
        if isinstance(ref, str):
            assert type(got).__name__ == ref
        else:
            assert got == ref  # bitwise: float equality, no tolerance
    return grid


class TestGridPathAgainstPerPointPath:
    """The batched eps-grid path reproduces the per-point path bit for bit."""

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_benchmark_models_1001_points(self, mid):
        _assert_grid_matches_per_point_path(registry(mid), np.linspace(0.0, 1.0, 1001))

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_refinement_between_grid_points(self, mid):
        # gaps of 0.1 are refined into several continuation steps each
        _assert_grid_matches_per_point_path(registry(mid), np.linspace(0.3, 0.9, 7))

    def test_duplicate_epsilon_values(self):
        grid = _assert_grid_matches_per_point_path(
            registry("l"), [0.0, 0.0, 0.25, 0.46, 0.46, 0.46, 1.0, 1.0]
        )
        assert np.array_equal(grid.true_values[3], grid.true_values[5])

    def test_epsilon_zero_alone(self):
        grid = _assert_grid_matches_per_point_path(registry("m"), [0.0])
        assert grid.true_values.tolist() == [[9.0, 6.0, 0.0]]

    def test_degenerate_points_are_refused(self):
        grid = _assert_grid_matches_per_point_path(
            DEGENERATE_AT_ONE, np.linspace(0.0, 1.0, 11)
        )
        assert isinstance(grid.estimates[-1], DegenerateFrequencies)
        assert all(isinstance(e, tuple) for e in grid.estimates[:-1])

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_public_estimators_match_per_point_path(self, mid):
        for eps in np.linspace(0.0, 1.0, 21):
            at_eps = registry(mid).at_epsilon(float(eps))
            for which in (1, 2, 3):
                assert ef.estimate_increments(at_eps, which) == per_point_increments(
                    at_eps, which
                )

    def test_grid_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            ef.spectral_grid(registry("s"), [0.5, 1.5])
        with pytest.raises(ValueError):
            ef.spectral_grid(registry("s"), [0.5, 0.2])
        with pytest.raises(ValueError):
            ef.spectral_grid(registry("s"), [0.5, float("nan")])
        with pytest.raises(ValueError):
            ef.matched_path(registry("s"), [float("nan")])

    def test_report_refuses_degenerate_point(self):
        with pytest.raises(DegenerateFrequencies):
            ef.report(DEGENERATE_AT_ONE, 1.0)
