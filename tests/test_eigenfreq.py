"""Tests for eigenfrequency estimates, matching, and the transition search."""
import itertools
from fractions import Fraction

import numpy as np
import pytest

from oscpert import eigenfreq as ef, linalg, threemode as tm
from oscpert.benchmarks import registry
from oscpert.errors import DegenerateFrequencies, NonFiniteResult, NoTransition

from oracles import (
    bisect_transition,
    is_real_mode,
    lagrange_coefficients,
    pair_rule,
    per_point_increments,
    per_point_path,
    per_point_sweep,
    exact_exceptional_points,
    polynomial_exceptional_points,
)
from test_graph import _run_apart

# Effective frequencies 1 + eps, 2, 3.5: modes 1 and 2 coincide at eps = 1.
DEGENERATE_AT_ONE = tm.ThreeModeModel(
    omega=(1, 2, 3.5), a=(0.1, 0.2, 0.3), d=(1, 0, 0), epsilon=0.0
)
# W = a1 a2 a3 eps^3 / (P Q) is about 1e180 at eps = 1, so W**2 overflows.
OVERFLOWING_POWER = tm.ThreeModeModel(
    omega=(1, 2, 3.5), a=(1e60, 1e60, 1e60), d=(0, 0, 0), epsilon=1.0
)
# a1 a2 a3 itself overflows, so W is infinite at every eps > 0; at eps = 0
# the model is uncoupled and W is exactly 0.
OVERFLOWING_COUPLING = tm.ThreeModeModel(
    omega=(1, 2, 3.5), a=(1e110, 1e110, 1e110), d=(0, 0, 0), epsilon=0.5
)
# a1 a2 a3 = 0: the spectrum stays real, and mode 1 (1 + 3 eps) meets mode 2
# at eps = 1/3 and mode 3 at eps = 5/6.
ZERO_COUPLING = tm.ThreeModeModel(omega=(1, 2, 3.5), a=(0, 0, 0), d=(3, 0, 0), epsilon=0.0)


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

    def test_lagrange_coefficients(self):
        # c_1..c_4 in closed form, at a rational (p, q)
        p, q = Fraction(3, 7), Fraction(5, 11)
        assert lagrange_coefficients(p, q, 4) == [
            1,
            1 / p - 1 / q,
            2 / p**2 - 3 / (p * q) + 2 / q**2,
            5 / p**3 - 10 / (p**2 * q) + 10 / (p * q**2) - 5 / q**3,
        ]

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_partial_sums_of_the_lagrange_series(self, mid):
        # app0, app1 and app2 through W^3 are partial sums of the shift's series
        # sum c_n W^n.  app2's W^4 term, as transcribed, has 10/3 where c_4 has
        # 5 on 1/p^3 and 1/q^3: app2 - S4 = (10/3 - 5) W^4 (1/p^3 - 1/q^3).
        # Bounds are rounding of the sum of |terms| of each increment.
        for eps, which in itertools.product((0.1, 0.2, 0.4, 1.0), (1, 2, 3)):
            m = registry(mid).at_epsilon(eps)
            view, _ = tm.cyclic_view(m, f"psi{which}")
            w1, w2, w3 = tm.effective_frequencies(view)
            w, p, q = tm.xyz(view).X, w3 - w1, w1 - w2
            c = [float(x) for x in lagrange_coefficients(p, q, 4)]
            base, inc1, inc2 = ef.estimate_increments(m, which)
            assert base == w1 + c[0] * w
            size1 = w**2 * (1 / abs(p) + 1 / abs(q))
            assert abs(inc1 - c[1] * w**2) <= 4e-15 * size1
            pinned = (10 / 3 - 5) * w**4 * (1 / p**3 - 1 / q**3)
            size2 = abs(w) ** 3 * (2 / p**2 + 3 / abs(p * q) + 2 / q**2)
            size2 += w**4 * (
                10 / 3 / abs(p**3) + 10 / abs(p**2 * q) + 10 / abs(p * q**2) + 10 / 3 / abs(q**3)
            )
            assert abs(inc2 - c[2] * w**3 - c[3] * w**4 - pinned) <= 4e-15 * size2

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
        with pytest.raises(ValueError):  # checked before the estimates overflow
            ef.estimate(OVERFLOWING_POWER, 1, "app9")


class TestTrueEigenfrequencies:
    def test_uncoupled_exact(self):
        vals = ef.true_eigenfrequencies(registry("m").at_epsilon(0.0))
        assert vals == (9.0 + 0.0j, 6.0 + 0.0j, 0.0 + 0.0j)

    def test_zero_mode_at_full_coupling(self):
        vals = ef.true_eigenfrequencies(registry("m"))
        assert min(abs(v) for v in vals) < 1e-9

    def test_large_model_conjugate_pair(self):
        vals = ef.true_eigenfrequencies(registry("l"))
        non_real = [v for v in vals if not is_real_mode(v)]
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
        onset = ef.transition_epsilon(registry("l"), 0.40, 0.50)
        assert 0.40 < onset < 0.50
        assert abs(onset - bisect_transition(registry("l"), 0.40, 0.50, 1e-14)) <= 1e-12

    def test_exceptional_points_of_benchmarks(self):
        # only `large` meets a pair in [0, 1]; `moderate` just past it
        inside = {
            mid: [e for e in ef.exceptional_points(registry(mid)).tolist() if 0 <= e <= 1.1]
            for mid in ("s", "m", "l")
        }
        assert inside["s"] == []
        assert [round(e, 3) for e in inside["m"]] == [1.006]
        assert [round(e, 11) for e in inside["l"]] == [0.45133666959]

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_same_roots_as_polynomial_objects(self, mid):
        got = ef.exceptional_points(registry(mid))
        want = polynomial_exceptional_points(registry(mid))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13

    def test_exceptional_points_to_a_few_ulps(self):
        # formed from the differences w_i' - w_j', the discriminant keeps its
        # roots within 2e-14 of 60-digit ones; expanded from the cubic's
        # coefficients it lost up to 3e-7 to cancellation on these models
        # (seed 5 has two EPs 0.0025 apart)
        models = [registry(mid) for mid in "sml"] + [_random_model(seed) for seed in range(12)]
        for m in models:
            got, want = ef.exceptional_points(m), np.array(exact_exceptional_points(m))
            assert got.shape == want.shape
            assert (np.abs(got - want) <= 5e-14 * np.abs(want)).all(), (m, got - want)

    def test_numpy_polynomial_is_not_imported(self):
        done = _run_apart("-c", (
            "import sys, oscpert\n"
            "from oscpert.benchmarks import registry\n"
            "oscpert.eigenfreq.matched_path(registry('l'), [0.0, 0.5, 1.0])\n"
            "print('numpy.polynomial' in sys.modules)"
        ))
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

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
    assert grid.estimates.shape == (len(est_ref), 3, 3)
    assert len(grid.refusals) == len(est_ref)
    for got, refusal, ref in zip(grid.estimates, grid.refusals, est_ref):
        if isinstance(ref, str):
            assert type(refusal).__name__ == ref
            assert np.isnan(got).all()
        else:
            assert refusal is None
            assert got.tobytes() == np.array(ref).tobytes()  # bitwise, no tolerance
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
        assert isinstance(grid.refusals[-1], DegenerateFrequencies)
        assert all(r is None for r in grid.refusals[:-1])

    @pytest.mark.parametrize("third, refused", [(2.000003, False), (2.0000015, True)])
    def test_gaps_near_the_floor(self, third, refused):
        # the floor is 1e-6 * max|w| ~ 2e-6: a gap of 3e-6 is kept and one of
        # 1.5e-6 refused, both within the factor 2 that hands a point to the
        # scalar rule
        model = tm.ThreeModeModel(
            omega=(1, 2, third), a=(0.1, 0.2, 0.3), d=(0, 0, 0), epsilon=0.0
        )
        grid = _assert_grid_matches_per_point_path(model, [0.0, 0.5])
        assert [r is not None for r in grid.refusals] == [refused, refused]

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


def _random_model(seed):
    rng = np.random.default_rng(seed)
    return tm.ThreeModeModel(
        omega=rng.uniform(0.0, 10.0, 3),
        a=rng.uniform(0.1, 3.0, 3),
        d=rng.uniform(-2.0, 2.0, 3),
        epsilon=0.0,
    )


class TestCostTableAgainstPermutationLoop:
    """The labels from the EPs are those of the permutations loop once its
    ties follow the two tie rules of pair_rule."""

    # 25, 29, 31, 79 and 86 are, with 5, the seeds in 0..149 whose models
    # have a second EP in (0, 1], where a pair turns real again; 86's pair
    # lies inside the first grid gap
    @pytest.mark.parametrize("seed", [*range(20), 25, 29, 31, 79, 86])
    def test_random_models_1001_points(self, seed):
        model = _random_model(seed)
        grid = np.linspace(0.0, 1.0, 1001)
        want = pair_rule(per_point_path(model, grid))
        assert ef.matched_path(model, grid).tobytes() == want.tobytes()

    def test_pair_inside_one_grid_gap(self):
        # seed 86's pair lives on (0.000541, 0.000561), inside the first grid
        # gap: the walk steps through its midpoint whether or not the grid
        # holds it, so both grids take the labels of the EPs
        model = _random_model(86)
        first, second = ef.exceptional_points(model)[1:3]
        grid = np.linspace(0.0, 1.0, 1001)
        fine = np.insert(grid, 1, (first + second) / 2)
        want = pair_rule(per_point_path(model, fine))
        assert ef.matched_path(model, fine).tobytes() == want.tobytes()
        assert ef.matched_path(model, grid).tobytes() == want[np.arange(1002) != 1].tobytes()
        assert pair_rule(per_point_path(model, grid)).tobytes() == want[np.arange(1002) != 1].tobytes()

    def test_exact_tie_on_large_model(self):
        # modes 1 and 2 become a conjugate pair near eps = 0.4513; there two
        # assignments cost exactly the same and LAPACK's order picks one
        model, grid = registry("l"), np.linspace(0.0, 1.0, 1001)
        margins = []
        ref = per_point_path(model, grid, margins)
        assert len(margins) == 1000
        assert min(margins) == 0.0
        assert ef.matched_path(model, grid).tobytes() == pair_rule(ref).tobytes()


def _pair_modes(row):
    return np.flatnonzero(~is_real_mode(row)).tolist()


class TestLabelsFromExceptionalPoints:
    """Labels change only at the EPs, by the pair rule and the re-split rule."""

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_report_equals_grid_row(self, mid):
        eps = np.linspace(0.0, 1.0, 101)
        grid = ef.spectral_grid(registry(mid), eps)
        for row, e in zip(grid.true_values.tolist(), eps.tolist()):
            assert list(ef.report(registry(mid), e).true_values) == row

    def test_one_eigensolve_per_call(self, monkeypatch):
        calls = []
        eigenvalues = ef.linalg.eigenvalues
        monkeypatch.setattr(ef.linalg, "eigenvalues", lambda m: calls.append(1) or eigenvalues(m))
        ef.matched_path(registry("l"), np.linspace(0.0, 1.0, 1001))
        assert len(calls) == 1

    def test_pair_that_turns_real_again(self):
        # the pair of modes 1 and 3 lives on (0.1532, 0.1694); after it mode 1,
        # which held Im > 0, takes the larger real part
        model, grid = _random_model(25), np.linspace(0.0, 1.0, 1001)
        first, second = ef.exceptional_points(model)[-2:]
        assert 0.153 < first < second < 0.17
        path = ef.matched_path(model, grid)
        assert path.tobytes() == pair_rule(per_point_path(model, grid)).tobytes()
        for row in path[(grid > first) & (grid < second)]:
            assert _pair_modes(row) == [0, 2] and row[0].imag > 0
        for row in path[grid > second]:
            assert _pair_modes(row) == []
        assert path[grid > second][0, 0].real > path[grid > second][0, 2].real

    def test_two_exceptional_points_in_one_grid_gap(self):
        # modes 1 and 3 meet at 0.000541 and split at 0.000561, both between
        # the grid points 0 and 0.001: the labels there are those of a grid
        # that steps through the pair
        model = _random_model(86)
        first, second = ef.exceptional_points(model)[1:3]
        assert 0.0 < first < second < 0.001
        coarse = ef.matched_path(model, [0.0, 0.001, 1.0])
        fine = ef.matched_path(model, [0.0, (first + second) / 2, 0.001, 1.0])
        assert coarse.tobytes() == fine[[0, 2, 3]].tobytes()
        assert _pair_modes(fine[1]) == [0, 2] and fine[1, 0].imag > 0
        assert coarse[1, 0].real > coarse[1, 2].real  # mode 1 had Im > 0

    @pytest.mark.parametrize("a", [1e110, 1e-52])
    def test_extreme_couplings_stay_finite(self, a):
        # a1*a2*a3 = 1e330 overflows, and 1e-156 leaves a leading discriminant
        # coefficient below the normal range: neither overflows a
        # coefficient or the companion matrix, or raises a RuntimeWarning
        model = tm.ThreeModeModel(omega=(1, 2, 3.5), a=(a,) * 3, d=(0, 0, 0), epsilon=0.0)
        points, grid = ef.exceptional_points(model), np.linspace(0, 1, 11)
        path = ef.matched_path(model, grid)
        assert np.isfinite(points).all() and np.isfinite(path).all()
        inside = points[(points > 0) & (points <= 1)]
        if a < 1:  # too weak for a pair to meet in [0, 1]
            assert inside.size == 0
        else:  # the pair meets at eps ~ 1e-110, resolved in the rescaled solve
            assert inside.size == 1 and 1e-111 < inside[0] < 1e-109
        assert path.tobytes() == pair_rule(per_point_path(model, grid)).tobytes()

    def test_zero_coupling_has_no_exceptional_points(self):
        # the crossings at eps = 1/3 and 5/6 are exact, not EPs: both bounce
        assert ef.exceptional_points(ZERO_COUPLING).size == 0
        path = ef.matched_path(ZERO_COUPLING, np.linspace(0, 1, 25))
        assert not path.imag.any()
        assert (np.diff(path.real, axis=1) >= 0).all()
        assert path[-1].real.tolist() == [2.0, 3.5, 4.0]


def _scaled(m, c):
    """m with every w, a and d times c: its eigenvalues scale by c, its EPs stay."""
    return tm.ThreeModeModel(
        omega=[c * w for w in m.omega], a=[c * a for a in m.a], d=[c * x for x in m.d], epsilon=m.epsilon
    )


class TestScaleFree:
    """The EPs, and so the labels, read the model's own scale."""

    @pytest.mark.parametrize("c", [1e-300, 1e-60, 1e150, 1e300])
    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_exceptional_points_do_not_move(self, mid, c):
        want = ef.exceptional_points(registry(mid))
        scaled = _scaled(registry(mid), c)
        for got in (ef.exceptional_points(scaled), polynomial_exceptional_points(scaled)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12

    def test_large_below_unit_scale_is_labeled_as_at_unit_scale(self):
        # with the EPs lost, modes 1 and 2 swapped their conjugate pair past
        # eps = 0.4513, on 361 of these 1,001 rows
        grid = np.linspace(0.0, 1.0, 1001)
        want = ef.matched_path(registry("l"), grid)
        got = ef.matched_path(_scaled(registry("l"), 1e-60), grid) / 1e-60
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


class TestRealityFromExceptionalPoints:
    """A mode is non-real exactly where the EP intervals put it in a pair
    slot: one rule for the labels and the reality mask, at any scale."""

    GRID = np.linspace(0.0, 1.0, 1001)

    @pytest.mark.parametrize("c", [1e-300, 1e-60, 1e-12, 1e150, 1e300])
    def test_reality_does_not_move_with_scale(self, c):
        # the unit-floored threshold read all 3,003 modes real below ~1e-8
        want = ef.spectral_grid(registry("l"), self.GRID).mode_real
        got = ef.spectral_grid(_scaled(registry("l"), c), self.GRID).mode_real
        assert want.sum() == got.sum() == 1905
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_mask_equals_threshold_at_unit_scale(self, mid):
        grid = ef.spectral_grid(registry(mid), self.GRID)
        assert np.array_equal(grid.mode_real, is_real_mode(grid.true_values))
        assert np.array_equal(np.isnan(grid.errors), ~grid.mode_real[..., None].repeat(3, axis=2))

    def test_tied_frequencies_make_no_spurious_exceptional_point(self):
        # w1 = w2 at eps = 0: the discriminant's double root there is exact,
        # where rounding made two EPs near +-1e-7 and so flipped the reality
        # of every later interval (963 rows of estimates were measured
        # against the real parts of a conjugate pair)
        model = tm.ThreeModeModel(omega=(5, 5, 1), a=(3, 3, 3), d=(1, 0, 0), epsilon=0.0)
        points = ef.exceptional_points(model)
        assert points.tolist().count(0.0) == 2 and (np.abs(points[points != 0]) > 1e-3).all()
        grid = ef.spectral_grid(model, self.GRID)
        assert np.array_equal(grid.mode_real, is_real_mode(grid.true_values))
        assert 0 < grid.mode_real.sum() < grid.mode_real.size

    @pytest.mark.parametrize("omega, a, d, pair", [
        ((1, 1, 1), (1, 1, 1), (0, 1, 2), True),  # estimates not refused past eps ~ 1e-6
        ((5, 5, 1), (1, 1, 1), (0, 0, 0), True),  # the outcome dump's `degenerate`
        ((1, 1, 1), (1, 1, 1), (0, 0, 0), True),
        ((5, 5, 1), (-1, 1, 1), (0, 0, 0), False),  # P < 0: the tied pair splits real
    ])
    def test_reality_just_past_a_root_at_zero(self, omega, a, d, pair):
        # eps = 0 is a multiple root of the discriminant; the spectrum just
        # past it is real or not by the sign of the lowest non-zero term, and
        # taking the first interval as real would write errors against a pair
        model = tm.ThreeModeModel(omega=omega, a=a, d=d, epsilon=0.0)
        assert ef.exceptional_points(model).tolist().count(0.0) >= 3
        grid = ef.spectral_grid(model, self.GRID)
        assert np.array_equal(grid.mode_real, is_real_mode(grid.true_values))
        assert grid.mode_real[0].all()
        assert (grid.mode_real[1:].sum(axis=1) == (1 if pair else 3)).all()
        refused = np.array([r is not None for r in grid.refusals])[:, None]
        assert np.array_equal(np.isnan(grid.errors).any(axis=2), ~grid.mode_real | refused)
        if not refused[500]:
            assert ef.report(model, 0.5).mode_real == tuple(grid.mode_real[500].tolist())
        if pair:  # the lower mode of the new pair takes Im > 0
            up, down = sorted(np.flatnonzero(~grid.mode_real[1]))
            assert (grid.true_values[1:, up].imag > 0).all()
            assert (grid.true_values[1:, down].imag < 0).all()

    def test_far_below_unit_scale_is_not_degenerate(self):
        # the gap floor read max(1e-12, max|w'|): at 1e-20 every point was refused
        model = _scaled(registry("l"), 1e-20)
        want = [1e-20 * w for w in tm.effective_frequencies(registry("l"))]
        assert tm.effective_frequencies(model) == pytest.approx(want, rel=1e-15)
        grid = ef.spectral_grid(model, self.GRID)
        assert all(r is None for r in grid.refusals)
        assert np.array_equal(grid.mode_real, ef.spectral_grid(registry("l"), self.GRID).mode_real)
        assert ef.report(model, 1.0).real_spectrum is False


class TestEstimateOverflow:
    """Estimates whose terms leave the double range are refused with
    NonFiniteResult, not garbage."""

    @pytest.mark.parametrize("model", [OVERFLOWING_POWER, OVERFLOWING_COUPLING])
    def test_public_estimators_refuse(self, model):
        with pytest.raises(NonFiniteResult, match=r"^estimator terms are not finite at eps="):
            ef.estimate_increments(model, 1)
        with pytest.raises(NonFiniteResult, match=r"^estimator terms are not finite at eps="):
            ef.estimate(model, 2, "app0")
        with pytest.raises(NonFiniteResult, match=r"^estimator terms are not finite at eps="):
            ef.report(model, model.epsilon)

    def test_grid_refuses_overflowing_points(self):
        grid = ef.spectral_grid(OVERFLOWING_POWER, [0.0, 0.5, 1.0])
        assert grid.refusals[0] is None
        assert np.isfinite(grid.estimates[0]).all()
        assert all(isinstance(r, NonFiniteResult) for r in grid.refusals[1:])
        assert np.isnan(grid.estimates[1:]).all()

    def test_overflowing_coupling_is_uncoupled_at_eps_zero(self):
        # at eps = 0 the signed zero of the coupling, not inf * 0 = nan: every
        # estimate is w' exactly; at eps = 1, W = inf is refused
        grid = ef.spectral_grid(OVERFLOWING_COUPLING, [0.0, 1.0])
        assert grid.refusals[0] is None and isinstance(grid.refusals[1], NonFiniteResult)
        assert grid.estimates[0].tolist() == [[w] * 3 for w in OVERFLOWING_COUPLING.omega]
        assert np.isnan(grid.estimates[1]).all()
        assert np.isfinite(grid.true_values).all()


def _finite_bits(rng, size, top):
    """Random finite doubles of either sign from random bit patterns, biased
    exponents in [0, top]: subnormals (and zeros) included."""
    bits = rng.integers(0, 2**52, size, dtype=np.uint64)
    bits |= rng.integers(0, top + 1, size, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
    return bits.view(np.float64)


class TestPowerBits:
    """_pow_or_inf on an array has the bits of Python's v**n with an int
    exponent per entry, inf where that overflows: np.power and x*x differ
    from libm pow in the last ulp on some inputs, and the estimates keep the
    scalar formula's bits."""

    SPECIALS = [0.0, -0.0, 1.0, -1.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5e-308]

    @staticmethod
    def _assert_bits(x, n):
        want = np.array([linalg._pow_or_inf(v, n) for v in x.ravel().tolist()]).reshape(x.shape)
        got = linalg._pow_or_inf(x, n)
        assert got.shape == x.shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_finite_values_without_overflow(self, n):
        # biased exponent 1023 + 250 is about 1.8e75, so x**4 stays finite
        x = _finite_bits(np.random.default_rng(n), 20000, 1023 + 250)
        assert (x < 0).any() and (np.abs(x) < np.finfo(float).tiny).any()
        self._assert_bits(np.concatenate((x, self.SPECIALS)), n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_dimensional(self, n):
        x = _finite_bits(np.random.default_rng(10 + n), 3 * 7, 1023 + 250).reshape(3, 7)
        self._assert_bits(x, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_some_entries_overflow(self, n):
        # any bit pattern: the huge entries overflow and take the fallback,
        # which gives +inf, whatever the sign of the base, there and v**n elsewhere
        x = np.concatenate((_finite_bits(np.random.default_rng(20 + n), 2000, 2046), self.SPECIALS))
        with pytest.raises(OverflowError):
            [v**n for v in x.tolist()]
        self._assert_bits(x, n)
        self._assert_bits(np.array([1e200, 3.0, -1e200, -0.0, np.nan]).reshape(5, 1), n)

    def test_eps_cubed_is_formed_once_per_grid(self, monkeypatch):
        # the three modes' W share one eps^3: one power of the 1,001 eps
        # values, where one per mode took three
        sizes, power = [], linalg._pow_or_inf
        monkeypatch.setattr(linalg, "_pow_or_inf", lambda v, n: sizes.append(np.size(v)) or power(v, n))
        ef._increments(registry("l"), np.linspace(0.0, 1.0, 1001))
        assert sizes.count(1001) == 1
