"""Tests for the cyclic 3-mode model, closed forms, and series blocks."""
import cmath
import itertools
import random

import numpy as np
import pytest

from oscpert import dyson, linalg, threemode as tm
from oscpert.benchmarks import registry
from oscpert.errors import (
    DegenerateFrequencies,
    InvalidLowerParameter,
    MaxTermsExceeded,
    OscPertError,
    TruncationNotConverged,
)
from oscpert.threemode import SeriesTruncation, ThreeModeModel

from oracles import brute_force_pfq, loop_psi1_infinite, loop_series_block, path_term

PSI0 = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.5 - 0.3j])
TIGHT = SeriesTruncation(k_max=4, tail_tol=1e-13)


class TestEffectiveFrequencies:
    def test_uncoupled_limit(self):
        assert tm.effective_frequencies(registry("m").at_epsilon(0.0)) == (9.0, 6.0, 0.0)

    def test_full_coupling(self):
        w = tm.effective_frequencies(registry("m"))
        assert np.allclose(w, (12.3, 6.0 + 4.0 / 41.0, 16.0 / 15.0), atol=1e-14)

    def test_no_shift_without_d(self):
        m = ThreeModeModel(omega=(5.0, 3.0, 1.0), a=(1.0, 1.0, 1.0), d=(0.0, 0.0, 0.0), epsilon=0.8)
        assert tm.effective_frequencies(m) == (5.0, 3.0, 1.0)

    def test_degenerate_refused(self):
        m = ThreeModeModel(omega=(5.0, 5.0, 1.0), a=(1.0, 1.0, 1.0), d=(0.0, 0.0, 0.0), epsilon=0.0)
        with pytest.raises(DegenerateFrequencies):
            tm.effective_frequencies(m)


class TestXYZ:
    @pytest.mark.parametrize(
        "mid,expected",
        [
            ("m", (1.148, 1.416, 2.564)),
            ("s", (0.066, 0.025, 0.091)),
            ("l", (6.462, 3.111, 9.573)),
        ],
    )
    def test_reference_values(self, mid, expected):
        r = tm.xyz(registry(mid))
        for got, want in zip((abs(r.X), abs(r.Y), abs(r.Z)), expected):
            assert abs(got - want) <= 5e-4

    def test_zero_at_epsilon_zero(self):
        r = tm.xyz(registry("m").at_epsilon(0.0))
        assert (r.X, r.Y, r.Z) == (0.0, 0.0, 0.0)

    def test_cross_identity(self):
        m = registry("m").at_epsilon(0.63)
        w1, w2, w3 = tm.effective_frequencies(m)
        r = tm.xyz(m)
        target = m.a[0] * m.a[1] * m.a[2] * m.epsilon**3
        for value in (
            r.X * (w1 - w2) * (w3 - w1),
            r.Y * (w2 - w3) * (w3 - w1),
            r.Z * (w1 - w2) * (w2 - w3),
        ):
            assert abs(value - target) <= 1e-10 * abs(target)


class TestClosedForms:
    def test_order_zero_at_time_zero(self):
        assert tm.psi1_analytic(registry("m"), 0, 0.0, PSI0) == PSI0[0]

    def test_first_order_vanishes_at_time_zero(self):
        assert abs(tm.psi1_analytic(registry("m"), 1, 0.0, PSI0)) == 0.0

    def test_initial_component_routing(self):
        # order n multiplies psi_1, psi_3, psi_2, psi_1 for n = 0..3
        m = registry("s")
        e1, e2, e3 = np.eye(3)
        assert tm.psi1_analytic(m, 1, 0.5, e1) == 0.0
        assert tm.psi1_analytic(m, 1, 0.5, e3) != 0.0
        assert tm.psi1_analytic(m, 2, 0.5, e2) != 0.0
        assert tm.psi1_analytic(m, 2, 0.5, e3) == 0.0
        assert tm.psi1_analytic(m, 3, 0.5, e1) != 0.0

    @pytest.mark.parametrize("mid", ["m", "s"])
    @pytest.mark.parametrize("eps", [0.2, 1.0])
    def test_matches_quadrature_grid(self, mid, eps):
        m = registry(mid).at_epsilon(eps)
        sys = tm.perturbed_system(m)
        for n in range(4):
            for t in (0.1, 0.7, 1.4, 2.0):
                closed = tm.psi1_analytic(m, n, t, PSI0)
                quad = (eps**n) * dyson.term(sys, n, t, PSI0, steps=2000)[0]
                assert abs(closed - quad) <= 1e-7 * max(abs(closed), 1e-12)

    def test_matches_divided_difference_oracle(self):
        m = registry("m").at_epsilon(0.85)
        w = tm.effective_frequencies(m)
        components = {0: 0, 1: 2, 2: 1, 3: 0}
        for n in range(4):
            e_mu = np.zeros(3)
            e_mu[components[n]] = 1.0
            closed = tm.psi1_analytic(m, n, 1.1, e_mu)
            exact = (0.85**n) * path_term(w, m.a, n, 1.1)
            assert abs(closed - exact) <= 1e-12 * max(abs(exact), 1e-12)

    def test_rejects_high_order(self):
        with pytest.raises(ValueError):
            tm.psi1_analytic(registry("s"), 4, 1.0, PSI0)


class TestNegBinomial:
    def test_reference_values(self):
        assert tm.neg_binomial(-1, 0) == 1
        assert tm.neg_binomial(4, 2) == 6
        for k in range(8):
            assert tm.neg_binomial(-1, k) == (-1) ** k

    def test_zero_regions(self):
        assert tm.neg_binomial(3, 5) == 0
        assert tm.neg_binomial(3, -1) == 0
        assert tm.neg_binomial(-2, -1) == 0  # n < k < 0

    def test_negative_lower_region(self):
        assert tm.neg_binomial(-2, -3) == -2
        assert tm.neg_binomial(-3, -3) == 1

    def test_pascal_rule_across_regions(self):
        for n in range(-6, 6):
            for k in range(-6, 6):
                if (n, k) == (0, 0):
                    continue  # the 0-origin is the convention's split point
                assert tm.neg_binomial(n, k) == tm.neg_binomial(n - 1, k) + tm.neg_binomial(n - 1, k - 1), (n, k)


class TestHypergeometric:
    def test_unit_at_zero(self):
        assert tm.hyp_pfq([2.0, 3.0], [1.5, 1.5], 0.0, TIGHT) == 1.0

    def test_parameter_cancellation_gives_exponential(self):
        z = 0.4 - 1.1j
        assert abs(tm.hyp_pfq([2.5], [2.5], z, TIGHT) - cmath.exp(z)) <= 1e-12
        assert abs(tm.hyp_pfq([2.0, 3.5], [3.5, 2.0], z, TIGHT) - cmath.exp(z)) <= 1e-12

    def test_zero_upper_terminates(self):
        assert tm.hyp_pfq([0.0], [3.0], 2.0, TIGHT) == 1.0

    def test_against_brute_force(self):
        z = -0.5j
        got = tm.hyp_pfq([2.0, 2.0], [1.0, 1.0], z, TIGHT)
        ref = brute_force_pfq([2, 2], [1, 1], z)
        assert abs(got - ref) <= 1e-12

    def test_negative_lower_parameter_rejected(self):
        with pytest.raises(InvalidLowerParameter):
            tm.hyp_pfq([1.0], [-2.0], 0.3, TIGHT)

    def test_terminating_before_bad_lower_is_fine(self):
        # upper -2 stops the series at l = 2, before lower -4 hits zero
        got = tm.hyp_pfq([-2.0], [-4.0], 1.0, TIGHT)
        assert abs(got - (1.0 + 0.5 + 1.0 / 12.0)) <= 1e-14

    def test_max_terms_exceeded(self):
        small = SeriesTruncation(k_max=1, tail_tol=1e-14, max_terms_per_hyp=5)
        with pytest.raises(MaxTermsExceeded) as excinfo:
            tm.hyp_pfq([2.0], [1.0], 40.0 + 0.0j, small)
        assert excinfo.value.partial != 0


class TestSeriesBlocks:
    def test_a1_is_one_without_coupling(self):
        m = registry("s").at_epsilon(0.0)
        assert tm.series_block(m, "A1", 1.3, TIGHT) == 1.0

    def test_a3_vanishes_without_a3(self):
        m = ThreeModeModel(omega=(9.0, 6.0, 0.0), a=(1.0, 2.0, 0.0), d=(0.5, 0.2, 0.1), epsilon=1.0)
        assert tm.series_block(m, "A3", 0.9, TIGHT) == 0.0

    def test_unknown_block_rejected(self):
        with pytest.raises(ValueError):
            tm.series_block(registry("s"), "D1", 1.0, TIGHT)

    def test_recombination_at_time_zero(self):
        m = registry("s")
        blocks = {name: tm.series_block(m, name, 0.0, TIGHT) for name in tm.BLOCK_NAMES}
        assert abs(blocks["A1"] + blocks["B1"] + blocks["C1"] - 1.0) <= 1e-10
        assert abs(blocks["A3"] + blocks["B3"] + blocks["C3"]) <= 1e-10
        assert abs(blocks["A2"] + blocks["B2"] + blocks["C2"]) <= 1e-10

    def test_order_capped_blocks_match_quadrature(self):
        m = registry("s")
        sys = tm.perturbed_system(m)
        trunc = SeriesTruncation(k_max=3, tail_tol=1e-12)
        for t in (0.25, 0.5, 1.0):
            blocks = tm.psi1_infinite(m, t, PSI0, trunc, order_cap=9)
            quad = dyson.partial_sum(sys, 9, t, PSI0, steps=4000)[0]
            assert abs(blocks - quad) <= 1e-5

    def test_truncation_not_converged_surfaces(self):
        with pytest.raises(TruncationNotConverged):
            tm.series_block(
                registry("l"), "A1", 1.0, SeriesTruncation(k_max=4, tail_tol=1e-10), shell_tol=1e-6
            )


def _outcome(fn, *args, **kwargs):
    """("value", exact bits of the result), or the refusal's type and message."""
    try:
        value = complex(fn(*args, **kwargs))
    except (OscPertError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "value", value.real.hex(), value.imag.hex()


def _differential_models():
    rng = random.Random(20211)
    models = [registry(mid) for mid in ("s", "m", "l")]
    for _ in range(20):
        models.append(
            ThreeModeModel(
                omega=[rng.uniform(-10.0, 10.0) for _ in range(3)],
                a=[rng.uniform(-6.0, 6.0) for _ in range(3)],
                d=[rng.uniform(-4.0, 4.0) for _ in range(3)],
                epsilon=rng.random(),
            )
        )
    degenerate = ThreeModeModel(omega=(5.0, 5.0, 1.0), a=(1.0, 1.0, 1.0), d=(0.0, 0.0, 0.0), epsilon=0.0)
    return models + [degenerate]


class TestBlockTableAgainstBranches:
    """The block table reproduces the per-block if chain it replaced, bit for bit."""

    def test_blocks_and_psi1_infinite_bitwise(self):
        kinds = set()
        for m in _differential_models():
            for t, k_max, order_cap, shell_tol in itertools.product(
                (0.0, 0.25, 7.3), (1, 4), (None, 9), (None, 1e-6)
            ):
                trunc = SeriesTruncation(k_max=k_max, tail_tol=1e-12)
                kwargs = dict(shell_tol=shell_tol, order_cap=order_cap)
                for name in tm.BLOCK_NAMES + ("D1",):
                    got = _outcome(tm.series_block, m, name, t, trunc, **kwargs)
                    want = _outcome(loop_series_block, m, name, t, trunc, **kwargs)
                    assert got == want, (m, name, t, k_max, order_cap, shell_tol)
                    kinds.add(got[0])
                got = _outcome(tm.psi1_infinite, m, t, PSI0, trunc, **kwargs)
                want = _outcome(loop_psi1_infinite, m, t, PSI0, trunc, **kwargs)
                assert got == want, (m, t, k_max, order_cap, shell_tol)
        # the grid reaches values and each of these refusals
        assert kinds == {"value", "ValueError", "DegenerateFrequencies", "TruncationNotConverged"}

    def test_xyz_keeps_its_operation_order(self):
        for m in _differential_models()[:-1]:
            r = tm.xyz(m)
            w1, w2, w3 = tm.effective_frequencies(m)
            num = m.a[0] * m.a[1] * m.a[2] * m.epsilon**3
            assert (r.X, r.Y, r.Z) == (
                num / ((w1 - w2) * (w3 - w1)),
                num / ((w2 - w3) * (w3 - w1)),
                num / ((w1 - w2) * (w2 - w3)),
            )


class TestPsi1Infinite:
    def test_uncoupled_is_single_phase(self):
        m = registry("s").at_epsilon(0.0)
        got = tm.psi1_infinite(m, 1.2, [1.0, 0.0, 0.0], TIGHT)
        assert abs(got - cmath.exp(-1j * 9.0 * 1.2)) <= 1e-14

    def test_matches_propagator(self):
        m = registry("s")
        full = tm.omega_matrix(m)
        psi0 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        for t in (0.3, 1.0):
            exact = linalg.matrix_exponential_apply(full, t, psi0)[0]
            got = tm.psi1_infinite(m, t, psi0, TIGHT)
            assert abs(got - exact) <= 5e-4

    def test_initial_condition_identity(self):
        # every shell cancels independently at t=0, so the identity holds at
        # rounding level for any k_max, divergent models included
        for mid in ("s", "m", "l"):
            got = tm.psi1_infinite(registry(mid), 0.0, PSI0, TIGHT)
            assert abs(got - PSI0[0]) <= 10 * TIGHT.tail_tol


class TestCyclicView:
    def test_identity_target(self):
        m = registry("m")
        view, mapping = tm.cyclic_view(m, "psi1")
        assert view == m and mapping == (1, 2, 3)

    def test_psi3_row(self):
        m = registry("m")
        view, mapping = tm.cyclic_view(m, "psi3")
        assert mapping == (3, 1, 2)
        assert view.omega == (m.omega[2], m.omega[0], m.omega[1])
        assert view.a == (m.a[2], m.a[0], m.a[1])
        assert view.d == (m.d[2], m.d[0], m.d[1])

    def test_ratio_relabeling(self):
        m = registry("m").at_epsilon(0.77)
        base = tm.xyz(m)
        view3, _ = tm.cyclic_view(m, "psi3")
        view2, _ = tm.cyclic_view(m, "psi2")
        assert abs(tm.xyz(view3).X - base.Y) <= 1e-14
        assert abs(tm.xyz(view2).X - base.Z) <= 1e-14

    def test_bad_target(self):
        with pytest.raises(ValueError):
            tm.cyclic_view(registry("m"), "psi4")


class TestModelValidation:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            ThreeModeModel(omega=(1.0, 2.0, 3.0), a=(1.0, 1.0, 1.0), d=(0.0, 0.0, 0.0), epsilon=1.2)

    def test_json_round_trip(self):
        m = registry("s").at_epsilon(0.4)
        again = ThreeModeModel.from_json_dict(m.to_json_dict())
        assert again == m
