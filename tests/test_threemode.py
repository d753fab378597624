"""Tests for the cyclic 3-mode model, closed forms, and series blocks."""
import cmath
import itertools
import json
import math
import random
import tracemalloc
import warnings
from fractions import Fraction
from types import MappingProxyType, SimpleNamespace

import mpmath
import numpy as np
import pytest

from oscpert import dyson, eigenfreq as ef, linalg, threemode as tm
from oscpert.benchmarks import registry
from oscpert.errors import DegenerateFrequencies, NonConvergence, NonFiniteResult, OscPertError
from oscpert.threemode import SeriesTruncation, ThreeModeModel

from oracles import (
    RESIDUE_POLES,
    _branch_block_spec,
    _cancel_params,
    cell_column_coefficients,
    lagrange_coefficients,
    loop_hyp_series,
    loop_psi1_infinite,
    loop_series_block,
    neg_binomial,
    path_term,
    residue_order,
    residue_terms,
    van_loan_orders,
)

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


class TestOneCycle:
    """Every table of the cycle 1 -> 2 -> 3 -> 1 reads threemode._UPSTREAM."""

    def test_tables_read_from_the_cycle(self):
        assert [tm._path(n) for n in range(4)] == [[0], [2, 0], [1, 2, 0], [0, 1, 2, 0]]
        assert tm._CANCELS == ({1, 2}, {1}, set())
        assert tm.TARGETS == ("psi1", "psi3", "psi2")
        assert tm._SUBSCRIPT_ROWS == {"psi1": (1, 2, 3), "psi3": (3, 1, 2), "psi2": (2, 3, 1)}
        assert tm.BLOCK_NAMES == ("A1", "A3", "A2", "B1", "B3", "B2", "C1", "C3", "C2")

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_omega_matrix_is_the_perturbed_system(self, mid):
        # bitwise for eps > 0; at eps = 0 full_matrix's couplings are
        # 0 + 0.0 * -a = +0.0, where omega_matrix's -eps * a are -0.0 for a > 0
        m = registry(mid)
        grid = np.linspace(0.0, 1.0, 21)
        stack = tm.omega_matrix(m, grid)
        for eps, mat in zip(grid.tolist(), stack):
            full = tm.perturbed_system(m.at_epsilon(eps)).full_matrix()
            assert not full.imag.any()
            assert np.array_equal(full.real, mat)
            if eps:
                assert full.real.tobytes() == mat.tobytes() == tm.omega_matrix(m, eps).tobytes(), eps


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


    @pytest.mark.parametrize("eps", [0.0, 1.0])
    @pytest.mark.parametrize("a", [(1e200,) * 3, (1e-300, 1e200, 1e200)])
    def test_overflowing_ratios_are_refused(self, a, eps):
        # (1e200,)*3: a1*a2*a3 overflows, so at eps = 1 the ratios are inf and
        # every call refuses them.  (1e-300, 1e200, 1e200): the ratios are
        # finite and xyz returns them; at eps = 1 every cell overflows (|W t|
        # ~ 1e100).  At eps = 0 both are uncoupled: a1*a2*a3*eps**3 and the
        # psi2 lead a2*a3*eps**2 are zero, not inf * 0 = nan, so W = 0 and
        # psi_1 is e^{-i w1 t} psi_1(0)
        m = ThreeModeModel(omega=(1, 2, 3.5), a=a, d=(0, 0, 0), epsilon=eps)
        series = lambda: tm.series_block(m, "A1", 1.0, TIGHT)
        psi1 = lambda: tm.psi1_infinite(m, 1.0, PSI0, TIGHT)
        if a[0] != 1e200:
            got, want = tm.xyz(m), [_branch_block_spec(m, b)["W"] for b in ("A1", "B1", "C1")]
            assert [x.hex() for x in (got.X, got.Y, got.Z)] == [x.hex() for x in want]
        if not eps:
            assert tm.xyz(m) == tm.XYZ(0.0, 0.0, 0.0)
            assert series() == 1 + 0j
            assert psi1() == cmath.exp(-1j) * PSI0[0]
            return
        for call in (series, psi1, *((lambda: tm.xyz(m),) if a[0] == 1e200 else ())):
            with pytest.raises(NonFiniteResult, match="not finite"):
                call()

    @pytest.mark.parametrize("a2, a3", [(1e200, 1e200), (-1e200, 1e200), (1e200, -1e200)])
    def test_an_overflowing_psi2_lead_is_zero_at_eps_zero(self, a2, a3):
        # a2*a3 overflows, yet at eps = 0 the geometry is bitwise that of a
        # model whose a2 and a3 keep their signs and are finite: the psi2 lead
        # is the signed zero a2*a3*0.0 gives, so every block and psi_1 are too
        m = ThreeModeModel(omega=(1, 2, 3.5), a=(1e-300, a2, a3), d=(0, 0, 0), epsilon=0)
        finite = ThreeModeModel(
            omega=m.omega, a=(1e-300, math.copysign(1.0, a2), math.copysign(1.0, a3)), d=m.d, epsilon=0
        )
        geometry = lambda model: [
            x.hex() for W, r1, r2, prefactors in tm._block_geometry(model)[1].values()
            for x in (W, r1, r2, *prefactors)
        ]
        assert geometry(m) == geometry(finite)
        for t in (0.0, 1.0, 7.3, -3.0):
            for block in tm.BLOCK_NAMES:
                assert _bits(tm.series_block(m, block, t, TIGHT)) == _bits(tm.series_block(finite, block, t, TIGHT))
            got = tm.psi1_infinite(m, t, PSI0, TIGHT)
            assert _bits(got) == _bits(tm.psi1_infinite(finite, t, PSI0, TIGHT))
            assert got == cmath.exp(-1j * t) * PSI0[0], t

    @pytest.mark.parametrize("a2, a3", [(1e200, 1e200), (-1e200, 1e200), (1e200, -1e200)])
    def test_hand_table_at_eps_zero_with_an_overflowing_psi2_lead(self, a2, a3):
        # the hand table's psi2 lead is threemode's signed zero too, so the
        # two agree bit for bit where a2*a3 overflows
        m = ThreeModeModel(omega=(1, 2, 3.5), a=(1e-300, a2, a3), d=(0, 0, 0), epsilon=0)
        for t in (0.0, 1.0, -3.0):
            for block in tm.BLOCK_NAMES:
                got = tm.series_block(m, block, t, TIGHT)
                assert _bits(got) == _bits(loop_series_block(m, block, t, TIGHT)), (block, t)

    def test_an_overflowing_prefactor_refuses_only_its_block(self):
        # a3*eps / (w3' - w1') = 2e308: xyz returns the ratios, and of the
        # blocks only A3 and B3, whose prefactor it is, are refused
        m = ThreeModeModel(omega=(1, 0, 1.5), a=(1e-200, 1e-200, 1e308), d=(0, 0, 0), epsilon=1)
        got = tm.xyz(m)
        assert [x.hex() for x in (got.X, got.Y, got.Z)] == ["0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0"]
        for block in tm.BLOCK_NAMES:
            want = loop_series_block(m, block, 1.0, TIGHT)
            if block in ("A3", "B3"):
                with pytest.raises(NonFiniteResult, match=rf"^block {block} at t=1\.0 is not finite"):
                    tm.series_block(m, block, 1.0, TIGHT)
                assert not cmath.isfinite(want)
            else:
                assert tm.series_block(m, block, 1.0, TIGHT) == want
        with pytest.raises(NonFiniteResult, match=r"^block A3 at t=1\.0 is not finite"):
            tm.psi1_infinite(m, 1.0, PSI0, TIGHT)


def _hex(value):
    """The exact bits of a float or complex, or of each in a nested
    collection of them, signed zeros kept."""
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hex(v) for key, v in value.items()}
    return [_hex(v) for v in value]


def _parent_geometry(m):
    """Per family (W, ratio1, ratio2, prefactors) by the formulas that
    preceded _path_coupling's rule for a1 a2 a3 eps^3: W = -(prod(a) eps^3)
    / (d_a d_b), and the hand table of the prefactors of digits 1, 3, 2."""
    w, eps = tm.effective_frequencies(m), m.epsilon
    lead1, lead3, lead2 = 1.0, -m.a[2] * eps, m.a[1] * m.a[2] * eps**2
    families = {}
    for family, (f, a, b) in tm._FAMILIES.items():
        d_a, d_b = w[f] - w[a], w[f] - w[b]
        W = -(math.prod(m.a) * eps**3) / (d_a * d_b)
        prefactors = {
            "A": (lead1, lead3 / d_b, lead2 / (d_a * d_b)),
            "B": (-lead1, lead3 / d_b, lead2 / (d_a * d_b)),
            "C": (-lead1, -lead3 / d_a, lead2 / (d_a * d_b)),
        }[family]
        families[family] = (W, -W / d_b, d_b / d_a, prefactors)
    return families


def _parent_increments(m, which):
    """(base + W, inc1, inc2) of one mode by the estimator formulas that
    preceded the rule: W = (a_i a_j a_k) eps^3 / (q p) on the relabeled model."""
    i, j, k = (r - 1 for r in tm._SUBSCRIPT_ROWS[f"psi{which}"])
    w1, w2, w3 = (m.omega[r] + m.epsilon * m.d[r] for r in (i, j, k))
    p, q = w3 - w1, w1 - w2
    w = (m.a[i] * m.a[j] * m.a[k]) * m.epsilon**3 / (q * p)
    inc2 = (
        2 * w**3 / p**2 - 3 * w**3 / (p * q) + 2 * w**3 / q**2
        + (10.0 / 3.0) * w**4 / p**3 - 10 * w**4 / (p**2 * q)
        + 10 * w**4 / (p * q**2) - (10.0 / 3.0) * w**4 / q**3
    )
    return w1 + w, w**2 / p - w**2 / q, inc2


def _coupling_rule_models():
    """40 seeded models of signed couplings, and the overflow and underflow
    models: a1 a2 a3 = 1e330 overflows, 1e-156 sits far below the
    frequencies, and (1e-200, 1e-200, 1e308) has finite ratios next to an
    overflowing prefactor."""
    rng = np.random.default_rng(36)
    models = [
        ThreeModeModel(omega=rng.uniform(0, 10, 3), a=rng.uniform(-3, 3, 3), d=rng.uniform(-2, 2, 3), epsilon=0.0)
        for _ in range(40)
    ]
    return models + [
        ThreeModeModel(omega=(1, 2, 3.5), a=(1e110,) * 3, d=(0, 0, 0), epsilon=0.0),
        ThreeModeModel(omega=(1, 2, 3.5), a=(1e-52,) * 3, d=(0, 0, 0), epsilon=0.0),
        ThreeModeModel(omega=(1, 0, 1.5), a=(1e-200, 1e-200, 1e308), d=(0, 0, 0), epsilon=0.0),
    ]


class TestOneCouplingRule:
    """_path_coupling forms every product of the a: at eps != 0 its values
    are bitwise the formulas it replaced, and at eps = 0 a product past the
    float range gives the signed zeros of the uncoupled model."""

    def test_bits_of_the_formulas_it_replaced(self):
        eps_values = [0.0, -0.0, 1e-3, 0.25, 0.5, 0.731, 1.0]
        for model in _coupling_rule_models():
            incs, refusals = ef._increments(model, np.array(eps_values))
            for n, eps in enumerate(eps_values):
                m = model.at_epsilon(eps)
                want = _parent_geometry(m)
                if all(math.isfinite(v[0]) for v in want.values()):
                    assert _hex(tm._block_geometry(m)[1]) == _hex(want), (m, eps)
                    assert _hex(vars(tm.xyz(m)).values()) == _hex(v[0] for v in want.values())
                elif eps:  # a1 a2 a3 eps^3 overflows
                    with pytest.raises(NonFiniteResult, match="^coupling ratios are not finite"):
                        tm.xyz(m)
                else:  # inf * 0 before; the uncoupled model's zeros now
                    continue
                for which in (1, 2, 3):
                    want = _parent_increments(m, which)
                    if all(map(math.isfinite, want)):
                        assert _hex(incs[n, which - 1].tolist()) == _hex(want), (m, eps, which)
                        assert _hex(ef.estimate_increments(m, which)) == _hex(want)
                    else:
                        assert isinstance(refusals[n], NonFiniteResult)

    @pytest.mark.parametrize("eps", [0.0, -0.0])
    @pytest.mark.parametrize("a", [(1e200,) * 3, (-1e200, 1e200, 1e200)])
    def test_an_overflowing_cycle_is_uncoupled_at_eps_zero(self, a, eps):
        # every value is bitwise that of the model whose a are +-1 of the
        # same signs, with signed zeros, and is the uncoupled answer
        m = ThreeModeModel(omega=(1, 2, 3.5), a=a, d=(0, 0, 0), epsilon=eps)
        unit = ThreeModeModel(omega=m.omega, a=tuple(math.copysign(1.0, x) for x in a), d=m.d, epsilon=eps)

        def outcomes(model):
            grid = ef.spectral_grid(model, [eps, 0.5, 1.0])
            report = ef.report(model, eps)
            values = [
                vars(tm.xyz(model)).values(),
                *(tm.series_block(model, block, t, TIGHT) for block in tm.BLOCK_NAMES for t in (0.0, 1.0, -3.0)),
                *(tm.psi1_infinite(model, t, PSI0, TIGHT) for t in (0.0, 1.0, -3.0)),
                *(tm.psi1_analytic(model, n, 1.0, PSI0) for n in range(4)),
                *(ef.estimate_increments(model, which) for which in (1, 2, 3)),
                report.true_values, *report.estimates.values(), *report.abs_errors.values(),
            ]
            assert grid.refusals[0] is None
            return _hex(values), [x[0].tobytes() for x in (grid.true_values, grid.estimates, grid.errors, grid.mode_real)]

        assert outcomes(m) == outcomes(unit)
        assert tm.xyz(m) == tm.XYZ(0.0, 0.0, 0.0)
        # the hand table takes the same rule: its W is a signed zero, not nan
        trunc = SeriesTruncation(k_max=4)
        for block in tm.BLOCK_NAMES:
            assert _bits(tm.series_block(m, block, 1.0, trunc)) == _bits(loop_series_block(m, block, 1.0, trunc))
        assert tm.psi1_infinite(m, 1.0, PSI0, TIGHT) == cmath.exp(-1j) * PSI0[0]
        assert ef.report(m, eps).estimates == dict.fromkeys(ef.LEVELS, m.omega)


class TestClosedForms:
    def test_order_zero_at_time_zero(self):
        assert tm.psi1_analytic(registry("m"), 0, 0.0, PSI0) == PSI0[0]

    def test_first_order_vanishes_at_time_zero(self):
        assert abs(tm.psi1_analytic(registry("m"), 1, 0.0, PSI0)) == 0.0

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_every_coupled_order_is_exactly_zero_at_time_zero(self, mid):
        # each first difference is (1 - 1) / gap or -1j * 0 * 1, so every
        # higher one is a difference of zeros
        for n in (1, 2, 3):
            assert tm.psi1_analytic(registry(mid), n, 0.0, PSI0) == 0, n

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

    def test_matches_divided_difference_oracle_on_seeded_models(self):
        # 100 seeded models; where effective frequencies lie close the
        # differences cancel.  The worst relative error measured was 7.9e-13
        # (order 3), as for the former per-order formulas
        rng = np.random.default_rng(2021)
        worst = 0.0
        for _ in range(100):
            m = ThreeModeModel(
                omega=rng.uniform(0, 10, 3), a=rng.uniform(-3, 3, 3), d=rng.uniform(-2, 2, 3), epsilon=rng.uniform()
            )
            t = rng.uniform(0, 20)
            w = tm.effective_frequencies(m)
            for n, component in enumerate((0, 2, 1, 0)):
                e_mu = np.zeros(3)
                e_mu[component] = 1.0
                exact = m.epsilon**n * path_term(w, m.a, n, t)
                worst = max(worst, abs(tm.psi1_analytic(m, n, t, e_mu) - exact) / abs(exact))
        assert worst <= 1e-12

    def test_rejects_high_order(self):
        with pytest.raises(ValueError):
            tm.psi1_analytic(registry("s"), 4, 1.0, PSI0)

    @pytest.mark.parametrize("a, eps, n", [
        ((1e-200, 1e-200, 1e308), 1.0, 1),  # a3 eps (e3 - e1) / (w3' - w1') overflows
        ((1e200,) * 3, 0.5, 2),  # a2 a3 eps^2 overflows
        ((1e200,) * 3, 0.5, 3),
    ])
    def test_non_finite_term_is_refused(self, a, eps, n):
        omega = (1, 0, 1.5) if a[2] == 1e308 else (1, 2, 3.5)
        m = ThreeModeModel(omega=omega, a=a, d=(0, 0, 0), epsilon=eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult, match=rf"^psi_1 term of order {n} at t=7\.3 is not finite"):
                tm.psi1_analytic(m, n, 7.3, PSI0)
            # at eps = 0 an overflowing coupling product is a zero coupling
            assert tm.psi1_analytic(m.at_epsilon(0.0), n, 7.3, PSI0) == 0


class TestNegBinomial:
    """The extended binomial of the hand block table in tests/oracles."""

    def test_reference_values(self):
        assert neg_binomial(-1, 0) == 1
        assert neg_binomial(4, 2) == 6
        for k in range(8):
            assert neg_binomial(-1, k) == (-1) ** k

    def test_zero_regions(self):
        assert neg_binomial(3, 5) == 0
        assert neg_binomial(3, -1) == 0
        assert neg_binomial(-2, -1) == 0  # n < k < 0

    def test_negative_lower_region(self):
        assert neg_binomial(-2, -3) == -2
        assert neg_binomial(-3, -3) == 1

    def test_pascal_rule_across_regions(self):
        for n in range(-6, 6):
            for k in range(-6, 6):
                if (n, k) == (0, 0):
                    continue  # the 0-origin is the convention's split point
                assert neg_binomial(n, k) == neg_binomial(n - 1, k) + neg_binomial(n - 1, k - 1), (n, k)

    def test_non_integral_arguments_are_refused(self):
        for n, k in ((2.5, 1), (2, 0.5)):
            with pytest.raises(ValueError, match="integral n and k"):
                neg_binomial(n, k)


class TestHypergeometric:
    """The 2F2 engine on the columns of the block table: parameters that are
    integers >= 1 and an argument 1j * y."""

    @staticmethod
    def _sums(y, trunc=TIGHT):
        _, upper, lower, _, limit, ratios = tm._cell_table(4, None, tm.MAX_TERMS)
        return upper, lower, tm._hyp_sums(ratios, np.full(upper.shape[1], y), limit, trunc.tail_tol)

    @staticmethod
    def _params(upper, lower, c):
        return ([p for p in x[:, c].tolist() if p == p] for x in (upper, lower))  # no NaN pad

    def test_unit_at_zero(self):
        sums = self._sums(0.0)[2]
        assert sums == [1.0] * len(sums)

    def test_parameter_cancellation_gives_exponential(self):
        # A1's k = 0 cell is 2F2(0, 0; 0, 0; z), whose parameters all cancel
        column = tm._cell_table(4, None, tm.MAX_TERMS)[0]["A1"][0][1][0][2]
        upper, lower, sums = self._sums(-1.1)
        assert list(self._params(upper, lower, column)) == [[], []]
        assert abs(sums[column] - cmath.exp(-1.1j)) <= 1e-12

    def test_against_brute_force(self):
        # mpmath's pFq as the reference; the rounding of a sum is bounded by
        # that of the sum of |terms|, which is the series at |y|
        for y in (-0.5, -10.0):
            upper, lower, sums = self._sums(y)
            for c, got in enumerate(sums):
                up, lo = self._params(upper, lower, c)
                ref = complex(mpmath.hyper(up, lo, 1j * y))
                assert abs(got - ref) <= 1e-13 * float(mpmath.hyper(up, lo, abs(y))), (y, up, lo)

    def test_max_terms_exceeded(self, monkeypatch):
        monkeypatch.setattr(tm, "MAX_TERMS", 5)
        for got in self._sums(40.0, SeriesTruncation(k_max=1, tail_tol=1e-14))[2]:
            assert isinstance(got, NonConvergence)
            assert str(got) == "no convergence within 5 terms"


class TestCellColumnsInClosedForm:
    """Every column of the block table, 2F2, 1F1 or plain exp after its
    equal parameters cancel, sums to e^z times a polynomial whose coefficients
    oracles.cell_column_coefficients gives exactly."""

    @staticmethod
    def _columns():
        _, upper, lower, _, limit, ratios = tm._cell_table(8, None, tm.MAX_TERMS)
        columns = []
        for c in range(upper.shape[1]):
            up, lo = ([p for p in x[:, c].tolist() if p == p] for x in (upper, lower))  # no NaN pad
            columns.append((up, lo, cell_column_coefficients(up, lo)))
        return columns, limit, ratios

    @staticmethod
    def _closed(coeffs, y):
        """e^z * sum_j c_j z^j at z = 1j * y, at the working mpmath precision."""
        z = mpmath.mpc(0, y)
        return mpmath.exp(z) * mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator for c in coeffs[::-1]], z)

    def test_against_mpmath(self):
        columns = self._columns()[0]
        with mpmath.workdps(30):
            for up, lo, coeffs in columns:
                for y in (0.5, 5.0, 20.0):
                    ref = mpmath.hyper(up, lo, mpmath.mpc(0, y))
                    assert abs(self._closed(coeffs, y) - ref) <= 1e-28 * abs(ref), (y, up, lo)

    def test_against_the_term_sums(self):
        columns, limit, ratios = self._columns()
        for y in (-5.0, -0.5, 0.5, 5.0):
            sums = tm._hyp_sums(ratios, np.full(len(columns), y), limit)
            with mpmath.workdps(30):
                for (up, lo, coeffs), got in zip(columns, sums):
                    exact = complex(self._closed(coeffs, y))
                    assert abs(got - exact) <= 1e-13 * abs(exact), (y, up, lo)


RESIDUE_MODELS = [
    registry("s", epsilon=0.5),
    registry("m", epsilon=0.7),
    ThreeModeModel(omega=(1.0, -2.5, 0.75), a=(-1.5, 2.0, 0.5), d=(0.25, -1.0, 3.0), epsilon=0.375),
]


def _exact(m: ThreeModeModel) -> SimpleNamespace:
    """m's fields as the Fractions its floats are exactly.  _block_geometry
    and effective_frequencies read only these fields, with + - * / on them,
    so on this view they return exact values."""
    fields = {name: tuple(map(Fraction, getattr(m, name))) for name in ("omega", "a", "d")}
    return SimpleNamespace(**fields, epsilon=Fraction(m.epsilon))


class TestResidueOracle:
    """The block cells and the closed forms against the exact residues of
    the resolvent that oracles.residue_terms takes by Leibniz's rule."""

    @pytest.mark.parametrize("m", RESIDUE_MODELS, ids=["s", "m", "signed"])
    def test_every_cell_is_its_residue(self, m):
        # cell (k, l) of block <family><digit>, inner term ell, is the
        # residue at the family's pole of order n = k + ell, its ell
        # derivatives on the exponential, l on mode a and the rest on mode b
        exact = _exact(m)
        w, families = tm._block_geometry(exact)
        assert all(isinstance(x, Fraction) for x in w)
        shells, upper, lower, *_ = tm._cell_table(8, None, tm.MAX_TERMS)
        for block in tm.BLOCK_NAMES:
            f, a, b = tm._FAMILIES[block[0]]
            assert f == RESIDUE_POLES[block[0]]
            W, ratio1, ratio2, prefactors = families[block[0]]
            prefactor = Fraction(prefactors["132".index(block[1])])  # 1 / 1 is 1.0
            first = shells[block][0][0]
            got = {}
            for k, cells in shells[block]:
                for l, coeff, column in cells:
                    up, lo = ([int(p) for p in x[:, column].tolist() if p == p] for x in (upper, lower))
                    value = prefactor * ratio1**k * ratio2**l * coeff
                    for ell in range(7):  # value: the cell's z**ell term over (-1j t)**ell
                        key = [0, 0, 0]
                        key[f], key[a], key[b] = ell, l, k - first - l
                        got[k + ell, tuple(key)] = value
                        value *= W * math.prod(u + ell for u in up) / math.prod(v + ell for v in lo) / (ell + 1)
            want = {
                (n, key): c
                for n in range(15)
                for key, c in residue_terms(w, exact.a, exact.epsilon, f, int(block[1]), n).items()
                if key[f] <= 6 and n - key[f] <= 8
            }
            assert got == want, block

    @pytest.mark.parametrize("m", RESIDUE_MODELS, ids=["s", "m", "signed"])
    def test_closed_forms_are_the_residues(self, m):
        exact = _exact(m)
        w = tm.effective_frequencies(exact)
        for n, t in itertools.product(range(4), (0.5, 3.0, 10.0)):
            want = residue_order(w, exact.a, exact.epsilon, n, t, PSI0)
            assert abs(tm.psi1_analytic(m, n, t, PSI0) - want) <= 1e-13 * abs(want), (n, t)


def _series_ratio(num, den) -> tuple[list, int]:
    """num / den as a power series in W from coefficient lists of one
    length, once the powers of W below den's first nonzero coefficient are
    divided out of both (num must have none); returns the series and that
    number of powers."""
    shift = next(i for i, x in enumerate(den) if x)
    assert not any(num[:shift])
    num, den, out = num[shift:], den[shift:], []
    for n in range(len(den)):
        out.append((num[n] - sum(out[j] * den[n - j] for j in range(n))) / den[0])
    return out, shift


def _shift_series(w, f, a, b, n_max) -> list[Fraction]:
    """0, 0, c_2 .. c_n_max: the eigenvalue shift at the pole w[f] less W, as
    oracles.lagrange_coefficients gives it with (p, q) = (-d_b, d_a)."""
    return [0, 0, *lagrange_coefficients(w[b] - w[f], w[f] - w[a], n_max)[1:]]


class TestBlocksAreTheShiftSeries:
    """Block <family><digit> is e^{-iWt} G(t), G a polynomial in t, and as
    k_max grows G tends to a constant times e^{-i(lambda - w_f' - W)t}, with
    lambda the eigenvalue that starts at the family's pole w_f'.  So
    iG'(0)/G(0), a series in W, is the shift lambda - w_f' less W: the
    Lagrange series sum c_n W^n that app0..app2 truncate, less its c_1 W."""

    @pytest.mark.parametrize("m", RESIDUE_MODELS, ids=["s", "m", "signed"])
    def test_residues_give_the_lagrange_series(self, m):
        # G(t) = sum_j g_j (-1j t)^j, so iG'(0)/G(0) = g_1 / g_0; the
        # residue of order n, over W^n, is the W^n coefficient of the block
        # times e^{i w_f' t}, whose t^1 coefficient less W times its t^0 one
        # is g_1's
        exact = _exact(m)
        w, families = tm._block_geometry(exact)
        for block in tm.BLOCK_NAMES:
            (f, a, b), W = tm._FAMILIES[block[0]], families[block[0]][0]
            h0, h1 = ([
                sum((c for key, c in residue_terms(w, exact.a, exact.epsilon, f, int(block[1]), n).items()
                     if key[f] == j), Fraction(0)) / W**n
                for n in range(8)
            ] for j in (0, 1))
            g1 = [x - y for x, y in zip(h1, [0, *h0])]
            got, shift = _series_ratio(g1, h0)
            # B1, C1 and C3 cancel their pole at order 0: G(0) starts at W^1
            assert shift == (block in ("B1", "C1", "C3")), block
            assert got == _shift_series(w, f, a, b, 7 - shift), block

    @pytest.mark.parametrize("m", RESIDUE_MODELS, ids=["s", "m", "signed"])
    def test_k_max_shells_reproduce_the_series_through_w_to_k_max_plus_one(self, m):
        # shell k is W^k times its cells, each e^{-iWt} times a polynomial in
        # z = -1j W t with coefficients c_0 = 1, c_1, ... of
        # oracles.cell_column_coefficients: g_0 holds every c_0 and g_1 every
        # c_1, one power of W up.  The prefactor and sign of a block cancel.
        # iG'(0)/G(0) is exact through W^(k_max + 1 - first), first = 1 for
        # the blocks whose shells start at k = 1, and not one order further
        exact = _exact(m)
        w, _ = tm._block_geometry(exact)
        for k_max in range(1, 5):
            shells, upper, lower, *_ = tm._cell_table(k_max, None, tm.MAX_TERMS)
            for block in tm.BLOCK_NAMES:
                f, a, b = tm._FAMILIES[block[0]]
                d_a, d_b = w[f] - w[a], w[f] - w[b]
                g0, g1 = [Fraction(0)] * (k_max + 4), [Fraction(0)] * (k_max + 4)
                for k, cells in shells[block]:
                    for l, coeff, column in cells:
                        up, lo = ([int(p) for p in x[:, column].tolist() if p == p] for x in (upper, lower))
                        c = cell_column_coefficients(up, lo) + [0]
                        weight = (-1 / d_b) ** k * (d_b / d_a) ** l * coeff  # ratio1**k over W**k
                        g0[k] += weight * c[0]
                        g1[k + 1] += weight * c[1]
                got, first = _series_ratio(g1, g0)
                want = _shift_series(w, f, a, b, k_max + 2)
                assert first == shells[block][0][0], block
                assert got[: k_max + 2 - first] == want[: k_max + 2 - first], (k_max, block)
                assert got[k_max + 2 - first] != want[k_max + 2 - first], (k_max, block)


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

    @pytest.mark.parametrize("t", [1.0, 5.0, 20.0])
    @pytest.mark.parametrize("mid", ["small", "moderate"])
    def test_each_order_is_one_expansion_term(self, mid, t):
        # the block table one order at a time: raising order_cap from n-1 to n
        # adds exactly eps^n psi_n(t)[0]; k_max=7 holds every order <= 21.
        # The gap is rounding of the two sums, so it is bounded against them:
        # at t=1 the high orders fall below that rounding
        m = registry(mid)
        trunc = SeriesTruncation(k_max=7)
        orders = van_loan_orders(tm.perturbed_system(m), 21, t, PSI0)
        sums = [tm.psi1_infinite(m, t, PSI0, trunc, order_cap=n) for n in range(22)]
        for n in range(1, 22):
            gap = sums[n] - sums[n - 1] - m.epsilon**n * orders[n][0]
            assert abs(gap) <= 1e-13 * max(abs(sums[n]), abs(sums[n - 1])), n

    def test_a1_against_its_former_closure(self):
        # A1's k = l = 0 cell is 2F2(0, 0; 0, 0; z) = e^z, summed term by term
        # like every cell; the reference swaps it back for 1 plus the closure
        # exp(z) - 1, or its Taylor polynomial through order_cap // 3
        def closed(m, t, trunc, order_cap=None):
            z = -1j * tm.xyz(m).X * t
            max_ell = None if order_cap is None else order_cap // 3
            total = loop_series_block(m, "A1", t, trunc, order_cap=order_cap)
            total -= loop_hyp_series([], [], z, trunc, max_ell=max_ell)
            if order_cap is None:
                return total + 1.0 + (cmath.exp(z) - 1.0)
            closure, zpow = 0.0 + 0.0j, 1.0 + 0.0j
            for power in range(1, max_ell + 1):
                zpow *= z / power
                closure += zpow
            return total + 1.0 + closure

        trunc = SeriesTruncation(k_max=4, tail_tol=1e-12)
        rng = random.Random(19)
        small = registry("small")
        for t in [0.0, 200.0] + [rng.uniform(0.0, 200.0) for _ in range(20)]:
            want = closed(small, t, trunc)
            assert abs(tm.series_block(small, "A1", t, trunc) - want) <= 1e-10 * abs(want), t
        grid = itertools.product(("s", "m", "l"), (0, 3, 9, 30), (0.0, 0.25, 0.5, 1.0))
        for mid, order_cap, t in grid:
            m = registry(mid)
            want = closed(m, t, trunc, order_cap)
            got = tm.series_block(m, "A1", t, trunc, order_cap=order_cap)
            assert abs(got - want) <= 4 * 2.0**-52 * max(abs(want), 1.0), (mid, order_cap, t)

    def test_truncation_not_converged_surfaces(self):
        with pytest.raises(NonConvergence, match=r"^block A1: shell k=4 still contributes "):
            tm.series_block(
                registry("l"), "A1", 1.0, SeriesTruncation(k_max=4, tail_tol=1e-10), shell_tol=1e-6
            )


def _bits(value: complex) -> tuple[str, str]:
    return value.real.hex(), value.imag.hex()


def _outcome(fn, *args, **kwargs):
    """("value", exact bits of the result), or the refusal's type and message."""
    try:
        value = complex(fn(*args, **kwargs))
    except (OscPertError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return ("value",) + _bits(value)


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
        assert kinds == {"value", "ValueError", "DegenerateFrequencies", "NonConvergence"}

    def test_every_cell_has_a_coefficient_and_positive_parameters(self):
        # the hand table sums every cell: none has a zero binomial product,
        # and no 2F2 parameter left after cancellation is zero or negative
        for name in tm.BLOCK_NAMES:
            spec = _branch_block_spec(registry("s"), name)
            for k in range(spec["k_start"], 61):
                for l in range(k - spec["k_start"] + 1):
                    (n1, k1), (n2, k2) = spec["binoms"](k, l)
                    assert neg_binomial(n1, k1) * neg_binomial(n2, k2) != 0, (name, k, l)
                    uppers, lowers = _cancel_params(*spec["hyp"](k, l))
                    assert all(p > 0 for p in uppers + lowers), (name, k, l, uppers, lowers)

    def test_cell_weights_bitwise(self):
        # the residue rule's weight of every cell up to k_max=8 is the hand
        # table's signed one, bit for bit: each sign it moves into a ratio
        # or prefactor is an exact negation
        shells = tm._cell_table(8, None, tm.MAX_TERMS)[0]
        for m in _differential_models()[:-1]:
            _, families = tm._block_geometry(m)
            for name in tm.BLOCK_NAMES:
                spec = _branch_block_spec(m, name)
                _, ratio1, ratio2, prefactors = families[name[0]]
                prefactor = prefactors["132".index(name[1])]
                cells = [(k, l, coeff) for k, row in shells[name] for l, coeff, _ in row]
                assert [(k, l) for k, l, _ in cells] == [
                    (k, l) for k in range(spec["k_start"], 9) for l in range(k - spec["k_start"] + 1)
                ], name
                for k, l, coeff in cells:
                    (n1, k1), (n2, k2) = spec["binoms"](k, l)
                    want = (
                        spec["sign"](k, l) * spec["prefactor"] * spec["ratio1"] ** k
                        * spec["ratio2"] ** l * (neg_binomial(n1, k1) * neg_binomial(n2, k2))
                    )
                    got = prefactor * ratio1**k * ratio2**l * coeff
                    assert got.hex() == want.hex(), (m, name, k, l)

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


class TestArrayRecurrence:
    """The array recurrence over all cells of a call against the scalar loop
    over the terms of each 2F2 (tests/oracles.py), bit for bit."""

    def test_resum_band(self):
        # the resum benchmark's band: `small`, t in [0, 200]
        m = registry("small")
        rng = random.Random(2026)
        times = [0.0, 200.0] + [rng.uniform(0.0, 200.0) for _ in range(10)]
        for t, k_max in itertools.product(times, range(1, 7)):
            trunc = SeriesTruncation(k_max=k_max, tail_tol=1e-12)
            got = _outcome(tm.psi1_infinite, m, t, PSI0, trunc)
            assert got[0] == "value"
            assert got == _outcome(loop_psi1_infinite, m, t, PSI0, trunc), (t, k_max)

    def test_refusals_keep_their_order(self, monkeypatch):
        # at t=100 on `small`, 40 terms sum every A and B cell but no C cell,
        # 30 terms no A or C cell; shell_tol=1e-30 fails every block's last shell
        m = registry("small")
        trunc = SeriesTruncation(k_max=2, tail_tol=1e-12)
        kinds = set()
        for cap, shell_tol in itertools.product((30, 40, 500), (None, 1e-30)):
            monkeypatch.setattr(tm, "MAX_TERMS", cap)
            for name in tm.BLOCK_NAMES:
                got = _outcome(tm.series_block, m, name, 100.0, trunc, shell_tol=shell_tol)
                assert got == _outcome(loop_series_block, m, name, 100.0, trunc, shell_tol=shell_tol)
            got = _outcome(tm.psi1_infinite, m, 100.0, PSI0, trunc, shell_tol=shell_tol)
            assert got == _outcome(loop_psi1_infinite, m, 100.0, PSI0, trunc, shell_tol=shell_tol)
            kinds.add((cap, shell_tol, got[0], got[1][:8]))
        # an earlier block's shell refusal beats a later cell's term cap, and
        # an earlier cell's term cap beats its block's shell check
        assert (40, None, "NonConvergence", "no conve") in kinds
        assert (40, 1e-30, "NonConvergence", "block A1") in kinds
        assert (30, 1e-30, "NonConvergence", "no conve") in kinds

    def test_forced_cap_is_refused_like_the_loop(self, monkeypatch):
        monkeypatch.setattr(tm, "MAX_TERMS", 5)
        trunc = SeriesTruncation(k_max=3, tail_tol=1e-14)
        for m, t in ((registry("s"), 7.3), (registry("small"), 150.0), (registry("l"), 0.25)):
            got = _outcome(tm.psi1_infinite, m, t, PSI0, trunc)
            assert got[:2] == ("NonConvergence", "no convergence within 5 terms")
            assert got == _outcome(loop_psi1_infinite, m, t, PSI0, trunc)

    def test_magnitude_overflow_is_a_typed_refusal(self):
        # a made-up 0F1 column, lower parameter b and z = 1j: term l is
        # 1j**l / (b)_l.  At b = 5.8e-309 terms 1 and 2 are 1.72e308j and
        # -0.86e308, both finite, but |partial sum 2| overflows
        ratios = tm._term_ratios(np.empty((0, 1)), np.array([[5.8e-309]]), np.arange(500))
        (got,) = tm._hyp_sums(ratios, np.array([1.0]), np.array([500]), 1e-12)
        assert isinstance(got, NonFiniteResult)
        assert str(got) == "|term 2| or |partial sum| overflows from finite parts"
        with pytest.raises(NonFiniteResult, match=r"^\|term 2\| or \|partial sum\| overflows"):
            loop_hyp_series([], [5.8e-309], 1j, SeriesTruncation())

    def test_term_cap_allocates_nothing_in_proportion(self, monkeypatch):
        # at t=150 on `small` every series ends within 64 terms, so the cap
        # moves no value; a call then allocates nothing per term of the cap
        m = registry("small")
        trunc = SeriesTruncation(k_max=4, tail_tol=1e-12)
        peaks, values = [], []
        for cap in (64, 500):
            monkeypatch.setattr(tm, "MAX_TERMS", cap)
            tm.psi1_infinite(m, 150.0, PSI0, trunc)  # builds the cell table
            tracemalloc.start()
            values.append(tm.psi1_infinite(m, 150.0, PSI0, trunc))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert values[0] == values[1]
        assert peaks[1] <= peaks[0] + 200_000, peaks


class TestRatioMemo:
    """The block table's term ratios: built once per table, for every term
    up to its largest limit, and kept as read-only data for its life."""

    @pytest.mark.parametrize("times", [(800.0, 0.0, 1.0, 25.0, 200.0), (200.0, 25.0, 1.0, 0.0, 800.0)])
    def test_chunk_boundaries_on_a_cold_memo(self, times):
        m = registry("small")
        tm._cell_table.cache_clear()
        for k_max, order_cap, t in itertools.product((1, 4, 7), (None, 9, 30), times):
            trunc = SeriesTruncation(k_max=k_max, tail_tol=1e-12)
            got = _outcome(tm.psi1_infinite, m, t, PSI0, trunc, order_cap=order_cap)
            want = _outcome(loop_psi1_infinite, m, t, PSI0, trunc, order_cap=order_cap)
            assert got == want, (k_max, order_cap, t)

    def test_table_is_read_only_term_ratios_by_chunk(self):
        for k_max, order_cap in ((4, None), (7, None), (3, 9), (5, 30)):
            table = tm._cell_table(k_max, order_cap, tm.MAX_TERMS)
            shells, upper, lower, family, limit, ratios = table
            assert not any(isinstance(part, dict) for part in table)
            assert isinstance(shells, MappingProxyType)
            assert all(isinstance(rows, tuple) and all(isinstance(row, tuple) for _, row in rows)
                       for rows in shells.values())
            for array in (upper, lower, family, limit, ratios):
                assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                ratios[0, 0] = 1.0
            assert ratios.shape == (limit.max(), upper.shape[1])
            for start in range(0, len(ratios), tm._CHUNK):
                chunk = tm._term_ratios(upper, lower, np.arange(start, start + tm._CHUNK))
                assert ratios[start : start + tm._CHUNK].tobytes() == chunk[: len(ratios) - start].tobytes()

    def test_no_extra_chunk_steps(self, monkeypatch):
        # every array step of _hyp_sums slices one chunk of the ratio table;
        # A1's e^z cell is the column of A3's and A2's, so it adds none.
        # 129 is the count before that cell joined the table
        class Counting(np.ndarray):
            reads = 0

            def __getitem__(self, index):
                Counting.reads += isinstance(index, slice)
                return super().__getitem__(index)

        *table, ratios = tm._cell_table(4, None, tm.MAX_TERMS)
        table = (*table, ratios.view(Counting))
        monkeypatch.setattr(tm, "_cell_table", lambda k_max, order_cap, max_terms: table)
        m = registry("small")
        trunc = SeriesTruncation(k_max=4, tail_tol=1e-12)
        for i in range(64):
            tm.psi1_infinite(m, 200.0 * (i + 0.5) / 64, PSI0, trunc)
        assert 0 < Counting.reads <= 129

    def test_ratio_rows_are_built_once_per_table(self, monkeypatch):
        builds = []
        build = tm._term_ratios

        def counted(upper, lower, ell):
            builds.append(len(ell))
            return build(upper, lower, ell)

        monkeypatch.setattr(tm, "_term_ratios", counted)
        m = registry("small")
        trunc = SeriesTruncation(k_max=4, tail_tol=1e-12)
        tm._cell_table.cache_clear()
        tm.psi1_infinite(m, 150.0, PSI0, trunc)
        assert builds == [tm.MAX_TERMS]
        for t in (150.0, 25.0, 800.0):
            tm.psi1_infinite(m, t, PSI0, trunc)
            tm.series_block(m, "C2", t, trunc)
        assert builds == [tm.MAX_TERMS]


def _series(k_max, order_cap):
    """Per block, the (k, l) cells of the table with each cell's sorted
    parameters left by _cancel_params, family and term limit, rebuilt from
    the hand table of tests/oracles."""
    blocks = {}
    for name in tm.BLOCK_NAMES:
        spec = _branch_block_spec(registry("s"), name)
        first, offset = spec["k_start"], "132".index(name[1])
        cells = blocks[name] = []
        for k in range(first, k_max + 1):
            limit = tm.MAX_TERMS if order_cap is None else (order_cap - offset - 3 * k) // 3
            if order_cap is not None and limit < 0:
                continue
            for l in range(k - first + 1):
                params = _cancel_params(*spec["hyp"](k, l))
                cells.append(((k, l), (*map(sorted, params), "ABC".index(name[0]), limit)))
    return blocks


class TestDistinctSeries:
    """The block table sums each distinct series once: cells with the same
    parameters left after cancellation (as a multiset), family and term
    limit read one column."""

    @pytest.mark.parametrize("order_cap", [None, 9, 30])
    @pytest.mark.parametrize("k_max", range(1, 8))
    def test_each_cell_reads_its_own_series(self, k_max, order_cap):
        shells, upper, lower, family, limit, _ = tm._cell_table(k_max, order_cap, tm.MAX_TERMS)
        columns = []
        for c in range(upper.shape[1]):
            up, lo = ([p for p in x[:, c].tolist() if p == p] for x in (upper, lower))  # no NaN pad
            columns.append((up, lo, int(family[c]), int(limit[c])))
        assert len(set(map(repr, columns))) == len(columns)  # no two columns alike
        read = set()
        for name, cells in _series(k_max, order_cap).items():
            table = [((k, l), c) for k, row in shells[name] for l, _, c in row]
            assert [kl for kl, _ in table] == [kl for kl, _ in cells], name
            for ((k, l), c), (_, want) in zip(table, cells):
                assert columns[c] == want, (name, k, l)
                read.add(c)
        assert read == set(range(len(columns)))  # every column is some cell's

    @pytest.mark.parametrize(
        "k_max, order_cap, cells, columns", [(4, None, 120, 53), (3, 9, 55, 28), (7, None, 300, 137)]
    )
    def test_column_counts(self, k_max, order_cap, cells, columns):
        shells, upper, *_ = tm._cell_table(k_max, order_cap, tm.MAX_TERMS)
        assert sum(len(row) for rows in shells.values() for _, row in rows) == cells
        assert upper.shape[1] == columns

    def test_memo_chunks_hold_one_column_per_series(self):
        for k_max, order_cap, columns in ((4, None, 53), (3, 9, 28), (7, None, 137)):
            ratios = tm._cell_table(k_max, order_cap, tm.MAX_TERMS)[-1]
            assert ratios.shape[1] == columns

    def test_a_shared_series_refuses_like_each_of_its_cells(self, monkeypatch):
        # at t=25 on `small` a cap of 20 terms stops the e^z series that A1,
        # A3 and A2 open with, and some C cells, but sums every B cell: each
        # block and psi_1 refuse, or sum, as the loop over their own cells does
        monkeypatch.setattr(tm, "MAX_TERMS", 20)
        m = registry("small")
        trunc = SeriesTruncation(k_max=4, tail_tol=1e-12)
        with pytest.raises(NonConvergence):
            loop_hyp_series([], [], -1j * tm.xyz(m).X * 25.0, trunc)
        got = {name: _outcome(tm.series_block, m, name, 25.0, trunc) for name in tm.BLOCK_NAMES}
        for name in tm.BLOCK_NAMES:
            assert got[name] == _outcome(loop_series_block, m, name, 25.0, trunc), name
        psi1 = _outcome(tm.psi1_infinite, m, 25.0, PSI0, trunc)
        assert psi1 == _outcome(loop_psi1_infinite, m, 25.0, PSI0, trunc)
        assert psi1[0] == "NonConvergence" and psi1 == got["A1"] == got["A3"] == got["A2"]
        assert {got[name][0] for name in ("B1", "B3", "B2")} == {"value"}


class TestRefusedInputs:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t(self, t):
        m = registry("small")
        for order_cap in (None, 9):
            with pytest.raises(ValueError, match="t must be finite"):
                tm.psi1_infinite(m, t, PSI0, TIGHT, order_cap=order_cap)
            with pytest.raises(ValueError, match="t must be finite"):
                tm.series_block(m, "C2", t, TIGHT, order_cap=order_cap)
        with pytest.raises(ValueError, match="t must be finite"):
            tm.psi1_analytic(m, 3, t, PSI0)

    @pytest.mark.parametrize("t", [1e150, 1e200])
    def test_non_finite_order_capped_total(self, t):
        # a term of one of A1's cells overflows: term 3 at t=1e150, term 2 at
        # t=1e200 (test_non_finite_cell_and_block_total pins the messages)
        m = registry("small")
        trunc = SeriesTruncation(k_max=3)
        with pytest.raises(NonFiniteResult, match="not finite"):
            tm.series_block(m, "A1", t, trunc, order_cap=9)
        with pytest.raises(NonFiniteResult, match="not finite"):
            tm.psi1_infinite(m, t, PSI0, trunc, order_cap=9)

    def test_non_finite_cell_and_block_total(self):
        # a cell refuses at its first term that is not finite; with couplings
        # of 10**50.5 every cell is finite at t=1e-200, but A3's weights,
        # ratio1**k up to about 6e301, overflow its total
        with pytest.raises(NonFiniteResult, match=r"^\|term 2\| or \|partial sum\| is not finite$"):
            tm.series_block(registry("small"), "A1", 1e200, SeriesTruncation(k_max=3), order_cap=9)
        m = ThreeModeModel(omega=(3.0, 2.0, 1.0), a=(10**50.5,) * 3, d=(0.0, 0.0, 0.0), epsilon=1.0)
        for order_cap in (None, 9):
            with pytest.raises(NonFiniteResult, match=r"^block A3 at t=1e-200 is not finite"):
                tm.series_block(m, "A3", 1e-200, SeriesTruncation(k_max=2), order_cap=order_cap)

    def test_overflowing_ratio_power(self):
        # X = -5e299 is finite, but ratio1**2 of every family overflows a
        # float: the weight is inf and the block total is not finite
        m = ThreeModeModel(omega=(3, 2, 1), a=(1e100,) * 3, d=(0, 0, 0), epsilon=1)
        trunc = SeriesTruncation(k_max=2)
        for block in tm.BLOCK_NAMES:
            with pytest.raises(NonFiniteResult, match=rf"^block {block} at t=1e-300 is not finite"):
                tm.series_block(m, block, 1e-300, trunc)
        with pytest.raises(NonFiniteResult, match=r"^block A1 at t=1e-300 is not finite"):
            tm.psi1_infinite(m, 1e-300, PSI0, trunc)

    def test_an_overflowing_power_keeps_its_sign(self):
        # an odd power of a negative ratio is -inf, as libm's pow gives it
        assert linalg._pow_or_inf(-1e200, 3) == -math.inf
        assert linalg._pow_or_inf(-1e200, 2) == linalg._pow_or_inf(1e200, 3) == math.inf
        assert linalg._pow_or_inf(-2.0, 3) == -8.0

    def test_bad_input_is_read_before_the_model(self):
        # each model alone is refused: two frequencies meet, or a1 a2 a3
        # overflows; a bad argument is the ValueError first
        degenerate = ThreeModeModel(omega=(1, 1, 2), a=(1, 1, 1), d=(0, 0, 0), epsilon=0.5)
        huge = ThreeModeModel(omega=(3, 2, 1), a=(1e200,) * 3, d=(0, 0, 0), epsilon=1)
        trunc = SeriesTruncation()
        with pytest.raises(DegenerateFrequencies):
            tm.psi1_infinite(degenerate, 1.0, PSI0, trunc)
        with pytest.raises(NonFiniteResult):
            tm.psi1_infinite(huge, 1.0, PSI0, trunc)
        blocks, psi1 = (tm.series_block, loop_series_block), (tm.psi1_infinite, loop_psi1_infinite)
        for fns, args, kwargs, message in [
            (blocks, ("D1", 1.0), {}, "^unknown block 'D1'"),
            (blocks, ("A1", math.inf), {}, "^t must be finite$"),
            (blocks, ("A1", 1.0), {"order_cap": 2.5}, "^order_cap must be an integer"),
            (blocks, ("A1", 1.0), {"order_cap": 1503}, r"^order_cap must be <= 1502 \(MAX_TERMS=500\), got 1503$"),
            (blocks, ("A1", 1.0), {"shell_tol": -1.0}, "^shell_tol must be finite"),
            (psi1, (math.inf, PSI0), {}, "^t must be finite$"),
            (psi1, (1.0, PSI0), {"order_cap": 2.5}, "^order_cap must be an integer"),
            (psi1, (1.0, PSI0), {"shell_tol": math.nan}, "^shell_tol must be finite"),
            (psi1, (1.0, PSI0[:2]), {}, "^psi0 has length 2"),
        ]:
            for fn, m in itertools.product(fns, (degenerate, huge)):  # the loop oracle too
                with pytest.raises(ValueError, match=message):
                    fn(m, *args, trunc, **kwargs)

    def test_an_order_cap_past_the_term_cap_builds_no_table(self, monkeypatch):
        # A1's k = 0 cell sums order_cap // 3 terms: past MAX_TERMS (read at
        # call time) that is a ValueError, raised before any table is built
        monkeypatch.setattr(tm, "MAX_TERMS", 5)
        m = registry("small")
        built = tm._cell_table.cache_info().misses
        for fn in (tm.series_block, loop_series_block):
            with pytest.raises(ValueError, match=r"^order_cap must be <= 17 \(MAX_TERMS=5\), got 18$"):
                fn(m, "A1", 1.0, TIGHT, order_cap=18)
        with pytest.raises(ValueError, match=r"^order_cap must be <= 17 \(MAX_TERMS=5\), got 30000$"):
            tm.psi1_infinite(m, 1.0, PSI0, TIGHT, order_cap=30000)
        assert tm._cell_table.cache_info().misses == built
        assert tm.series_block(m, "A1", 1.0, TIGHT, order_cap=17) == loop_series_block(
            m, "A1", 1.0, TIGHT, order_cap=17
        )

    def test_non_finite_assembly(self):
        # at t=1e100 every block is finite; psi0 = 1e20 e1 overflows the sum
        m = registry("small")
        trunc = SeriesTruncation(k_max=3)
        got = tm.psi1_infinite(m, 1e100, [1.0, 0.0, 0.0], trunc, order_cap=9)
        assert cmath.isfinite(got) and abs(got) > 1e295
        with pytest.raises(NonFiniteResult, match=r"^psi_1 at t=1e\+100 is not finite"):
            tm.psi1_infinite(m, 1e100, [1e20, 0.0, 0.0], trunc, order_cap=9)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_overflowing_phase_of_a_closed_form(self, n):
        # w' * t overflows to inf, and exp(-1j * inf) has no value
        with pytest.raises(NonFiniteResult, match=r"^a phase w \* t overflows at t=1e\+308$"):
            tm.psi1_analytic(registry("s"), n, 1e308, [1, 1, 1])

    def test_overflowing_phase_of_the_resummation(self):
        # a1 a2 a3 = 1e-312 keeps every |W t| small: all nine blocks converge,
        # and only the phases w' * t overflow
        m = ThreeModeModel(omega=(9, 6, 0), a=(1e-104,) * 3, d=(0, 0, 0), epsilon=1)
        tm.series_block(m, "A1", 1e308, SeriesTruncation())
        with pytest.raises(NonFiniteResult, match=r"^a phase w \* t overflows at t=1e\+308$"):
            tm.psi1_infinite(m, 1e308, [1, 1, 1], SeriesTruncation())

    def test_negative_t_is_allowed(self):
        m = registry("small")
        got = tm.psi1_infinite(m, -3.0, PSI0, TIGHT)
        assert _outcome(tm.psi1_infinite, m, -3.0, PSI0, TIGHT) == _outcome(
            loop_psi1_infinite, m, -3.0, PSI0, TIGHT
        )
        exact = linalg.matrix_exponential_apply(tm.omega_matrix(m), -3.0, PSI0)[0]
        assert abs(got - exact) <= 5e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k_max=2.5),
            dict(k_max=0),
            dict(k_max=True),
            dict(k_max="4"),
            dict(tail_tol=math.inf),
            dict(tail_tol=math.nan),
            dict(tail_tol=0.0),
            dict(tail_tol=-1e-12),
            dict(tail_tol="1e-12"),
            dict(tail_tol=True),
        ],
    )
    def test_bad_truncation(self, kwargs):
        with pytest.raises(ValueError):
            SeriesTruncation(**kwargs)

    def test_numpy_scalars_are_accepted(self):
        trunc = SeriesTruncation(k_max=np.int64(3), tail_tol=np.float64(1e-12))
        assert tm.psi1_infinite(registry("s"), 0.5, PSI0, trunc) == tm.psi1_infinite(
            registry("s"), 0.5, PSI0, SeriesTruncation(k_max=3, tail_tol=1e-12)
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

    def test_epsilon_is_stored_as_a_float(self):
        # a float32 epsilon is the float model of the same value, bit for bit
        narrow = registry("s", epsilon=np.float32(0.3))
        wide = registry("s", epsilon=float(np.float32(0.3)))
        assert type(narrow.epsilon) is float and narrow == wide
        assert tm.xyz(narrow) == tm.xyz(wide)
        trunc = SeriesTruncation(k_max=4)
        assert _bits(tm.psi1_infinite(narrow, 1.0, [1, 0, 0], trunc)) == _bits(
            tm.psi1_infinite(wide, 1.0, [1, 0, 0], trunc)
        )
        assert ThreeModeModel.from_json_dict(json.loads(json.dumps(narrow.to_json_dict()))) == wide

    @pytest.mark.parametrize("eps", ["0.5", True, None, 0.5j])
    def test_epsilon_must_be_a_real_number(self, eps):
        for make in (lambda: registry("s", epsilon=eps), lambda: registry("s").at_epsilon(eps)):
            with pytest.raises(ValueError, match="epsilon must be a real number"):
                make()

    @pytest.mark.parametrize("entry", ["9", True, np.True_, None, 0.5j, [1.0]])
    @pytest.mark.parametrize("name", ["omega", "a", "d"])
    def test_entries_must_be_real_numbers(self, name, entry):
        fields = {"omega": [9, 6, 0], "a": [1, 2, 1], "d": [0.5, 0.2, 0.1]}
        fields[name][1] = entry
        with pytest.raises(ValueError, match=f"^{name} must be a sequence of real numbers"):
            ThreeModeModel(epsilon=0.5, **fields)
        with pytest.raises(ValueError, match=f"^{name} must be a sequence of real numbers"):
            ThreeModeModel.from_json_dict(fields)

    def test_numpy_and_integer_entries_are_accepted(self):
        m = ThreeModeModel(
            omega=[np.float64(9.0), np.int64(6), 0],
            a=(np.float32(1.0), 2, np.int32(1)),
            d=np.array([0.5, 0.2, 0.1]),
            epsilon=0.5,
        )
        assert all(type(x) is float for x in m.omega + m.a + m.d)
        assert m == ThreeModeModel(omega=(9.0, 6.0, 0.0), a=(1.0, 2.0, 1.0), d=(0.5, 0.2, 0.1), epsilon=0.5)
