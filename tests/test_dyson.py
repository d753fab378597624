"""Tests for the order-by-order expansion engine."""
import os
import sys as _sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oscpert import cli, dyson, linalg, threemode
from oscpert.benchmarks import registry
from oscpert.dyson import PerturbedSystem
from oscpert.errors import NonFiniteResult
from oscpert.threemode import ThreeModeModel

from oracles import (
    loop_convergence_residuals,
    loop_partial_sum,
    loop_rotating_orders,
    loop_term,
    path_term,
    van_loan_orders,
)
from test_graph import _run_apart

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
            omegaI=threemode.perturbed_system(m).omegaI,
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
        with pytest.raises(ValueError, match=r"^steps=39 too coarse for order 4; need >= 40$"):
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
        with pytest.raises(ValueError, match=r"^steps=39 too coarse for order 4; need >= 40$"):
            dyson.terms(small_system(), 4, 1.0, PSI0, steps=39)

    @pytest.mark.parametrize("mid", ["small", "moderate"])
    def test_match_block_exponential(self, mid):
        sys = threemode.perturbed_system(registry(mid))
        exact = van_loan_orders(sys, 6, 0.7, PSI0)
        for got, want in zip(dyson.terms(sys, 6, 0.7, PSI0, steps=4000), exact):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _bytes_or_refusal(call):
    try:
        return call().tobytes()
    except NonFiniteResult as exc:
        return repr(exc)


class TestAgainstPerOrderLoop:
    """The one-pass path reproduces the per-order loop oracle bit for bit."""

    MAX_ORDER = 6

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 7.3, 800.0])
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
            # at t=800 the exact reference of m and l overflows: both refuse alike
            got = _bytes_or_refusal(lambda: dyson.convergence_report(
                sys, t, PSI0, orders=orders, eps_grid=[0.0, 0.3, 1.0], steps=steps
            ).residuals)
            expected = _bytes_or_refusal(lambda: loop_convergence_residuals(
                sys, t, PSI0, tuple(orders), (0.0, 0.3, 1.0), steps
            ))
            assert got == expected

    @pytest.mark.parametrize(
        "order, t, steps",
        [(-1, 1.0, 100), (2, -0.5, 100), (2, float("nan"), 100),
         (2, float("inf"), 100), (4, 1.0, 39)],
    )
    def test_same_refusals(self, order, t, steps):
        sys = small_system()
        with pytest.raises(ValueError) as expected:
            loop_term(sys, order, t, PSI0, steps)

        def report(sys, order, t, psi0, steps):
            return dyson.convergence_report(
                sys, t, psi0, orders=(0, order), eps_grid=[0.5], steps=steps
            )

        for call in (dyson.terms, dyson.term, dyson.partial_sum, report):
            with pytest.raises(expected.type) as got:
                call(sys, order, t, PSI0, steps)
            assert str(got.value) == str(expected.value)


def _random_system(rng, dim, complex_coupling):
    coupling = rng.normal(size=(dim, dim))
    if complex_coupling:
        coupling = coupling + 1j * rng.normal(size=(dim, dim))
    omega0 = tuple(rng.uniform(-6.0, 6.0, dim))
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PerturbedSystem(omega0=omega0, omegaI=coupling, epsilon=0.7), psi0


class TestTwoBufferKernel:
    """The (modes, nodes) kernel against the per-order loop oracle."""

    def _assert_bitwise(self, sys, max_order, t, psi0, steps):
        coeffs = dyson.terms(sys, max_order, t, psi0, steps)
        for order, coeff in enumerate(coeffs):
            assert _same_bits(coeff, loop_term(sys, order, t, psi0, steps))
        assert _same_bits(
            dyson.partial_sum(sys, max_order, t, psi0, steps),
            loop_partial_sum(sys, max_order, t, psi0, steps),
        )

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_random_real_couplings_bitwise(self, dim):
        rng = np.random.default_rng(100 + dim)
        for max_order, t, steps in ((1, 0.3, 10), (4, 1.7, 40), (6, 0.9, 75)):
            sys, psi0 = _random_system(rng, dim, complex_coupling=False)
            self._assert_bitwise(sys, max_order, t, psi0, steps)

    @pytest.mark.parametrize("mid", ["s", "m", "l"])
    def test_verify_shapes_bitwise(self, mid):
        for eps in (0.3, 1.0):
            sys = threemode.perturbed_system(registry(mid).at_epsilon(eps))
            cases = [(9, t, 4000) for t in (0.25, 0.5, 1.0)] + [(3, t, 2000) for t in (0.5, 1.0)]
            for max_order, t, steps in cases:
                self._assert_bitwise(sys, max_order, t, cli.PSI0, steps)

    def test_real_coupling_held_as_complex_takes_the_real_path(self, monkeypatch):
        products = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            products.append((a.dtype, b.dtype))
            return matmul(a, b, **kwargs)

        rng = np.random.default_rng(300)
        real = rng.normal(size=(3, 3))
        negative_zero_imag = real.astype(complex)
        negative_zero_imag.imag = -0.0
        cases = [(real.astype(complex), np.float64), (negative_zero_imag, np.float64),
                 (real + 1j * rng.normal(size=(3, 3)), np.complex128)]
        for coupling, dtype in cases:
            sys = PerturbedSystem(omega0=(2.0, -1.5, 0.7), omegaI=coupling, epsilon=0.6)
            with monkeypatch.context() as patch:
                patch.setattr(np, "matmul", spy)
                dyson.terms(sys, 5, 1.3, PSI0, 60)
            assert products == [(dtype, dtype)] * 5
            products.clear()
            if dtype is np.float64:
                self._assert_bitwise(sys, 5, 1.3, PSI0, 60)

    @pytest.mark.parametrize("sys", [
        threemode.perturbed_system(ThreeModeModel((9.0, 6.0, 0.0), a, (1.5, 1.6, 0.025), eps))
        for a, eps in [((1.0, 2.0, 0.0), 0.0), ((1.0, 2.0, 0.0), 0.3), ((1.0, 2.0, 0.0), 1.0),
                       ((1.0, 0.0, 1.0), 0.0), ((0.0, 0.0, 0.0), 0.5)]
    ] + [
        PerturbedSystem(omega0=(-4.0, 2.5, 0.0), epsilon=0.7,
                        omegaI=[[0.0, 0.0, 0.0], [1.2, 0.0, -0.7], [0.4, -1.1, 0.0]]),
        PerturbedSystem(omega0=(-4.0, 0.0), epsilon=0.7, omegaI=[[-1.3, 0.6], [0.0, -0.0]]),
    ], ids=["a3=0 eps=0", "a3=0 eps=0.3", "a3=0 eps=1", "a2=0 eps=0", "a=0", "row0=0 w<0", "row1=0 w=0"])
    def test_zero_coupling_row_bitwise_signed_zeros_included(self, sys):
        # a zero row of WI makes that mode's integrand exact zeros, whose signs
        # the rotation sets node by node; a scaling of the float view would
        # turn some +0 parts of the rotating-frame values into -0
        real_psi0 = np.array([0.7, -0.4, 0.2, 0.9][: sys.dim], complex)
        unit = np.eye(sys.dim, dtype=complex)[0]
        for psi0 in (PSI0[: sys.dim], real_psi0, unit):
            for max_order, t, steps in ((1, 0.05, 10), (4, 0.1, 40), (6, 1.7, 60), (3, 0.9, 2000)):
                rotating = dyson._rotating_orders(sys, max_order, t, psi0, steps)
                expected = loop_rotating_orders(sys, max_order, t, psi0, steps)
                assert [a.tobytes() for a in rotating] == [b.tobytes() for b in expected]
                self._assert_bitwise(sys, max_order, t, psi0, steps)

    @pytest.mark.parametrize("mid", ["s", "m", "l", "random"])
    def test_coarsest_grid_bitwise(self, mid):
        rng = np.random.default_rng(500)
        for order in range(1, 10):
            if mid == "random":
                sys, psi0 = _random_system(rng, 4, complex_coupling=False)
            else:
                sys, psi0 = threemode.perturbed_system(registry(mid)), PSI0
            self._assert_bitwise(sys, order, 0.8, psi0, 10 * order)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_complex_couplings_within_an_ulp(self, dim):
        # the matrix product rounds in another operand layout; measured
        # worst relative deviation over such draws: 8.4e-16
        rng = np.random.default_rng(200 + dim)
        for _ in range(3):
            sys, psi0 = _random_system(rng, dim, complex_coupling=True)
            coeffs = dyson.terms(sys, 6, 1.1, psi0, 90)
            for order, coeff in enumerate(coeffs):
                expected = loop_term(sys, order, 1.1, psi0, 90)
                assert np.max(np.abs(coeff - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_peak_memory_does_not_grow_with_order(self):
        sys = small_system()
        peaks = []
        for order in (1, 9):
            dyson.terms(sys, order, 1.0, cli.PSI0, 4000)
            tracemalloc.start()
            dyson.terms(sys, order, 1.0, cli.PSI0, 4000)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks


def _verify_shape_results():
    """terms and partial_sum bytes at every shape verify --depth full builds."""
    out = []
    for mid in ("s", "m", "l"):
        for eps in (0.3, 1.0):
            sys = threemode.perturbed_system(registry(mid).at_epsilon(eps))
            for max_order, t, steps in [(9, t, 4000) for t in (0.25, 0.5, 1.0)] + [
                (3, t, 2000) for t in (0.5, 1.0)
            ]:
                out += [c.tobytes() for c in dyson.terms(sys, max_order, t, cli.PSI0, steps)]
                out.append(dyson.partial_sum(sys, max_order, t, cli.PSI0, steps).tobytes())
    return out


class TestScratch:
    """Each build works in one buffer of its own, freed on return."""

    def test_results_keep_their_bytes_after_later_builds(self):
        sys = small_system()
        coeffs = dyson.terms(sys, 3, 0.5, PSI0, 100)
        total = dyson.partial_sum(sys, 3, 0.5, PSI0, 100)
        saved = [a.tobytes() for a in coeffs + [total]]
        later = dyson.terms(sys, 9, 0.7, PSI0, 2000) + dyson.terms(sys, 3, 0.5, PSI0, 100)
        later.append(dyson.partial_sum(sys, 3, 0.5, PSI0, 100))
        assert [a.tobytes() for a in coeffs + [total]] == saved
        assert not any(np.shares_memory(a, b) for a in coeffs + [total] for b in later)

    def test_a_build_holds_no_memory_after_return(self):
        # 5 planes of 3 x 40001 complex nodes: 9.6 MB while the build runs
        tracemalloc.start()
        try:
            coeffs = dyson.terms(small_system(), 9, 1.0, PSI0, 20000)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak >= 9_000_000 and current <= 100_000, (current, peak)
        assert len(coeffs) == 10

    def test_refused_build_leaves_no_trace(self):
        # the refused build leaves non-finite values in a block of the same
        # size as the next build's, which malloc may hand out again
        sys = threemode.perturbed_system(registry("s").at_epsilon(1.0))
        with pytest.raises(NonFiniteResult):
            dyson.terms(small_system(), 9, 1e200, PSI0, 4000)
        coeffs = dyson.terms(sys, 9, 1.0, cli.PSI0, 4000)
        for order, coeff in enumerate(coeffs):
            assert _same_bits(coeff, loop_term(sys, order, 1.0, cli.PSI0, 4000))

    def test_two_threads_match_a_serial_run(self):
        serial = _verify_shape_results()
        start = threading.Barrier(2, timeout=30)

        def worker():
            start.wait()
            return _verify_shape_results()

        interval = _sys.getswitchinterval()
        _sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as executor:
                futures = [executor.submit(worker) for _ in range(2)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            _sys.setswitchinterval(interval)
        assert results == [serial, serial]

    def test_repeated_builds_fault_in_no_pages(self):
        # freshly allocated buffers cost ~2,500 page faults over these 5 calls;
        # the first freed buffer raises glibc's mmap threshold, so the second
        # build grows the heap once: warm up with two
        resource = pytest.importorskip("resource")
        sys = small_system()
        for _ in range(2):
            dyson.terms(sys, 9, 1.0, PSI0, 4000)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            dyson.terms(sys, 9, 1.0, PSI0, 4000)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 100


class TestRefusals:
    def _calls(self):
        def report(sys, order, t, psi0, steps):
            return dyson.convergence_report(
                sys, t, psi0, orders=(0, order), eps_grid=[0.5], steps=steps
            )

        return (dyson.terms, dyson.term, dyson.partial_sum, report)

    @pytest.mark.parametrize("order", [0, 2])
    def test_negative_steps(self, order):
        for call in self._calls():
            with pytest.raises(ValueError, match=r"^steps must be >= 0$"):
                call(small_system(), order, 1.0, PSI0, -3)

    @pytest.mark.parametrize(
        "order, steps, name",
        [(1, 100.0, "steps"), (2, 50.0, "steps"), (1.5, 100, "order"), (True, 100, "order"),
         (2, True, "steps"), (2.7, 100, "order"), (np.float64(2.0), 100, "order")],
    )
    def test_non_integer_order_or_steps(self, order, steps, name):
        for call in self._calls():
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
                call(small_system(), order, 1.0, PSI0, steps)

    def test_non_finite_coefficient_names_first_order(self):
        # |psi_1| ~ 1e200 is finite, psi_2 overflows; the build warns nothing
        for call in (dyson.terms, dyson.term, self._calls()[-1]):
            with pytest.raises(NonFiniteResult, match=r"^order 2 is not finite at t=1e\+200$"):
                call(small_system(), 2, 1e200, PSI0, 20)
        with pytest.raises(NonFiniteResult, match="partial sum through order 2"):
            dyson.partial_sum(small_system(), 2, 1e200, PSI0, 20)

    def test_non_finite_phase_is_order_zero(self):
        # omega0 * t overflows to inf, so exp(-i W0 t) is NaN
        with pytest.raises(NonFiniteResult, match="^order 0 "):
            dyson.terms(small_system(), 0, 1e308, PSI0, 0)
        with pytest.raises(NonFiniteResult, match="partial sum through order 0"):
            dyson.partial_sum(small_system(), 0, 1e308, PSI0, 0)


class TestPartialSum:
    def test_k0_equals_term0(self):
        sys = small_system()
        assert np.array_equal(
            dyson.partial_sum(sys, 0, 1.2, PSI0, 100), dyson.term(sys, 0, 1.2, PSI0, 100)
        )

    @pytest.mark.parametrize("order, t", [(2, 0.0), (0, 0.0), (0, 1.3)])
    def test_psi0_alone_keeps_its_signed_zeros(self, order, t):
        # at order 0 or t = 0 the sum is exp(-i W0 t) psi0 itself, so a -0
        # part of psi0 stays -0 wherever the phase keeps it, as in the oracle
        sys = threemode.perturbed_system(registry("s", epsilon=0.5))
        psi0 = np.array([complex(-0.0, -0.0), complex(0.3, -0.0), complex(-0.0, 0.2)])
        got = dyson.partial_sum(sys, order, t, psi0, 100)
        assert got.tobytes() == loop_partial_sum(sys, order, t, psi0, 100).tobytes()

    def test_epsilon_zero_is_unperturbed(self):
        sys = PerturbedSystem(
            omega0=(9.0, 6.0, 0.0),
            omegaI=threemode.perturbed_system(registry("s")).omegaI,
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


# s, m and l at 19 eps in [0.05, 0.95], orders 3, 6 and 9, t = 1 and 200 steps
POWER_CORPUS = [
    (mid, eps, order)
    for mid in "sml" for eps in np.linspace(0.05, 0.95, 19).tolist() for order in (3, 6, 9)
]


def _power_corpus_sums(fn=dyson.partial_sum):
    """The bytes of fn's partial sum on each row of POWER_CORPUS."""
    return [
        fn(threemode.perturbed_system(registry(mid, epsilon=eps)), order, 1.0, cli.PSI0, 200).tobytes()
        for mid, eps, order in POWER_CORPUS
    ]


def _avx512_dispatch_targets():
    """The AVX-512 entries of numpy's runtime dispatch list (X86_V4 is the
    AVX-512 level, as numpy 2.4 names it)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return [name for name in __cpu_dispatch__ if "AVX512" in name or name == "X86_V4"]


class TestOnePowerRule:
    """partial_sum weights the orders by libm pow, as linalg._pow_or_inf
    forms every integer power: numpy's AVX-512 np.power differs from libm's
    in the last ulp on some eps, so weights taken from it would make
    partial_sum's bytes depend on the CPU."""

    def test_weights_are_pythons_powers(self):
        got, want = _power_corpus_sums(), _power_corpus_sums(loop_partial_sum)
        assert sum(a != b for a, b in zip(got, want)) == 0

    def test_bytes_do_not_follow_avx512_dispatch(self, monkeypatch):
        targets = _avx512_dispatch_targets()
        if not targets:
            pytest.skip("numpy dispatches to no AVX-512 target")
        # on top of what this process runs without, so only AVX-512 differs
        already = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
        monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", " ".join(dict.fromkeys(already + targets)))
        proc = _run_apart("-c", "import test_dyson; print(*(b.hex() for b in test_dyson._power_corpus_sums()))")
        assert proc.returncode == 0, proc.stderr
        apart = [bytes.fromhex(row) for row in proc.stdout.split()]
        got = _power_corpus_sums()
        assert len(apart) == len(got) and sum(a != b for a, b in zip(got, apart)) == 0


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
            dyson.convergence_report(small_system(), 1.0, PSI0, orders=(), eps_grid=[0.5], steps=100)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            dyson.convergence_report(
                small_system(), 1.0, PSI0, orders=(-1, 2), eps_grid=[0.5], steps=100
            )

    @pytest.mark.parametrize("entry", [2.7, True, "2"])
    def test_every_order_entry_must_be_an_integer(self, entry):
        with pytest.raises(ValueError, match=r"^order must be an integer, got "):
            dyson.convergence_report(
                small_system(), 1.0, PSI0, orders=(0, entry, 4), eps_grid=[0.5], steps=100
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
        with pytest.raises(ValueError, match="^omega0 contains non-finite entries$"):
            PerturbedSystem(omega0=(1.0, float("nan")), omegaI=np.zeros((2, 2)), epsilon=0.5)

    def test_epsilon_is_stored_as_a_float(self):
        sys = PerturbedSystem(omega0=(1.0, 2.0), omegaI=np.ones((2, 2)), epsilon=np.float32(0.3))
        assert type(sys.epsilon) is float and sys.epsilon == float(np.float32(0.3))
        for eps in ("0.5", True):
            with pytest.raises(ValueError, match="epsilon must be a real number"):
                PerturbedSystem(omega0=(1.0, 2.0), omegaI=np.ones((2, 2)), epsilon=eps)

    def test_full_matrix(self):
        sys = small_system()
        full = sys.full_matrix()
        assert np.allclose(full, threemode.omega_matrix(registry("s")), atol=1e-14)
