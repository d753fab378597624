"""Tests for graph construction, certificates, and Laplacian decomposition."""
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oscpert import graph, linalg
from oscpert.errors import InvalidDecomposition, NonFiniteResult, NotSymmetrizable

from oracles import (
    loop_certificate, loop_check_one_way, loop_edges, loop_laplacian, loop_pairwise_split,
)

FIG1_L = np.array([[3.0, -2.0, -1.0], [-3.0, 6.0, -3.0], [-4.0, -2.0, 6.0]])
FIG1_LI = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])
FIG1_L0 = np.array([[2.0, -1.0, -1.0], [-3.0, 5.0, -2.0], [-3.0, -2.0, 5.0]])

FIG1_GRAPH = graph.WeightedDigraph(
    n=3,
    edges=((0, 1, 2.0), (0, 2, 1.0), (1, 0, 3.0), (1, 2, 3.0), (2, 0, 4.0), (2, 1, 2.0)),
)


class TestWeightedDigraph:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            graph.WeightedDigraph(n=2, edges=((0, 0, 1.0),))  # self-loop
        with pytest.raises(ValueError):
            graph.WeightedDigraph(n=2, edges=((0, 1, -1.0),))  # weight <= 0
        with pytest.raises(ValueError):
            graph.WeightedDigraph(n=2, edges=((0, 1, 1.0), (0, 1, 2.0)))  # dup
        with pytest.raises(ValueError):
            graph.WeightedDigraph(n=2, edges=((0, 5, 1.0),))  # out of range

    def test_infinite_weight_names_the_edge(self):
        with pytest.raises(ValueError, match=r"^edge \(0,1\) has infinite weight$"):
            graph.WeightedDigraph.from_json('{"n": 2, "edges": [[1, 0, 2.0], [0, 1, 1e999]]}')

    def test_json_round_trip(self):
        edges = [[int(s), int(d), w] for s, d, w in FIG1_GRAPH.edges.tolist()]
        g = graph.WeightedDigraph.from_json(json.dumps({"n": 3, "edges": edges}))
        assert g.n == FIG1_GRAPH.n == 3
        assert g.edges.tolist() == FIG1_GRAPH.edges.tolist() == [
            [0, 1, 2.0], [0, 2, 1.0], [1, 0, 3.0], [1, 2, 3.0], [2, 0, 4.0], [2, 1, 2.0]
        ]

    def test_edges_are_read_only(self):
        with pytest.raises(ValueError):
            FIG1_GRAPH.edges[0, 2] = 5.0

    def test_whole_number_nodes(self):
        # a str is never parsed as a number: see test_numbers.py
        g = graph.WeightedDigraph(n=2.0, edges=((0, 1.0, 2.5),))
        assert g.n == 2 and g.edges.tolist() == [[0.0, 1.0, 2.5]]
        assert graph.WeightedDigraph(n=np.int64(3), edges=()).n == 3
        for n, edges in ((2.7, ()), (2, ((0, 1.9, 1.0),)), (3, ((0, 1, 1.0), (0.5, 2, 1.0)))):
            with pytest.raises(ValueError, match="must be whole numbers"):
                graph.WeightedDigraph(n=n, edges=edges)


class TestEdgesAgainstLoop:
    """The array edge checks refuse what the per-edge loop refuses, first error first."""

    def test_same_refusal_and_message(self):
        rng = np.random.default_rng(909)
        seen = set()
        for _ in range(1500):
            n = int(rng.integers(2, 7))
            edges = [
                [i, j, float(rng.uniform(0.1, 3.0))]
                for i in range(n) for j in range(n) if i != j and rng.random() < 0.5
            ]
            rng.shuffle(edges)
            for _ in range(int(rng.integers(0, 4))):  # faults anywhere in the list
                i = int(rng.integers(n))
                j = (i + int(rng.integers(1, n))) % n
                fault = int(rng.integers(4))
                if fault == 0:
                    k = int(rng.choice([-1, n, n + 3]))
                    bad = [[i, k, 1.0], [k, i, 1.0], [k, k, 1.0]][int(rng.integers(3))]
                elif fault == 1:
                    bad = [i, i, 1.0]
                elif fault == 2 and edges:
                    bad = [*edges[int(rng.integers(len(edges)))][:2], 2.0]
                else:
                    bad = [i, j, float(rng.choice([0.0, -0.0, -1.5, np.nan]))]
                edges.insert(int(rng.integers(len(edges) + 1)), bad)
            want = _outcome(lambda: [list(e) for e in loop_edges(n, edges)])
            got = _outcome(lambda: graph.WeightedDigraph(n=n, edges=edges).edges.tolist())
            assert got == want, edges
            kinds = ("out of range", "self-loop", "duplicate", "non-positive")
            seen.add(next(k for k in kinds if k in want[1]) if isinstance(want, tuple) else "ok")
        assert seen == {"ok", "out of range", "self-loop", "duplicate", "non-positive"}


class TestLaplacian:
    def test_single_edge(self):
        g = graph.WeightedDigraph(n=2, edges=((0, 1, 2.0),))
        assert np.array_equal(graph.laplacian(g), [[2.0, -2.0], [0.0, 0.0]])

    def test_worked_example(self):
        assert np.array_equal(graph.laplacian(FIG1_GRAPH), FIG1_L)

    def test_empty_graph(self):
        g = graph.WeightedDigraph(n=3, edges=())
        lap = graph.laplacian(g)
        assert np.array_equal(lap, np.zeros((3, 3)))
        assert not np.signbit(lap).any()  # a node without out-edges has +0.0 on the diagonal

    def test_overflowing_out_weight_sum_is_refused(self):
        g = graph.WeightedDigraph(n=3, edges=((0, 1, 1.0), (1, 0, 1e308), (1, 2, 1e308)))
        with pytest.raises(ValueError, match="node 1 sum past the largest float"):
            graph.laplacian(g)

    def test_diagonal_is_negated_offdiagonal_sum(self):
        g = graph.WeightedDigraph(
            n=4, edges=((0, 1, 0.1), (0, 2, 0.2), (1, 3, 0.7), (3, 0, 1.9))
        )
        lap = graph.laplacian(g)
        for i in range(4):
            off = lap[i].copy()
            off[i] = 0.0
            assert lap[i, i] == -off.sum()  # bitwise construction identity
        assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12 * np.abs(lap).max()


def _chain(n, forward, back):
    """Laplacian of an n-node path: weight forward on i -> i+1, back on i+1 -> i."""
    lap = np.zeros((n, n))
    for i in range(n - 1):
        lap[i, i + 1], lap[i + 1, i] = -forward, -back
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def _run_apart(*args: str) -> subprocess.CompletedProcess:
    """Run python with args in a fresh process under a time limit, so that a
    search that never ends fails the test instead of hanging the suite."""
    paths = (Path(graph.__file__).resolve().parents[1], Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env
    )


class TestCertificate:
    def test_worked_example_balance_vector(self):
        m = graph.symmetrizability_certificate(FIG1_L0)
        assert np.allclose(m, [3.0, 1.0, 1.0], atol=1e-12)

    def test_symmetric_matrix_gives_ones(self):
        sym = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(graph.symmetrizability_certificate(sym), [1.0, 1.0])

    def test_one_way_cycle_rejected(self):
        with pytest.raises(NotSymmetrizable) as excinfo:
            graph.symmetrizability_certificate(FIG1_LI)
        assert len(excinfo.value.witness) >= 2

    def test_inconsistent_cycle_rejected(self):
        # two-way triangle whose loop weight products differ (1 vs 4)
        bad = np.array(
            [
                [2.0, -1.0, -1.0],
                [-2.0, 3.0, -1.0],
                [-1.0, -2.0, 3.0],
            ]
        )
        with pytest.raises(NotSymmetrizable) as excinfo:
            graph.symmetrizability_certificate(bad)
        assert len(excinfo.value.witness) >= 3

    def test_scaling_symmetrizes(self):
        m = graph.symmetrizability_certificate(FIG1_L0)
        s = graph.scaling_from_certificate(m)
        conj = np.diag(s) @ FIG1_L0 @ np.diag(1.0 / s)
        assert np.max(np.abs(conj - conj.T)) < 1e-10

    @pytest.mark.parametrize("cert", [[0.0, 1.0], [-1.0, 4.0]])
    def test_scaling_refuses_a_certificate_entry_that_is_not_positive(self, cert):
        with pytest.raises(ValueError, match="^certificate entries must be positive"):
            graph.scaling_from_certificate(cert)

    def test_empty_matrix_refused(self):
        with pytest.raises(ValueError, match="L0 must be a non-empty square matrix"):
            graph.symmetrizability_certificate(np.zeros((0, 0)))

    def test_disconnected_support_per_component(self):
        block = np.zeros((4, 4))
        block[:2, :2] = [[1.0, -1.0], [-3.0, 3.0]]
        block[2:, 2:] = [[2.0, -2.0], [-2.0, 2.0]]
        m = graph.symmetrizability_certificate(block)
        assert np.allclose(m, [3.0, 1.0, 1.0, 1.0])  # each component min-1

    def test_overflowing_certificate_is_refused(self):
        # each link multiplies the balance vector by 1e10: 1e390 is past the
        # largest float, where 9 of the 40 entries used to come back inf
        with pytest.raises(NonFiniteResult, match="certificate vector has non-finite"):
            graph.symmetrizability_certificate(_chain(40, 1e10, 1.0))

    def test_underflowing_certificate_is_refused(self):
        # each link divides the balance vector by 1e10: past 1e-323 it is 0.0,
        # which a search that marks unvisited nodes by m == 0 pushes forever
        proc = _run_apart(
            "-c",
            "from oscpert import graph; from test_graph import _chain; "
            "graph.symmetrizability_certificate(_chain(40, 1.0, 1e10))",
        )
        assert proc.returncode == 1
        last = proc.stderr.strip().splitlines()[-1]
        assert last.startswith("oscpert.errors.NonFiniteResult: certificate vector has non-finite")


class TestDecompose:
    def test_explicit_worked_example(self):
        dec = graph.decompose(FIG1_L, li=FIG1_LI)
        assert np.allclose(dec.L0, FIG1_L0, atol=1e-12)
        assert np.allclose(dec.certificate, [3.0, 1.0, 1.0], atol=1e-12)
        graph.validate_decomposition(dec)

    def test_symmetric_input_pairwise_min(self):
        sym = np.array([[2.0, -2.0], [-2.0, 2.0]])
        dec = graph.decompose(sym)
        assert np.array_equal(dec.L0, sym)
        assert np.array_equal(dec.LI, np.zeros((2, 2)))

    def test_pairwise_min_worked_example(self):
        dec = graph.decompose(FIG1_L)
        expected_l0 = np.array([[3.0, -2.0, -1.0], [-2.0, 4.0, -2.0], [-1.0, -2.0, 3.0]])
        expected_li = np.array([[0.0, 0.0, 0.0], [-1.0, 2.0, -1.0], [-3.0, 0.0, 3.0]])
        assert np.allclose(dec.L0, expected_l0, atol=1e-12)
        assert np.allclose(dec.LI, expected_li, atol=1e-12)
        graph.validate_decomposition(dec)

    def test_empty_matrix_refused(self):
        with pytest.raises(ValueError, match="L must be a non-empty square matrix"):
            graph.decompose(np.zeros((0, 0)))

    def test_non_finite_matrix_refused(self):
        with pytest.raises(ValueError, match="^L contains non-finite entries$"):
            graph.decompose(np.where(np.eye(3) > 0, np.nan, FIG1_L))

    def test_heuristic_split_makes_no_certificate_search(self, monkeypatch):
        g, li = _bench_style_graph(3)
        lap = graph.laplacian(g)
        calls = []
        search = graph.symmetrizability_certificate
        monkeypatch.setattr(
            graph, "symmetrizability_certificate", lambda L0: calls.append(1) or search(L0)
        )
        dec = graph.decompose(lap)
        assert calls == []
        ones = np.ones(g.n)
        _assert_same(dec.certificate, ones)
        _assert_same(dec.scaling, ones)
        graph.validate_decomposition(dec)
        graph.decompose(lap, li=li)
        assert calls == [1]  # the explicit split still searches

    def test_overflowing_certificate_is_refused(self):
        # each link multiplies the balance vector by 1e10: 1e390 overflows
        n = 40
        lap = np.zeros((n, n))
        for i in range(n - 1):
            lap[i, i + 1], lap[i + 1, i] = -1e10, -1.0
        np.fill_diagonal(lap, -lap.sum(axis=1))
        with pytest.raises(InvalidDecomposition, match="certificate vector has non-finite"):
            graph.decompose(lap, li=np.zeros((n, n)))

    def test_involution_consistency(self):
        dec = graph.decompose(FIG1_L, li=FIG1_LI)
        assert np.max(np.abs(dec.L0 + FIG1_LI - FIG1_L)) <= 1e-12

    def test_invalid_li_row_sums(self):
        bad = FIG1_LI.copy()
        bad[0, 0] = 5.0
        with pytest.raises(InvalidDecomposition):
            graph.decompose(FIG1_L, li=bad)

    def test_invalid_li_two_directions(self):
        bad = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(InvalidDecomposition):
            graph.decompose(FIG1_L, li=bad)

    def test_invalid_li_nonsymmetrizable_remainder(self):
        # remove nothing: L itself is not symmetrizable (pair weights differ)
        zero = np.zeros((3, 3))
        with pytest.raises(InvalidDecomposition):
            graph.decompose(FIG1_L, li=zero)

    def test_random_laplacian_spectra_and_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            edges = []
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.6:
                        edges.append((i, j, float(rng.uniform(0.1, 3.0))))
            g = graph.WeightedDigraph(n=n, edges=tuple(edges))
            lap = graph.laplacian(g)
            # eigenvalues of a Laplacian sit in the closed right half plane
            for v in linalg.eigenvalues(lap):
                assert v.real > -1e-8 * max(1.0, np.abs(lap).max())
            graph.validate_decomposition(graph.decompose(lap))


def _shifted(dec, **moves):
    """dec with moves[part] = (i, j, delta) added at (i, j) and taken off (i, i)."""
    parts = {name: getattr(dec, name).copy() for name in moves}
    for name, (i, j, delta) in moves.items():
        parts[name][i, j] += delta
        parts[name][i, i] -= delta
    return replace(dec, **parts)


def _two_way_li():
    ring = np.array([[1.0, -1.0], [-1.0, 1.0]])
    ones = np.ones(2)
    return graph.LaplacianDecomposition(
        L=ring, L0=np.zeros((2, 2)), LI=ring, scaling=ones, certificate=ones
    )


def _off_by_row_sum_li(dec):
    # every part is judged against |L|: LI's row 1 sums to 1.5 tol of it,
    # while L0's row 1 and L - L0 - LI, which share the shift, stay within
    delta = 1.5 * graph.IDENTITY_TOL * np.abs(dec.L).max()
    l0, li = dec.L0.copy(), dec.LI.copy()
    l0[1, 1] -= delta / 2
    li[1, 1] += delta
    return replace(dec, L0=l0, LI=li)


class TestValidateDecomposition:
    """Each refusal of validate_decomposition, one fault at a time."""

    @pytest.mark.parametrize("broken, message", [
        (lambda d: replace(d, L=d.L + 1e-6), r"L != L0 \+ LI"),
        (lambda d: replace(d, L=d.L + np.eye(3), L0=d.L0 + np.eye(3)), "L row sums"),
        (lambda d: replace(d, L0=d.L0 + np.eye(3), LI=d.LI - np.eye(3)), "L0 row sums"),
        (lambda d: _off_by_row_sum_li(d), "LI row sums"),
        (lambda d: _shifted(d, L=(0, 1, 3.0), LI=(0, 1, 3.0)), "L has positive off-diagonal"),
        (lambda d: _shifted(d, L0=(0, 1, 2.0), LI=(0, 1, -2.0)), "L0 has positive off-diagonal"),
        (lambda d: _shifted(d, L0=(0, 1, -2.0), LI=(0, 1, 2.0)), "LI has positive off-diagonal"),
        (lambda d: _two_way_li(), r"LI carries both directions on pair \(0,1\)"),
        (lambda d: replace(d, certificate=np.array([np.inf, 1.0, 1.0])), "certificate vector has non-finite"),
        (lambda d: replace(d, scaling=np.array([1.0, np.nan, 1.0])), "scaling vector has non-finite"),
        (lambda d: replace(d, scaling=np.array([1.0, 0.0, 1.0])), "scaling vector must be positive"),
        (lambda d: replace(d, scaling=np.array([-1.0, 1.0, 1.0])), "scaling vector must be positive"),
        (lambda d: replace(d, scaling=np.ones(3)), "scaling does not symmetrize L0"),
    ])
    def test_refusal(self, broken, message):
        dec = graph.decompose(FIG1_L, li=FIG1_LI)
        graph.validate_decomposition(dec)
        with pytest.raises(InvalidDecomposition, match=message):
            graph.validate_decomposition(broken(dec))


# A 3-cycle whose two directions are 10% out of balance, at any weight scale
PROBE_EDGES = ((0, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 0, 1.1), (2, 1, 1.0))


def _probe_laplacian(c):
    return graph.laplacian(graph.WeightedDigraph(n=3, edges=tuple((i, j, c * w) for i, j, w in PROBE_EDGES)))


# With FIG1_LI as LI, a valid split whose L0 is 1e-9 of L: L0's row sums
# carry L's rounding, about 1e-7 of max|L0|
SPLIT_EDGES = ((0, 1, 1.000000001), (1, 0, 1e-9), (1, 2, 1.0), (2, 0, 1.0))


def _overflowing_products():
    """A 30-link chain whose balance vector grows 1e10 per link to 1e300,
    closed by a 3-cycle at weight 1e10 that is 10% out of balance: each of
    the cycle's balance products m[i]*L0[i,j] is past the largest float."""
    edges = [e for i in range(30) for e in ((i, i + 1, 1e10), (i + 1, i, 1.0))]
    edges += [(30, 31, 1e10), (31, 30, 1e10), (31, 32, 1e10), (32, 31, 1e10), (30, 32, 1e10), (32, 30, 1.1e10)]
    return graph.laplacian(graph.WeightedDigraph(n=33, edges=tuple(edges)))


class TestOneOwnerPerCheck:
    """decompose owns L0's row sums, at L's scale; the certificate judges
    balance only, and refuses products it cannot compare."""

    def test_small_l0_of_a_valid_split_is_certified(self):
        # the certificate judged L0's row sums against max|L0| and raised
        # ValueError after decompose had accepted them against max|L|
        lap = graph.laplacian(graph.WeightedDigraph(n=3, edges=SPLIT_EDGES))
        dec = graph.decompose(lap, li=FIG1_LI)
        graph.validate_decomposition(dec)
        assert np.abs(dec.L0).max() < 1e-8
        _assert_same(dec.certificate, loop_certificate(lap - FIG1_LI))

    def test_overflowing_balance_products_are_refused(self):
        # inf - inf is NaN, which no balance comparison refused: the chain
        # was certified with max m = 1e300
        lap = _overflowing_products()
        for search in (graph.symmetrizability_certificate, loop_certificate):
            with pytest.raises(NonFiniteResult, match=r"non-finite entries or balance products m\[i\]\*L0\[i,j\]"):
                search(lap)
        with pytest.raises(InvalidDecomposition, match="balance products"):
            graph.decompose(lap, li=np.zeros(lap.shape))


class TestScaleFree:
    """Every tolerance reads its input's own scale: scaling all weights by c
    changes no verdict, above or below unit scale."""

    @pytest.mark.parametrize("c", [1.0, 1e-6, 1e-12, 1e-150])
    def test_unbalanced_cycle_is_refused_at_every_scale(self, c):
        lap = _probe_laplacian(c)
        with pytest.raises(InvalidDecomposition, match="violates the balance condition"):
            graph.decompose(lap, li=np.zeros((3, 3)))
        # the split L0 = L, LI = 0 with the certificate of the spanning tree
        # through node 0 balances pairs (0,1) and (0,2) but not (1,2)
        cert = np.array([1.0, lap[0, 1] / lap[1, 0], lap[0, 2] / lap[2, 0]])
        cert /= cert.min()
        dec = graph.LaplacianDecomposition(
            L=lap, L0=lap.copy(), LI=np.zeros((3, 3)),
            scaling=graph.scaling_from_certificate(cert), certificate=cert,
        )
        with pytest.raises(InvalidDecomposition, match="scaling does not symmetrize L0"):
            graph.validate_decomposition(dec)

    def test_balanced_graph_is_certified_at_every_scale(self):
        g, li = _bench_style_graph(3)
        certs = {}
        for c in (1e-150, 1e-12, 1.0, 1e150):
            scaled = graph.WeightedDigraph(n=g.n, edges=g.edges * [1.0, 1.0, c])
            dec = graph.decompose(graph.laplacian(scaled), li=li * c)
            graph.validate_decomposition(dec)
            certs[c] = dec.certificate
        for c, cert in certs.items():
            assert np.abs(cert - certs[1.0]).max() <= 1e-12, c

    @pytest.mark.parametrize("c", [1e-150, 1e-12, 1e-6, 1.0, 1e150])
    def test_small_imbalance_is_judged_alike_at_every_scale(self, c):
        # 1e-9 off is refused and 1e-11 off is certified, at any scale
        for off, refused in ((1e-9, True), (1e-11, False)):
            lap = c * np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0 - off, -1.0, 2.0 + off]])
            outcome = _outcome(graph.symmetrizability_certificate, lap)
            assert isinstance(outcome, tuple) == refused, (c, off, outcome)


def _outcome(fn, *args):
    """fn's array result, or the type, message and witness of its refusal."""
    try:
        return fn(*args)
    except (InvalidDecomposition, NotSymmetrizable, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def _assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bitwise, signed zeros included
    else:
        assert got == want


def _with_zero_row_sums(mat):
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -mat.sum(axis=1))
    return mat


def _balanced(rng, n, density):
    """Off-diagonal pairs with m_i w_ij == m_j w_ji for a random positive m."""
    m = rng.uniform(0.2, 5.0, n)
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w = float(rng.choice([1.0, 2.0, rng.uniform(0.1, 3.0)]))
                mat[i, j] = -w
                mat[j, i] = -m[i] * w / m[j]
    return mat


def _kernel_case(rng, kind, n):
    """A square matrix with zero row sums (or not, for 'row_sums') of one kind."""
    mat = _balanced(rng, n, float(rng.uniform(0.3, 1.0)))
    links = [(i, j) for i in range(n) for j in range(n) if i != j and mat[i, j] != 0.0]
    if kind == "perturbed_cycle" and links:
        i, j = links[rng.integers(len(links))]
        mat[i, j] *= 1.0 + float(rng.choice([1e-13, 1e-10, 1e-9, 3e-9, 1e-6, 0.5]))
    elif kind == "one_sided" and links:
        i, j = links[rng.integers(len(links))]
        mat[i, j] = 0.0
    elif kind == "disconnected":
        keep = rng.random(n) < 0.5
        mat[np.ix_(keep, ~keep)] = 0.0
        mat[np.ix_(~keep, keep)] = 0.0
    elif kind == "two_way_li":
        mat = np.where(rng.random((n, n)) < 0.5, mat, 0.0)
    elif kind == "signed" and links:
        i, j = links[rng.integers(len(links))]
        mat[i, j] = -mat[i, j]
    elif kind == "negative_zero":
        mat[rng.random((n, n)) < 0.3] = -0.0
    mat = _with_zero_row_sums(mat)
    if kind == "row_sums":
        mat[0, 0] += 1.0
    return mat


def _random_digraph(rng, n, density):
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                w = float(rng.choice([1.0, 2.0, 1e-300, 1e300, rng.uniform(0.1, 3.0)]))
                edges.append((i, j, w))
    return graph.WeightedDigraph(n=n, edges=tuple(edges))


def _bench_style_graph(seed, n=200, pairs_l0=1990, pairs_li=1090):
    """A connected balanced L0 on ~10% of node pairs plus one-way links on others."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.5, 2.0, n)
    order = rng.permutation(n)
    pairs = {tuple(sorted((order[k], order[rng.integers(k)]))) for k in range(1, n)}
    while len(pairs) < pairs_l0:
        pairs.add(tuple(sorted(rng.choice(n, 2, replace=False))))
    edges = []
    for i, j in sorted(pairs):
        w = rng.uniform(0.5, 1.5)
        edges += [(i, j, w), (j, i, m[i] * w / m[j])]
    li = np.zeros((n, n))
    one_way = set()
    while len(one_way) < pairs_li:
        i, j = rng.choice(n, 2, replace=False)
        key = (min(i, j), max(i, j))
        if key not in pairs and key not in one_way:
            one_way.add(key)
            w = rng.uniform(0.5, 1.5)
            edges.append((i, j, w))
            li[i, j] = -w
    return graph.WeightedDigraph(n=n, edges=tuple(edges)), _with_zero_row_sums(li)


class TestArrayKernelsAgainstLoops:
    """The array kernels reproduce the element-by-element loops bit for bit."""

    KINDS = (
        "symmetrizable", "perturbed_cycle", "one_sided", "disconnected",
        "two_way_li", "signed", "negative_zero", "row_sums",
    )

    def test_certificate_and_one_way_check(self):
        rng = np.random.default_rng(20240)
        refusals = 0
        for k in range(2400):
            mat = _kernel_case(rng, self.KINDS[k % len(self.KINDS)], k % 6 + 1)
            want = _outcome(loop_certificate, mat)
            _assert_same(_outcome(graph.symmetrizability_certificate, mat), want)
            refusals += not isinstance(want, np.ndarray)
            want = _outcome(loop_check_one_way, mat)
            _assert_same(_outcome(graph._check_one_way, mat), want)
            refusals += want is not None
        assert refusals > 1000  # both accepted and refused inputs are covered

    def test_laplacian_and_pairwise_split(self):
        rng = np.random.default_rng(7)
        for k in range(1200):
            g = _random_digraph(rng, k % 6 + 1, float(rng.uniform(0.0, 1.0)))
            lap = loop_laplacian(g)
            _assert_same(graph.laplacian(g), lap)
            sym_part, one_way = loop_pairwise_split(lap)
            dec = _outcome(graph.decompose, lap)
            want = _outcome(loop_certificate, sym_part)
            if isinstance(want, np.ndarray):
                _assert_same(dec.L0, sym_part)
                _assert_same(dec.LI, one_way)
                _assert_same(dec.certificate, want)
            else:  # sums of weights 1e300 apart can break the zero row sums
                assert not isinstance(dec, graph.LaplacianDecomposition)

    def test_bench_size_graph(self):
        g, li = _bench_style_graph(3)
        lap = loop_laplacian(g)
        _assert_same(graph.laplacian(g), lap)
        sym_part, one_way = loop_pairwise_split(lap)
        dec = graph.decompose(lap)
        _assert_same(dec.L0, sym_part)
        _assert_same(dec.LI, one_way)
        _assert_same(dec.certificate, loop_certificate(sym_part))
        explicit = graph.decompose(lap, li=li)
        _assert_same(explicit.certificate, loop_certificate(lap - li))
        both = li + np.triu(li.T, k=1)  # lower-triangle links gain a reverse
        want = _outcome(loop_check_one_way, both)
        assert isinstance(want, tuple)
        _assert_same(_outcome(graph._check_one_way, both), want)
        # all pairs linked, balanced and then with one entry off by 1e-6
        dense = _with_zero_row_sums(_balanced(np.random.default_rng(11), 200, 1.0))
        _assert_same(graph.symmetrizability_certificate(dense), loop_certificate(dense))
        dense[57, 143] *= 1.0 + 1e-6
        dense = _with_zero_row_sums(dense)
        want = _outcome(loop_certificate, dense)
        assert want[0] is NotSymmetrizable and len(want[2]) >= 3  # a cycle witness
        _assert_same(_outcome(graph.symmetrizability_certificate, dense), want)
