"""Tests for graph construction, certificates, and Laplacian decomposition."""
import json

import numpy as np
import pytest

from oscpert import graph, linalg
from oscpert.errors import InvalidDecomposition, NotSymmetrizable

from oracles import loop_certificate, loop_check_one_way, loop_laplacian, loop_pairwise_split

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

    def test_json_round_trip(self):
        text = json.dumps({"n": 3, "edges": [list(e) for e in FIG1_GRAPH.edges]})
        assert graph.WeightedDigraph.from_json(text) == FIG1_GRAPH


class TestLaplacian:
    def test_single_edge(self):
        g = graph.WeightedDigraph(n=2, edges=((0, 1, 2.0),))
        assert np.array_equal(graph.laplacian(g), [[2.0, -2.0], [0.0, 0.0]])

    def test_worked_example(self):
        assert np.array_equal(graph.laplacian(FIG1_GRAPH), FIG1_L)

    def test_empty_graph(self):
        g = graph.WeightedDigraph(n=3, edges=())
        assert np.array_equal(graph.laplacian(g), np.zeros((3, 3)))

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

    def test_disconnected_support_per_component(self):
        block = np.zeros((4, 4))
        block[:2, :2] = [[1.0, -1.0], [-3.0, 3.0]]
        block[2:, 2:] = [[2.0, -2.0], [-2.0, 2.0]]
        m = graph.symmetrizability_certificate(block)
        assert np.allclose(m, [3.0, 1.0, 1.0, 1.0])  # each component min-1


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
            for v in linalg.eigenvalues(lap, tol=1e-8):
                assert v.real > -1e-8 * max(1.0, np.abs(lap).max())
            graph.validate_decomposition(graph.decompose(lap))


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
