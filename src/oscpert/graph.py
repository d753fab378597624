"""Weighted directed graphs and Laplacian decomposition.

A directed graph with positive edge weights induces the Laplacian
L = D - A (out-degree matrix minus weighted adjacency).  Any such Laplacian
splits as L = L0 + LI where L0 is *symmetrizable* (a positive diagonal
similarity makes it symmetric; equivalently the weight products around every
closed path balance in both directions) and LI carries only one-way links
(at most one direction per node pair).  The split is not unique: callers
either supply LI explicitly or ask for the deterministic pairwise-minimum
heuristic.  Each tolerance is relative to the input's own scale, its largest
|entry|, with no unit floor: scaling every weight by c > 0 changes no verdict.

Two related positive vectors appear here and are easy to conflate:

* the *balance certificate* ``m`` with ``m[i]*L0[i,j] == m[j]*L0[j,i]``,
  which is what :func:`symmetrizability_certificate` returns, and
* the *similarity scaling* ``s = sqrt(m)`` with ``diag(s) @ L0 @ diag(s)^-1``
  symmetric, which is what :class:`LaplacianDecomposition` stores.

Node indices are 0-based throughout.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidDecomposition, NonFiniteResult, NotSymmetrizable

CERTIFICATE_TOL = 1e-10  # balance of the certificate search, symmetry of a scaled L0
IDENTITY_TOL = 1e-12  # L = L0 + LI, zero row sums, off-diagonal signs


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """Directed graph with positive real edge weights.

    edges is a read-only (k, 3) float array of (src, dst, weight) rows with
    whole-number nodes; self-loops and repeated ordered pairs are rejected.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        n = linalg.as_real(self.n, "n", 1)
        edges = np.array(linalg.as_array(self.edges, "graph edges", float))  # a copy made read-only below
        edges = edges.reshape(0, 3) if edges.shape == (0,) else edges
        if edges.shape[1:] != (3,):
            raise ValueError(f"graph edges must be (src, dst, weight) triples, got shape {edges.shape}")
        nodes = edges[:, :2]
        whole = (np.isfinite(nodes) & (nodes == np.floor(nodes))).all(axis=1)
        if not (n == int(n) and whole.all()):
            bad = nodes[np.argmin(whole)].tolist() if n == int(n) else self.n
            raise ValueError(f"node count and node indices must be whole numbers, got {bad!r}")
        n = int(n)
        src, dst, weight = edges.T
        order = np.lexsort((dst, src))  # stable: a repeated pair follows its first edge
        duplicate = np.zeros(len(edges), bool)
        duplicate[order[1:]] = (src[order[1:]] == src[order[:-1]]) & (dst[order[1:]] == dst[order[:-1]])
        # the refusal of the first bad edge, each edge checked in this order
        checks = (
            (~((0 <= src) & (src < n) & (0 <= dst) & (dst < n)), "edge ({s},{d}) out of range for n={n}"),
            (src == dst, "self-loop at node {s}"),
            (duplicate, "duplicate edge ({s},{d})"),
            (~(weight > 0), "edge ({s},{d}) has non-positive weight {w}"),
            (weight == np.inf, "edge ({s},{d}) has infinite weight"),
        )
        bad = np.any([mask for mask, _ in checks], axis=0)
        if bad.any():
            i = int(np.argmax(bad))
            message = next(text for mask, text in checks if mask[i])
            raise ValueError(message.format(s=int(src[i]), d=int(dst[i]), w=float(weight[i]), n=n))
        edges.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_json(cls, text: str) -> "WeightedDigraph":
        """Parse {"n": int, "edges": [[src, dst, weight], ...]}.

        Raises:
            ValueError: if the text does not follow that schema.
        """
        data = json.loads(text)
        if not (isinstance(data, dict) and {"n", "edges"} <= data.keys()):
            raise ValueError('graph JSON must be an object with keys "n" and "edges"')
        check_json_rows(text, data["edges"], 'graph JSON "edges"')
        return cls(n=data["n"], edges=data["edges"])


def check_json_rows(text: str, rows, key: str) -> None:
    """Refuse a true or false among the list rows parsed from JSON text,
    which numpy would read as 1 or 0: where text holds a t or an f (memchr
    scans, 40x faster than for the words), each entry is read by
    linalg.as_real (ValueError naming key)."""
    if "t" in text or "f" in text:
        for row in rows if isinstance(rows, list) else ():
            for x in row if isinstance(row, list) else ():
                linalg.as_real(x, key)


@dataclass(frozen=True)
class LaplacianDecomposition:
    """Split L = L0 + LI with a symmetrizable L0 and one-way LI.

    ``scaling`` is the positive diagonal similarity vector making L0
    symmetric; ``certificate`` is the balance vector it is the square root
    of, normalized so its smallest component is 1.
    """

    L: np.ndarray
    L0: np.ndarray
    LI: np.ndarray
    scaling: np.ndarray
    certificate: np.ndarray


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Laplacian L = D - A of a weighted digraph.

    The diagonal is assembled as the negated off-diagonal row sum, so every
    row sums to zero exactly in floating point.

    Raises:
        ValueError: the dense n x n matrix cannot be allocated, or a node's
            out-weights sum past the largest float.
    """
    try:
        lap = np.zeros((g.n, g.n))
    except MemoryError as exc:
        raise ValueError(f"cannot allocate a dense Laplacian for n={g.n} nodes") from exc
    src, dst, weight = g.edges.T
    lap[src.astype(np.intp), dst.astype(np.intp)] = np.negative(weight)
    with np.errstate(over="ignore"):
        out_weight = 0.0 - lap.sum(axis=1)  # +0.0, not -0.0, for a node without out-edges
    if not np.isfinite(out_weight).all():
        raise ValueError(f"out-weights of node {np.argmin(np.isfinite(out_weight))} sum past the largest float")
    # the diagonal is bitwise the negated off-diagonal row sum; re-summing a
    # row in a different association can still leave a sub-ulp residue
    np.fill_diagonal(lap, out_weight)
    return lap


def _check_laplacian(arr: np.ndarray, name: str, scale: float, error: type) -> None:
    """Raise ``error`` unless arr's rows sum to zero and its off-diagonal
    entries are non-positive, both against ``scale``, the largest |entry| of
    L.  Both comparisons are written so that a NaN fails them."""
    worst = float(np.abs(arr.sum(axis=1)).max(initial=0.0))
    if not worst <= IDENTITY_TOL * scale:
        raise error(f"{name} row sums deviate from zero by {worst:.3e} (tol {IDENTITY_TOL:.1e})")
    if not (arr - np.diag(np.diag(arr))).max(initial=0.0) <= IDENTITY_TOL * scale:
        raise error(f"{name} has positive off-diagonal entries")


def symmetrizability_certificate(L0) -> np.ndarray:
    """Positive balance vector m with m[i]*L0[i,j] == m[j]*L0[j,i] for i != j.

    A depth-first walk of the symmetrized support gives each unvisited
    neighbour j of a popped node i, over a usable pair (both entries
    non-zero, positive ratio), m[j] = m[i] * L0[i,j] / L0[j,i], pushing them
    in ascending order.  One array pass then checks every pair and refuses
    the first bad one in walk order, the one a scan of j = 0..n-1 at each
    popped node would meet.  m is normalized per connected component so its
    smallest entry is 1; diag(sqrt(m)) @ L0 @ diag(sqrt(m))^-1 is symmetric.
    Only balance is judged, each pair's against its larger product (row sums
    are decompose's); an m or m[i]*L0[i,j] past the float range comes first.

    Raises:
        ValueError: L0 is not a finite square matrix.
        NotSymmetrizable: with a witness cycle (or one-sided pair) whose
            constraint cannot be met by any positive vector.
        NonFiniteResult: an entry of m or of its balance products leaves the float range.
    """
    arr = linalg.as_square_matrix(L0, "L0", float)
    n = arr.shape[0]

    # the symmetrized support as CSR rows, each row's js ascending
    linked = arr != 0.0
    np.fill_diagonal(linked, False)
    linked |= linked.T
    rows, cols = np.nonzero(linked)
    indptr = np.searchsorted(rows, np.arange(n + 1)).tolist()
    a_ij, a_ji = arr[rows, cols], arr[cols, rows]
    one_sided = (a_ij == 0.0) | (a_ji == 0.0)
    m = np.zeros(n)
    visited = np.zeros(n, bool)
    fresh = np.zeros(len(cols), bool)  # j was unvisited when i met it
    parent = np.full(n, -1)
    order = []  # nodes in pop order; each component is one run of it
    runs = []  # where each component's run starts in it
    with np.errstate(all="ignore"):  # an m out of float range is refused below
        ratio = a_ij / a_ji
        usable = ~one_sided & (ratio > 0)
        for root in range(n):
            if visited[root]:
                continue
            m[root], visited[root] = 1.0, True
            runs.append(len(order))
            stack = [root]
            while stack:
                i = stack.pop()
                order.append(i)
                lo, hi = indptr[i], indptr[i + 1]
                js = cols[lo:hi]
                fresh[lo:hi] = unseen = ~visited[js]
                take = unseen & usable[lo:hi]
                new = js[take]
                m[new] = m[i] * ratio[lo:hi][take]
                visited[new] = True
                parent[new] = i
                stack += new.tolist()
        lhs, rhs = m[rows] * a_ij, m[cols] * a_ji
        unbalanced = np.abs(lhs - rhs) > CERTIFICATE_TOL * np.maximum(np.abs(lhs), np.abs(rhs))
        order = np.array(order)  # lhs and rhs keep the raw m that refusals quote
        m[order] /= np.repeat(np.minimum.reduceat(m[order], runs), np.diff(runs + [n]))
    # before any pair: a subnormal m's products carry no balance, two inf ones compare as NaN
    if not (np.isfinite(m).all() and np.isfinite(lhs).all()):  # rhs holds the same products
        raise NonFiniteResult("certificate vector has non-finite entries or balance products m[i]*L0[i,j]: "
                              "the balance ratios along the spanning forest over- or underflow a float")
    bad = np.where(fresh, ~usable, one_sided | unbalanced)
    if bad.any():
        rank = np.empty(n, np.intp)
        rank[order] = np.arange(n)
        at = np.flatnonzero(bad)
        k = int(at[np.argmin(rank[rows[at]] * n + cols[at])])
        i, j = int(rows[k]), int(cols[k])
        if one_sided[k]:
            raise NotSymmetrizable(
                f"pair ({i},{j}) has a one-sided entry; no positive "
                "scaling balances it",
                witness=(i, j),
            )
        if fresh[k]:
            raise NotSymmetrizable(
                f"pair ({i},{j}) needs a non-positive ratio {ratio[k]}",
                witness=(i, j),
            )
        raise NotSymmetrizable(
            f"cycle through edge ({i},{j}) violates the balance condition: "
            f"{lhs[k]:.6g} != {rhs[k]:.6g}",
            witness=_tree_cycle(parent.tolist(), i, j),
        )
    return m


def _tree_cycle(parent: list[int], i: int, j: int) -> tuple[int, ...]:
    """Cycle formed by the tree paths to i and j plus the edge (i, j)."""

    def path(node):
        out = [node]
        while parent[out[-1]] != -1:
            out.append(parent[out[-1]])
        return out

    pi, pj = path(i), path(j)
    common = set(pi) & set(pj)
    pi = [x for x in pi if x not in common or x == next(c for c in pi if c in common)]
    pj = [x for x in pj if x not in common or x == next(c for c in pj if c in common)]
    return tuple(pi + pj[::-1][1:])


def scaling_from_certificate(m: np.ndarray) -> np.ndarray:
    """Similarity vector s = sqrt(m), renormalized so min(s) == 1; an entry
    of m that is not positive raises ValueError."""
    cert = linalg.as_vector(m, name="certificate", dtype=float)
    if not (cert > 0).all():
        raise ValueError(f"certificate entries must be positive, got minimum {cert.min()}")
    s = np.sqrt(cert)
    return s / s.min()


def decompose(L, li=None) -> LaplacianDecomposition:
    """Split a Laplacian into a symmetrizable part plus a one-way part.

    With ``li`` given (explicit mode), L0 = L - LI is formed and every
    invariant is validated, including symmetrizability of L0 with a finite
    certificate, so the result needs no validate_decomposition.  Without it,
    the pairwise-minimum heuristic keeps min(w_ij, w_ji) on each pair as the
    symmetric part and routes the surplus |w_ij - w_ji| into LI one-way
    (both as whole-matrix operations); the symmetric remainder needs no
    balance search, its certificate is all ones.  L, LI and L0 = L - LI are
    all checked against one scale, the largest |entry| of L (the one check
    of L0's row sums: the certificate search judges balance only).

    Raises:
        ValueError: if L is not a finite square Laplacian, or LI is not a
            finite square matrix of L's shape.
        InvalidDecomposition: if the explicit LI breaks any invariant.
    """
    lap = linalg.as_square_matrix(L, "L", float)
    scale = float(np.abs(lap).max(initial=0.0))
    _check_laplacian(lap, "L", scale, ValueError)

    if li is not None:
        one_way = linalg.as_square_matrix(li, "LI", float)
        if one_way.shape != lap.shape:
            raise ValueError(f"LI shape {one_way.shape} does not match L shape {lap.shape}")
        _check_laplacian(one_way, "LI", scale, InvalidDecomposition)
        _check_one_way(one_way)
        sym_part = lap - one_way
        _check_laplacian(sym_part, "L0", scale, InvalidDecomposition)
        try:
            cert = symmetrizability_certificate(sym_part)
        except NotSymmetrizable as exc:
            raise InvalidDecomposition(f"remainder L - LI is not symmetrizable: {exc}") from exc
        except NonFiniteResult as exc:
            raise InvalidDecomposition(str(exc)) from exc
    else:
        weight = -lap
        sym_part = -np.minimum(weight, weight.T)
        surplus = weight - weight.T
        one_way = np.where(surplus > 0, -surplus, 0.0)
        for part in (sym_part, one_way):
            np.fill_diagonal(part, 0.0)
            np.fill_diagonal(part, -part.sum(axis=1))
            part += 0.0  # normalize negative zeros
        # -min(W, W^T) is exactly symmetric: every balance ratio is 1
        cert = np.ones(len(lap))

    return LaplacianDecomposition(
        L=lap,
        L0=sym_part,
        LI=one_way,
        scaling=scaling_from_certificate(cert),
        certificate=cert,
    )


def _check_one_way(one_way: np.ndarray) -> None:
    both = np.triu((one_way != 0.0) & (one_way.T != 0.0), k=1)
    if both.any():
        i, j = np.argwhere(both)[0]  # first pair in row-major order
        raise InvalidDecomposition(f"LI carries both directions on pair ({i},{j})")


def validate_decomposition(dec: LaplacianDecomposition) -> None:
    """Re-verify every LaplacianDecomposition invariant; raises on failure.

    L, L0 and LI each need zero row sums and non-positive off-diagonal
    entries, and the scaled L0 symmetry, against the largest |entry| of L.
    Every comparison is written so that a NaN fails it.
    """
    scale = float(np.abs(dec.L).max(initial=0.0))
    if not float(np.abs(dec.L - dec.L0 - dec.LI).max(initial=0.0)) <= IDENTITY_TOL * scale:
        raise InvalidDecomposition("L != L0 + LI")
    for name, part in (("L", dec.L), ("L0", dec.L0), ("LI", dec.LI)):
        _check_laplacian(part, name, scale, InvalidDecomposition)
    _check_one_way(dec.LI)
    for name in ("certificate", "scaling"):
        if not np.all(np.isfinite(getattr(dec, name))):
            raise InvalidDecomposition(f"{name} vector has non-finite entries")
    s = linalg.as_array(dec.scaling, "scaling", float)
    if not np.all(s > 0):
        raise InvalidDecomposition("scaling vector must be positive")
    conj = s[:, None] * dec.L0 * (1.0 / s)
    if not float(np.abs(conj - conj.T).max(initial=0.0)) <= CERTIFICATE_TOL * scale:
        raise InvalidDecomposition("scaling does not symmetrize L0")
