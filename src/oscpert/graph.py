"""Weighted directed graphs and Laplacian decomposition.

A directed graph with positive edge weights induces the Laplacian
L = D - A (out-degree matrix minus weighted adjacency).  Any such Laplacian
splits as L = L0 + LI where L0 is *symmetrizable* (a positive diagonal
similarity makes it symmetric; equivalently the weight products around every
closed path balance in both directions) and LI carries only one-way links
(at most one direction per node pair).  The split is not unique: callers
either supply LI explicitly or ask for the deterministic pairwise-minimum
heuristic.

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

from .errors import InvalidDecomposition, NotSymmetrizable

CERTIFICATE_TOL = 1e-9
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph with positive real edge weights.

    edges are (src, dst, weight) triples; self-loops and repeated ordered
    pairs are rejected.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", int(self.n))
            object.__setattr__(
                self, "edges", tuple((int(s), int(d), float(w)) for s, d, w in self.edges)
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"graph needs an integer n and (src, dst, weight) number triples: {exc}"
            ) from exc
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        seen = set()
        for src, dst, weight in self.edges:
            if not (0 <= src < self.n and 0 <= dst < self.n):
                raise ValueError(f"edge ({src},{dst}) out of range for n={self.n}")
            if src == dst:
                raise ValueError(f"self-loop at node {src}")
            if (src, dst) in seen:
                raise ValueError(f"duplicate edge ({src},{dst})")
            if not weight > 0:
                raise ValueError(f"edge ({src},{dst}) has non-positive weight {weight}")
            seen.add((src, dst))

    @classmethod
    def from_json(cls, text: str) -> "WeightedDigraph":
        """Parse {"n": int, "edges": [[src, dst, weight], ...]}.

        Raises:
            ValueError: if the text does not follow that schema.
        """
        data = json.loads(text)
        if not (isinstance(data, dict) and {"n", "edges"} <= data.keys()):
            raise ValueError('graph JSON must be an object with keys "n" and "edges"')
        return cls(n=data["n"], edges=data["edges"])


@dataclass(frozen=True)
class LaplacianDecomposition:
    """Split L = L0 + LI with a symmetrizable L0 and one-way LI.

    ``scaling`` is the positive diagonal similarity vector making L0
    symmetric (None only if construction skipped it); ``certificate`` is the
    balance vector it is the square root of, normalized so its smallest
    component is 1.
    """

    L: np.ndarray
    L0: np.ndarray
    LI: np.ndarray
    scaling: np.ndarray | None = None
    certificate: np.ndarray | None = None


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Laplacian L = D - A of a weighted digraph.

    The diagonal is assembled as the negated off-diagonal row sum, so every
    row sums to zero exactly in floating point.

    Raises:
        ValueError: the dense n x n matrix cannot be allocated.
    """
    try:
        lap = np.zeros((g.n, g.n))
    except MemoryError as exc:
        raise ValueError(f"cannot allocate a dense Laplacian for n={g.n} nodes") from exc
    if g.edges:
        src, dst, weight = zip(*g.edges)
        lap[src, dst] = np.negative(weight)
    # the diagonal is bitwise the negated off-diagonal row sum; re-summing a
    # row in a different association can still leave a sub-ulp residue
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def _as_real_square(mat, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_zero_row_sums(arr: np.ndarray, tol: float, name: str) -> None:
    scale = max(1.0, float(np.abs(arr).max(initial=0.0)))
    worst = float(np.abs(arr.sum(axis=1)).max(initial=0.0))
    if not worst <= tol * scale:
        raise InvalidDecomposition(
            f"{name} row sums deviate from zero by {worst:.3e} (tol {tol:.1e})"
        )


def symmetrizability_certificate(L0, tol: float = CERTIFICATE_TOL) -> np.ndarray:
    """Positive balance vector m with m[i]*L0[i,j] == m[j]*L0[j,i] for i != j.

    The vector is found by propagating entry ratios over a depth-first
    spanning forest of the symmetrized support and verifying every non-tree
    edge; each visited node handles all its neighbours in one array step, in
    ascending order, so the first failing pair is the one a scan of j = 0..n-1
    would meet.  The vector is normalized per connected component so the
    smallest component is 1.
    diag(sqrt(m)) @ L0 @ diag(sqrt(m))^-1 is then symmetric.

    Raises:
        NotSymmetrizable: with a witness cycle (or one-sided pair) whose
            constraint cannot be met by any positive vector.
    """
    arr = _as_real_square(L0, "L0")
    n = arr.shape[0]
    scale = max(1.0, float(np.abs(arr).max(initial=0.0)))
    if float(np.abs(arr.sum(axis=1)).max(initial=0.0)) > tol * scale:
        raise ValueError("L0 must have zero row sums within tol")

    nonzero = arr != 0.0
    np.fill_diagonal(nonzero, False)
    linked = nonzero | nonzero.T
    m = np.zeros(n)
    parent = [-1] * n
    for root in range(n):
        if m[root] != 0.0:
            continue
        m[root] = 1.0
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            # every neighbour j of i in one step, in ascending order: an
            # unvisited j takes m[i] * ratio and is pushed, a visited j must
            # balance, and the first j that fails is the one refused
            js = np.flatnonzero(linked[i])
            a_ij, a_ji = arr[i, js], arr[js, i]
            fresh = m[js] == 0.0
            with np.errstate(all="ignore"):
                ratio = a_ij / a_ji
                lhs, rhs = m[i] * a_ij, m[js] * a_ji
                unbalanced = np.abs(lhs - rhs) > tol * np.maximum(
                    np.maximum(np.abs(lhs), np.abs(rhs)), 1.0
                )
            bad = (a_ij == 0.0) | (a_ji == 0.0) | np.where(fresh, ~(ratio > 0), unbalanced)
            stop = int(np.argmax(bad)) if bad.any() else len(js)
            take = fresh[:stop]
            new = js[:stop][take]
            with np.errstate(over="ignore"):  # validate_decomposition refuses inf
                m[new] = m[i] * ratio[:stop][take]
            for j in new.tolist():
                parent[j] = i
                component.append(j)
                stack.append(j)
            if stop == len(js):
                continue
            j = int(js[stop])
            if a_ij[stop] == 0.0 or a_ji[stop] == 0.0:
                raise NotSymmetrizable(
                    f"pair ({i},{j}) has a one-sided entry; no positive "
                    "scaling balances it",
                    witness=(i, j),
                )
            if fresh[stop]:
                raise NotSymmetrizable(
                    f"pair ({i},{j}) needs a non-positive ratio {ratio[stop]}",
                    witness=(i, j),
                )
            raise NotSymmetrizable(
                f"cycle through edge ({i},{j}) violates the balance condition: "
                f"{lhs[stop]:.6g} != {rhs[stop]:.6g}",
                witness=_tree_cycle(parent, i, j),
            )
        comp = np.array(component)
        m[comp] /= m[comp].min()
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
    """Similarity vector s = sqrt(m), renormalized so min(s) == 1."""
    s = np.sqrt(np.asarray(m, dtype=float))
    return s / s.min()


def decompose(L, li=None, tol: float = IDENTITY_TOL) -> LaplacianDecomposition:
    """Split a Laplacian into a symmetrizable part plus a one-way part.

    With ``li`` given (explicit mode), L0 = L - LI is formed and every
    invariant is validated, including symmetrizability of L0.  Without it,
    the pairwise-minimum heuristic keeps min(w_ij, w_ji) on each pair as the
    symmetric part and routes the surplus |w_ij - w_ji| into LI one-way
    (both as whole-matrix operations); the symmetric remainder is trivially
    symmetrizable.

    Raises:
        InvalidDecomposition: if the explicit LI breaks any invariant.
    """
    lap = _as_real_square(L, "L")
    scale = max(1.0, float(np.abs(lap).max(initial=0.0)))
    if float(np.abs(lap.sum(axis=1)).max(initial=0.0)) > tol * scale:
        raise ValueError("L must have zero row sums")
    off = lap - np.diag(np.diag(lap))
    if off.max(initial=0.0) > tol * scale:
        raise ValueError("L must have non-positive off-diagonal entries")

    if li is not None:
        one_way = _as_real_square(li, "LI")
        if one_way.shape != lap.shape:
            raise InvalidDecomposition(
                f"LI shape {one_way.shape} does not match L shape {lap.shape}"
            )
        _check_zero_row_sums(one_way, tol, "LI")
        _check_one_way(one_way)
        li_off = one_way - np.diag(np.diag(one_way))
        if li_off.max(initial=0.0) > tol * scale:
            raise InvalidDecomposition("LI has positive off-diagonal entries")
        sym_part = lap - one_way
        sym_off = sym_part - np.diag(np.diag(sym_part))
        if sym_off.max(initial=0.0) > tol * scale:
            raise InvalidDecomposition(
                "remainder L - LI has positive off-diagonal entries"
            )
        _check_zero_row_sums(sym_part, tol, "L0")
        try:
            cert = symmetrizability_certificate(sym_part)
        except NotSymmetrizable as exc:
            raise InvalidDecomposition(
                f"remainder L - LI is not symmetrizable: {exc}"
            ) from exc
    else:
        weight = -lap
        sym_part = -np.minimum(weight, weight.T)
        surplus = weight - weight.T
        one_way = np.where(surplus > 0, -surplus, 0.0)
        for part in (sym_part, one_way):
            np.fill_diagonal(part, 0.0)
            np.fill_diagonal(part, -part.sum(axis=1))
            part += 0.0  # normalize negative zeros
        cert = symmetrizability_certificate(sym_part)

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


def validate_decomposition(dec: LaplacianDecomposition, tol: float = IDENTITY_TOL) -> None:
    """Re-verify every LaplacianDecomposition invariant; raises on failure.

    Every comparison is written so that a NaN fails it.
    """
    scale = max(1.0, float(np.abs(dec.L).max(initial=0.0)))
    if not float(np.abs(dec.L - dec.L0 - dec.LI).max(initial=0.0)) <= tol * scale:
        raise InvalidDecomposition("L != L0 + LI")
    for name, part in (("L", dec.L), ("L0", dec.L0), ("LI", dec.LI)):
        _check_zero_row_sums(part, tol, name)
    _check_one_way(dec.LI)
    for name in ("certificate", "scaling"):
        vec = getattr(dec, name)
        if vec is not None and not np.all(np.isfinite(vec)):
            raise InvalidDecomposition(f"{name} vector has non-finite entries")
    if dec.scaling is not None:
        s = np.asarray(dec.scaling, dtype=float)
        if not np.all(s > 0):
            raise InvalidDecomposition("scaling vector must be positive")
        conj = np.diag(s) @ dec.L0 @ np.diag(1.0 / s)
        if not float(np.abs(conj - conj.T).max(initial=0.0)) <= 1e-10 * scale:
            raise InvalidDecomposition("scaling does not symmetrize L0")
