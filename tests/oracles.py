"""Independent numerical oracles used only by the tests.

Each oracle reaches a quantity the package also computes, but by a different
algorithm (and in one case a different precision), so agreement is evidence
rather than tautology:

* rk4_evolution      — classical fixed-step RK4 for i dpsi/dt = M psi
* cardano_roots      — cubic characteristic roots in closed form + polish
* path_term          — exact order-n expansion coefficient of the cyclic
                       3-mode model via confluent divided differences
                       (corner entry of exp of a bidiagonal matrix, evaluated
                       with mpmath at 50 digits)
* lagrange_coefficients
                     — the exact series of an eigenvalue shift in the
                       coupling ratio W, by Lagrange inversion in rationals,
                       that app0..app2 of oscpert.eigenfreq truncate
* per_point_sweep    — the per-point spectral path the batched ε-grid path
                       replaced: one eigensolve per refined grid point, one
                       itertools.permutations matching loop per step
                       (per_point_path, continuation step CONTINUATION_STEP)
                       and one relabeled model per estimate; its labels go
                       through pair_rule, the tie rules of a conjugate pair
                       that forms and of one that turns real again
* is_real_mode       — reality by value, |Im| <= IMAG_THRESHOLD (1 + |lambda|),
                       that the EP intervals of eigenfreq.spectral_grid
                       replaced; its unit floor reads every mode real below
                       about 1e-8 scale
* bisect_transition  — the bisection on spectrum reality that the
                       discriminant roots of eigenfreq.exceptional_points
                       replaced
* polynomial_exceptional_points
                     — the discriminant built from numpy.polynomial
                       Polynomial objects on Omega/s, s including every
                       |a|, that the coefficient arrays in
                       eigenfreq.exceptional_points replaced
* exact_exceptional_points
                     — the same roots from the textbook cubic discriminant
                       in 60-digit mpmath, rounded once
* sweep_row_dicts, rows_to_csv, rows_to_json
                     — the row-dict sweep writer the column writer in
                       oscpert.cli replaced: one dict per (ε, mode) row and
                       one f-string per value, fed by per_point_sweep
* loop_edges, loop_laplacian, loop_pairwise_split, loop_check_one_way,
  loop_certificate   — the element-by-element graph kernels the array
                       kernels in oscpert.graph replaced; loop_edges is the
                       per-edge validation of WeightedDigraph
* repr_json          — the decompose JSON emitter that the word table in
                       oscpert.cli replaced: float.__repr__ of every entry
* loop_series_block, loop_psi1_infinite
                     — the per-block if chain of lambdas, the paper's hand
                       table of binomials (neg_binomial), 2F2 parameters
                       (_cancel_params) and sign rules, that the residue
                       rule in oscpert.threemode replaced, recomputing the
                       frequencies and ratios for every block
* loop_hyp_series    — the per-cell scalar loop over the terms of one 2F2
                       that the array recurrence in oscpert.threemode
                       replaced; loop_series_block sums its cells with it
* cell_column_coefficients
                     — a block column's series as e^z times a polynomial
                       with exact rational coefficients: the closed form
                       that can replace the term-by-term 2F2 sums
* residue_terms      — psi_1(t) of the 3-mode model as exact residues of the
                       resolvent at each pole, by Leibniz's rule, in
                       Fraction arithmetic: the derivation the nine blocks'
                       cell table and the closed forms of orders 0..3 follow
* van_loan_orders    — every expansion order psi_0(t)..psi_n(t) at once, as
                       blocks of the exponential of one block upper-bidiagonal
                       matrix (Van Loan, IEEE TAC 23, 1978): no quadrature, so
                       exact to rounding at any t
* loop_term, loop_partial_sum, loop_convergence_residuals,
  loop_rotating_orders
                     — the per-order Dyson quadrature that dyson.terms
                       replaced: every coefficient rebuilds the trajectories
                       of orders 1..n, forms the rotation factor per order and
                       integrates with one temporary per formula;
                       loop_rotating_orders gives the rotating-frame values
                       before the final phase, signed zeros and all
* inline_verify      — the `verify` command as inline checks, each with its
                       own tolerance lookup and PASS/FAIL line, that the
                       check table in oscpert.cli replaced
"""
from __future__ import annotations

import cmath
import json
import math
import os
from fractions import Fraction
from itertools import permutations

import mpmath
import numpy as np
from numpy.polynomial import Polynomial

from oscpert import dyson, eigenfreq, graph, linalg, threemode
from oscpert.benchmarks import COUPLING_TABLE, canonical_id, registry
from oscpert.errors import (
    InvalidDecomposition,
    NonConvergence,
    NonFiniteResult,
    NotSymmetrizable,
    OscPertError,
)


def rk4_evolution(mat, t: float, v, dt: float = 1e-4) -> np.ndarray:
    """Integrate dpsi/dt = -1j * mat * psi from psi(0)=v to time t."""
    mat = np.asarray(mat, dtype=complex)
    psi = np.asarray(v, dtype=complex).copy()
    steps = max(1, int(round(t / dt)))
    h = t / steps

    def rhs(y):
        return -1j * (mat @ y)

    for _ in range(steps):
        k1 = rhs(psi)
        k2 = rhs(psi + 0.5 * h * k1)
        k3 = rhs(psi + 0.5 * h * k2)
        k4 = rhs(psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return psi


def cardano_roots(c2: complex, c1: complex, c0: complex) -> list[complex]:
    """Roots of x^3 + c2 x^2 + c1 x + c0, Cardano plus one Newton polish."""
    a = c1 - c2 * c2 / 3.0
    b = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    disc = cmath.sqrt(b * b / 4.0 + a**3 / 27.0)
    u3 = -b / 2.0 + disc
    if abs(u3) < abs(-b / 2.0 - disc):
        u3 = -b / 2.0 - disc
    u = u3 ** (1.0 / 3.0) if u3 != 0 else 0.0
    omega = complex(-0.5, 0.5 * 3**0.5)
    roots = []
    for k in range(3):
        uk = u * omega**k
        y = uk - a / (3.0 * uk) if uk != 0 else 0.0
        x = y - c2 / 3.0
        for _ in range(2):  # Newton polish on the original cubic
            f = x**3 + c2 * x**2 + c1 * x + c0
            fp = 3.0 * x**2 + 2.0 * c2 * x + c1
            if fp != 0:
                x = x - f / fp
        roots.append(x)
    return roots


def charpoly3(mat) -> tuple[complex, complex, complex]:
    """(c2, c1, c0) of det(xI - mat) = x^3 + c2 x^2 + c1 x + c0 for 3x3."""
    m = np.asarray(mat, dtype=complex)
    tr = np.trace(m)
    minors = 0.0 + 0.0j
    for i in range(3):
        idx = [j for j in range(3) if j != i]
        s = m[np.ix_(idx, idx)]
        minors += s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    det = np.linalg.det(m)
    return (-tr, minors, -det)


_NEXT_MODE = {1: 2, 2: 3, 3: 1}
_START_OF_RESIDUE = {0: 1, 1: 3, 2: 2}


def path_term(omega_eff, a, n: int, t: float, dps: int = 50) -> complex:
    """Exact psi_1^(n)(t) / psi_mu(0) for the cyclic 3-mode system, eps = 1.

    The order-n coefficient is a time-ordered product over the unique
    n-hop path ending at mode 1; its nested integral equals the confluent
    divided difference of exp(-i x t) over the visited frequencies, which
    in turn is the (0, n) entry of exp(-i t Z) for the bidiagonal matrix Z
    carrying the node sequence on its diagonal and ones above it.  The
    coefficient multiplies psi_mu(0) with mu = 1, 3, 2 for n = 0, 1, 2
    (mod 3).
    """
    a = {1: a[0], 2: a[1], 3: a[2]}
    omega = {1: omega_eff[0], 2: omega_eff[1], 3: omega_eff[2]}
    mode = _START_OF_RESIDUE[n % 3]
    seq = [mode]
    hops = 1.0
    for _ in range(n):
        hops *= a[seq[-1]]
        seq.append(_NEXT_MODE[seq[-1]])
    assert seq[-1] == 1
    with mpmath.workdps(dps):
        z = mpmath.zeros(n + 1, n + 1)
        for i, mu in enumerate(seq):
            z[i, i] = omega[mu]
            if i < n:
                z[i, i + 1] = 1
        divdiff = mpmath.expm(-1j * mpmath.mpf(t) * z)[0, n]
        value = (-1) ** n * hops * divdiff
        return complex(value)


def lagrange_coefficients(p, q, n_max: int) -> list[Fraction]:
    """c_1 .. c_n_max, exact for rational p and q, of the root x = sum c_n W^n
    of x = W phi(x), phi(x) = 1 / ((1 + x/q)(1 - x/p)): the shift x = lambda - w1'
    of mode 1, with p = w3' - w1', q = w1' - w2' and W = X.  Lagrange
    inversion gives c_n = [x^(n-1)] phi(x)^n / n."""
    p, q = Fraction(p), Fraction(q)
    phi = [sum((-1 / q) ** j * (1 / p) ** (i - j) for j in range(i + 1)) for i in range(n_max)]
    power, coeffs = [Fraction(1)] + [Fraction(0)] * (n_max - 1), []
    for n in range(1, n_max + 1):
        power = [sum(power[j] * phi[i - j] for j in range(i + 1)) for i in range(n_max)]
        coeffs.append(power[n - 1] / n)
    return coeffs


def per_point_increments(m, which: int) -> tuple[float, float, float]:
    """(base+W, inc1, inc2) of one mode, through the relabeled model object."""
    view, _ = threemode.cyclic_view(m, {1: "psi1", 2: "psi2", 3: "psi3"}[which])
    w1, w2, w3 = threemode.effective_frequencies(view)
    w = threemode.xyz(view).X
    p = w3 - w1
    q = w1 - w2
    base = w1 + w
    inc1 = w**2 / p - w**2 / q
    inc2 = (
        2 * w**3 / p**2
        - 3 * w**3 / (p * q)
        + 2 * w**3 / q**2
        + (10.0 / 3.0) * w**4 / p**3
        - 10 * w**4 / (p**2 * q)
        + 10 * w**4 / (p * q**2)
        - (10.0 / 3.0) * w**4 / q**3
    )
    return base, inc1, inc2


# Largest eps step of the continuation walk in per_point_path.
CONTINUATION_STEP = 0.01


def per_point_path(m, eps_grid, margins=None) -> np.ndarray:
    """Eigenvalues matched to modes by nearest-assignment continuation from
    eps = 0, with steps of at most CONTINUATION_STEP, a step through the
    midpoint of each two consecutive real roots of
    polynomial_exceptional_points, and one linalg.eigenvalues call per step;
    on a tie the first assignment in itertools.permutations order wins, so
    LAPACK's order decides it.

    When `margins` is a list, each continuation step appends to it the cost
    of its second-best assignment less that of its best.
    """
    eps_grid = [float(e) for e in eps_grid]
    fine = [0.0]
    targets = {}
    for j, eps in enumerate(eps_grid):
        prev = fine[-1]
        if eps > prev:
            extra = int(math.ceil((eps - prev) / CONTINUATION_STEP))
            points = [prev + (eps - prev) * (i + 1) / extra for i in range(extra)]
            points[-1] = eps
            fine.extend(points)
        targets.setdefault(eps, []).append(j)
    # a conjugate pair narrower than one step would be stepped over: the walk
    # also visits the midpoint of each two consecutive EPs
    points = polynomial_exceptional_points(m)
    fine = sorted({*fine, *(x for x in ((points[:-1] + points[1:]) / 2).tolist() if 0.0 < x < fine[-1])})
    current = np.array(m.omega, dtype=complex)
    out = np.zeros((len(eps_grid), 3), dtype=complex)
    for j in targets.get(0.0, ()):
        out[j] = current
    for eps in fine[1:]:
        vals = np.array(linalg.eigenvalues(threemode.omega_matrix(m, eps)))
        costs = {
            p: sum(abs(vals[p[i]] - current[i]) for i in range(3))
            for p in permutations(range(3))
        }
        best = min(costs, key=costs.get)
        if margins is not None:
            first, second = sorted(costs.values())[:2]
            margins.append(second - first)
        current = vals[list(best)]
        for j in targets.get(eps, ()):
            out[j] = current
    return out


# A mode counts as non-real when |Im| exceeds this times (1 + |lambda|).
IMAG_THRESHOLD = 1e-8


def is_real_mode(value):
    """Whether a complex value (or each entry of a complex array) is real."""
    value = linalg.as_array(value, "value")
    return np.abs(value.imag) <= IMAG_THRESHOLD * (1.0 + np.hypot(value.real, value.imag))


def pair_rule(path) -> np.ndarray:
    """path relabeled by the two tie rules that a continuation walk leaves to
    LAPACK's order: where two real eigenvalues meet and turn into a pair, the
    lower mode holds Im > 0; where a pair turns real again, its mode that held
    Im > 0 takes the larger real part.  The walk continues from whichever
    labels it took at a tie, so each swap carries on to the rows after it."""
    path = np.array(path)
    order = np.arange(3)  # the walk's column of each mode
    held = None  # the pair of the row before, its Im > 0 mode first
    for row, real in zip(path, is_real_mode(path)):
        row[:] = row[order]
        pair = np.flatnonzero(~real[order])
        if pair.size:
            held, swap = pair, row[pair[0]].imag < row[pair[1]].imag
        else:
            swap = held is not None and row[held[0]].real < row[held[1]].real
            pair, held = held, None
        if swap:
            order[pair] = order[pair[::-1]]
            row[pair] = row[pair[::-1]]
    return path


def bisect_transition(m, eps_lo: float, eps_hi: float, tol: float) -> float:
    """Onset of non-real eigenvalues, bisected on spectrum reality to tol."""

    def nonreal(eps):
        vals = np.array(linalg.eigenvalues(threemode.omega_matrix(m, eps)))
        return not is_real_mode(vals).all()

    lo, hi = eps_lo, eps_hi
    assert nonreal(lo) != nonreal(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if nonreal(mid) == nonreal(hi):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def polynomial_exceptional_points(m) -> np.ndarray:
    """Real roots, ascending, of the discriminant of det(lambda - Omega(eps)),
    built as Polynomial objects on Omega/s, s the largest |w|, |d| and |a|
    (the model's own scale, with no unit floor)."""
    s = max(map(abs, m.omega + m.d + m.a)) or 1.0
    w1, w2, w3 = (Polynomial([w / s, shift / s]) for w, shift in zip(m.omega, m.d))
    b = -(w1 + w2 + w3)
    c = w1 * w2 + w1 * w3 + w2 * w3
    d = Polynomial([0.0, 0.0, 0.0, math.prod(a / s for a in m.a)]) - w1 * w2 * w3
    disc = 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2
    roots = (disc / (np.abs(disc.coef).max() or 1.0)).trim(np.finfo(float).tiny).roots()
    return np.sort(roots[roots.imag == 0].real)


def exact_exceptional_points(m) -> list[float]:
    """Real roots, ascending, of the discriminant of det(lambda - Omega(eps))
    in 60-digit mpmath: the textbook cubic discriminant 18bcd - 4b^3 d +
    b^2 c^2 - 4c^3 - 27d^2 at eps = -3..3, interpolated to its degree-6
    coefficients (a1 a2 a3 != 0), each root rounded once to a float."""
    with mpmath.workdps(60):
        omega, shift, a = ([mpmath.mpf(x) for x in v] for v in (m.omega, m.d, m.a))

        def disc(e):
            w = [x + e * y for x, y in zip(omega, shift)]
            b, c = -sum(w), w[0] * w[1] + w[0] * w[2] + w[1] * w[2]
            d = e**3 * a[0] * a[1] * a[2] - w[0] * w[1] * w[2]
            return 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2

        vandermonde = mpmath.matrix([[mpmath.mpf(x) ** k for k in range(6, -1, -1)] for x in range(-3, 4)])
        coeffs = mpmath.lu_solve(vandermonde, mpmath.matrix([disc(x) for x in range(-3, 4)]))
        roots = mpmath.polyroots(list(coeffs), maxsteps=200, extraprec=200)
        return sorted(float(r.real) for r in roots if abs(r.imag) < mpmath.mpf(10) ** -30)


def per_point_sweep(m, eps_grid):
    """(true values, estimates) as the per-point path computes them, the
    true values through pair_rule.

    estimates[j] holds (app0, app1, app2) for modes 1..3, or the name of the
    OscPertError that refused them at eps_grid[j].
    """
    estimates = []
    for eps in eps_grid:
        at_eps = m.at_epsilon(eps)
        try:
            incs = [per_point_increments(at_eps, which) for which in (1, 2, 3)]
        except OscPertError as exc:
            estimates.append(type(exc).__name__)
            continue
        estimates.append(
            tuple((base, base + inc1, base + inc1 + inc2) for base, inc1, inc2 in incs)
        )
    return pair_rule(per_point_path(m, eps_grid)), estimates


def sweep_row_dicts(m, eps_values, levels) -> list[dict]:
    """One row dict per (epsilon, mode), estimates restricted to `levels`."""
    true_path, estimates = per_point_sweep(m, eps_values)
    rows = []
    for eps, true_vals, ests in zip(eps_values, true_path.tolist(), estimates):
        refused = isinstance(ests, str)
        status = ests if refused else "ok"
        for mode, true in enumerate(true_vals, start=1):
            real = abs(true.imag) <= IMAG_THRESHOLD * (1.0 + abs(true))
            row = {
                "epsilon": float(eps),
                "mode": mode,
                "true_re": true.real,
                "true_im": true.imag,
                "real_spectrum": real,
                "status": status,
            }
            for i, name in enumerate(eigenfreq.LEVELS):
                if not refused and name in levels:
                    est = ests[mode - 1][i]
                    row[name] = est
                    row[f"err{i}"] = abs(true.real - est) if real else math.nan
                else:
                    row[name] = math.nan
                    row[f"err{i}"] = math.nan
            rows.append(row)
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    def fmt(x):
        return f"{float(x):.17g}"

    lines = [
        "epsilon,mode,true_re,true_im,app0,app1,app2,err0,err1,err2,"
        "real_spectrum,status"
    ]
    for r in rows:
        lines.append(
            ",".join(
                [fmt(r["epsilon"]), str(r["mode"])]
                + [fmt(r[k]) for k in ("true_re", "true_im", "app0", "app1", "app2")]
                + [fmt(r[k]) for k in ("err0", "err1", "err2")]
                + ["true" if r["real_spectrum"] else "false", r["status"]]
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_json(m, rows: list[dict]) -> str:
    clean = [
        {k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in r.items()}
        for r in rows
    ]
    return json.dumps(
        {"model": m.to_json_dict(), "rows": clean},
        sort_keys=True,
        indent=2,
        allow_nan=False,
    ) + "\n"


def loop_edges(n, edges) -> tuple[tuple[int, int, float], ...]:
    """WeightedDigraph's edge checks, one edge at a time: each edge is
    checked for range, then self-loop, then duplicate, then weight, and the
    first failure is raised.  Returns the (src, dst, weight) triples."""
    n = int(n)
    edges = tuple((int(s), int(d), float(w)) for s, d, w in edges)
    seen = set()
    for src, dst, weight in edges:
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge ({src},{dst}) out of range for n={n}")
        if src == dst:
            raise ValueError(f"self-loop at node {src}")
        if (src, dst) in seen:
            raise ValueError(f"duplicate edge ({src},{dst})")
        if not weight > 0:
            raise ValueError(f"edge ({src},{dst}) has non-positive weight {weight}")
        seen.add((src, dst))
    return edges


def repr_json(arrays: dict) -> str:
    """cli._decomposition_parts, joined, with one float.__repr__ per entry."""

    def array(items, indent):
        inner = indent + "  "
        if isinstance(items[0], list):
            body = [array(row, inner) for row in items]
        else:
            body = map(float.__repr__, items)
        return "[\n" + inner + (",\n" + inner).join(body) + "\n" + indent + "]"

    fields = []
    for key in sorted(arrays):
        if not np.isfinite(arrays[key]).all():
            raise ValueError(f"Out of range float values are not JSON compliant in {key}")
        fields.append(f'  "{key}": ' + array(arrays[key].tolist(), "  "))
    return "{\n" + ",\n".join(fields) + "\n}\n"


def loop_laplacian(g) -> np.ndarray:
    """graph.laplacian one edge and one diagonal entry at a time."""
    lap = np.zeros((g.n, g.n))
    for src, dst, weight in g.edges.tolist():
        lap[int(src), int(dst)] -= weight
    np.fill_diagonal(lap, 0.0)
    for i in range(g.n):
        lap[i, i] = 0.0 - lap[i].sum()  # +0.0 for a node without out-edges
    return lap


def loop_pairwise_split(lap) -> tuple[np.ndarray, np.ndarray]:
    """(L0, LI) of graph.decompose's pairwise-minimum heuristic, pair by pair."""
    n = lap.shape[0]
    sym_part = np.zeros_like(lap)
    one_way = np.zeros_like(lap)
    for i in range(n):
        for j in range(i + 1, n):
            w_ij = -lap[i, j]
            w_ji = -lap[j, i]
            shared = min(w_ij, w_ji)
            sym_part[i, j] = sym_part[j, i] = -shared
            if w_ij > w_ji:
                one_way[i, j] = -(w_ij - w_ji)
            elif w_ji > w_ij:
                one_way[j, i] = -(w_ji - w_ij)
    for part in (sym_part, one_way):
        for i in range(n):
            part[i, i] = -(part[i].sum() - part[i, i])
        part += 0.0
    return sym_part, one_way


def loop_check_one_way(one_way) -> None:
    """graph._check_one_way over the upper-triangle pairs in row-major order."""
    n = one_way.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if one_way[i, j] != 0.0 and one_way[j, i] != 0.0:
                raise InvalidDecomposition(
                    f"LI carries both directions on pair ({i},{j})"
                )


def loop_certificate(L0, tol: float = graph.CERTIFICATE_TOL) -> np.ndarray:
    """graph.symmetrizability_certificate visiting one (i, j) entry at a time.

    Only balance is judged, each pair's against its larger product, with no
    unit floor; the row sums are left to the caller.  The walk keeps the
    first bad pair and goes on; a certificate that over- or underflows, or a
    product m[i]*L0[i,j] that overflows, is refused before that pair is."""
    arr = linalg.as_square_matrix(L0, "L0", float)
    n = arr.shape[0]
    m = np.zeros(n)
    visited = [False] * n  # an underflowed m[j] == 0.0 is still visited
    parent = [-1] * n
    first_bad = None
    components = []
    with np.errstate(all="ignore"):  # products past the float range are refused below
        for root in range(n):
            if visited[root]:
                continue
            m[root], visited[root] = 1.0, True
            component = [root]
            components.append(component)
            stack = [root]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if j == i or (arr[i, j] == 0.0 and arr[j, i] == 0.0):
                        continue
                    bad = None
                    if arr[i, j] == 0.0 or arr[j, i] == 0.0:
                        bad = NotSymmetrizable(
                            f"pair ({i},{j}) has a one-sided entry; no positive "
                            "scaling balances it",
                            witness=(i, j),
                        )
                    elif not visited[j]:
                        ratio = arr[i, j] / arr[j, i]
                        if ratio > 0:
                            m[j], visited[j] = m[i] * ratio, True
                            parent[j] = i
                            component.append(j)
                            stack.append(j)
                        else:
                            bad = NotSymmetrizable(
                                f"pair ({i},{j}) needs a non-positive ratio {ratio}",
                                witness=(i, j),
                            )
                    else:
                        lhs = m[i] * arr[i, j]
                        rhs = m[j] * arr[j, i]
                        if abs(lhs - rhs) > tol * max(abs(lhs), abs(rhs)):
                            bad = NotSymmetrizable(
                                f"cycle through edge ({i},{j}) violates the "
                                f"balance condition: {lhs:.6g} != {rhs:.6g}",
                                witness=graph._tree_cycle(parent, i, j),
                            )
                    if first_bad is None:
                        first_bad = bad
        overflow = any(
            not math.isfinite(m[i] * arr[i, j])
            for i in range(n)
            for j in range(n)
            if j != i and (arr[i, j] != 0.0 or arr[j, i] != 0.0)
        )
        for component in components:  # the products above take the raw m
            comp = np.array(component)
            m[comp] /= m[comp].min()
    if overflow or not np.isfinite(m).all():
        raise NonFiniteResult(
            "certificate vector has non-finite entries or balance products "
            "m[i]*L0[i,j]: the balance ratios along the spanning forest "
            "over- or underflow a float"
        )
    if first_bad is not None:
        raise first_bad
    return m


def loop_hyp_series(uppers, lowers, z, trunc, max_ell=None) -> complex:
    """One hypergeometric sum, term by term: adaptive, within
    threemode.MAX_TERMS terms, when max_ell is None, else the exact partial
    sum of terms 0..max_ell."""
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    small_streak = 0
    limit = threemode.MAX_TERMS if max_ell is None else max_ell
    for ell in range(limit):
        num = 1.0
        for a in uppers:
            num *= a + ell
        if num == 0.0:
            return total  # a non-positive upper parameter: series terminated
        den = 1.0
        for b in lowers:
            den *= b + ell
        term = term * (num / den) * z / (ell + 1)
        total += term
        if max_ell is not None:
            continue
        try:
            small = abs(term) < trunc.tail_tol * abs(total) or abs(term) < 1e-300
        except OverflowError:
            raise NonFiniteResult(
                f"|term {ell + 1}| or |partial sum| overflows from finite parts"
            ) from None
        if small:
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
    if max_ell is None:
        raise NonConvergence(f"no convergence within {limit} terms")
    return total


def cell_column_coefficients(uppers, lowers) -> list[Fraction]:
    """Exact c_0 .. c_M of one block column's series pFq(uppers; lowers; z),
    whose series is then e^z * sum_j c_j z^j.

    The parameters left once equal upper and lower ones cancel pair off,
    in sorted order, as integers a_i >= b_i >= 1 (asserted here).  Since (b+m)_l/(b)_l
    = (b+l)_m/(b)_m, term l of the series is P(l) z^l / l! with P(l) =
    prod (a_i)_l / (b_i)_l a polynomial of degree M = sum(a_i - b_i).  In
    falling factorials P(l) = sum_j c_j l(l-1)..(l-j+1) with c_j = Delta^j
    P(0) / j!, and sum_l l(l-1)..(l-j+1) z^l / l! = z^j e^z.
    """
    ups, lows = sorted(int(a) for a in uppers), sorted(int(b) for b in lowers)
    assert len(ups) == len(lows) and all(a >= b >= 1 for a, b in zip(ups, lows)), (ups, lows)
    values = [Fraction(1)]  # P(0) .. P(M)
    for ell in range(sum(ups) - sum(lows)):
        values.append(values[-1] * math.prod(a + ell for a in ups) / math.prod(b + ell for b in lows))
    coeffs = []
    for j in range(len(values)):
        coeffs.append(values[0] / math.factorial(j))
        values = [y - x for x, y in zip(values, values[1:])]
    return coeffs


def neg_binomial(n: int, k: int) -> int:
    """Binomial coefficient extended to negative integer arguments.

    For n >= 0 this is the usual C(n, k) (zero outside 0 <= k <= n).  For
    n < 0 the nonzero regions are k >= 0, where
    C(n, k) = (-1)^k C(k - n - 1, k), and k <= n, where
    C(n, k) = (-1)^(n-k) C(-k - 1, n - k); everything else is zero.
    A non-integral n or k raises ValueError.
    """
    try:
        n, k = linalg.as_integer(n, "n"), linalg.as_integer(k, "k")
    except ValueError as exc:
        raise ValueError(f"neg_binomial needs integral n and k: {exc}") from exc
    if n >= 0:
        if 0 <= k <= n:
            return math.comb(n, k)
        return 0
    if k >= 0:
        return (-1) ** k * math.comb(k - n - 1, k)
    if k <= n:
        return (-1) ** (n - k) * math.comb(-k - 1, n - k)
    return 0


def _cancel_params(a_params, b_params) -> tuple[list[float], list[float]]:
    """The upper and lower parameters of a pFq left once each upper one equal
    to a lower one has cancelled against it."""
    uppers, lowers = ([float(p) for p in params] for params in (a_params, b_params))
    for a in list(uppers):
        if a in lowers:
            uppers.remove(a)
            lowers.remove(a)
    return uppers, lowers


def _branch_block_spec(m, block: str) -> dict:
    """The per-block if chain of lambdas, the paper's hand table, that
    threemode's residue rule replaced: a block's ratios and prefactor, and
    per cell (k, l) its sign, the neg_binomial arguments of its coefficient
    and the 2F2 parameters before _cancel_params."""
    w1, w2, w3 = threemode.effective_frequencies(m)
    a1, a2, a3 = m.a
    eps = m.epsilon
    # at eps = 0 a product's sign stands in for it, as in threemode's coupling
    # rule: the zero a finite product gives, not the inf * 0 = nan of one past
    # the float range
    num = (a1 * a2 * a3 if eps else math.copysign(1.0, a1 * a2 * a3)) * eps**3
    lead2 = (a2 * a3 if eps else math.copysign(1.0, a2 * a3)) * eps**2
    X = num / ((w1 - w2) * (w3 - w1))
    Y = num / ((w2 - w3) * (w3 - w1))
    Z = num / ((w1 - w2) * (w2 - w3))
    p12, p31, p23 = w1 - w2, w3 - w1, w2 - w3
    if block in ("A1", "A3", "A2"):
        w_ratio, denom_pow, denom_ratio = X, p31, p31 / p12
    elif block in ("B1", "B3", "B2"):
        w_ratio, denom_pow, denom_ratio = Y, p31, p31 / p23
    else:
        w_ratio, denom_pow, denom_ratio = Z, p12, p12 / p23
    spec = {
        "W": w_ratio,
        "ratio1": w_ratio / denom_pow,
        "ratio2": denom_ratio,
        "k_start": 1 if block in ("B1", "C1", "C3") else 0,
        "l_excludes_k": block in ("B1", "C1", "C3"),
    }
    if block == "A1":
        spec.update(prefactor=1.0, sign=lambda k, l: (-1) ** l)
        spec.update(binoms=lambda k, l: ((2 * k - l - 1, k - l), (k + l - 1, l)))
        spec.update(hyp=lambda k, l: ((2 * k - l, k + l), (k, k)))
    elif block == "A3":
        spec.update(prefactor=a3 * eps / p31, sign=lambda k, l: (-1) ** l)
        spec.update(binoms=lambda k, l: ((2 * k - l, k - l), (k + l - 1, l)))
        spec.update(hyp=lambda k, l: ((2 * k - l + 1, k + l), (k, k + 1)))
    elif block == "A2":
        spec.update(
            prefactor=lead2 / (p12 * p31),
            sign=lambda k, l: (-1) ** (l + 1),
        )
        spec.update(binoms=lambda k, l: ((2 * k - l, k - l), (k + l, l)))
        spec.update(hyp=lambda k, l: ((2 * k - l + 1, k + l + 1), (k + 1, k + 1)))
    elif block == "B1":
        spec.update(prefactor=1.0, sign=lambda k, l: (-1) ** (k + l + 1))
        spec.update(binoms=lambda k, l: ((2 * k - l - 1, k - l - 1), (k + l - 1, l)))
        spec.update(hyp=lambda k, l: ((2 * k - l, k + l), (k, k + 1)))
    elif block == "B3":
        spec.update(
            prefactor=a3 * eps / p31, sign=lambda k, l: (-1) ** (k + l + 1)
        )
        spec.update(binoms=lambda k, l: ((2 * k - l, k - l), (k + l - 1, l)))
        spec.update(hyp=lambda k, l: ((2 * k - l + 1, k + l), (k, k + 1)))
    elif block == "B2":
        spec.update(
            prefactor=lead2 / (p23 * p31),
            sign=lambda k, l: (-1) ** (k + l + 1),
        )
        spec.update(binoms=lambda k, l: ((2 * k - l, k - l), (k + l, l)))
        spec.update(hyp=lambda k, l: ((2 * k - l + 1, k + l + 1), (k + 1, k + 1)))
    elif block == "C1":
        spec.update(prefactor=1.0, sign=lambda k, l: (-1) ** (l + 1))
        spec.update(binoms=lambda k, l: ((2 * k - l - 1, k - l - 1), (k + l - 1, l)))
        spec.update(hyp=lambda k, l: ((2 * k - l, k + l), (k, k + 1)))
    elif block == "C3":
        spec.update(prefactor=a3 * eps / p23, sign=lambda k, l: (-1) ** l)
        spec.update(binoms=lambda k, l: ((2 * k - l - 1, k - l - 1), (k + l, l)))
        spec.update(hyp=lambda k, l: ((2 * k - l, k + l + 1), (k + 1, k + 1)))
    elif block == "C2":
        spec.update(
            prefactor=lead2 / (p12 * p23),
            sign=lambda k, l: (-1) ** (l + 1),
        )
        spec.update(binoms=lambda k, l: ((2 * k - l, k - l), (k + l, l)))
        spec.update(hyp=lambda k, l: ((2 * k - l + 1, k + l + 1), (k + 1, k + 1)))
    else:
        raise ValueError(f"unknown block {block!r}; expected one of {threemode.BLOCK_NAMES}")
    return spec


_LOOP_ORDER_OFFSET = {
    "A1": 0, "B1": 0, "C1": 0,
    "A3": 1, "B3": 1, "C3": 1,
    "A2": 2, "B2": 2, "C2": 2,
}


def loop_series_block(m, block, t, trunc, shell_tol=None, order_cap=None) -> complex:
    """threemode.series_block built from the if chain, geometry recomputed
    per call; the arguments are read before the model, in series_block's
    order."""
    if block not in threemode.BLOCK_NAMES:
        raise ValueError(f"unknown block {block!r}; expected one of {threemode.BLOCK_NAMES}")
    t = linalg.as_real(t, "t")
    order_cap = None if order_cap is None else linalg.as_integer(order_cap, "order_cap")
    if order_cap is not None and order_cap // 3 > threemode.MAX_TERMS:
        raise ValueError(
            f"order_cap must be <= {3 * threemode.MAX_TERMS + 2} "
            f"(MAX_TERMS={threemode.MAX_TERMS}), got {order_cap}"
        )
    shell_tol = None if shell_tol is None else linalg.as_real(shell_tol, "shell_tol", 0)
    spec = _branch_block_spec(m, block)
    offset = _LOOP_ORDER_OFFSET[block]
    z = -1j * spec["W"] * t
    total = 0.0 + 0.0j
    last_shell = 0.0
    for k in range(spec["k_start"], trunc.k_max + 1):
        max_ell = None
        if order_cap is not None:
            max_ell = (order_cap - offset - 3 * k) // 3
            if max_ell < 0:
                continue
        shell = 0.0 + 0.0j
        l_stop = k - 1 if spec["l_excludes_k"] else k
        for l in range(0, l_stop + 1):
            (b1t, b1b), (b2t, b2b) = spec["binoms"](k, l)
            coeff = neg_binomial(b1t, b1b) * neg_binomial(b2t, b2b)
            if coeff == 0:
                continue
            uppers, lowers = _cancel_params(*spec["hyp"](k, l))
            cell = (
                spec["sign"](k, l)
                * spec["prefactor"]
                * spec["ratio1"] ** k
                * spec["ratio2"] ** l
                * coeff
                * loop_hyp_series(uppers, lowers, z, trunc, max_ell=max_ell)
            )
            shell += cell
        total += shell
        last_shell = abs(shell)
    if shell_tol is not None and last_shell > shell_tol * max(abs(total), 1e-300):
        raise NonConvergence(
            f"block {block}: shell k={trunc.k_max} still contributes "
            f"{last_shell:.3e} against total {abs(total):.3e}"
        )
    return total


def loop_psi1_infinite(m, t, psi0, trunc, shell_tol=None, order_cap=None) -> complex:
    """threemode.psi1_infinite as nine loop_series_block calls, psi0 read first."""
    vec = linalg.as_vector(psi0, 3, "psi0")
    blocks = {
        name: loop_series_block(m, name, t, trunc, shell_tol=shell_tol, order_cap=order_cap)
        for name in threemode.BLOCK_NAMES
    }
    w1, w2, w3 = threemode.effective_frequencies(m)
    p1, p2, p3 = vec[0], vec[1], vec[2]
    return (
        (blocks["A1"] * p1 + blocks["A3"] * p3 + blocks["A2"] * p2)
        * cmath.exp(-1j * w1 * t)
        + (blocks["B1"] * p1 + blocks["B3"] * p3 + blocks["B2"] * p2)
        * cmath.exp(-1j * w3 * t)
        + (blocks["C1"] * p1 + blocks["C3"] * p3 + blocks["C2"] * p2)
        * cmath.exp(-1j * w2 * t)
    )


# The pole of each block family: the 0-based mode mu of lambda = w_mu'.
RESIDUE_POLES = {"A": 0, "B": 2, "C": 1}


def residue_terms(w, a, eps, pole: int, component: int, n: int) -> dict:
    """The residue at lambda = w[pole] of

        e^{-i lambda t} adj(lambda - Omega)_{1,component} (-eps^3 a1 a2 a3)^n / D(lambda)^(n+1),

    D = prod_mu (lambda - w[mu]), the order-n term of 1/det(lambda - Omega)
    = 1/(D + eps^3 a1 a2 a3) times the entry of row 1 of the adjugate that
    multiplies psi_component(0) in psi_1(t).  Exact for Fraction w, a and eps.

    Row 1 of the adjugate is (lambda - w2)(lambda - w3), eps^2 a2 a3 and
    -eps a3 (lambda - w2) for components 1, 2 and 3.  A factor (lambda - w_mu)
    lowers the power of mode mu in D^(n+1), so the residue is the
    derivative of order (pole order - 1) at the pole, over its factorial, of
    e^{-i lambda t} times the powers of the two other modes.  Leibniz's rule
    shares the derivatives among the three factors: returns {(k_0, k_1,
    k_2): c}, k_mu derivatives on mode mu's factor (on the exponential for
    mu = pole), such that the residue is sum c (-1j t)^k_pole e^{-i w[pole] t}.
    """
    a1, a2, a3 = a
    lead, zeros = {1: (1, (1, 2)), 2: (eps**2 * a2 * a3, ()), 3: (-eps * a3, (1,))}[component]
    derivatives = n - zeros.count(pole)  # the pole order less 1
    others = [mu for mu in range(3) if mu != pole]
    powers = [n + 1 - zeros.count(mu) for mu in others]
    scale = lead * (-(eps**3) * a1 * a2 * a3) ** n
    terms = {}
    for j in range(derivatives + 1):
        rest = derivatives - j
        for p in range(rest + 1):
            c = scale / math.factorial(j)
            for mu, power, k in zip(others, powers, (p, rest - p)):
                # d^k/dlambda^k (lambda - w_mu)^-power / k!, at the pole
                c *= (-1) ** k * Fraction(math.prod(range(power, power + k)), math.factorial(k))
                c *= (w[pole] - w[mu]) ** (-power - k)
            key = [0, 0, 0]
            key[pole], key[others[0]], key[others[1]] = j, p, rest - p
            terms[tuple(key)] = c
    return terms


def residue_order(w, a, eps, order: int, t, psi0) -> complex:
    """eps^order psi_1^(order)(t) summed from residue_terms over the three
    poles, in 40-digit mpmath: the component psi_c(0) whose adjugate entry
    has degree 2, 1 or 0 in eps (c = 1, 3, 2) feeds orders 3n, 3n+1, 3n+2."""
    n, offset = divmod(order, 3)
    component = (1, 3, 2)[offset]
    with mpmath.workdps(40):
        exact = lambda x: mpmath.mpf(x.numerator) / x.denominator
        total = mpmath.mpc(0)
        for pole in range(3):
            phase = mpmath.expj(-exact(w[pole]) * t)
            for key, c in residue_terms(w, a, eps, pole, component, n).items():
                total += exact(c) * (-1j * mpmath.mpf(t)) ** key[pole] * phase
        return complex(total * psi0[component - 1])


def van_loan_orders(sys, n, t, psi0) -> list[np.ndarray]:
    """Coefficients psi_0(t) .. psi_n(t) in dyson.terms' convention (no eps
    weight).  B has W0 on its n+1 diagonal blocks and WI on the blocks above
    them; order k is block (n-k, n) of linalg.propagator(B, t) applied to psi0."""
    d = sys.dim
    big = np.kron(np.eye(n + 1), np.diag(sys.omega0)) + np.kron(np.eye(n + 1, k=1), sys.omegaI)
    column = linalg.propagator(big, t)[:, n * d :] @ linalg.as_vector(psi0, d, "psi0")
    return [column[(n - k) * d : (n - k + 1) * d] for k in range(n + 1)]


def _loop_running_integral(values: np.ndarray, dx: float) -> np.ndarray:
    """The running integral that dyson._rotating_orders writes in place
    (composite Simpson pairs at the even nodes, a four-point correction at
    the odd ones), in node order, as plain array formulas, one temporary
    each."""
    out = np.zeros_like(values)
    pair = (dx / 3.0) * (values[0:-2:2] + 4.0 * values[1:-1:2] + values[2::2])
    out[2::2] = np.cumsum(pair, axis=0)
    out[1] = (dx / 24.0) * (
        9.0 * values[0] + 19.0 * values[1] - 5.0 * values[2] + values[3]
    )
    out[3::2] = out[2:-1:2] + (dx / 24.0) * (
        values[0:-3:2]
        - 5.0 * values[1:-2:2]
        + 19.0 * values[2:-1:2]
        + 9.0 * values[3::2]
    )
    return out


def _loop_trajectories(sys, max_order, t, vec, steps) -> list[np.ndarray]:
    """Rotating-frame trajectories with the rotation factor formed per order."""
    n_fine = 2 * steps
    grid = np.linspace(0.0, t, n_fine + 1)
    dx = t / n_fine if n_fine else 0.0
    omega0 = np.array(sys.omega0)
    phase = np.exp(-1j * grid[:, None] * omega0[None, :])
    trajectories = [np.broadcast_to(vec, (n_fine + 1, sys.dim)).copy()]
    for _ in range(1, max_order + 1):
        prev = trajectories[-1]
        integrand = -1j * np.conj(phase) * ((phase * prev) @ sys.omegaI.T)
        trajectories.append(_loop_running_integral(integrand, dx))
    return trajectories


def _loop_validate(sys, order, t, psi0, steps) -> np.ndarray:
    if order < 0:
        raise ValueError("order must be >= 0")
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and non-negative, got {t}")
    if steps < 10 * order:
        raise ValueError(f"steps={steps} too coarse for order {order}; need >= {10 * order}")
    return linalg.as_vector(psi0, sys.dim, "psi0")


def loop_term(sys, order, t, psi0, steps) -> np.ndarray:
    """dyson.term with orders 1..order rebuilt on every call."""
    vec = _loop_validate(sys, order, t, psi0, steps)
    if order == 0 or t == 0.0:
        if order > 0:
            return np.zeros(sys.dim, dtype=complex)
        return np.exp(-1j * np.array(sys.omega0) * t) * vec
    trajectories = _loop_trajectories(sys, order, t, vec, steps)
    return np.exp(-1j * np.array(sys.omega0) * t) * trajectories[order][-1]


def loop_rotating_orders(sys, max_order, t, psi0, steps) -> list[np.ndarray]:
    """phi_0(t) .. phi_max_order(t), the last node of each loop trajectory."""
    vec = _loop_validate(sys, max_order, t, psi0, steps)
    return [traj[-1] for traj in _loop_trajectories(sys, max_order, t, vec, steps)]


def loop_partial_sum(sys, max_order, t, psi0, steps) -> np.ndarray:
    """dyson.partial_sum on the loop_term trajectories."""
    vec = _loop_validate(sys, max_order, t, psi0, steps)
    if max_order == 0 or t == 0.0:
        total_phi = vec
    else:
        trajectories = _loop_trajectories(sys, max_order, t, vec, steps)
        # Python's float ** int, libm pow, whatever SIMD loops numpy picks
        weights = [sys.epsilon**n for n in range(max_order + 1)]
        total_phi = sum(w * traj[-1] for w, traj in zip(weights, trajectories))
    return np.exp(-1j * np.array(sys.omega0) * t) * total_phi


def loop_convergence_residuals(sys, t, psi0, orders, eps_grid, steps) -> np.ndarray:
    """dyson.convergence_report residuals from one loop trajectory build."""
    vec = _loop_validate(sys, max(orders), t, psi0, steps)
    trajectories = _loop_trajectories(sys, max(orders), t, vec, steps)
    final_phase = np.exp(-1j * np.array(sys.omega0) * t)
    coeffs = [final_phase * traj[-1] for traj in trajectories]
    residuals = np.zeros((len(orders), len(eps_grid)))
    for j, eps in enumerate(eps_grid):
        exact = linalg.matrix_exponential_apply(sys.full_matrix(eps), t, vec)
        for i, order in enumerate(orders):
            approx = sum(eps**n * coeffs[n] for n in range(order + 1))
            residuals[i, j] = float(np.linalg.norm(approx - exact))
    return residuals


INLINE_VERIFY_TOLERANCES = {
    "coupling_table": 5e-4,
    "zero_eigenvalue": 1e-9,
    "analytic_vs_quadrature": 1e-7,
    "block_equivalence": 1e-5,
    "resummation_vs_propagator": 5e-4,
    "expansion_vs_propagator": 1e-5,
}


def _inline_check(name: str, ok: bool, detail: str, results: list) -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _inline_verify_tolerances() -> dict:
    override = os.environ.get("OSC_PERT_TOL")
    if override is None:
        return dict(INLINE_VERIFY_TOLERANCES)
    value = float(override)
    if not 0.0 < value < math.inf:
        raise ValueError(
            f"OSC_PERT_TOL must be a finite positive float, got {override!r}"
        )
    return {key: value for key in INLINE_VERIFY_TOLERANCES}


def inline_verify(args) -> int:
    """The `verify` command body (args.model, args.depth) as inline checks."""
    tols = _inline_verify_tolerances()
    key = canonical_id(args.model)
    model = registry(key)
    results: list[bool] = []

    ratios = threemode.xyz(model)
    got = (abs(ratios.X), abs(ratios.Y), abs(ratios.Z))
    expected = COUPLING_TABLE[key]
    worst = max(abs(g - e) for g, e in zip(got, expected))
    _inline_check(
        "coupling-table",
        worst <= tols["coupling_table"],
        f"|X|,|Y|,|Z| within {worst:.2e} of {expected}",
        results,
    )

    eigs = linalg.eigenvalues(threemode.omega_matrix(model, 1.0))
    smallest = min(abs(v) for v in eigs)
    _inline_check(
        "zero-eigenvalue",
        smallest < tols["zero_eigenvalue"],
        f"min |lambda(Omega(1))| = {smallest:.2e}",
        results,
    )

    psi0 = np.array([0.6 + 0.2j, -0.3 + 0.4j, 0.5 - 0.1j])
    worst_rel = 0.0
    for eps in (0.3, 1.0):
        at_eps = model.at_epsilon(eps)
        system = threemode.perturbed_system(at_eps)
        coeffs = {t: dyson.terms(system, 3, t, psi0, 2000) for t in (0.5, 1.0)}
        for order in range(4):
            for t in (0.5, 1.0):
                closed = threemode.psi1_analytic(at_eps, order, t, psi0)
                quad = (eps**order) * coeffs[t][order][0]
                worst_rel = max(
                    worst_rel, abs(closed - quad) / max(abs(closed), 1e-14)
                )
    _inline_check(
        "analytic-vs-quadrature",
        worst_rel <= tols["analytic_vs_quadrature"],
        f"orders 0..3 worst relative deviation {worst_rel:.2e}",
        results,
    )

    if args.depth == "full":
        exact_sys = threemode.perturbed_system(model.at_epsilon(0.2))
        report = dyson.convergence_report(
            exact_sys, 1.0, psi0, orders=(0, 2, 4, 6, 8), eps_grid=[0.2], steps=1000
        )
        final = float(report.residuals[-1, 0])
        _inline_check(
            "expansion-vs-propagator",
            final <= tols["expansion_vs_propagator"] and report.monotone[0],
            f"order-8 residual {final:.2e} at eps=0.2, monotone={report.monotone[0]}",
            results,
        )
        converging = max(got) < 1.0
        if not converging:
            print(
                "SKIP block-equivalence / resummation: coupling ratios "
                f"{got} outside the convergence regime"
            )
        else:
            trunc = threemode.SeriesTruncation(k_max=3, tail_tol=1e-12)
            system = threemode.perturbed_system(model)
            worst = 0.0
            for t in (0.25, 0.5, 1.0):
                blocks = threemode.psi1_infinite(model, t, psi0, trunc, order_cap=9)
                quad = dyson.partial_sum(system, 9, t, psi0, 4000)[0]
                worst = max(worst, abs(blocks - quad))
            _inline_check(
                "block-equivalence",
                worst <= tols["block_equivalence"],
                f"nine blocks vs order-9 quadrature, worst {worst:.2e}",
                results,
            )
            trunc4 = threemode.SeriesTruncation(k_max=4, tail_tol=1e-12)
            full = threemode.omega_matrix(model)
            worst = 0.0
            for t in (0.25, 0.5, 1.0):
                resummed = threemode.psi1_infinite(model, t, psi0, trunc4)
                exact = linalg.matrix_exponential_apply(full, t, psi0)[0]
                worst = max(worst, abs(resummed - exact))
            _inline_check(
                "resummation-vs-propagator",
                worst <= tols["resummation_vs_propagator"],
                f"k_max=4 resummation vs propagator, worst {worst:.2e}",
                results,
            )

    passed = sum(results)
    print(f"{passed}/{len(results)} checks passed for model '{key}'")
    return 0 if all(results) else 1
