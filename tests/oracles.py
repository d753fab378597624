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
* brute_force_pfq    — direct 50-digit summation of a hypergeometric series
* per_point_sweep    — the per-point spectral path the batched ε-grid path
                       replaced: one eigensolve per refined grid point, one
                       itertools.permutations matching loop per step and
                       one relabeled model per estimate
* sweep_row_dicts, rows_to_csv, rows_to_json
                     — the row-dict sweep writer the column writer in
                       oscpert.cli replaced: one dict per (ε, mode) row and
                       one f-string per value, fed by per_point_sweep
* loop_laplacian, loop_pairwise_split, loop_check_one_way,
  loop_certificate   — the element-by-element graph kernels the array
                       kernels in oscpert.graph replaced
* loop_series_block, loop_psi1_infinite
                     — the per-block if chain of lambdas that the block
                       table in oscpert.threemode replaced, recomputing the
                       frequencies and ratios for every block
* loop_term, loop_partial_sum, loop_convergence_residuals
                     — the per-order Dyson quadrature that dyson.terms
                       replaced: every coefficient rebuilds the trajectories
                       of orders 1..n, forms the rotation factor per order and
                       integrates with one temporary per formula
* inline_verify      — the `verify` command as inline checks, each with its
                       own tolerance lookup and PASS/FAIL line, that the
                       check table in oscpert.cli replaced
"""
from __future__ import annotations

import cmath
import json
import math
import os
from itertools import permutations

import mpmath
import numpy as np

from oscpert import dyson, eigenfreq, graph, linalg, threemode
from oscpert.benchmarks import COUPLING_TABLE, canonical_id, registry
from oscpert.errors import (
    InvalidDecomposition,
    NotSymmetrizable,
    OscPertError,
    ResolutionTooCoarse,
    TruncationNotConverged,
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


def brute_force_pfq(a_params, b_params, z: complex, terms: int = 200, dps: int = 50) -> complex:
    """Direct high-precision summation of sum_l prod(a)_l/prod(b)_l z^l/l!."""
    with mpmath.workdps(dps):
        zz = mpmath.mpc(z)
        total = mpmath.mpc(0)
        for ell in range(terms):
            num = mpmath.mpf(1)
            for a in a_params:
                num *= mpmath.rf(a, ell)
            den = mpmath.mpf(1)
            for b in b_params:
                den *= mpmath.rf(b, ell)
            total += num / den * zz**ell / mpmath.factorial(ell)
        return complex(total)


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


def per_point_path(m, eps_grid, margins=None) -> np.ndarray:
    """matched_path with one linalg.eigenvalues call per refined point.

    When `margins` is a list, each continuation step appends to it the cost
    of its second-best assignment less that of its best.
    """
    eps_grid = [float(e) for e in eps_grid]
    fine = [0.0]
    targets = {}
    for j, eps in enumerate(eps_grid):
        prev = fine[-1]
        if eps > prev:
            extra = int(math.ceil((eps - prev) / eigenfreq.CONTINUATION_STEP))
            points = [prev + (eps - prev) * (i + 1) / extra for i in range(extra)]
            points[-1] = eps
            fine.extend(points)
        targets.setdefault(eps, []).append(j)
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


def per_point_sweep(m, eps_grid):
    """(true values, estimates) as the per-point path computes them.

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
    return per_point_path(m, eps_grid), estimates


def sweep_row_dicts(m, eps_values, levels) -> list[dict]:
    """One row dict per (epsilon, mode), estimates restricted to `levels`."""
    true_path, estimates = per_point_sweep(m, eps_values)
    rows = []
    for eps, true_vals, ests in zip(eps_values, true_path.tolist(), estimates):
        refused = isinstance(ests, str)
        status = ests if refused else "ok"
        for mode, true in enumerate(true_vals, start=1):
            real = abs(true.imag) <= eigenfreq.IMAG_THRESHOLD * (1.0 + abs(true))
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


def loop_laplacian(g) -> np.ndarray:
    """graph.laplacian one edge and one diagonal entry at a time."""
    lap = np.zeros((g.n, g.n))
    for src, dst, weight in g.edges:
        lap[src, dst] -= weight
    np.fill_diagonal(lap, 0.0)
    for i in range(g.n):
        lap[i, i] = -lap[i].sum()
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
    """graph.symmetrizability_certificate visiting one (i, j) entry at a time."""
    arr = graph._as_real_square(L0, "L0")
    n = arr.shape[0]
    scale = max(1.0, float(np.abs(arr).max(initial=0.0)))
    if float(np.abs(arr.sum(axis=1)).max(initial=0.0)) > tol * scale:
        raise ValueError("L0 must have zero row sums within tol")
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
            for j in range(n):
                if j == i or (arr[i, j] == 0.0 and arr[j, i] == 0.0):
                    continue
                if arr[i, j] == 0.0 or arr[j, i] == 0.0:
                    raise NotSymmetrizable(
                        f"pair ({i},{j}) has a one-sided entry; no positive "
                        "scaling balances it",
                        witness=(i, j),
                    )
                if m[j] == 0.0:
                    ratio = arr[i, j] / arr[j, i]
                    if not ratio > 0:
                        raise NotSymmetrizable(
                            f"pair ({i},{j}) needs a non-positive ratio {ratio}",
                            witness=(i, j),
                        )
                    m[j] = m[i] * ratio
                    parent[j] = i
                    component.append(j)
                    stack.append(j)
                else:
                    lhs = m[i] * arr[i, j]
                    rhs = m[j] * arr[j, i]
                    if abs(lhs - rhs) > tol * max(abs(lhs), abs(rhs), 1.0):
                        raise NotSymmetrizable(
                            f"cycle through edge ({i},{j}) violates the "
                            f"balance condition: {lhs:.6g} != {rhs:.6g}",
                            witness=graph._tree_cycle(parent, i, j),
                        )
        comp = np.array(component)
        m[comp] /= m[comp].min()
    return m


def _branch_block_spec(m, block: str) -> dict:
    """The per-block if chain of lambdas that threemode's block table replaced."""
    w1, w2, w3 = threemode.effective_frequencies(m)
    num = m.a[0] * m.a[1] * m.a[2] * m.epsilon**3
    X = num / ((w1 - w2) * (w3 - w1))
    Y = num / ((w2 - w3) * (w3 - w1))
    Z = num / ((w1 - w2) * (w2 - w3))
    p12, p31, p23 = w1 - w2, w3 - w1, w2 - w3
    a1, a2, a3 = m.a
    eps = m.epsilon
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
            prefactor=a2 * a3 * eps**2 / (p12 * p31),
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
            prefactor=a2 * a3 * eps**2 / (p23 * p31),
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
            prefactor=a2 * a3 * eps**2 / (p12 * p23),
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
    """threemode.series_block built from the if chain, geometry recomputed per call."""
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
            if block == "A1" and k == 0:
                shell += 1.0
                continue
            (b1t, b1b), (b2t, b2b) = spec["binoms"](k, l)
            coeff = threemode.neg_binomial(b1t, b1b) * threemode.neg_binomial(b2t, b2b)
            if coeff == 0:
                continue
            uppers, lowers = threemode._cancel_params(*spec["hyp"](k, l))
            cell = (
                spec["sign"](k, l)
                * spec["prefactor"]
                * spec["ratio1"] ** k
                * spec["ratio2"] ** l
                * coeff
                * threemode._hyp_series(uppers, lowers, z, trunc, max_ell=max_ell)
            )
            shell += cell
        total += shell
        last_shell = abs(shell)
    if block == "A1":
        if order_cap is None:
            total += cmath.exp(z) - 1.0
        else:
            closure = 0.0 + 0.0j
            zpow = 1.0 + 0.0j
            for power in range(1, order_cap // 3 + 1):
                zpow *= z / power
                closure += zpow
            total += closure
    if shell_tol is not None and last_shell > shell_tol * max(abs(total), 1e-300):
        raise TruncationNotConverged(
            f"block {block}: shell k={trunc.k_max} still contributes "
            f"{last_shell:.3e} against total {abs(total):.3e}"
        )
    return total


def loop_psi1_infinite(m, t, psi0, trunc, shell_tol=None, order_cap=None) -> complex:
    """threemode.psi1_infinite as nine loop_series_block calls."""
    vec = linalg.as_vector(psi0, 3, "psi0")
    w1, w2, w3 = threemode.effective_frequencies(m)
    blocks = {
        name: loop_series_block(m, name, t, trunc, shell_tol=shell_tol, order_cap=order_cap)
        for name in threemode.BLOCK_NAMES
    }
    p1, p2, p3 = vec[0], vec[1], vec[2]
    return (
        (blocks["A1"] * p1 + blocks["A3"] * p3 + blocks["A2"] * p2)
        * cmath.exp(-1j * w1 * t)
        + (blocks["B1"] * p1 + blocks["B3"] * p3 + blocks["B2"] * p2)
        * cmath.exp(-1j * w3 * t)
        + (blocks["C1"] * p1 + blocks["C3"] * p3 + blocks["C2"] * p2)
        * cmath.exp(-1j * w2 * t)
    )


def _loop_running_integral(values: np.ndarray, dx: float) -> np.ndarray:
    """dyson._running_integral as plain array formulas, one temporary each."""
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
        raise ResolutionTooCoarse(
            f"steps={steps} too coarse for order {order}; need >= {10 * order}"
        )
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


def loop_partial_sum(sys, max_order, t, psi0, steps) -> np.ndarray:
    """dyson.partial_sum on the loop_term trajectories."""
    vec = _loop_validate(sys, max_order, t, psi0, steps)
    if max_order == 0 or t == 0.0:
        total_phi = vec
    else:
        trajectories = _loop_trajectories(sys, max_order, t, vec, steps)
        weights = sys.epsilon ** np.arange(max_order + 1)
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
