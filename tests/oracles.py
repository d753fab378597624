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
                       replaced: one eigensolve per refined grid point and
                       one relabeled model per estimate
* loop_laplacian, loop_pairwise_split, loop_check_one_way,
  loop_certificate   — the element-by-element graph kernels the array
                       kernels in oscpert.graph replaced
"""
from __future__ import annotations

import cmath
import math
from itertools import permutations

import mpmath
import numpy as np

from oscpert import eigenfreq, graph, linalg, threemode
from oscpert.errors import InvalidDecomposition, NotSymmetrizable, OscPertError


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


def per_point_path(m, eps_grid) -> np.ndarray:
    """matched_path with one linalg.eigenvalues call per refined point."""
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
        best = min(
            permutations(range(3)),
            key=lambda p: sum(abs(vals[p[i]] - current[i]) for i in range(3)),
        )
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
