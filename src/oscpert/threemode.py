"""Three coupled oscillation modes with cyclic influence 1 -> 2 -> 3 -> 1.

The model is the 3x3 system i * dpsi/dt = Omega(eps) psi with

    Omega(eps) = diag(w1', w2', w3') + eps * [[0, 0, -a3],
                                              [-a1, 0, 0],
                                              [0, -a2, 0]],

where w_mu' = w_mu + eps * d_mu are the effective frequencies.  Component mu
is driven by its upstream neighbor in the cycle (1 by 3 through a3, 2 by 1
through a1, 3 by 2 through a2); the matrix with the reversed cycle is the
transpose and has an identical spectrum, so every spectral quantity below is
orientation-free.  Only the +i d/dt sign branch is implemented: solutions of
the -i branch are the complex conjugates of these.

The expansion of psi_1(t) in powers of eps has closed forms at orders 0..3,
each the coupling of the one cyclic path into mode 1 (_UPSTREAM, read by
every table of the cycle) times a divided difference of e^{-i lambda t} over
its frequencies.  The full series regroups into nine infinite sums (blocks
A1, A3, A2, B1, B3, B2, C1, C3, C2) built from the cyclic coupling ratios

    X = a1 a2 a3 eps^3 / ((w1'-w2') (w3'-w1'))
    Y = a1 a2 a3 eps^3 / ((w2'-w3') (w3'-w1'))
    Z = a1 a2 a3 eps^3 / ((w1'-w2') (w2'-w3'))

with 2F2 hypergeometric inner sums.  Each block is a residue of the
resolvent: its letter names the pole (w1', w3', w2' for A, B, C), its digit
the initial component psi_mu(0) and so the entry of row 1 of
adj(lambda - Omega) that multiplies it.  One rule (_FAMILIES, _CANCELS)
builds every block's cells, and psi1_infinite computes the frequencies,
ratios and prefactors once per call and sums all nine blocks.  Solutions for
psi_3 and psi_2 follow by the cyclic relabeling 1 -> 3 -> 2 -> 1 (with
X -> Y -> Z -> X), exposed as cyclic_view.  All denominators assume
pairwise-distinct effective frequencies; degenerate models are refused
rather than regularized.

Every 2F2 is a cell of a table built once per (k_max, order_cap), and one
array recurrence steps its distinct series together in one pass, for one
block or all nine; each cell's sum is bitwise that of summing it alone.  A
non-finite t raises ValueError, a 2F2 term or partial sum, a block total, a
phase w' * t, a psi_1 or a closed-form term that is not finite raises
NonFiniteResult, and a 2F2 sum past MAX_TERMS terms or a last shell past
shell_tol raises NonConvergence.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from operator import add
from types import MappingProxyType

import numpy as np

from . import linalg
from .dyson import PerturbedSystem
from .errors import DegenerateFrequencies, NonConvergence, NonFiniteResult

# Degeneracy refusal gap, as a fraction of the largest effective frequency.
DEGENERACY_GAP_FACTOR = 1e-6

# Terms after which a 2F2 series without order_cap raises NonConvergence.
MAX_TERMS = 500

# The cycle, written once: mode mu (0-based) is driven by mode
# _UPSTREAM[mu] = mu - 1 (mod 3), through that mode's coupling a.
_UPSTREAM = (2, 0, 1)


def _path(n: int) -> list[int]:
    """The order-n cyclic path into mode 1, 0-based, in the order it is
    walked: the n modes upstream of mode 1, then mode 1."""
    path = [0]
    for _ in range(n):
        path.insert(0, _UPSTREAM[path[0]])
    return path


def _path_coupling(a, eps, n: int):
    """(-eps)^n times the product, in path order, of the a of each mode _path(n)
    leaves; eps a float or an array, eps^n by linalg._pow_or_inf, once even when
    each a is an array of several models' a.  No other code multiplies the a.
    At eps = 0 the product's sign stands in for it: one past the float range
    gives the signed zero a finite one does, not inf * 0 = nan, so X, Y, Z and
    W are exactly 0 at eps = 0 for any finite a."""
    coupling = (-1) ** n * math.prod(a[mu] for mu in _path(n)[:-1])
    if isinstance(eps, np.ndarray):
        return np.where(eps == 0, np.copysign(1.0, coupling), coupling) * linalg._pow_or_inf(eps, n)
    return (coupling if eps else math.copysign(1.0, coupling)) * linalg._pow_or_inf(eps, n)


# The block digit (1-based psi(0) component) of order offset 0, 1, 2, the
# start of its path: "132"; the targets of cyclic_view in that order.
_DIGITS = "".join(str(_path(n)[0] + 1) for n in range(3))
TARGETS = tuple(f"psi{digit}" for digit in _DIGITS)

# Relabeling rows of the cyclic substitution 1 -> 3 -> 2 -> 1: position mu of
# the relabeled model takes the original subscript _SUBSCRIPT_ROWS[target][mu],
# the target and then the modes it drives in turn.
_SUBSCRIPT_ROWS = {f"psi{mu + 1}": (mu + 1, _UPSTREAM[_UPSTREAM[mu]] + 1, _UPSTREAM[mu] + 1) for mu in range(3)}


@dataclass(frozen=True)
class ThreeModeModel:
    """Parameters (w, a, d, eps) of the cyclically coupled 3-mode system."""

    omega: tuple[float, float, float]
    a: tuple[float, float, float]
    d: tuple[float, float, float]
    epsilon: float

    def __post_init__(self):
        for name in ("omega", "a", "d"):
            try:
                vals = tuple(linalg.as_real(x, name) for x in getattr(self, name))
            except (TypeError, ValueError) as exc:  # TypeError: not a sequence
                raise ValueError(f"{name} must be a sequence of real numbers: {exc}") from exc
            if len(vals) != 3:
                raise ValueError(f"{name} must have exactly 3 entries")
            object.__setattr__(self, name, vals)
        object.__setattr__(self, "epsilon", linalg.as_real(self.epsilon, "epsilon", 0, 1))

    def at_epsilon(self, epsilon: float) -> "ThreeModeModel":
        return replace(self, epsilon=epsilon)

    def to_json_dict(self) -> dict:
        return {
            "omega": list(self.omega),
            "a": list(self.a),
            "d": list(self.d),
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ThreeModeModel":
        """Parse {"omega": [3 numbers], "a": [...], "d": [...], "epsilon": number}.

        ``epsilon`` is optional and defaults to 0.

        Raises:
            ValueError: if ``data`` does not follow that schema.
        """
        if not (isinstance(data, dict) and {"omega", "a", "d"} <= data.keys()):
            raise ValueError('model JSON must be an object with keys "omega", "a" and "d"')
        return cls(omega=data["omega"], a=data["a"], d=data["d"], epsilon=data.get("epsilon", 0.0))


@dataclass(frozen=True)
class XYZ:
    """Cyclic coupling ratios; the small parameters of the expansion."""

    X: float
    Y: float
    Z: float


@dataclass(frozen=True)
class SeriesTruncation:
    """Truncation policy for the block sums.

    k_max caps the outer shell index; tail_tol is the relative tolerance for
    the inner hypergeometric sums (a sum stops once three consecutive terms
    fall below tail_tol relative to the partial sum, or below 1e-300, and
    after MAX_TERMS terms at most).  k_max must be an integer >= 1 and
    tail_tol a finite positive number; anything else raises ValueError.
    """

    k_max: int = 4
    tail_tol: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "k_max", linalg.as_integer(self.k_max, "k_max", 1))
        object.__setattr__(self, "tail_tol", linalg.as_real(self.tail_tol, "tail_tol", math.ulp(0.0)))  # > 0


def effective_frequencies(m: ThreeModeModel) -> tuple[float, float, float]:
    """(w1', w2', w3') with w_mu' = w_mu + eps * d_mu.

    Raises:
        DegenerateFrequencies: if any pairwise gap is below the configured
            fraction of the largest |w'| (of 1 when all are 0).
    """
    freqs = tuple(w + m.epsilon * dw for w, dw in zip(m.omega, m.d))
    gap = DEGENERACY_GAP_FACTOR * (max(abs(f) for f in freqs) or 1.0)
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(freqs[i] - freqs[j]) < gap:
                raise DegenerateFrequencies(
                    f"effective frequencies {i + 1} and {j + 1} differ by "
                    f"{abs(freqs[i] - freqs[j]):.3e}, below gap {gap:.3e}"
                )
    return freqs


def omega_matrix(m: ThreeModeModel, epsilon=None) -> np.ndarray:
    """Full system matrix Omega(eps) as a real 3x3 array.

    A 1-D array of epsilon values gives the (N, 3, 3) stack of Omega(eps_k).
    """
    eps = linalg.as_array(m.epsilon if epsilon is None else epsilon, "epsilon", float)
    if not np.isfinite(eps).all():
        raise ValueError("epsilon contains non-finite entries")
    mat = np.zeros(eps.shape + (3, 3))
    mat[..., (0, 1, 2), (0, 1, 2)] = np.add(m.omega, eps[..., None] * np.array(m.d))
    mat[..., (0, 1, 2), _UPSTREAM] = -eps[..., None] * np.array([m.a[up] for up in _UPSTREAM])
    return mat


def perturbed_system(m: ThreeModeModel) -> PerturbedSystem:
    """The model as a diagonal-plus-perturbation system at its epsilon.

    The d-shifts ride inside the effective frequencies, so the perturbation
    is purely off-diagonal and the expansion weight is epsilon itself.
    """
    omegaI = np.zeros((3, 3))
    omegaI[(0, 1, 2), _UPSTREAM] = [-m.a[up] for up in _UPSTREAM]
    return PerturbedSystem(omega0=effective_frequencies(m), omegaI=omegaI, epsilon=m.epsilon)


def xyz(m: ThreeModeModel) -> XYZ:
    """The coupling ratios X, Y, Z of the model at its epsilon: exactly 0 at
    eps = 0 for any finite a, so refused only at eps != 0."""
    _, families = _block_geometry(m)
    return XYZ(X=families["A"][0], Y=families["B"][0], Z=families["C"][0])


def cyclic_view(
    m: ThreeModeModel, target: str
) -> tuple[ThreeModeModel, tuple[int, int, int]]:
    """Relabeled model whose psi_1 machinery yields the target component.

    Returns the relabeled model and the index map: entry mu-1 of the map is
    the original 1-based mode that plays role mu in the view.  For psi3 the
    map is (3, 1, 2); xyz(view).X equals Y of the original model to
    rounding only, as xyz multiplies the view's permuted a1 * a2 * a3.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    row = _SUBSCRIPT_ROWS[target]
    omega, a, d = (tuple(values[r - 1] for r in row) for values in (m.omega, m.a, m.d))
    return ThreeModeModel(omega, a, d, m.epsilon), row


def _phases(freqs, t: float) -> list[complex]:
    """exp(-1j * w * t) for each w of freqs; NonFiniteResult where w * t overflows."""
    args = [-1j * w * t for w in freqs]
    if not all(map(cmath.isfinite, args)):
        raise NonFiniteResult(f"a phase w * t overflows at t={t!r}")
    return list(map(cmath.exp, args))


def psi1_analytic(m: ThreeModeModel, n: int, t: float, psi0) -> complex:
    """Closed-form term eps^n psi_1^(n)(t) for n in {0, 1, 2, 3}: the
    coupling of _path(n) times the confluent divided difference of
    e^{-i lambda t} over the effective frequencies it visits (Hermite-Genocchi)
    times psi(0) of its first mode (psi_1, psi_3, psi_2, psi_1).  Order 3's
    repeated mode sits next to its copy, their difference -1j t e^{-i w1' t},
    so at t = 0 every order n >= 1 is exactly zero.  A phase w' * t that
    overflows, or a term that is not finite, raises NonFiniteResult."""
    n = linalg.as_integer(n, "n")
    if n not in (0, 1, 2, 3):
        raise ValueError("closed forms exist for orders 0..3 only")
    t = linalg.as_real(t, "t")
    vec = linalg.as_vector(psi0, 3, "psi0")
    w = effective_frequencies(m)
    phases = _phases(w, t)
    nodes = sorted(_path(n))  # the repeated mode next to its copy
    diffs = [phases[mu] for mu in nodes]
    for gap in range(1, n + 1):
        diffs = [-1j * t * lo if x == y else (hi - lo) / (w[y] - w[x])
                 for x, y, lo, hi in zip(nodes, nodes[gap:], diffs, diffs[1:])]
    value = _path_coupling(m.a, m.epsilon, n) * diffs[0] * complex(vec[_path(n)[0]])
    if not cmath.isfinite(value):
        raise NonFiniteResult(f"psi_1 term of order {n} at t={t!r} is not finite: {value}")
    return value


# The cells' series advance together this many term indices per array step.
_CHUNK = 32


def _term_ratios(upper, lower, ell):
    """Term ratios num / den, one row per term index in ell, of the series
    whose NaN-padded parameters are the columns of upper and lower (num =
    prod(a + ell) in order, a pad counting 1)."""
    ell = np.asarray(ell, dtype=float)[:, None]
    num, den = np.ones((2, len(ell), upper.shape[1]))
    for prod, params in ((num, upper), (den, lower)):
        for p in params:
            prod *= np.where(np.isnan(p), 1.0, p + ell)
    return num / den


def _hyp_sums(ratios, y, limit, tail_tol=None) -> list:
    """Sums of the block table's series, one array step per term index.

    Column c holds one series: its argument 1j * y[c], its term limit[c]
    and its ratios[:, c], one row per term index below limit[c].  Every
    parameter of a block column is an integer >= 1, so no ratio is zero or
    infinite.  Term ell+1 is term ell * ratios[ell] * z / (ell + 1), and
    every returned sum is bitwise the scalar loop's in Python complex
    arithmetic.  A cell stops after term limit[c] and, with tail_tol,
    after three consecutive terms below tail_tol * |sum| or 1e-300.
    Returns per cell its sum, or the refusal to raise when it is reached:
    NonConvergence when tail_tol is given and term limit[c] is reached
    first, or NonFiniteResult at the first term whose value or
    running sum is not finite or, with tail_tol, whose magnitude overflows
    from finite parts.
    """
    cells = len(y)
    term = total = np.repeat([[1.0], [0.0]], cells, axis=1)
    result, errors = total.copy(), {}
    flags = np.zeros((2, cells), bool)
    q, s = np.empty((2, 2, cells))
    zw, pending = np.stack([-y, y]), limit > 0
    with np.errstate(all="ignore"):
        end = int(limit.max(initial=0))
        for start in range(0, end, _CHUNK):
            ell = np.arange(start, min(start + _CHUNK, end), dtype=float)[:, None]
            ratio = ratios[start : start + len(ell)]
            sums = np.empty((len(ell) + 1, 2, cells))
            sums[0], terms = total, sums[1:]
            for r, row, d in zip(ratio, terms, (ell[:, 0] + 1.0).tolist()):
                np.multiply(term[::-1], r, out=q)  # term * r with its parts swapped
                np.multiply(q, zw, out=s)
                term = np.divide(s, d, out=row)
            sums = np.add.accumulate(sums, axis=0)
            stop = ell + 1 >= limit
            done, over = np.ones_like(stop), np.zeros_like(stop)  # the limit ends a sum
            bad = pending & ~np.isfinite(sums[-1]).all(axis=0)  # never finite again
            over[:, bad] = ~np.isfinite(sums[1:, :, bad]).all(axis=1)
            if tail_tol is not None:
                mag, size = (np.hypot(x[:, 0], x[:, 1]) for x in (terms, sums[1:]))
                if not np.isfinite(mag.max() + size.max()):  # abs() overflows
                    over |= np.isinf(mag) | np.isinf(size)
                small = np.concatenate((flags, mag < np.fmax(tail_tol * size, 1e-300)))
                flags, done = small[-2:], small[2:] & small[1:-1] & small[:-2]
                stop |= done
            stop |= over
            cols = np.flatnonzero(pending & stop.any(axis=0))
            js = stop[:, cols].argmax(axis=0)
            overflowed = over[js, cols]
            capped = ~overflowed & ~done[js, cols]
            result[:, cols] = sums[js + 1, :, cols].T
            for c in cols[capped]:
                errors[c] = NonConvergence(f"no convergence within {limit[c]} terms")
            for c, j in zip(cols[overflowed], js[overflowed]):
                why = "overflows from finite parts" if np.isfinite(result[:, c]).all() else "is not finite"
                errors[c] = NonFiniteResult(f"|term {start + j + 1}| or |partial sum| {why}")
            pending[cols] = False
            if not pending.any():
                break
            total = sums[-1]
    out = np.ascontiguousarray(result.T).view(complex)[:, 0].tolist()
    return [errors.get(c, value) for c, value in enumerate(out)]


# The blocks are residues of the resolvent: psi_1(t) sums psi_c(0) times the
# contour integral of e^{-i lambda t} adj(lambda - Omega)_1c / det(lambda -
# Omega) / (2 pi i), with 1/det expanded in powers of eps^3 a1 a2 a3 / D,
# D = prod(lambda - w_mu'), and adjugate row 1 (lambda - w2') (lambda - w3'),
# -eps a3 (lambda - w2'), eps^2 a2 a3 for c = 1, 3, 2: for order offset n,
# the coupling of _path(n) times the factors of the modes off that path.
# Family A/B/C is the residue at its pole f, and Leibniz's rule shares its
# derivatives among e^{-i lambda t} (the inner 2F2 term index), the factor of
# mode a (l) and that of mode b (kb).  Per family: f, a and b, 0-based.
_FAMILIES = {"A": (0, 1, 2), "B": (2, 1, 0), "C": (1, 2, 0)}
# Per order offset 0/1/2 (the block's digit 1/3/2): the modes whose factor
# the adjugate entry cancels, those off its path.  Cell (k, l) has first =
# [f cancelled], ca = k+1-[a cancelled], cb = k+1-[b cancelled] and
# kb = k-first-l >= 0:
#   prefactor * ratio1**k * ratio2**l * (ca)_l/l! * (cb)_kb/kb!
#     * 2F2(ca+l, cb+kb; ca, cb; -1j * W * t),
# its inner term ell of expansion order 3*(k + ell) + offset.
_CANCELS = tuple({0, 1, 2} - set(_path(n)) for n in range(3))
BLOCK_NAMES = tuple(family + digit for family in _FAMILIES for digit in _DIGITS)


def _block_geometry(m: ThreeModeModel):
    """Effective frequencies, and per block family the tuple
    (W, ratio1, ratio2, prefactors indexed by order offset) of the residue
    at its pole f: with d_x = w_f' - w_x', W = -eps^3 a1 a2 a3 / (d_a d_b)
    (X, Y or Z), ratio1 = -W / d_b and ratio2 = d_b / d_a.  At eps != 0
    only + - * / touch the model's numbers, so Fraction fields give exact
    values.

    Raises:
        DegenerateFrequencies: as effective_frequencies does.
        NonFiniteResult: X, Y or Z is not finite (any other value is
            returned as it is, for the block that reads it to refuse).
    """
    w = effective_frequencies(m)
    # adjugate row 1 less its cancelled factors, then the cycle's -eps^3 a1 a2 a3
    *leads, cycle = (_path_coupling(m.a, m.epsilon, n) for n in range(4))
    families = {}
    for family, (f, a, b) in _FAMILIES.items():
        d_a, d_b = w[f] - w[a], w[f] - w[b]
        W = cycle / (d_a * d_b)
        prefactors = []
        for lead, cancels in zip(leads, _CANCELS):
            # a cancelled pole leaves (-d_b)**first over mode b's own 1/d_b
            # (b is then mode 1, which no entry cancels): -1
            first = f in cancels
            den = (1 if a in cancels else d_a) * (1 if first or b in cancels else d_b)
            prefactors.append((-lead if first else lead) / den)
        families[family] = (W, -W / d_b, d_b / d_a, tuple(prefactors))
    X, Y, Z = (v[0] for v in families.values())
    if not all(map(math.isfinite, (X, Y, Z))):
        raise NonFiniteResult(f"coupling ratios are not finite: X={X}, Y={Y}, Z={Z}")
    return w, families


def _rising(c: int, m: int) -> int:
    """(c)_m / m!, the coefficient of x**m in (1 - x)**-c."""
    return math.prod(range(c, c + m)) // math.factorial(m)


@lru_cache(maxsize=16)
def _cell_table(k_max: int, order_cap: int | None, max_terms: int):
    """The cells of the nine blocks, for any model and t, as read-only data
    built from _FAMILIES and _CANCELS: per block its shells
    ((k, ((l, coefficient, column), ...)), ...); per column, one series in
    first-occurrence order, its NaN-padded upper and lower (2, C) parameters
    (each an integer >= 1) left once equal upper and lower ones cancel,
    family (A/B/C as 0/1/2), term limit (max_ell, or max_terms without
    order_cap) and _term_ratios up to the largest limit.  Cells whose sorted
    parameters, family and limit agree share a column (at k_max=4 the 120
    cells are 53)."""
    shells, columns = {}, {}
    for block in BLOCK_NAMES:
        f, a, b = _FAMILIES[block[0]]
        offset = _DIGITS.index(block[1])
        cancels = _CANCELS[offset]
        first = int(f in cancels)
        rows = []
        for k in range(first, k_max + 1):
            max_ell = max_terms if order_cap is None else (order_cap - offset - 3 * k) // 3
            if max_ell < 0:
                continue
            ca, cb = k + 1 - (a in cancels), k + 1 - (b in cancels)
            row = []
            for l in range(0, k - first + 1):
                kb = k - first - l
                coeff = _rising(ca, l) * _rising(cb, kb)
                upper, lower = Counter((ca + l, cb + kb)), Counter((ca, cb))
                params = (upper - lower, lower - upper)
                # None == None; NaN != NaN
                up, lo = (sorted(p.elements()) + [None] * (2 - p.total()) for p in params)
                column = columns.setdefault((*up, *lo, "ABC".index(block[0]), max_ell), len(columns))
                row.append((l, coeff, column))
            rows.append((k, tuple(row)))
        shells[block] = tuple(rows)
    cols = np.array(list(columns), dtype=float).reshape(-1, 6).T
    upper, lower, family, limit = cols[0:2], cols[2:4], cols[4].astype(int), cols[5].astype(int)
    ratios = _term_ratios(upper, lower, np.arange(limit.max(initial=0)))
    for array in (upper, lower, family, limit, ratios):
        array.flags.writeable = False
    return MappingProxyType(shells), upper, lower, family, limit, ratios


def _block_sums(m: ThreeModeModel, names: tuple, t: float, trunc, shell_tol, order_cap):
    """Effective frequencies, and series_block for each of names, from one
    _hyp_sums pass over the table's columns, each cell reading the sum of
    its column.  The arguments are read before the model.  Each block raises
    the refusal of its first failing cell in (k, l) order, then
    NonFiniteResult for a total that is not finite, then NonConvergence
    for its last shell past shell_tol, before the next block is totalled."""
    t = linalg.as_real(t, "t")
    order_cap = None if order_cap is None else linalg.as_integer(order_cap, "order_cap")
    if order_cap is not None and order_cap // 3 > MAX_TERMS:  # A1's k = 0 cell: order_cap // 3 terms
        raise ValueError(f"order_cap must be <= {3 * MAX_TERMS + 2} (MAX_TERMS={MAX_TERMS}), got {order_cap}")
    shell_tol = None if shell_tol is None else linalg.as_real(shell_tol, "shell_tol", 0)
    freqs, families = _block_geometry(m)
    shells, _, _, family, limit, ratios = _cell_table(trunc.k_max, order_cap, MAX_TERMS)
    # every argument -1j * W * t has a zero real part
    y = np.array([(-1j * families[f][0] * t).imag for f in "ABC"])[family]
    tail_tol = trunc.tail_tol if order_cap is None else None
    sums = _hyp_sums(ratios, y, limit, tail_tol)
    # ratio1**k and ratio2**l per family; an overflow is inf, so the total of
    # a block that reads it is not finite, as is one whose prefactor is not
    powers = {
        f: [[linalg._pow_or_inf(r, k) for k in range(trunc.k_max + 1)] for r in families[f][1:3]]
        for f in {block[0] for block in names}
    }
    blocks = {}
    for block in names:
        pow1, pow2 = powers[block[0]]
        prefactor = families[block[0]][3][_DIGITS.index(block[1])]
        total, last_shell = 0.0 + 0.0j, 0.0
        for k, cells in shells[block]:
            shell = 0.0 + 0.0j
            for l, coeff, column in cells:
                weight = prefactor * pow1[k] * pow2[l] * coeff
                if not isinstance(sums[column], complex):
                    raise sums[column]
                shell += weight * sums[column]
            total += shell
            last_shell = abs(shell)
        if not cmath.isfinite(total):
            raise NonFiniteResult(f"block {block} at t={t!r} is not finite: {total}")
        if shell_tol is not None and last_shell > shell_tol * max(abs(total), 1e-300):
            raise NonConvergence(
                f"block {block}: shell k={trunc.k_max} still contributes "
                f"{last_shell:.3e} against total {abs(total):.3e}"
            )
        blocks[block] = total
    return freqs, blocks


def series_block(
    m: ThreeModeModel,
    block: str,
    t: float,
    trunc: SeriesTruncation,
    shell_tol: float | None = None,
    order_cap: int | None = None,
) -> complex:
    """One of the nine infinite-sum blocks, truncated at trunc.k_max shells.

    The cells of all nine blocks are summed in one pass, as for
    psi1_infinite, and only this block's are totalled.

    With order_cap set, every inner series is additionally cut so that no
    retained term exceeds total expansion order eps^order_cap; the block
    then holds exactly the expansion content of orders <= order_cap that
    fit inside k_max shells (used for truncation-equivalence studies
    against fixed-order quadrature sums).

    Raises:
        ValueError: block is not one of BLOCK_NAMES, t is not finite,
            order_cap or shell_tol is not a number of its kind, or
            order_cap // 3 > MAX_TERMS; before the model is read.
        NonFiniteResult: X, Y or Z, a cell's term or partial sum, or the
            block total (so a prefactor or ratio power) is not finite.
        NonConvergence: a cell's 2F2 series reaches MAX_TERMS terms
            without converging (only without order_cap), or, only when
            shell_tol is given, the last retained shell still contributes
            more than shell_tol relative to the accumulated sum (deliberate
            fixed-depth truncations pass shell_tol=None).
    """
    if block not in BLOCK_NAMES:
        raise ValueError(f"unknown block {block!r}; expected one of {BLOCK_NAMES}")
    return _block_sums(m, (block,), t, trunc, shell_tol, order_cap)[1][block]


def psi1_infinite(
    m: ThreeModeModel,
    t: float,
    psi0,
    trunc: SeriesTruncation,
    shell_tol: float | None = None,
    order_cap: int | None = None,
) -> complex:
    """psi_1(t) resummed to all orders through trunc.k_max shells.

    Assembles (A1 p1 + A3 p3 + A2 p2) e^{-i w1' t}
            + (B1 p1 + B3 p3 + B2 p2) e^{-i w3' t}
            + (C1 p1 + C3 p3 + C2 p2) e^{-i w2' t}
    with p_mu = psi_mu(0), summed left to right from its first term, so its
    signed zeros are this expression's.  Raises as series_block does, block
    by block in BLOCK_NAMES order, with psi0 read first, and NonFiniteResult
    when a phase w' * t overflows or the assembly is not finite.
    """
    vec = linalg.as_vector(psi0, 3, "psi0")
    freqs, blocks = _block_sums(m, BLOCK_NAMES, t, trunc, shell_tol, order_cap)
    phases = _phases(freqs, t)
    with np.errstate(all="ignore"):
        value = reduce(add, (
            reduce(add, (blocks[family + digit] * vec[int(digit) - 1] for digit in _DIGITS)) * phases[f]
            for family, (f, _, _) in _FAMILIES.items()
        ))
    if not cmath.isfinite(value):
        raise NonFiniteResult(f"psi_1 at t={t!r} is not finite: {value}")
    return value
