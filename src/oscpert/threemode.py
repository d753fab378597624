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
and the full series regroups into nine infinite sums (blocks A1, A3, A2,
B1, B3, B2, C1, C3, C2) built from the cyclic coupling ratios

    X = a1 a2 a3 eps^3 / ((w1'-w2') (w3'-w1'))
    Y = a1 a2 a3 eps^3 / ((w2'-w3') (w3'-w1'))
    Z = a1 a2 a3 eps^3 / ((w1'-w2') (w2'-w3'))

with 2F2 hypergeometric inner sums.  The blocks differ only in integer
offsets, a sign rule and a prefactor, so they are the rows of one table
(_BLOCKS) read by one block sum; psi1_infinite computes the frequencies,
ratios and prefactors once per call and sums all nine rows.  Solutions for
psi_3 and psi_2 follow by the cyclic relabeling 1 -> 3 -> 2 -> 1 (with
X -> Y -> Z -> X), exposed as cyclic_view.  All denominators assume
pairwise-distinct effective frequencies; degenerate models are refused
rather than regularized.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .dyson import PerturbedSystem
from .errors import (
    DegenerateFrequencies,
    InvalidLowerParameter,
    MaxTermsExceeded,
    TruncationNotConverged,
)

# Degeneracy refusal gap, as a fraction of the largest effective frequency.
DEGENERACY_GAP_FACTOR = 1e-6

TARGETS = ("psi1", "psi3", "psi2")

# Relabeling rows of the cyclic substitution 1 -> 3 -> 2 -> 1: position mu of
# the relabeled model takes the original subscript _SUBSCRIPT_ROWS[target][mu].
_SUBSCRIPT_ROWS = {"psi1": (1, 2, 3), "psi3": (3, 1, 2), "psi2": (2, 3, 1)}


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
                vals = tuple(float(x) for x in getattr(self, name))
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"{name} must be a sequence of numbers: {exc}") from exc
            if len(vals) != 3:
                raise ValueError(f"{name} must have exactly 3 entries")
            if not all(math.isfinite(x) for x in vals):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, vals)
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")

    def at_epsilon(self, epsilon: float) -> "ThreeModeModel":
        return replace(self, epsilon=float(epsilon))

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
        epsilon = data.get("epsilon", 0.0)
        if not isinstance(epsilon, (int, float)):
            raise ValueError(f"model epsilon must be a number, got {epsilon!r}")
        return cls(omega=data["omega"], a=data["a"], d=data["d"], epsilon=float(epsilon))


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
    the inner hypergeometric sums (a term is negligible when three
    consecutive terms fall below tail_tol relative to the partial sum);
    max_terms_per_hyp caps the inner summation length.
    """

    k_max: int = 4
    tail_tol: float = 1e-12
    max_terms_per_hyp: int = 500

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")
        if self.max_terms_per_hyp < 1:
            raise ValueError("max_terms_per_hyp must be >= 1")


def effective_frequencies(m: ThreeModeModel) -> tuple[float, float, float]:
    """(w1', w2', w3') with w_mu' = w_mu + eps * d_mu.

    Raises:
        DegenerateFrequencies: if any pairwise gap is below the configured
            fraction of the largest effective frequency.
    """
    return shifted_frequencies(m.omega, m.d, m.epsilon)


def shifted_frequencies(omega, d, epsilon: float) -> tuple[float, float, float]:
    """effective_frequencies from raw parameters, without building a model."""
    freqs = tuple(w + epsilon * dw for w, dw in zip(omega, d))
    gap = DEGENERACY_GAP_FACTOR * max(1e-12, max(abs(f) for f in freqs))
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
    eps = np.asarray(m.epsilon if epsilon is None else epsilon, dtype=float)
    a1, a2, a3 = m.a
    mat = np.zeros(eps.shape + (3, 3))
    mat[..., (0, 1, 2), (0, 1, 2)] = np.add(m.omega, eps[..., None] * np.array(m.d))
    mat[..., 0, 2] = -eps * a3
    mat[..., 1, 0] = -eps * a1
    mat[..., 2, 1] = -eps * a2
    return mat


def coupling_matrix(m: ThreeModeModel) -> np.ndarray:
    """Off-diagonal coupling (the eps-linear part without the d shifts)."""
    a1, a2, a3 = m.a
    return np.array([[0.0, 0.0, -a3], [-a1, 0.0, 0.0], [0.0, -a2, 0.0]])


def perturbed_system(m: ThreeModeModel) -> PerturbedSystem:
    """The model as a diagonal-plus-perturbation system at its epsilon.

    The d-shifts ride inside the effective frequencies, so the perturbation
    is purely off-diagonal and the expansion weight is epsilon itself.
    """
    return PerturbedSystem(
        omega0=effective_frequencies(m),
        omegaI=coupling_matrix(m),
        epsilon=m.epsilon,
    )


def xyz(m: ThreeModeModel) -> XYZ:
    """The coupling ratios X, Y, Z of the model at its epsilon."""
    _, families = _block_geometry(m)
    return XYZ(X=families["A"][0], Y=families["B"][0], Z=families["C"][0])


def cyclic_view(
    m: ThreeModeModel, target: str
) -> tuple[ThreeModeModel, tuple[int, int, int]]:
    """Relabeled model whose psi_1 machinery yields the target component.

    Returns the relabeled model and the index map: entry mu-1 of the map is
    the original 1-based mode that plays role mu in the view.  For psi3 the
    map is (3, 1, 2); xyz(view).X equals Y of the original model.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    row = _SUBSCRIPT_ROWS[target]
    idx = tuple(r - 1 for r in row)
    view = ThreeModeModel(
        omega=tuple(m.omega[i] for i in idx),
        a=tuple(m.a[i] for i in idx),
        d=tuple(m.d[i] for i in idx),
        epsilon=m.epsilon,
    )
    return view, row


def psi1_analytic(m: ThreeModeModel, n: int, t: float, psi0) -> complex:
    """Closed-form term eps^n psi_1^(n)(t) for n in {0, 1, 2, 3}.

    The order-n term multiplies the initial component that starts the
    n-step cyclic path ending at mode 1: psi_1(0) for n in {0, 3},
    psi_3(0) for n = 1, psi_2(0) for n = 2.
    """
    if n not in (0, 1, 2, 3):
        raise ValueError("closed forms exist for orders 0..3 only")
    vec = linalg.as_vector(psi0, 3, "psi0")
    w1, w2, w3 = effective_frequencies(m)
    a1, a2, a3 = m.a
    eps = m.epsilon
    e1 = cmath.exp(-1j * w1 * t)
    e2 = cmath.exp(-1j * w2 * t)
    e3 = cmath.exp(-1j * w3 * t)
    if n == 0:
        return e1 * vec[0]
    if n == 1:
        return eps * a3 * (e1 - e3) / (w3 - w1) * vec[2]
    if n == 2:
        return (
            eps**2
            * a2
            * a3
            / (w3 - w1)
            * ((e2 - e3) / (w2 - w3) - (e1 - e2) / (w1 - w2))
            * vec[1]
        )
    p12 = w1 - w2
    p31 = w3 - w1
    p23 = w2 - w3
    coeff = eps**3 * a1 * a2 * a3
    return (
        coeff
        * (
            e1 / (p12 * p31**2)
            - e1 / (p12**2 * p31)
            - 1j * t * e1 / (p12 * p31)
            - e2 / (p12**2 * p23)
            + e3 / (p31**2 * p23)
        )
        * vec[0]
    )


def neg_binomial(n: int, k: int) -> int:
    """Binomial coefficient extended to negative integer arguments.

    For n >= 0 this is the usual C(n, k) (zero outside 0 <= k <= n).  For
    n < 0 the nonzero regions are k >= 0, where
    C(n, k) = (-1)^k C(k - n - 1, k), and k <= n, where
    C(n, k) = (-1)^(n-k) C(-k - 1, n - k); everything else is zero.
    """
    n = int(n)
    k = int(k)
    if n >= 0:
        if 0 <= k <= n:
            return math.comb(n, k)
        return 0
    if k >= 0:
        return (-1) ** k * math.comb(k - n - 1, k)
    if k <= n:
        return (-1) ** (n - k) * math.comb(-k - 1, n - k)
    return 0


def _hyp_series(
    uppers: list[float],
    lowers: list[float],
    z: complex,
    trunc: SeriesTruncation,
    max_ell: int | None = None,
) -> complex:
    """Shared summation core: adaptive when max_ell is None, else the exact
    partial sum of terms 0..max_ell."""
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    small_streak = 0
    limit = trunc.max_terms_per_hyp if max_ell is None else max_ell
    for ell in range(limit):
        num = 1.0
        for a in uppers:
            num *= a + ell
        if num == 0.0:
            return total  # a non-positive upper parameter: series terminated
        den = 1.0
        for b in lowers:
            den *= b + ell
        if den == 0.0:
            raise InvalidLowerParameter(
                f"lower parameter hits zero at term {ell} for b={lowers}"
            )
        term = term * (num / den) * z / (ell + 1)
        total += term
        if max_ell is not None:
            continue
        if abs(term) < trunc.tail_tol * abs(total) or abs(term) < 1e-300:
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
    if max_ell is None:
        raise MaxTermsExceeded(
            f"no convergence within {trunc.max_terms_per_hyp} terms",
            partial=total,
            last_term=term,
        )
    return total


def hyp_pfq(a_params, b_params, z: complex, trunc: SeriesTruncation) -> complex:
    """Generalized hypergeometric series pFq(a; b; z).

    Exactly matching upper/lower parameter pairs cancel before summation
    (so e.g. 2F2(a, b; a, b; z) reduces to exp(z) and 2F2(1, 0; 0, 1; z)
    likewise).  A remaining non-positive-integer upper parameter terminates
    the series (polynomial case).  Terms accumulate until three consecutive
    ones fall below tail_tol relative to the partial sum.

    Raises:
        InvalidLowerParameter: a surviving lower parameter hits a
            non-positive integer before the series terminates.
        MaxTermsExceeded: no convergence within max_terms_per_hyp terms.
    """
    uppers, lowers = _cancel_params(a_params, b_params)
    return _hyp_series(uppers, lowers, complex(z), trunc)


def _cancel_params(a_params, b_params) -> tuple[list[float], list[float]]:
    uppers = [float(a) for a in a_params]
    lowers = [float(b) for b in b_params]
    for a in list(uppers):
        if a in lowers:
            uppers.remove(a)
            lowers.remove(a)
    return uppers, lowers


# Block table.  Cell (k, l) of a block is
#   (-1)**(sk*k + l + s0) * prefactor * ratio1**k * ratio2**l
#     * C(2k-l+x, k-l+y) * C(k+l+z, l)
#     * 2F2(2k-l+u1, k+l+u2; k+v1, k+v2; -1j * W * t)
# for 0 <= l <= k, k = 0 .. k_max; rows with first = 1 start at k = 1 and
# stop l at k - 1.  The family letter A/B/C selects W = X/Y/Z, ratio1 and
# ratio2.  The order offset 0/1/2 selects the prefactor, and names the
# initial component the block multiplies (p1/p3/p2): cell (k, inner term
# ell) is of expansion order 3*(k + ell) + offset.
_BLOCKS = {
    #      sk s0   x   y   z u1 u2 v1 v2 first offset
    "A1": (0, 0, -1,  0, -1, 0, 0, 0, 0, 0, 0),
    "A3": (0, 0,  0,  0, -1, 1, 0, 0, 1, 0, 1),
    "A2": (0, 1,  0,  0,  0, 1, 1, 1, 1, 0, 2),
    "B1": (1, 1, -1, -1, -1, 0, 0, 0, 1, 1, 0),
    "B3": (1, 1,  0,  0, -1, 1, 0, 0, 1, 0, 1),
    "B2": (1, 1,  0,  0,  0, 1, 1, 1, 1, 0, 2),
    "C1": (0, 1, -1, -1, -1, 0, 0, 0, 1, 1, 0),
    "C3": (0, 0, -1, -1,  0, 0, 1, 1, 1, 1, 1),
    # sign alternates in l only; the (k+l)-alternation used by the
    # B-family contradicts the order-5 expansion and breaks the t=0
    # recombination identity here.
    "C2": (0, 1,  0,  0,  0, 1, 1, 1, 1, 0, 2),
}
BLOCK_NAMES = tuple(_BLOCKS)


def _block_geometry(m: ThreeModeModel):
    """Effective frequencies, and per block family the tuple
    (W, ratio1, ratio2, prefactors indexed by order offset).

    Raises:
        DegenerateFrequencies: as effective_frequencies does.
    """
    freqs = w1, w2, w3 = effective_frequencies(m)
    p12, p31, p23 = w1 - w2, w3 - w1, w2 - w3
    a1, a2, a3 = m.a
    eps = m.epsilon
    num = a1 * a2 * a3 * eps**3
    lin = a3 * eps
    quad = a2 * a3 * eps**2
    X = num / (p12 * p31)
    Y = num / (p23 * p31)
    Z = num / (p12 * p23)
    families = {
        "A": (X, X / p31, p31 / p12, (1.0, lin / p31, quad / (p12 * p31))),
        "B": (Y, Y / p31, p31 / p23, (1.0, lin / p31, quad / (p23 * p31))),
        "C": (Z, Z / p12, p12 / p23, (1.0, lin / p23, quad / (p12 * p23))),
    }
    return freqs, families


def _block_sum(
    block: str,
    families: dict,
    t: float,
    trunc: SeriesTruncation,
    shell_tol: float | None,
    order_cap: int | None,
) -> complex:
    """series_block on a precomputed _block_geometry family map."""
    sk, s0, x, y, z, u1, u2, v1, v2, first, offset = _BLOCKS[block]
    w_ratio, ratio1, ratio2, prefactors = families[block[0]]
    prefactor = prefactors[offset]
    arg = -1j * w_ratio * t
    total = 0.0 + 0.0j
    last_shell = 0.0
    for k in range(first, trunc.k_max + 1):
        max_ell = None
        if order_cap is not None:
            max_ell = (order_cap - offset - 3 * k) // 3
            if max_ell < 0:
                continue
        shell = 0.0 + 0.0j
        for l in range(0, k - first + 1):
            if block == "A1" and k == 0:
                shell += 1.0
                continue
            coeff = neg_binomial(2 * k - l + x, k - l + y) * neg_binomial(k + l + z, l)
            if coeff == 0:
                continue
            uppers, lowers = _cancel_params((2 * k - l + u1, k + l + u2), (k + v1, k + v2))
            shell += (
                (-1) ** (sk * k + l + s0)
                * prefactor
                * ratio1**k
                * ratio2**l
                * coeff
                * _hyp_series(uppers, lowers, arg, trunc, max_ell=max_ell)
            )
        total += shell
        last_shell = abs(shell)
    if block == "A1":
        if order_cap is None:
            total += cmath.exp(arg) - 1.0
        else:
            closure = 0.0 + 0.0j
            argpow = 1.0 + 0.0j
            for power in range(1, order_cap // 3 + 1):
                argpow *= arg / power
                closure += argpow
            total += closure
    if shell_tol is not None and last_shell > shell_tol * max(abs(total), 1e-300):
        raise TruncationNotConverged(
            f"block {block}: shell k={trunc.k_max} still contributes "
            f"{last_shell:.3e} against total {abs(total):.3e}"
        )
    return total


def series_block(
    m: ThreeModeModel,
    block: str,
    t: float,
    trunc: SeriesTruncation,
    shell_tol: float | None = None,
    order_cap: int | None = None,
) -> complex:
    """One of the nine infinite-sum blocks, truncated at trunc.k_max shells.

    A1 carries its series closure exp(-1j*X*t) - 1 in place of the
    ill-defined k = l = 0 hypergeometric cell (whose value is taken as 1).

    With order_cap set, every inner series is additionally cut so that no
    retained term exceeds total expansion order eps^order_cap; the block
    then holds exactly the expansion content of orders <= order_cap that
    fit inside k_max shells (used for truncation-equivalence studies
    against fixed-order quadrature sums).

    Raises:
        ValueError: block is not one of BLOCK_NAMES.
        TruncationNotConverged: only when shell_tol is given and the last
            retained shell still contributes more than shell_tol relative
            to the accumulated sum (deliberate fixed-depth truncations pass
            shell_tol=None).
    """
    _, families = _block_geometry(m)
    if block not in BLOCK_NAMES:
        raise ValueError(f"unknown block {block!r}; expected one of {BLOCK_NAMES}")
    return _block_sum(block, families, t, trunc, shell_tol, order_cap)


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
    with p_mu = psi_mu(0).
    """
    vec = linalg.as_vector(psi0, 3, "psi0")
    (w1, w2, w3), families = _block_geometry(m)
    blocks = {
        name: _block_sum(name, families, t, trunc, shell_tol, order_cap)
        for name in BLOCK_NAMES
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
