"""Perturbative eigenfrequency estimates and their comparison to the truth.

The eigenvalues of Omega(eps) are the system's eigenfrequencies.  For the
cyclic 3-mode model they admit perturbative estimates at three depths, built
from the coupling ratio W in {X, Y, Z} matched to the mode (exactly 0 at
eps = 0 for any finite a, so every estimate is w' there) and the two
frequency gaps P, Q of the relabeled model:

    app0:  w' + W
    app1:  app0 + W^2/P - W^2/Q
    app2:  app1 + 2W^3/P^2 - 3W^3/(PQ) + 2W^3/Q^2
                + (10/3)W^4/P^3 - 10W^4/(P^2 Q) + 10W^4/(P Q^2)
                - (10/3)W^4/Q^3

with (P, Q) = (w3'-w1', w1'-w2') for mode 1 and the cyclic relabelings for
modes 3 and 2.  Estimates for modes 2 and 3 are literally the mode-1 formula
run on the cyclically relabeled model, which makes the relabeling identity
exact by construction.

True eigenfrequencies are labeled with modes 1..3 from the exceptional
points (EPs), the real roots of the discriminant of det(lambda - Omega(eps)),
where two eigenvalues meet.  Labels keep their slots between two EPs, and at
an EP two tie rules decide them: the lower mode of a new conjugate pair takes
Im > 0, and the Im > 0 mode of a pair that turns real takes the larger real
part.  So a label, and a mode's reality (non-real exactly in a pair's slot),
depend on eps alone.  transition_epsilon is the first change of reality in
its bracket: a positive EP, or eps = 0 only when a pair opens there.
spectral_grid gives truth and estimates over a whole eps grid: one batched
eigensolve and one array evaluation of the estimators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateFrequencies, NonFiniteResult, NoTransition
from .threemode import (
    _SUBSCRIPT_ROWS,
    _UPSTREAM,
    DEGENERACY_GAP_FACTOR,
    ThreeModeModel,
    _path_coupling,
    effective_frequencies,
    omega_matrix,
)

LEVELS = ("app0", "app1", "app2")

# _ROLES[r - 1][mu - 1]: the 0-based original mode that plays role r in
# cyclic_view(m, f"psi{mu}"), i.e. its index map less one.
_ROLES = np.array([[i - 1 for i in _SUBSCRIPT_ROWS[f"psi{mu}"]] for mu in (1, 2, 3)]).T


@dataclass(frozen=True)
class EigenfrequencyReport:
    """True eigenfrequencies vs all nine estimates at one epsilon.

    abs_errors entries are |Re(true) - estimate| and are present only for
    modes whose true value is real; non-real modes carry None there.
    real_spectrum is True when all three modes are real.
    """

    epsilon: float
    true_values: tuple[complex, complex, complex]
    estimates: dict[str, tuple[float, float, float]]
    abs_errors: dict[str, tuple[float | None, float | None, float | None]]
    mode_real: tuple[bool, bool, bool]
    real_spectrum: bool


def _increments(m: ThreeModeModel, eps: np.ndarray) -> tuple[np.ndarray, list]:
    """The estimator kernel: (N, 3, 3) increments [point, mode, (base + W,
    inc1, inc2)] at every eps of a 1-D array, NaN where refused, and each
    point's refusal (DegenerateFrequencies, NonFiniteResult when a power or
    an increment is not finite) or None.  Mode mu is the mode-1 formula on
    the model relabeled by indexing as cyclic_view(m, f"psi{mu}") would,
    with the operations of effective_frequencies and xyz in their order.
    """
    freqs = np.add(m.omega, eps[:, None] * np.array(m.d))
    w1, w2, w3 = (freqs[:, role] for role in _ROLES)  # (N, 3): [point, mode]
    q = w1 - w2  # the three pairwise gaps
    # Degeneracy is threemode's rule, at its scale max|w'| or 1: this floor and its gaps come
    # from the same float operations as threemode's, so the points below it are the ones it refuses.
    floor = DEGENERACY_GAP_FACTOR * np.where(freqs.any(axis=1), np.abs(freqs).max(axis=1), 1.0)
    refusals = [None] * len(eps)
    for n in np.flatnonzero(np.abs(q).min(axis=1) < floor).tolist():
        try:
            effective_frequencies(m.at_epsilon(eps[n].item()))
        except DegenerateFrequencies as exc:
            refusals[n] = exc
    with np.errstate(all="ignore"):
        p = w3 - w1  # the very difference q of the upstream mode: p's powers are q's
        w = -_path_coupling(np.array(m.a)[_ROLES], eps[:, None], 3) / (q * p)  # one eps^3 for all modes
        powers = ((w, 2), (w, 3), (w, 4), (q, 2), (q, 3))
        terms = w_2, w_3, w_4, q_2, q_3 = [linalg._pow_or_inf(x, n) for x, n in powers]
        p_2, p_3 = q_2[:, _UPSTREAM], q_3[:, _UPSTREAM]
        out = np.stack([
            w1 + w,
            w_2 / p - w_2 / q,
            2 * w_3 / p_2
            - 3 * w_3 / (p * q)
            + 2 * w_3 / q_2
            + (10.0 / 3.0) * w_4 / p_3
            - 10 * w_4 / (p_2 * q)
            + 10 * w_4 / (p * q_2)
            - (10.0 / 3.0) * w_4 / q_3,
        ], axis=2)
    finite = np.isfinite(out).all(axis=(1, 2)) & np.isfinite(terms).all(axis=(0, 2))
    for n in np.flatnonzero(~finite).tolist():
        if refusals[n] is None:
            refusals[n] = NonFiniteResult(f"estimator terms are not finite at eps={eps[n]!s}")
    out[[r is not None for r in refusals]] = math.nan
    return out, refusals


def estimate_increments(m: ThreeModeModel, which: int) -> tuple[float, float, float]:
    """(base+W, app1 increment, app2 increment) for the requested mode.

    Raises:
        DegenerateFrequencies, NonFiniteResult: the estimates are refused.
    """
    if linalg.as_integer(which, "which") not in (1, 2, 3):
        raise ValueError(f"which must be 1, 2 or 3, got {which}")
    incs, refusals = _increments(m, np.array([m.epsilon]))
    if refusals[0] is not None:
        raise refusals[0]
    return tuple(incs[0, int(which) - 1].tolist())


def estimate(m: ThreeModeModel, which: int, level: str) -> float:
    """Perturbative estimate of eigenfrequency `which` at the given depth."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    return np.cumsum(estimate_increments(m, which)).tolist()[LEVELS.index(level)]


def exceptional_points(m: ThreeModeModel) -> np.ndarray:
    """The real eps, ascending, at which two eigenvalues of Omega(eps) meet.

    They are the real roots of the discriminant in lambda of
    det(lambda - Omega(eps)) = prod(lambda - w_i') + eps^3 P, w_i' = w_i +
    eps d_i, P = a1 a2 a3: prod_{i<j} (w_i' - w_j')^2 + 2 eps^3 P prod_i
    (2 w_i' - w_j' - w_k') - 27 eps^6 P^2, formed from differences, so two
    equal w give an exact root at 0.  It is built on lambda/s, s the largest
    |w| or |d| (1 if all are 0), in tau = eps/sigma, sigma = min(1,
    s/|P|^(1/3)): every coefficient is at most 1, scaling the model moves no
    EP, and EPs far below 1 (large couplings) stay resolved.  Reality changes
    at a simple root > 0, at 0 only where a pair opens, and never if P = 0.
    """
    return _exceptional_points(m)[0]


def _exceptional_points(m: ThreeModeModel) -> tuple[np.ndarray, np.ndarray]:
    """exceptional_points, and the eps >= 0, ascending, where the spectrum changes reality:
    0 when a pair opens there (disc's lowest non-zero term is < 0), then each EP > 0."""
    if not all(m.a):
        return np.empty(0), np.empty(0)
    s = max(map(abs, m.omega + m.d)) or 1.0
    cbrt_p = math.prod(math.copysign(abs(a) ** (1 / 3), a) for a in m.a)  # P^(1/3), P never formed
    sigma = min(1.0, s / abs(cbrt_p))
    cv = np.convolve  # the product of two coefficient arrays, highest power first
    w1, w2, w3 = (np.array([shift * sigma / s, w / s]) for w, shift in zip(m.omega, m.d))
    d12, d13, d23 = w1 - w2, w1 - w3, w2 - w3
    gaps, p = cv(cv(d12, d13), d23), linalg._pow_or_inf(cbrt_p * sigma / s, 3)
    disc = cv(gaps, gaps)
    disc[:4] += 2 * p * cv(cv(d12 + d13, d23 - d12), -(d13 + d23))  # the eps^3 .. eps^6 terms
    disc[0] -= 27 * p * p
    disc /= np.abs(disc).max() or 1.0
    # drop leading coefficients too small to divide by (they only add roots past 1e50)
    roots, low = np.roots(disc[np.argmax(np.abs(disc) > np.finfo(float).tiny) :]), disc[disc != 0]
    points = np.sort(sigma * roots[roots.imag == 0].real)
    return points, np.concatenate(([0.0] * bool(low.size and low[-1] < 0), points[points > 0]))


def matched_path(m: ThreeModeModel, eps_grid) -> np.ndarray:
    """Eigenvalues of Omega(eps) along eps_grid, labeled from the EPs.

    Row j holds (lambda_1, lambda_2, lambda_3) at eps_grid[j]; mode mu starts
    at omega_mu at eps = 0.  The grid and the EPs up to its end take one
    batched eigenvalue call.  The EPs (eps = 0 first when a pair opens there)
    cut the grid into intervals, real and non-real in turn.  An interval's
    slots, the ascending real parts or the real value, the Im > 0 and the
    Im < 0 pair member, go to modes once.  At an EP the values tell whether
    the third lies above or below the two that meet, and the two tie rules
    of the module docstring assign the meeting modes.
    """
    return _labeled_path(m, eps_grid)[0]


def _labeled_path(m: ThreeModeModel, eps_grid) -> tuple[np.ndarray, np.ndarray]:
    """matched_path and its (N, 3) reality mask, False in a pair's slots."""
    eps = linalg.as_array(eps_grid, "eps_grid", float)
    if not (np.all(eps >= 0) and np.all(eps[1:] >= eps[:-1])):
        raise ValueError("eps_grid must be sorted and non-negative")
    points = _exceptional_points(m)[1]
    points = points[points <= eps.max(initial=0.0)]
    vals = linalg.eigenvalues(omega_matrix(m, np.concatenate((eps, points))))
    modes = [np.argsort(m.omega, kind="stable")]  # modes[k][slot]: interval k's labels
    for k, at in enumerate(np.sort(vals[len(eps) :].real).tolist()):
        above = at[1] - at[0] < at[2] - at[1]  # the third value lies above the pair
        prev = modes[-1]
        if k % 2 == 0:  # two real values meet: the lower mode takes Im > 0
            third, pair = (prev[2], prev[:2]) if above else (prev[0], prev[1:])
            modes.append([third, *sorted(pair)])
        else:  # the pair turns real: its Im > 0 mode takes the larger real part
            real, up, down = prev
            modes.append([down, up, real] if above else [real, down, up])
    vals, interval = vals[: len(eps)], np.searchsorted(points, eps)
    by_imag = np.argsort(vals.imag, axis=1)[:, [1, 2, 0]]  # real, Im > 0, Im < 0
    slots = np.where((interval % 2 == 1)[:, None], by_imag, np.argsort(vals.real, axis=1))
    labels, path, real = np.array(modes)[interval], np.empty_like(vals), np.ones(vals.shape, bool)
    np.put_along_axis(path, labels, np.take_along_axis(vals, slots, 1), 1)
    np.put_along_axis(real, labels[:, 1:], (interval % 2 == 0)[:, None], 1)
    return path, real


def true_eigenfrequencies(m: ThreeModeModel) -> tuple[complex, complex, complex]:
    """Eigenvalues of Omega(eps), labeled as modes 1..3 from the exceptional points."""
    return tuple(matched_path(m, [m.epsilon])[0].tolist())


@dataclass(frozen=True)
class SpectralGrid:
    """Matched true eigenfrequencies and all nine estimates over an eps grid.

    true_values[j] holds (lambda_1, lambda_2, lambda_3) at epsilon[j], and
    estimates[j, mode - 1] holds (app0, app1, app2) of that mode.
    mode_real[j, mode - 1] is False where the EPs put that mode in a pair, and
    errors[j, mode - 1] holds |Re(true) - estimate| per level, NaN where the
    mode is not real.  refusals[j] is the OscPertError that refused the
    estimates at epsilon[j] (they and their errors are NaN there), or None.
    """

    epsilon: tuple[float, ...]
    true_values: np.ndarray
    estimates: np.ndarray
    mode_real: np.ndarray
    errors: np.ndarray
    refusals: tuple


def spectral_grid(m: ThreeModeModel, eps_grid) -> SpectralGrid:
    """The truth (one matched_path) and the estimates at every grid point.

    Raises:
        ValueError: grid unsorted or outside [0, 1].
    """
    eps = linalg.as_array(eps_grid, "eps_grid", float)
    if not np.all((eps >= 0.0) & (eps <= 1.0)):
        raise ValueError("every epsilon must lie in [0, 1]")
    true_values, real = _labeled_path(m, eps)
    incs, refusals = _increments(m, eps)
    estimates = np.cumsum(incs, axis=2)
    errors = np.where(real[..., None], np.abs(true_values.real[..., None] - estimates), np.nan)
    return SpectralGrid(tuple(eps.tolist()), true_values, estimates, real, errors, tuple(refusals))


def transition_epsilon(m: ThreeModeModel, eps_lo: float, eps_hi: float) -> float:
    """The first eps in [eps_lo, eps_hi] at which the spectrum changes
    reality: an exceptional point > 0, or eps = 0 only when a pair opens there.

    Raises:
        NoTransition: the spectrum's reality does not change in the bracket.
        ValueError: eps_lo < 0, or an empty or inverted bracket.
    """
    eps_lo, eps_hi = linalg.as_real(eps_lo, "eps_lo", 0), linalg.as_real(eps_hi, "eps_hi")
    if not eps_lo < eps_hi:
        raise ValueError(f"need eps_lo < eps_hi, got [{eps_lo}, {eps_hi}]")
    inside = [e for e in _exceptional_points(m)[1].tolist() if eps_lo <= e <= eps_hi]
    if not inside:
        raise NoTransition(f"no change of reality in [{eps_lo}, {eps_hi}]")
    return inside[0]


def report(m: ThreeModeModel, eps: float) -> EigenfrequencyReport:
    """All nine estimates, the matched true values, and per-mode errors.

    Raises:
        OscPertError: the estimates are refused at eps (DegenerateFrequencies
            or NonFiniteResult).
    """
    grid = spectral_grid(m, [eps])
    if grid.refusals[0] is not None:
        raise grid.refusals[0]
    mode_real = tuple(grid.mode_real[0].tolist())
    return EigenfrequencyReport(
        epsilon=grid.epsilon[0],
        true_values=tuple(grid.true_values[0].tolist()),
        estimates=dict(zip(LEVELS, map(tuple, grid.estimates[0].T.tolist()))),
        abs_errors={
            level: tuple(err if real else None for err, real in zip(errs, mode_real))
            for level, errs in zip(LEVELS, grid.errors[0].T.tolist())
        },
        mode_real=mode_real,
        real_spectrum=all(mode_real),
    )
