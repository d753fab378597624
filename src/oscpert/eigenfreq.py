"""Perturbative eigenfrequency estimates and their comparison to the truth.

The eigenvalues of Omega(eps) are the system's eigenfrequencies.  For the
cyclic 3-mode model they admit perturbative estimates at three depths, built
from the coupling ratio W in {X, Y, Z} matched to the mode and the two
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

True eigenfrequencies are matched to modes 1..3 by continuity in eps from
the uncoupled limit (nearest-assignment continuation with step <= 0.01),
because plain magnitude sorting swaps branches where curves cross.
spectral_grid gives both over a whole eps grid: one batched eigensolve and
one cost table of all assignments for the truth, and one array evaluation
of the estimator formulas for the estimates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, repeat

import numpy as np

from . import linalg
from .errors import DegenerateFrequencies, EstimateOverflow, NoTransition
from .threemode import (
    DEGENERACY_GAP_FACTOR,
    ThreeModeModel,
    omega_matrix,
    shifted_frequencies,
)

LEVELS = ("app0", "app1", "app2")

# Continuation step for eigenvalue branch tracking.
CONTINUATION_STEP = 0.01

# A mode counts as non-real when |Im| exceeds this times (1 + |lambda|).
IMAG_THRESHOLD = 1e-8

# Per mode mu = 1, 2, 3: the 0-based original modes that play roles 1, 2, 3
# in cyclic_view(m, f"psi{mu}"), i.e. its index map less one.
_RELABELING = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_ROLES = np.array(_RELABELING).T  # _ROLES[r - 1][mode - 1]: who plays role r
_UPSTREAM = [2, 0, 1]  # 0-based upstream neighbour of each mode in 1 -> 2 -> 3 -> 1

# The six assignments of eigenvalues to modes, in itertools.permutations
# order; row 0 is the identity.
_PERMUTATIONS = np.array(tuple(permutations(range(3))))


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


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x**n per element with Python's float power (libm pow), inf where that
    overflows: np.power, and x*x for squares, differ from it in the last ulp
    on some inputs, and the estimates keep the scalar formula's bits.
    """
    values = x.ravel().tolist()
    try:
        out = np.array(list(map(pow, values, repeat(n))), dtype=float)
    except OverflowError:
        out = np.array([_pow_or_inf(v, n) for v in values], dtype=float)
    return out.reshape(x.shape)


def _pow_or_inf(v: float, n: int) -> float:
    try:
        return v**n
    except OverflowError:
        return math.inf


def _increments(m: ThreeModeModel, eps: np.ndarray) -> tuple[np.ndarray, list]:
    """The estimator kernel: (N, 3, 3) increments [point, mode, (base + W,
    inc1, inc2)] at every eps of a 1-D array, NaN where refused, and each
    point's refusal (DegenerateFrequencies, EstimateOverflow when a power or
    an increment is not finite) or None.  Mode mu is the mode-1 formula on
    the model relabeled by indexing as cyclic_view(m, f"psi{mu}") would,
    with the operations of effective_frequencies and xyz in their order.
    """
    freqs = np.add(m.omega, eps[:, None] * np.array(m.d))
    w1, w2, w3 = (freqs[:, role] for role in _ROLES)  # (N, 3): [point, mode]
    q = w1 - w2  # the three pairwise gaps
    # Degeneracy is threemode's rule; it refuses only points whose smallest
    # gap is below its floor, so points below twice the floor are handed to it.
    floor = DEGENERACY_GAP_FACTOR * np.maximum(1e-12, np.abs(freqs).max(axis=1))
    refusals = [None] * len(eps)
    for n in np.flatnonzero(np.abs(q).min(axis=1) < 2 * floor).tolist():
        try:
            shifted_frequencies(m.omega, m.d, eps[n].item())
        except DegenerateFrequencies as exc:
            refusals[n] = exc
    coupling = np.array([m.a[i] * m.a[j] * m.a[k] for i, j, k in _RELABELING])
    with np.errstate(all="ignore"):
        p = w3 - w1  # the very difference q of the upstream mode: p's powers are q's
        w = coupling * _power(eps, 3)[:, None] / (q * p)
        powers = ((w, 2), (w, 3), (w, 4), (q, 2), (q, 3))
        terms = w_2, w_3, w_4, q_2, q_3 = [_power(x, n) for x, n in powers]
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
            refusals[n] = EstimateOverflow(f"estimator terms are not finite at eps={eps[n]!s}")
    out[[r is not None for r in refusals]] = math.nan
    return out, refusals


def estimate_increments(m: ThreeModeModel, which: int) -> tuple[float, float, float]:
    """(base+W, app1 increment, app2 increment) for the requested mode.

    Raises:
        DegenerateFrequencies, EstimateOverflow: the estimates are refused.
    """
    if which not in (1, 2, 3):
        raise ValueError(f"which must be 1, 2 or 3, got {which}")
    incs, refusals = _increments(m, np.array([m.epsilon]))
    if refusals[0] is not None:
        raise refusals[0]
    return tuple(incs[0, int(which) - 1].tolist())


def estimate(m: ThreeModeModel, which: int, level: str) -> float:
    """Perturbative estimate of eigenfrequency `which` at the given depth."""
    levels = np.cumsum(estimate_increments(m, which)).tolist()
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    return levels[LEVELS.index(level)]


def matched_path(m: ThreeModeModel, eps_grid) -> np.ndarray:
    """Eigenvalues of Omega(eps) along eps_grid, matched by continuity.

    The grid is refined internally so no continuation step exceeds
    CONTINUATION_STEP, and all refined points are solved in one batched
    eigenvalue call.  Row j holds (lambda_1, lambda_2, lambda_3) at
    eps_grid[j], where branch mu starts at omega_mu at eps = 0.  Each step
    takes the assignment of least summed distance to the previous one; on a
    tie the first in itertools.permutations order wins.  The costs of all
    assignments at every step, given each assignment at the step before,
    form one (N, 6, 6) table summed in mode order, so its first minimum is
    the per-step loop's; a walk through the chosen assignments remains.
    """
    eps = np.asarray(eps_grid, dtype=float)
    if not (np.all(eps >= 0) and np.all(eps[1:] >= eps[:-1])):
        raise ValueError("eps_grid must be sorted and non-negative")
    # Each new grid value ends a segment of equal steps from the previous one.
    new = eps > np.concatenate(([0.0], eps[:-1]))
    ends = eps[new]
    starts = np.concatenate(([0.0], ends[:-1]))
    steps = np.ceil((ends - starts) / CONTINUATION_STEP).astype(int)
    last = np.cumsum(steps)
    seg = np.repeat(np.arange(len(ends)), steps)
    k = np.arange(1, len(seg) + 1) - np.repeat(last - steps, steps)
    fine = starts[seg] + (ends - starts)[seg] * k / steps[seg]
    fine[last - 1] = ends  # land on the targets exactly

    # row 0 is eps = 0, where the eigenvalues are omega in mode order
    raw = np.concatenate(([m.omega], linalg.eigenvalues(omega_matrix(m, fine))))
    diff = raw[1:, None, :] - raw[:-1, :, None]  # [n, a, b]: raw_n+1[b] - raw_n[a]
    # hypot is bitwise abs() of a Python complex; np.abs of a complex array is not
    dist = np.hypot(diff.real, diff.imag)
    p, c = _PERMUTATIONS[None, :], _PERMUTATIONS[:, None]
    cost = (
        dist[:, c[..., 0], p[..., 0]] + dist[:, c[..., 1], p[..., 1]]
    ) + dist[:, c[..., 2], p[..., 2]]
    chosen = [0]
    for best in cost.argmin(axis=2).tolist():
        chosen.append(best[chosen[-1]])
    path = np.take_along_axis(raw, _PERMUTATIONS[chosen], axis=1)
    return path[np.concatenate(([0], last))[np.cumsum(new)]]


def true_eigenfrequencies(m: ThreeModeModel) -> tuple[complex, complex, complex]:
    """Eigenvalues of Omega(eps), matched to modes 1..3 by continuity."""
    row = matched_path(m, [m.epsilon])[0]
    return (complex(row[0]), complex(row[1]), complex(row[2]))


@dataclass(frozen=True)
class SpectralGrid:
    """Matched true eigenfrequencies and all nine estimates over an eps grid.

    true_values[j] holds (lambda_1, lambda_2, lambda_3) at epsilon[j], and
    estimates[j, mode - 1] holds (app0, app1, app2) of that mode.
    refusals[j] is the OscPertError that refused the estimates at
    epsilon[j] (they are NaN there), or None.
    """

    epsilon: tuple[float, ...]
    true_values: np.ndarray
    estimates: np.ndarray
    refusals: tuple


def spectral_grid(m: ThreeModeModel, eps_grid) -> SpectralGrid:
    """The truth (one matched_path) and the estimates at every grid point.

    Raises:
        ValueError: grid unsorted or outside [0, 1].
    """
    eps = np.asarray(eps_grid, dtype=float)
    if not np.all((eps >= 0.0) & (eps <= 1.0)):
        raise ValueError("every epsilon must lie in [0, 1]")
    true_values = matched_path(m, eps)
    incs, refusals = _increments(m, eps)
    return SpectralGrid(
        tuple(eps.tolist()), true_values, np.cumsum(incs, axis=2), tuple(refusals)
    )


def is_real_mode(value):
    """Whether a complex value (or each entry of a complex array) is real."""
    return np.abs(value.imag) <= IMAG_THRESHOLD * (1.0 + np.hypot(value.real, value.imag))


def _spectrum_nonreal(m: ThreeModeModel, eps: float) -> bool:
    return not is_real_mode(np.array(linalg.eigenvalues(omega_matrix(m, eps)))).all()


def transition_epsilon(
    m: ThreeModeModel, eps_lo: float, eps_hi: float, tol: float = 1e-3
) -> float:
    """Onset of non-real eigenfrequencies, bisected to within tol.

    Raises:
        NoTransition: spectrum reality is the same at both bracket ends.
        ValueError: empty or inverted bracket.
    """
    if not eps_lo < eps_hi:
        raise ValueError(f"need eps_lo < eps_hi, got [{eps_lo}, {eps_hi}]")
    if not tol > 0:
        raise ValueError("tol must be positive")
    lo_nonreal = _spectrum_nonreal(m, eps_lo)
    hi_nonreal = _spectrum_nonreal(m, eps_hi)
    if lo_nonreal == hi_nonreal:
        state = "non-real" if lo_nonreal else "real"
        raise NoTransition(f"spectrum is {state} at both bracket ends")
    lo, hi = eps_lo, eps_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _spectrum_nonreal(m, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def report(m: ThreeModeModel, eps: float) -> EigenfrequencyReport:
    """All nine estimates, the matched true values, and per-mode errors.

    Raises:
        OscPertError: the estimates are refused at eps (DegenerateFrequencies
            or EstimateOverflow).
    """
    grid = spectral_grid(m, [eps])
    if grid.refusals[0] is not None:
        raise grid.refusals[0]
    true_vals = tuple(grid.true_values[0].tolist())
    mode_real = tuple(is_real_mode(grid.true_values[0]).tolist())
    by_level = dict(zip(LEVELS, grid.estimates[0].T.tolist()))
    return EigenfrequencyReport(
        epsilon=grid.epsilon[0],
        true_values=true_vals,
        estimates={level: tuple(ests) for level, ests in by_level.items()},
        abs_errors={
            level: tuple(
                abs(true.real - est) if real else None
                for true, est, real in zip(true_vals, ests, mode_real)
            )
            for level, ests in by_level.items()
        },
        mode_real=mode_real,
        real_spectrum=all(mode_real),
    )
