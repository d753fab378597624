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
spectral_grid gives both over a whole eps grid: one batched eigensolve for
the truth and a float-level estimator kernel at each point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import linalg
from .errors import DegenerateFrequencies, NoTransition
from .threemode import (
    ThreeModeModel,
    effective_frequencies,
    omega_matrix,
    shifted_frequencies,
)

LEVELS = ("app0", "app1", "app2")

# Continuation step for eigenvalue branch tracking.
CONTINUATION_STEP = 0.01

# A mode counts as non-real when |Im| exceeds this times (1 + |lambda|).
IMAG_THRESHOLD = 1e-8

# 0-based original modes that play roles 1, 2, 3 in the model relabeled for
# mode mu: the index map of threemode.cyclic_view(m, f"psi{mu}"), less one.
_RELABELING = {1: (0, 1, 2), 3: (2, 0, 1), 2: (1, 2, 0)}

_PERMUTATIONS = tuple(permutations(range(3)))


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

    def csv_rows(self) -> list[tuple]:
        """One row per mode: (epsilon, mode, true_re, true_im, app0, app1,
        app2, err0, err1, err2); missing errors surface as NaN."""
        rows = []
        for i in range(3):
            true = self.true_values[i]
            row = [self.epsilon, i + 1, true.real, true.imag]
            row += [self.estimates[level][i] for level in LEVELS]
            row += [
                err if (err := self.abs_errors[level][i]) is not None else math.nan
                for level in LEVELS
            ]
            rows.append(tuple(row))
        return rows


def _nested(base: float, inc1: float, inc2: float) -> tuple[float, float, float]:
    """(app0, app1, app2) from the increments: each level adds its own."""
    return base, base + inc1, base + inc1 + inc2


def _increments(freqs, a, eps: float, which: int) -> tuple[float, float, float]:
    """The estimator kernel on plain floats.

    It evaluates the mode-1 formula on the model relabeled as
    cyclic_view(m, f"psi{which}") does, by indexing instead of building that
    model, with the operations of effective_frequencies and xyz in their
    order.
    """
    i, j, k = _RELABELING[which]
    w1, w2, w3 = freqs[i], freqs[j], freqs[k]
    p = w3 - w1
    q = w1 - w2
    w = a[i] * a[j] * a[k] * eps**3 / (q * p)
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


def estimate_increments(
    m: ThreeModeModel, which: int, up_to: str = "app2"
) -> tuple[float, float, float]:
    """(base+W, app1 increment, app2 increment) for the requested mode."""
    if which not in (1, 2, 3):
        raise ValueError(f"which must be 1, 2 or 3, got {which}")
    if up_to not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {up_to!r}")
    return _increments(effective_frequencies(m), m.a, m.epsilon, which)


def estimate(m: ThreeModeModel, which: int, level: str) -> float:
    """Perturbative estimate of eigenfrequency `which` at the given depth."""
    levels = _nested(*estimate_increments(m, which))
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
    tie the first in itertools.permutations order wins.
    """
    eps_grid = [float(e) for e in eps_grid]
    if not all(e >= 0 for e in eps_grid) or eps_grid != sorted(eps_grid):
        raise ValueError("eps_grid must be sorted and non-negative")
    fine = [0.0]
    targets = {}
    for j, eps in enumerate(eps_grid):
        prev = fine[-1]
        if eps > prev:
            extra = int(math.ceil((eps - prev) / CONTINUATION_STEP))
            points = [prev + (eps - prev) * (i + 1) / extra for i in range(extra)]
            points[-1] = eps  # land on the target exactly
            fine.extend(points)
        targets.setdefault(eps, []).append(j)
    current = [complex(w) for w in m.omega]
    out = np.zeros((len(eps_grid), 3), dtype=complex)
    for j in targets.get(0.0, ()):
        out[j] = current
    spectra = linalg.eigenvalues(omega_matrix(m, fine[1:])).tolist()
    for eps, vals in zip(fine[1:], spectra):
        dist = [[abs(v - c) for v in vals] for c in current]
        best = min(
            _PERMUTATIONS,
            key=lambda p: dist[0][p[0]] + dist[1][p[1]] + dist[2][p[2]],
        )
        current = [vals[i] for i in best]
        for j in targets.get(eps, ()):
            out[j] = current
    return out


def true_eigenfrequencies(
    m: ThreeModeModel, epsilon: float | None = None
) -> tuple[complex, complex, complex]:
    """Eigenvalues of Omega(eps), matched to modes 1..3 by continuity."""
    eps = m.epsilon if epsilon is None else float(epsilon)
    row = matched_path(m, [eps])[0]
    return (complex(row[0]), complex(row[1]), complex(row[2]))


@dataclass(frozen=True)
class SpectralGrid:
    """Matched true eigenfrequencies and all nine estimates over an eps grid.

    true_values[j] holds (lambda_1, lambda_2, lambda_3) at epsilon[j].
    estimates[j] holds (app0, app1, app2) for modes 1, 2 and 3 in turn, or
    the DegenerateFrequencies error that refused the estimates there.
    """

    epsilon: tuple[float, ...]
    true_values: np.ndarray
    estimates: tuple


def spectral_grid(m: ThreeModeModel, eps_grid) -> SpectralGrid:
    """The truth (one matched_path) and the estimates at every grid point.

    Raises:
        ValueError: grid unsorted or outside [0, 1].
    """
    eps_values = tuple(float(e) for e in eps_grid)
    if not all(0.0 <= e <= 1.0 for e in eps_values):
        raise ValueError("every epsilon must lie in [0, 1]")
    true_values = matched_path(m, eps_values)
    estimates = []
    for eps in eps_values:
        try:
            freqs = shifted_frequencies(m.omega, m.d, eps)
        except DegenerateFrequencies as exc:
            estimates.append(exc)
            continue
        estimates.append(
            tuple(_nested(*_increments(freqs, m.a, eps, which)) for which in (1, 2, 3))
        )
    return SpectralGrid(eps_values, true_values, tuple(estimates))


def is_real_mode(value: complex) -> bool:
    return abs(value.imag) <= IMAG_THRESHOLD * (1.0 + abs(value))


def _spectrum_nonreal(m: ThreeModeModel, eps: float) -> bool:
    vals = linalg.eigenvalues(omega_matrix(m, eps))
    return any(not is_real_mode(v) for v in vals)


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
        DegenerateFrequencies: the estimates are refused at eps.
    """
    grid = spectral_grid(m, [eps])
    ests = grid.estimates[0]
    if isinstance(ests, DegenerateFrequencies):
        raise ests
    true_vals = tuple(grid.true_values[0].tolist())
    mode_real = tuple(is_real_mode(v) for v in true_vals)
    estimates = {}
    abs_errors = {}
    for i, level in enumerate(LEVELS):
        estimates[level] = tuple(ests[mode][i] for mode in range(3))
        abs_errors[level] = tuple(
            abs(true_vals[mode].real - ests[mode][i]) if mode_real[mode] else None
            for mode in range(3)
        )
    return EigenfrequencyReport(
        epsilon=grid.epsilon[0],
        true_values=true_vals,
        estimates=estimates,
        abs_errors=abs_errors,
        mode_real=mode_real,
        real_spectrum=all(mode_real),
    )
