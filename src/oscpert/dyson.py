"""Order-by-order time-ordered expansion of i * dpsi/dt = (W0 + eps*WI) psi.

For a diagonal unperturbed part W0 = diag(omega0) and a perturbation WI, the
solution expands as psi(t) = sum_n eps^n psi_n(t) with

    psi_0(t) = exp(-i W0 t) psi(0)
    psi_n(t) = integral_0^t exp(-i W0 (t-s)) (-i WI) psi_{n-1}(s) ds.

The recursion is evaluated in the rotating frame phi_n(s) = exp(+i W0 s)
psi_n(s), where each order is a plain running integral of the previous
trajectory.  Trajectories are cached at the nodes of a uniform grid with
half-node resolution (2*steps intervals over [0, t]); running integrals use
composite Simpson pairs plus a single-interval cubic end correction at odd
nodes, so the global quadrature error is O(steps^-4).  Nothing is ever
linearly interpolated.

One trajectory build yields every order up to the highest one asked for, so
`terms` returns psi_0(t) .. psi_n(t) for the cost of psi_n(t) alone.

All functions are pure; independent (order, epsilon) evaluations may run
concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ResolutionTooCoarse

DEFAULT_REPORT_STEPS = 2000


@dataclass(frozen=True)
class PerturbedSystem:
    """Diagonal base frequencies plus a perturbation matrix and its weight.

    omega0 holds the diagonal of W0 (rad/time); epsilon in [0, 1] scales WI
    in partial sums (individual order coefficients do not depend on it).
    """

    omega0: tuple[float, ...]
    omegaI: np.ndarray
    epsilon: float

    def __post_init__(self):
        omega0 = tuple(float(w) for w in self.omega0)
        object.__setattr__(self, "omega0", omega0)
        mat = linalg.as_square_matrix(self.omegaI, "omegaI")
        object.__setattr__(self, "omegaI", mat)
        if len(omega0) != mat.shape[0]:
            raise ValueError(
                f"omega0 length {len(omega0)} != omegaI dimension {mat.shape[0]}"
            )
        if not np.all(np.isfinite(omega0)):
            raise ValueError("omega0 contains non-finite entries")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")

    @property
    def dim(self) -> int:
        return len(self.omega0)

    def full_matrix(self, epsilon: float | None = None) -> np.ndarray:
        """W0 + eps * WI as a dense matrix."""
        eps = self.epsilon if epsilon is None else float(epsilon)
        return np.diag(np.array(self.omega0, dtype=complex)) + eps * self.omegaI


def _running_integral(values: np.ndarray, dx: float) -> np.ndarray:
    """Prefix integrals of sampled values at every node, 4th order.

    Even nodes accumulate composite Simpson pairs; odd nodes add a cubic
    one-interval correction built from four neighboring nodes.
    Needs at least 4 intervals.
    """
    n_nodes = values.shape[0]
    if n_nodes < 5:
        raise ValueError("running integral needs at least 4 intervals")
    # in-place steps, in the operation order of the textbook formulas, so the
    # bits match them with fewer temporaries
    out = np.empty_like(values)
    out[0] = 0.0
    pair = 4.0 * values[1:-1:2]
    pair += values[0:-2:2]
    pair += values[2::2]
    pair *= dx / 3.0
    np.cumsum(pair, axis=0, out=out[2::2])
    # odd nodes: previous even node plus one cubic interval
    out[1] = (dx / 24.0) * (
        9.0 * values[0] + 19.0 * values[1] - 5.0 * values[2] + values[3]
    )
    odd = 5.0 * values[1:-2:2]
    np.subtract(values[0:-3:2], odd, out=odd)
    odd += 19.0 * values[2:-1:2]
    odd += 9.0 * values[3::2]
    odd *= dx / 24.0
    np.add(out[2:-1:2], odd, out=out[3::2])
    return out


def _rotating_trajectories(
    sys: PerturbedSystem, max_order: int, t: float, psi0: np.ndarray, steps: int
) -> list[np.ndarray]:
    """Rotating-frame trajectories phi_n at all fine grid nodes, n <= max_order."""
    n_fine = 2 * steps
    grid = np.linspace(0.0, t, n_fine + 1)
    dx = t / n_fine if n_fine else 0.0
    omega0 = np.array(sys.omega0)
    # rows of exp(-i W0 s) at each node, one column per mode
    phase = np.exp(-1j * grid[:, None] * omega0[None, :])
    rotate_back = -1j * np.conj(phase)
    trajectories = [np.broadcast_to(psi0, (n_fine + 1, sys.dim)).copy()]
    for _ in range(1, max_order + 1):
        prev = trajectories[-1]
        integrand = rotate_back * ((phase * prev) @ sys.omegaI.T)
        trajectories.append(_running_integral(integrand, dx))
    return trajectories


def _validate_term_args(sys, order, t, psi0, steps):
    if order < 0:
        raise ValueError("order must be >= 0")
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and non-negative, got {t}")
    if steps < 10 * order:
        raise ResolutionTooCoarse(
            f"steps={steps} too coarse for order {order}; need >= {10 * order}"
        )
    return linalg.as_vector(psi0, sys.dim, "psi0")


def terms(
    sys: PerturbedSystem, max_order: int, t: float, psi0, steps: int
) -> list[np.ndarray]:
    """Coefficients psi_0(t) .. psi_max_order(t) from one trajectory build.

    Raises:
        ResolutionTooCoarse: when steps < 10 * max_order.
    """
    vec = _validate_term_args(sys, max_order, t, psi0, steps)
    final_phase = np.exp(-1j * np.array(sys.omega0) * t)
    if max_order == 0 or t == 0.0:
        zeros = [np.zeros(sys.dim, dtype=complex) for _ in range(max_order)]
        return [final_phase * vec] + zeros
    trajectories = _rotating_trajectories(sys, max_order, t, vec, steps)
    return [final_phase * traj[-1] for traj in trajectories]


def term(
    sys: PerturbedSystem, order: int, t: float, psi0, steps: int
) -> np.ndarray:
    """Coefficient psi_n(t) of eps^n in the expansion (epsilon-independent).

    Raises:
        ResolutionTooCoarse: when steps < 10 * order.
    """
    return terms(sys, order, t, psi0, steps)[order]


def partial_sum(
    sys: PerturbedSystem, max_order: int, t: float, psi0, steps: int
) -> np.ndarray:
    """sum_{n=0}^{max_order} eps^n psi_n(t)."""
    vec = _validate_term_args(sys, max_order, t, psi0, steps)
    if max_order == 0 or t == 0.0:
        total_phi = vec
    else:
        trajectories = _rotating_trajectories(sys, max_order, t, vec, steps)
        weights = sys.epsilon ** np.arange(max_order + 1)
        total_phi = sum(w * traj[-1] for w, traj in zip(weights, trajectories))
    return np.exp(-1j * np.array(sys.omega0) * t) * total_phi


@dataclass(frozen=True)
class ConvergenceReport:
    """Residual norms ||partial_sum - exact|| for an (order, epsilon) grid."""

    t: float
    orders: tuple[int, ...]
    eps_grid: tuple[float, ...]
    residuals: np.ndarray  # shape (len(orders), len(eps_grid))
    monotone: tuple[bool, ...]  # per epsilon: residual non-increasing in order


def convergence_report(
    sys: PerturbedSystem,
    t: float,
    psi0,
    orders,
    eps_grid,
    steps: int = DEFAULT_REPORT_STEPS,
) -> ConvergenceReport:
    """Residuals of truncated sums against the exact propagator.

    Order coefficients are computed once and reweighted per epsilon; the
    exact reference is exp(-i (W0 + eps WI) t) psi0.
    """
    orders = tuple(int(k) for k in orders)
    eps_grid = tuple(float(e) for e in eps_grid)
    if not orders or not eps_grid:
        raise ValueError("orders and eps_grid must be non-empty")
    if min(orders) < 0:
        raise ValueError("order must be >= 0")
    for eps in eps_grid:
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {eps}")
    coeffs = terms(sys, max(orders), t, psi0, steps)
    vec = linalg.as_vector(psi0, sys.dim, "psi0")

    residuals = np.zeros((len(orders), len(eps_grid)))
    for j, eps in enumerate(eps_grid):
        exact = linalg.matrix_exponential_apply(sys.full_matrix(eps), t, vec)
        for i, order in enumerate(orders):
            approx = sum(eps**n * coeffs[n] for n in range(order + 1))
            residuals[i, j] = float(np.linalg.norm(approx - exact))
    ordered = sorted(range(len(orders)), key=lambda i: orders[i])
    monotone = tuple(
        all(
            residuals[ordered[k + 1], j] <= residuals[ordered[k], j]
            for k in range(len(ordered) - 1)
        )
        for j in range(len(eps_grid))
    )
    return ConvergenceReport(
        t=t,
        orders=orders,
        eps_grid=eps_grid,
        residuals=residuals,
        monotone=monotone,
    )
