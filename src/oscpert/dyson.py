"""Order-by-order time-ordered expansion of i * dpsi/dt = (W0 + eps*WI) psi.

For a diagonal unperturbed part W0 = diag(omega0) and a perturbation WI, the
solution expands as psi(t) = sum_n eps^n psi_n(t) with

    psi_0(t) = exp(-i W0 t) psi(0)
    psi_n(t) = integral_0^t exp(-i W0 (t-s)) (-i WI) psi_{n-1}(s) ds.

The recursion is evaluated in the rotating frame phi_n(s) = exp(+i W0 s)
psi_n(s), where each order is a plain running integral of the previous one
on a uniform grid with half-node resolution (2*steps intervals over [0, t]):
composite Simpson pairs plus a single-interval cubic end correction at odd
nodes (no linear interpolation), so the global quadrature error is O(steps^-4).

One build yields every order up to the highest one asked for, so `terms`
returns psi_0(t) .. psi_n(t) for the cost of psi_n(t) alone, in memory that
does not grow with n.  Functions are pure; each build works in one buffer,
freed on return, that no result shares.  Each (modes, nodes) plane of it
holds the even nodes and then the odd ones, so the stencils read contiguous
runs.  A real-valued WI is applied as one real product on the float view of
a plane.  Every other multiply stays complex: numpy rounds a complex a*b
and b*a apart, and multiplies by a real c as by c + 0j, whose exact zeros
can differ in sign from c times each part.  Values are bitwise those of the
per-order formulas for a real-valued WI (every ThreeModeModel), within an
ulp or so for a complex one.  A non-finite coefficient raises NonFiniteResult.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NonFiniteResult


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
        omega0 = linalg.as_vector(self.omega0, name="omega0", dtype=float)
        mat = linalg.as_square_matrix(self.omegaI, "omegaI")
        if len(omega0) != mat.shape[0]:
            raise ValueError(f"omega0 length {len(omega0)} != omegaI dimension {mat.shape[0]}")
        object.__setattr__(self, "omegaI", mat)
        object.__setattr__(self, "omega0", tuple(omega0.tolist()))
        object.__setattr__(self, "epsilon", linalg.as_real(self.epsilon, "epsilon", 0, 1))

    @property
    def dim(self) -> int:
        return len(self.omega0)

    def full_matrix(self, epsilon: float | None = None) -> np.ndarray:
        """W0 + eps * WI as a dense matrix."""
        eps = self.epsilon if epsilon is None else linalg.as_real(epsilon, "epsilon")
        return np.diag(np.array(self.omega0, dtype=complex)) + eps * self.omegaI


def _rotating_orders(
    sys: PerturbedSystem, max_order: int, t: float, psi0: np.ndarray, steps: int
) -> list[np.ndarray]:
    """Rotating-frame values phi_0(t) .. phi_max_order(t), max_order >= 1.

    Arrays are (modes, nodes) planes of one buffer per build.  Each plane
    holds the even nodes 0, 2, .., 2*steps and then the odd nodes 1, 3, ..,
    2*steps-1, so every stencil reads contiguous runs.  Each plane is
    written before it is read; each order overwrites the order before the
    previous one, whose columns first hold the Simpson pairs and odd
    corrections.  The last order needs only its last (even) node.

    A real-valued WI multiplies the float view of a plane: one real product
    rounds each part as the complex product with zero imaginary parts does.
    Every other multiply stays complex.  numpy rounds a complex a*b and b*a
    apart, and may swap them when it reuses a large temporary, so the
    phase and rotation products take out= in the formulas' operand order.
    The 4/5/19/9 and dx/3, dx/24 scalings multiply as by c + 0j, as the
    formulas do: that turns some exact -0 parts into +0, which a scaling of
    the float view would keep (a zero row of WI makes such parts).
    """
    n_fine = 2 * steps
    dx = t / n_fine
    grid = np.linspace(0.0, t, n_fine + 1)
    times = np.concatenate((grid[::2], grid[1::2]))
    phase, rotate_back, prev, cur, integrand = np.empty((5, len(psi0), n_fine + 1), complex)
    np.multiply(np.array(sys.omega0)[:, None], times, out=phase.imag)
    np.subtract(0.0, phase.imag, out=phase.imag)  # 0 - x, not -x: +0 at s=0, as -1j*grid*w
    phase.real = 0.0
    np.exp(phase, out=phase)
    np.negative(phase.imag, out=rotate_back.real)
    np.negative(phase.real, out=rotate_back.imag)
    real = not sys.omegaI.imag.any()
    coupling = np.ascontiguousarray(sys.omegaI.real) if real else sys.omegaI
    even, odd_nodes = integrand[:, : steps + 1], integrand[:, steps + 1 :]
    np.multiply(phase, psi0[:, None], out=prev)
    finals = [psi0]
    for order in range(1, max_order + 1):
        if order > 1:
            np.multiply(phase, prev, out=prev)
        if real:
            np.matmul(coupling, prev.view(float), out=integrand.view(float))
        else:
            np.matmul(coupling, prev, out=integrand)
        np.multiply(rotate_back, integrand, out=integrand)
        pair, odd = prev[:, :steps], prev[:, steps : 2 * steps - 1]
        np.multiply(4.0, odd_nodes, out=pair)
        pair += even[:, :-1]
        pair += even[:, 1:]
        pair *= dx / 3.0
        np.cumsum(pair, axis=1, out=cur[:, 1 : steps + 1])
        finals.append(cur[:, steps].copy())
        if order == max_order:
            break
        cur[:, 0] = 0.0
        cur[:, steps + 1] = (dx / 24.0) * (
            9.0 * even[:, 0] + 19.0 * odd_nodes[:, 0] - 5.0 * even[:, 1] + odd_nodes[:, 1]
        )
        np.multiply(5.0, odd_nodes[:, :-1], out=odd)
        np.subtract(even[:, :-2], odd, out=odd)
        scaled = pair[:, :-1]
        for weight, nodes in ((19.0, even[:, 1:-1]), (9.0, odd_nodes[:, 1:])):
            odd += np.multiply(weight, nodes, out=scaled)
        odd *= dx / 24.0
        np.add(cur[:, 1:steps], odd, out=cur[:, steps + 2 :])
        prev, cur = cur, prev
    return finals


def _read_orders(sys, max_order, t, psi0, steps):
    """The arguments of terms and partial_sum, read, and what both build:
    (t, exp(-i W0 t), [phi_0(t) .. phi_max_order(t)]), or [psi0] alone at
    max_order 0 or t = 0, where every later order is zero."""
    linalg.as_integer(max_order, "order", 0)
    linalg.as_integer(steps, "steps", 0)
    t = linalg.as_real(t, "t", 0)
    if steps < 10 * max_order:
        raise ValueError(f"steps={steps} too coarse for order {max_order}; need >= {10 * max_order}")
    vec = linalg.as_vector(psi0, sys.dim, "psi0")
    with np.errstate(all="ignore"):
        phase = np.exp(-1j * np.array(sys.omega0) * t)
        if max_order == 0 or t == 0.0:
            return t, phase, [vec]
        return t, phase, _rotating_orders(sys, max_order, t, vec, steps)


def terms(
    sys: PerturbedSystem, max_order: int, t: float, psi0, steps: int
) -> list[np.ndarray]:
    """Coefficients psi_0(t) .. psi_max_order(t) from one trajectory build.

    Raises:
        ValueError: a bad argument, or steps < 10 * max_order.
        NonFiniteResult: naming the first order that is not finite.
    """
    t, phase, phis = _read_orders(sys, max_order, t, psi0, steps)
    with np.errstate(all="ignore"):
        coeffs = [phase * phi for phi in phis + [0j] * (max_order + 1 - len(phis))]
    for order, coeff in enumerate(coeffs):
        if not np.isfinite(coeff).all():
            raise NonFiniteResult(f"order {order} is not finite at t={t:g}")
    return coeffs


def term(
    sys: PerturbedSystem, order: int, t: float, psi0, steps: int
) -> np.ndarray:
    """Coefficient psi_n(t) of eps^n in the expansion (epsilon-independent).

    Raises:
        ValueError: a bad argument, or steps < 10 * order.
        NonFiniteResult: when an order up to `order` is not finite.
    """
    return terms(sys, order, t, psi0, steps)[order]


def partial_sum(
    sys: PerturbedSystem, max_order: int, t: float, psi0, steps: int
) -> np.ndarray:
    """sum_{n=0}^{max_order} eps^n psi_n(t); NonFiniteResult if not finite."""
    t, phase, phis = _read_orders(sys, max_order, t, psi0, steps)
    with np.errstate(all="ignore"):
        weights = [linalg._pow_or_inf(sys.epsilon, n) for n in range(len(phis))]
        total = phase * (sum(w * phi for w, phi in zip(weights, phis)) if len(phis) > 1 else phis[0])
    if not np.isfinite(total).all():
        raise NonFiniteResult(f"partial sum through order {max_order} is not finite at t={t:g}")
    return total


@dataclass(frozen=True)
class ConvergenceReport:
    """Residual norms ||partial_sum - exact|| for an (order, epsilon) grid."""

    t: float
    orders: tuple[int, ...]
    eps_grid: tuple[float, ...]
    residuals: np.ndarray  # shape (len(orders), len(eps_grid))
    monotone: tuple[bool, ...]  # per epsilon: residual non-increasing in order


def convergence_report(
    sys: PerturbedSystem, t: float, psi0, orders, eps_grid, steps: int
) -> ConvergenceReport:
    """Residuals of truncated sums against the exact propagator.

    Order coefficients are computed once and reweighted per epsilon; the
    exact reference is exp(-i (W0 + eps WI) t) psi0.
    """
    orders = tuple(linalg.as_integer(k, "order", 0) for k in orders)
    eps_grid = tuple(linalg.as_real(e, "epsilon", 0, 1) for e in eps_grid)
    if not orders or not eps_grid:
        raise ValueError("orders and eps_grid must be non-empty")
    coeffs = terms(sys, max(orders), t, psi0, steps)
    vec = linalg.as_vector(psi0, sys.dim, "psi0")

    residuals = np.zeros((len(orders), len(eps_grid)))
    for j, eps in enumerate(eps_grid):
        exact = linalg.matrix_exponential_apply(sys.full_matrix(eps), t, vec)
        sums = np.cumsum([linalg._pow_or_inf(eps, n) * coeff for n, coeff in enumerate(coeffs)], axis=0)
        residuals[:, j] = [np.linalg.norm(sums[order] - exact) for order in orders]
    ranked = residuals[np.argsort(orders, kind="stable")]
    monotone = tuple((ranked[1:] <= ranked[:-1]).all(axis=0).tolist())
    return ConvergenceReport(
        t=float(t), orders=orders, eps_grid=eps_grid, residuals=residuals, monotone=monotone
    )
