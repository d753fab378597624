"""Randomized invariant checks shared by the property and acceptance suites.

Each check returns None on success and raises AssertionError with context on
failure.  Models are drawn with well-separated effective frequencies so the
closed-form denominators stay safe.
"""
from __future__ import annotations

import cmath

import numpy as np

from oscpert import eigenfreq as ef, linalg, threemode as tm
from oscpert.threemode import SeriesTruncation, ThreeModeModel

from oracles import _cancel_params

HYP_TRUNC = SeriesTruncation(k_max=2, tail_tol=1e-14)


def draw_model(rng: np.random.Generator, eps_max: float = 0.3) -> ThreeModeModel:
    """A non-degenerate random model with epsilon in [0, eps_max]."""
    while True:
        omega = rng.uniform(0.5, 12.0, size=3)
        d = rng.uniform(0.0, 2.0, size=3)
        eps = float(rng.uniform(0.0, eps_max))
        eff = omega + eps * d
        gaps = [abs(eff[i] - eff[j]) for i in range(3) for j in range(i + 1, 3)]
        if min(gaps) > 0.3:
            a = rng.uniform(0.3, 5.0, size=3)
            return ThreeModeModel(
                omega=tuple(omega), a=tuple(a), d=tuple(d), epsilon=eps
            )


def check_xyz_cross_identity(model: ThreeModeModel) -> None:
    w1, w2, w3 = tm.effective_frequencies(model)
    r = tm.xyz(model)
    target = model.a[0] * model.a[1] * model.a[2] * model.epsilon**3
    scale = max(abs(target), 1e-30)
    for label, value in (
        ("X", r.X * (w1 - w2) * (w3 - w1)),
        ("Y", r.Y * (w2 - w3) * (w3 - w1)),
        ("Z", r.Z * (w1 - w2) * (w2 - w3)),
    ):
        assert abs(value - target) <= 1e-10 * scale, (label, value, target)


def check_nesting_identity(model: ThreeModeModel) -> None:
    for which in (1, 2, 3):
        base, inc1, inc2 = ef.estimate_increments(model, which)
        app0 = ef.estimate(model, which, "app0")
        app1 = ef.estimate(model, which, "app1")
        app2 = ef.estimate(model, which, "app2")
        scale = 1.0 + abs(app2)
        assert abs((app1 - app0) - inc1) <= 1e-12 * scale
        assert abs((app2 - app1) - inc2) <= 1e-12 * scale


def check_hyp_reductions(rng: np.random.Generator) -> None:
    """On the imaginary axis, where every block column's argument lies, the
    2F2 engine sums e^z for parameters that all cancel and 1 at z = 0."""
    a = float(rng.uniform(0.5, 4.0))
    # two draws for z, as before block columns fixed its real part at 0,
    # so that the checks after this one see the same generator state
    y = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)).imag
    assert _cancel_params([a, 2 * a], [2 * a, a]) == ([], [])
    pad, limit = np.full((2, 1), np.nan), np.array([tm.MAX_TERMS])
    ell = np.arange(tm.MAX_TERMS)
    (got,) = tm._hyp_sums(tm._term_ratios(pad, pad, ell), np.array([y]), limit, HYP_TRUNC.tail_tol)
    assert abs(got - cmath.exp(1j * y)) <= 1e-12
    upper, lower = np.array([[a], [2 * a]]), np.array([[a + 1], [a + 2]])
    (one,) = tm._hyp_sums(tm._term_ratios(upper, lower, ell), np.zeros(1), limit, HYP_TRUNC.tail_tol)
    assert one == 1.0


def check_group_property(model: ThreeModeModel, rng: np.random.Generator) -> None:
    mat = tm.omega_matrix(model)
    budget = 20.0 / max(np.linalg.norm(mat), 1.0)
    t = float(rng.uniform(0.1, 0.6)) * budget
    s = float(rng.uniform(0.1, 0.4)) * budget
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    stepwise = linalg.matrix_exponential_apply(
        mat, s, linalg.matrix_exponential_apply(mat, t, v)
    )
    direct = linalg.matrix_exponential_apply(mat, t + s, v)
    assert np.linalg.norm(stepwise - direct) <= 1e-10 * np.linalg.norm(direct)


def check_wave_equation(model: ThreeModeModel, rng: np.random.Generator) -> None:
    # exp(-i Omega t) psi0 solves psi'' = -Omega^2 psi; central differences
    # converge at O(h^2)
    mat = tm.omega_matrix(model)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    t = float(rng.uniform(0.5, 1.5))
    target = -mat @ mat @ linalg.matrix_exponential_apply(mat, t, v)

    def central_error(h: float) -> float:
        second = (
            linalg.matrix_exponential_apply(mat, t + h, v)
            - 2.0 * linalg.matrix_exponential_apply(mat, t, v)
            + linalg.matrix_exponential_apply(mat, t - h, v)
        ) / h**2
        return float(np.linalg.norm(second - target))

    e_coarse = central_error(1e-3)
    e_fine = central_error(5e-4)
    assert e_fine <= max(e_coarse / 3.0, 1e-11), (e_coarse, e_fine)
