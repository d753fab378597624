"""Dense complex linear algebra for small matrices.

Everything downstream (time-ordered expansions, eigenfrequency matching,
series resummation checks) is validated against the three operations here:
eigenvalues (of one matrix or of a stack of them) and the unitary-style
propagator exp(-i*M*t), alone or applied to a vector.

Matrices and vectors are plain numpy arrays (complex128 internally).  All
operations are pure functions of their value inputs and never mutate them,
so results are safe to share across threads.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonConvergence

# Pade-13 numerator coefficients and the matching 1-norm threshold for
# scaling-and-squaring (Higham 2005 constants, double precision).
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a square complex128 array."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a complex128 vector of length ``n``."""
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if n is not None and arr.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {arr.shape[0]}, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_finite_result(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ArithmeticError(f"non-finite values produced by {context}")
    return arr


def eigenvalues(m, tol: float = 1e-10):
    """All eigenvalues of a square matrix, with algebraic multiplicity.

    Returned unsorted, as a list of complex.  An (N, n, n) stack of matrices
    is solved in one LAPACK batch and gives an (N, n) complex array whose
    row k holds the eigenvalues of m[k]; an empty stack calls no LAPACK.
    For dimension <= 3 the result is additionally checked against the
    characteristic polynomial: each root must satisfy |p(lam)| <= tol * scale,
    where scale is a norm-based magnitude bound of its matrix; the test is
    made on the matrix and roots divided by their largest entry part (or 1),
    so it stays finite for entries of any size.

    Raises:
        NonConvergence: if the underlying QR iteration fails, or the
            characteristic-polynomial residual check fails for n <= 3.
    """
    arr = np.asarray(m, dtype=complex)
    single = arr.ndim != 3
    if single:
        arr = as_square_matrix(arr)[None]
    elif arr.shape[1] != arr.shape[2] or arr.shape[1] < 1:
        raise DimensionMismatch(f"matrix stack must be (N, n, n), got shape {arr.shape}")
    elif not np.all(np.isfinite(arr)):
        raise ValueError("matrix stack contains non-finite entries")
    if not tol > 0:
        raise ValueError("tol must be positive")
    n = arr.shape[1]
    if arr.shape[0] == 0:
        return np.empty((0, n), dtype=complex)
    try:
        vals = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc
    _check_finite_result(vals, "eigenvalues")
    if n <= 3:
        # the check runs on M/s and lam/s, s the largest of 1 and every |Re|
        # and |Im| of an entry: the same test in exact arithmetic (the norm
        # bounds s), but no power, product or residual can overflow
        parts = np.maximum(np.abs(arr.real), np.abs(arr.imag))
        s = np.maximum(1.0, parts.max(axis=(1, 2)))
        unit, roots = arr / s[:, None, None], vals / s[:, None]
        coeffs = _charpoly_coeffs(unit)
        scale = np.maximum(1.0, np.linalg.norm(unit, axis=(1, 2))) ** n
        residual = np.zeros_like(roots)
        for k in range(n + 1):  # Horner, as np.polyval
            residual = residual * roots + coeffs[:, k, None]
        residual = np.abs(residual)
        bad = np.argwhere(residual > tol * scale[:, None])
        if bad.size:
            k, i = bad[0]
            raise NonConvergence(
                f"eigenvalue {vals[k, i]} has characteristic residual "
                f"{residual[k, i]:.3e} above {tol:.1e} * {scale[k]:.3e}"
            )
    return [complex(v) for v in vals[0]] if single else vals


def _charpoly_coeffs(arr: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients (monic, highest power first)
    of each matrix in an (N, n, n) stack with n <= 3, assembled from trace,
    principal minors and determinant; shape (N, n + 1)."""
    n = arr.shape[1]
    a = [[arr[:, i, j] for j in range(n)] for i in range(n)]
    one = np.ones(arr.shape[0], dtype=complex)
    if n == 1:
        return np.stack([one, -a[0][0]], axis=1)
    if n == 2:
        tr = a[0][0] + a[1][1]
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        return np.stack([one, -tr, det], axis=1)
    tr = a[0][0] + a[1][1] + a[2][2]
    minors = (
        (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        + (a[0][0] * a[2][2] - a[0][2] * a[2][0])
        + (a[0][0] * a[1][1] - a[0][1] * a[1][0])
    )
    det = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    return np.stack([one, -tr, minors, -det], axis=1)


def _expm_pade13(a: np.ndarray) -> np.ndarray:
    """exp(a) via scaling-and-squaring with a degree-13 Pade approximant."""
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    squarings = 0
    if norm > _PADE13_THETA:
        squarings = max(0, int(math.ceil(math.log2(norm / _PADE13_THETA))))
        a = a / (2.0**squarings)
    b = _PADE13_B
    ident = np.eye(n, dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
    try:
        result = np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise NonConvergence(f"Pade solve failed: {exc}") from exc
    for _ in range(squarings):
        result = result @ result
    return result


def propagator(m, t: float) -> np.ndarray:
    """The full matrix exp(-1j * m * t).

    Diagonal inputs short-circuit to an entrywise exponential, which keeps
    the unperturbed-mode evolution exact to rounding.
    """
    arr = as_square_matrix(m)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    diag = np.diag(np.diag(arr))
    if np.array_equal(arr, diag):
        return np.diag(np.exp(-1j * np.diag(arr) * t))
    return _check_finite_result(_expm_pade13(-1j * arr * t), "propagator")


def matrix_exponential_apply(m, t: float, v) -> np.ndarray:
    """Apply the propagator exp(-1j * m * t) to a vector.

    Raises:
        DimensionMismatch: if the vector length differs from the matrix size.
    """
    arr = as_square_matrix(m)
    vec = as_vector(v, arr.shape[0])
    return propagator(arr, t) @ vec
