"""Dense complex linear algebra for small matrices, and the number intakes.

Everything downstream (time-ordered expansions, eigenfrequency matching,
series resummation checks) is validated against the three operations here:
eigenvalues (of one matrix or of a stack of them) and the unitary-style
propagator exp(-i*M*t), alone or applied to a vector.

Every number a public entry point takes is read by one of four intakes:
as_real and as_integer for scalars, as_vector and as_square_matrix (with
as_array, for any shape, beneath them) for arrays.  Each refuses bad input
with ValueError: a bool, a str, None, a complex where a real is due, NaN or
+-inf where a finite value is, and a wrong shape or length; numpy scalars
pass.  Every integer power of a float in the package is _pow_or_inf's: libm
pow, as Python's float ** int calls it, whatever SIMD loops numpy picks.

Matrices and vectors are plain numpy arrays (complex128 internally).  All
operations are pure functions of their value inputs and never mutate them,
so results are safe to share across threads.
"""
from __future__ import annotations

import math
import numbers
from itertools import repeat

import numpy as np

from .errors import NonConvergence, NonFiniteResult

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

RESIDUAL_TOL = 1e-10  # relative characteristic-polynomial residual, n <= 3


def as_real(value, name: str, lo=None, hi=None) -> float:
    """``value``, a real number (np.bool_ is none), as a finite float, at
    least lo (lo=0: non-negative) or in [lo, hi] where given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf if value > 0 else -math.inf
    if hi is not None and not lo <= x <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {x}")
    if lo is not None and not lo <= x < math.inf:
        bound = "non-negative" if lo == 0 else f">= {lo}"
        raise ValueError(f"{name} must be finite and {bound}, got {x}")
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    return x


def as_integer(value, name: str, lo=None) -> int:
    """``value``, an integer (numpy's too, a float never), as an int >= lo."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    return int(value)


def as_array(x, name: str, dtype=complex) -> np.ndarray:
    """``x`` as a float64 (dtype=float) or complex128 array of its shape,
    refused by numpy's dtype: bool, str, object (a None or a ragged row) or,
    for float, complex.  numpy reads a list that mixes bools into numbers as
    a number array, so no intake sees those bools."""
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # ragged rows
        raise ValueError(f"{name} must be a regular array of numbers: {exc}") from exc
    if arr.dtype.kind not in ("iuf" if dtype is float else "iufc"):
        kind = "real numbers" if dtype is float else "numbers"
        raise ValueError(f"{name} must hold {kind}, got {arr.dtype} entries")
    return arr.astype(dtype, copy=False)


def as_square_matrix(m, name: str = "matrix", dtype=complex) -> np.ndarray:
    """``m`` as a finite, non-empty, square complex128 (or dtype) array; any
    other shape or a non-finite entry is a ValueError."""
    arr = as_array(m, name, dtype)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, n: int | None = None, name: str = "vector", dtype=complex) -> np.ndarray:
    """``v`` flattened to a finite complex128 (or dtype) vector; a length other
    than ``n`` (where given) or a non-finite entry is a ValueError."""
    arr = as_array(v, name, dtype).reshape(-1)
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _pow_or_inf(v, n: int):
    """v**n by libm pow as float ** int calls it, for a float or per entry of an
    array (np.power and x*x differ from it in the last ulp on some inputs);
    where it overflows, the infinity of the power's sign, as pow returns it."""
    if isinstance(v, np.ndarray):
        values = v.ravel().tolist()
        try:
            out = np.fromiter(map(pow, values, repeat(float(n))), float, len(values))
        except OverflowError:
            out = np.array([_pow_or_inf(x, n) for x in values], dtype=float)
        return out.reshape(v.shape)
    try:
        return v**n
    except OverflowError:
        return math.copysign(math.inf, v) if n % 2 else math.inf


def _check_finite_result(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteResult(f"non-finite values produced by {context}")
    return arr


def eigenvalues(m):
    """All eigenvalues of a square matrix, with algebraic multiplicity.

    Returned unsorted, as a list of complex.  An (N, n, n) stack of matrices
    is solved in one LAPACK batch and gives an (N, n) complex array whose
    row k holds the eigenvalues of m[k]; an empty stack calls no LAPACK.
    For dimension <= 3 the result is additionally checked against the
    characteristic polynomial: each root must satisfy |p(lam)| <=
    RESIDUAL_TOL * scale, where scale is a norm-based magnitude bound of its
    matrix; the test is made on the matrix and roots divided by their largest
    entry part (or 1), so it stays finite for entries of any size.

    Raises:
        ValueError: m is not a finite square matrix or (N, n, n) stack.
        NonConvergence: if the underlying QR iteration fails, or the
            characteristic-polynomial residual check fails for n <= 3.
    """
    arr = as_array(m, "matrix")
    single = arr.ndim != 3
    if single:
        arr = as_square_matrix(arr)[None]
    elif arr.shape[1] != arr.shape[2] or arr.shape[1] < 1:
        raise ValueError(f"matrix stack must be (N, n, n), got shape {arr.shape}")
    elif not np.all(np.isfinite(arr)):
        raise ValueError("matrix stack contains non-finite entries")
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
        scale = _pow_or_inf(np.maximum(1.0, np.linalg.norm(unit, axis=(1, 2))), n)
        residual = np.zeros_like(roots)
        for k in range(n + 1):  # Horner, as np.polyval
            residual = residual * roots + coeffs[:, k, None]
        residual = np.abs(residual)
        bad = np.argwhere(residual > RESIDUAL_TOL * scale[:, None])
        if bad.size:
            k, i = bad[0]
            raise NonConvergence(
                f"eigenvalue {vals[k, i]} has characteristic residual "
                f"{residual[k, i]:.3e} above {RESIDUAL_TOL:.1e} * {scale[k]:.3e}"
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
    """exp(a) via scaling-and-squaring with a degree-13 Pade approximant;
    NonFiniteResult where the 1-norm of a overflows (no squaring count fits)."""
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise NonFiniteResult(f"propagator argument has 1-norm {norm}")
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
    the unperturbed-mode evolution exact to rounding.  An exponential that
    overflows, or an m * t that does, raises NonFiniteResult; numpy warns
    nothing.
    """
    arr = as_square_matrix(m)
    t = as_real(t, "t")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are refused below
        if np.array_equal(arr, np.diag(np.diag(arr))):
            out = np.diag(np.exp(-1j * np.diag(arr) * t))
        else:
            out = _expm_pade13(-1j * arr * t)
    return _check_finite_result(out, "propagator")


def matrix_exponential_apply(m, t: float, v) -> np.ndarray:
    """Apply the propagator exp(-1j * m * t) to a vector; a vector whose
    length differs from the matrix size is a ValueError."""
    prop = propagator(m, t)
    return prop @ as_vector(v, len(prop))
