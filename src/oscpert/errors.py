"""Exception types raised by the oscpert package: each one refuses a result.

Bad input (a wrong number, shape or model id) is a ValueError, never one of
these."""


class OscPertError(Exception):
    """Base class for all package-specific refusals."""


class NonConvergence(OscPertError):
    """A computation did not converge to its tolerance: a LAPACK or Pade
    solve failed or missed its residual check, a 2F2 series reached its term
    cap, or a block's last retained shell exceeds shell_tol."""


class NotSymmetrizable(OscPertError):
    """No positive diagonal scaling balances the matrix.

    Attributes:
        witness: node indices of a cycle (or pair) whose weight products
            cannot be balanced by any positive scaling.
    """

    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = tuple(witness)


class InvalidDecomposition(OscPertError):
    """An explicit one-way part violates a decomposition invariant."""


class DegenerateFrequencies(OscPertError):
    """Effective mode frequencies are closer than the configured gap."""


class NoTransition(OscPertError):
    """Spectrum reality does not change across the supplied bracket."""


class NonFiniteResult(OscPertError):
    """A computed value overflowed or is NaN: eigenvalues or a propagator
    (or its argument's norm), a quadrature order or partial sum, a
    symmetrizability certificate, a coupling ratio (at eps != 0 only, where
    a1 a2 a3 eps^3 or its quotient overflows), phase, 2F2 term or sum, block
    total, psi_1 or closed-form term, or an eigenfrequency estimate or term."""
