"""Exception types raised by the oscpert package."""


class OscPertError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(OscPertError):
    """Matrix/vector shapes are incompatible with the requested operation."""


class NonConvergence(OscPertError):
    """A LAPACK or Pade solve failed, or its result missed its residual check."""


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


class ResolutionTooCoarse(OscPertError):
    """Quadrature grid too coarse for the requested expansion order."""


class DegenerateFrequencies(OscPertError):
    """Effective mode frequencies are closer than the configured gap."""


class InvalidLowerParameter(OscPertError):
    """A lower hypergeometric parameter hits a non-positive integer before the
    series terminates."""


class MaxTermsExceeded(OscPertError):
    """Hypergeometric summation hit the term cap before converging.

    Attributes:
        partial: the accumulated partial sum.
        last_term: the final term added.
    """

    def __init__(self, message: str, partial: complex, last_term: complex):
        super().__init__(message)
        self.partial = partial
        self.last_term = last_term


class TruncationNotConverged(OscPertError):
    """The outermost retained shell of a series still contributes more than
    the requested relative tolerance."""


class UnknownModel(OscPertError):
    """Benchmark registry lookup with an unrecognized identifier."""


class NoTransition(OscPertError):
    """Spectrum reality does not change across the supplied bracket."""
