"""Exception types raised by the densecap library."""


class DensecapError(Exception):
    """Base class for all densecap errors."""


class BadDimension(DensecapError, ValueError):
    """Matrix has the wrong shape for the requested operation."""


class NonUnitary(DensecapError, ValueError):
    """Matrix expected to be unitary is not, beyond tolerance."""


class OutOfRange(DensecapError, ValueError):
    """Family parameter lies outside its admissible range."""


class NotNormalized(OutOfRange):
    """Amplitude pair is not normalized."""


class NotASimplex(OutOfRange):
    """Probability vector is not a valid simplex point."""


class InvalidState(DensecapError, ValueError):
    """Matrix fails the density-matrix invariants."""


class NotPure(DensecapError, ValueError):
    """State is not pure within tolerance."""

