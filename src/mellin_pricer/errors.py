"""Exception types raised by the pricing library."""


class PricingError(Exception):
    """Base class for all library-specific errors."""


class PoleError(PricingError):
    """A Mellin-transform argument left the strip of convergence (Re(w) <= 0)."""


class NoBracket(PricingError):
    """The critical-price equation has no sign change on the search bracket."""


class NegativeRadicand(PricingError):
    """A square-root argument in the critical-price formula is negative."""


class NoAdmissibleK(PricingError):
    """No lattice index can land the grid on the requested log price."""


class GridTooCoarse(PricingError):
    """The landing constraint forces a log-price spacing above 1."""


class ImagResidualTooLarge(PricingError):
    """The FFT output imaginary part exceeds the quality threshold."""


class SurfaceQualityError(PricingError):
    """Too many lattice values needed clamping; the grid is misconfigured."""


class NonFiniteSpot(PricingError):
    """A spot price is NaN or infinite."""


class OutOfRange(PricingError):
    """A query price lies outside the lattice in some dimension."""


class RangeViolation(PricingError):
    """A series-inversion query lies outside the configured log-price range."""


class InvalidProbability(PricingError):
    """The lattice risk-neutral probability left [0, 1] beyond tolerance."""


class CholeskyFailure(PricingError):
    """The correlation matrix admits no Cholesky factor even after clipping."""
