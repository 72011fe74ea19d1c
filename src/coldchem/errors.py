"""Exception hierarchy.

Invalid arguments raise plain ValueError / TypeError.  Everything that can
only be detected at run time (a calibration that fails to bracket, a grid
that cannot reach the asymptotic region, a scattering matrix that breaches
unitarity) derives from ColdchemError so callers can catch one base class.
"""


class ColdchemError(Exception):
    """Base class for runtime failures of the scattering engine.

    ``row`` is the index of the failing point when a batch of points was
    computed together, and None otherwise.
    """

    row: int | None = None


class NumericalError(ColdchemError):
    """A numerical invariant was violated during propagation or matching."""


class UnitarityError(NumericalError):
    """An S-matrix element left the unit disk beyond tolerance."""


class GridError(ColdchemError):
    """A radial grid or potential-curve sampling request cannot be met."""


class MatchingError(ColdchemError):
    """Asymptotic matching failed (closed channel, or degenerate match)."""


class CalibrationError(ColdchemError):
    """Short-range phase calibration found no acceptable root."""


class SingularConversionError(ColdchemError):
    """A conversion between S-matrix and scattering length is singular."""


class FitError(ColdchemError):
    """A least-squares or simplex fit failed to produce a usable result."""


class ScanError(ColdchemError):
    """A grid sweep failed part-way; completed points ride along.

    ``partial`` holds a RateCurve of the points finished before the failure
    (None when nothing completed).
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
