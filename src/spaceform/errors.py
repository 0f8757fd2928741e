"""Exception hierarchy for spaceform, and the one pass/fail comparison of
the library's gates."""

import numpy as np


class SpaceformError(Exception):
    """Base class for all library errors.

    A located error names the violated condition (``which``), the grid
    index where it fails worst (``location``) and the value there; other
    errors leave the three None.
    """

    def __init__(self, message="", which=None, location=None, value=None):
        super().__init__(message)
        self.which = which
        self.location = location
        self.value = value

    @classmethod
    def at_worst(cls, score, which, value=None):
        """The error located at the worst point of the real array ``score``:
        its first NaN, else its largest entry (``np.argmax`` returns the
        first NaN).  ``value`` (default ``score``) is reported there."""
        score = np.asarray(score)
        loc = tuple(int(i) for i in np.unravel_index(np.argmax(score), score.shape))
        v = (score if value is None else np.asarray(value))[loc]
        v = complex(v) if np.iscomplexobj(v) else float(v)
        return cls(f"{which} at {loc} (value {v:.3e})", which, loc, v)


class DimensionMismatch(SpaceformError):
    pass


class InvalidCase(SpaceformError):
    pass


class FrameNormalizationError(SpaceformError):
    pass


class HypothesisViolated(SpaceformError):
    """A constructive-theorem precondition failed."""


class DegenerateDelta(HypothesisViolated):
    """The twistor discriminant dropped below threshold somewhere."""


class SignMismatch(SpaceformError):
    pass


class IncompatiblePair(SpaceformError):
    pass


class InvalidInitialFrame(SpaceformError):
    pass


class NonFiniteState(SpaceformError):
    pass


class DegenerateFrame(SpaceformError):
    pass


class LiouvilleViolated(SpaceformError):
    pass


class DomainViolation(SpaceformError):
    pass


class NonLorentz(SpaceformError):
    pass


class TotallyGeodesicRegion(SpaceformError):
    pass


class ConfigError(SpaceformError):
    """Malformed CLI configuration or input file."""


def check_residual(res, bound, which, error=HypothesisViolated):
    """Raise ``error`` at the worst |res| unless every |res| <= bound; a NaN
    residual fails (``np.max`` propagates it)."""
    r = np.abs(res)
    if not np.max(r) <= bound:
        raise error.at_worst(r, which)
