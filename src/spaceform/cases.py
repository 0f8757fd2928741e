"""The five signature cases and their frame conventions.

Every computation in the library is dispatched on :class:`SurfaceCase`.
The tables below collect, per case:

* the metric type of the normalized 4-frame (euclidean / neutral / lorentz),
  which fixes the Hodge star;
* the order in which the tangent and normal directions appear in the
  oriented frame (e1, e2, e3, e4);
* the signs of the squared norms of (T1, T2, N1, N2), each equal to
  ``sign * exp(2*lambda)``;
* the ambient flat model for each sign of the sectional curvature L0.
"""

from __future__ import annotations

import enum


class SurfaceCase(enum.Enum):
    RIEM = "riemannian"
    NEUT_SPACE = "neutral-spacelike"
    NEUT_TIME = "neutral-timelike"
    LOR_SPACE = "lorentzian-spacelike"
    LOR_TIME = "lorentzian-timelike"

    @property
    def is_lorentzian(self) -> bool:
        return self in (SurfaceCase.LOR_SPACE, SurfaceCase.LOR_TIME)

    @property
    def is_timelike(self) -> bool:
        """True when the induced metric on the surface is Lorentzian."""
        return self in (SurfaceCase.NEUT_TIME, SurfaceCase.LOR_TIME)


# Hodge-star flavour of the normalized frame (e1..e4).
EUCLIDEAN = "euclidean"   # (+,+,+,+), * is an involution
NEUTRAL = "neutral"       # (+,+,-,-), * is an involution
LORENTZ = "lorentz"       # (+,+,+,-), *^2 = -Id

METRIC_TYPE = {
    SurfaceCase.RIEM: EUCLIDEAN,
    SurfaceCase.NEUT_SPACE: NEUTRAL,
    SurfaceCase.NEUT_TIME: NEUTRAL,
    SurfaceCase.LOR_SPACE: LORENTZ,
    SurfaceCase.LOR_TIME: LORENTZ,
}

# Diagonal metric of the normalized frame, in frame order.
FRAME_METRIC = {
    EUCLIDEAN: (1, 1, 1, 1),
    NEUTRAL: (1, 1, -1, -1),
    LORENTZ: (1, 1, 1, -1),
}

# Position of (T1, T2, N1, N2) inside the oriented frame (e1, e2, e3, e4).
# E.g. NEUT_TIME orients by (T1, N1, T2, N2).
FRAME_ORDER = {
    SurfaceCase.RIEM: ("T1", "T2", "N1", "N2"),
    SurfaceCase.NEUT_SPACE: ("T1", "T2", "N1", "N2"),
    SurfaceCase.NEUT_TIME: ("T1", "N1", "T2", "N2"),
    SurfaceCase.LOR_SPACE: ("T1", "T2", "N1", "N2"),
    SurfaceCase.LOR_TIME: ("N1", "N2", "T1", "T2"),
}

# Signs s in <V, V> = s * exp(2*lambda) for V in (T1, T2, N1, N2).
COLUMN_SIGNS = {
    SurfaceCase.RIEM: (1, 1, 1, 1),
    SurfaceCase.NEUT_SPACE: (1, 1, -1, -1),
    SurfaceCase.NEUT_TIME: (1, -1, 1, -1),
    SurfaceCase.LOR_SPACE: (1, 1, 1, -1),
    SurfaceCase.LOR_TIME: (1, -1, 1, 1),
}

# Signature diagonal of the ambient flat model per sign of L0.
# Minus entries are listed last; frame axes are assigned by sign.
AMBIENT_TABLE = {
    SurfaceCase.RIEM: {
        0: (1, 1, 1, 1),
        1: (1, 1, 1, 1, 1),
        -1: (1, 1, 1, 1, -1),
    },
    SurfaceCase.NEUT_SPACE: {
        0: (1, 1, -1, -1),
        1: (1, 1, 1, -1, -1),
        -1: (1, 1, -1, -1, -1),
    },
    SurfaceCase.NEUT_TIME: {
        0: (1, 1, -1, -1),
        1: (1, 1, 1, -1, -1),
        -1: (1, 1, -1, -1, -1),
    },
    SurfaceCase.LOR_SPACE: {
        0: (1, 1, 1, -1),
        1: (1, 1, 1, 1, -1),
        -1: (1, 1, 1, -1, -1),
    },
    SurfaceCase.LOR_TIME: {
        0: (1, 1, 1, -1),
        1: (1, 1, 1, 1, -1),
        -1: (1, 1, 1, -1, -1),
    },
}


def case_from_name(name: str) -> SurfaceCase:
    """Look a case up by enum name (``RIEM``) or value (``riemannian``)."""
    key = name.strip()
    for c in SurfaceCase:
        if key == c.name or key == c.value:
            return c
    raise KeyError(f"unknown surface case: {name!r}")
