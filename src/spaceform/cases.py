"""The five signature cases and their frame conventions.

Every computation in the library is dispatched on :class:`SurfaceCase`.
Two tables are written out per case:

* ``COLUMN_SIGNS``, the signs of the squared norms of (T1, T2, N1, N2),
  each equal to ``sign * exp(2*lambda)``; they fix the case;
* ``FRAME_ORDER``, the order in which the tangent and normal directions
  appear in the oriented frame (e1, e2, e3, e4).

The rest is derived from ``COLUMN_SIGNS``: the metric type of the
normalized frame (``METRIC_TYPE``, from the number of minus signs), which
fixes the Hodge star; the ambient flat model for each sign of L0
(``fundamental.ambient_model``); and the signs of the connection matrices
(``fundamental.CONNECTION_TABLES``).
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
        """True when exactly one column sign is -1."""
        return COLUMN_SIGNS[self].count(-1) == 1


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

# Hodge-star flavour of the normalized frame (e1..e4), indexed by the
# number of minus signs.
EUCLIDEAN = "euclidean"   # (+,+,+,+), * is an involution
LORENTZ = "lorentz"       # (+,+,+,-), *^2 = -Id
NEUTRAL = "neutral"       # (+,+,-,-), * is an involution

METRIC_TYPE = {case: (EUCLIDEAN, LORENTZ, NEUTRAL)[signs.count(-1)]
               for case, signs in COLUMN_SIGNS.items()}


def case_from_name(name: str) -> SurfaceCase:
    """Look a case up by enum name (``RIEM``) or value (``riemannian``)."""
    key = name.strip()
    for c in SurfaceCase:
        if key == c.name or key == c.value:
            return c
    raise KeyError(f"unknown surface case: {name!r}")
