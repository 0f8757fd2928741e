"""Bivectors of a rank-4 bundle, the eigen-frames of its Hodge star, and
the projection of bivector maps onto a self-dual frame.

The metric of the normalized frame enters only through the case's
``METRIC_TYPE``; the ambient metric is the diagonal tuple
``SpaceFormModel.ambient``, used where vectors are paired.  Bivector
components are always stored in the fixed order

    (12, 13, 14, 23, 24, 34)

as complex numbers; real cases simply carry zero imaginary parts.  The
eigen-frames of the Hodge star of each metric flavour are tabulated
against this order.  Every induced action on a self-dual triple is a 6x6
bivector map read through :func:`selfdual_projection`.
"""

from __future__ import annotations

import numpy as np

from .cases import (
    EUCLIDEAN,
    LORENTZ,
    METRIC_TYPE,
    NEUTRAL,
    SurfaceCase,
)

BIVECTOR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_INDEX = {p: k for k, p in enumerate(BIVECTOR_PAIRS)}

SQRT2 = np.sqrt(2.0)


def _theta_components(metric_type: str):
    """The six Theta bivectors of the case's eigen-frames, as rows.

    Real flavours: returns (plus_family, minus_family) where family s holds
    Theta_{s,1..3} built from (e1^e2 + s e3^e4)/sqrt2 etc.  Lorentz flavour:
    (Theta_1..3, conjugates).
    """
    z = np.zeros((3, 6), dtype=complex)
    if metric_type == LORENTZ:
        z[0, _PAIR_INDEX[(0, 1)]] = 1 / SQRT2
        z[0, _PAIR_INDEX[(2, 3)]] = 1j / SQRT2
        z[1, _PAIR_INDEX[(0, 2)]] = 1 / SQRT2
        z[1, _PAIR_INDEX[(1, 3)]] = -1j / SQRT2   # e4 ^ e2 = -e2 ^ e4
        z[2, _PAIR_INDEX[(0, 3)]] = 1j / SQRT2
        z[2, _PAIR_INDEX[(1, 2)]] = 1 / SQRT2
        return z, np.conj(z)
    plus = np.zeros((3, 6), dtype=complex)
    minus = np.zeros((3, 6), dtype=complex)
    for fam, s in ((plus, 1.0), (minus, -1.0)):
        fam[0, _PAIR_INDEX[(0, 1)]] = 1 / SQRT2
        fam[0, _PAIR_INDEX[(2, 3)]] = s / SQRT2
        fam[1, _PAIR_INDEX[(0, 2)]] = 1 / SQRT2
        fam[1, _PAIR_INDEX[(1, 3)]] = -s / SQRT2
        fam[2, _PAIR_INDEX[(0, 3)]] = 1 / SQRT2
        fam[2, _PAIR_INDEX[(1, 2)]] = s / SQRT2
    return plus, minus


_THETA = {m: _theta_components(m) for m in (EUCLIDEAN, NEUTRAL, LORENTZ)}


def theta_components(case: SurfaceCase):
    """Raw (3, 6) component arrays of the two labelled Theta triples."""
    return _THETA[METRIC_TYPE[case]]


def selfdual_frame(case: SurfaceCase, eigen_sign: int) -> np.ndarray:
    """(3, 6) components of the frame of the eigenvalue `eigen_sign` subbundle.

    Real cases: eigenvalue eigen_sign of *.  In the neutral cases the
    eigen-frame mixes the labels: the +1 eigenspace is spanned by
    (Theta_{-,1}, Theta_{+,2}, Theta_{+,3}).  Lorentzian cases: eigenvalue
    eigen_sign * sqrt(-1).
    """
    plus, minus = theta_components(case)
    mt = METRIC_TYPE[case]
    if mt == NEUTRAL:
        a, b = (plus, minus) if eigen_sign == 1 else (minus, plus)
        return np.stack([b[0], a[1], a[2]])
    return plus if eigen_sign == 1 else minus


def label_sign(label: str) -> float:
    """-1 for the '-' family, +1 for '+' and the complex family ''."""
    return -1.0 if label == "-" else 1.0


def selfdual_projection(case: SurfaceCase, label: str, bmap) -> tuple:
    """(block, leak), (..., 3, 3) each: column c holds the coordinates of
    the image under ``bmap`` (..., 6, 6) of bivector c of the frame of
    family ``label`` in that frame and in its complement.

    The frame is the eigen-frame of sign ``label_sign(label)``, conjugated
    in the Lorentzian time-like case; the complement is its conjugate
    (Lorentzian) or the eigen-frame of the opposite sign.
    """
    sign = -1 if case is SurfaceCase.LOR_TIME else label_sign(label)
    rows = selfdual_frame(case, sign)
    other = np.conj(rows) if case.is_lorentzian else selfdual_frame(case, -sign)
    coords = bivector_coordinates(rows @ np.swapaxes(bmap, -1, -2), np.vstack([rows, other]))
    return tuple(np.swapaxes(coords[..., k:k + 3], -1, -2) for k in (0, 3))


def bivector_coordinates(comps, basis_rows: np.ndarray) -> np.ndarray:
    """Coordinates of a bivector in a 6-element bivector basis.

    ``basis_rows`` is (6, 6), one basis bivector per row.  Broadcasts over
    leading axes of ``comps``.
    """
    comps = np.asarray(comps, dtype=complex)
    return np.linalg.solve(basis_rows.T, comps[..., None])[..., 0]


def induced_bivector_map(p: np.ndarray) -> np.ndarray:
    """6x6 matrix of the map e_i ^ e_j -> (P e_i) ^ (P e_j)."""
    p = np.asarray(p, dtype=complex)
    m = np.empty((6, 6), dtype=complex)
    for col, (k, l) in enumerate(BIVECTOR_PAIRS):
        for row, (i, j) in enumerate(BIVECTOR_PAIRS):
            m[row, col] = p[i, k] * p[j, l] - p[i, l] * p[j, k]
    return m


def bivector_derivation(omega) -> np.ndarray:
    """(..., 6, 6) matrices of the derivations e_k ^ e_l -> (omega e_k) ^ e_l
    + e_k ^ (omega e_l) of the (..., 4, 4) matrices ``omega``."""
    w = np.asarray(omega)
    m = np.empty(w.shape[:-2] + (6, 6), dtype=complex)
    for col, (k, l) in enumerate(BIVECTOR_PAIRS):
        for row, (i, j) in enumerate(BIVECTOR_PAIRS):
            m[..., row, col] = (w[..., i, k] * (j == l) + (i == k) * w[..., j, l]
                                - w[..., i, l] * (j == k) - (i == l) * w[..., j, k])
    return m
