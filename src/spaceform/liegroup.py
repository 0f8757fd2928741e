"""Numerical check of the restricted-Lorentz-to-complex-rotation map.

The map sends a proper orthochronous Lorentz transformation P of the
rank-4 bundle to the matrix of its induced action on the self-dual
bivector triple (Theta_1, Theta_2, Theta_3).  Its values on the six
one-parameter generators are known in closed form; products of
generators let us verify the homomorphism property numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cases import SurfaceCase
from .errors import ConfigError, NonLorentz
from .geomcore import bivector_coordinates, induced_bivector_map, theta_components

MINKOWSKI = np.diag([1.0, 1.0, 1.0, -1.0])


@dataclass(frozen=True)
class GeneratorSpec:
    """One-parameter Lorentz generator: k selects the plane, l the type.

    l = 1 is a rotation by angle ``param``; l = 2 a boost of rapidity
    ``param``.  k = 1, 2, 3 picks which pair of axes is involved.
    """

    k: int
    l: int
    param: float

    def __post_init__(self):
        if self.k not in (1, 2, 3) or self.l not in (1, 2):
            raise ConfigError(f"generator indices out of range: k={self.k}, l={self.l}")
        if not np.isfinite(self.param):
            raise ConfigError("generator parameter must be finite")


# (i, j) axis pair (0-based) of the rotation (l=1) / boost (l=2) per k.
_ROT_AXES = {1: (0, 1), 2: (0, 2), 3: (1, 2)}
_BOOST_AXES = {1: (2, 3), 2: (1, 3), 3: (0, 3)}


def lorentz_generator(g: GeneratorSpec) -> np.ndarray:
    """The displayed 4x4 generator matrix P_{k,l}(param)."""
    m = np.eye(4)
    if g.l == 1:
        i, j = _ROT_AXES[g.k]
        c, s = np.cos(g.param), np.sin(g.param)
        m[i, i] = c; m[j, j] = c
        m[i, j] = -s; m[j, i] = s
    else:
        i, j = _BOOST_AXES[g.k]
        c, s = np.cosh(g.param), np.sinh(g.param)
        m[i, i] = c; m[j, j] = c
        m[i, j] = s; m[j, i] = s
    return m


def induced_action(P: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Matrix of the induced bivector map on span(Theta_1..3), 3x3 complex.

    Expands each Theta through P on simple wedges and projects back onto
    the six-element basis (Theta triple plus conjugates); raises
    NonLorentz when P fails to preserve the Minkowski form.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (4, 4):
        raise NonLorentz("expected a 4x4 matrix")
    defect = P.T @ MINKOWSKI @ P - MINKOWSKI
    if np.max(np.abs(defect)) > tol:
        raise NonLorentz(f"Minkowski form not preserved (defect {np.max(np.abs(defect)):.3e})")
    theta, theta_bar = theta_components(SurfaceCase.LOR_SPACE)
    lam2 = induced_bivector_map(P)
    basis = np.vstack([theta, theta_bar])
    q = np.empty((3, 3), dtype=complex)
    for col in range(3):
        coords = bivector_coordinates(lam2 @ theta[col], basis)
        if np.max(np.abs(coords[3:])) > 1e-10:
            raise NonLorentz("induced action does not preserve the self-dual subspace")
        q[:, col] = coords[:3]
    return q


def displayed_q(g: GeneratorSpec) -> np.ndarray:
    """Closed-form image Q_{k,l}(param) of the generator P_{k,l}(param)."""
    q = np.eye(3, dtype=complex)
    # rows/cols of the active 2x2 block per k: rotations and boosts share it
    block = {1: (1, 2), 2: (0, 2), 3: (0, 1)}[g.k]
    i, j = block
    if g.l == 1:
        c, s = np.cos(g.param), np.sin(g.param)
        q[i, i] = c; q[j, j] = c
        if g.k == 2:
            q[i, j] = s; q[j, i] = -s
        else:
            q[i, j] = -s; q[j, i] = s
    else:
        c, s = np.cosh(g.param), np.sinh(g.param)
        q[i, i] = c; q[j, j] = c
        q[i, j] = 1j * s; q[j, i] = -1j * s
    return q


def word_matrix(word) -> np.ndarray:
    """Left-to-right product of the generators in ``word``."""
    m = np.eye(4)
    for g in word:
        m = m @ lorentz_generator(g)
    return m


def phi_check(words) -> float:
    """Max residual over the homomorphism and orthogonality checks.

    For each word (list of GeneratorSpec) compares the induced action of
    the product against the product of displayed generator images, and
    checks the image is complex-orthogonal with unit determinant.
    """
    errs = []
    for word in words:
        P = word_matrix(word)
        q_direct = induced_action(P)
        q_prod = np.eye(3, dtype=complex)
        for g in word:
            q_prod = q_prod @ displayed_q(g)
        errs += (np.max(np.abs(q_direct - q_prod)),
                 np.max(np.abs(q_direct.T @ q_direct - np.eye(3))),
                 abs(np.linalg.det(q_direct) - 1.0))
    # np.max, unlike Python's max, keeps a NaN
    return float(np.max(errs, initial=0.0))
