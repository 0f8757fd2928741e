import numpy as np
import pytest

from spaceform.cases import EUCLIDEAN, LORENTZ, METRIC_TYPE, NEUTRAL, SurfaceCase
from spaceform.geomcore import (
    BIVECTOR_PAIRS,
    bivector_coordinates,
    bivector_derivation,
    induced_bivector_map,
    selfdual_frame,
    theta_components,
)

# The Hodge star of each metric flavour as (source pair, image pair, sign)
# on the bivector basis; each pair of lines is one 2x2 block.
_STAR = {
    EUCLIDEAN: (((0, 1), (2, 3), 1), ((2, 3), (0, 1), 1),
                ((0, 2), (1, 3), -1), ((1, 3), (0, 2), -1),
                ((0, 3), (1, 2), 1), ((1, 2), (0, 3), 1)),
    NEUTRAL: (((0, 1), (2, 3), -1), ((2, 3), (0, 1), -1),
              ((0, 2), (1, 3), -1), ((1, 3), (0, 2), -1),
              ((0, 3), (1, 2), 1), ((1, 2), (0, 3), 1)),
    LORENTZ: (((0, 1), (2, 3), -1), ((2, 3), (0, 1), 1),
              ((0, 2), (1, 3), 1), ((1, 3), (0, 2), -1),
              ((0, 3), (1, 2), 1), ((1, 2), (0, 3), -1)),
}


def star_matrix(case):
    """6x6 matrix of the Hodge star of the case's frame metric."""
    m = np.zeros((6, 6))
    for src, dst, sign in _STAR[METRIC_TYPE[case]]:
        m[BIVECTOR_PAIRS.index(dst), BIVECTOR_PAIRS.index(src)] = sign
    return m


def _star_eigenvalue(case):
    """* squares to +Id in the real cases and to -Id in the Lorentzian ones."""
    return 1.0j if case.is_lorentzian else 1.0


def test_metric_type_and_lorentzian_flag_are_the_literal_tables():
    """Both are derived from COLUMN_SIGNS (the number of minus signs)."""
    assert METRIC_TYPE == {
        SurfaceCase.RIEM: EUCLIDEAN,
        SurfaceCase.NEUT_SPACE: NEUTRAL,
        SurfaceCase.NEUT_TIME: NEUTRAL,
        SurfaceCase.LOR_SPACE: LORENTZ,
        SurfaceCase.LOR_TIME: LORENTZ,
    }
    assert [c for c in SurfaceCase if c.is_lorentzian] == [
        SurfaceCase.LOR_SPACE, SurfaceCase.LOR_TIME]


@pytest.mark.parametrize("case,sq", [
    (SurfaceCase.RIEM, 1),
    (SurfaceCase.NEUT_SPACE, 1),
    (SurfaceCase.LOR_SPACE, -1),
    (SurfaceCase.LOR_TIME, -1),
])
def test_star_squares_to_declared_sign(case, sq):
    m = star_matrix(case)
    assert _star_eigenvalue(case) ** 2 == sq
    assert np.allclose(m @ m, sq * np.eye(6))


def test_selfdual_split_reassembles_and_diagonalizes():
    rng = np.random.default_rng(7)
    for case in SurfaceCase:
        m = star_matrix(case)
        s = _star_eigenvalue(case)
        b = rng.standard_normal(6).astype(complex)
        plus, minus = (b + m @ b / s) / 2, (b - m @ b / s) / 2
        assert np.max(np.abs(plus + minus - b)) < 1e-14
        assert np.max(np.abs(m @ plus - s * plus)) < 1e-14
        assert np.max(np.abs(m @ minus + s * minus)) < 1e-14


def test_theta_frames_are_star_eigenvectors():
    for case in SurfaceCase:
        m = star_matrix(case)
        s = _star_eigenvalue(case)
        for sign in (1, -1):
            rows = selfdual_frame(case, sign)
            assert np.max(np.abs(rows @ m.T - sign * s * rows)) < 1e-14


def test_theta_triples_are_orthonormal():
    for case in SurfaceCase:
        plus, minus = theta_components(case)
        stacked = np.vstack([plus, minus])
        # each Theta has unit coefficient mass in the wedge components
        assert np.allclose(np.sum(np.abs(stacked) ** 2, axis=1), 1.0)


def test_bivector_coordinates_round_trip():
    rng = np.random.default_rng(11)
    basis = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    coords = rng.standard_normal(6)
    comps = basis.T @ coords
    assert np.allclose(bivector_coordinates(comps, basis), coords)


def wedge(x, y) -> np.ndarray:
    """Reference: the (6,) components of the wedge of two 4-vectors."""
    return np.array([x[i] * y[j] - x[j] * y[i] for i, j in BIVECTOR_PAIRS])


def test_induced_bivector_map_is_functorial():
    rng = np.random.default_rng(13)
    p = rng.standard_normal((4, 4))
    q = rng.standard_normal((4, 4))
    assert np.allclose(induced_bivector_map(p @ q),
                       induced_bivector_map(p) @ induced_bivector_map(q))
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    direct = wedge(p @ x, p @ y)
    assert np.allclose(induced_bivector_map(p) @ wedge(x, y), direct)


def test_bivector_derivation_is_the_linear_part_of_the_induced_map():
    """D(w) sends x ^ y to (w x) ^ y + x ^ (w y), and the induced map of
    I + w is I + D(w) + the induced map of w; stacked forms broadcast."""
    rng = np.random.default_rng(17)
    w = rng.standard_normal((2, 4, 4))
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    d = bivector_derivation(w)
    assert d.shape == (2, 6, 6)
    for wk, dk in zip(w, d):
        assert np.allclose(dk @ wedge(x, y), wedge(wk @ x, y) + wedge(x, wk @ y))
        assert np.allclose(induced_bivector_map(np.eye(4) + wk),
                           np.eye(6) + dk + induced_bivector_map(wk))
