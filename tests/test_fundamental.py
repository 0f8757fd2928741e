import numpy as np
import pytest

from conftest import random_smooth_data
from spaceform.cases import COLUMN_SIGNS, SurfaceCase
from spaceform.errors import ConfigError, DimensionMismatch
from spaceform.fundamental import (
    FundamentalData,
    ambient_model,
    canonical_frame,
    connection_grids,
    validate_frame,
    zero_data,
)
from spaceform.grids import Grid


def test_ambient_model_table():
    m = ambient_model(SurfaceCase.RIEM, -1.0)
    assert m.ambient.diag == (1, 1, 1, 1, -1)
    assert m.quadric_const == -1.0
    m = ambient_model(SurfaceCase.LOR_SPACE, 0.0)
    assert m.ambient.diag == (1, 1, 1, -1)
    assert m.is_flat
    m = ambient_model(SurfaceCase.NEUT_SPACE, 1.0)
    assert m.ambient.diag.count(-1) == 2 and m.ambient.dim == 5


def test_zero_data_connection_skeleton():
    grid = Grid.centered(1.0, 5)
    data = zero_data(SurfaceCase.RIEM, grid)
    S, T = connection_grids(data)
    S_expect = np.zeros((5, 5))
    S_expect[0, 4] = 1.0
    T_expect = np.zeros((5, 5))
    T_expect[1, 4] = 1.0
    assert np.allclose(S, S_expect)
    assert np.allclose(T, T_expect)

    curved = zero_data(SurfaceCase.RIEM, grid, L0=1.0)
    S, T = connection_grids(curved)
    assert np.all(S[..., 4, 0] == -1.0)
    assert np.all(T[..., 4, 1] == -1.0)


def test_sphere_shaped_entries():
    grid = Grid.centered(1.0, 5)
    U, V = grid.mesh()
    lam = np.log(2.0 / (1.0 + U**2 + V**2))
    a = -np.exp(lam)
    data = FundamentalData(model=ambient_model(SurfaceCase.RIEM, 0.0), grid=grid,
                           lam=lam, alpha1=a, alpha2=np.zeros_like(a),
                           alpha3=a, beta1=np.zeros_like(a), beta2=np.zeros_like(a),
                           beta3=np.zeros_like(a), mu1=np.zeros_like(a),
                           mu2=np.zeros_like(a))
    S, _ = connection_grids(data)
    assert S[2, 2, 2, 0] == pytest.approx(a[2, 2])
    assert S[2, 2, 0, 2] == pytest.approx(-a[2, 2])


@pytest.mark.parametrize("case", list(SurfaceCase))
def test_connection_structural_mask(case, rng):
    """Zero diagonal in the 4x4 block except the lam_u / lam_v entries."""
    grid = Grid.centered(1.0, 7)
    data = random_smooth_data(case, grid, rng)
    S, T = connection_grids(data)
    for M in (S, T):
        diag = np.einsum("...ii->...i", M[..., :4, :4])
        lu, lv = data.lam_derivatives()
        # every diagonal entry is 0, lam_u or lam_v
        for k in range(4):
            d = diag[..., k]
            closest = np.minimum(np.abs(d), np.minimum(np.abs(d - lu), np.abs(d - lv)))
            assert np.max(closest) < 1e-12


@pytest.mark.parametrize("case", list(SurfaceCase))
def test_connection_linear_in_shape_fields(case, rng):
    grid = Grid.centered(1.0, 6)
    d1 = random_smooth_data(case, grid, rng)
    d2 = random_smooth_data(case, grid, rng)
    lam = d1.lam
    names = ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "mu1", "mu2")

    def build(fields):
        d = FundamentalData(model=d1.model, grid=grid, lam=lam, **fields)
        return connection_grids(d)

    f1 = {n: getattr(d1, n) for n in names}
    f2 = {n: getattr(d2, n) for n in names}
    fsum = {n: f1[n] + f2[n] for n in names}
    z = {n: np.zeros(grid.shape) for n in names}
    for a, b, c, o in zip(build(f1), build(f2), build(fsum), build(z)):
        assert np.max(np.abs(a + b - c - o)) < 1e-12


def test_validate_frame_flat_orthonormal():
    res = validate_frame(np.eye(4), 0.0, SurfaceCase.RIEM)
    assert res.shape == (10,)
    assert np.max(np.abs(res)) == 0.0


def test_validate_frame_neutral_time_sign():
    # NEUT_TIME expects column signs (1, -1, 1, -1) against the neutral
    # ambient (1, 1, -1, -1): the identity frame misses the middle two
    # normalizations by exactly 2 each (residual = target - value)
    assert COLUMN_SIGNS[SurfaceCase.NEUT_TIME] == (1, -1, 1, -1)
    res = validate_frame(np.eye(4), 0.0, SurfaceCase.NEUT_TIME)
    assert list(res) == [0.0, 0.0, 0.0, 0.0, -2.0, 0.0, 0.0, 2.0, 0.0, 0.0]


def test_validate_frame_quadric_column():
    model = ambient_model(SurfaceCase.RIEM, 1.0)
    frame = np.zeros((5, 5))
    frame[:4, :4] = np.eye(4)
    frame[4, 4] = 1.0
    res = validate_frame(frame, 0.0, SurfaceCase.RIEM, L0=1.0, ambient=model.ambient)
    assert res.shape == (11,)
    assert np.max(np.abs(res)) == 0.0


@pytest.mark.parametrize("case", list(SurfaceCase))
@pytest.mark.parametrize("L0", [0.0, 1.0, -1.0])
def test_canonical_frame_satisfies_constraints(case, L0):
    model = ambient_model(case, L0)
    frame = canonical_frame(model, lam0=0.3)
    res = validate_frame(frame, 0.3, case, L0=L0, ambient=model.ambient)
    assert np.max(np.abs(res)) < 1e-12


def test_from_functions_rejects_unknown_keys():
    grid = Grid.centered(1.0, 5)
    model = ambient_model(SurfaceCase.RIEM, 0.0)
    with pytest.raises(ConfigError):
        FundamentalData.from_functions(model, grid, lambda_typo=lambda U, V: U)


def test_shape_mismatch_rejected():
    grid = Grid.centered(1.0, 5)
    z = np.zeros(grid.shape)
    bad = np.zeros((4, 5))
    with pytest.raises(DimensionMismatch):
        FundamentalData(model=ambient_model(SurfaceCase.RIEM, 0.0), grid=grid,
                        lam=bad, alpha1=z, alpha2=z, alpha3=z,
                        beta1=z, beta2=z, beta3=z, mu1=z, mu2=z)
