"""The located errors and the one pass/fail comparison of the library gates."""

import math

import numpy as np
import pytest

from conftest import sphere_data, zero_data
from spaceform.cases import SurfaceCase
from spaceform.errors import (
    DegenerateDelta,
    DegenerateFrame,
    HypothesisViolated,
    IncompatiblePair,
    SignMismatch,
    SpaceformError,
    TotallyGeodesicRegion,
    check_residual,
)
from spaceform.grids import Grid
from spaceform.reconstruct import (
    DelbarInput,
    HolomorphicSpec,
    construct_delbar,
    construct_from_wxyz_curved,
    construct_from_wxyz_flat,
    extract_fundamental,
    integrate_frame,
    integrate_potential,
    mean_curvature_and_isotropy,
)
from spaceform.twistor import InvariantFamily, ab_functions, twistor_invariants


def test_at_worst_locates_the_largest_entry():
    score = np.zeros((4, 5))
    score[1, 2] = 3.0
    score[3, 0] = 3.0
    exc = HypothesisViolated.at_worst(score, "x = 0")
    assert (exc.which, exc.location, exc.value) == ("x = 0", (1, 2), 3.0)
    assert str(exc) == "x = 0 at (1, 2) (value 3.000e+00)"


def test_at_worst_prefers_the_first_nan_and_reports_value():
    score = np.zeros((4, 5))
    score[0, 1] = 9.0
    score[2, 3] = np.nan
    score[3, 4] = np.nan
    value = np.full((4, 5), 1 + 2j)
    exc = SignMismatch.at_worst(score, "s > 0", value=value)
    assert exc.location == (2, 3) and exc.value == 1 + 2j


def test_check_residual_passes_within_the_bound():
    check_residual(np.array([[0.5, -1.0], [1.0, 0.0]]), 1.0, "r = 0")


@pytest.mark.parametrize("bad", [2.0, -2.0, np.nan, 1j * 3.0])
def test_check_residual_fails_above_the_bound_or_on_nan(bad):
    res = np.zeros((3, 3), dtype=complex)
    res[1, 2] = bad
    with pytest.raises(HypothesisViolated) as exc:
        check_residual(res, 1.0, "r = 0")
    assert exc.value.location == (1, 2) and exc.value.which == "r = 0"
    assert math.isnan(exc.value.value) if np.isnan(bad) else exc.value.value == abs(bad)


def test_check_residual_raises_the_given_class():
    with pytest.raises(IncompatiblePair):
        check_residual(np.ones((3, 3)), 0.5, "P_v = Q_u", error=IncompatiblePair)


def test_integrate_potential_rejects_nan_gradient():
    grid = Grid.centered(1.0, 11)
    P = np.zeros(grid.shape)
    P[4, 6] = np.nan
    with pytest.raises(IncompatiblePair) as exc:
        integrate_potential(P, np.zeros(grid.shape), grid)
    assert exc.value.location is not None and math.isnan(exc.value.value)


def _sum_identity_violation():
    grid = Grid.centered(1.0, 11)
    U, _ = grid.mesh()
    one = np.ones(grid.shape)
    construct_from_wxyz_flat({"+": InvariantFamily(U, 5 + U, one, one, None, None, None),
                              "-": InvariantFamily(-U, -U, one, one, None, None, None)},
                             SurfaceCase.RIEM, grid)


def _degenerate_delta():
    ab_functions(twistor_invariants(zero_data(SurfaceCase.RIEM, Grid.centered(1.0, 9))))


def _sign_mismatch():
    data = sphere_data(n=41)
    construct_from_wxyz_curved(twistor_invariants(data), 1.0, SurfaceCase.RIEM, data.grid)


def _incompatible_pair():
    grid = Grid.centered(1.0, 21)
    integrate_potential(grid.mesh()[1], np.zeros(grid.shape), grid, tol=1e-6)


def _degenerate_frame():
    ff = integrate_frame(zero_data(SurfaceCase.RIEM, Grid.centered(1.0, 9)))
    ff.frames[..., :, 0] *= 1e-9
    extract_fundamental(ff)


def _totally_geodesic_region():
    spec = DelbarInput(L0=-1.0, grid=Grid.centered(0.4, 21), p=HolomorphicSpec((0.0, 1.0)))
    mean_curvature_and_isotropy(construct_delbar(spec), spec)


@pytest.mark.parametrize("cls,trigger", [
    (HypothesisViolated, _sum_identity_violation),
    (DegenerateDelta, _degenerate_delta),
    (SignMismatch, _sign_mismatch),
    (IncompatiblePair, _incompatible_pair),
    (DegenerateFrame, _degenerate_frame),
    (TotallyGeodesicRegion, _totally_geodesic_region),
])
def test_located_errors_expose_which_location_and_value(cls, trigger):
    with pytest.raises(cls) as exc:
        trigger()
    err = exc.value
    assert isinstance(err, SpaceformError)
    assert isinstance(err.which, str) and err.which in str(err)
    assert len(err.location) == 2 and all(type(i) is int for i in err.location)
    assert str(err.location) in str(err)
    assert isinstance(err.value, (float, complex)) and np.isfinite(err.value)
