from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given

from conftest import (
    generated_data,
    geodesic_sphere_data,
    random_smooth_data,
    sphere_data,
    without_providers,
)
from spaceform.cases import SurfaceCase
from spaceform.errors import (
    DegenerateDelta,
    FrameNormalizationError,
    InvalidCase,
)
from spaceform.fundamental import zero_data
from spaceform.grids import Grid
from spaceform.reconstruct import (
    DelbarInput,
    HolomorphicSpec,
    _coerce_invariants,
    construct_delbar,
)
from spaceform.twistor import (
    ab_functions,
    curvature_residual,
    curvature_structure,
    degeneracy_report,
    delbar_residual,
    family_labels,
    hat_connection_matrices,
    linear_dependence_check,
    so3c_connection_form,
    twistor_invariants,
)


def test_family_labels():
    assert family_labels(SurfaceCase.RIEM) == ("+", "-")
    assert family_labels(SurfaceCase.LOR_TIME) == ("",)


def test_sphere_invariants_known_values():
    data = sphere_data(n=21)
    inv = twistor_invariants(data)
    el = np.exp(data.lam)
    for s, label in ((1.0, "+"), (-1.0, "-")):
        f = inv.families[label]
        assert np.max(np.abs(f.W)) == 0.0
        assert np.max(np.abs(f.X)) == 0.0
        assert np.allclose(f.Y, s * (-el))
        assert np.allclose(f.Z, s * (-el))
        assert np.allclose(f.delta, -el**2)


def test_sphere_ab_functions_reproduce_phi_psi():
    data = sphere_data(n=41)
    inv = twistor_invariants(data)
    A, B = ab_functions(inv)
    lu, lv = data.lam_derivatives()
    for label in ("+", "-"):
        assert np.max(np.abs(A[label] - lu)) < 10 * data.grid.h**2
        assert np.max(np.abs(B[label] - lv)) < 10 * data.grid.h**2


def test_ab_functions_degenerate_raises():
    data = zero_data(SurfaceCase.RIEM, Grid.centered(1.0, 9))
    inv = twistor_invariants(data)
    with pytest.raises(DegenerateDelta) as exc:
        ab_functions(inv)
    assert exc.value.location is not None


# Frozen displayed structure matrices of the curvature identity per case.
_STRUCTURES = {
    (SurfaceCase.RIEM, "+"): [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
    (SurfaceCase.RIEM, "-"): [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
    (SurfaceCase.NEUT_SPACE, "+"): [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
    (SurfaceCase.NEUT_SPACE, "-"): [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
    (SurfaceCase.NEUT_TIME, "+"): [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
    (SurfaceCase.NEUT_TIME, "-"): [[0, 0, -1], [0, 0, 0], [-1, 0, 0]],
    (SurfaceCase.LOR_SPACE, ""): [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
    (SurfaceCase.LOR_TIME, ""): [[0, 0, 0], [0, 0, 1j], [0, -1j, 0]],
}


@pytest.mark.parametrize("case", list(SurfaceCase))
def test_curvature_structure_matches_frozen(case):
    for label in family_labels(case):
        m = curvature_structure(case, label)
        assert np.allclose(m, np.asarray(_STRUCTURES[(case, label)], dtype=complex))


def test_curvature_residual_small_on_exact_families():
    for data in (sphere_data(n=41), geodesic_sphere_data(n=41, half_width=0.8)):
        res = curvature_residual(data)
        worst = max(float(np.max(np.abs(r))) for r in res.values())
        assert worst < 10 * data.grid.h**2


def test_curvature_residual_small_on_array_data():
    """Without analytic lam derivatives the residual stays second order
    up to the grid corners."""
    data = without_providers(sphere_data(n=101))
    res = curvature_residual(data)
    worst = max(float(np.max(np.abs(r))) for r in res.values())
    assert worst < 10 * data.grid.h**2


def test_hat_matrices_shapes_and_skewness():
    data = sphere_data(n=11)
    mats = hat_connection_matrices(data)
    for label, (M1, M2) in mats.items():
        assert M1.shape == data.grid.shape + (3, 3)
        # Riemannian hat matrices are skew
        assert np.max(np.abs(M1 + np.swapaxes(M1, -1, -2))) < 1e-14
        assert np.max(np.abs(M2 + np.swapaxes(M2, -1, -2))) < 1e-14


def test_degeneracy_report_sphere_vs_zero():
    rep = degeneracy_report(sphere_data(n=21))
    assert rep.nondegenerate
    assert np.max(np.abs(rep.K_minus_L0)) > 0.5  # K = 1, L0 = 0
    rep0 = degeneracy_report(zero_data(SurfaceCase.RIEM, Grid.centered(1.0, 9)))
    assert not rep0.nondegenerate
    assert np.max(np.abs(rep0.K)) == 0.0
    assert np.max(np.abs(rep0.rperp)) == 0.0


def test_delbar_residual_case_restriction():
    with pytest.raises(InvalidCase):
        delbar_residual(sphere_data(n=11))


def test_delbar_residual_vanishes_on_delbar_data():
    data = construct_delbar(DelbarInput(L0=-1.0, grid=Grid.centered(0.4, 21),
                                        p=HolomorphicSpec.identity()))
    d1, d2 = delbar_residual(data)
    assert np.max(np.abs(d1)) == 0.0
    assert np.max(np.abs(d2)) == 0.0


def test_linear_dependence_branches():
    data = construct_delbar(DelbarInput(L0=-1.0, grid=Grid.centered(0.4, 21),
                                        p=HolomorphicSpec.identity()))
    rep = linear_dependence_check(data)
    assert bool(np.all(rep["dependent"]))
    # delbar data with r = 0 has alpha1 + alpha3 = 0 everywhere
    assert all("zero-mean-curvature" in b for b in rep["branch"].ravel())


def test_so3c_connection_form_mapping():
    w = np.zeros((4, 4))
    w[1, 0], w[0, 1] = 1.0, -1.0   # rotation in the (1,2) plane
    w[3, 2] = w[2, 3] = 0.5        # boost mixing e3 and the time axis
    hat = so3c_connection_form(w)
    assert hat[1, 2] == pytest.approx(-1.0 + 0.5j)
    assert np.max(np.abs(hat + hat.T)) < 1e-15


def test_so3c_connection_form_validates_symmetries():
    bad = np.zeros((4, 4))
    bad[0, 1] = 1.0   # skewness violated (no compensating -1)
    with pytest.raises(FrameNormalizationError):
        so3c_connection_form(bad)
    with pytest.raises(InvalidCase):
        so3c_connection_form(np.zeros((3, 3)))


def test_twistor_invariants_random_consistency(rng):
    """W, X, Y, Z always share alpha2/beta2 real parts per the case tables."""
    grid = Grid.centered(1.0, 7)
    data = random_smooth_data(SurfaceCase.LOR_SPACE, grid, rng)
    f = twistor_invariants(data).families[""]
    assert np.allclose(f.W.real, data.alpha2)
    assert np.allclose(f.X.real, data.alpha2)
    assert np.allclose(f.Y.real, data.beta2)
    assert np.allclose(f.Z.real, data.beta2)
    assert np.allclose(f.delta, f.W * f.X - f.Y * f.Z)


@given(generated_data())
def test_construction_delta_matches_twistor_delta(data):
    """The constructions read W, X, Y, Z back as complex fields and rebuild
    Delta from them; it must equal the Delta of twistor_invariants."""
    inv = twistor_invariants(data)
    wxyz = {label: SimpleNamespace(**{n: np.asarray(getattr(f, n), dtype=complex)
                                      for n in "WXYZ"})
            for label, f in inv.families.items()}
    rebuilt = _coerce_invariants(wxyz, data.case, data.grid)
    for label, f in inv.families.items():
        assert np.array_equal(rebuilt.families[label].delta, f.delta), label
