import numpy as np
import pytest

from conftest import geodesic_sphere_data, sphere_data, without_providers
from spaceform.cases import SurfaceCase
from spaceform.errors import (
    DegenerateDelta,
    DegenerateFrame,
    DomainViolation,
    HypothesisViolated,
    IncompatiblePair,
    InvalidCase,
    InvalidInitialFrame,
    LiouvilleViolated,
    SignMismatch,
    TotallyGeodesicRegion,
)
from spaceform.fundamental import FundamentalData, ambient_model, zero_data
from spaceform.grids import Grid
from spaceform.integrability import gcr_residuals
from spaceform.reconstruct import (
    DelbarInput,
    HolomorphicSpec,
    _liouville_funcs,
    construct_delbar,
    construct_from_wxyz_curved,
    construct_from_wxyz_flat,
    extract_fundamental,
    integrate_frame,
    integrate_potential,
    liouville_profile,
    liouville_residual,
    mean_curvature_and_isotropy,
)
from spaceform.twistor import InvariantFamily, twistor_invariants


# ---------------------------------------------------------------------------
# frame integration


def test_zero_data_integrates_to_plane():
    grid = Grid.centered(1.0, 11)
    data = zero_data(SurfaceCase.RIEM, grid)
    ff = integrate_frame(data)
    U, V = grid.mesh()
    # position is integrated from the grid origin: F = (u - u0) T1 + (v - v0) T2
    # exactly, and the canonical init has T1 = e1, T2 = e2
    zero = np.zeros_like(U)
    expect = np.stack([U - grid.u0, V - grid.v0, zero, zero], axis=-1)
    assert np.max(np.abs(ff.position - expect)) < 1e-13


def test_geodesic_sphere_stays_on_quadric_and_in_subspace():
    data = geodesic_sphere_data(n=81, half_width=0.8)
    ff = integrate_frame(data)
    F = ff.position
    norms = np.einsum("ijk,k,ijk->ij", F, np.ones(5), F)
    assert np.max(np.abs(norms - 1.0)) < 1e-6
    # fields are zero, so F never leaves the 3-space spanned by the
    # initial (T1, T2, F) axes; the normal coordinates stay zero
    spans = sorted(np.max(np.abs(F), axis=(0, 1)))
    assert spans[0] < 1e-6 and spans[1] < 1e-6


def test_integrate_frame_rejects_bad_init():
    data = zero_data(SurfaceCase.RIEM, Grid.centered(1.0, 9))
    bad = np.zeros((4, 5))
    with pytest.raises(InvalidInitialFrame):
        integrate_frame(data, init=bad)


def test_drift_is_fourth_order():
    drifts = []
    for n in (41, 81):
        ff = integrate_frame(sphere_data(n=n))
        drifts.append(ff.diagnostics["drift"])
    assert drifts[0] / drifts[1] > 10.0


def test_drift_is_fourth_order_on_array_data():
    """Finite-difference lam derivatives (CSV input) keep the fourth order."""
    drifts = []
    for n in (41, 81):
        data = without_providers(sphere_data(n=n))
        ff = integrate_frame(data)
        drifts.append(ff.diagnostics["drift"])
        back = extract_fundamental(ff)
        for name in ("lam", "alpha1", "alpha2", "alpha3",
                     "beta1", "beta2", "beta3", "mu1", "mu2"):
            assert np.max(np.abs(getattr(back, name) - getattr(data, name))) \
                < 10 * data.grid.h**2
    assert drifts[0] / drifts[1] > 10.0


def test_round_trip_extraction():
    for data in (sphere_data(n=61), geodesic_sphere_data(n=61, half_width=0.8)):
        ff = integrate_frame(data)
        back = extract_fundamental(ff)
        bound = 10 * data.grid.h**2
        for name in ("lam", "alpha1", "alpha2", "alpha3",
                     "beta1", "beta2", "beta3", "mu1", "mu2"):
            assert np.max(np.abs(getattr(back, name) - getattr(data, name))) < bound


def test_extract_degenerate_frame():
    data = zero_data(SurfaceCase.RIEM, Grid.centered(1.0, 9))
    ff = integrate_frame(data)
    ff.frames[..., :, 0] *= 1e-9   # crush T1 so e^{2 lam} underflows the gate
    with pytest.raises(DegenerateFrame):
        extract_fundamental(ff)


# ---------------------------------------------------------------------------
# potential integration


def test_integrate_potential_basics():
    grid = Grid.centered(1.0, 21)
    U, V = grid.mesh()
    z = np.zeros(grid.shape)
    assert np.max(np.abs(integrate_potential(z, z, grid))) == 0.0
    lam = integrate_potential(np.ones(grid.shape), z, grid)
    assert np.allclose(lam, U - grid.u0)


def test_integrate_potential_sphere_round_trip():
    data = sphere_data(n=81)
    lu, lv = data.lam_derivatives()
    lam = integrate_potential(lu, lv, data.grid)
    expect = data.lam - data.lam[0, 0]
    assert np.max(np.abs(lam - expect)) < 10 * data.grid.h**2


def test_integrate_potential_incompatible():
    grid = Grid.centered(1.0, 21)
    U, V = grid.mesh()
    with pytest.raises(IncompatiblePair):
        integrate_potential(V, np.zeros(grid.shape), grid, tol=1e-6)


# ---------------------------------------------------------------------------
# constructions from invariants


def test_flat_construction_case_restriction():
    grid = Grid.centered(1.0, 9)
    with pytest.raises(InvalidCase):
        construct_from_wxyz_flat({}, SurfaceCase.NEUT_SPACE, grid)


def test_flat_construction_constant_invariants_rejected():
    grid = Grid.centered(1.0, 11)
    one = np.ones(grid.shape)
    fams = {lab: InvariantFamily(one, one, 2 * one, -one, None, None, None)
            for lab in ("+", "-")}
    with pytest.raises(HypothesisViolated):
        construct_from_wxyz_flat(fams, SurfaceCase.RIEM, grid)


def test_flat_construction_sum_identity_violation():
    grid = Grid.centered(1.0, 11)
    U, V = grid.mesh()
    one = np.ones(grid.shape)
    plus = InvariantFamily(U, 5 + U, one, one, None, None, None)
    minus = InvariantFamily(-U, -U, one, one, None, None, None)
    with pytest.raises(HypothesisViolated) as exc:
        construct_from_wxyz_flat({"+": plus, "-": minus}, SurfaceCase.RIEM, grid)
    assert "W+ + W- = X+ + X-" in exc.value.which


def test_flat_construction_reports_degenerate_point():
    data = sphere_data(n=21)
    fams = {}
    for label, f in twistor_invariants(data).families.items():
        Y = f.Y.copy()
        Y[4, 7] = 0.0     # keeps Y+ + Y- = Z+ + Z-, zeroes Delta+ and Delta-
        fams[label] = InvariantFamily(f.W, f.X, Y, f.Z, None, None, None)
    with pytest.raises(DegenerateDelta) as exc:
        construct_from_wxyz_flat(fams, SurfaceCase.RIEM, data.grid)
    assert exc.value.location == (4, 7)
    assert exc.value.value == 0.0


def _small_sphere_data(h_over: float = 1.0, n: int = 61):
    """Umbilic sphere inside S^4: alpha1 = alpha3 = c e^lam, L = 1 + c^2."""
    c = h_over
    L = 1.0 + c * c
    grid = Grid.centered(0.7, n)
    lf = _liouville_funcs(L)
    shape = lambda U, V: c * np.exp(lf["lam"](U, V))
    return FundamentalData.from_functions(
        ambient_model(SurfaceCase.RIEM, 1.0), grid,
        lam=lf["lam"], lam_u=lf["lam_u"], lam_v=lf["lam_v"],
        lam_uu=lf["lam_uu"], lam_vv=lf["lam_vv"],
        alpha1=shape, alpha3=shape)


def test_curved_construction_round_trip():
    residuals = []
    for n in (31, 61):
        data = _small_sphere_data(n=n)
        assert gcr_residuals(data).max_abs() < 10 * data.grid.h**2
        inv = twistor_invariants(data)
        out = construct_from_wxyz_curved(inv, 1.0, SurfaceCase.RIEM, data.grid)
        # f = L0 e^{2 lam}, so the curved construction fixes the gauge
        # exactly; the recovered lam converges faster than second order
        assert np.max(np.abs(out.lam - data.lam)) < data.grid.h**2
        # the shape fields are recovered exactly from the invariants
        for name in ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3",
                     "mu1", "mu2"):
            assert np.max(np.abs(getattr(out, name) - getattr(data, name))) < 1e-12
        residuals.append(gcr_residuals(out).max_abs())
    # the lam error from the discrete solve is rough at grid scale, so the
    # second-derivative stencils in the Gauss residual converge slowly;
    # require decrease under refinement rather than a fixed h^2 multiple
    assert residuals[1] < 0.5 * residuals[0]


def test_curved_construction_zero_invariants_degenerate():
    data = geodesic_sphere_data(n=21)
    inv = twistor_invariants(data)
    with pytest.raises(HypothesisViolated):
        construct_from_wxyz_curved(inv, 1.0, SurfaceCase.RIEM, data.grid)


def test_curved_construction_sign_mismatch():
    # flat sphere invariants have f ~ 0, so no L0 != 0 has f / L0 > 0
    data = sphere_data(n=41)
    inv = twistor_invariants(data)
    with pytest.raises(SignMismatch):
        construct_from_wxyz_curved(inv, 1.0, SurfaceCase.RIEM, data.grid)


# ---------------------------------------------------------------------------
# holomorphic (dbar) construction


def test_holomorphic_spec_evaluation():
    p = HolomorphicSpec((1.0, 0.0, 1j))
    assert p(2.0) == pytest.approx(1.0 + 4j)
    assert HolomorphicSpec.identity()(3.0 + 1j) == 3.0 + 1j
    assert HolomorphicSpec.constant(2.5)(np.array([1.0, 5.0])).tolist() == [2.5, 2.5]
    terms = HolomorphicSpec.exp_truncation(12)
    assert terms(1.0) == pytest.approx(np.e, rel=1e-8)


def test_liouville_profiles():
    assert np.max(np.abs(liouville_profile(0.0, Grid.centered(0.5, 21)))) == 0.0
    # the hyperbolic profile has large higher derivatives near the corners,
    # so check second-order convergence of the residual rather than a fixed
    # multiple of h^2
    for L0 in (1.0, -1.0):
        worst = []
        for n in (21, 41, 81):
            grid = Grid.centered(0.5, n)
            lam = liouville_profile(L0, grid)
            worst.append(np.max(np.abs(liouville_residual(lam, L0, grid))))
        assert worst[0] / worst[1] > 2.5
        assert worst[1] / worst[2] > 2.5
    with pytest.raises(DomainViolation):
        liouville_profile(-1.0, Grid.centered(1.0, 21))


def test_liouville_funcs_satisfy_equation():
    for L0 in (0.0, 1.0, -1.0):
        lf = _liouville_funcs(L0)
        U, V = Grid.centered(0.5, 11).mesh()
        res = lf["lam_uu"](U, V) + lf["lam_vv"](U, V) + L0 * np.exp(2 * lf["lam"](U, V))
        assert np.max(np.abs(res)) < 1e-13


def test_construct_delbar_rejects_bad_lam():
    grid = Grid.centered(0.4, 21)
    with pytest.raises(LiouvilleViolated):
        construct_delbar(DelbarInput(L0=-1.0, grid=grid, p=HolomorphicSpec.identity(),
                                     lam=np.zeros(grid.shape)))


def test_construct_delbar_p_zero_is_totally_geodesic():
    grid = Grid.centered(0.4, 41)
    data = construct_delbar(DelbarInput(L0=-1.0, grid=grid,
                                        p=HolomorphicSpec.constant(0.0)))
    for name in ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3"):
        assert np.max(np.abs(getattr(data, name))) == 0.0
    assert gcr_residuals(data).max_abs() < 1e-12


def test_construct_delbar_r_controls_mean_curvature():
    grid = Grid.centered(0.4, 41)
    flat = construct_delbar(DelbarInput(L0=-1.0, grid=grid,
                                        p=HolomorphicSpec.identity()))
    assert np.max(np.abs(flat.alpha1 + flat.alpha3)) == 0.0
    assert np.max(np.abs(flat.beta1 + flat.beta3)) == 0.0
    bent = construct_delbar(DelbarInput(L0=-1.0, grid=grid,
                                        p=HolomorphicSpec.constant(0.0), r=1.0))
    assert np.allclose(bent.alpha1 + bent.alpha3, -np.exp(bent.lam))


def test_mean_curvature_case_restriction():
    with pytest.raises(InvalidCase):
        mean_curvature_and_isotropy(sphere_data(n=11))


def test_isotropy_untestable_where_p_vanishes():
    grid = Grid.centered(0.4, 21)   # contains w = 0
    spec = DelbarInput(L0=-1.0, grid=grid, p=HolomorphicSpec.identity())
    data = construct_delbar(spec)
    with pytest.raises(TotallyGeodesicRegion):
        mean_curvature_and_isotropy(data, spec)


def test_delbar_identities_hold_to_machine_precision():
    grid = Grid.centered(0.4, 31)
    data = construct_delbar(DelbarInput(L0=-1.0, grid=grid,
                                        p=HolomorphicSpec((0.5, 1.0, 0.25j))))
    inv = twistor_invariants(data).families[""]
    assert np.max(np.abs(inv.W + inv.Z)) < 1e-14
    assert np.max(np.abs(inv.X + inv.Y)) < 1e-14
