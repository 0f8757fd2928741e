import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from conftest import (
    differenced_jets,
    gauged_sphere_data,
    generated_data,
    geodesic_sphere_data,
    random_smooth_data,
    sphere_data,
    without_exact_derivatives,
    zero_data,
)
from spaceform.cases import SurfaceCase
from spaceform.errors import (
    DegenerateDelta,
    FrameNormalizationError,
    InvalidCase,
)
from spaceform.fundamental import CONNECTION_TABLES
from spaceform.grids import Grid, d_du, d_dv
from spaceform.integrability import field_jets
from spaceform.reconstruct import (
    DelbarInput,
    HolomorphicSpec,
    _coerce_invariants,
    construct_delbar,
)
from spaceform.twistor import (
    CODAZZI_COEFFS,
    _curvature_program,
    _hat_matrices,
    ab_functions,
    curvature_residual,
    curvature_structure,
    degeneracy_report,
    delbar_residual,
    family_labels,
    InvariantFamily,
    TwistorInvariants,
    hat_connection_matrices,
    invariant_fields,
    label_sign,
    linear_dependence_check,
    partner_label,
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


_EPS = np.finfo(float).eps


def _codazzi_system(inv: TwistorInvariants, label: str):
    """The Codazzi equations of family ``label`` as M [A; B] = d, stacked
    per grid point: the reference that ab_functions solves by Cramer's
    rule."""
    f, p = inv.families[label], inv.families[partner_label(inv.case, label)]
    a, b, c, e, _ = CODAZZI_COEFFS[inv.case](label_sign(label))
    M = np.stack([np.stack([a * p.W, -p.Z], axis=-1),
                  np.stack([b * f.Y, -f.X], axis=-1)], axis=-2)
    d = np.stack([d_dv(f.Y, inv.grid, order=4) + c * d_du(f.X, inv.grid, order=4),
                  d_dv(p.W, inv.grid, order=4) + e * d_du(p.Z, inv.grid, order=4)], axis=-1)
    return M, d


@pytest.mark.parametrize("case", list(SurfaceCase))
@given(draw=st.data())
def test_codazzi_determinant_is_g_delta(case, draw):
    """det M = g Delta, with g the fifth Codazzi coefficient: the gated
    discriminant is the divisor of Cramer's rule."""
    inv = twistor_invariants(draw.draw(generated_data(case)))
    for label, f in inv.families.items():
        M, _ = _codazzi_system(inv, label)
        g = CODAZZI_COEFFS[case](label_sign(label))[4]
        diagonal, antidiagonal = M[..., 0, 0] * M[..., 1, 1], M[..., 0, 1] * M[..., 1, 0]
        scale = np.abs(diagonal) + np.abs(antidiagonal)
        assert np.all(np.abs(diagonal - antidiagonal - g * f.delta) <= 8 * _EPS * scale)


@pytest.mark.parametrize("case", list(SurfaceCase))
@given(draw=st.data())
def test_ab_functions_match_solve(case, draw):
    """Cramer's rule agrees with LAPACK on the stacked system to a small
    multiple of eps times the condition number of M at every point."""
    inv = twistor_invariants(draw.draw(generated_data(case)))
    try:
        A, B = ab_functions(inv)
    except DegenerateDelta:
        reject()
    for label in inv.families:
        M, d = _codazzi_system(inv, label)
        ref = np.linalg.solve(M, d[..., None])[..., 0]
        got = np.stack([A[label], B[partner_label(inv.case, label)]], axis=-1)
        size = np.max(np.abs(ref), axis=-1)
        bound = 16 * _EPS * np.linalg.cond(M, p=np.inf) * size
        assert np.all(np.max(np.abs(got - ref), axis=-1) <= bound)


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
        assert np.array_equal(m, np.asarray(_STRUCTURES[(case, label)], dtype=complex))


def test_curvature_residual_small_on_exact_families():
    for data in (sphere_data(n=41), geodesic_sphere_data(n=41, half_width=0.8)):
        res = curvature_residual(data)
        worst = max(float(np.max(np.abs(r))) for r in res.values())
        assert worst < 10 * data.grid.h**2


def test_curvature_residual_small_on_array_data():
    """Without analytic lam derivatives the residual stays second order
    up to the grid corners."""
    data = without_exact_derivatives(sphere_data(n=101))
    res = curvature_residual(data)
    worst = max(float(np.max(np.abs(r))) for r in res.values())
    assert worst < 10 * data.grid.h**2


@pytest.mark.parametrize("case", [SurfaceCase.RIEM, SurfaceCase.LOR_SPACE])
@pytest.mark.parametrize("L0", [0.0, 1.0])
def test_curvature_residual_converges_at_second_order_on_gauged_spheres(case, L0):
    """On compatible data whose beta and mu do not vanish the curvature
    identity holds to O(h^2): the maximum falls 4.0x per halving of h, from
    2.5e-3 at 41^2 (Riemannian, L0 = 0)."""
    worst = []
    for n in (41, 81, 161):
        data = gauged_sphere_data(case, L0, n)
        worst.append(max(float(np.max(np.abs(r))) for r in curvature_residual(data).values()))
        assert worst[-1] < 3 * data.grid.h**2
    assert all(3.9 < a / b < 4.1 for a, b in zip(worst, worst[1:])), worst


@pytest.mark.parametrize("case", list(SurfaceCase))
def test_curvature_residual_peak_stays_below_36_grid_arrays(case, rng):
    """The field jets, the invariant jets and the entries run a block of u
    rows at a time: at 401^2 the peak, the (3, 3) outputs included, stays
    below 36 grid arrays (the tighter bound of
    ``test_integrability._PEAK_GRID_ARRAYS`` holds too)."""
    data = random_smooth_data(case, Grid.centered(1.0, 401), rng)
    tracemalloc.start()
    try:
        curvature_residual(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * data.grid.nu * data.grid.nv * 8


def _hand_written_hat(data, inv):
    """Reference: the per-case entry writes into (nu, nv, 3, 3) stacks."""
    case = data.case
    dtype = complex if case.is_lorentzian else float
    out = {}
    for label in family_labels(case):
        f, fm, s = inv.families[label], inv.families[partner_label(case, label)], label_sign(label)
        M1 = np.zeros(data.grid.shape + (3, 3), dtype=dtype)
        M2 = np.zeros(data.grid.shape + (3, 3), dtype=dtype)

        def skew(M, i, j, val):
            M[..., i, j] = val
            M[..., j, i] = -val

        if case is SurfaceCase.RIEM:
            skew(M1, 0, 1, -f.W); skew(M1, 0, 2, -fm.Y); skew(M1, 1, 2, s * f.psi)
            skew(M2, 0, 1, -s * f.Z); skew(M2, 0, 2, s * fm.X); skew(M2, 1, 2, -s * fm.phi)
        elif case is SurfaceCase.NEUT_SPACE:
            M1[..., 0, 1] = M1[..., 1, 0] = f.W
            M1[..., 0, 2] = M1[..., 2, 0] = fm.Y
            M1[..., 1, 2] = s * f.psi; M1[..., 2, 1] = -s * f.psi
            M2[..., 0, 1] = M2[..., 1, 0] = s * f.Z
            M2[..., 0, 2] = M2[..., 2, 0] = -s * fm.X
            M2[..., 1, 2] = -s * fm.phi; M2[..., 2, 1] = s * fm.phi
        elif case is SurfaceCase.NEUT_TIME:
            M1[..., 0, 1] = M1[..., 1, 0] = f.W
            M1[..., 0, 2] = M1[..., 2, 0] = -s * f.psi
            M1[..., 1, 2] = -f.Y; M1[..., 2, 1] = f.Y
            M2[..., 0, 1] = M2[..., 1, 0] = s * f.Z
            M2[..., 0, 2] = M2[..., 2, 0] = -s * f.phi
            M2[..., 1, 2] = -s * f.X; M2[..., 2, 1] = s * f.X
        elif case is SurfaceCase.LOR_SPACE:
            skew(M1, 0, 1, -f.W); skew(M1, 1, 2, f.psi)
            M1[..., 0, 2] = 1j * f.Y; M1[..., 2, 0] = -1j * f.Y
            skew(M2, 0, 2, f.X); skew(M2, 1, 2, -f.phi)
            M2[..., 0, 1] = 1j * f.Z; M2[..., 1, 0] = -1j * f.Z
        else:  # LOR_TIME, conjugate-Theta frame
            M1[..., 0, 1] = -1j * f.W; M1[..., 1, 0] = 1j * f.W
            M1[..., 0, 2] = -1j * f.Y; M1[..., 2, 0] = 1j * f.Y
            M1[..., 1, 2] = -1j * f.psi; M1[..., 2, 1] = 1j * f.psi
            skew(M2, 0, 1, f.Z); skew(M2, 0, 2, -f.X)
            M2[..., 1, 2] = -1j * f.phi; M2[..., 2, 1] = 1j * f.phi
        out[label] = (M1, M2)
    return out


def _matrix_curvature(data):
    """Reference: the hand-written hat stacks of the values and of the
    mixed jet (W_v, X_u, Y_v, Z_u, phi_u, psi_v) of the fields differenced
    here (``differenced_jets``), with the commutator as batched matmuls.  Returns the residuals and the largest absolute hat
    entry or E value."""
    case = data.case
    j = field_jets(data)

    def hat(fams):
        return _hand_written_hat(data, TwistorInvariants(
            case=case, grid=data.grid, lam=data.lam,
            families={label: InvariantFamily(*fam, None) for label, fam in fams.items()}))

    d = differenced_jets(data, j)
    inv_u, inv_v = invariant_fields(case, d["u"]), invariant_fields(case, d["v"])
    mixed = {label: (inv_v[label][0], inv_u[label][1], inv_v[label][2],
                     inv_u[label][3], inv_u[label][4], inv_v[label][5]) for label in inv_u}
    jet_mats, mats = hat(mixed), hat(invariant_fields(case, j))
    out, scale = {}, float(np.max(np.abs(j["E"])))
    for label, (M1, M2) in mats.items():
        M1_v, M2_u = jet_mats[label]
        R = M2_u - M1_v + M1 @ M2 - M2 @ M1
        out[label] = R - j["E"][..., None, None] * curvature_structure(case, label)
        scale = max(scale, *(float(np.max(np.abs(M))) for M in (M1, M2, M1_v, M2_u)))
    return out, scale


@given(generated_data())
def test_hat_matrices_match_hand_written_assembly(data):
    inv = twistor_invariants(data)
    ref = _hand_written_hat(data, inv)
    got = hat_connection_matrices(data, inv)
    assert got.keys() == ref.keys()
    for label, mats in got.items():
        for M, R in zip(mats, ref[label]):
            assert M.dtype == R.dtype
            assert np.array_equal(M, R), label


@pytest.fixture
def fresh_hat_matrices():
    _hat_matrices.cache_clear()
    yield
    _hat_matrices.cache_clear()


def _without_mu1_in_S(S, T):
    S = S.copy()
    S[:, [5 * 2 + 3, 5 * 3 + 2]] = 0.0
    return S, T


@pytest.mark.parametrize("tables, message", [
    (lambda S, T: (2 * S, 2 * T), r"hat entry \(0, 1\) of family '\+' is not one invariant"),
    (_without_mu1_in_S, r"hat entry \(1, 2\) of family '\+' is not one invariant .* \[\]"),
])
def test_hat_matrices_reject_tables_whose_entries_are_no_invariant(
        monkeypatch, fresh_hat_matrices, tables, message):
    """An entry that is not one invariant times +-1 or +-1j fails when the
    hat matrices are derived, not in a residual."""
    case = SurfaceCase.RIEM
    monkeypatch.setitem(CONNECTION_TABLES, case, tables(*CONNECTION_TABLES[case]))
    with pytest.raises(ValueError, match=message):
        _hat_matrices(case, "+")


@given(generated_data())
def test_curvature_program_matches_matrix_reference(data):
    ref, scale = _matrix_curvature(data)
    got = curvature_residual(data)
    assert got.keys() == ref.keys()
    for label, R in got.items():
        assert R.shape == data.grid.shape + (3, 3)
        assert np.max(np.abs(R - ref[label])) <= 1e-14 * max(1.0, scale) ** 2, label


def _written_invariants(case, f):
    """Reference: the invariant formulas of each case written out."""
    a1, a2, a3 = f["alpha1"], f["alpha2"], f["alpha3"]
    b1, b2, b3 = f["beta1"], f["beta2"], f["beta3"]
    m1, m2, lam_u, lam_v = f["mu1"], f["mu2"], f["lam_u"], f["lam_v"]
    if case is SurfaceCase.LOR_SPACE:
        return {"": (a2 - 1j * b1, a2 + 1j * b3, b2 - 1j * a1, b2 + 1j * a3,
                     lam_u - 1j * m2, lam_v + 1j * m1)}
    if case is SurfaceCase.LOR_TIME:
        return {"": (a2 + 1j * b1, a2 + 1j * b3, b2 - 1j * a1, b2 - 1j * a3,
                     lam_u - 1j * m2, lam_v - 1j * m1)}
    return {label: (a2 + s * b1, a2 + s * b3, b2 + s * a1, b2 + s * a3,
                    lam_u - s * m2, lam_v - s * m1)
            for label, s in (("+", 1), ("-", -1))}


@pytest.mark.parametrize("case", list(SurfaceCase))
def test_invariant_table_matches_written_formulas(case):
    rng = np.random.default_rng(12)
    names = ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3",
             "mu1", "mu2", "lam_u", "lam_v")
    f = {n: rng.standard_normal((4, 5)) for n in names}
    f["alpha1"][0, 0] = 0.0
    f["lam_v"] = 0.0                    # a term may be a scalar
    got, ref = invariant_fields(case, f), _written_invariants(case, f)
    assert got.keys() == ref.keys()
    for label in ref:
        for x, y in zip(got[label], ref[label]):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), label


@pytest.mark.parametrize("case", list(SurfaceCase))
def test_curvature_programs_read_only_the_mixed_jet(case):
    for label in family_labels(case):
        names = {n for groups in _curvature_program(case, label).values()
                 for a, bs in groups for n in (a, *(b for b, _ in bs))}
        derivs = {n for n in names if "_" in n}
        assert {n.split("_")[0].rstrip("+-") + "_" + n[-1] for n in derivs} <= \
            {"W_v", "X_u", "Y_v", "Z_u", "phi_u", "psi_v"}, (case, label)


def test_hat_matrices_shapes_and_skewness():
    data = sphere_data(n=11)
    mats = hat_connection_matrices(data)
    for label, (M1, M2) in mats.items():
        assert M1.shape == data.grid.shape + (3, 3)
        # Riemannian hat matrices are skew
        assert np.max(np.abs(M1 + np.swapaxes(M1, -1, -2))) < 1e-14
        assert np.max(np.abs(M2 + np.swapaxes(M2, -1, -2))) < 1e-14


def test_degeneracy_report_sphere_vs_zero():
    sphere = sphere_data(n=21)
    rep = degeneracy_report(sphere, twistor_invariants(sphere))
    assert rep.nondegenerate
    assert np.max(np.abs(rep.K_minus_L0)) > 0.5  # K = 1, L0 = 0
    zero = zero_data(SurfaceCase.RIEM, Grid.centered(1.0, 9))
    rep0 = degeneracy_report(zero, twistor_invariants(zero))
    assert not rep0.nondegenerate
    assert np.max(np.abs(rep0.K)) == 0.0
    assert np.max(np.abs(rep0.rperp)) == 0.0


def test_delbar_residual_case_restriction():
    with pytest.raises(InvalidCase):
        sphere = sphere_data(n=11)
        delbar_residual(sphere, twistor_invariants(sphere))


def test_delbar_residual_vanishes_on_delbar_data():
    data = construct_delbar(DelbarInput(L0=-1.0, grid=Grid.centered(0.4, 21),
                                        p=HolomorphicSpec((0.0, 1.0))))
    d1, d2 = delbar_residual(data, twistor_invariants(data))
    assert np.max(np.abs(d1)) == 0.0
    assert np.max(np.abs(d2)) == 0.0


def test_linear_dependence_branches():
    data = construct_delbar(DelbarInput(L0=-1.0, grid=Grid.centered(0.4, 21),
                                        p=HolomorphicSpec((0.0, 1.0))))
    rep = linear_dependence_check(data)
    assert bool(np.all(rep["dependent"]))
    # delbar data with r = 0 has alpha1 + alpha3 = 0 everywhere
    assert all("zero-mean-curvature" in b for b in rep["branch"].ravel())


def _written_so3c(w):
    """Reference: the SO(3, C) form of the Lorentz connection forms ``w``
    written out entry by entry."""
    hat = np.zeros(w.shape[:-2] + (3, 3), dtype=complex)
    for (i, j), e in (((0, 1), -w[..., 2, 1] + 1j * w[..., 3, 0]),
                      ((0, 2), w[..., 2, 0] + 1j * w[..., 3, 1]),
                      ((1, 2), -w[..., 1, 0] + 1j * w[..., 3, 2])):
        hat[..., i, j], hat[..., j, i] = e, -e
    return hat


@given(st.lists(st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
                min_size=1, max_size=4))
def test_so3c_connection_form_matches_written_formula(coeffs):
    """Stacked Lorentz forms, three rotation and three boost coefficients
    each: the derived table agrees with the written entries to rounding."""
    c = np.asarray(coeffs)
    w = np.zeros((len(c), 4, 4))
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        w[:, j, i], w[:, i, j] = c[:, k], -c[:, k]
        w[:, k, 3] = w[:, 3, k] = c[:, 3 + k]
    got, ref = so3c_connection_form(w), _written_so3c(w)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 4 * _EPS * max(1.0, float(np.max(np.abs(w))))


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


def test_so3c_connection_form_gate_fails_on_nan():
    bad = np.zeros((4, 4))
    bad[0, 1] = np.nan
    with pytest.raises(FrameNormalizationError, match="skew in the first three indices"):
        so3c_connection_form(bad)


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
