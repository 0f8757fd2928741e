import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    gauged_sphere_data,
    generated_data,
    geodesic_sphere_data,
    random_smooth_data,
    sphere_data,
    umbilic_sphere_data,
    without_exact_derivatives,
    zero_data,
)
from spaceform import reconstruct
from spaceform.cases import COLUMN_SIGNS, SurfaceCase
from spaceform.errors import (
    DegenerateDelta,
    DegenerateFrame,
    DimensionMismatch,
    DomainViolation,
    HypothesisViolated,
    IncompatiblePair,
    InvalidCase,
    InvalidInitialFrame,
    LiouvilleViolated,
    NonFiniteState,
    SignMismatch,
    TotallyGeodesicRegion,
    check_residual,
)
from spaceform.fundamental import (
    CONNECTION_TABLES,
    FIELD_NAMES,
    FundamentalData,
    ambient_model,
    apply_table,
    canonical_frame,
    validate_frame,
)
from spaceform.grids import Grid, d_du, d_dv, half_samples
from spaceform.integrability import gcr_residuals
from spaceform.reconstruct import (
    DelbarInput,
    FrameField,
    HolomorphicSpec,
    _frame_rows,
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
from spaceform.twistor import (
    _INVARIANT_TERMS,
    InvariantFamily,
    invariant_fields,
    twistor_invariants,
)


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


def test_integrate_frame_rejects_nan_init_before_sweeping():
    data = zero_data(SurfaceCase.RIEM, Grid.centered(1.0, 9))
    init = canonical_frame(data.model)
    init[2, 3] = np.nan
    with pytest.raises(InvalidInitialFrame) as exc:
        integrate_frame(data, init=init)
    assert exc.value.location is not None and np.isnan(exc.value.value)


def test_exact_lam_derivatives_are_node_values():
    """Provider data integrates as plain arrays carrying the same exact
    lam derivatives: one integration path, no sampling between nodes."""
    data = sphere_data(n=41)
    copy = FundamentalData(model=data.model, grid=data.grid,
                           **{n: a.copy() for n, a in data.fields.items()},
                           analytic={n: np.array(a) for n, a in data.analytic.items()})
    ff, ref = (integrate_frame(d, check_transposed=True) for d in (data, copy))
    assert np.array_equal(ff.frames, ref.frames)
    assert ff.diagnostics == ref.diagnostics


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
        data = without_exact_derivatives(sphere_data(n=n))
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


@pytest.mark.parametrize("start", [(0, 0), (3, 5)])
def test_extract_singular_frame_names_first_index(start):
    """A frame that is singular outside T1 raises DegenerateFrame, not
    numpy's LinAlgError, at the first singular grid index."""
    ff = integrate_frame(sphere_data(n=11))
    ff.frames[start[0]:, start[1]:, :, 2] = 0.0   # zero the N1 column
    with pytest.raises(DegenerateFrame, match=re.escape(f"singular frame at {start}")):
        extract_fundamental(ff)


@pytest.mark.parametrize("make, column, which", [
    (sphere_data, 0, "tangent norm below threshold"),
    (sphere_data, 1, "singular frame"),
    (sphere_data, 2, "singular frame"),
    (sphere_data, 3, "singular frame"),
    (geodesic_sphere_data, 4, "singular frame"),   # F of an S^4 frame
])
def test_extract_nan_frame_column_is_located(make, column, which):
    """A NaN in any frame column fails a gate at its grid index, before
    the NaN reaches the fields."""
    ff = integrate_frame(make(n=11))
    ff.frames[3, 5, 0, column] = np.nan
    with pytest.raises(DegenerateFrame, match=re.escape(f"{which} at (3, 5) (value nan)")):
        extract_fundamental(ff)


@pytest.mark.parametrize("start", [(0, 0), (3, 5)])
def test_extract_singular_frame_without_zero_column(start):
    """N2 := N1 makes the frame singular with every column nonzero; the
    Gram pivot gate locates it inside the changed region."""
    ff = integrate_frame(geodesic_sphere_data(n=11))
    ff.frames[start[0]:, start[1]:, :, 3] = ff.frames[start[0]:, start[1]:, :, 2]
    with pytest.raises(DegenerateFrame, match="singular frame") as exc:
        extract_fundamental(ff)
    assert exc.value.location[0] >= start[0] and exc.value.location[1] >= start[1]
    assert not exc.value.value >= 1e-12   # d_3 is 0 to rounding, then L_43 may be 0/0


def _stacked_sweep(Y0, mats, mats_mid, h):
    """RK4 march over full (m, ..., 5, 5) stacks of S or T (reference)."""
    out = np.empty((mats.shape[0],) + Y0.shape)
    out[0] = y = Y0
    for i in range(mats.shape[0] - 1):
        a, m, b = mats[i], mats_mid[i], mats[i + 1]
        k1 = y @ a
        k2 = (y + 0.5 * h * k1) @ m
        k3 = (y + 0.5 * h * k2) @ m
        k4 = (y + h * k3) @ b
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = y
    return out


def _stacked_drift(frames, data):
    eta = np.asarray(data.model.ambient, dtype=float)
    cols = frames[..., :4]
    gram = np.einsum("...ak,a,...al->...kl", cols, eta, cols)
    target = np.asarray(COLUMN_SIGNS[data.case], dtype=float) * data.e2l()[..., None]
    drift = np.max(np.abs(gram - np.eye(4) * target[..., None, :]))
    if data.model.L0 != 0.0:
        f = frames[..., 4]
        drift = np.maximum(drift, np.max(np.abs(
            np.einsum("...a,a,...a->...", f, eta, f) - 1.0 / data.model.L0)))
    return drift


def _stacked_integration(data):
    """integrate_frame(check_transposed=True) with S, T, and their midpoint
    values stored over the whole grid: (frames, diagnostics)."""
    model = data.model
    lam0 = float(data.lam[0, 0])
    init = canonical_frame(model, lam0=lam0)
    # the gate of integrate_frame
    check_residual(validate_frame(init, lam0, data.case, L0=model.L0),
                   1e-8 * max(1.0, np.exp(2 * lam0)), "initial frame", error=InvalidInitialFrame)
    rows = np.moveaxis(_frame_rows(data)[0], 0, 1)
    u_mid, v_mid = half_samples(rows, axis=1), half_samples(rows, axis=2)
    S_table, T_table = CONNECTION_TABLES[data.case]
    S, T = apply_table(rows, S_table), apply_table(rows, T_table)
    Smid, Tmid = apply_table(u_mid, S_table), apply_table(v_mid, T_table)
    g = data.grid
    row = _stacked_sweep(init, S[:, 0], Smid[:, 0], g.du)
    frames = _stacked_sweep(row, np.moveaxis(T, 1, 0), np.moveaxis(Tmid, 1, 0), g.dv)
    frames = np.moveaxis(frames, 0, 1)
    if not np.all(np.isfinite(frames)):
        raise NonFiniteState("frame integration produced non-finite values")
    col = _stacked_sweep(init, T[0], Tmid[0], g.dv)
    return frames, {
        "drift": _stacked_drift(frames, data),
        "cross_consistency": np.max(np.abs(
            _stacked_sweep(frames[0, -1], S[:, -1], Smid[:, -1], g.du) - frames[:, -1])),
        "transposed_discrepancy": np.max(np.abs(
            _stacked_sweep(col, S, Smid, g.du) - frames)),
    }


def _outcome(integrate, data):
    """(result, None) or (None, exception type) for the expected failures."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # overflow on blow-up
        try:
            return integrate(data), None
        except (NonFiniteState, InvalidInitialFrame) as exc:
            return None, type(exc)


def _assert_matches_stacked(data):
    ff, err = _outcome(lambda d: integrate_frame(d, check_transposed=True), data)
    ref, ref_err = _outcome(_stacked_integration, data)
    assert err is ref_err
    if err is not None:
        return
    frames, diag = ref
    assert np.array_equal(ff.frames, frames)
    assert set(ff.diagnostics) == set(diag)
    for name in ("cross_consistency", "transposed_discrepancy"):
        assert np.array_equal(ff.diagnostics[name], diag[name], equal_nan=True), name
    # the Gram entries are sums of products of frame entries, so their
    # rounding error scales with the squared frame size
    scale = max(1.0, float(np.max(np.abs(frames[..., :4]))) ** 2)
    drift, ref_drift = ff.diagnostics["drift"], diag["drift"]
    assert np.isnan(drift) == np.isnan(ref_drift)
    if not np.isnan(drift):
        assert abs(drift - ref_drift) <= 1e-14 * scale


@given(generated_data())
def test_streamed_sweep_matches_stacked_sweep(data):
    """Building S and T one step at a time changes no bit of the frames."""
    _assert_matches_stacked(data)


def test_streamed_sweep_matches_stacked_sweep_on_exact_lam_derivatives():
    _assert_matches_stacked(sphere_data(n=41))
    _assert_matches_stacked(geodesic_sphere_data(n=41, half_width=0.8))


@pytest.mark.parametrize("points", [1, 12 * 41 * 3])
def test_midpoint_blocks_change_no_bit(points, monkeypatch):
    """One step per block of interpolated midpoint rows, and 3-step blocks
    with a ragged last one (40 steps), match the stacked reference."""
    monkeypatch.setattr(reconstruct, "_MIDPOINT_BLOCK", points)
    _assert_matches_stacked(without_exact_derivatives(sphere_data(n=41)))
    _assert_matches_stacked(geodesic_sphere_data(n=41, half_width=0.8))


def test_nonfinite_side_sweeps_give_nan_diagnostics():
    """A cross or transposed sweep that blows up away from the integration
    path gives a NaN diagnostic; the running maxima do not drop it."""
    data = without_exact_derivatives(sphere_data(n=11))
    data.alpha1[:, -1] = 1e200   # S blows up on the last v line only
    with np.errstate(over="ignore", invalid="ignore"):
        ff = integrate_frame(data, check_transposed=True)
        _assert_matches_stacked(data)
    assert np.all(np.isfinite(ff.frames))
    assert np.isnan(ff.diagnostics["cross_consistency"])
    assert np.isnan(ff.diagnostics["transposed_discrepancy"])


@pytest.mark.parametrize("make", [sphere_data, geodesic_sphere_data])
def test_integrate_frame_allocates_no_second_frame_field(make):
    """The transposed and cross sweeps are running maxima and frame_drift
    works in blocks of u rows, so at 101^2 the peak allocation stays below
    4.5 frame fields, frames included (the two node stacks of field rows
    take 1.2 of them in the flat ambient and 0.96 in S^4)."""
    data = without_exact_derivatives(make(n=101))
    tracemalloc.start()
    try:
        ff = integrate_frame(data, check_transposed=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ff.frames.flags.c_contiguous
    assert peak < 4.5 * ff.frames.nbytes


def test_integrate_frame_peak_stays_below_2_3_frame_fields():
    """Each step interpolates its own midpoint rows, so only the two node
    stacks are held beside the frames: at 201^2 in S^4 the peak stays
    below 2.3 frame fields, frames included (measured 2.10)."""
    data = without_exact_derivatives(geodesic_sphere_data(n=201))
    tracemalloc.start()
    try:
        ff = integrate_frame(data, check_transposed=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * ff.frames.nbytes


def _gram_extraction(ff):
    """The fields read off S = G^{-1} Y^t eta Y_u, T likewise (reference)."""
    model, g = ff.model, ff.grid
    ncols = 4 if model.L0 == 0.0 else 5
    Yc = ff.frames[..., :ncols]
    eta = np.asarray(model.ambient, dtype=float)
    gram = np.einsum("...ak,a,...al->...kl", Yc, eta, Yc)
    S, T = (np.linalg.solve(gram, np.einsum("...ak,a,...al->...kl", Yc, eta, dY))
            for dY in (d_du(Yc, g, order=4), d_dv(Yc, g, order=4)))
    return {"alpha1": S[..., 2, 0], "alpha2": S[..., 2, 1], "alpha3": T[..., 2, 1],
            "beta1": S[..., 3, 0], "beta2": S[..., 3, 1], "beta3": T[..., 3, 1],
            "mu1": S[..., 3, 2], "mu2": T[..., 3, 2]}


@pytest.mark.parametrize("make", [sphere_data, geodesic_sphere_data])
def test_square_frame_extraction_matches_gram_solve(make):
    ff = integrate_frame(make(n=61))
    back = extract_fundamental(ff)
    for name, ref in _gram_extraction(ff).items():
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(getattr(back, name) - ref)) <= 1e-12 * scale, name


def _assert_extraction_matches_gram_solve(case, L0, n, seed):
    """On [-0.5, 0.5]^2 the frames of every case stay near their
    constraints even at 7^2, so Y is about as well conditioned as e^{lam}.
    On larger charts the frames of the non-compact ambient groups grow,
    and both solutions carry errors of cond(Y) times the rounding."""
    grid = Grid.centered(0.5, n)
    data = random_smooth_data(case, grid, np.random.default_rng(seed), L0=L0)
    ff = integrate_frame(data)
    back = extract_fundamental(ff)
    for name, ref in _gram_extraction(ff).items():
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(getattr(back, name) - ref)) <= 1e-12 * scale, name


@pytest.mark.parametrize("case", list(SurfaceCase))
@pytest.mark.parametrize("L0", [1.0, -1.0])
@pytest.mark.parametrize("n", [21, 41])
def test_extraction_matches_gram_solve_in_every_case(case, L0, n):
    """The eta signs of every case: frames integrated from smooth data,
    against the LAPACK reference."""
    _assert_extraction_matches_gram_solve(case, L0, n, seed=n)


@given(st.sampled_from(list(SurfaceCase)), st.sampled_from([1.0, -1.0]),
       st.integers(7, 25), st.integers(0, 2**32 - 1))
def test_extraction_matches_gram_solve_on_generated_frames(case, L0, n, seed):
    _assert_extraction_matches_gram_solve(case, L0, n, seed)


def test_extraction_peak_stays_below_two_frame_fields():
    """The Gram factorisation works a block of u rows at a time, and one
    frame column at a time is copied and differenced: at 201^2 in S^4 the
    peak allocation stays below 2 frame fields (the dual rows take 0.4 of
    one, the fields 0.36)."""
    ff = integrate_frame(geodesic_sphere_data(n=201))
    tracemalloc.start()
    try:
        extract_fundamental(ff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * ff.frames.nbytes


@pytest.mark.parametrize("make", [sphere_data, geodesic_sphere_data])
def test_extraction_differences_one_contiguous_plane_per_call(make, monkeypatch):
    """Five differenced frame columns (T1, T2, N1 along u; T2, N1 along
    v), one call per component plane, through the module's stencil names
    (which the benchmark's tracer rebinds)."""
    ff = integrate_frame(make(n=11))
    calls = []
    for name in ("d_du", "d_dv"):
        stencil = getattr(reconstruct, name)
        monkeypatch.setattr(reconstruct, name, lambda f, *a, _n=name, _s=stencil, **k:
                            calls.append((_n, f.shape, f.flags.c_contiguous)) or _s(f, *a, **k))
    extract_fundamental(ff)
    n = ff.model.ambient_dim
    assert sorted(calls) == sorted([("d_du", (11, 11), True)] * 3 * n
                                   + [("d_dv", (11, 11), True)] * 2 * n)


def test_extracted_terms_read_each_shape_field_once_from_the_skeleton():
    """The extraction reads the eight shape fields off rows 2-3, columns
    0-2 of the +1 skeleton of S (along u) and T (along v), S first."""
    assert reconstruct._extracted_terms() == (
        (("u", {"alpha1": 0, "beta1": 1}),),
        (("u", {"alpha2": 0, "beta2": 1}), ("v", {"alpha3": 0, "beta3": 1})),
        (("u", {"mu1": 1}), ("v", {"mu2": 1})))


def test_extracted_fields_own_their_memory():
    for data in (sphere_data(n=21), geodesic_sphere_data(n=21)):
        back = extract_fundamental(integrate_frame(data))
        for name, arr in back.fields.items():
            assert arr.flags.owndata and arr.flags.c_contiguous, name


def test_extract_rejects_model_of_other_dimension():
    ff = integrate_frame(sphere_data(n=11))      # 4-vectors, flat ambient
    with pytest.raises(DimensionMismatch, match="dimension 4 vs ambient 5"):
        extract_fundamental(FrameField(ambient_model(SurfaceCase.RIEM, 1.0), ff.grid, ff.frames))
    ff = integrate_frame(geodesic_sphere_data(n=11))
    with pytest.raises(DimensionMismatch, match="dimension 5 vs ambient 4"):
        extract_fundamental(FrameField(ambient_model(SurfaceCase.RIEM, 0.0), ff.grid, ff.frames))


@given(st.sampled_from([0.0, 1.0]), st.integers(11, 61),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.booleans())
def test_round_trip_on_umbilic_spheres(L0, n, u0, v0, array_input):
    data = umbilic_sphere_data(L0, n, u0, v0)
    if array_input:
        data = without_exact_derivatives(data)
    back = extract_fundamental(integrate_frame(data))
    bound = 10 * data.grid.h**2
    for name in FIELD_NAMES:
        assert np.max(np.abs(getattr(back, name) - getattr(data, name))) < bound, name


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


def test_flat_construction_rejects_curved_invariants():
    """Invariants of a sphere in S^4 have f = Delta - A_u - B_v = e^{2 lam},
    not 0: the flat (L0 = 0) gate names and locates the violation."""
    data = umbilic_sphere_data(1.0, 31)
    with pytest.raises(HypothesisViolated) as exc:
        construct_from_wxyz_flat(twistor_invariants(data), SurfaceCase.RIEM, data.grid)
    assert exc.value.which == "A_u + B_v = Delta"
    assert exc.value.location is not None


def test_curved_construction_round_trip():
    residuals = []
    for n in (31, 61):
        data = umbilic_sphere_data(1.0, n)
        assert gcr_residuals(data).max_abs() < 10 * data.grid.h**2
        inv = twistor_invariants(data)
        out = construct_from_wxyz_curved(inv, 1.0, SurfaceCase.RIEM, data.grid)
        # f = L0 e^{2 lam} fixes the additive constant of the integrated lam
        assert np.max(np.abs(out.lam - data.lam)) < data.grid.h**2
        # the shape fields are recovered exactly from the invariants
        for name in ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3",
                     "mu1", "mu2"):
            assert np.max(np.abs(getattr(out, name) - getattr(data, name))) < 1e-12
        residuals.append(gcr_residuals(out).max_abs())
    assert residuals[1] < 0.5 * residuals[0]


@pytest.mark.parametrize("n", [41, 101])
def test_curved_construction_gauss_is_second_order_on_array_input(n):
    """Invariants of array data, as the CLI reads them: lam integrated from
    its gradient leaves no grid-scale roughness for the Gauss stencils."""
    data = without_exact_derivatives(umbilic_sphere_data(1.0, n, half_width=1.0))
    inv = twistor_invariants(data)
    out = construct_from_wxyz_curved(inv, 1.0, SurfaceCase.RIEM, data.grid)
    assert np.max(np.abs(gcr_residuals(out).gauss)) <= 10 * data.grid.h**2


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


@pytest.mark.parametrize("case", list(reconstruct.WXYZ_CASES))
@pytest.mark.parametrize("L0", [0.0, 1.0])
def test_wxyz_round_trip_on_gauged_spheres(case, L0):
    """Compatible data with nonzero beta and mu in both wxyz cases: alpha
    and beta are read back from W, X, Y, Z to rounding, mu1 and mu2 from
    the fourth-order A/B solve (about 16x smaller per halving of h), and
    lam, integrated from its gradient, to second order (4x)."""
    shape_err, lam_err = [], []
    for n in (41, 81):
        data = gauged_sphere_data(case, L0, n)
        inv = twistor_invariants(data)
        out = (construct_from_wxyz_flat(inv, case, data.grid) if L0 == 0.0
               else construct_from_wxyz_curved(inv, L0, case, data.grid))
        err = {name: np.max(np.abs(getattr(out, name) - getattr(data, name)))
               for name in FIELD_NAMES[1:]}
        assert max(err[name] for name in FIELD_NAMES[1:7]) < 1e-14
        shape_err.append(max(err.values()))
        shift = out.lam - data.lam
        # the flat construction fixes lam up to an additive constant
        lam_err.append(np.max(np.abs(shift - (shift[0, 0] if L0 == 0.0 else 0.0))))
        assert gcr_residuals(out).max_abs() < 10 * data.grid.h**2
    assert shape_err[1] < 10 * data.grid.h**4 and shape_err[0] > 12 * shape_err[1]
    assert lam_err[1] < data.grid.h**2 and lam_err[0] > 3.5 * lam_err[1]


@given(generated_data())
def test_inverse_reads_generated_fields_back_from_their_invariants(data):
    """_fields_from_invariants inverts twistor.invariant_fields to rounding
    in every case, real families and complex alike."""
    case = data.case
    f = data.fields
    f["lam_u"], f["lam_v"] = data.lam_derivatives()
    fams = {label: dict(zip(_INVARIANT_TERMS, fam))
            for label, fam in invariant_fields(case, f).items()}
    back = reconstruct._fields_from_invariants(case, fams)
    assert sorted(back) == sorted(set(f) - {"lam"})
    scale = max(1.0, max(float(np.max(np.abs(f[name]))) for name in back))
    for name, values in back.items():
        assert values.dtype == np.float64, name
        assert np.max(np.abs(values - f[name])) <= 4 * np.finfo(float).eps * scale, name


# ---------------------------------------------------------------------------
# holomorphic (dbar) construction


def test_holomorphic_spec_evaluation():
    p = HolomorphicSpec((1.0, 0.0, 1j))
    assert p(2.0) == pytest.approx(1.0 + 4j)
    assert HolomorphicSpec((0.0, 1.0))(3.0 + 1j) == 3.0 + 1j
    assert HolomorphicSpec((2.5,))(np.array([1.0, 5.0])).tolist() == [2.5, 2.5]


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


def _liouville_per_sign(L0):
    """The spherical and hyperbolic profiles as two formula sets: the
    reference that the one signed set must reproduce bitwise."""
    if L0 > 0.0:
        return {
            "lam": lambda U, V: np.log(2.0 / (np.sqrt(L0) * (1.0 + U**2 + V**2))),
            "lam_u": lambda U, V: -2.0 * U / (1.0 + U**2 + V**2),
            "lam_v": lambda U, V: -2.0 * V / (1.0 + U**2 + V**2),
            "lam_uu": lambda U, V: (-2.0 * (1.0 + U**2 + V**2) + 4.0 * U**2)
                                   / (1.0 + U**2 + V**2) ** 2,
            "lam_vv": lambda U, V: (-2.0 * (1.0 + U**2 + V**2) + 4.0 * V**2)
                                   / (1.0 + U**2 + V**2) ** 2,
        }
    return {
        "lam": lambda U, V: np.log(2.0 / (np.sqrt(-L0) * (1.0 - U**2 - V**2))),
        "lam_u": lambda U, V: 2.0 * U / (1.0 - U**2 - V**2),
        "lam_v": lambda U, V: 2.0 * V / (1.0 - U**2 - V**2),
        "lam_uu": lambda U, V: (2.0 * (1.0 - U**2 - V**2) + 4.0 * U**2)
                               / (1.0 - U**2 - V**2) ** 2,
        "lam_vv": lambda U, V: (2.0 * (1.0 - U**2 - V**2) + 4.0 * V**2)
                               / (1.0 - U**2 - V**2) ** 2,
    }


@pytest.mark.parametrize("L0", [1.0, -1.0, 2.0, -0.3, 0.7])
def test_liouville_funcs_match_per_sign_formulas_bitwise(L0):
    U, V = Grid(-0.5, -0.55, 0.0625, 0.05, 17, 23).mesh()   # u = 0 is a node
    lf, ref = _liouville_funcs(L0), _liouville_per_sign(L0)
    for name in ref:
        got, want = lf[name](U, V), ref[name](U, V)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), name


def test_liouville_funcs_satisfy_equation():
    for L0 in (0.0, 1.0, -1.0):
        lf = _liouville_funcs(L0)
        U, V = Grid.centered(0.5, 11).mesh()
        res = lf["lam_uu"](U, V) + lf["lam_vv"](U, V) + L0 * np.exp(2 * lf["lam"](U, V))
        assert np.max(np.abs(res)) < 1e-13


def test_construct_delbar_rejects_bad_lam():
    grid = Grid.centered(0.4, 21)
    with pytest.raises(LiouvilleViolated):
        construct_delbar(DelbarInput(L0=-1.0, grid=grid, p=HolomorphicSpec((0.0, 1.0)),
                                     lam=np.zeros(grid.shape)))


def test_construct_delbar_p_zero_is_totally_geodesic():
    grid = Grid.centered(0.4, 41)
    data = construct_delbar(DelbarInput(L0=-1.0, grid=grid,
                                        p=HolomorphicSpec((0.0,))))
    for name in ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3"):
        assert np.max(np.abs(getattr(data, name))) == 0.0
    assert gcr_residuals(data).max_abs() < 1e-12


def test_construct_delbar_r_controls_mean_curvature():
    grid = Grid.centered(0.4, 41)
    flat = construct_delbar(DelbarInput(L0=-1.0, grid=grid,
                                        p=HolomorphicSpec((0.0, 1.0))))
    assert np.max(np.abs(flat.alpha1 + flat.alpha3)) == 0.0
    assert np.max(np.abs(flat.beta1 + flat.beta3)) == 0.0
    bent = construct_delbar(DelbarInput(L0=-1.0, grid=grid,
                                        p=HolomorphicSpec((0.0,)), r=1.0))
    assert np.allclose(bent.alpha1 + bent.alpha3, -np.exp(bent.lam))


@pytest.mark.parametrize("L0", [1.0, -1.0, 0.0])
def test_construct_delbar_closed_form_equals_given_profile(L0):
    """The closed-form lam and the same profile given as an array build the
    same fields bit for bit; only the closed form carries exact jets."""
    grid = Grid.centered(0.4, 31)
    p = HolomorphicSpec((0.5, 1.0, 0.25j))
    closed = construct_delbar(DelbarInput(L0=L0, grid=grid, p=p, r=0.7))
    given_ = construct_delbar(DelbarInput(L0=L0, grid=grid, p=p, r=0.7,
                                          lam=liouville_profile(L0, grid)))
    for name in FIELD_NAMES:
        assert getattr(closed, name).tobytes() == getattr(given_, name).tobytes(), name
    assert given_.analytic == {}
    U, V = grid.mesh()
    lf = _liouville_funcs(L0)
    for name, values in closed.analytic.items():
        assert np.array_equal(values, lf[name](U, V)), name
    assert sorted(closed.analytic) == ["lam_u", "lam_uu", "lam_v", "lam_vv"]


def test_mean_curvature_case_restriction():
    with pytest.raises(InvalidCase):
        mean_curvature_and_isotropy(sphere_data(n=11))


def test_isotropy_untestable_where_p_vanishes():
    grid = Grid.centered(0.4, 21)   # contains w = 0
    spec = DelbarInput(L0=-1.0, grid=grid, p=HolomorphicSpec((0.0, 1.0)))
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


def test_isotropy_relation_keeps_a_nan_residual():
    """alpha1 - alpha3 overflows at one point, so the relation's residual
    is NaN there; the report does not drop it."""
    grid = Grid(0.1, 0.1, 0.02, 0.02, 11, 11)    # p(w) = w is nonzero here
    spec = DelbarInput(L0=-1.0, grid=grid, p=HolomorphicSpec((0.0, 1.0)))
    data = construct_delbar(spec)
    data.alpha1[4, 6], data.alpha3[4, 6] = 1.7e308, -1.7e308
    with np.errstate(over="ignore", invalid="ignore"):
        report = mean_curvature_and_isotropy(data, spec)["eps_relation"]
    assert np.isnan(report[1]) and np.isnan(report[-1])
