import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_smooth_data, zero_data
from spaceform.cases import COLUMN_SIGNS, SurfaceCase
from spaceform.errors import ConfigError, DimensionMismatch
from spaceform.fundamental import (
    CONNECTION_ROWS,
    CONNECTION_TABLES,
    FIELD_NAMES,
    FundamentalData,
    ambient_model,
    apply_table,
    canonical_frame,
    connection_grids,
    connection_rows,
    stack_rows,
    validate_frame,
)
from spaceform.grids import Grid, half_samples

# Per-case signs (sa1, sb1, s10, sa2, sb2, sm, tL) of the reference assembly.
_REFERENCE_SIGNS = {
    SurfaceCase.RIEM: (-1, -1, -1, -1, -1, -1, -1),
    SurfaceCase.NEUT_SPACE: (1, 1, -1, 1, 1, -1, -1),
    SurfaceCase.NEUT_TIME: (-1, 1, 1, 1, -1, 1, 1),
    SurfaceCase.LOR_SPACE: (-1, 1, -1, -1, 1, 1, -1),
    SurfaceCase.LOR_TIME: (-1, -1, 1, 1, 1, -1, 1),
}


def _reference_connection(data):
    """S, T written entry by entry, as the matrices are displayed."""
    sa1, sb1, s10, sa2, sb2, sm, tL = _REFERENCE_SIGNS[data.case]
    lam_u, lam_v = data.lam_derivatives()
    a1, a2, a3 = data.alpha1, data.alpha2, data.alpha3
    b1, b2, b3 = data.beta1, data.beta2, data.beta3
    m1, m2 = data.mu1, data.mu2
    Le = data.model.L0 * np.exp(2.0 * data.lam)
    S = np.zeros(data.grid.shape + (5, 5))
    T = np.zeros(data.grid.shape + (5, 5))
    S[..., 0, 0] = lam_u; S[..., 0, 1] = lam_v
    S[..., 0, 2] = sa1 * a1; S[..., 0, 3] = sb1 * b1; S[..., 0, 4] = 1.0
    S[..., 1, 0] = s10 * lam_v; S[..., 1, 1] = lam_u
    S[..., 1, 2] = sa2 * a2; S[..., 1, 3] = sb2 * b2
    S[..., 2, 0] = a1; S[..., 2, 1] = a2; S[..., 2, 2] = lam_u; S[..., 2, 3] = sm * m1
    S[..., 3, 0] = b1; S[..., 3, 1] = b2; S[..., 3, 2] = m1; S[..., 3, 3] = lam_u
    S[..., 4, 0] = -Le
    T[..., 0, 0] = lam_v; T[..., 0, 1] = s10 * lam_u
    T[..., 0, 2] = sa1 * a2; T[..., 0, 3] = sb1 * b2
    T[..., 1, 0] = lam_u; T[..., 1, 1] = lam_v
    T[..., 1, 2] = sa2 * a3; T[..., 1, 3] = sb2 * b3; T[..., 1, 4] = 1.0
    T[..., 2, 0] = a2; T[..., 2, 1] = a3; T[..., 2, 2] = lam_v; T[..., 2, 3] = sm * m2
    T[..., 3, 0] = b2; T[..., 3, 1] = b3; T[..., 3, 2] = m2; T[..., 3, 3] = lam_v
    T[..., 4, 1] = tL * Le
    return S, T


# Signature diagonal of the ambient flat model per case and sign of L0,
# written out; ambient_model derives it from COLUMN_SIGNS.
_REFERENCE_AMBIENT = {
    SurfaceCase.RIEM: {
        0: (1, 1, 1, 1), 1: (1, 1, 1, 1, 1), -1: (1, 1, 1, 1, -1)},
    SurfaceCase.NEUT_SPACE: {
        0: (1, 1, -1, -1), 1: (1, 1, 1, -1, -1), -1: (1, 1, -1, -1, -1)},
    SurfaceCase.NEUT_TIME: {
        0: (1, 1, -1, -1), 1: (1, 1, 1, -1, -1), -1: (1, 1, -1, -1, -1)},
    SurfaceCase.LOR_SPACE: {
        0: (1, 1, 1, -1), 1: (1, 1, 1, 1, -1), -1: (1, 1, 1, -1, -1)},
    SurfaceCase.LOR_TIME: {
        0: (1, 1, 1, -1), 1: (1, 1, 1, 1, -1), -1: (1, 1, 1, -1, -1)},
}


def test_ambient_model_table():
    for case, by_sign in _REFERENCE_AMBIENT.items():
        for sign, diag in by_sign.items():
            m = ambient_model(case, 0.3 * sign)
            assert m.ambient == diag and m.ambient_dim == len(diag), (case, sign)


@pytest.mark.parametrize("L0", [2.2e-311, -5e-324, float("nan"), float("inf")])
def test_ambient_model_rejects_L0_without_finite_reciprocal(L0):
    """<F, F> = 1/L0 or E = L0 e^{2 lam} would be inf or NaN: an input
    error, not a frame that fails its gate."""
    with pytest.raises(ConfigError, match="L0"):
        ambient_model(SurfaceCase.RIEM, L0)


def test_ambient_model_accepts_tiny_L0_with_finite_reciprocal():
    assert ambient_model(SurfaceCase.RIEM, 1e-300).L0 == 1e-300


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
def test_connection_table_matches_entrywise_assembly(case, rng):
    """The table product stores exactly the displayed entries, and
    interpolating the field rows gives exactly the interpolated matrices."""
    data = random_smooth_data(case, Grid(0.1, -0.4, 0.05, 0.07, 9, 8), rng)
    S_ref, T_ref = _reference_connection(data)
    S, T = connection_grids(data)
    assert np.array_equal(S, S_ref) and np.array_equal(T, T_ref)
    rows = connection_rows(data)
    S_table, T_table = CONNECTION_TABLES[case]
    assert np.array_equal(apply_table(half_samples(rows, axis=1), S_table),
                          half_samples(S_ref, axis=0))
    assert np.array_equal(apply_table(half_samples(rows, axis=2), T_table),
                          half_samples(T_ref, axis=1))


def _assert_metric_compatible(case, L0, rng):
    """G S + S^t G = G_u and G T + T^t G = G_v at random field values, with
    G = diag(s e^{2 lam}, 1/L0) the Gram matrix of (T1, T2, N1, N2, F), s
    the case's column signs and G_u = diag(2 lam_u s e^{2 lam}, 0); the 4x4
    block when L0 = 0, where F is the position."""
    n = 7
    lam = rng.uniform(-1.0, 1.0, n)
    e2l = np.exp(2.0 * lam)
    values = {name: rng.uniform(-2.0, 2.0, n) for name in ("lam_u", "lam_v") + FIELD_NAMES[1:]}
    rows = stack_rows({**values, "E": L0 * e2l, "one": 1.0})
    assert rows.shape == (len(CONNECTION_ROWS), n)
    signs = np.asarray(COLUMN_SIGNS[case], dtype=float)
    k = 4 if L0 == 0 else 5
    G = np.zeros((n, 5, 5))
    G[:, range(4), range(4)] = signs * e2l[:, None]
    G[:, 4, 4] = 0.0 if L0 == 0 else 1.0 / L0
    for table, jet in zip(CONNECTION_TABLES[case], ("lam_u", "lam_v")):
        M = apply_table(rows, table)[:, :k, :k]
        Gk = G[:, :k, :k]
        dG = np.zeros_like(Gk)
        dG[:, range(4), range(4)] = 2.0 * values[jet][:, None] * signs * e2l[:, None]
        lhs = Gk @ M + np.swapaxes(M, -1, -2) @ Gk
        assert np.max(np.abs(lhs - dG)) < 1e-12, (case, L0, jet)


@pytest.mark.parametrize("case", list(SurfaceCase))
@pytest.mark.parametrize("L0", [-0.7, 0.0, 1.0])
def test_connection_tables_are_metric_compatible(case, L0, rng):
    """A check of the derived tables that reads no literal table."""
    _assert_metric_compatible(case, L0, rng)


@given(st.sampled_from(list(SurfaceCase)),
       st.one_of(st.just(0.0), st.floats(0.01, 10.0), st.floats(-10.0, -0.01)),
       st.integers(0, 2**32 - 1))
def test_connection_tables_are_metric_compatible_on_generated_data(case, L0, seed):
    _assert_metric_compatible(case, L0, np.random.default_rng(seed))


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
    frame = np.zeros((5, 5))
    frame[:4, :4] = np.eye(4)
    frame[4, 4] = 1.0
    res = validate_frame(frame, 0.0, SurfaceCase.RIEM, L0=1.0)
    assert res.shape == (11,)
    assert np.max(np.abs(res)) == 0.0


@pytest.mark.parametrize("case", list(SurfaceCase))
@pytest.mark.parametrize("L0", [0.0, 1.0, -1.0])
def test_canonical_frame_satisfies_constraints(case, L0):
    model = ambient_model(case, L0)
    frame = canonical_frame(model, lam0=0.3)
    res = validate_frame(frame, 0.3, case, L0=L0)
    assert np.max(np.abs(res)) < 1e-12


def test_from_functions_rejects_unknown_keys():
    grid = Grid.centered(1.0, 5)
    model = ambient_model(SurfaceCase.RIEM, 0.0)
    with pytest.raises(ConfigError):
        FundamentalData.from_functions(model, grid, lambda_typo=lambda U, V: U)


def test_from_functions_samples_each_callable_once():
    """Every callable is evaluated once, on the mesh; the exact lam
    derivatives are kept as node arrays and served as they are."""
    grid = Grid.centered(1.0, 9)
    calls = {}

    def counted(name, f):
        def g(U, V):
            calls[name] = calls.get(name, 0) + 1
            return f(U, V)
        return g

    funcs = {"lam": lambda U, V: 0.1 * U * V, "alpha1": lambda U, V: U,
             "lam_u": lambda U, V: 0.1 * V, "lam_v": lambda U, V: 0.1 * U,
             "lam_uu": lambda U, V: 0.0 * U, "lam_vv": lambda U, V: 0.0 * V}
    data = FundamentalData.from_functions(
        ambient_model(SurfaceCase.RIEM, 1.0), grid,
        **{name: counted(name, f) for name, f in funcs.items()})
    assert sorted(data.analytic) == ["lam_u", "lam_uu", "lam_v", "lam_vv"]
    assert all(type(a) is np.ndarray and a.shape == grid.shape
               for a in data.analytic.values())
    for _ in range(2):
        assert data.lam_derivatives()[0] is data.analytic["lam_u"]
        assert data.lam_second_derivatives()[1] is data.analytic["lam_vv"]
        connection_grids(data)
    assert calls == {name: 1 for name in funcs}
    assert np.max(np.abs(data.beta1)) == 0.0


def test_shape_mismatch_rejected():
    grid = Grid.centered(1.0, 5)
    z = np.zeros(grid.shape)
    bad = np.zeros((4, 5))
    with pytest.raises(DimensionMismatch):
        FundamentalData(model=ambient_model(SurfaceCase.RIEM, 0.0), grid=grid,
                        lam=bad, alpha1=z, alpha2=z, alpha3=z,
                        beta1=z, beta2=z, beta3=z, mu1=z, mu2=z)
