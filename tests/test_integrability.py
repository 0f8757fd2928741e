import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    differenced_jets,
    generated_data,
    geodesic_sphere_data,
    random_smooth_data,
    sphere_data,
    without_exact_derivatives,
    zero_data,
)
from spaceform import fundamental, integrability, twistor
from spaceform.cases import SurfaceCase
from spaceform.fundamental import (
    CONNECTION_ROWS,
    CONNECTION_TABLES,
    FIELD_NAMES,
    apply_table,
    stack_rows,
)
from spaceform.grids import Grid
from spaceform.integrability import (
    _LEAD_JETS,
    _d,
    _lax_program,
    equivalence_check,
    field_jets,
    gcr_residuals,
    lax_residual,
)
from spaceform.twistor import _INVARIANT_TERMS, _curvature_program, family_labels


@pytest.mark.parametrize("name", ["gauss", "codazzi3", "ricci"])
def test_gcr_max_abs_keeps_a_nan_of_any_equation(name):
    res = gcr_residuals(zero_data(SurfaceCase.RIEM, Grid.centered(1.0, 7)))
    field = res.as_dict()[name]
    field[3, 2] = np.nan
    assert np.isnan(res.max_abs())
    field[3, 2] = -2.5
    assert res.max_abs() == 2.5


def test_zero_data_solves_everything_exactly():
    data = zero_data(SurfaceCase.RIEM, Grid.centered(1.0, 11))
    res = gcr_residuals(data)
    assert res.max_abs() == 0.0
    assert np.max(lax_residual(data)) == 0.0


def test_sphere_residuals_are_small():
    data = sphere_data(n=41)
    bound = 10 * data.grid.h**2
    assert gcr_residuals(data).max_abs() < bound
    assert np.max(lax_residual(data)) < bound


def test_geodesic_sphere_residuals_are_small():
    data = geodesic_sphere_data(n=41, half_width=0.8)
    bound = 10 * data.grid.h**2
    assert gcr_residuals(data).max_abs() < bound
    assert np.max(lax_residual(data)) < bound


def test_gcr_and_lax_agree_in_order():
    """Small GCR residual implies small Lax residual and conversely."""
    for data in (sphere_data(n=41), geodesic_sphere_data(n=41, half_width=0.8)):
        g = gcr_residuals(data).max_abs()
        l = float(np.max(lax_residual(data)))
        assert l < 50 * max(g, data.grid.h**2)
        assert g < 50 * max(l, data.grid.h**2)


def _gcr_max_field(data, j):
    return np.max(np.abs(np.stack(list(gcr_residuals(data, j).as_dict().values()))), axis=0)


def test_lax_matches_gcr_on_array_sphere():
    """Finite-difference lam derivatives leave no extra corner error."""
    data = without_exact_derivatives(sphere_data(n=101))
    j = field_jets(data)
    assert np.array_equal(lax_residual(data, j), _gcr_max_field(data, j))


def test_residual_fields_have_grid_shape(rng):
    grid = Grid.centered(1.0, 9)
    data = random_smooth_data(SurfaceCase.NEUT_TIME, grid, rng)
    res = gcr_residuals(data)
    d = res.as_dict()
    assert set(d) == {"gauss", "ricci", "codazzi1", "codazzi2", "codazzi3", "codazzi4"}
    for v in d.values():
        assert v.shape == grid.shape
    assert lax_residual(data).shape == grid.shape


@pytest.mark.parametrize("case", list(SurfaceCase))
def test_equivalence_combinations_cancel(case, rng):
    """The invariant-form residuals are exact linear combinations of the
    Gauss/Codazzi/Ricci residuals, even on non-integrable data."""
    grid = Grid.centered(1.0, 10)
    for _ in range(5):
        data = random_smooth_data(case, grid, rng)
        combos = equivalence_check(data)
        assert combos
        for label, comb in combos.items():
            assert np.max(np.abs(comb)) < 1e-12, label


@given(generated_data())
def test_equivalence_combinations_cancel_on_generated_data(data):
    for label, comb in equivalence_check(data).items():
        assert np.max(np.abs(comb)) <= 1e-10, label


@given(generated_data())
def test_lax_residual_max_equals_gcr_max_on_generated_data(data):
    """Every entry of the zero-curvature residual is one of the scalar
    residuals (up to sign) or zero, evaluated by the same program on the
    same jets, and every scalar residual is some entry."""
    j = field_jets(data)
    assert np.array_equal(lax_residual(data, j), _gcr_max_field(data, j))


def _matrix_lax(data, j):
    """Reference: the connection tables applied to the stacked jets and to
    the derivatives of every row (``differenced_jets``) as (nu, nv, 5, 5)
    stacks, with the commutator as batched matmuls.  Returns the residual
    and the largest absolute row value."""
    S_table, T_table = CONNECTION_TABLES[data.case]
    rows = stack_rows({**j, "one": 1.0})
    d = differenced_jets(data, j)
    rows_v, rows_u = (stack_rows({**d[axis], "one": 0.0,
                                  "E": 2.0 * j["E"] * j["lam_" + axis]}) for axis in "vu")
    S, T = apply_table(rows, S_table), apply_table(rows, T_table)
    res = apply_table(rows_v, S_table) - apply_table(rows_u, T_table)
    res -= S @ T
    res += T @ S
    scale = max(float(np.max(np.abs(r))) for r in (rows, rows_v, rows_u))
    return np.max(np.abs(res), axis=(-2, -1)), scale


@given(generated_data())
def test_lax_program_matches_matrix_reference(data):
    j = field_jets(data)
    ref, scale = _matrix_lax(data, j)
    got = lax_residual(data, j)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, scale) ** 2


def test_lax_residual_allocates_no_matrix_stack():
    """The program works on (nu, nv) buffers: its peak allocation stays
    below the size of one (nu, nv, 5, 5) stack of S, T or the residual."""
    data = without_exact_derivatives(sphere_data(n=101))
    j = field_jets(data)
    tracemalloc.start()
    try:
        lax_residual(data, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < data.grid.nu * data.grid.nv * 25 * 8


@pytest.mark.parametrize("case", list(SurfaceCase))
def test_equivalence_check_peak_stays_below_65_grid_arrays(case, rng):
    """Each family builds only the mixed jet it reads, so the check, jets
    included, never holds both derivative images of the invariants."""
    data = random_smooth_data(case, Grid.centered(1.0, 101), rng)
    tracemalloc.start()
    try:
        equivalence_check(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 65 * data.grid.nu * data.grid.nv * 8


@pytest.mark.parametrize("case", list(SurfaceCase))
def test_equivalence_check_peak_stays_below_25_grid_arrays(case, rng):
    """The families and their combinations run a block of u rows at a
    time: at 401^2 the peak, outputs included, stays below 25 grid arrays
    (the tighter bound of ``_PEAK_GRID_ARRAYS`` holds since the jets are
    built per block too)."""
    data = random_smooth_data(case, Grid.centered(1.0, 401), rng)
    tracemalloc.start()
    try:
        equivalence_check(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * data.grid.nu * data.grid.nv * 8


# Peak allocation bounds, in 401^2 grid arrays, of each residual called
# without jets, so that each builds its jets one block of u rows at a time:
# measured 9.2, 4.3, 11.5 / 12.8 and 23.6 / 23.7 (Riemannian / Lorentzian
# space-like), against 22, 18, 23.0 / 23.9 and 34.3 / 34.5 with whole-grid jets.
_PEAK_GRID_ARRAYS = {
    "gcr_residuals": (gcr_residuals, 12),
    "lax_residual": (lax_residual, 8),
    "equivalence_check": (equivalence_check, 16),
    "curvature_residual": (twistor.curvature_residual, 28),
}


@pytest.mark.parametrize("case", [SurfaceCase.RIEM, SurfaceCase.LOR_SPACE])
@pytest.mark.parametrize("name", sorted(_PEAK_GRID_ARRAYS))
def test_residual_peaks_without_jets_stay_below_their_block_bounds(name, case, rng):
    residual, bound = _PEAK_GRID_ARRAYS[name]
    data = random_smooth_data(case, Grid.centered(1.0, 401), rng)
    tracemalloc.start()
    try:
        residual(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * data.grid.nu * data.grid.nv * 8


def _blocked_residuals(data, points, jets=None):
    """Every residual of ``data``, run in blocks of at most ``points`` grid
    points on ``jets`` when given (curvature_residual builds its own)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrability, "_RESIDUAL_BLOCK", points)
        out = {"gcr_" + k: v for k, v in gcr_residuals(data, jets).as_dict().items()}
        out["lax"] = lax_residual(data, jets)
        out.update(equivalence_check(data, jets))
        out.update({"curvature" + label: R
                    for label, R in twistor.curvature_residual(data).items()})
        return out


def _assert_blocks_change_no_bit(data, block_rows):
    nu, nv = data.grid.shape
    whole = _blocked_residuals(data, nu * nv)
    for jets in (None, field_jets(data)):
        blocked = _blocked_residuals(data, block_rows * nv, jets)
        assert list(blocked) == list(whole)
        for name, ref in whole.items():
            got = blocked[name]
            assert (got.shape, got.dtype) == (ref.shape, ref.dtype), name
            for part in (np.real, np.imag):
                assert np.array_equal(part(got), part(ref), equal_nan=True), name


@pytest.mark.parametrize("case", list(SurfaceCase))
@pytest.mark.parametrize("block_rows", [1, 5])
@pytest.mark.parametrize("with_nan", [False, True])
def test_residual_blocks_change_no_bit(case, block_rows, with_nan, rng):
    """One-row blocks and 5-row blocks with a ragged last one (23 rows),
    with the jets passed in or built per block, give the whole-grid
    results bit for bit, NaN positions included."""
    data = random_smooth_data(case, Grid(-1.0, -0.8, 0.09, 0.1, 23, 17), rng)
    if with_nan:
        data.alpha2[6, 4] = np.nan   # the stencils spread it along u
    _assert_blocks_change_no_bit(data, block_rows)


@given(st.sampled_from(list(SurfaceCase)), st.integers(5, 30), st.integers(5, 30),
       st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_residual_blocks_change_no_bit_on_generated_grids(case, nu, nv, block_rows, seed):
    grid = Grid(-1.0, -1.0, 2.0 / (nu - 1), 2.0 / (nv - 1), nu, nv)
    data = random_smooth_data(case, grid, np.random.default_rng(seed))
    _assert_blocks_change_no_bit(data, block_rows)


@given(st.integers(3, 30), st.integers(0, 2**32 - 1), st.data())
def test_block_jets_are_rows_of_the_whole_grid_jets(nu, seed, choice):
    """field_jets of a block of u rows is those rows of the whole grid's,
    bit for bit, exact lam derivatives or not, NaN included."""
    start = choice.draw(st.integers(0, nu - 1))
    stop = choice.draw(st.integers(start + 1, nu))
    grid = Grid(-1.0, -0.5, 2.0 / (nu - 1), 0.25, nu, 5)
    data = random_smooth_data(SurfaceCase.NEUT_TIME, grid, np.random.default_rng(seed))
    data.beta1[seed % nu, 2] = np.nan
    if seed % 2:
        data.analytic = {n: np.random.default_rng(seed).standard_normal(grid.shape)
                         for n in ("lam_u", "lam_v", "lam_uu", "lam_vv")}
    whole = field_jets(data)
    block = field_jets(data, slice(start, stop))
    assert list(block) == list(whole)
    for name, jet in whole.items():
        assert np.array_equal(block[name], jet[start:stop], equal_nan=True), name


def test_field_jets_makes_fourteen_stencil_calls(monkeypatch, rng):
    """Two first and two second differences of lam and the ten first
    differences of the mixed jet's shape fields, not all sixteen, on the
    whole grid and on a block of u rows alike."""
    calls = []
    for module in (fundamental, integrability):
        for name in ("d_du", "d_dv", "d2_du", "d2_dv", "d_du_range", "d2_du_range"):
            if hasattr(module, name):
                stencil = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _s=stencil, **k:
                                    calls.append(_s) or _s(*a, **k))
    data = random_smooth_data(SurfaceCase.RIEM, Grid.centered(1.0, 9), rng)
    field_jets(data)
    assert len(calls) == 14
    field_jets(data, slice(2, 5))
    assert len(calls) == 28


def _jet_names(program):
    """The jet names the entries of a program read."""
    return {n for groups in program for a, bs in groups for n in (a, *(b for b, _ in bs))}


@pytest.mark.parametrize("case", list(SurfaceCase))
def test_field_jets_build_only_the_jets_the_residuals_read(case, rng):
    """The derivative jets are those the Lax program reads and the terms
    of the invariant derivatives the curvature programs read ('X+_u' reads
    alpha2_u and beta3_u; phi along u reads lam_uu)."""
    built = set(field_jets(random_smooth_data(case, Grid.centered(1.0, 7), rng)))
    lax = _jet_names(groups for _, groups in _lax_program(case).values())
    mixed = set()
    for label in family_labels(case):
        for base, _, axis in (n.partition("_") for n in
                              _jet_names(_curvature_program(case, label).values()) if "_" in n):
            mixed |= {t + axis if t == "lam_" + axis else t + "_" + axis
                      for t in _INVARIANT_TERMS[base.rstrip("+-")]}
    values = set(FIELD_NAMES) | {"one", "E"}
    assert built - values == (lax | mixed) - values


def test_lax_program_reads_table_entries_only():
    """Every term of the derived program comes from a nonzero table entry:
    a derivative of an S entry (along v) or a T entry (along u) at the
    same place, or a product S_ik T_kj or T_ik S_kj."""
    case = SurfaceCase.NEUT_TIME
    S_table, T_table = CONNECTION_TABLES[case]

    def rows(table, i, j):
        return {CONNECTION_ROWS[r] for r in np.flatnonzero(table[:, 5 * i + j])}

    program = _lax_program(case)
    assert list(program) == list(_LEAD_JETS)
    for (i, j), groups in program.values():
        allowed = {frozenset(_d(r, axis)[1])
                   for table, axis in ((S_table, "v"), (T_table, "u"))
                   for r in rows(table, i, j) - {"one"}}
        allowed |= {frozenset((a, b)) for k in range(5)
                    for X, Y in ((S_table, T_table), (T_table, S_table))
                    for a in rows(X, i, k) for b in rows(Y, k, j)}
        for a, bs in groups:
            for b, c in bs:
                assert c != 0
                assert frozenset((a, b)) in allowed, (i, j, a, b)


@pytest.fixture
def fresh_lax_programs():
    _lax_program.cache_clear()
    yield
    _lax_program.cache_clear()


def _doubled(S, T):
    return 2 * S, 2 * T


def _without_mu1_in_S(S, T):
    S = S.copy()
    S[:, [5 * 2 + 3, 5 * 3 + 2]] = 0.0
    return S, T


@pytest.mark.parametrize("tables, message", [
    (_doubled, r"gauss \(lam_uu\) is not one entry .* \[\(\(0, 1\), 2\.0\)\]"),
    (_without_mu1_in_S, r"ricci \(mu1_v\) is not one entry .* \[\]"),
])
def test_lax_program_rejects_tables_that_break_the_equations(
        monkeypatch, fresh_lax_programs, tables, message):
    """A lead coefficient other than +-1 or an equation with no entry
    fails when the program is derived, not in a residual."""
    case = SurfaceCase.RIEM
    monkeypatch.setitem(CONNECTION_TABLES, case, tables(*CONNECTION_TABLES[case]))
    with pytest.raises(ValueError, match=message):
        _lax_program(case)


def test_lax_program_rejects_an_entry_without_equation(monkeypatch, fresh_lax_programs):
    monkeypatch.delitem(_LEAD_JETS, "ricci")
    with pytest.raises(ValueError, match=r"Lax entries \[\(2, 3\)\] match no equation"):
        _lax_program(SurfaceCase.RIEM)


def test_nonsolution_data_has_large_residuals(rng):
    data = random_smooth_data(SurfaceCase.RIEM, Grid.centered(1.0, 21), rng)
    assert gcr_residuals(data).max_abs() > 1e-3
