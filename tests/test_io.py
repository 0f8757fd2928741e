import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spaceform import cli
from spaceform import io as io_module
from spaceform.errors import ConfigError, DimensionMismatch
from spaceform.grids import Grid
from spaceform.io import (
    read_field_csv,
    read_frames_csv,
    write_field_csv,
    write_frames_csv,
    write_obj_mesh,
    write_residual_report,
)


def test_field_csv_round_trip_real(tmp_path):
    grid = Grid.centered(0.7, 9)
    U, V = grid.mesh()
    vals = np.sin(U) * np.cos(2 * V)
    path = tmp_path / "lam.csv"
    write_field_csv(path, grid, "lam", vals)
    g2, name, back = read_field_csv(path)
    assert name == "lam"
    assert g2.shape == grid.shape
    assert g2.h == pytest.approx(grid.h)
    assert np.array_equal(back, vals)   # %.16e is lossless for float64


def test_field_csv_round_trip_complex(tmp_path):
    grid = Grid.centered(0.5, 5)
    U, V = grid.mesh()
    vals = U + 1j * V
    path = tmp_path / "W.csv"
    write_field_csv(path, grid, "W", vals)
    header = path.read_text().splitlines()[0]
    assert header == "u,v,W_re,W_im"
    _, name, back = read_field_csv(path)
    assert name == "W"
    assert np.array_equal(back, vals)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _uniform_grid_field(draw):
    nu, nv = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    origin = st.floats(-10.0, 10.0)
    step = st.floats(1e-3, 1.0)
    grid = Grid(draw(origin), draw(origin), draw(step), draw(step), nu, nv)
    vals = draw(arrays(np.float64, grid.shape, elements=_finite))
    if draw(st.booleans()):
        vals = vals + 1j * draw(arrays(np.float64, grid.shape, elements=_finite))
    return grid, vals


@given(_uniform_grid_field())
def test_field_csv_round_trip_on_uniform_grids(tmp_path_factory, grid_vals):
    grid, vals = grid_vals
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    write_field_csv(path, grid, "f", vals)
    back_grid, name, back = read_field_csv(path)
    assert name == "f"
    assert back_grid.shape == grid.shape
    assert np.array_equal(back, vals)
    for attr in ("u0", "v0", "du", "dv"):
        assert getattr(back_grid, attr) == pytest.approx(getattr(grid, attr), rel=1e-9), attr


def _chart_grids():
    """Centred grids of every size from 3 to 101, and [-1, 1]^2 charts
    shifted by up to 0.01, as the benchmark draws them."""
    rng = np.random.default_rng(5)
    for n in range(3, 102):
        yield Grid.centered(1.0, n)
    for n in (41, 61, 101):
        for _ in range(5):
            su, sv = rng.uniform(-0.01, 0.01, size=2)
            h = 2.0 / (n - 1)
            yield Grid(-1.0 + float(su), -1.0 + float(sv), h, h, n, n)


def test_field_csv_gives_back_the_grid_it_was_written_on(tmp_path):
    path = tmp_path / "f.csv"
    for grid in _chart_grids():
        write_field_csv(path, grid, "f", np.zeros(grid.shape))
        assert read_field_csv(path)[0] == grid


@pytest.mark.parametrize("n", [401, 801])
def test_large_grids_come_back_from_their_columns(n):
    """The reader's values are bitwise the written ones, so the mesh
    columns stand in for a file of the sizes the benchmark writes."""
    rng = np.random.default_rng(n)
    su, sv = rng.uniform(-0.01, 0.01, size=2)
    h = 2.0 / (n - 1)
    for grid in (Grid.centered(0.5, n), Grid(-1.0 + su, -1.0 + sv, h, h, n, n)):
        U, V = grid.mesh()
        assert io_module._grid_from_columns(U.ravel(), V.ravel(), "f.csv") == grid


def test_field_csv_bytes_deterministic(tmp_path):
    grid = Grid.centered(0.3, 7)
    vals = np.full(grid.shape, np.pi)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_field_csv(a, grid, "x", vals)
    write_field_csv(b, grid, "x", vals)
    assert a.read_bytes() == b.read_bytes()


def test_field_csv_shape_mismatch(tmp_path):
    grid = Grid.centered(0.3, 7)
    with pytest.raises(DimensionMismatch):
        write_field_csv(tmp_path / "x.csv", grid, "x", np.zeros((3, 3)))


def test_read_field_csv_error_paths(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,z\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_field_csv(bad)
    bad.write_text("u,v,f\n0,0,hello\n")
    with pytest.raises(ConfigError):
        read_field_csv(bad)
    # rectangular but too small
    bad.write_text("u,v,f\n" + "\n".join(
        f"{u},{v},0.0" for u in (0.0, 1.0) for v in (0.0, 1.0)) + "\n")
    with pytest.raises(ConfigError):
        read_field_csv(bad)
    # non-uniform spacing
    bad.write_text("u,v,f\n" + "\n".join(
        f"{u},{v},0.0" for u in (0.0, 1.0, 3.0) for v in (0.0, 1.0, 2.0)) + "\n")
    with pytest.raises(ConfigError):
        read_field_csv(bad)
    # column-major order (u fastest) is rejected
    bad.write_text("u,v,f\n" + "\n".join(
        f"{u},{v},0.0" for v in (0.0, 0.5, 1.0) for u in (0.0, 0.5, 1.0)) + "\n")
    with pytest.raises(ConfigError):
        read_field_csv(bad)


def test_frames_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    grid = Grid.centered(0.4, 5)
    for n in (4, 5):
        frames = rng.standard_normal(grid.shape + (n, 5))
        path = tmp_path / f"frames{n}.csv"
        write_frames_csv(path, grid, frames)
        g2, back = read_frames_csv(path)
        assert g2.shape == grid.shape
        assert np.array_equal(back, frames)


def test_frames_csv_errors(tmp_path):
    grid = Grid.centered(0.4, 5)
    with pytest.raises(DimensionMismatch):
        write_frames_csv(tmp_path / "f.csv", grid, np.zeros(grid.shape + (4, 4)))
    bad = tmp_path / "bad.csv"
    bad.write_text("u,v,a,b,c\n")
    with pytest.raises(ConfigError):
        read_frames_csv(bad)


@pytest.mark.parametrize("tail", [(4,), (3, 5), (6, 5), (4, 5, 1)])
def test_write_frames_csv_rejects_what_the_reader_refuses(tmp_path, tail):
    # (nu, nv, 4) has no frame-vector axis; n = 3 or 6 frames would be
    # written and then refused by read_frames_csv
    grid = Grid.centered(0.4, 5)
    with pytest.raises(DimensionMismatch):
        write_frames_csv(tmp_path / "f.csv", grid, np.zeros(grid.shape + tail))
    assert not (tmp_path / "f.csv").exists()


def test_residual_report(tmp_path):
    grid = Grid.centered(0.5, 5)
    U, V = grid.mesh()
    res = {"gauss": U * 0.0, "ricci": U}
    summary = write_residual_report(tmp_path, "check", grid, res)
    assert set(summary) == {"gauss", "ricci"}
    assert summary["gauss"]["max"] == 0.0
    assert summary["ricci"]["max"] == pytest.approx(0.5)
    assert summary["ricci"]["argmax"][0] in (0, grid.nu - 1)
    on_disk = json.loads((tmp_path / "check_summary.json").read_text())
    assert on_disk == summary
    g2, name, back = read_field_csv(tmp_path / "check_ricci.csv")
    assert name == "ricci" and np.array_equal(back, U)


def test_obj_mesh_layout(tmp_path):
    pts = np.zeros((2, 3, 3))
    pts[..., 0] = np.arange(6).reshape(2, 3)
    path = tmp_path / "m.obj"
    write_obj_mesh(path, pts)
    lines = path.read_text().splitlines()
    assert len(lines) == 6 + 2          # 6 vertices, 1x2 quads
    assert lines[0].startswith("v ")
    assert lines[6] == "f 1 2 5 4"
    assert lines[7] == "f 2 3 6 5"
    with pytest.raises(DimensionMismatch):
        write_obj_mesh(path, np.zeros((2, 3, 4)))


# ---------------------------------------------------------------------------
# golden bytes: the writers against a per-cell reference


def _ref_fmt(x):
    return "%.16e" % float(x)


def _ref_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _ref_field_csv(path, grid, name, values):
    values = np.asarray(values)
    U, V = grid.mesh()
    is_complex = np.iscomplexobj(values)
    lines = [f"u,v,{name}_re,{name}_im" if is_complex else f"u,v,{name}"]
    for i in range(grid.nu):
        for j in range(grid.nv):
            cells = [_ref_fmt(U[i, j]), _ref_fmt(V[i, j])]
            if is_complex:
                cells += [_ref_fmt(values[i, j].real), _ref_fmt(values[i, j].imag)]
            else:
                cells.append(_ref_fmt(values[i, j]))
            lines.append(",".join(cells))
    _ref_lines(path, lines)


def _ref_frames_csv(path, grid, frames):
    n = frames.shape[2]
    U, V = grid.mesh()
    lines = ["u,v," + ",".join(f"{c}_{k}" for c in ("T1", "T2", "N1", "N2", "F")
                               for k in range(n))]
    for i in range(grid.nu):
        for j in range(grid.nv):
            cells = [_ref_fmt(U[i, j]), _ref_fmt(V[i, j])]
            cells += [_ref_fmt(frames[i, j, k, c]) for c in range(5) for k in range(n)]
            lines.append(",".join(cells))
    _ref_lines(path, lines)


def _ref_obj_mesh(path, points):
    nu, nv = points.shape[:2]
    lines = [f"v {_ref_fmt(x)} {_ref_fmt(y)} {_ref_fmt(z)}"
             for x, y, z in points.reshape(-1, 3)]
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            lines.append(f"f {a} {a + 1} {a + nv + 1} {a + nv}")
    _ref_lines(path, lines)


_EDGE_VALUES = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e-300, 1.0 / 3.0]


def _golden_values(rng, shape):
    vals = rng.standard_normal(shape) * np.exp(rng.uniform(-30, 30, shape))
    flat = vals.reshape(-1)
    flat[:len(_EDGE_VALUES)] = _EDGE_VALUES
    return vals


def _same_bytes(tmp_path, write, ref, *args):
    got, want = tmp_path / "got", tmp_path / "want"
    write(got, *args)
    ref(want, *args)
    assert got.read_bytes() == want.read_bytes()


@pytest.fixture
def golden_grid():
    # non-square, nonzero origin, steps that are not exact binary fractions
    return Grid(-0.37, 1.25, 0.1, 0.035, 7, 11)


def test_field_csv_golden_bytes(tmp_path, golden_grid):
    rng = np.random.default_rng(11)
    real = _golden_values(rng, golden_grid.shape)
    imag = _golden_values(rng, golden_grid.shape)[::-1]
    cplx = real.astype(complex)
    cplx.imag = imag
    ints = rng.integers(-10**6, 10**6, golden_grid.shape)
    for vals in (real, cplx, ints):
        _same_bytes(tmp_path, write_field_csv, _ref_field_csv, golden_grid, "f", vals)


@pytest.mark.parametrize("n", [4, 5])
def test_frames_csv_golden_bytes(tmp_path, golden_grid, n):
    frames = _golden_values(np.random.default_rng(n), golden_grid.shape + (n, 5))
    _same_bytes(tmp_path, write_frames_csv, _ref_frames_csv, golden_grid, frames)


def test_frames_csv_golden_bytes_across_row_blocks(tmp_path, golden_grid, monkeypatch):
    # 7 u rows of 11 points of 27 values in blocks of 2 rows: a partial last block
    monkeypatch.setattr(io_module, "_BLOCK_VALUES", 2 * 11 * 27)
    frames = _golden_values(np.random.default_rng(6), golden_grid.shape + (5, 5))
    _same_bytes(tmp_path, write_frames_csv, _ref_frames_csv, golden_grid, frames)


def _percent_calls(monkeypatch):
    """The list of the values the io module formats with % from now on."""
    calls = []

    class Recorded(str):
        def __mod__(self, v):
            calls.append(v)
            return str.__mod__(self, v)

    monkeypatch.setattr(io_module, "FLOAT_FMT", Recorded(io_module.FLOAT_FMT))
    return calls


def _block_rows(blocks):
    """The u rows of each block the writer assembled: the leading axis of
    the values' cells, the last part of each recorded :func:`_lines` call."""
    return [args[0][-1].shape[0] for args, _ in blocks]


def _recorded(monkeypatch, name):
    """The list that records the arguments and result of each call of the
    io module's function ``name`` from now on."""
    calls = []
    function = getattr(io_module, name)

    def recorded(*args):
        calls.append((args, function(*args)))
        return calls[-1][1]

    monkeypatch.setattr(io_module, name, recorded)
    return calls


def test_grid_csv_golden_bytes_with_rows_wider_than_a_block(tmp_path, golden_grid, monkeypatch):
    # a u row of 11 points holds 33 values, more than a block: one row a block
    monkeypatch.setattr(io_module, "_BLOCK_VALUES", 20)
    blocks = _recorded(monkeypatch, "_lines")
    percent = _percent_calls(monkeypatch)
    vals = _golden_values(np.random.default_rng(14), golden_grid.shape)
    vals.flat[:len(_EDGE_VALUES)] = 1.0 / 7.0       # every value formatted by the kernel
    _same_bytes(tmp_path, write_field_csv, _ref_field_csv, golden_grid, "f", vals)
    assert _block_rows(blocks) == [1] * 7
    assert percent == []


@pytest.mark.parametrize("kind", ["complex", 4, 5])
def test_grid_csv_golden_bytes_across_ragged_row_blocks(tmp_path, golden_grid, monkeypatch, kind):
    # 7 u rows in blocks of 3 rows, for complex fields and n = 4, 5 frames
    rng = np.random.default_rng(15)
    if kind == "complex":
        monkeypatch.setattr(io_module, "_BLOCK_VALUES", 3 * 11 * 4)
        vals = _golden_values(rng, golden_grid.shape).astype(complex)
        vals.imag = _golden_values(rng, golden_grid.shape)
        args = (write_field_csv, _ref_field_csv, golden_grid, "f", vals)
    else:
        monkeypatch.setattr(io_module, "_BLOCK_VALUES", 3 * 11 * (2 + 5 * kind))
        frames = _golden_values(rng, golden_grid.shape + (kind, 5))
        args = (write_frames_csv, _ref_frames_csv, golden_grid, frames)
    blocks = _recorded(monkeypatch, "_lines")
    _same_bytes(tmp_path, *args)
    assert _block_rows(blocks) == [3, 3, 1]


def test_grid_csv_golden_bytes_for_grids_written_alternately(tmp_path, golden_grid):
    # the coordinate cells of each grid come from the cache on its second file;
    # the kernel cannot prove u0 = 1e-300, which its cells hold as %'s bytes
    io_module._grid_cells.cache_clear()
    declined = Grid(1e-300, -2.0, 0.5, 0.25, 4, 3)
    grids = [golden_grid, Grid(3.0, -1e5, 2.5e-3, 7.0, 5, 9), declined]
    rng = np.random.default_rng(16)
    for grid in grids + grids[::-1] + grids:
        vals = rng.standard_normal(grid.shape) * 10.0 ** rng.integers(-200, 200, grid.shape)
        _same_bytes(tmp_path, write_field_csv, _ref_field_csv, grid, "f", vals)
    assert io_module._grid_cells.cache_info().misses == len(grids)
    for cells, coords in zip(io_module._grid_cells(declined), (declined.u, declined.v)):
        want = "".join("%.16e\n" % x for x in coords).encode()
        assert io_module._lines([cells[:, None]], ",") == want


def test_residual_report_formats_the_coordinates_once(tmp_path, monkeypatch):
    grid = Grid(-0.37, 1.25, 0.1, 0.035, 7, 11)
    U, V = grid.mesh()
    residuals = {f"r{k:02d}": np.sin(k * U) * V for k in range(13)}
    io_module._grid_cells.cache_clear()
    cells = _recorded(monkeypatch, "_cells")
    write_residual_report(tmp_path, "check", grid, residuals)
    # one kernel call for the nu + nv coordinates, then one a field
    assert sorted(len(args[0]) for args, _ in cells) == [7 + 11] + [7 * 11] * 13
    for name, vals in residuals.items():
        want = tmp_path / "want.csv"
        _ref_field_csv(want, grid, name, vals)
        assert (tmp_path / f"check_{name}.csv").read_bytes() == want.read_bytes()
    u_cells, v_cells = io_module._grid_cells(grid)
    assert u_cells.shape == (7, 13) and v_cells.shape == (11, 13)
    for c in (u_cells, v_cells):
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 0] = 0


_grid_strategy = st.builds(
    Grid,
    st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-300, 1e249])),
    st.floats(-1e3, 1e3),
    st.floats(1e-6, 1e3),
    st.sampled_from([1e-3, 0.1, 0.035, 1.0, 1e5]),
    st.integers(3, 9),
    st.integers(3, 9))
_field_value = st.one_of(st.floats(-1e6, 1e6), st.floats(width=64),
                         st.sampled_from([1e-14, 4e-14, 1e98, 1e-243, 1e250, -0.0]))


@given(_grid_strategy, st.sampled_from(["real", "complex", 4, 5, "obj"]), st.integers(1, 600),
       st.data())
def test_grid_csv_writers_match_percent_format(tmp_path_factory, grid, kind, block, data):
    shape = grid.shape + {4: (4, 5), 5: (5, 5), "obj": (3,)}.get(kind, ())
    vals = data.draw(arrays(np.float64, shape, elements=_field_value))
    if kind == "complex":
        vals = vals.astype(complex)
        vals.imag = data.draw(arrays(np.float64, shape, elements=_field_value))
    tmp = tmp_path_factory.mktemp("csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_module, "_BLOCK_VALUES", block)
        if kind in (4, 5):
            _same_bytes(tmp, write_frames_csv, _ref_frames_csv, grid, vals)
        elif kind == "obj":
            _same_bytes(tmp, write_obj_mesh, _ref_obj_mesh, vals)
        else:
            _same_bytes(tmp, write_field_csv, _ref_field_csv, grid, "f", vals)


def test_obj_mesh_golden_bytes(tmp_path, golden_grid):
    points = _golden_values(np.random.default_rng(3), golden_grid.shape + (3,))
    _same_bytes(tmp_path, write_obj_mesh, _ref_obj_mesh, points)


def test_obj_mesh_vertex_lines_golden_bytes_across_ragged_row_blocks(tmp_path, golden_grid,
                                                                     monkeypatch):
    # 7 u rows of 11 points of 3 values in blocks of 3 rows; NaN, +-inf and
    # 1e-300 in the first and last blocks go through %
    monkeypatch.setattr(io_module, "_BLOCK_VALUES", 3 * 11 * 3)
    blocks = _recorded(monkeypatch, "_lines")
    percent = _percent_calls(monkeypatch)
    points = np.random.default_rng(17).standard_normal(golden_grid.shape + (3,))
    odd = [np.nan, np.inf, -np.inf, 1e-300]
    points[0, 2] = odd[:3]
    points[6, 10, 1] = odd[3]
    _same_bytes(tmp_path, write_obj_mesh, _ref_obj_mesh, points)
    assert _block_rows(blocks) == [3, 3, 1]
    assert np.array_equal(percent, odd, equal_nan=True)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 5), (2, 2), (101, 99)])
def test_obj_mesh_face_lines_golden_bytes(tmp_path, monkeypatch, shape):
    # face indices of 1 to 5 digits, in blocks of 25 face lines
    monkeypatch.setattr(io_module, "_BLOCK_VALUES", 100)
    points = np.arange(np.prod(shape) * 3, dtype=float).reshape(shape + (3,))
    if points.size:
        _same_bytes(tmp_path, write_obj_mesh, _ref_obj_mesh, points)
    else:
        write_obj_mesh(tmp_path / "m.obj", points)
        assert (tmp_path / "m.obj").read_bytes() == b""


def test_field_csv_golden_bytes_when_the_grid_falls_back(tmp_path):
    # u0 = 1e-300 is outside the kernel's range: that u cell holds %'s bytes
    grid = Grid(1e-300, -2.0, 0.5, 0.25, 4, 3)
    vals = np.random.default_rng(13).standard_normal(grid.shape)
    _same_bytes(tmp_path, write_field_csv, _ref_field_csv, grid, "f", vals)


def test_residual_report_keeps_imaginary_part(tmp_path):
    grid = Grid.centered(0.5, 5)
    U, _ = grid.mesh()
    summary = write_residual_report(tmp_path, "check", grid, {"equiv": 1j * U})
    assert summary["equiv"]["max"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# the vectorised FLOAT_FMT kernel against Python's %


def _ref_block(m, sep=",", lead=""):
    return "".join(lead + sep.join("%.16e" % x for x in row) + "\n"
                   for row in m.tolist()).encode()


def _percent_formatted(m, sep=",", lead=""):
    """Assert that the lines :func:`_cells` and :func:`_lines` make of the
    rows of ``m`` are %'s bytes; return the values formatted with %."""
    m = np.asarray(m, dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        percent = _percent_calls(mp)
        got = io_module._lines([io_module._cells(m.ravel()).reshape(m.shape + (13,))], sep, lead)
    assert got == _ref_block(m, sep, lead)
    return percent


_any_float = st.one_of(
    st.floats(width=64),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))))


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=_any_float),
       st.sampled_from([(",", ""), (" ", "v ")]))
@example(np.array([[5e-324, -0.0, 0.0, np.nan, -np.inf]]), (",", ""))
def test_format_block_matches_percent_format(m, sep_lead):
    _percent_formatted(m, *sep_lead)


def test_format_block_edge_values():
    # exact ties at the 17th digit, rounded half to even
    ties = [2.0**50 + 0.25, -(2.0**50 + 0.75), 100000000000000.125, 300000000000000.375]
    for t in ties:
        digits = Decimal(t).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, t
    assert not _percent_formatted(np.array([ties]))
    assert not _percent_formatted(np.array([[0.0, -0.0, 1.0, -1.0, 1e249, 1e-249, -1e249]]))
    for p in range(-249, 250):
        x = 10.0 ** p
        near = [x, float(f"1e{p}"), np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
        assert not _percent_formatted(np.array([near, [-y for y in near]])), p
    # the values the kernel cannot prove are formatted with %, and only they
    for x in (1e251, 1e-251, 5e-324, np.nan, np.inf, -np.inf):
        assert np.array_equal(_percent_formatted(np.array([[1.0, x]])), [x], equal_nan=True)
    # a tie against an inexact power of ten (3 / 2**24 = 1.78813934326171875e-07)
    # cannot be proven
    assert _percent_formatted(np.array([[3.0 / 2**24]])) == [3.0 / 2**24]
    # also when another value of the block needs its exponent guess fixed
    assert _percent_formatted(np.array([[3.0 / 2**24, 1e-243]])) == [3.0 / 2**24]
    # the exponent table around |E| = 9, 10, 99, 100 and 249, where the
    # hundreds word switches between NUL and a digit
    for e in (9, 10, 99, 100, 249):
        for s in (1, -1):
            x = 10.0 ** (s * e)
            near = [x, 1.5 * x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), 9.75 * x]
            assert not _percent_formatted(np.array([near, [-y for y in near]])), s * e
    # four-digit groups that carry: 4e-14 is 3.99999999999999999|92e-14 and
    # 1.4147e-06 is 1.4146999999999999|9e-06 to 18 digits
    assert not _percent_formatted(np.array([[4e-14, -4e-14, 1.4147e-06, 1.091e-15]]))
    # D == 10**17: these doubles lie below their power of ten, so the first
    # exponent guess is one too small and the 17 digits round up to 10**17
    for p in (-243, -14, 98, 220):
        x = float(f"1e{p}")
        assert Fraction(x) < Fraction(10) ** p
        assert not _percent_formatted(np.array([[x, -x]])), p


def test_format_block_formats_ordinary_data():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((400, 7)) * np.exp(rng.uniform(-500, 500, (400, 7)))
    for sep, lead in ((",", ""), (" ", "v ")):
        assert not _percent_formatted(m, sep, lead)


def test_field_csv_integer_dtypes(tmp_path, golden_grid):
    rng = np.random.default_rng(8)
    for dtype in (np.int8, np.int32, np.int64, np.uint64, bool):
        vals = rng.integers(0, 2, golden_grid.shape) if dtype is bool else \
            rng.integers(np.iinfo(dtype).min // 2, np.iinfo(dtype).max // 2, golden_grid.shape)
        vals = vals.astype(dtype)
        _same_bytes(tmp_path, write_field_csv, _ref_field_csv, golden_grid, "f", vals)


def test_field_csv_falls_back_in_one_block_only(tmp_path, golden_grid, monkeypatch):
    # 7 u rows of 11 points of 3 values in blocks of 2 rows; one NaN in block
    # 3: it alone goes through %, every other value of its block through the kernel
    monkeypatch.setattr(io_module, "_BLOCK_VALUES", 90)
    blocks = _recorded(monkeypatch, "_lines")
    percent = _percent_calls(monkeypatch)
    vals = np.random.default_rng(9).standard_normal(golden_grid.shape)
    vals.flat[45] = np.nan
    _same_bytes(tmp_path, write_field_csv, _ref_field_csv, golden_grid, "f", vals)
    assert _block_rows(blocks) == [2, 2, 2, 1]
    assert len(percent) == 1 and np.isnan(percent[0])


@pytest.mark.parametrize("read,header", [(read_field_csv, "u,v,f"),
                                         (read_frames_csv, "u,v," + ",".join(["a"] * 20))])
def test_grid_csv_readers_reject_malformed_files(tmp_path, read, header):
    """Both readers share one loader: the same message for each fault."""
    bad = tmp_path / "bad.csv"
    width = len(header.split(","))
    rows = [[u, v] + [0.0] * (width - 2) for u in (0.0, 0.5, 1.0) for v in (0.0, 0.5, 1.0)]
    cases = {
        "no data lines after the header": header + "\n",
        "grid coordinates contain non-finite values": header + "\n" + "\n".join(
            ",".join("nan" if (k == 4 and j == 0) else repr(x) for j, x in enumerate(r))
            for k, r in enumerate(rows)) + "\n",
        f"row width {width + 1} != header width {width}": header + "\n" + "\n".join(
            ",".join(map(repr, r + [0.0])) for r in rows) + "\n",
        "unreadable numeric data": header + "\n0,0," + ",".join(["x"] * (width - 2)) + "\n",
    }
    for message, text in cases.items():
        bad.write_text(text)
        with pytest.raises(ConfigError, match=message):
            read(bad)
    bad.write_bytes(header.encode() + b"\xff\n0,0,1\n")
    with pytest.raises(ConfigError, match="not UTF-8 text"):
        read(bad)


# ---------------------------------------------------------------------------
# the reader: the writers' layout parsed in chunks, anything else by loadtxt


def _written(tmp_path, m):
    """A header line, then the rows of ``m`` as the writers write them."""
    path = tmp_path / "m.csv"
    with open(path, "wb") as f:
        f.write(b",".join([b"x"] * m.shape[1]) + b"\n")
        io_module._write_rows(f, m[:, None])
    return path


def _loadtxt(path):
    return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _near_powers(k):
    x = 10.0 ** k
    return st.sampled_from([x, float(f"1e{k}"), np.nextafter(x, 0.0), np.nextafter(x, np.inf)])


def _from_bits(sign, exponent, fraction):
    return float(np.uint64(sign << 63 | exponent << 52 | fraction).view(np.float64))


# every finite float64: any bit pattern but those of inf and NaN, the powers
# of ten and their neighbours, 0 and the extremes, of either sign
_finite = st.one_of(
    st.builds(_from_bits, st.integers(0, 1), st.integers(0, 2046), st.integers(0, 2**52 - 1)),
    st.integers(-323, 308).flatmap(_near_powers),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
).flatmap(lambda x: st.sampled_from([x, -x]))


def _reader_rows(path):
    """The rows the grid CSV reader takes from ``path``, before its checks."""
    return (io_module._read_written(path, len) or io_module._read_loadtxt(path, len))[2]


@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 4)), elements=_finite))
def test_reader_parses_writer_output_bitwise(tmp_path_factory, m):
    path = _written(tmp_path_factory.mktemp("csv"), m)
    found = io_module._read_written(path, len)
    assert found is not None
    assert _bitwise_equal(found[2], _loadtxt(path)) and _bitwise_equal(found[2], m)


@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 4)),
              elements=_finite | _any_float | st.sampled_from([1e250, -9.999999999999999e-250])))
def test_reader_matches_loadtxt_bitwise(tmp_path_factory, m):
    path = _written(tmp_path_factory.mktemp("csv"), m)
    assert _bitwise_equal(_reader_rows(path), _loadtxt(path))


def _no_loadtxt(monkeypatch):
    def no_loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called on writer output")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)


def test_reader_parses_writer_output_without_loadtxt(tmp_path, golden_grid, monkeypatch):
    _no_loadtxt(monkeypatch)
    rng = np.random.default_rng(12)
    real = rng.standard_normal(golden_grid.shape) * np.exp(rng.uniform(-500, 500, golden_grid.shape))
    # the exponents beyond +-249 and the rounding ties of the writer are
    # read by float() in place
    real.flat[:16] = [0.0, -0.0, 1e249, -1e-249, 1e250, -1e250, 1e-300, -1e-300, 5e-324,
                      -2.2250738585072014e-308, 1.7976931348623157e308, 3 / 2**24,
                      2.0**50 + 0.25, -(2.0**50 + 0.75), 100000000000000.125, 300000000000000.375]
    for vals in (real, real + 1j * real[::-1]):
        write_field_csv(tmp_path / "f.csv", golden_grid, "f", vals)
        grid, _, back = read_field_csv(tmp_path / "f.csv")
        assert grid.shape == golden_grid.shape and _bitwise_equal(back, vals)
    frames = rng.standard_normal(golden_grid.shape + (5, 5))
    frames[0, 0, :4, 0] = [1e-300, -5e-324, 1e300, 3 / 2**24]      # columns T1_0 to T1_3
    write_frames_csv(tmp_path / "frames.csv", golden_grid, frames)
    assert _bitwise_equal(read_frames_csv(tmp_path / "frames.csv")[1], frames)
    tokens = (tmp_path / "frames.csv").read_text().split("\n", 2)[1].split(",")[2:6]
    assert tokens == ["1.0000000000000000e-300", "-4.9406564584124654e-324",
                      "1.0000000000000001e+300", "1.7881393432617188e-07"]
    assert _bitwise_equal(frames[0, 0, :4, 0], np.array([float(t) for t in tokens]))


def _hand_edited(text, edit):
    """The field CSV ``text`` with ``edit`` applied to its data lines."""
    head, body = text.split("\n", 1)
    return head + "\n" + edit(body)


# field values 3.25, -0.125, 6.5 and 0.375, none of them a grid coordinate
_EDITS = {
    "short decimals": lambda body: body.replace("3.2500000000000000e+00", "3.25"),
    "leading +": lambda body: body.replace("6.5000000000000000e+00", "+6.5000000000000000e+00"),
    "upper-case E": lambda body: body.replace("3.7500000000000000e-01", "3.7500000000000000E-01"),
    "CRLF": lambda body: body.replace("\n", "\r\n"),
    "CRLF on one line": lambda body: body.replace("\n", "\r\n", 1),
    "blank line": lambda body: body.replace("\n", "\n\n", 2),
    "no final newline": lambda body: body[:-1],
}


@pytest.mark.parametrize("edit", sorted(_EDITS))
def test_reader_falls_back_to_loadtxt_off_the_layout(tmp_path, edit):
    grid = Grid(0.0, 0.0, 0.5, 0.25, 3, 4)
    vals = np.array([[3.25, -0.125, 6.5, 0.375]] * 3)
    path = tmp_path / "f.csv"
    write_field_csv(path, grid, "f", vals)
    text = _hand_edited(path.read_text(), _EDITS[edit])
    assert text != path.read_text()
    path.write_bytes(text.encode())
    assert io_module._read_written(path, len) is None
    _, _, back = read_field_csv(path)
    assert _bitwise_equal(back.ravel(), _loadtxt(path)[:, 2])


@pytest.mark.parametrize("exponent", ["+300", "-300"])
def test_reader_reads_far_exponents_in_place(tmp_path, monkeypatch, exponent):
    """An exponent beyond the kernel's +-249 is in the layout: float() reads
    that number in place, and the file does not go through loadtxt."""
    grid = Grid(0.0, 0.0, 0.5, 0.25, 3, 4)
    vals = np.array([[3.25, -0.125, 6.5, 0.375]] * 3)
    path = tmp_path / "f.csv"
    write_field_csv(path, grid, "f", vals)
    token = "1.0000000000000000e" + exponent
    path.write_text(_hand_edited(path.read_text(),
                                 lambda body: body.replace("6.5000000000000000e+00", token)))
    _no_loadtxt(monkeypatch)
    _, _, back = read_field_csv(path)
    vals[vals == 6.5] = float(token)
    assert _bitwise_equal(back, vals)


def test_reader_fallback_returns_nan(tmp_path, capsys):
    """A NaN value reads back, as the residual files hold them; the CLI
    input that needs finite fields rejects it as an input error."""
    grid = Grid(0.0, 0.0, 0.5, 0.25, 3, 4)
    path = tmp_path / "f.csv"
    write_field_csv(path, grid, "f", np.ones(grid.shape))
    path.write_text(_hand_edited(path.read_text(),
                                 lambda body: body.replace("1.0000000000000000e+00\n", "nan\n", 1)))
    back_grid, _, back = read_field_csv(path)
    assert back_grid == grid
    assert np.isnan(back[0, 0]) and np.all(back.ravel()[1:] == 1.0)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"case: riemannian\nL0: 0.0\nfields: {{lam: '{path}'}}\n")
    assert cli.main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("chunk", [1 << 18, 300])
def test_reader_reads_non_finite_residuals_in_place(tmp_path, monkeypatch, chunk):
    """nan, inf and -inf, as a residual report writes them, read back bit
    for bit in place, real and complex, and the file does not go through
    loadtxt; lines of them are shorter than the layout's finite lines, so
    a file of many reads into a grown array.  A complex value keeps its
    -0.0 real part and a finite part beside an infinite one.  A
    non-finite u or v is still an input error."""
    grid = Grid(0.0, 0.0, 0.5, 0.25, 41, 9)
    rng = np.random.default_rng(3)
    real = rng.standard_normal(grid.shape)
    real.flat[[0, 7, 100, 200]] = [np.nan, np.inf, -np.inf, np.nan]
    real[20:] = np.nan
    cplx = real[::-1] + 1j * rng.standard_normal(grid.shape)
    cplx.flat[[3, 5, 8]] = [complex(np.inf, -np.inf), complex(1.0, np.nan), complex(-0.0, 2.0)]
    write_residual_report(tmp_path, "check", grid, {"gauss": real, "equiv_": cplx})
    text = (tmp_path / "check_gauss.csv").read_text()
    assert all(token in text for token in (",nan\n", ",inf\n", ",-inf\n"))
    monkeypatch.setattr(io_module, "_READ_CHUNK", chunk)
    _no_loadtxt(monkeypatch)
    for label, vals in (("gauss", real), ("equiv_", cplx)):
        back_grid, name, back = read_field_csv(tmp_path / f"check_{label}.csv")
        assert (back_grid, name) == (grid, label)
        assert _bitwise_equal(back.view(np.float64), vals.view(np.float64))
    path = tmp_path / "check_gauss.csv"
    head, first, rest = text.split("\n", 2)
    for bad in ("nan," + first.split(",", 1)[1], first.split(",")[0] + ",-inf," + first.split(",")[2]):
        path.write_text(f"{head}\n{bad}\n{rest}")
        with pytest.raises(ConfigError, match="grid coordinates contain non-finite values"):
            read_field_csv(path)


def test_reader_declines_non_finite_text_that_is_no_whole_token(tmp_path):
    """Only a whole nan, inf or -inf token reads in place: "--nan" or
    "nan5" are off the layout and go to loadtxt, which names the fault."""
    grid = Grid(0.0, 0.0, 0.5, 0.25, 3, 4)
    path = tmp_path / "f.csv"
    write_field_csv(path, grid, "f", np.ones(grid.shape))
    text = path.read_text()
    for token in ("--nan", "nan5", "-nanx"):
        path.write_text(_hand_edited(text, lambda body: body.replace(
            "1.0000000000000000e+00\n", token + "\n", 1)))
        assert io_module._read_written(path, len) is None
        with pytest.raises(ConfigError, match="unreadable numeric data"):
            read_field_csv(path)


def test_reader_reads_rounding_ties_with_float(tmp_path, monkeypatch):
    # each lies exactly half way between two doubles: 2**53 + odd (where
    # 10**-1 is not exact), a 17-digit integer between 2**55 and 2**56 and
    # 1e23; the kernel cannot prove them, and float() reads them in place,
    # half to even
    ties = [f"{2**53 + m}0" for m in range(1, 200, 2)]
    tokens = [f"{t[0]}.{t[1:]}e+15" for t in ties]
    tokens += ["4.8180568415690860e+16", "1.0000000000000000e+23"]
    for t in tokens:
        x = float(t)
        assert 2 * (Decimal(t) - Decimal(x)) in (Decimal(np.nextafter(x, 0.0)) - Decimal(x),
                                                 Decimal(np.nextafter(x, np.inf)) - Decimal(x))
    D = np.array([int(t[0] + t[2:18]) for t in tokens])
    E = np.array([int(t[19:]) for t in tokens])
    assert io_module._nearest_doubles(D, E)[1].tolist() == list(range(len(tokens)))
    exact = np.array([[float(t)] for t in tokens])
    block = "".join(t + "\n" for t in tokens).encode()
    assert _bitwise_equal(io_module._parse_block(block, len(block), 1), exact)
    path = tmp_path / "ties.csv"
    path.write_text("x\n" + "".join(t + "\n" for t in tokens))
    _no_loadtxt(monkeypatch)
    assert _bitwise_equal(_reader_rows(path), exact)


@pytest.mark.parametrize("chunk", [1, 7, 23, 100, 1000])
def test_reader_across_chunk_boundaries(tmp_path, monkeypatch, chunk):
    rng = np.random.default_rng(chunk)
    m = rng.standard_normal((37, 3)) * np.exp(rng.uniform(-200, 200, (37, 3)))
    path = _written(tmp_path, m)
    monkeypatch.setattr(io_module, "_READ_CHUNK", chunk)
    found = io_module._read_written(path, len)
    assert found is not None and _bitwise_equal(found[2], m)
    path.write_bytes(path.read_bytes()[:-1])        # no final newline: declined
    assert io_module._read_written(path, len) is None


@pytest.mark.parametrize("chunk, calls", [(100, 26), (1000, 3), (1900, 1), (2500, 1), (10**6, 1)])
def test_reader_sizes_its_chunks_to_the_file(tmp_path, monkeypatch, chunk, calls):
    """A file of n data bytes is read in max(1, round(n / _READ_CHUNK))
    near-equal chunks of at most 1.5 _READ_CHUNK bytes, so it never ends in
    a chunk of a few lines: at 1900 and 2500, reads of _READ_CHUNK bytes
    would leave a last chunk of 653 and 53 bytes."""
    m = np.arange(1.0, 112.0).reshape(37, 3)         # 37 lines of 69 bytes
    path = _written(tmp_path, m)
    n = path.stat().st_size - len("x,x,x\n")
    assert n == 37 * 69
    blocks = []
    parse = io_module._parse_block

    def counted(block, cut, width):
        blocks.append(cut)
        return parse(block, cut, width)

    monkeypatch.setattr(io_module, "_parse_block", counted)
    monkeypatch.setattr(io_module, "_READ_CHUNK", chunk)
    assert _bitwise_equal(_reader_rows(path), m)
    assert len(blocks) == calls == max(1, round(n / chunk))
    assert sum(blocks) == n and max(blocks) <= 1.5 * chunk + 69
