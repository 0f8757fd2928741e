import json
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    # 77 grid points of 27 values in blocks of 10: a partial last block
    monkeypatch.setattr(io_module, "_BLOCK_VALUES", 270)
    frames = _golden_values(np.random.default_rng(6), golden_grid.shape + (5, 5))
    _same_bytes(tmp_path, write_frames_csv, _ref_frames_csv, golden_grid, frames)


def test_obj_mesh_golden_bytes(tmp_path, golden_grid):
    points = _golden_values(np.random.default_rng(3), golden_grid.shape + (3,))
    _same_bytes(tmp_path, write_obj_mesh, _ref_obj_mesh, points)


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


def _kernel_agrees(m, sep=",", lead=""):
    """The kernel may decline (None) but never returns wrong bytes; returns
    whether it formatted the block."""
    got = io_module._format_block(np.asarray(m, dtype=np.float64), sep, lead)
    assert got is None or got == _ref_block(m, sep, lead)
    return got is not None


_any_float = st.one_of(
    st.floats(width=64),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))))


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=_any_float),
       st.sampled_from([(",", ""), (" ", "v ")]))
@example(np.array([[5e-324, -0.0, 0.0, np.nan, -np.inf]]), (",", ""))
def test_format_block_matches_percent_format(m, sep_lead):
    _kernel_agrees(m, *sep_lead)


def test_format_block_edge_values():
    # exact ties at the 17th digit, rounded half to even
    ties = [2.0**50 + 0.25, -(2.0**50 + 0.75), 100000000000000.125, 300000000000000.375]
    for t in ties:
        digits = Decimal(t).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, t
    assert _kernel_agrees(np.array([ties]))
    assert _kernel_agrees(np.array([[0.0, -0.0, 1.0, -1.0, 1e249, 1e-249, -1e249]]))
    for p in range(-249, 250):
        x = 10.0 ** p
        near = [x, float(f"1e{p}"), np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
        assert _kernel_agrees(np.array([near, [-y for y in near]])), p
    for x in (1e251, 1e-251, 5e-324, np.nan, np.inf, -np.inf):
        assert not _kernel_agrees(np.array([[1.0, x]]))
    # a tie against an inexact power of ten (3 / 2**24 = 1.78813934326171875e-07)
    # cannot be proven: the block falls back
    assert not _kernel_agrees(np.array([[3.0 / 2**24]]))


def test_format_block_formats_ordinary_data():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((400, 7)) * np.exp(rng.uniform(-500, 500, (400, 7)))
    for sep, lead in ((",", ""), (" ", "v ")):
        assert _kernel_agrees(m, sep, lead)


def test_field_csv_integer_dtypes(tmp_path, golden_grid):
    rng = np.random.default_rng(8)
    for dtype in (np.int8, np.int32, np.int64, np.uint64, bool):
        vals = rng.integers(0, 2, golden_grid.shape) if dtype is bool else \
            rng.integers(np.iinfo(dtype).min // 2, np.iinfo(dtype).max // 2, golden_grid.shape)
        vals = vals.astype(dtype)
        _same_bytes(tmp_path, write_field_csv, _ref_field_csv, golden_grid, "f", vals)


def test_field_csv_falls_back_in_one_block_only(tmp_path, golden_grid, monkeypatch):
    # 77 points of 3 values in blocks of 30 points; one NaN in the middle block
    monkeypatch.setattr(io_module, "_BLOCK_VALUES", 90)
    results = []
    kernel = io_module._format_block

    def recorded(*args):
        results.append(kernel(*args))
        return results[-1]

    monkeypatch.setattr(io_module, "_format_block", recorded)
    vals = np.random.default_rng(9).standard_normal(golden_grid.shape)
    vals.flat[45] = np.nan
    _same_bytes(tmp_path, write_field_csv, _ref_field_csv, golden_grid, "f", vals)
    assert [r is None for r in results] == [False, True, False]


@pytest.mark.parametrize("read,header", [(read_field_csv, "u,v,f"),
                                         (read_frames_csv, "u,v," + ",".join(["a"] * 20))])
def test_grid_csv_readers_reject_malformed_files(tmp_path, read, header):
    """Both readers share one loader: the same message for each fault."""
    bad = tmp_path / "bad.csv"
    width = len(header.split(","))
    rows = [[u, v] + [0.0] * (width - 2) for u in (0.0, 0.5, 1.0) for v in (0.0, 0.5, 1.0)]
    cases = {
        "no data lines after the header": header + "\n",
        "non-finite values": header + "\n" + "\n".join(
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
