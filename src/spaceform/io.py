"""File formats: grid-field CSV, residual reports, frame fields, meshes.

All writers produce deterministic bytes: fixed float formatting
(scientific, 17 significant digits), fixed row order (row-major, v
fastest), sorted keys in JSON summaries.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .grids import Grid

FLOAT_FMT = "%.16e"

# ---------------------------------------------------------------------------
# exact vectorised FLOAT_FMT
#
# A float x = +-a is written as the 17 digits of D = round(a * 10**(16 - E))
# and the exponent E.  The product is formed as a double-double with
# Dekker's error-free split and product against an exact (hi, lo) table of
# 10**k, so D is proven only where the fraction is not within the error
# bound (< 5e-15) of 1/2; an exact tie can only be told apart when 10**k
# is exact (lo == 0), and is then rounded half to even as % does.

_SPLIT = 134217729.0            # 2**27 + 1, Dekker's splitting constant
_K_MIN, _K_MAX = -240, 270      # powers 10**k in the table; |x| in (1e-250, 1e250)


def _split(x):
    """(hi, lo) with x = hi + lo exactly and hi of at most 26 bits."""
    t = x * _SPLIT
    hi = t - (t - x)
    return hi, x - hi


def _pow10_table():
    """10**k for k in [_K_MIN, _K_MAX] as hi, split(hi) and lo, where hi and
    lo are 10**k and 10**k - hi correctly rounded (exact integer ratios;
    Python's int division rounds correctly)."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


_POW10 = _pow10_table()
# ASCII of 00..99, little-endian: the tens digit is the first byte
_PAIRS = np.array([(0x30 + i // 10) | (0x30 + i % 10) << 8 for i in range(100)], "<u2")
_E16, _E17 = np.int64(10**16), np.int64(10**17)


def _round_scaled(a, E):
    """(D, below, unsure): D = a * 10**(16 - E) rounded half to even, where
    the exact product is below 1e16, and where the rounding is unproven."""
    hi, hh, hl, lo = (np.take(t, np.int64(16 - _K_MIN) - E) for t in _POW10)
    p = a * hi                      # p + e == a * hi exactly; p >= 2**53 is an integer
    ah, al = _split(a)
    e = ah * hh - p
    e += ah * hl
    e += al * hh
    e += al * hl
    r = e + a * lo                  # a * 10**k == p + r within 5e-15
    f = np.floor(r)
    frac = r - f
    D = p.astype(np.int64) + f.astype(np.int64)
    D += frac > 0.5
    D += (frac == 0.5) & (lo == 0) & (np.bitwise_and(D, np.int64(1)) == np.int64(1))
    unsure = (np.abs(frac - 0.5) < 1e-12) & (lo != 0)
    return D, (p - 1e16) + r < 0, unsure


def _format_block(m, sep: str, lead: str = ""):
    """The bytes of ``lead + sep.join(FLOAT_FMT % x for x in row) + "\\n"``
    for each row of the (rows, w) float64 matrix ``m``, or None where that
    is not proven exact (non-finite values, |x| outside (1e-250, 1e250),
    a rounding within the error bound of a tie)."""
    rows, w = m.shape
    x = m.ravel()
    a = np.abs(x)
    zero = a == 0
    if not np.all(zero | ((a > 1e-250) & (a < 1e250))):
        return None
    a[zero] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)      # off by at most one
    D, below, unsure = _round_scaled(a, E)
    fix = below | (D > _E17)
    if fix.any():
        E[fix] += np.where(below[fix], np.int64(-1), np.int64(1))
        D[fix], below, unsure[fix] = _round_scaled(a[fix], E[fix])
        if below.any() or np.any(D[fix] > _E17):
            return None
    if unsure.any():
        return None
    carry = D == _E17                               # 9.99..95 rounds up to 1.0e(E+1)
    D[carry] = _E16
    E += carry
    D[zero] = 0
    E[zero] = 0
    # per row: the lead, 13 little-endian uint16 words per value and "\n\0";
    # per value: [sep|sign] [digit|.] 8 x [digit pair] [e|exponent sign]
    # [hundreds|NUL] [pair], with NUL for every absent byte
    head = np.array(bytearray((lead + "\0" * (len(lead) % 2)).encode()), np.uint8).view("<u2")
    words = np.empty((rows, len(head) + 13 * w + 1), "<u2")
    words[:, :len(head)] = head
    words[:, -1] = np.uint16(0x0A)
    cell = words[:, len(head):-1].reshape(rows, w, 13)

    def put(col, value):
        cell[..., col] = value.reshape(rows, w)

    put(0, np.signbit(x) * np.uint16(ord("-") << 8))
    cell[:, 1:, 0] += np.uint16(ord(sep))
    lead_digit = D // _E16
    put(1, lead_digit.astype(np.uint16) + np.uint16(ord(".") << 8 | 0x30))
    rest = D - lead_digit * _E16
    upper = rest // np.int64(10**8)
    for col, half in ((2, upper), (6, rest - upper * np.int64(10**8))):
        half = half.astype(np.uint32)
        q = half // np.uint32(10000)
        for c, quad in ((col, q), (col + 2, half - q * np.uint32(10000))):
            t = quad // np.uint32(100)
            put(c, np.take(_PAIRS, t))
            put(c + 1, np.take(_PAIRS, quad - t * np.uint32(100)))
    put(10, (E < 0) * np.uint16(2 << 8) + np.uint16(ord("+") << 8 | ord("e")))
    aE = np.abs(E)
    hundreds = aE // np.int64(100)
    put(11, (hundreds > 0) * (hundreds.astype(np.uint16) + np.uint16(0x30)))
    put(12, np.take(_PAIRS, aE - hundreds * np.int64(100)))
    out = words.view(np.uint8).ravel()
    return out[out != 0].tobytes()


_BLOCK_VALUES = 32768   # floats formatted at a time: bounds the writers' memory


def _write_blocks(f, n_rows: int, width: int, rows, sep: str = ",", lead: str = "") -> None:
    """Write ``n_rows`` lines ``lead + sep.join(FLOAT_FMT % x ...) + "\\n"`` to
    the binary file ``f``; ``rows(i, j)`` gives lines i..j-1 as a (j - i,
    width) float64 matrix.  A block the kernel cannot prove exact is
    formatted row by row with ``%``."""
    fmt = lead + sep.join([FLOAT_FMT] * width) + "\n"
    step = max(1, _BLOCK_VALUES // width)
    for i in range(0, n_rows, step):
        m = rows(i, min(i + step, n_rows))
        text = _format_block(m, sep, lead)
        if text is None:
            text = "".join(map(fmt.__mod__, map(tuple, m.tolist()))).encode()
        f.write(text)


def _write_grid_csv(path, header: str, grid: Grid, table: np.ndarray) -> None:
    """``header``, then one line ``u,v,<table[k] flattened>`` per grid point
    k, row-major with v fastest."""
    width = 2 + table[:1].size
    u, v = grid.u, grid.v

    def rows(i, j):
        k = np.arange(i, j)
        m = np.empty((j - i, width))
        m[:, 0] = u[k // grid.nv]
        m[:, 1] = v[k % grid.nv]
        m[:, 2:] = table[i:j].reshape(j - i, width - 2)
        return m

    with open(path, "wb") as f:
        f.write(header.encode("utf-8") + b"\n")
        _write_blocks(f, grid.nu * grid.nv, width, rows)


def write_field_csv(path, grid: Grid, name: str, values: np.ndarray) -> None:
    """One scalar field as CSV with header ``u,v,<name>``.

    Complex fields are written as a ``<name>_re,<name>_im`` column pair.
    """
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise DimensionMismatch(f"field shape {values.shape} != grid {grid.shape}")
    if np.iscomplexobj(values):
        header = f"u,v,{name}_re,{name}_im"
        # the (re, im) pairs of complex128, one row per grid point
        table = np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1, 2)
    else:
        header = f"u,v,{name}"
        table = values.reshape(-1, 1)
    _write_grid_csv(path, header, grid, table)


def read_field_csv(path):
    """Inverse of :func:`write_field_csv`; returns (grid, name, values)."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        cols = header.split(",")
        if cols[:2] != ["u", "v"] or len(cols) not in (3, 4):
            raise ConfigError(f"{path}: expected header 'u,v,<name>', got {header!r}")
        is_complex = len(cols) == 4
        if is_complex:
            if not (cols[2].endswith("_re") and cols[3].endswith("_im")):
                raise ConfigError(f"{path}: complex header needs _re/_im columns")
            name = cols[2][:-3]
        else:
            name = cols[2]
        try:
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: unreadable numeric data ({exc})") from exc
    if rows.shape[1] != len(cols):
        raise ConfigError(f"{path}: row width {rows.shape[1]} != header width {len(cols)}")
    grid = _grid_from_columns(rows[:, 0], rows[:, 1], path)
    vals = rows[:, 2] + 1j * rows[:, 3] if is_complex else rows[:, 2]
    return grid, name, vals.reshape(grid.shape)


def _grid_from_columns(u, v, path):
    """Recover the Grid from flattened u, v columns (row-major, v fastest)."""
    uu = np.unique(np.round(u, 12))
    vv = np.unique(np.round(v, 12))
    nu, nv = len(uu), len(vv)
    if nu * nv != len(u):
        raise ConfigError(f"{path}: points do not form a rectangular grid")
    if nu < 3 or nv < 3:
        raise ConfigError(f"{path}: grid needs at least 3 points per axis")
    du = np.diff(uu)
    dv = np.diff(vv)
    if np.max(np.abs(du - du[0])) > 1e-9 * max(1.0, abs(du[0])) or \
       np.max(np.abs(dv - dv[0])) > 1e-9 * max(1.0, abs(dv[0])):
        raise ConfigError(f"{path}: grid spacing is not uniform")
    grid = Grid(float(uu[0]), float(vv[0]), float(du[0]), float(dv[0]), nu, nv)
    U, V = grid.mesh()
    if (np.max(np.abs(u.reshape(grid.shape) - U)) > 1e-9
            or np.max(np.abs(v.reshape(grid.shape) - V)) > 1e-9):
        raise ConfigError(f"{path}: rows are not in row-major order (v fastest)")
    return grid


def write_residual_report(out_dir, name: str, grid: Grid, residuals: dict) -> dict:
    """Per-equation residual CSVs plus a JSON summary.

    ``residuals`` maps equation label -> residual field.  The summary
    records max, mean of |r| and the argmax grid index per equation, and
    is returned as well as written to ``<name>_summary.json``.
    """
    summary = {}
    for label in sorted(residuals):
        r = np.abs(residuals[label])
        write_field_csv(os.path.join(out_dir, f"{name}_{label}.csv"),
                        grid, label, residuals[label])
        loc = np.unravel_index(int(np.argmax(r)), r.shape)
        summary[label] = {
            "max": float(np.max(r)),
            "mean": float(np.mean(r)),
            "argmax": [int(loc[0]), int(loc[1])],
        }
    with open(os.path.join(out_dir, f"{name}_summary.json"), "w",
              encoding="utf-8", newline="\n") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


_FRAME_COLS = ("T1", "T2", "N1", "N2", "F")


def write_frames_csv(path, grid: Grid, frames: np.ndarray) -> None:
    """Frame field as CSV: columns u,v then T1_0..F_{n-1} (n = ambient dim)."""
    frames = np.asarray(frames, dtype=float)
    if frames.shape[:2] != grid.shape or frames.shape[3] != 5:
        raise DimensionMismatch(f"frames shape {frames.shape} does not match grid")
    n = frames.shape[2]
    names = [f"{c}_{k}" for c in _FRAME_COLS for k in range(n)]
    # columns run over the frame vector c, then its ambient component k
    points = np.swapaxes(frames.reshape(grid.nu * grid.nv, n, 5), 1, 2)
    _write_grid_csv(path, "u,v," + ",".join(names), grid, points)


def read_frames_csv(path):
    """Inverse of :func:`write_frames_csv`; returns (grid, frames)."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if header[:2] != ["u", "v"] or (len(header) - 2) % 5 != 0:
            raise ConfigError(f"{path}: malformed frame-field header")
        n = (len(header) - 2) // 5
        if n not in (4, 5):
            raise ConfigError(f"{path}: ambient dimension {n} not in (4, 5)")
        try:
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: unreadable numeric data ({exc})") from exc
    if rows.shape[1] != len(header):
        raise ConfigError(f"{path}: row width does not match header")
    grid = _grid_from_columns(rows[:, 0], rows[:, 1], path)
    frames = rows[:, 2:].reshape(grid.nu, grid.nv, 5, n)
    return grid, np.moveaxis(frames, 2, 3).copy()


def write_obj_mesh(path, points: np.ndarray) -> None:
    """Quad mesh over the grid of 3-space points, Wavefront OBJ layout."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[2] != 3:
        raise DimensionMismatch("mesh points must have shape (nu, nv, 3)")
    nu, nv = points.shape[:2]
    a = (np.arange(nu - 1)[:, None] * nv + np.arange(1, nv)).ravel()
    faces = np.stack([a, a + 1, a + nv + 1, a + nv], axis=1)
    vertices = points.reshape(nu * nv, 3)
    with open(path, "wb") as f:
        _write_blocks(f, nu * nv, 3, lambda i, j: vertices[i:j], sep=" ", lead="v ")
        f.write("".join(map("f %d %d %d %d\n".__mod__, map(tuple, faces.tolist()))).encode())
