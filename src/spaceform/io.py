"""File formats: grid-field CSV, residual reports, frame fields, meshes.

All writers produce deterministic bytes: fixed float formatting
(scientific, 17 significant digits), fixed row order (row-major, v
fastest), sorted keys in JSON summaries.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .grids import Grid

FLOAT_FMT = "%.16e"


def _write_rows(path, header: str, prefixes, fmt: str, rows) -> None:
    """Stream ``header`` then one line ``prefix + fmt % row`` per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        f.writelines(map(str.__add__, prefixes, map(fmt.__mod__, rows)))


def _grid_prefixes(grid: Grid):
    """The ``u,v,`` cells of every grid point, row-major with v fastest."""
    us = [FLOAT_FMT % u + "," for u in grid.u.tolist()]
    vs = [FLOAT_FMT % v + "," for v in grid.v.tolist()]
    return map("".join, itertools.product(us, vs))


def write_field_csv(path, grid: Grid, name: str, values: np.ndarray) -> None:
    """One scalar field as CSV with header ``u,v,<name>``.

    Complex fields are written as a ``<name>_re,<name>_im`` column pair.
    """
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise DimensionMismatch(f"field shape {values.shape} != grid {grid.shape}")
    if np.iscomplexobj(values):
        header = f"u,v,{name}_re,{name}_im"
        fmt = f"{FLOAT_FMT},{FLOAT_FMT}\n"
        rows = zip(values.real.ravel().tolist(), values.imag.ravel().tolist())
    else:
        header = f"u,v,{name}"
        fmt = FLOAT_FMT + "\n"
        rows = values.ravel().tolist()
    _write_rows(path, header, _grid_prefixes(grid), fmt, rows)


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
_FRAME_BLOCK = 4096     # grid points per block of write_frames_csv


def write_frames_csv(path, grid: Grid, frames: np.ndarray) -> None:
    """Frame field as CSV: columns u,v then T1_0..F_{n-1} (n = ambient dim)."""
    frames = np.asarray(frames, dtype=float)
    if frames.shape[:2] != grid.shape or frames.shape[3] != 5:
        raise DimensionMismatch(f"frames shape {frames.shape} does not match grid")
    n = frames.shape[2]
    names = [f"{c}_{k}" for c in _FRAME_COLS for k in range(n)]
    points = frames.reshape(grid.nu * grid.nv, n, 5)
    fmt = ",".join([FLOAT_FMT] * (5 * n)) + "\n"
    # one block of rows at a time becomes Python floats, not the whole field;
    # columns run over the frame vector c, then its ambient component k
    blocks = (map(tuple, np.swapaxes(points[i:i + _FRAME_BLOCK], 1, 2)
                  .reshape(-1, 5 * n).tolist())
              for i in range(0, len(points), _FRAME_BLOCK))
    _write_rows(path, "u,v," + ",".join(names), _grid_prefixes(grid), fmt,
                itertools.chain.from_iterable(blocks))


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
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(map(f"v {FLOAT_FMT} {FLOAT_FMT} {FLOAT_FMT}\n".__mod__,
                         map(tuple, points.reshape(nu * nv, 3).tolist())))
        f.writelines(map("f %d %d %d %d\n".__mod__, map(tuple, faces.tolist())))
