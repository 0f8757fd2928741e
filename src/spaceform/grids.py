"""Rectangular (u, v) charts and finite-difference stencils.

Scalar fields are arrays of shape (nu, nv); axis 0 runs along u, axis 1
along v.  Derivatives default to second-order central differences with
second-order one-sided stencils at the boundary (numpy.gradient's
edge_order=2 formula, bit for bit); fourth-order stencils are available
where plumbing needs the extra accuracy.  The ``*_range`` kernels give
the rows [start, stop) of a u-difference or of the midpoint samples from
the rows around them alone, so residuals and integration can work one
block of u rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Grid:
    u0: float
    v0: float
    du: float
    dv: float
    nu: int
    nv: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.u0, self.v0, self.du, self.dv))):
            raise ConfigError("grid origin and steps must be finite")
        if self.du <= 0 or self.dv <= 0:
            raise ConfigError("grid steps must be positive")
        if self.nu < 3 or self.nv < 3:
            raise ConfigError("grids need at least 3 points per axis")

    @property
    def shape(self):
        return (self.nu, self.nv)

    @property
    def u(self) -> np.ndarray:
        return self.u0 + self.du * np.arange(self.nu)

    @property
    def v(self) -> np.ndarray:
        return self.v0 + self.dv * np.arange(self.nv)

    def mesh(self):
        """(U, V) coordinate arrays of shape (nu, nv)."""
        return np.meshgrid(self.u, self.v, indexing="ij")

    @property
    def h(self) -> float:
        return max(self.du, self.dv)

    @property
    def default_tol(self) -> float:
        """The default pass/fail bound of the residual gates, 100 h^2."""
        return 100.0 * self.h ** 2

    @classmethod
    def centered(cls, half_width: float, n: int) -> "Grid":
        """Symmetric grid on [-half_width, half_width]^2 with n points per axis."""
        if n < 3:
            raise ConfigError("grids need at least 3 points per axis")
        h = 2 * half_width / (n - 1)
        return cls(-half_width, -half_width, h, h, n, n)


def d_du(f: np.ndarray, grid: Grid, order: int = 2) -> np.ndarray:
    return _diff(f, grid.du, axis=0, order=order)

def d_dv(f: np.ndarray, grid: Grid, order: int = 2) -> np.ndarray:
    return _diff(f, grid.dv, axis=1, order=order)


def d_du_range(f: np.ndarray, grid: Grid, start: int, stop: int) -> np.ndarray:
    """d_du(f, grid)[start:stop], from the rows next to that range (and the
    first or last three at an edge) alone, as one C-contiguous array."""
    return _first_rows(f, grid.du, start, stop, _rows(f, start, stop))


def _rows(f: np.ndarray, start: int, stop: int) -> np.ndarray:
    return np.empty((stop - start,) + f.shape[1:], f.dtype)


def _block(interior: np.ndarray) -> np.ndarray:
    """Where a stencil computes its interior rows: the slice itself when it
    is one contiguous block (the step axis outermost in memory), else an
    unstrided scratch in its memory order.  Writing the steps to a
    strided slice in place is slower than one copy back."""
    return interior if interior.flags.c_contiguous else np.empty_like(interior)


def _first_rows(f: np.ndarray, h: float, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """Rows [start, stop) of the O(h^2) first difference along axis 0 into
    ``out``: central in the interior, the one-sided 3-point stencil at the
    two edge rows, each term as np.gradient(f, h, axis=0, edge_order=2)
    forms it, so every bit is the same."""
    n = f.shape[0]
    lo, hi = max(start, 1), min(stop, n - 1)
    if lo < hi:
        # (f[k+1] - f[k-1]) / 2h for lo <= k < hi, in place
        mid = _block(out[lo - start:hi - start])
        np.subtract(f[lo + 1:hi + 1], f[lo - 1:hi - 1], out=mid)
        np.divide(mid, 2.0 * h, out=mid)
        out[lo - start:hi - start] = mid
    if start == 0:
        out[0] = -1.5 / h * f[0] + 2.0 / h * f[1] + -0.5 / h * f[2]
    if stop == n:
        out[-1] = 0.5 / h * f[-3] + -2.0 / h * f[-2] + 1.5 / h * f[-1]
    return out


def _diff(f: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    if order not in (2, 4):
        raise ValueError(f"unsupported difference order {order}")
    f = np.moveaxis(np.asarray(f), axis, 0)
    n = f.shape[0]
    out = np.empty_like(f)
    if order == 2 or n < 5:
        return np.moveaxis(_first_rows(f, h, 0, n, out), 0, axis)
    # (f[:-4] - 8 f[1:-3] + 8 f[3:-1] - f[4:]) / 12h, step by step in place
    mid = _block(out[2:-2])
    tmp = np.empty_like(mid)
    np.multiply(f[1:-3], 8, out=mid)
    np.subtract(f[:-4], mid, out=mid)
    np.add(mid, np.multiply(f[3:-1], 8, out=tmp), out=mid)
    np.subtract(mid, f[4:], out=mid)
    np.divide(mid, 12 * h, out=mid)
    out[2:-2] = mid
    # one-sided 4th order, 5-point
    out[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    out[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * h)
    out[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * h)
    out[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * h)
    return np.moveaxis(out, 0, axis)


def d2_du(f: np.ndarray, grid: Grid) -> np.ndarray:
    return _diff2(f, grid.du, axis=0)

def d2_dv(f: np.ndarray, grid: Grid) -> np.ndarray:
    return _diff2(f, grid.dv, axis=1)


def d2_du_range(f: np.ndarray, grid: Grid, start: int, stop: int) -> np.ndarray:
    """d2_du(f, grid)[start:stop], from the rows next to that range (and the
    first or last five at an edge) alone, as one C-contiguous array."""
    return _second_rows(f, grid.du, start, stop, _rows(f, start, stop))


def _diff2(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    f = np.moveaxis(np.asarray(f), axis, 0)
    return np.moveaxis(_second_rows(f, h, 0, f.shape[0], np.empty_like(f)), 0, axis)


def _second_rows(f: np.ndarray, h: float, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """Rows [start, stop) of the second difference along axis 0 into
    ``out``: O(h^2) in the interior; the edge rows use the one-sided
    5-point O(h^3) stencil (Fornberg 1988), or the 4-point O(h^2) one on
    four-point axes, and a three-point axis the first difference twice."""
    n = f.shape[0]
    if n < 4:
        return _first_rows(_first_rows(f, h, 0, n, np.empty_like(f)), h, start, stop, out)
    h2 = h * h
    lo, hi = max(start, 1), min(stop, n - 1)
    if lo < hi:
        # (f[k-1] - 2 f[k] + f[k+1]) / h^2 for lo <= k < hi, in place
        mid = _block(out[lo - start:hi - start])
        np.multiply(f[lo:hi], 2, out=mid)
        np.subtract(f[lo - 1:hi - 1], mid, out=mid)
        np.add(mid, f[lo + 1:hi + 1], out=mid)
        np.divide(mid, h2, out=mid)
        out[lo - start:hi - start] = mid
    if n < 5:
        if start == 0:
            out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h2
        if stop == n:
            out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h2
    else:
        if start == 0:
            out[0] = (35 * f[0] - 104 * f[1] + 114 * f[2] - 56 * f[3] + 11 * f[4]) / (12 * h2)
        if stop == n:
            out[-1] = (35 * f[-1] - 104 * f[-2] + 114 * f[-3] - 56 * f[-4] + 11 * f[-5]) / (12 * h2)
    return out


def row_blocks(shape, points: int):
    """Slices of consecutive axis-0 indices (u rows, or steps) that cover
    ``shape[0]``, each holding at most ``points`` of the ``shape[1]``
    entries per index, and at least one index."""
    step = max(1, points // shape[1])
    return [slice(i, min(i + step, shape[0])) for i in range(0, shape[0], step)]


def half_samples_range(f: np.ndarray, start: int, stop: int) -> np.ndarray:
    """half_samples(f, axis=0)[start:stop], from the samples around those
    midpoints alone, as one C-contiguous array."""
    n = f.shape[0]
    out = _rows(f, start, stop)
    if n == 2:
        out[0] = (f[0] + f[1]) / 2
        return out
    lo, hi = max(start, 1), min(stop, n - 2)
    if lo < hi:
        # the interior: (-f[k-1] + 9 f[k] + 9 f[k+1] - f[k+2]) / 16 for
        # lo <= k < hi, step by step in place
        mid = out[lo - start:hi - start]
        tmp = np.multiply(f[lo:hi], 9)
        np.negative(f[lo - 1:hi - 1], out=mid)
        np.add(mid, tmp, out=mid)
        np.add(mid, np.multiply(f[lo + 1:hi + 1], 9, out=tmp), out=mid)
        np.subtract(mid, f[lo + 2:hi + 2], out=mid)
        np.divide(mid, 16, out=mid)
    # quadratic through the first/last three points, evaluated at the midpoint
    if start == 0:
        out[0] = (3 * f[0] + 6 * f[1] - f[2]) / 8
    if stop == n - 1:
        out[-1] = (3 * f[-1] + 6 * f[-2] - f[-3]) / 8
    return out


def half_samples(f: np.ndarray, axis: int = 0) -> np.ndarray:
    """Values at midpoints between consecutive samples along ``axis``.

    Cubic (Catmull-Rom) in the interior, quadratic at the two end cells;
    O(h^4) / O(h^3) accurate respectively.  Output is one shorter than the
    input along ``axis``.
    """
    f = np.moveaxis(np.asarray(f), axis, 0)
    n = f.shape[0]
    if n < 2:
        raise ValueError("need at least two samples")
    return np.moveaxis(half_samples_range(f, 0, n - 1), 0, axis)
