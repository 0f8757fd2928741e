"""Rectangular (u, v) charts and finite-difference stencils.

Scalar fields are arrays of shape (nu, nv); axis 0 runs along u, axis 1
along v.  Derivatives default to second-order central differences with
second-order one-sided stencils at the boundary (numpy.gradient with
edge_order=2); fourth-order stencils are available where plumbing needs
the extra accuracy.
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
    def centered(cls, half_width: float, n: int, half_height=None, nv=None) -> "Grid":
        """Symmetric grid on [-half_width, half_width]^2 with n points per axis."""
        half_height = half_width if half_height is None else half_height
        nv = n if nv is None else nv
        du = 2 * half_width / (n - 1)
        dv = 2 * half_height / (nv - 1)
        return cls(-half_width, -half_height, du, dv, n, nv)


def d_du(f: np.ndarray, grid: Grid, order: int = 2) -> np.ndarray:
    return _diff(f, grid.du, axis=0, order=order)

def d_dv(f: np.ndarray, grid: Grid, order: int = 2) -> np.ndarray:
    return _diff(f, grid.dv, axis=1, order=order)


def _diff(f: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    if order == 2:
        return np.gradient(f, h, axis=axis, edge_order=2)
    if order != 4:
        raise ValueError(f"unsupported difference order {order}")
    f = np.moveaxis(np.asarray(f), axis, 0)
    n = f.shape[0]
    if n < 5:
        out = np.gradient(f, h, axis=0, edge_order=2)
        return np.moveaxis(out, 0, axis)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
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


def _diff2(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative, O(h^2) in the interior; the edge rows use the
    one-sided 5-point O(h^3) stencil (Fornberg 1988), or the 4-point
    O(h^2) one on four-point axes."""
    f = np.moveaxis(np.asarray(f), axis, 0)
    n = f.shape[0]
    if n < 4:
        out = np.gradient(np.gradient(f, h, axis=0, edge_order=2), h, axis=0, edge_order=2)
        return np.moveaxis(out, 0, axis)
    out = np.empty_like(f)
    h2 = h * h
    out[1:-1] = (f[:-2] - 2 * f[1:-1] + f[2:]) / h2
    if n < 5:
        out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h2
        out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h2
    else:
        out[0] = (35 * f[0] - 104 * f[1] + 114 * f[2] - 56 * f[3] + 11 * f[4]) / (12 * h2)
        out[-1] = (35 * f[-1] - 104 * f[-2] + 114 * f[-3] - 56 * f[-4] + 11 * f[-5]) / (12 * h2)
    return np.moveaxis(out, 0, axis)


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
    out = np.empty((n - 1,) + f.shape[1:], dtype=f.dtype)
    if n == 2:
        out[0] = (f[0] + f[1]) / 2
        return np.moveaxis(out, 0, axis)
    if n >= 4:
        out[1:-1] = (-f[:-3] + 9 * f[1:-2] + 9 * f[2:-1] - f[3:]) / 16
    # quadratic through the first/last three points, evaluated at the midpoint
    out[0] = (3 * f[0] + 6 * f[1] - f[2]) / 8
    out[-1] = (3 * f[-1] + 6 * f[-2] - f[-3]) / 8
    return np.moveaxis(out, 0, axis)
