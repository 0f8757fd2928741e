"""Space-form models, fundamental data on grids, and the connection matrices.

The 5x5 matrices S, T encode the derivative of the moving frame
(T1 T2 N1 N2 F) along u and v.  All five signature cases share one
skeleton and differ only in a handful of signs, collected in
``_CASE_SIGNS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cases import AMBIENT_TABLE, COLUMN_SIGNS, SurfaceCase
from .errors import ConfigError, DimensionMismatch
from .geomcore import AmbientSignature, pseudo_inner
from .grids import Grid, d2_du, d2_dv, d_du, d_dv

FIELD_NAMES = ("lam", "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "mu1", "mu2")


@dataclass(frozen=True)
class SpaceFormModel:
    case: SurfaceCase
    L0: float
    ambient: AmbientSignature
    quadric_const: float

    @property
    def ambient_dim(self) -> int:
        return self.ambient.dim

    @property
    def is_flat(self) -> bool:
        return self.L0 == 0.0


def ambient_model(case: SurfaceCase, L0: float) -> SpaceFormModel:
    """Flat model (E^4-like) for L0 = 0, quadric in a 5-space otherwise."""
    sgn = 0 if L0 == 0 else (1 if L0 > 0 else -1)
    _, diag = AMBIENT_TABLE[case][sgn]
    q = 1.0 / L0 if L0 != 0 else 0.0
    return SpaceFormModel(case=case, L0=float(L0), ambient=AmbientSignature(diag), quadric_const=q)


@dataclass
class AnalyticFields:
    """Optional closed-form field evaluators attached to FundamentalData.

    Each callable takes coordinate arrays (U, V) and returns an array of
    the same shape.  When ``lam_u``/``lam_v`` are present the connection
    matrices use them instead of finite differences, and frame
    integration can sample between grid nodes exactly.
    """

    lam: Optional[Callable] = None
    lam_u: Optional[Callable] = None
    lam_v: Optional[Callable] = None
    lam_uu: Optional[Callable] = None
    lam_vv: Optional[Callable] = None
    alpha1: Optional[Callable] = None
    alpha2: Optional[Callable] = None
    alpha3: Optional[Callable] = None
    beta1: Optional[Callable] = None
    beta2: Optional[Callable] = None
    beta3: Optional[Callable] = None
    mu1: Optional[Callable] = None
    mu2: Optional[Callable] = None

    def complete(self) -> bool:
        """True when every field (and lam_u, lam_v) can be evaluated."""
        return all(
            getattr(self, n) is not None
            for n in FIELD_NAMES + ("lam_u", "lam_v")
        )


@dataclass
class FundamentalData:
    """Conformal factor, second-fundamental-form and normal-connection fields."""

    model: SpaceFormModel
    grid: Grid
    lam: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    alpha3: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    beta3: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray
    analytic: Optional[AnalyticFields] = None

    def __post_init__(self):
        shape = self.grid.shape
        for name in FIELD_NAMES:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise DimensionMismatch(f"field {name} has shape {arr.shape}, grid is {shape}")
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"field {name} contains non-finite values")
            setattr(self, name, arr)

    @property
    def case(self) -> SurfaceCase:
        return self.model.case

    @property
    def fields(self) -> dict:
        return {n: getattr(self, n) for n in FIELD_NAMES}

    @classmethod
    def from_functions(cls, model: SpaceFormModel, grid: Grid, **funcs) -> "FundamentalData":
        """Sample callables on the grid; zero for omitted fields.

        Extra keys ``lam_u``/``lam_v`` are kept as analytic derivatives.
        """
        deriv_keys = {"lam_u", "lam_v", "lam_uu", "lam_vv"}
        unknown = set(funcs) - set(FIELD_NAMES) - deriv_keys
        if unknown:
            raise ConfigError(f"unknown field functions: {sorted(unknown)}")
        U, V = grid.mesh()
        zero = lambda U, V: np.zeros_like(U)
        provider = AnalyticFields(**{k: (funcs.get(k) or zero) for k in FIELD_NAMES})
        for k in deriv_keys:
            setattr(provider, k, funcs.get(k))
        sampled = {n: np.broadcast_to(getattr(provider, n)(U, V), grid.shape).copy()
                   for n in FIELD_NAMES}
        return cls(model=model, grid=grid, analytic=provider, **sampled)

    def lam_derivatives(self):
        """(lam_u, lam_v) grids, analytic when available, else 2nd-order FD."""
        if self.analytic is not None and self.analytic.lam_u and self.analytic.lam_v:
            U, V = self.grid.mesh()
            return (np.broadcast_to(self.analytic.lam_u(U, V), self.grid.shape),
                    np.broadcast_to(self.analytic.lam_v(U, V), self.grid.shape))
        return d_du(self.lam, self.grid), d_dv(self.lam, self.grid)

    def lam_second_derivatives(self):
        """(lam_uu, lam_vv) grids: analytic when available, else differences
        of the analytic gradient, else direct second-difference stencils."""
        g = self.grid
        an = self.analytic
        if an is not None and an.lam_uu and an.lam_vv:
            U, V = g.mesh()
            return (np.broadcast_to(an.lam_uu(U, V), g.shape).astype(float),
                    np.broadcast_to(an.lam_vv(U, V), g.shape).astype(float))
        if an is not None and an.lam_u and an.lam_v:
            lam_u, lam_v = self.lam_derivatives()
            return d_du(lam_u, g), d_dv(lam_v, g)
        # differencing the gradient twice drops to O(h) at the boundary;
        # use the direct second-difference stencils instead
        return d2_du(self.lam, g), d2_dv(self.lam, g)

    def e2l(self) -> np.ndarray:
        return np.exp(2.0 * self.lam)


# (sa1, sb1, s10, sa2, sb2, sm, tL) per case; see assemble_connection.
_CASE_SIGNS = {
    SurfaceCase.RIEM: (-1, -1, -1, -1, -1, -1, -1),
    SurfaceCase.NEUT_SPACE: (1, 1, -1, 1, 1, -1, -1),
    SurfaceCase.NEUT_TIME: (-1, 1, 1, 1, -1, 1, 1),
    SurfaceCase.LOR_SPACE: (-1, 1, -1, -1, 1, 1, -1),
    SurfaceCase.LOR_TIME: (-1, -1, 1, 1, 1, -1, 1),
}


def assemble_connection(case: SurfaceCase, L0, lam, lam_u, lam_v,
                        a1, a2, a3, b1, b2, b3, m1, m2):
    """Stacked S, T of shape broadcast(...) + (5, 5).

    All scalar arguments broadcast together; works pointwise and on whole
    grids alike.
    """
    sa1, sb1, s10, sa2, sb2, sm, tL = _CASE_SIGNS[case]
    args = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in
                                 (lam, lam_u, lam_v, a1, a2, a3, b1, b2, b3, m1, m2)))
    lam, lam_u, lam_v, a1, a2, a3, b1, b2, b3, m1, m2 = args
    shape = lam.shape
    Le = L0 * np.exp(2.0 * lam)
    S = np.zeros(shape + (5, 5))
    T = np.zeros(shape + (5, 5))
    one = np.ones(shape)

    S[..., 0, 0] = lam_u; S[..., 0, 1] = lam_v
    S[..., 0, 2] = sa1 * a1; S[..., 0, 3] = sb1 * b1; S[..., 0, 4] = one
    S[..., 1, 0] = s10 * lam_v; S[..., 1, 1] = lam_u
    S[..., 1, 2] = sa2 * a2; S[..., 1, 3] = sb2 * b2
    S[..., 2, 0] = a1; S[..., 2, 1] = a2; S[..., 2, 2] = lam_u; S[..., 2, 3] = sm * m1
    S[..., 3, 0] = b1; S[..., 3, 1] = b2; S[..., 3, 2] = m1; S[..., 3, 3] = lam_u
    S[..., 4, 0] = -Le

    T[..., 0, 0] = lam_v; T[..., 0, 1] = s10 * lam_u
    T[..., 0, 2] = sa1 * a2; T[..., 0, 3] = sb1 * b2
    T[..., 1, 0] = lam_u; T[..., 1, 1] = lam_v
    T[..., 1, 2] = sa2 * a3; T[..., 1, 3] = sb2 * b3; T[..., 1, 4] = one
    T[..., 2, 0] = a2; T[..., 2, 1] = a3; T[..., 2, 2] = lam_v; T[..., 2, 3] = sm * m2
    T[..., 3, 0] = b2; T[..., 3, 1] = b3; T[..., 3, 2] = m2; T[..., 3, 3] = lam_v
    T[..., 4, 1] = tL * Le
    return S, T


def connection_grids(data: FundamentalData):
    """S, T over the whole grid, shape (nu, nv, 5, 5)."""
    lam_u, lam_v = data.lam_derivatives()
    return assemble_connection(
        data.case, data.model.L0, data.lam, lam_u, lam_v,
        data.alpha1, data.alpha2, data.alpha3,
        data.beta1, data.beta2, data.beta3, data.mu1, data.mu2,
    )


# Pair order of the ten frame constraints reported by validate_frame.
FRAME_CONSTRAINTS = (
    (0, 0), (0, 1), (0, 2), (0, 3),
    (1, 1), (1, 2), (1, 3),
    (2, 2), (2, 3),
    (3, 3),
)


def validate_frame(frame: np.ndarray, lam: float, case: SurfaceCase,
                   L0: float = 0.0, ambient: Optional[AmbientSignature] = None) -> np.ndarray:
    """Residuals target - value of the frame inner-product constraints.

    ``frame`` holds the columns (T1, T2, N1, N2[, F]) of shape (n, 4) or
    (n, 5).  The ten pairwise constraints come first; when L0 != 0 and F
    is present an eleventh residual checks <F, F> = 1/L0.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.shape[1] not in (4, 5):
        raise DimensionMismatch("frame must have 4 or 5 columns")
    if ambient is None:
        ambient = ambient_model(case, L0).ambient
    if frame.shape[0] != ambient.dim:
        raise DimensionMismatch(
            f"frame vectors of dimension {frame.shape[0]} vs ambient {ambient.dim}")
    signs = COLUMN_SIGNS[case]
    e2l = np.exp(2.0 * lam)
    res = []
    for (a, b) in FRAME_CONSTRAINTS:
        target = signs[a] * e2l if a == b else 0.0
        val = pseudo_inner(frame[:, a], frame[:, b], ambient)
        res.append(target - val)
    if L0 != 0.0 and frame.shape[1] == 5:
        res.append(1.0 / L0 - pseudo_inner(frame[:, 4], frame[:, 4], ambient))
    return np.asarray(res)


def canonical_frame(model: SpaceFormModel, lam0: float = 0.0) -> np.ndarray:
    """Coordinate-axis initial frame satisfying the case normalization.

    Frame columns take the first unused ambient axis of the matching
    metric sign; for curved models F takes the remaining axis, scaled to
    lie on the quadric.  For flat models the fifth column is the position,
    initialized at the origin.
    """
    diag = list(model.ambient.diag)
    n = model.ambient_dim
    used = [False] * n
    Y = np.zeros((n, 5))
    scale = np.exp(lam0)
    for col, s in enumerate(COLUMN_SIGNS[model.case]):
        k = next(i for i in range(n) if not used[i] and diag[i] == s)
        used[k] = True
        Y[k, col] = scale
    if model.L0 != 0.0:
        k = used.index(False)
        Y[k, 4] = 1.0 / np.sqrt(abs(model.L0))
    return Y


def zero_data(case: SurfaceCase, grid: Grid, L0: float = 0.0) -> FundamentalData:
    """All fields identically zero (totally geodesic plane when L0 = 0)."""
    model = ambient_model(case, L0)
    z = np.zeros(grid.shape)
    return FundamentalData(model, grid, *(z.copy() for _ in range(9)))
