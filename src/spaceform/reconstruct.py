"""Frame integration and the inverse constructions.

Forward direction: integrate the frame ODEs Y_u = Y S, Y_v = Y T over the
grid (classical 4th-order steps) to recover the immersion; extract the
fundamental data back from a frame field by projecting derivatives onto
the frame.

Inverse direction: build fundamental data from prescribed twistor
invariant fields (flat and curved ambient), and from holomorphic data
under the dbar-vanishing condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cases import COLUMN_SIGNS, SurfaceCase
from .errors import (
    DegenerateFrame,
    DimensionMismatch,
    DomainViolation,
    IncompatiblePair,
    InvalidCase,
    InvalidInitialFrame,
    LiouvilleViolated,
    NonFiniteState,
    SignMismatch,
    TotallyGeodesicRegion,
    check_residual,
)
from .fundamental import (
    CONNECTION_TABLES,
    FIELD_NAMES,
    FundamentalData,
    SpaceFormModel,
    ambient_model,
    apply_table,
    canonical_frame,
    connection_rows,
    stack_rows,
    validate_frame,
)
from .grids import Grid, d2_du, d2_dv, d_du, d_dv, half_samples
from .twistor import (
    InvariantFamily,
    TwistorInvariants,
    ab_functions,
    discriminants,
    family_labels,
    partner_label,
)


@dataclass
class FrameField:
    """Ambient frames (T1, T2, N1, N2, F) at every grid point.

    ``frames`` has shape (nu, nv, n, 5) with n = 4 (flat ambient, F is the
    position column) or 5.  ``diagnostics`` records constraint drift and
    path-consistency residuals from the integration that produced it.
    """

    model: SpaceFormModel
    grid: Grid
    frames: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def position(self) -> np.ndarray:
        """F as an (nu, nv, n) array."""
        return self.frames[..., :, 4]


def _rk4_sweep(Y0, rows, rows_mid, table, h):
    """March Y' = Y M along one axis; Y0 (..., n, 5).

    ``rows`` (m, 12, ...) and ``rows_mid`` (m - 1, 12, ...) hold the stacked
    field vector at the m nodes and halfway between them, step axis first.
    Each step builds only its own matrices, M = apply_table(rows[i], table),
    and carries the end matrix forward as the next step's start.
    """
    steps = rows.shape[0] - 1
    out = np.empty((steps + 1,) + Y0.shape)
    out[0] = Y0
    y = Y0
    b = apply_table(rows[0], table)
    for i in range(steps):
        a, m, b = b, apply_table(rows_mid[i], table), apply_table(rows[i + 1], table)
        k1 = y @ a
        k2 = (y + 0.5 * h * k1) @ m
        k3 = (y + 0.5 * h * k2) @ m
        k4 = (y + h * k3) @ b
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = y
    return out


def _analytic_rows(data: FundamentalData, U, V):
    """Stacked field vector from the analytic field providers at (U, V)."""
    p = data.analytic
    f = {n: getattr(p, n)(U, V) for n in FIELD_NAMES}
    f.update(lam_u=p.lam_u(U, V), lam_v=p.lam_v(U, V),
             E=data.model.L0 * np.exp(2.0 * f["lam"]), one=1.0)
    return stack_rows(f)


def _frame_rows(data: FundamentalData):
    """Stacked field vectors at the nodes, (12, nu, nv), and halfway between
    nodes along u, (12, nu - 1, nv), and along v, (12, nu, nv - 1).

    With complete analytic providers the midpoints are exact (preserving
    the 4th-order step); otherwise the nodes use 4th-order lam
    derivatives and the midpoints cubic interpolation of the field rows.
    """
    g = data.grid
    if data.analytic is not None and data.analytic.complete():
        rows = connection_rows(data)
        u_mid = _analytic_rows(data, (g.u[:-1] + g.du / 2.0)[:, None], g.v[None, :])
        v_mid = _analytic_rows(data, g.u[:, None], (g.v[:-1] + g.dv / 2.0)[None, :])
        return rows, u_mid, v_mid
    rows = connection_rows(data, order=4)
    return rows, half_samples(rows, axis=1), half_samples(rows, axis=2)


def integrate_frame(data: FundamentalData, init: np.ndarray = None,
                    init_tol: float = 1e-8, check_transposed: bool = False) -> FrameField:
    """Integrate the moving frame over the grid from its value at (u0, v0).

    Classical 4th-order steps: first along the v = v0 row using S, then
    along every u-column using T.  Diagnostics report the frame-constraint
    drift, the residual of re-integrating the final row by S, and (on
    request) the max discrepancy against the transposed integration path.
    S and T are never stored over the grid: each step applies the case
    table to the field rows of its own nodes and midpoint.
    """
    model = data.model
    if init is None:
        init = canonical_frame(model, lam0=float(data.lam[0, 0]))
    init = np.asarray(init, dtype=float)
    if init.shape != (model.ambient_dim, 5):
        raise InvalidInitialFrame(
            f"initial frame must be {model.ambient_dim}x5, got {init.shape}")
    res0 = validate_frame(init, float(data.lam[0, 0]), data.case,
                          L0=model.L0, ambient=model.ambient)
    if np.max(np.abs(res0)) > init_tol * max(1.0, np.exp(2 * float(data.lam[0, 0]))):
        raise InvalidInitialFrame(
            f"initial frame violates the case normalization (residual {np.max(np.abs(res0)):.3e})")

    rows, u_mid, v_mid = _frame_rows(data)
    S_table, T_table = CONNECTION_TABLES[data.case]
    g = data.grid
    # step axis first; the v-steps, which march every column at once, read
    # one contiguous (nv, 12, nu) copy, so each of their slices is one block
    u_rows, u_mids = np.moveaxis(rows, 1, 0), np.moveaxis(u_mid, 1, 0)
    v_rows = np.ascontiguousarray(np.moveaxis(rows, 2, 0))
    v_mids = np.ascontiguousarray(np.moveaxis(v_mid, 2, 0))

    # u-sweep along the first row, then v-sweeps for all columns at once
    row = _rk4_sweep(init, u_rows[..., 0], u_mids[..., 0], S_table, g.du)   # (nu, n, 5)
    frames = _rk4_sweep(row, v_rows, v_mids, T_table, g.dv)
    frames = np.moveaxis(frames, 0, 1)                          # (nu, nv, n, 5)
    if not np.all(np.isfinite(frames)):
        raise NonFiniteState("frame integration produced non-finite values")

    diagnostics = {"drift": float(frame_drift(frames, data)),
                   "cross_consistency": float(np.max(np.abs(
                       _rk4_sweep(frames[0, -1], u_rows[..., -1], u_mids[..., -1],
                                  S_table, g.du)
                       - frames[:, -1])))}
    if check_transposed:
        col = _rk4_sweep(init, v_rows[..., 0], v_mids[..., 0], T_table, g.dv)   # (nv, n, 5)
        alt = _rk4_sweep(col, u_rows, u_mids, S_table, g.du)                    # (nu, nv, n, 5)
        diagnostics["transposed_discrepancy"] = float(np.max(np.abs(alt - frames)))
    return FrameField(model=model, grid=g, frames=frames, diagnostics=diagnostics)


def frame_drift(frames: np.ndarray, data: FundamentalData) -> float:
    """Max violation of the frame inner-product constraints over the grid."""
    eta = np.asarray(data.model.ambient.diag, dtype=float)
    cols = frames[..., :4]
    gram = np.swapaxes(cols, -1, -2) @ (eta[:, None] * cols)
    target = np.asarray(COLUMN_SIGNS[data.case], dtype=float) * data.e2l()[..., None]
    diag = np.arange(4)
    gram[..., diag, diag] -= target
    drift = np.max(np.abs(gram))
    if data.model.L0 != 0.0:
        f = frames[..., 4]
        drift = max(drift, np.max(np.abs(
            np.einsum("...a,a,...a->...", f, eta, f) - 1.0 / data.model.L0)))
    return float(drift)


def extract_fundamental(frames: FrameField, model: SpaceFormModel = None,
                        min_e2l: float = 1e-12) -> FundamentalData:
    """Recover fundamental data from a frame field.

    lam comes from the squared norm of T1; the remaining fields are read
    off the connection matrices S = Y^{-1} Y_u and T = Y^{-1} Y_v of the
    square frame Y (columns T1, T2, N1, N2, plus F when curved), with
    4th-order differences on the frames.  Only rows 2 and 3 of S and T
    carry fields, so one solve Y^t R = [e2 e3] gives those rows as
    R^t [Y_u | Y_v] on the five frame columns that enter them.
    """
    if model is None:
        model = frames.model
    g = frames.grid
    Y = frames.frames
    if Y.shape[-2] != model.ambient_dim:
        raise DimensionMismatch(
            f"frame vectors of dimension {Y.shape[-2]} vs ambient {model.ambient_dim}")
    eta = np.asarray(model.ambient.diag, dtype=float)
    e2l = np.einsum("...a,a,...a->...", Y[..., 0], eta, Y[..., 0], order="C")
    if not np.min(e2l) >= min_e2l:
        raise DegenerateFrame.at_worst(-e2l, "tangent norm below threshold", value=e2l)
    lam = 0.5 * np.log(e2l)

    # In the flat case the fifth column is the position, not a frame
    # vector; the frame columns alone span the ambient space either way.
    ncols = model.ambient_dim
    Yc = Y[..., :ncols]
    try:
        R = np.linalg.solve(np.swapaxes(Yc, -1, -2), np.eye(ncols)[:, 2:4])
    except np.linalg.LinAlgError:
        # the first exactly singular frame has the first zero determinant
        det = np.linalg.det(Yc)
        raise DegenerateFrame.at_worst(-np.abs(det), "singular frame", value=det) from None
    # [Y_u of T1, T2, N1 | Y_v of T2, N1]: the columns S[2:4, :3], T[2:4, 1:3]
    dY = np.empty(Yc.shape[:-1] + (5,))
    dY[..., :3] = d_du(Yc[..., :3], g, order=4)
    dY[..., 3:] = d_dv(Yc[..., 1:3], g, order=4)
    rows = np.swapaxes(R, -1, -2) @ dY
    # (row, column) of each field in rows: S[2, 0] is (0, 0), T[2, 1] is (0, 3)
    at = {"alpha1": (0, 0), "alpha2": (0, 1), "alpha3": (0, 3),
          "beta1": (1, 0), "beta2": (1, 1), "beta3": (1, 3),
          "mu1": (1, 2), "mu2": (1, 4)}
    return FundamentalData(model=model, grid=g, lam=lam,
                           **{n: rows[..., i, j].copy() for n, (i, j) in at.items()})


def integrate_potential(P: np.ndarray, Q: np.ndarray, grid: Grid,
                        tol: float = None) -> np.ndarray:
    """Scalar field with the prescribed gradient, zero at the grid origin.

    Trapezoidal line integration of P du along the first row, then Q dv up
    each column.  Requires the compatibility P_v = Q_u within tolerance
    (default 100 h^2 at the data's scale).
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if tol is None:
        tol = grid.default_tol * max(1.0, float(np.max(np.abs(P))), float(np.max(np.abs(Q))))
    check_residual(d_dv(P, grid) - d_du(Q, grid), tol, "P_v = Q_u", error=IncompatiblePair)

    def cumtrapz(f, h, axis):
        f = np.moveaxis(f, axis, 0)
        out = np.zeros_like(f)
        np.cumsum((f[:-1] + f[1:]) * (h / 2.0), axis=0, out=out[1:])
        return np.moveaxis(out, 0, axis)

    lam = cumtrapz(P[:, :1], grid.du, axis=0) + cumtrapz(Q, grid.dv, axis=1)
    return lam


def _real_invariant(case: SurfaceCase, arr, name: str) -> np.ndarray:
    """Real-family invariants must be real; tolerate a complex dtype whose
    imaginary part is numerically zero (as produced by complex CSV files)."""
    arr = np.asarray(arr)
    if case.is_lorentzian or not np.iscomplexobj(arr):
        return arr
    scale = max(1.0, float(np.max(np.abs(arr))))
    check_residual(arr.imag, 1e-12 * scale, f"Im {name} = 0")
    return np.ascontiguousarray(arr.real)


def _coerce_invariants(inv, case: SurfaceCase, grid: Grid) -> TwistorInvariants:
    """Accept TwistorInvariants or {label: family-like with W, X, Y, Z}."""
    fams = inv.families if isinstance(inv, TwistorInvariants) else inv
    wxyz = {label: tuple(_real_invariant(case, getattr(fams[label], n), n + label)
                         for n in "WXYZ")
            for label in family_labels(case)}
    deltas = discriminants(case, wxyz)
    out = {label: InvariantFamily(*wxyz[label], None, None, deltas[label])
           for label in wxyz}
    return TwistorInvariants(case=case, grid=grid,
                             lam=np.zeros(grid.shape), families=out)


def _check_sum_identities(inv: TwistorInvariants, tol: float):
    if inv.is_complex:
        f = inv.families[""]
        pairs = (("W + conj(W) = X + conj(X)", 2 * f.W.real - 2 * f.X.real),
                 ("Y + conj(Y) = Z + conj(Z)", 2 * f.Y.real - 2 * f.Z.real))
    else:
        p, m = inv.families["+"], inv.families["-"]
        pairs = (("W+ + W- = X+ + X-", p.W + m.W - p.X - m.X),
                 ("Y+ + Y- = Z+ + Z-", p.Y + m.Y - p.Z - m.Z))
    for which, res in pairs:
        check_residual(res, tol, which)


def _fields_from_invariants(case: SurfaceCase, inv: TwistorInvariants, A, B) -> dict:
    """alpha, beta, mu from the invariant fields (flat and curved cases alike)."""
    if case is SurfaceCase.RIEM:
        p, m = inv.families["+"], inv.families["-"]
        return {
            "alpha1": (p.Y - m.Y) / 2, "alpha2": (p.X + m.X) / 2,
            "alpha3": (p.Z - m.Z) / 2,
            "beta1": (p.W - m.W) / 2, "beta2": (p.Y + m.Y) / 2,
            "beta3": (p.X - m.X) / 2,
            "mu1": (B["-"] - B["+"]) / 2, "mu2": (A["-"] - A["+"]) / 2,
        }
    f = inv.families[""]
    a, b = A[""], B[""]
    return {
        "alpha1": -f.Y.imag, "alpha2": f.W.real, "alpha3": f.Z.imag,
        "beta1": -f.W.imag, "beta2": f.Y.real, "beta3": f.X.imag,
        "mu1": b.imag, "mu2": -a.imag,
    }


def _lam_gradient(case: SurfaceCase, A, B):
    if case is SurfaceCase.RIEM:
        return (A["+"] + A["-"]) / 2, (B["+"] + B["-"]) / 2
    return A[""].real, B[""].real


def construct_from_wxyz_flat(inv, case: SurfaceCase, grid: Grid,
                             tol: float = None) -> FundamentalData:
    """Fundamental data in a flat ambient from prescribed W, X, Y, Z fields.

    Implements the nondegenerate flat construction for the Riemannian and
    Lorentzian space-like cases.  ``inv`` is a TwistorInvariants or a
    {label: family} mapping carrying W, X, Y, Z per family.
    """
    if case not in (SurfaceCase.RIEM, SurfaceCase.LOR_SPACE):
        raise InvalidCase(
            "flat construction is available for the Riemannian and "
            "Lorentzian space-like cases")
    if tol is None:
        tol = grid.default_tol
    tinv = _coerce_invariants(inv, case, grid)
    _check_sum_identities(tinv, tol)
    A, B = ab_functions(tinv)

    # Delta must be exhausted by the derivative divergence (flat ambient)
    for label in tinv.families:
        res = (d_du(A[label], grid) + d_dv(B[partner_label(case, label)], grid)
               - tinv.families[label].delta)
        scale = max(1.0, float(np.max(np.abs(tinv.families[label].delta))))
        check_residual(res, tol * scale, "A_u + B_v = Delta")
    P, Q = _lam_gradient(case, A, B)
    lam = integrate_potential(P, Q, grid, tol=tol * max(1.0, float(np.max(np.abs(P)))))
    fields = _fields_from_invariants(case, tinv, A, B)
    return FundamentalData(model=ambient_model(case, 0.0), grid=grid, lam=lam, **fields)


def construct_from_wxyz_curved(inv, L0: float, case: SurfaceCase, grid: Grid,
                               tol: float = None) -> FundamentalData:
    """Fundamental data in a curved ambient (L0 != 0) from W, X, Y, Z fields.

    With f = Delta - A_u - B_v, the conformal factor satisfies
    lam = log(f / L0) / 2; requires f / L0 > 0 and the displayed
    constraints on f and Delta.  lam is integrated from its gradient
    (f_u / 2f, f_v / 2f), as in the flat construction, and only its
    additive constant is taken from log(f / L0) / 2.
    """
    if case not in (SurfaceCase.RIEM, SurfaceCase.LOR_SPACE):
        raise InvalidCase(
            "curved construction is available for the Riemannian and "
            "Lorentzian space-like cases")
    if L0 == 0.0:
        raise InvalidCase("curved construction needs L0 != 0")
    if tol is None:
        tol = grid.default_tol
    tinv = _coerce_invariants(inv, case, grid)
    _check_sum_identities(tinv, tol)
    A, B = ab_functions(tinv)

    # order-4 derivatives keep f consistent with the solver that produced A and B
    d4u = lambda x: d_du(x, grid, order=4)
    d4v = lambda x: d_dv(x, grid, order=4)
    if case is SurfaceCase.RIEM:
        f = (tinv.families["+"].delta - d4u(A["+"]) - d4v(B["-"]))
        fminus = (tinv.families["-"].delta - d4u(A["-"]) - d4v(B["+"]))
        dres = f - fminus
        which = "Delta+ - Delta- = (A+ - A-)_u + (B- - B+)_v"
        sumA = A["+"] + A["-"]
        sumB = B["+"] + B["-"]
    else:
        fc = tinv.families[""].delta - d4u(A[""]) - d4v(B[""])
        f = fc.real
        dres = fc.imag
        which = "Delta - conj(Delta) = (A - conj(A))_u + (B - conj(B))_v"
        sumA = 2 * A[""].real
        sumB = 2 * B[""].real
    scale = max(1.0, float(np.max(np.abs(f))))
    check_residual(dres, tol * scale, which)
    check_residual(d4u(f) - f * sumA, tol * scale, "f_u = f (A + conj(A))")
    check_residual(d4v(f) - f * sumB, tol * scale, "f_v = f (B + conj(B))")
    ratio = f / L0
    if not np.min(ratio) > 0.0:
        raise SignMismatch.at_worst(-ratio, "f / L0 must be positive", value=ratio)
    # log(f / L0) carries grid-scale roughness that the curvature stencils
    # of downstream checks amplify; its gradient f_u / 2f = (A + conj(A)) / 2
    # does not
    P, Q = _lam_gradient(case, A, B)
    lam = integrate_potential(P, Q, grid, tol=tol * max(1.0, float(np.max(np.abs(P)))))
    lam += np.mean(0.5 * np.log(ratio) - lam)
    fields = _fields_from_invariants(case, tinv, A, B)
    return FundamentalData(model=ambient_model(case, L0), grid=grid, lam=lam, **fields)


@dataclass(frozen=True)
class HolomorphicSpec:
    """Polynomial holomorphic function p(w), ascending complex coefficients."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @classmethod
    def constant(cls, c) -> "HolomorphicSpec":
        return cls((c,))

    @classmethod
    def identity(cls) -> "HolomorphicSpec":
        return cls((0.0, 1.0))

    @classmethod
    def exp_truncation(cls, terms: int = 8) -> "HolomorphicSpec":
        from math import factorial
        return cls(tuple(1.0 / factorial(k) for k in range(terms)))

    def __call__(self, w):
        w = np.asarray(w, dtype=complex)
        out = np.zeros_like(w)
        for c in reversed(self.coeffs):
            out = out * w + c
        return out


@dataclass
class DelbarInput:
    """Inputs of the holomorphic construction (Lorentzian space-like case)."""

    L0: float
    grid: Grid
    p: HolomorphicSpec
    r: float = 0.0
    lam: Optional[np.ndarray] = None      # defaults to the Liouville profile
    gamma: Optional[np.ndarray] = None    # defaults to 0


def liouville_profile(L0: float, grid: Grid) -> np.ndarray:
    """Closed-form solution of lam_uu + lam_vv + L0 exp(2 lam) = 0.

    0 for flat; the standard spherical / hyperbolic profiles otherwise.
    The negative-curvature profile lives on the open unit disk and a grid
    touching its boundary circle is rejected.
    """
    _check_unit_disk(L0, grid)
    return _liouville_funcs(L0)["lam"](*grid.mesh())


def _check_unit_disk(L0: float, grid: Grid):
    if L0 < 0.0:
        U, V = grid.mesh()
        if np.max(U**2 + V**2) >= 1.0:
            raise DomainViolation("grid reaches the singular unit circle "
                                  "of the negative-curvature profile")


def liouville_residual(lam: np.ndarray, L0: float, grid: Grid) -> np.ndarray:
    return d2_du(lam, grid) + d2_dv(lam, grid) + L0 * np.exp(2.0 * lam)


def _liouville_funcs(L0: float) -> dict:
    """Closed-form Liouville profile and its first/second derivatives."""
    if L0 == 0.0:
        z = lambda U, V: np.zeros_like(U)
        return {"lam": z, "lam_u": z, "lam_v": z, "lam_uu": z, "lam_vv": z}
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


def construct_delbar(inp: DelbarInput, tol: float = None) -> FundamentalData:
    """Fundamental data with vanishing dbar-derivative of the twistor lift.

    W and X come from the holomorphic p, the real parameter r and the
    conformal factors; Z := -W and Y := -X enforce the dbar condition
    identically.  Output satisfies the compatibility system with the
    given L0.
    """
    grid = inp.grid
    if tol is None:
        tol = grid.default_tol
    model = ambient_model(SurfaceCase.LOR_SPACE, inp.L0)

    if inp.lam is None and inp.gamma is None:
        # closed-form conformal factor: sample exactly and keep analytic
        # derivative providers so downstream residuals avoid FD error in lam
        _check_unit_disk(inp.L0, grid)
        lf = _liouville_funcs(inp.L0)

        def wx(U, V):
            w = U + 1j * V
            elam = np.exp(lf["lam"](U, V))
            half = 0.5 * inp.p(w) / elam
            iso = 0.5j * inp.r * elam
            return half + iso, half - iso

        return FundamentalData.from_functions(
            model, grid,
            lam=lf["lam"], lam_u=lf["lam_u"], lam_v=lf["lam_v"],
            lam_uu=lf["lam_uu"], lam_vv=lf["lam_vv"],
            alpha1=lambda U, V: wx(U, V)[1].imag,
            alpha2=lambda U, V: wx(U, V)[0].real,
            alpha3=lambda U, V: -wx(U, V)[0].imag,
            beta1=lambda U, V: -wx(U, V)[0].imag,
            beta2=lambda U, V: -wx(U, V)[0].real,
            beta3=lambda U, V: wx(U, V)[1].imag,
        )

    lam = inp.lam if inp.lam is not None else liouville_profile(inp.L0, grid)
    lam = np.asarray(lam, dtype=float)
    scale = max(1.0, float(np.max(np.exp(2.0 * lam))))
    check_residual(liouville_residual(lam, inp.L0, grid), tol * scale,
                   "Liouville equation of the conformal factor", error=LiouvilleViolated)
    gamma = np.zeros(grid.shape) if inp.gamma is None else np.asarray(inp.gamma, dtype=float)

    U, V = grid.mesh()
    pw = inp.p(U + 1j * V)
    half = 0.5 * pw * np.exp(gamma - lam)
    iso = 0.5j * inp.r * np.exp(lam - gamma)
    W = half + iso
    X = half - iso
    return FundamentalData(
        model=model, grid=grid, lam=lam,
        alpha1=X.imag, alpha2=W.real, alpha3=-W.imag,
        beta1=-W.imag, beta2=-W.real, beta3=X.imag,
        mu1=d_du(gamma, grid), mu2=d_dv(gamma, grid),
    )


def mean_curvature_and_isotropy(data: FundamentalData, delbar: DelbarInput = None,
                                tol: float = 1e-9) -> dict:
    """Mean-curvature components, light-like-sigma locus, and the
    reparametrized isotropy relation (Lorentzian space-like case).

    With ``delbar`` given (r = 0, p nowhere zero on the grid) the relation
    sigma(T1', T2') = eps * sigma(T1', T1') under the coordinate change
    with (dw'/dw)^2 = (1 - eps i) p / 2 is evaluated for eps = +-1.
    """
    if data.case is not SurfaceCase.LOR_SPACE:
        raise InvalidCase("mean curvature report is for the Lorentzian space-like case")
    e2l = data.e2l()
    H = ((data.alpha1 + data.alpha3) / (2.0 * np.sqrt(e2l)),
         (data.beta1 + data.beta3) / (2.0 * np.sqrt(e2l)))
    scale = np.maximum(1.0, np.abs(data.alpha1) ** 2 + np.abs(data.beta1) ** 2
                       + np.abs(data.alpha2) ** 2 + np.abs(data.beta2) ** 2)
    lightlike = ((np.abs(data.alpha1 ** 2 - data.beta1 ** 2) <= tol * scale)
                 & (np.abs(data.alpha2 ** 2 - data.beta2 ** 2) <= tol * scale))
    out = {"H": H, "sigma_lightlike": lightlike, "eps_relation": None}
    if delbar is None:
        return out

    U, V = data.grid.mesh()
    pw = delbar.p(U + 1j * V)
    if not np.min(np.abs(pw)) > tol:
        raise TotallyGeodesicRegion.at_worst(
            -np.abs(pw), "isotropy relation untestable where p vanishes", value=pw)
    # (2,0)- and (1,1)-parts of sigma in the (N1, N2) components
    s20 = (0.25 * ((data.alpha1 - data.alpha3) - 2j * data.alpha2),
           0.25 * ((data.beta1 - data.beta3) - 2j * data.beta2))
    s11 = (0.25 * (data.alpha1 + data.alpha3), 0.25 * (data.beta1 + data.beta3))
    report = {}
    for eps in (1, -1):
        c2 = 2.0 / ((1.0 - eps * 1j) * pw)
        res = 0.0
        for k in range(2):
            lhs = -2.0 * np.imag(c2 * s20[k])
            rhs = eps * (2.0 * np.real(c2 * s20[k]) + 2.0 * np.abs(c2) * s11[k])
            res = max(res, float(np.max(np.abs(lhs - rhs))))
        report[eps] = res
    out["eps_relation"] = report
    return out
