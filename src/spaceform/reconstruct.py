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
    _S_ENTRIES,
    _T_ENTRIES,
    CONNECTION_TABLES,
    FIELD_NAMES,
    FundamentalData,
    SpaceFormModel,
    ambient_model,
    apply_table,
    canonical_frame,
    connection_rows,
    validate_frame,
)
from .grids import Grid, d2_du, d2_dv, d_du, d_dv, half_samples_range, row_blocks
from .twistor import (
    _INVARIANT_TERMS,
    InvariantFamily,
    TwistorInvariants,
    ab_functions,
    discriminants,
    family_labels,
    invariant_field,
    partner_label,
)


@dataclass
class FrameField:
    """Ambient frames (T1, T2, N1, N2, F) at every grid point.

    ``frames`` has shape (nu, nv, n, 5) with n = 4 (flat ambient, F is the
    position column) or 5; integrate_frame returns it as one C-contiguous,
    u-major array.  ``diagnostics`` records constraint drift and
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


# midpoint values per block of an integration sweep's interpolated rows
_MIDPOINT_BLOCK = 1 << 14
# grid points per block of frame_drift's Gram matrices
_DRIFT_BLOCK = 1 << 10
# grid points per block of extract_fundamental's Gram factorisation
_GRAM_BLOCK = 1 << 13


def _extracted_terms() -> tuple:
    """For the frame columns T1, T2 and N1: (axis, {field: dual row}) of the
    +1 entries S[2:4, c] of Y^{-1} Y_u, then T[2:4, c] of Y^{-1} Y_v, that
    carry fields, each where it first occurs; dual rows 0, 1 are rows 2, 3."""
    columns, seen = [{} for _ in range(3)], set()
    for axis, entries in (("u", _S_ENTRIES), ("v", _T_ENTRIES)):
        for i, c, name in entries:
            if i >= 2 and c <= 2 and name in FIELD_NAMES and name not in seen:
                seen.add(name)
                columns[c].setdefault(axis, {})[name] = i - 2
    return tuple(tuple(col.items()) for col in columns)


def _rk4_steps(Y0, rows, table, h):
    """March Y' = Y M along one axis; yield Y0 (..., n, 5), then the frame
    after each step.

    ``rows`` (m, 12, ...) holds the stacked field vector at the m nodes,
    step axis first.  The midpoint rows are interpolated from the node
    rows around them (grids.half_samples_range) for a block of steps at a
    time, at most _MIDPOINT_BLOCK values, which moves no bit and keeps the
    per-step overhead of short rows small.  Each step builds only its own
    matrices, M = apply_table(rows[i], table), and carries the end matrix
    forward as the next step's start.
    """
    y = Y0
    yield y
    b = apply_table(rows[0], table)
    for steps in row_blocks((rows.shape[0] - 1, rows[0].size), _MIDPOINT_BLOCK):
        mids = half_samples_range(rows, steps.start, steps.stop)
        for i, mid in enumerate(mids, steps.start):
            a, m, b = b, apply_table(mid, table), apply_table(rows[i + 1], table)
            k1 = y @ a
            k2 = (y + 0.5 * h * k1) @ m
            k3 = (y + 0.5 * h * k2) @ m
            k4 = (y + h * k3) @ b
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            yield y


def _max_discrepancy(steps, ref) -> float:
    """max |y_i - ref[i]| over the frames y_i of a sweep, kept as a running
    maximum; np.maximum keeps a NaN step, as np.max over them all would."""
    worst = 0.0
    for i, y in enumerate(steps):
        worst = np.maximum(worst, np.max(np.abs(y - ref[i])))
    return float(worst)


def _frame_rows(data: FundamentalData):
    """Stacked field vectors at the nodes, step axis first, for the two
    sweep directions: along u, (nu, 12, nv), and along v, (nv, 12, nu).

    The u array is a step-first view of the (12, nu, nv) stack; the v
    array is a contiguous copy, so each v-step, which marches every column
    at once, reads one block.  The rows use 4th-order lam derivatives (or
    the exact ones the data carries); the sweeps interpolate each step's
    midpoint rows cubically from them, which keeps the 4th-order step.
    """
    rows = connection_rows(data, order=4)
    return np.moveaxis(rows, 1, 0), np.ascontiguousarray(np.moveaxis(rows, 2, 0))


def integrate_frame(data: FundamentalData, init: np.ndarray = None,
                    check_transposed: bool = False) -> FrameField:
    """Integrate the moving frame over the grid from its value at (u0, v0).

    Classical 4th-order steps: first along the v = v0 row using S, then
    along every u-column using T.  Diagnostics report the frame-constraint
    drift, the residual of re-integrating the final row by S, and (on
    request) the max discrepancy against the transposed integration path.
    Both discrepancies are running maxima over their sweep's steps, so the
    second path is never stored; a NaN step makes them NaN.  S and T are
    never stored over the grid either: each step applies the case table to
    the field rows of its own nodes and midpoint, and the midpoint rows are
    interpolated from the node rows around them a few steps at a time
    (see _rk4_steps), on sampled and CSV data alike.  The working memory
    beyond the frames is the two node stacks of _frame_rows, one per sweep
    direction.
    ``init`` must meet the case normalization to 1e-8 of max(1, e^{2 lam});
    a NaN in it fails that gate.
    """
    model = data.model
    lam0 = float(data.lam[0, 0])
    if init is None:
        init = canonical_frame(model, lam0=lam0)
    init = np.asarray(init, dtype=float)
    if init.shape != (model.ambient_dim, 5):
        raise InvalidInitialFrame(
            f"initial frame must be {model.ambient_dim}x5, got {init.shape}")
    check_residual(validate_frame(init, lam0, data.case, L0=model.L0),
                   1e-8 * max(1.0, np.exp(2 * lam0)),
                   "initial frame case normalization", error=InvalidInitialFrame)

    u_rows, v_rows = _frame_rows(data)
    S_table, T_table = CONNECTION_TABLES[data.case]
    g = data.grid

    # u-sweep along the first row, then v-sweeps for all columns at once,
    # written column by column into u-major frames
    row = np.array(list(_rk4_steps(init, u_rows[..., 0], S_table, g.du)))
    frames = np.empty((g.nu, g.nv) + init.shape)
    for j, y in enumerate(_rk4_steps(row, v_rows, T_table, g.dv)):
        frames[:, j] = y
    if not np.all(np.isfinite(frames)):
        raise NonFiniteState("frame integration produced non-finite values")

    diagnostics = {"drift": frame_drift(frames, data),
                   "cross_consistency": _max_discrepancy(
                       _rk4_steps(frames[0, -1], u_rows[..., -1], S_table, g.du),
                       frames[:, -1])}
    if check_transposed:
        col = np.array(list(_rk4_steps(init, v_rows[..., 0], T_table, g.dv)))
        diagnostics["transposed_discrepancy"] = _max_discrepancy(
            _rk4_steps(col, u_rows, S_table, g.du), frames)
    return FrameField(model=model, grid=g, frames=frames, diagnostics=diagnostics)


def frame_drift(frames: np.ndarray, data: FundamentalData) -> float:
    """Max violation of the frame inner-product constraints over the grid.

    The (..., 4, 4) Gram matrices are formed a block of u rows at a time.
    """
    eta = np.asarray(data.model.ambient, dtype=float)
    signs = np.asarray(COLUMN_SIGNS[data.case], dtype=float)
    e2l = data.e2l()
    diag = np.arange(4)
    drift = 0.0
    for rows in row_blocks(frames.shape, _DRIFT_BLOCK):
        cols = frames[rows, ..., :4]
        gram = np.swapaxes(cols, -1, -2) @ (eta[:, None] * cols)
        gram[..., diag, diag] -= signs * e2l[rows, :, None]
        drift = np.maximum(drift, np.max(np.abs(gram)))
    if data.model.L0 != 0.0:
        f = frames[..., 4]
        drift = np.maximum(drift, np.max(np.abs(
            np.einsum("...a,a,...a->...", f, eta, f) - 1.0 / data.model.L0)))
    return float(drift)


def _frame_duals(Y: np.ndarray, eta: np.ndarray):
    """Rows 2 and 3 of the inverse of every square frame Y (nu, nv, n, n),
    the dual rows, as (2, n, nu, nv) component planes; with them
    <T1, T1> = e^{2 lam} and the smallest pivot ratio |d_k| / |G_kk| as
    (nu, nv) planes.

    With the Gram matrix G = Y^t eta Y, Y^{-1} = G^{-1} Y^t eta, so row r is
    w_r = sum_c x_c eta Y_c where G x = e_r.  G = L D L^t is factored
    without pivoting, entry by entry on the component planes of a block of
    u rows; a zero column gives a 0/0 = NaN ratio.
    """
    nu, nv, n = Y.shape[:3]
    duals = np.empty((2, n, nu, nv))
    e2l = np.empty((nu, nv))
    ratio = np.empty((nu, nv))
    for rows in row_blocks(Y.shape, _GRAM_BLOCK):
        cols = np.ascontiguousarray(np.transpose(Y[rows], (3, 2, 0, 1)))
        ecols = eta[:, None, None] * cols
        gram = lambda k, j: np.einsum("a...,a...->...", ecols[k], cols[j])
        # row k of the factors: t_kj = L_kj d_j and L_kj for j < k, then d_k
        L, t, d, diag = [], [], [], []
        for k in range(n):
            L.append([])
            t.append([])
            for j in range(k):
                tkj = gram(k, j)
                for m in range(j):
                    tkj -= L[k][m] * t[j][m]
                t[k].append(tkj)
                L[k].append(tkj / d[j])
            diag.append(gram(k, k))
            d.append(diag[k] - sum(L[k][m] * t[k][m] for m in range(k)))
        e2l[rows] = diag[0]
        ratio[rows] = np.min([np.abs(d[k]) / np.abs(diag[k]) for k in range(n)], axis=0)
        for r in (2, 3):
            # L z = e_r, then L^t x = D^{-1} z
            z = {r: 1.0}
            for k in range(r + 1, n):
                z[k] = -sum(L[k][j] * z[j] for j in range(r, k))
            x = [None] * n
            for k in reversed(range(n)):
                x[k] = z.get(k, 0.0) / d[k]
                for j in range(k + 1, n):
                    x[k] -= L[j][k] * x[j]
            w = duals[r - 2, :, rows]
            np.multiply(x[0], ecols[0], out=w)
            for c in range(1, n):
                w += x[c] * ecols[c]
    return duals, e2l, ratio


def extract_fundamental(frames: FrameField) -> FundamentalData:
    """Recover fundamental data from a frame field.

    lam comes from the squared norm of T1; the remaining fields are read
    off the connection matrices S = Y^{-1} Y_u and T = Y^{-1} Y_v of the
    square frame Y (columns T1, T2, N1, N2, plus F when curved), with
    4th-order differences on the frames.  Only rows 2 and 3 of S and T
    carry fields.  Those rows of Y^{-1} come from an elementwise L D L^t
    factorisation of the Gram matrix Y^t eta Y (see _frame_duals), exact
    to rounding.  Each differenced frame column is copied once into
    contiguous component planes, and each field is the contraction of one
    dual row with one of its differences.

    Two gates raise DegenerateFrame at the first NaN, else the worst grid
    index: a tangent norm e^{2 lam} below 1e-12 ("tangent norm below
    threshold"), then a Gram pivot ratio |d_k| / |G_kk| below 1e-12
    ("singular frame"), which a zero or non-finite column makes NaN.
    """
    model = frames.model
    g = frames.grid
    Y = frames.frames
    if Y.shape[-2] != model.ambient_dim:
        raise DimensionMismatch(
            f"frame vectors of dimension {Y.shape[-2]} vs ambient {model.ambient_dim}")
    eta = np.asarray(model.ambient, dtype=float)
    # In the flat case the fifth column is the position, not a frame
    # vector; the frame columns alone span the ambient space either way.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        duals, e2l, ratio = _frame_duals(Y[..., :model.ambient_dim], eta)
    if not np.min(e2l) >= 1e-12:
        raise DegenerateFrame.at_worst(-e2l, "tangent norm below threshold", value=e2l)
    if not np.min(ratio) >= 1e-12:
        raise DegenerateFrame.at_worst(-ratio, "singular frame", value=ratio)
    lam = 0.5 * np.log(e2l)
    del e2l, ratio

    fields = {}
    for c, terms in enumerate(_extracted_terms()):
        planes = np.ascontiguousarray(np.moveaxis(Y[..., c], -1, 0))
        for a, plane in enumerate(planes):
            for axis, rows in terms:
                dp = (d_du if axis == "u" else d_dv)(plane, g, order=4)
                for name, r in rows.items():
                    if a == 0:
                        fields[name] = duals[r, a] * dp
                    else:
                        fields[name] += duals[r, a] * dp
    return FundamentalData(model=model, grid=g, lam=lam, **fields)


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


# the cases with a wxyz construction
WXYZ_CASES = (SurfaceCase.RIEM, SurfaceCase.LOR_SPACE)


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


def _fields_from_invariants(case: SurfaceCase, fams: dict) -> dict:
    """The fields that the invariants {label: {name: values}} name, each read
    from the first of them that names it (twistor._INVARIANT_TERMS): family
    '+' is first + k second and family '-', or the conjugate of the complex
    family, first - k second, with k = invariant_field(case, {first: 0,
    second: 1}, name, '+').  The real families take (minus - plus) / 2 where
    k < 0 and the complex family Im n / Im k, which keep the zeros' signs."""
    labels = family_labels(case)
    fields = {}
    for name, n in fams[labels[0]].items():
        first, second = _INVARIANT_TERMS[name]
        m = fams[labels[-1]][name]
        if first not in fields:
            fields[first] = n.real if case.is_lorentzian else (n + m) / 2
        if second not in fields:
            k = invariant_field(case, {first: 0, second: 1}, name, labels[0])
            fields[second] = (n.imag / k.imag if case.is_lorentzian
                              else ((n - m) if k > 0 else (m - n)) / 2)
    return fields


def _pair(case: SurfaceCase, q: dict) -> tuple:
    """(family '+', family '-') of the values {label: values}; in the
    Lorentzian cases the complex family and its conjugate."""
    plus, *minus = (q[label] for label in family_labels(case))
    return plus, (minus[0] if minus else np.conj(plus))


def construct_from_wxyz_flat(inv, case: SurfaceCase, grid: Grid) -> FundamentalData:
    """Fundamental data in a flat ambient from prescribed W, X, Y, Z fields.

    Implements the nondegenerate flat construction for the Riemannian and
    Lorentzian space-like cases: the L0 = 0 case of the curved one, where
    f = Delta - A_u - B_v must vanish.  ``inv`` is a TwistorInvariants or a
    {label: family} mapping carrying W, X, Y, Z per family.
    """
    return _construct_wxyz(inv, 0.0, case, grid)


def construct_from_wxyz_curved(inv, L0: float, case: SurfaceCase, grid: Grid) -> FundamentalData:
    """Fundamental data in a curved ambient (L0 != 0) from W, X, Y, Z fields.

    With f = Delta - A_u - B_v, the conformal factor satisfies
    lam = log(f / L0) / 2; requires f / L0 > 0 and the displayed
    constraints on f and Delta.  lam is integrated from its gradient
    (f_u / 2f, f_v / 2f), as in the flat construction, and only its
    additive constant is taken from log(f / L0) / 2.
    """
    if L0 == 0.0:
        raise InvalidCase("curved construction needs L0 != 0")
    return _construct_wxyz(inv, L0, case, grid)


def _construct_wxyz(inv, L0: float, case: SurfaceCase, grid: Grid) -> FundamentalData:
    """The wxyz construction in an ambient of curvature L0, where
    f = Delta - A_u - B_v = L0 exp(2 lam): f vanishes in the flat case and
    fixes the additive constant of lam otherwise.  Each identity is one
    expression over the family pair (_pair), with B of the partner family
    in f, and bounded by grid.default_tol at the data's scale."""
    if case not in WXYZ_CASES:
        raise InvalidCase(f"no wxyz construction in the {case.value} case")
    tol = grid.default_tol
    tinv = _coerce_invariants(inv, case, grid)
    labels = family_labels(case)
    fams = {label: {n: getattr(f, n) for n in "WXYZ"} for label, f in tinv.families.items()}
    # W+ and W-, or W and conj(W), in messages
    names = lambda s: (s, f"conj({s})") if case.is_lorentzian else (s + "+", s + "-")
    for a, b in (("W", "X"), ("Y", "Z")):
        (ap, am), (bp, bm) = (_pair(case, {lab: fams[lab][n] for lab in labels}) for n in (a, b))
        check_residual(ap + am - bp - bm, tol, "{} + {} = {} + {}".format(*names(a), *names(b)))
    A, B = ab_functions(tinv)

    # order-4 derivatives keep f consistent with the solver that produced A and B
    d4u = lambda x: d_du(x, grid, order=4)
    d4v = lambda x: d_dv(x, grid, order=4)
    fp, fm = _pair(case, {label: tinv.families[label].delta - d4u(A[label])
                          - d4v(B[partner_label(case, label)]) for label in labels})
    f = fp.real
    scale = max(1.0, float(np.max(np.abs(f))))
    check_residual(fp - fm, tol * scale, "{} = {}".format(*names("f")))
    if L0 == 0.0:
        # Delta must be exhausted by the derivative divergence
        delta = tinv.families[labels[0]].delta
        check_residual(f, tol * max(1.0, float(np.max(np.abs(delta)))), "A_u + B_v = Delta")
    else:
        for axis, d4, sym, ab in (("u", d4u, "A", A), ("v", d4v, "B", B)):
            check_residual(d4(f) - f * np.add(*_pair(case, ab)).real, tol * scale,
                           "f_{} = f ({} + {})".format(axis, *names(sym)))
        ratio = f / L0
        if not np.min(ratio) > 0.0:
            raise SignMismatch.at_worst(-ratio, "f / L0 must be positive", value=ratio)
    fields = _fields_from_invariants(
        case, {label: {**fams[label], "phi": A[label], "psi": B[label]} for label in labels})
    # log(f / L0) carries grid-scale roughness that the curvature stencils
    # of downstream checks amplify; its gradient f_u / 2f = (A + conj(A)) / 2
    # does not
    P, Q = fields.pop("lam_u"), fields.pop("lam_v")
    lam = integrate_potential(P, Q, grid, tol=tol * max(1.0, float(np.max(np.abs(P)))))
    if L0 != 0.0:
        lam += np.mean(0.5 * np.log(f / L0) - lam)
    return FundamentalData(model=ambient_model(case, L0), grid=grid, lam=lam, **fields)


@dataclass(frozen=True)
class HolomorphicSpec:
    """Polynomial holomorphic function p(w), ascending complex coefficients."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

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
    # the spherical (k = 1) and hyperbolic (k = -1) profiles, with
    # q = 1 + k (u^2 + v^2)
    k = 1.0 if L0 > 0.0 else -1.0
    q = lambda U, V: 1.0 + k * U**2 + k * V**2
    return {
        "lam": lambda U, V: np.log(2.0 / (np.sqrt(k * L0) * q(U, V))),
        "lam_u": lambda U, V: -2.0 * k * U / q(U, V),
        "lam_v": lambda U, V: -2.0 * k * V / q(U, V),
        "lam_uu": lambda U, V: (-2.0 * k * q(U, V) + 4.0 * U**2) / q(U, V) ** 2,
        "lam_vv": lambda U, V: (-2.0 * k * q(U, V) + 4.0 * V**2) / q(U, V) ** 2,
    }


def construct_delbar(inp: DelbarInput) -> FundamentalData:
    """Fundamental data with vanishing dbar-derivative of the twistor lift.

    W and X come from the holomorphic p, the real parameter r and the
    conformal factors; Z := -W and Y := -X enforce the dbar condition
    identically.  Output satisfies the compatibility system with the
    given L0.  Without a given lam the closed-form Liouville profile is
    sampled and its exact derivatives are attached; a given lam must
    solve the Liouville equation to grid.default_tol at its scale.
    """
    grid = inp.grid
    U, V = grid.mesh()
    analytic = {}
    if inp.lam is None:
        _check_unit_disk(inp.L0, grid)
        lf = _liouville_funcs(inp.L0)
        lam = lf["lam"](U, V)
        analytic = {n: lf[n](U, V) for n in ("lam_u", "lam_v", "lam_uu", "lam_vv")}
    else:
        lam = np.asarray(inp.lam, dtype=float)
        scale = max(1.0, float(np.max(np.exp(2.0 * lam))))
        check_residual(liouville_residual(lam, inp.L0, grid), grid.default_tol * scale,
                       "Liouville equation of the conformal factor", error=LiouvilleViolated)
    gamma = np.zeros(grid.shape) if inp.gamma is None else np.asarray(inp.gamma, dtype=float)

    pw = inp.p(U + 1j * V)
    elam = np.exp(lam - gamma)
    half = 0.5 * pw / elam
    iso = 0.5j * inp.r * elam
    W = half + iso
    X = half - iso
    case = SurfaceCase.LOR_SPACE
    fields = _fields_from_invariants(
        case, dict.fromkeys(family_labels(case), {"W": W, "X": X, "Y": -X, "Z": -W}))
    return FundamentalData(model=ambient_model(case, inp.L0), grid=grid, lam=lam,
                           mu1=d_du(gamma, grid), mu2=d_dv(gamma, grid),
                           analytic=analytic, **fields)


def mean_curvature_and_isotropy(data: FundamentalData, delbar: DelbarInput = None) -> dict:
    """Mean-curvature components, light-like-sigma locus, and the
    reparametrized isotropy relation (Lorentzian space-like case).

    With ``delbar`` given (r = 0, p nowhere zero on the grid) the relation
    sigma(T1', T2') = eps * sigma(T1', T1') under the coordinate change
    with (dw'/dw)^2 = (1 - eps i) p / 2 is evaluated for eps = +-1.  The
    light-like test and the p = 0 gate use the bound 1e-9.
    """
    if data.case is not SurfaceCase.LOR_SPACE:
        raise InvalidCase("mean curvature report is for the Lorentzian space-like case")
    tol = 1e-9
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
            # np.maximum keeps a NaN residual, which Python's max would drop
            res = np.maximum(res, np.max(np.abs(lhs - rhs)))
        report[eps] = float(res)
    out["eps_relation"] = report
    return out
