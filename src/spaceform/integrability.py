"""Residuals of the compatibility systems tying the fundamental data together.

The Gauss, Codazzi (four) and Ricci equations are the entries of the
zero-curvature condition S_v - T_u = ST - TS on the 5x5 connection
matrices, so one entry program derived from the connection tables
(``_lax_program``) gives both ``gcr_residuals`` (each equation's
LHS - RHS field) and ``lax_residual`` (their pointwise maximum norm).

``equivalence_check`` is the independent side: the Gauss-Ricci and two
Codazzi equations written in the twistor invariants W, X, Y, Z, and the
exact constant-coefficient combinations tying them to the scalar system.
Those hold identically on *any* data, solution or not, because both
families are evaluated from the same derivative jets.

Both systems, and the curvature residual of the twistor module, read only
the mixed jet: the u-derivatives of X, Z and phi and the v-derivatives of
W, Y and psi (``_MIXED_JET``), so ``field_jets`` differences only the
fields those invariants are made of (``_JET_TERMS``) along that axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .cases import SurfaceCase
from .fundamental import (
    CONNECTION_ROWS,
    CONNECTION_TABLES,
    FIELD_NAMES,
    FundamentalData,
    commutator_program,
    run_entry,
)
from .grids import d2_du_range, d2_dv, d_du_range, d_dv, row_blocks
from .twistor import (
    _INVARIANT_TERMS,
    CODAZZI_COEFFS,
    discriminants,
    invariant_field,
    invariant_fields,
    label_sign,
    partner_label,
)

# The mixed jet: the invariants the residuals differentiate along each axis,
# and the terms of those invariants (lam_u and lam_v among them).
_MIXED_JET = {"u": ("X", "Z", "phi"), "v": ("W", "Y", "psi")}
_JET_TERMS = {axis: tuple(dict.fromkeys(t for n in names for t in _INVARIANT_TERMS[n]))
              for axis, names in _MIXED_JET.items()}


@dataclass
class GCRResiduals:
    """Pointwise residual fields of the scalar compatibility system."""

    gauss: np.ndarray
    codazzi: tuple  # four arrays
    ricci: np.ndarray

    def max_abs(self) -> float:
        # np.max, unlike Python's max, keeps a NaN of any equation
        return float(np.max([np.max(np.abs(v)) for v in self.as_dict().values()]))

    def as_dict(self) -> dict:
        return {"gauss": self.gauss, "ricci": self.ricci,
                **{f"codazzi{k}": c for k, c in enumerate(self.codazzi, start=1)}}


# grid points per block of the residual programs and of the jets they read
_RESIDUAL_BLOCK = 1 << 14


def field_jets(data: FundamentalData, rows: slice = None) -> dict:
    """The fields, lam_u, lam_v, lam_uu, lam_vv, E = L0 e^{2 lam}, and the
    first derivatives of the mixed jet: the u-derivatives of the terms of
    X, Z and phi and the v-derivatives of the terms of W, Y and psi, keyed
    like 'alpha2_u' (``_JET_TERMS``; lam_uu and lam_vv stand for lam_u
    along u and lam_v along v).

    ``rows``, a slice of consecutive u rows, builds the jets of those rows
    alone, bit for bit the rows of the whole grid's (None): the
    u-differences come from the range kernels, which read only the rows
    around the block, and the v-differences and E from the block itself;
    exact lam derivatives in ``data.analytic`` are sliced.

    All residual evaluators share these jets so that linear combinations
    between residual families cancel to rounding error.
    """
    g = data.grid
    rows = slice(0, g.nu) if rows is None else rows
    start, stop, _ = rows.indices(g.nu)
    fields = data.fields
    j = {n: f[rows] for n, f in fields.items()}
    an = data.analytic
    for (u, du), (v, dv) in ((("lam_u", d_du_range), ("lam_v", d_dv)),
                             (("lam_uu", d2_du_range), ("lam_vv", d2_dv))):
        if u in an and v in an:
            j[u], j[v] = an[u][rows], an[v][rows]
        else:
            j[u], j[v] = du(data.lam, g, start, stop), dv(j["lam"], g)
    for n in _JET_TERMS["u"]:
        if n in FIELD_NAMES:
            j[n + "_u"] = d_du_range(fields[n], g, start, stop)
    for n in _JET_TERMS["v"]:
        if n in FIELD_NAMES:
            j[n + "_v"] = d_dv(j[n], g)
    j["E"] = data.model.L0 * np.exp(2.0 * j["lam"])
    return j


def jet_blocks(data: FundamentalData, jets: dict = None):
    """(rows, jets of those u rows) for each block of at most
    ``_RESIDUAL_BLOCK`` grid points: slices of ``jets`` when given (a
    caller that runs several residuals builds them once), else
    ``field_jets(data, rows)``, so no whole-grid jets are held."""
    for rows in row_blocks(data.grid.shape, _RESIDUAL_BLOCK):
        yield rows, (field_jets(data, rows) if jets is None
                     else {name: jet[rows] for name, jet in jets.items()})


def derivative_jets(j: dict, axis: str) -> dict:
    """The ``axis``-derivatives ('u' or 'v') in the jets ``j`` of the
    terms of the mixed jet's invariants along that axis, keyed by the
    undifferentiated names: X, Z and phi along u, W, Y and psi along v
    (see :func:`twistor.invariant_field`).

    lam_u maps to lam_uu and lam_v to lam_vv; the mixed lam_uv is never
    needed, since no residual reads psi_u or phi_v.
    """
    return {n: j[n + axis if n == "lam_" + axis else n + "_" + axis]
            for n in _JET_TERMS[axis]}


def _d(row: str, axis: str):
    """(factor, jet pair) of the ``axis``-derivative of a non-constant
    connection row: lam_u along v and lam_v along u are both lam_uv, and
    (L0 e^{2 lam})' = 2 E lam'."""
    if row == "E":
        return 2.0, ("E", "lam_" + axis)
    if row.startswith("lam_"):
        return 1.0, ("one", "lam_" + "".join(sorted(row[-1] + axis)))
    return 1.0, ("one", row + "_" + axis)


# Each equation of the zero-curvature system is named by the jet that has
# coefficient +1 in it; the same in every case.
_LEAD_JETS = {"gauss": "lam_uu", "codazzi1": "alpha1_v", "codazzi2": "alpha2_v",
              "codazzi3": "beta1_v", "codazzi4": "beta2_v", "ricci": "mu1_v"}


@cache
def _lax_program(case: SurfaceCase) -> dict:
    """Entry program of S_v - T_u - (ST - TS) from the nonzero entries of
    the case's connection tables, built on first use, as
    {equation: ((i, j), groups)} in ``_LEAD_JETS`` order.

    lam_uv enters S_v and T_u only on the diagonal, with opposite signs,
    and the derivative of E cancels against the commutator, so neither
    is in the program.  An entry equal to another or to its negative has
    the same absolute value, so only the first of each such pair is kept.
    Each kept entry is one equation, scaled so that its lead jet has
    coefficient +1; deriving fails unless the two match one to one.
    """
    S, T = {}, {}   # {(i, j): {row: coefficient}} of the nonzero table entries
    for M, table in zip((S, T), CONNECTION_TABLES[case]):
        for r, k in zip(*np.nonzero(table)):
            M.setdefault(divmod(int(k), 5), {})[CONNECTION_ROWS[r]] = float(table[r, k])
    linear = {}
    for M, axis, sign in ((S, "v", 1), (T, "u", -1)):
        for ij, entry in M.items():
            for row, c in entry.items():
                if row != "one":
                    f, pair = _d(row, axis)
                    linear.setdefault(ij, []).append((pair, sign * f * c))
    kept, seen = {}, set()
    for ij, groups in commutator_program(linear, T, S).items():
        flat = [(a, b, c) for a, bs in groups for b, c in bs]
        if frozenset(flat) not in seen:
            seen.update(frozenset((a, b, s * c) for a, b, c in flat) for s in (1, -1))
            kept[ij] = groups
    program = {}
    for eq, lead in _LEAD_JETS.items():
        found = [(ij, c) for ij, groups in kept.items()
                 for a, bs in groups if a == "one" for b, c in bs if b == lead]
        if len(found) != 1 or found[0][1] not in (1, -1):
            raise ValueError(f"{case.value}: {eq} ({lead}) is not one entry of the "
                             f"Lax program with coefficient +-1: {found}")
        ij, s = found[0]
        program[eq] = (ij, [(a, [(b, s * c) for b, c in bs]) for a, bs in kept.pop(ij)])
    if kept:
        raise ValueError(f"{case.value}: Lax entries {sorted(kept)} match no equation")
    return program


def gcr_residuals(data: FundamentalData, jets: dict = None) -> GCRResiduals:
    """LHS - RHS of the Gauss, Codazzi and Ricci equations of the case:
    the entries of the Lax program, each run one block of u rows at a time
    (``jet_blocks``) into its rows of its own (nu, nv) array.  Every step is
    elementwise, so the blocks change no bit."""
    program = _lax_program(data.case)
    res = {eq: np.empty(data.grid.shape) for eq in program}
    for rows, jb in jet_blocks(data, jets):
        tmp = np.empty_like(jb["E"])
        for eq, (_, groups) in program.items():
            run_entry(groups, jb, res[eq][rows], tmp)
    return GCRResiduals(gauss=res["gauss"], ricci=res["ricci"],
                        codazzi=tuple(res[f"codazzi{k}"] for k in range(1, 5)))


def lax_residual(data: FundamentalData, jets: dict = None) -> np.ndarray:
    """Max-norm field of S_v - T_u - (ST - TS), shape (nu, nv).

    One block of u rows at a time (``jet_blocks``), each entry of the
    residual that can set the maximum runs as a sparse program over the
    jets (see ``_lax_program``) into one block buffer, whose absolute
    value updates the block's rows of a running maximum; no 5x5 stack is
    formed, and the blocks change no bit.
    """
    program = _lax_program(data.case)
    out = np.zeros(data.grid.shape)
    for rows, jb in jet_blocks(data, jets):
        buf, tmp = np.empty_like(jb["E"]), np.empty_like(jb["E"])
        for _, groups in program.values():
            run_entry(groups, jb, buf, tmp)
            np.maximum(out[rows], np.abs(buf, out=buf), out=out[rows])
    return out


# Gauss-Ricci residual Rgr = Delta + sE*E + sE*phi_u + sPsi*psi_v per case,
# with psi from the partner family.
_GAUSS_RICCI_SIGNS = {
    SurfaceCase.RIEM: (-1, -1),
    SurfaceCase.NEUT_SPACE: (1, 1),
    SurfaceCase.NEUT_TIME: (1, -1),
    SurfaceCase.LOR_SPACE: (-1, -1),
    SurfaceCase.LOR_TIME: (1, -1),
}


def _family_residuals(case: SurfaceCase, j: dict):
    """Gauss-Ricci and Codazzi residuals written in the twistor invariants.

    Returns {label: (Rgr, C1, C2)} with labels '+', '-' for real cases and
    '' (complex-valued) for Lorentzian ones, evaluated on the shared jets.
    The invariants are linear in the fields, so the derivative jets give
    their derivatives; each family builds only the mixed jet it reads:
    its own X_u, phi_u and Y_v and its partner's W_v, psi_v and Z_u.
    """
    inv = invariant_fields(case, j)
    ju, jv = derivative_jets(j, "u"), derivative_jets(j, "v")
    delta = discriminants(case, inv)
    sE, sPsi = _GAUSS_RICCI_SIGNS[case]
    out = {}
    for label, (_, X, Y, _, phi, _) in inv.items():
        p = partner_label(case, label)
        W, _, _, Z, _, psi = inv[p]
        X_u, phi_u, Z_u = (invariant_field(case, ju, n, f)
                           for n, f in (("X", label), ("phi", label), ("Z", p)))
        Y_v, W_v, psi_v = (invariant_field(case, jv, n, f)
                           for n, f in (("Y", label), ("W", p), ("psi", p)))
        a, b, c, e, _ = CODAZZI_COEFFS[case](label_sign(label))
        Rgr = delta[label] + sE * j["E"] + sE * phi_u + sPsi * psi_v
        C1 = Y_v + c * X_u - (a * W * phi - Z * psi)
        C2 = W_v + e * Z_u - (b * Y * phi - X * psi)
        out[label] = (Rgr, C1, C2)
    return out


# Combination coefficients: for family label s, the identities are
#   Rgr = cg*gauss + cr*ricci,   C1 = x1*cod1 + x4*cod4,   C2 = y2*cod2 + y3*cod3
# (fixed beforehand by a brute-force solve on symbolic jets).
_COMBOS = {
    SurfaceCase.RIEM: lambda s: ((-1, -s), (s, 1), (1, -s)),
    SurfaceCase.NEUT_SPACE: lambda s: ((1, s), (s, 1), (1, -s)),
    SurfaceCase.NEUT_TIME: lambda s: ((1, s), (s, 1), (1, s)),
    SurfaceCase.LOR_SPACE: lambda s: ((-1, -1j), (-1j, 1), (1, -1j)),
    SurfaceCase.LOR_TIME: lambda s: ((1, 1j), (-1j, 1), (1, 1j)),
}


def equivalence_check(data: FundamentalData, jets: dict = None) -> dict:
    """Residuals of the exact identities relating the two residual families.

    Returns a dict of max-abs-zero fields keyed 'gaussricci<s>',
    'codazzi1<s>', 'codazzi2<s>'; values are ~1e-14 on any data since
    both families are linear images of one derivative jet.

    Both families and their combinations run on one block of u rows at a
    time (``jet_blocks``), written into the outputs.  Every step is
    elementwise, so the blocks change no bit.
    """
    case = data.case
    program = _lax_program(case)
    out = {}
    for rows, jb in jet_blocks(data, jets):
        tmp = np.empty_like(jb["E"])
        scalar = {eq: run_entry(groups, jb, np.empty_like(tmp), tmp)
                  for eq, (_, groups) in program.items()}
        for label, (Rgr, C1, C2) in _family_residuals(case, jb).items():
            (cg, cr), (x1, x4), (y2, y3) = _COMBOS[case](label_sign(label))
            for name, res in (
                    ("gaussricci", Rgr - (cg * scalar["gauss"] + cr * scalar["ricci"])),
                    ("codazzi1", C1 - (x1 * scalar["codazzi1"] + x4 * scalar["codazzi4"])),
                    ("codazzi2", C2 - (y2 * scalar["codazzi2"] + y3 * scalar["codazzi3"]))):
                out.setdefault(name + label, np.empty(data.grid.shape, res.dtype))[rows] = res
    return out
