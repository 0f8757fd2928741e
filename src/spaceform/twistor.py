"""Twistor invariants, the induced connection on self-dual bivectors,
curvature and degeneracy diagnostics, and the dbar condition.

Real cases carry two invariant families labelled '+' and '-'; Lorentzian
cases carry one complex family labelled ''.  Each family comes with the
3x3 matrices of the induced covariant derivatives along T1, T2 in its
self-dual frame, projected from the connection tables' derivations
(``geomcore.selfdual_projection``), and the discriminant Delta whose
vanishing marks degeneracy of the twistor lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .cases import COLUMN_SIGNS, FRAME_ORDER, SurfaceCase
from .errors import DegenerateDelta, FrameNormalizationError, InvalidCase, check_residual
from .fundamental import (CONNECTION_ROWS, CONNECTION_TABLES, FundamentalData,
                          commutator_program, run_entry)
from .grids import Grid, d_du, d_dv
from .geomcore import bivector_derivation, label_sign, selfdual_projection

DELTA_THRESHOLD_FACTOR = 1e-10


@dataclass
class InvariantFamily:
    """One labelled family of twistor invariants on the grid."""

    W: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    delta: np.ndarray


@dataclass
class TwistorInvariants:
    case: SurfaceCase
    grid: Grid
    lam: np.ndarray
    families: dict  # {'+': ..., '-': ...} or {'': ...}


def family_labels(case: SurfaceCase):
    return ("",) if case.is_lorentzian else ("+", "-")


def partner_label(case: SurfaceCase, label: str) -> str:
    """The family whose W, Z and psi pair with family ``label`` in Delta
    and in the Codazzi equations.

    The opposite family in the Riemannian and neutral space-like cases,
    the family itself otherwise.
    """
    if case in (SurfaceCase.RIEM, SurfaceCase.NEUT_SPACE):
        return "-" if label == "+" else "+"
    return label


# Each invariant is first + c * second or first - c * second (the sign
# below), with c = 1j in the Lorentzian cases and the family sign otherwise.
_INVARIANT_TERMS = {"W": ("alpha2", "beta1"), "X": ("alpha2", "beta3"),
                    "Y": ("beta2", "alpha1"), "Z": ("beta2", "alpha3"),
                    "phi": ("lam_u", "mu2"), "psi": ("lam_v", "mu1")}
_INVARIANT_SIGNS = {
    SurfaceCase.LOR_SPACE: {"W": -1, "X": 1, "Y": -1, "Z": 1, "phi": -1, "psi": 1},
    SurfaceCase.LOR_TIME: {"W": 1, "X": 1, "Y": -1, "Z": -1, "phi": -1, "psi": -1},
}
_REAL_INVARIANT_SIGNS = {"W": 1, "X": 1, "Y": 1, "Z": 1, "phi": -1, "psi": -1}
_INVARIANT_NAMES = tuple(_INVARIANT_TERMS)


def invariant_field(case: SurfaceCase, f: dict, name: str, label: str):
    """Invariant ``name`` (W, X, Y, Z, phi or psi) of family ``label`` from
    the fields in ``f``: alpha1..3, beta1..3, mu1, mu2, lam_u and lam_v.

    The map is linear, so applied to the u- or v-derivatives of those
    fields it yields the u- or v-derivative of the invariant.
    """
    first, second = _INVARIANT_TERMS[name]
    c = 1j if case.is_lorentzian else label_sign(label)
    if _INVARIANT_SIGNS.get(case, _REAL_INVARIANT_SIGNS)[name] > 0:
        return f[first] + c * f[second]
    return f[first] - c * f[second]


def invariant_fields(case: SurfaceCase, f: dict) -> dict:
    """{label: (W, X, Y, Z, phi, psi)} of the case from the fields in ``f``
    (see :func:`invariant_field`)."""
    return {label: tuple(invariant_field(case, f, n, label) for n in _INVARIANT_NAMES)
            for label in family_labels(case)}


def discriminants(case: SurfaceCase, fams: dict) -> dict:
    """{label: Delta} from {label: (W, X, Y, Z, ...)}."""
    out = {}
    for label, (W, X, Y, Z, *_) in fams.items():
        if case is SurfaceCase.LOR_TIME:
            out[label] = W * X + Y * Z
        elif case in (SurfaceCase.NEUT_TIME, SurfaceCase.LOR_SPACE):
            out[label] = W * X - Y * Z
        else:
            Wp, _, _, Zp, *_ = fams[partner_label(case, label)]
            out[label] = Wp * X + Y * Zp
    return out


def twistor_invariants(data: FundamentalData) -> TwistorInvariants:
    """The W, X, Y, Z, phi, psi fields and discriminant Delta per family."""
    f = data.fields
    f["lam_u"], f["lam_v"] = data.lam_derivatives()
    fams = invariant_fields(data.case, f)
    deltas = discriminants(data.case, fams)
    return TwistorInvariants(case=data.case, grid=data.grid, lam=data.lam,
                             families={label: InvariantFamily(*fam, deltas[label])
                                       for label, fam in fams.items()})


# (i, j) before (j, i): commutator_program sums in insertion order
_HAT_ORDER = ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (0, 0), (1, 1), (2, 2))


@cache
def _hat_matrices(case: SurfaceCase, label: str) -> tuple:
    """(M1, M2) of family ``label`` as {(i, j): {jet name: coefficient}};
    the jet of symbol X of family '+' is 'X+' and its u-derivative 'X+_u'.

    M1 (M2) is the block on the family's self-dual frame of the derivation
    of the normalized frame's connection along u (v): the 4x4 block of S
    (T) in FRAME_ORDER, without the diagonal lam_u (lam_v) that the
    normalization removes.  Each entry must be one invariant times +-1 or
    +-1j, else ValueError.
    """
    order = [("T1", "T2", "N1", "N2").index(name) for name in FRAME_ORDER[case]]
    # each row as its unit vector, so an invariant comes out as its coefficients
    basis = dict(zip(CONNECTION_ROWS, np.eye(len(CONNECTION_ROWS))))
    invariants = {n + fam: invariant_field(case, basis, n, fam)
                  for fam in family_labels(case) for n in _INVARIANT_NAMES}
    coefficients = (1.0, -1.0, 1j, -1j) if case.is_lorentzian else (1.0, -1.0)
    mats = ({}, {})
    for M, table in zip(mats, CONNECTION_TABLES[case]):
        omega = table.reshape(-1, 5, 5)[:, order][:, :, order] * (1 - np.eye(4))
        block, _ = selfdual_projection(case, label, bivector_derivation(omega))
        for i, j in _HAT_ORDER:
            v = block[:, i, j]
            if np.max(np.abs(v)) <= 1e-12:
                continue
            found = [(name, c) for name, x in invariants.items() for c in coefficients
                     if np.max(np.abs(v - c * x)) <= 1e-12]
            if len(found) != 1:
                raise ValueError(f"{case.value}: hat entry {(i, j)} of family {label!r} "
                                 f"is not one invariant times +-1 or +-1j: {found}")
            M[(i, j)] = dict(found)
    return mats


def hat_connection_matrices(data: FundamentalData, inv: TwistorInvariants = None) -> dict:
    """{label: (M1, M2)} of shape grid + (3, 3) per invariant family.

    M1 and M2 are the induced covariant derivatives along T1 and T2 in the
    family's self-dual frame (the mixed triple in the neutral cases, the
    conjugate one in the Lorentzian time-like case); see ``_hat_matrices``.
    """
    if inv is None:
        inv = twistor_invariants(data)
    case = data.case
    jets = {n + label: getattr(f, n) for label, f in inv.families.items() for n in _INVARIANT_NAMES}
    out = {}
    for label in family_labels(case):
        mats = np.zeros((2, 3, 3) + data.grid.shape,
                        dtype=complex if case.is_lorentzian else float)
        for m, M in enumerate(_hat_matrices(case, label)):
            for (i, j), entry in M.items():
                ((name, c),) = entry.items()
                np.multiply(jets[name], c, out=mats[m, i, j])
        out[label] = tuple(np.moveaxis(mats, (1, 2), (-2, -1)))
    return out


def curvature_structure(case: SurfaceCase, label: str) -> np.ndarray:
    """3x3 matrix M with curvature RHS = L0 exp(2 lam) * M per family.

    Computed from the constant-curvature ambient: R(T1,T2) acts on the
    frame as a rank-2 rotation/boost generator, which induces a
    derivation on bivectors; M is its matrix in the family's frame.
    """
    order = FRAME_ORDER[case]
    p1, p2 = order.index("T1"), order.index("T2")
    s1, s2 = COLUMN_SIGNS[case][:2]
    rho = np.zeros((4, 4))
    rho[p1, p2] = s2
    rho[p2, p1] = -s1
    m, leak = selfdual_projection(case, label, bivector_derivation(rho))
    if np.max(np.abs(leak)) > 1e-12:
        raise FrameNormalizationError("curvature derivation leaks across eigenspaces")
    return m if case.is_lorentzian else m.real


@cache
def _curvature_program(case: SurfaceCase, label: str) -> dict:
    """Entry program of M2_u - M1_v + [M1, M2] - E C for family ``label``,
    with C the curvature structure matrix, built on first use."""
    M1, M2 = _hat_matrices(case, label)
    C = curvature_structure(case, label)
    linear = {(i, j): [(("one", "E"), -C[i, j].item())] for i, j in np.ndindex(3, 3)}
    for M, axis, sign in ((M2, "_u", 1), (M1, "_v", -1)):
        for ij, entry in M.items():
            linear[ij] += [(("one", name + axis), sign * c) for name, c in entry.items()]
    return commutator_program(linear, M1, M2)


def curvature_residual(data: FundamentalData) -> dict:
    """{label: residual field grid + (3, 3)} of the curvature identity.

    Compares d_u(M2) - d_v(M1) + [M1, M2] against L0 exp(2 lam) times the
    constant structure matrix of the family.  The hat matrices are linear
    in the invariants, which are linear in the fields, so the derivatives
    come from the field jets: M1 reads only W, Y and psi and M2 only X,
    Z and phi, so the programs read only W_v, X_u, Y_v, Z_u, phi_u and
    psi_v, and lam_uv never; only the jets the programs name are built.
    The field jets and then the invariant jets are built for one block of
    u rows at a time (``integrability.jet_blocks``), and each entry runs
    as a sparse program over them into that block of a contiguous
    (3, 3, nu, nv) buffer, so the blocks change no bit.  The result is the
    buffer's view with the matrix axes last.
    """
    # integrability imports this module, so import its jet layer here
    from .integrability import derivative_jets, jet_blocks
    case = data.case
    programs = {label: _curvature_program(case, label) for label in family_labels(case)}
    names = {n for program in programs.values() for groups in program.values()
             for a, bs in groups for n in (a, *(b for b, _ in bs))}
    dtype = complex if case.is_lorentzian else float
    R = {label: np.zeros((3, 3) + data.grid.shape, dtype) for label in programs}
    for rows, jb in jet_blocks(data):
        fields = {"": jb, "u": derivative_jets(jb, "u"), "v": derivative_jets(jb, "v")}
        jets = {"E": jb["E"]}
        for name in sorted(names - {"one", "E"}):
            # 'X+_u' is the u-derivative of X of family '+'
            base, _, axis = name.partition("_")
            sym = base.rstrip("+-")
            jets[name] = invariant_field(case, fields[axis], sym, base[len(sym):])
        tmp = np.empty(jb["E"].shape, dtype)
        for label, program in programs.items():
            for (i, k), entry in program.items():
                run_entry(entry, jets, R[label][i, k, rows], tmp)
    return {label: np.moveaxis(r, (0, 1), (-2, -1)) for label, r in R.items()}


def delta_threshold(lam: np.ndarray) -> np.ndarray:
    return DELTA_THRESHOLD_FACTOR * np.maximum(1.0, np.exp(2.0 * lam))


@dataclass
class DegeneracyReport:
    delta: dict                # {label: field}
    nondegenerate: bool
    K: np.ndarray
    K_minus_L0: np.ndarray
    rperp: np.ndarray


def degeneracy_report(data: FundamentalData, inv: TwistorInvariants) -> DegeneracyReport:
    """Twistor-lift degeneracy dichotomy: Delta of ``inv``, the invariants
    of ``data``, vs (K - L0, normal curvature)."""
    g = data.grid
    thr = delta_threshold(data.lam)
    deltas = {label: f.delta for label, f in inv.families.items()}
    nondeg = all(np.all(np.abs(d) > thr) for d in deltas.values())
    lam_uu, lam_vv = data.lam_second_derivatives()
    # the sign of <T2, T2> is -1 where the induced metric is Lorentzian
    lap = lam_uu + COLUMN_SIGNS[data.case][1] * lam_vv
    K = -np.exp(-2.0 * data.lam) * lap
    rperp = d_dv(data.mu1, g) - d_du(data.mu2, g)
    return DegeneracyReport(delta=deltas, nondegenerate=nondeg, K=K,
                            K_minus_L0=K - data.model.L0, rperp=rperp)


# Codazzi equations of family s in its invariants, with (a, b, c, e) per case:
#   a W phi - Z psi = Y_v + c X_u,    b Y phi - X psi = W_v + e Z_u,
# where W, Z and psi belong to the partner family (see partner_label).  The
# fifth entry g makes g Delta the determinant of this system in (phi, psi).
CODAZZI_COEFFS = {
    SurfaceCase.RIEM: lambda s: (s, -s, -s, s, -s),
    SurfaceCase.NEUT_SPACE: lambda s: (s, -s, -s, s, -s),
    SurfaceCase.NEUT_TIME: lambda s: (s, s, -s, -s, -s),
    SurfaceCase.LOR_SPACE: lambda s: (-1j, -1j, 1j, 1j, 1j),
    SurfaceCase.LOR_TIME: lambda s: (-1j, 1j, 1j, -1j, 1j),
}


def ab_functions(inv: TwistorInvariants) -> tuple:
    """(A, B) as {label: field} dicts from the Codazzi system in W, X, Y, Z.

    On data satisfying the compatibility equations, A and B reproduce phi
    and psi of the matching families.  Raises DegenerateDelta when |Delta|
    falls below the scale-aware threshold anywhere; elsewhere the system's
    determinant g Delta is nonzero and Cramer's rule solves it, with
    4th-order derivatives on the right-hand sides.
    """
    thr = delta_threshold(inv.lam)
    for label, f in inv.families.items():
        size = np.abs(f.delta)
        if not np.all(size > thr):
            raise DegenerateDelta.at_worst(
                -size, f"discriminant below threshold (family {label or 'complex'})",
                value=f.delta)
    grid = inv.grid
    A, B = {}, {}
    for label, f in inv.families.items():
        p = inv.families[partner_label(inv.case, label)]
        a, b, c, e, g = CODAZZI_COEFFS[inv.case](label_sign(label))
        d1 = d_dv(f.Y, grid, order=4) + c * d_du(f.X, grid, order=4)
        d2 = d_dv(p.W, grid, order=4) + e * d_du(p.Z, grid, order=4)
        det = g * f.delta
        # solving family s gives (A_s, B_partner)
        A[label] = (p.Z * d2 - f.X * d1) / det
        B[partner_label(inv.case, label)] = (a * p.W * d2 - b * f.Y * d1) / det
    return A, B


def delbar_residual(data: FundamentalData, inv: TwistorInvariants) -> tuple:
    """Components along Theta_2, Theta_3 of the dbar-derivative of Theta_1.

    Lorentzian space-like case only; from ``inv``, the invariants of
    ``data``, returns ((W+Z)/2, -i(X+Y)/2), which vanishes exactly where
    W+Z = 0 and X+Y = 0.
    """
    if data.case is not SurfaceCase.LOR_SPACE:
        raise InvalidCase("dbar residual is defined in the Lorentzian space-like case")
    f = inv.families[""]
    return (f.W + f.Z) / 2.0, -1j * (f.X + f.Y) / 2.0


def linear_dependence_check(data: FundamentalData) -> dict:
    """Where (alpha1..3) and (beta1..3) are linearly dependent, with branches.

    Returns {'dependent': bool field, 'branch': string field} where the
    branch is 'zero-mean-curvature' (alpha1 + alpha3 = 0), 'p-zero'
    (alpha1 = alpha3 and alpha2 = 0), both comma-joined, or ''; each
    relation holds to 1e-10 of the fields' scale.
    """
    tol = 1e-10
    a = np.stack([data.alpha1, data.alpha2, data.alpha3])
    b = np.stack([data.beta1, data.beta2, data.beta3])
    minors = np.stack([a[i] * b[j] - a[j] * b[i]
                       for i, j in ((0, 1), (0, 2), (1, 2))])
    scale = np.maximum(1.0, np.max(np.abs(a), axis=0) * np.max(np.abs(b), axis=0))
    dependent = np.max(np.abs(minors), axis=0) <= tol * scale
    fscale = np.maximum(1.0, np.max(np.abs(a), axis=0))
    zmc = np.abs(data.alpha1 + data.alpha3) <= tol * fscale
    pz = (np.abs(data.alpha1 - data.alpha3) <= tol * fscale) \
        & (np.abs(data.alpha2) <= tol * fscale)
    branch = np.full(data.grid.shape, "", dtype=object)
    branch[zmc] = "zero-mean-curvature"
    branch[pz & zmc] = "zero-mean-curvature,p-zero"
    branch[pz & ~zmc] = "p-zero"
    return {"dependent": dependent, "branch": branch}


@cache
def _so3c_table() -> np.ndarray:
    """(16, 9): row 4a + b is the self-dual block of the derivation of the
    unit form at (a, b), flattened; the block is linear in the form."""
    block, _ = selfdual_projection(SurfaceCase.LOR_SPACE, "",
                                   bivector_derivation(np.eye(16).reshape(16, 4, 4)))
    return block.reshape(16, 9)


def so3c_connection_form(omega: np.ndarray) -> np.ndarray:
    """3x3 complex form of the induced connection on self-dual bivectors.

    ``omega`` is a (..., 4, 4) connection form in a Lorentz-orthonormal
    frame (last axis time-like): skew in the first three indices,
    symmetric across the fourth, zero at (4, 4), each to 1e-10.  The form
    is the block of the derivation of ``omega`` on (Theta_1, Theta_2,
    Theta_3), read from one table of the 16 unit forms.
    """
    w = np.asarray(omega, dtype=float)
    if w.shape[-2:] != (4, 4):
        raise InvalidCase("connection form must be 4x4")
    for which, res in (
            ("connection form skew in the first three indices",
             w[..., :3, :3] + np.swapaxes(w[..., :3, :3], -1, -2)),
            ("connection form symmetric across the fourth index",
             w[..., :3, 3] - w[..., 3, :3]),
            ("connection form zero at (4, 4)", w[..., 3, 3])):
        check_residual(res, 1e-10, which, error=FrameNormalizationError)
    return (w.reshape(w.shape[:-2] + (16,)) @ _so3c_table()).reshape(w.shape[:-2] + (3, 3))
