"""Twistor invariants, the induced connection on self-dual bivectors,
curvature and degeneracy diagnostics, and the dbar condition.

Real cases carry two invariant families labelled '+' and '-'; Lorentzian
cases carry one complex family labelled ''.  Each family comes with the
pair of 3x3 connection matrices of the induced covariant derivatives
along T1, T2 in its self-dual frame, and the discriminant Delta whose
vanishing marks degeneracy of the twistor lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .cases import FRAME_METRIC, FRAME_ORDER, METRIC_TYPE, SurfaceCase
from .errors import DegenerateDelta, InvalidCase, FrameNormalizationError
from .fundamental import FundamentalData, commutator_program, run_entry
from .grids import Grid, d_du, d_dv
from .geomcore import (
    BIVECTOR_PAIRS,
    bivector_coordinates,
    selfdual_frame,
    wedge,
)

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

    @property
    def is_complex(self) -> bool:
        return "" in self.families


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


def label_sign(label: str) -> float:
    """-1 for the '-' family, +1 for '+' and the complex family ''."""
    return -1.0 if label == "-" else 1.0


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


# Nonzero entries (matrix, i, j, family, symbol, coefficient), i < j, of
# the hat matrices M1 (matrix 0) and M2 (1) of the family with sign s, in
# the displayed frame of the case; family 'p' is the partner (see
# partner_label), 'f' the family itself.  The (j, i) entry is -eta_i eta_j
# times the (i, j) one, for the frame sign pattern eta in _HAT_ETA.
_HAT_ENTRIES = {
    SurfaceCase.RIEM: lambda s: (
        (0, 0, 1, "f", "W", -1), (0, 0, 2, "p", "Y", -1), (0, 1, 2, "f", "psi", s),
        (1, 0, 1, "f", "Z", -s), (1, 0, 2, "p", "X", s), (1, 1, 2, "p", "phi", -s)),
    SurfaceCase.NEUT_SPACE: lambda s: (
        (0, 0, 1, "f", "W", 1), (0, 0, 2, "p", "Y", 1), (0, 1, 2, "f", "psi", s),
        (1, 0, 1, "f", "Z", s), (1, 0, 2, "p", "X", -s), (1, 1, 2, "p", "phi", -s)),
    SurfaceCase.NEUT_TIME: lambda s: (
        (0, 0, 1, "f", "W", 1), (0, 0, 2, "f", "psi", -s), (0, 1, 2, "f", "Y", -1),
        (1, 0, 1, "f", "Z", s), (1, 0, 2, "f", "phi", -s), (1, 1, 2, "f", "X", -s)),
    SurfaceCase.LOR_SPACE: lambda s: (
        (0, 0, 1, "f", "W", -1), (0, 0, 2, "f", "Y", 1j), (0, 1, 2, "f", "psi", 1),
        (1, 0, 1, "f", "Z", 1j), (1, 0, 2, "f", "X", 1), (1, 1, 2, "f", "phi", -1)),
    SurfaceCase.LOR_TIME: lambda s: (
        (0, 0, 1, "f", "W", -1j), (0, 0, 2, "f", "Y", -1j), (0, 1, 2, "f", "psi", -1j),
        (1, 0, 1, "f", "Z", 1), (1, 0, 2, "f", "X", -1), (1, 1, 2, "f", "phi", -1j)),
}
_HAT_ETA = {SurfaceCase.NEUT_SPACE: (-1, 1, 1), SurfaceCase.NEUT_TIME: (-1, 1, 1)}


@cache
def _hat_matrices(case: SurfaceCase, label: str) -> tuple:
    """(M1, M2) of family ``label`` as {(i, j): {jet name: coefficient}};
    the jet of symbol X of family '+' is 'X+' and its u-derivative 'X+_u'."""
    fam = {"f": label, "p": partner_label(case, label)}
    eta = _HAT_ETA.get(case, (1, 1, 1))
    mats = ({}, {})
    for m, i, j, f, sym, c in _HAT_ENTRIES[case](label_sign(label)):
        mats[m][(i, j)] = {sym + fam[f]: c}
        mats[m][(j, i)] = {sym + fam[f]: -eta[i] * eta[j] * c}
    return mats


def hat_connection_matrices(data: FundamentalData, inv: TwistorInvariants = None) -> dict:
    """{label: (M1, M2)} of shape grid + (3, 3) per invariant family.

    M1 and M2 are the matrices of the induced covariant derivatives along
    T1 and T2 in the family's self-dual frame (the mixed triple in the
    neutral cases, the conjugate triple in the Lorentzian time-like case),
    assembled from the hat entry table of the case (``_HAT_ENTRIES``).
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
    eps = FRAME_METRIC[METRIC_TYPE[case]]
    rho = np.zeros((4, 4))
    rho[p1, p2] = eps[p2]
    rho[p2, p1] = -eps[p1]
    deriv = np.zeros((6, 6), dtype=complex)
    eye = np.eye(4, dtype=complex)
    for col, (k, l) in enumerate(BIVECTOR_PAIRS):
        b = wedge(rho @ eye[k], eye[l]) + wedge(eye[k], rho @ eye[l])
        deriv[:, col] = b
    # the hat matrices act in the conjugate triple in the Lorentzian time-like case
    sign = -1 if case is SurfaceCase.LOR_TIME else label_sign(label)
    rows = selfdual_frame(case, sign)
    other = np.conj(rows) if case.is_lorentzian else selfdual_frame(case, -sign)
    basis = np.vstack([rows, other])
    m = np.zeros((3, 3), dtype=complex)
    for col in range(3):
        coords = bivector_coordinates(deriv @ rows[col], basis)
        if np.max(np.abs(coords[3:])) > 1e-12:
            raise FrameNormalizationError("curvature derivation leaks across eigenspaces")
        m[:, col] = coords[:3]
    if not case.is_lorentzian:
        m = m.real
    return m


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
    come from the shared jets: M1 reads only W, Y and psi and M2 only X,
    Z and phi, so the programs read only W_v, X_u, Y_v, Z_u, phi_u and
    psi_v, and lam_uv never; only the jets the programs name are built.
    Each entry runs as a sparse program over those jets into a contiguous
    (3, 3, nu, nv) buffer; the result is its view with the matrix axes
    last.
    """
    # integrability imports this module, so import its jet layer here
    from .integrability import derivative_jets, field_jets
    j = field_jets(data)
    case = data.case
    programs = {label: _curvature_program(case, label) for label in family_labels(case)}
    fields = {"": j, "u": derivative_jets(j, "u"), "v": derivative_jets(j, "v")}
    names = {n for program in programs.values() for groups in program.values()
             for a, bs in groups for n in (a, *(b for b, _ in bs))}
    jets = {"E": j["E"]}
    for name in sorted(names - {"one", "E"}):
        # 'X+_u' is the u-derivative of X of family '+'
        base, _, axis = name.partition("_")
        sym = base.rstrip("+-")
        jets[name] = invariant_field(case, fields[axis], sym, base[len(sym):])
    dtype = complex if case.is_lorentzian else float
    tmp = np.empty(data.grid.shape, dtype)
    out = {}
    for label, program in programs.items():
        R = np.zeros((3, 3) + data.grid.shape, dtype)
        for (i, k), entry in program.items():
            run_entry(entry, jets, R[i, k], tmp)
        out[label] = np.moveaxis(R, (0, 1), (-2, -1))
    return out


def delta_threshold(lam: np.ndarray) -> np.ndarray:
    return DELTA_THRESHOLD_FACTOR * np.maximum(1.0, np.exp(2.0 * lam))


@dataclass
class DegeneracyReport:
    delta: dict                # {label: field}
    nondegenerate: bool
    K: np.ndarray
    K_minus_L0: np.ndarray
    rperp: np.ndarray


def degeneracy_report(data: FundamentalData, inv: TwistorInvariants = None) -> DegeneracyReport:
    """Twistor-lift degeneracy dichotomy: Delta vs (K - L0, normal curvature)."""
    if inv is None:
        inv = twistor_invariants(data)
    g = data.grid
    thr = delta_threshold(data.lam)
    deltas = {label: f.delta for label, f in inv.families.items()}
    nondeg = all(np.all(np.abs(d) > thr) for d in deltas.values())
    lam_uu, lam_vv = data.lam_second_derivatives()
    lap = lam_uu + (-1 if data.case.is_timelike else 1) * lam_vv
    K = -np.exp(-2.0 * data.lam) * lap
    rperp = d_dv(data.mu1, g) - d_du(data.mu2, g)
    return DegeneracyReport(delta=deltas, nondegenerate=nondeg, K=K,
                            K_minus_L0=K - data.model.L0, rperp=rperp)


# Codazzi equations of family s in its invariants, with (a, b, c, e) per case:
#   a W phi - Z psi = Y_v + c X_u,    b Y phi - X psi = W_v + e Z_u,
# where W, Z and psi belong to the partner family (see partner_label).
CODAZZI_COEFFS = {
    SurfaceCase.RIEM: lambda s: (s, -s, -s, s),
    SurfaceCase.NEUT_SPACE: lambda s: (s, -s, -s, s),
    SurfaceCase.NEUT_TIME: lambda s: (s, s, -s, -s),
    SurfaceCase.LOR_SPACE: lambda s: (-1j, -1j, 1j, 1j),
    SurfaceCase.LOR_TIME: lambda s: (-1j, 1j, 1j, -1j),
}


def _ab_system(case: SurfaceCase, inv: TwistorInvariants, label: str, grid: Grid):
    """M [phi; psi] = d of the Codazzi equations, 4th-order derivatives."""
    f, p = inv.families[label], inv.families[partner_label(case, label)]
    a, b, c, e = CODAZZI_COEFFS[case](label_sign(label))
    M = np.stack([np.stack([a * p.W, -p.Z], axis=-1),
                  np.stack([b * f.Y, -f.X], axis=-1)], axis=-2)
    d = np.stack([d_dv(f.Y, grid, order=4) + c * d_du(f.X, grid, order=4),
                  d_dv(p.W, grid, order=4) + e * d_du(p.Z, grid, order=4)], axis=-1)
    return M, d


def ab_functions(inv: TwistorInvariants) -> tuple:
    """(A, B) as {label: field} dicts from the Codazzi system in W, X, Y, Z.

    On data satisfying the compatibility equations, A and B reproduce phi
    and psi of the matching families.  Raises DegenerateDelta when |Delta|
    falls below the scale-aware threshold anywhere.
    """
    thr = delta_threshold(inv.lam)
    for label, f in inv.families.items():
        size = np.abs(f.delta)
        if not np.all(size > thr):
            raise DegenerateDelta.at_worst(
                -size, f"discriminant below threshold (family {label or 'complex'})",
                value=f.delta)
    A, B = {}, {}
    for label in inv.families:
        M, d = _ab_system(inv.case, inv, label, inv.grid)
        sol = np.linalg.solve(M, d[..., None])[..., 0]
        # solving family s gives (A_s, B_partner)
        A[label] = sol[..., 0]
        B[partner_label(inv.case, label)] = sol[..., 1]
    return A, B


def delbar_residual(data: FundamentalData, inv: TwistorInvariants = None) -> tuple:
    """Components along Theta_2, Theta_3 of the dbar-derivative of Theta_1.

    Lorentzian space-like case only; returns ((W+Z)/2, -i(X+Y)/2), which
    vanishes exactly where W+Z = 0 and X+Y = 0.
    """
    if data.case is not SurfaceCase.LOR_SPACE:
        raise InvalidCase("dbar residual is defined in the Lorentzian space-like case")
    if inv is None:
        inv = twistor_invariants(data)
    f = inv.families[""]
    return (f.W + f.Z) / 2.0, -1j * (f.X + f.Y) / 2.0


def linear_dependence_check(data: FundamentalData, tol: float = 1e-10) -> dict:
    """Where (alpha1..3) and (beta1..3) are linearly dependent, with branches.

    Returns {'dependent': bool field, 'branch': string field} where the
    branch is 'zero-mean-curvature' (alpha1 + alpha3 = 0), 'p-zero'
    (alpha1 = alpha3 and alpha2 = 0), both comma-joined, or ''.
    """
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


def so3c_connection_form(omega: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """3x3 complex form of the induced connection on self-dual bivectors.

    ``omega`` is a (..., 4, 4) connection form in a Lorentz-orthonormal
    frame (last axis time-like): skew in the first three indices,
    symmetric across the fourth, zero at (4, 4).
    """
    w = np.asarray(omega, dtype=float)
    if w.shape[-2:] != (4, 4):
        raise InvalidCase("connection form must be 4x4")
    sym = w[..., :3, :3] + np.swapaxes(w[..., :3, :3], -1, -2)
    mixed = w[..., :3, 3] - w[..., 3, :3]
    if (np.max(np.abs(sym)) > tol or np.max(np.abs(mixed)) > tol
            or np.max(np.abs(w[..., 3, 3])) > tol):
        raise FrameNormalizationError("connection form violates the Lorentz symmetries")
    hat = np.zeros(w.shape[:-2] + (3, 3), dtype=complex)
    e12 = -w[..., 2, 1] + 1j * w[..., 3, 0]
    e13 = w[..., 2, 0] + 1j * w[..., 3, 1]
    e23 = -w[..., 1, 0] + 1j * w[..., 3, 2]
    hat[..., 0, 1] = e12; hat[..., 1, 0] = -e12
    hat[..., 0, 2] = e13; hat[..., 2, 0] = -e13
    hat[..., 1, 2] = e23; hat[..., 2, 1] = -e23
    return hat
