"""Space-form models, fundamental data on grids, and the connection matrices.

The 5x5 matrices S, T encode the derivative of the moving frame
(T1 T2 N1 N2 F) along u and v.  All five signature cases share one
skeleton of +1 entries; the other entries follow from metric
compatibility with the case's ``COLUMN_SIGNS``, which gives one
(12, 25) coefficient table per matrix and case.  Every connection
matrix (at nodes or at midpoints) is the stacked field vector times
that table, and the matrix residuals run as sparse entry programs
(``commutator_program``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cases import COLUMN_SIGNS, SurfaceCase
from .errors import ConfigError, DimensionMismatch
from .grids import Grid, d2_du, d2_dv, d_du, d_dv

FIELD_NAMES = ("lam", "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "mu1", "mu2")


@dataclass(frozen=True)
class SpaceFormModel:
    case: SurfaceCase
    L0: float
    ambient: tuple  # diagonal +-1 metric of the flat ambient space

    @property
    def ambient_dim(self) -> int:
        return len(self.ambient)


def ambient_model(case: SurfaceCase, L0: float) -> SpaceFormModel:
    """Flat model (E^4-like) for L0 = 0, quadric <F, F> = 1/L0 in a 5-space
    otherwise; an L0 that is not finite or, nonzero, has no finite 1/L0 is
    a ConfigError.

    The ambient diagonal is the case's column signs plus the sign of L0
    when it is nonzero, minus entries last; frame axes are assigned by sign.
    """
    if not (math.isfinite(L0) and (L0 == 0 or math.isfinite(1.0 / L0))):
        raise ConfigError(f"L0 must be finite with a finite 1/L0, got {L0!r}")
    sgn = () if L0 == 0 else ((1,) if L0 > 0 else (-1,))
    return SpaceFormModel(case=case, L0=float(L0),
                          ambient=tuple(sorted(COLUMN_SIGNS[case] + sgn, reverse=True)))


@dataclass
class FundamentalData:
    """Conformal factor, second-fundamental-form and normal-connection fields.

    Every field is a grid of node samples.  ``analytic``, filled by
    :meth:`from_functions`, maps any of lam_u, lam_v, lam_uu, lam_vv known
    exactly to its node values, (nu, nv) arrays; a given pair takes the
    place of the finite differences of lam.
    """

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
    analytic: dict = field(default_factory=dict)

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
        """Sample callables of the coordinate arrays (U, V) on the grid, each
        once; zero for omitted fields.

        Extra keys ``lam_u``, ``lam_v``, ``lam_uu`` and ``lam_vv`` are
        sampled into ``analytic`` as exact lam derivatives.
        """
        unknown = set(funcs) - set(FIELD_NAMES) - {"lam_u", "lam_v", "lam_uu", "lam_vv"}
        if unknown:
            raise ConfigError(f"unknown field functions: {sorted(unknown)}")
        U, V = grid.mesh()
        sampled = {n: np.broadcast_to(f(U, V), grid.shape).astype(float)
                   for n, f in funcs.items()}
        fields = {n: sampled.pop(n, np.zeros(grid.shape)) for n in FIELD_NAMES}
        return cls(model=model, grid=grid, analytic=sampled, **fields)

    def lam_derivatives(self, order: int = 2):
        """(lam_u, lam_v) grids: the exact ones when given, else differences
        of the given order."""
        an = self.analytic
        if "lam_u" in an and "lam_v" in an:
            return an["lam_u"], an["lam_v"]
        return d_du(self.lam, self.grid, order), d_dv(self.lam, self.grid, order)

    def lam_second_derivatives(self):
        """(lam_uu, lam_vv) grids: the exact ones when given, else the direct
        second-difference stencils (differencing the gradient twice would
        drop to O(h) at the boundary)."""
        an = self.analytic
        if "lam_uu" in an and "lam_vv" in an:
            return an["lam_uu"], an["lam_vv"]
        return d2_du(self.lam, self.grid), d2_dv(self.lam, self.grid)

    def e2l(self) -> np.ndarray:
        return np.exp(2.0 * self.lam)


# The stacked field vector the connection tables act on; E = L0 e^{2 lam}.
CONNECTION_ROWS = ("lam_u", "lam_v") + FIELD_NAMES[1:] + ("E", "one")

# The +1 entries (i, j, row) of S and T; _connection_table adds the rest.
_S_ENTRIES = (
    (0, 0, "lam_u"), (0, 1, "lam_v"), (0, 4, "one"), (1, 1, "lam_u"),
    (2, 0, "alpha1"), (2, 1, "alpha2"), (2, 2, "lam_u"),
    (3, 0, "beta1"), (3, 1, "beta2"), (3, 2, "mu1"), (3, 3, "lam_u"),
)
_T_ENTRIES = (
    (0, 0, "lam_v"), (1, 0, "lam_u"), (1, 1, "lam_v"), (1, 4, "one"),
    (2, 0, "alpha2"), (2, 1, "alpha3"), (2, 2, "lam_v"),
    (3, 0, "beta2"), (3, 1, "beta3"), (3, 2, "mu2"), (3, 3, "lam_v"),
)


def _connection_table(entries, signs) -> np.ndarray:
    """(12, 25) table of the +1 ``entries`` and of the entries that metric
    compatibility, G S + S^t G = G_u with G = diag(s e^{2 lam}, 1/L0) and
    s = ``signs``, then fixes: an off-diagonal (i, j) of the 4x4 block has
    the mirror (j, i) = -s_i s_j times it, and an entry (a, 4) = 1, which
    says F' is column a, gives the entry (4, a) = -s_a E."""
    table = np.zeros((len(CONNECTION_ROWS), 25))
    for i, j, row in entries:
        table[CONNECTION_ROWS.index(row), 5 * i + j] = 1
        if j == 4:
            table[CONNECTION_ROWS.index("E"), 5 * j + i] = -signs[i]
        elif i != j:
            table[CONNECTION_ROWS.index(row), 5 * j + i] = -signs[i] * signs[j]
    return table


# {case: (table of S, table of T)}, each (12, 25): the flattened 5x5 matrix
# at a point is the stacked field vector there times the table.  Every
# entry is one row of CONNECTION_ROWS times +-1.
CONNECTION_TABLES = {
    case: (_connection_table(_S_ENTRIES, signs), _connection_table(_T_ENTRIES, signs))
    for case, signs in COLUMN_SIGNS.items()
}


def stack_rows(f: dict) -> np.ndarray:
    """(12,) + shape array of the CONNECTION_ROWS entries of ``f``.

    Values broadcast together, so scalars (0.0 for a vanishing jet, 1.0
    for the constant row) are accepted.
    """
    shape = np.broadcast_shapes(*(np.shape(f[name]) for name in CONNECTION_ROWS))
    rows = np.empty((len(CONNECTION_ROWS),) + shape)
    for k, name in enumerate(CONNECTION_ROWS):
        rows[k] = f[name]
    return rows


def apply_table(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Matrices of shape rows.shape[1:] + (5, 5), as one BLAS product.

    Each table column holds at most one +-1, so every entry is exactly a
    signed row value or zero (the numbers a per-entry assembly stores).
    """
    n = rows.shape[0]
    return (rows.reshape(n, -1).T @ table).reshape(rows.shape[1:] + (5, 5))


def commutator_program(linear: dict, P: dict, Q: dict) -> dict:
    """Sparse entry program of linear + PQ - QP for square matrices whose
    entries are linear in named jets.

    ``P`` and ``Q`` map (i, j) to {name: coefficient} and ``linear`` to a
    list of ((a, b), coefficient), products of two names with 'one' for 1.
    Returns {(i, j): groups}, row-major, for the entries that do not
    cancel; a group (a, [(b, c), ...]) is jets[a] times the sum of
    c * jets[b], and the linear part, a = 'one', comes first.
    """
    pairs = {ij: list(terms) for ij, terms in linear.items()}
    for X, Y, sign in ((P, Q, 1), (Q, P, -1)):
        for (i, k), x in X.items():
            for (l, j), y in Y.items():
                if k == l:
                    pairs.setdefault((i, j), []).extend(
                        ((a, b), sign * ca * cb) for a, ca in x.items() for b, cb in y.items())
    program = {}
    for ij in sorted(pairs):
        acc = {}
        for (a, b), c in pairs[ij]:
            key = (a, b) if a == "one" or (b != "one" and a <= b) else (b, a)
            acc[key] = acc.get(key, 0) + c
        groups = {"one": []}
        for (a, b), c in acc.items():
            if c != 0:
                groups.setdefault(a, []).append((b, c))
        if any(groups.values()):
            program[ij] = [(a, bs) for a, bs in groups.items() if bs]
    return program


def run_entry(groups, jets: dict, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Evaluate one ``commutator_program`` entry on the jets into ``out``,
    in place; ``tmp`` is scratch of the same shape and dtype."""
    for k, (a, bs) in enumerate(groups):
        dest = tmp if k else out
        (b, c), *rest = bs
        np.multiply(jets[b], c, out=dest)
        for b, c in rest:
            if c in (1, -1):
                (np.add if c == 1 else np.subtract)(dest, jets[b], out=dest)
            else:
                dest += c * jets[b]
        if a != "one":
            dest *= jets[a]
        if k:
            out += tmp
    return out


def connection_rows(data: FundamentalData, order: int = 2) -> np.ndarray:
    """Stacked field vector of ``data`` at every grid point, (12, nu, nv);
    finite-difference lam derivatives use the given order."""
    lam_u, lam_v = data.lam_derivatives(order)
    return stack_rows({**data.fields, "lam_u": lam_u, "lam_v": lam_v,
                       "E": data.model.L0 * data.e2l(), "one": 1.0})


def connection_grids(data: FundamentalData):
    """S, T over the whole grid, shape (nu, nv, 5, 5)."""
    rows = connection_rows(data)
    S_table, T_table = CONNECTION_TABLES[data.case]
    return apply_table(rows, S_table), apply_table(rows, T_table)


# Pair order of the ten frame constraints reported by validate_frame.
FRAME_CONSTRAINTS = (
    (0, 0), (0, 1), (0, 2), (0, 3),
    (1, 1), (1, 2), (1, 3),
    (2, 2), (2, 3),
    (3, 3),
)


def validate_frame(frame: np.ndarray, lam: float, case: SurfaceCase,
                   L0: float = 0.0) -> np.ndarray:
    """Residuals target - value of the frame inner-product constraints.

    ``frame`` holds the columns (T1, T2, N1, N2[, F]) of shape (n, 4) or
    (n, 5).  The ten pairwise constraints come first; when L0 != 0 and F
    is present an eleventh residual checks <F, F> = 1/L0.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.shape[1] not in (4, 5):
        raise DimensionMismatch("frame must have 4 or 5 columns")
    eta = np.asarray(ambient_model(case, L0).ambient)
    if frame.shape[0] != eta.size:
        raise DimensionMismatch(
            f"frame vectors of dimension {frame.shape[0]} vs ambient {eta.size}")
    signs = COLUMN_SIGNS[case]
    e2l = np.exp(2.0 * lam)
    res = []
    for (a, b) in FRAME_CONSTRAINTS:
        target = signs[a] * e2l if a == b else 0.0
        res.append(target - np.sum(eta * frame[:, a] * frame[:, b]))
    if L0 != 0.0 and frame.shape[1] == 5:
        res.append(1.0 / L0 - np.sum(eta * frame[:, 4] * frame[:, 4]))
    return np.asarray(res)


def canonical_frame(model: SpaceFormModel, lam0: float = 0.0) -> np.ndarray:
    """Coordinate-axis initial frame satisfying the case normalization.

    Frame columns take the first unused ambient axis of the matching
    metric sign; for curved models F takes the remaining axis, scaled to
    lie on the quadric.  For flat models the fifth column is the position,
    initialized at the origin.
    """
    diag = model.ambient
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

