"""Golden inputs of the benchmark, generated from closed forms and a seed.

Nothing here calls into spaceform's numerics: the values are written out
from their closed forms so that the program under test only ever sees
generated inputs.  Field CSVs are written with spaceform's own writer,
because that is the input format a CLI user hands to the program.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import yaml

from spaceform.cases import SurfaceCase
from spaceform.fundamental import FIELD_NAMES, FundamentalData, ambient_model
from spaceform.grids import Grid
from spaceform import io as sfio

# A seed moves the sphere chart by at most this much along each axis, so
# every seed gives different bytes while the residual maxima (which sit at
# the chart corners) stay within a few percent of each other.
CHART_SHIFT = 0.01

DELBAR_L0 = -1.0
DELBAR_HALF_WIDTH = 0.5
DELBAR_P = [[0.0, 0.0], [1.0, 0.0]]          # p(w) = w


def sphere_grid(n: int, rng: np.random.Generator) -> Grid:
    """[-1, 1]^2 chart with n points per axis, shifted by the seed."""
    su, sv = rng.uniform(-CHART_SHIFT, CHART_SHIFT, size=2)
    h = 2.0 / (n - 1)
    return Grid(-1.0 + float(su), -1.0 + float(sv), h, h, n, n)


def delbar_grid(n: int) -> Grid:
    return Grid.centered(DELBAR_HALF_WIDTH, n)


def umbilic_sphere(grid: Grid, L0: float = 0.0, H: float = 1.0) -> dict:
    """Totally umbilic sphere with mean curvature H in the space form L0.

    Isothermal chart with the Liouville profile of curvature K = L0 + H^2
    and alpha1 = alpha3 = -H e^lam; every other field vanishes.  L0 = 0,
    H = 1 is the unit sphere in E^3; L0 = 1, H = 1 is a small sphere in S^4.
    """
    U, V = grid.mesh()
    K = L0 + H * H
    lam = np.log(2.0 / (np.sqrt(K) * (1.0 + U**2 + V**2)))
    a = -H * np.exp(lam)
    zero = np.zeros(grid.shape)
    fields = {name: zero for name in FIELD_NAMES}
    fields.update(lam=lam, alpha1=a, alpha3=a.copy())
    return fields


def sphere_invariants(fields: dict) -> dict:
    """W, X, Y, Z per family of a Riemannian umbilic sphere, closed form.

    With alpha2 = beta = 0: W = X = 0, Y = s*alpha1, Z = s*alpha3.
    """
    zero = np.zeros_like(fields["lam"])
    return {("+" if s > 0 else "-"): SimpleNamespace(
                W=zero, X=zero, Y=s * fields["alpha1"], Z=s * fields["alpha3"])
            for s in (1.0, -1.0)}


def delbar_fields(grid: Grid) -> dict:
    """Fields the delbar construction must produce for p(w) = w, r = 0."""
    U, V = grid.mesh()
    lam = np.log(2.0 / (np.sqrt(-DELBAR_L0) * (1.0 - U**2 - V**2)))
    W = 0.5 * (U + 1j * V) / np.exp(lam)       # X = W when r = 0
    zero = np.zeros(grid.shape)
    return {"lam": lam, "alpha1": W.imag, "alpha2": W.real, "alpha3": -W.imag,
            "beta1": -W.imag, "beta2": -W.real, "beta3": W.imag,
            "mu1": zero, "mu2": zero}


def smooth_random(case: SurfaceCase, grid: Grid, rng: np.random.Generator) -> FundamentalData:
    """Smooth, generally non-integrable data: two random sine modes a field."""
    U, V = grid.mesh()
    fields = {}
    for name in FIELD_NAMES:
        f = np.zeros(grid.shape)
        for _ in range(2):
            au, av = rng.uniform(0.3, 1.5, size=2)
            pu, pv = rng.uniform(0.0, 2.0 * np.pi, size=2)
            f += rng.uniform(-0.6, 0.6) * np.sin(au * U + pu) * np.cos(av * V + pv)
        fields[name] = f
    L0 = float(rng.uniform(-1.0, 1.0))
    return FundamentalData(model=ambient_model(case, L0), grid=grid, **fields)


def array_data(fields: dict, case: SurfaceCase, L0: float, grid: Grid) -> FundamentalData:
    """FundamentalData from plain arrays: no analytic derivative providers."""
    return FundamentalData(model=ambient_model(case, L0), grid=grid, **fields)


def write_yaml(path, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as f:
        yaml.safe_dump(payload, f)
    return path


def write_fields(directory, grid: Grid, fields: dict, names) -> dict:
    """Write the named fields as CSVs; returns {name: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in names:
        paths[name] = os.path.join(directory, f"{name}.csv")
        sfio.write_field_csv(paths[name], grid, name, fields[name])
    return paths


def write_invariants(directory, grid: Grid, invariants: dict) -> dict:
    """Complex W/X/Y/Z CSVs per family, in the layout construct configs use."""
    os.makedirs(directory, exist_ok=True)
    layout = {}
    for label, fam in invariants.items():
        comps = {}
        for comp in "WXYZ":
            path = os.path.join(directory, f"{comp}{label}.csv")
            sfio.write_field_csv(path, grid, comp,
                                 np.asarray(getattr(fam, comp), dtype=complex))
            comps[comp] = path
        layout[label or "main"] = comps
    return layout
