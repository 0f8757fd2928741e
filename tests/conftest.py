"""Shared data families for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from spaceform.cases import SurfaceCase
from spaceform.fundamental import FIELD_NAMES, FundamentalData, ambient_model
from spaceform.grids import Grid, d_du, d_dv
from spaceform.reconstruct import _liouville_funcs

# Property tests draw a fixed, small set of examples so that the suite is
# deterministic and its run time does not depend on a noisy host.
settings.register_profile("spaceform", deadline=None, derandomize=True,
                          max_examples=25, database=None)
# the same properties on many more examples (CI reruns the IO, A/B-solve
# and residual-program properties so)
settings.register_profile("spaceform-deep", settings.get_profile("spaceform"),
                          max_examples=2000)


def pytest_configure(config):
    # load here, not on import: pytest may import this file after Hypothesis
    # has loaded the profile named by --hypothesis-profile
    settings.load_profile(config.getoption("--hypothesis-profile") or "spaceform")


def sphere_data(n: int = 101, half_width: float = 1.0) -> FundamentalData:
    """Unit sphere S^2 in E^3 c E^4 under stereographic coordinates.

    lam = log(2 / (1 + u^2 + v^2)), alpha1 = alpha3 = -e^lam, all other
    fields zero; flat Riemannian ambient (L0 = 0).  The exact lam_u and
    lam_v are attached as node values.
    """
    grid = Grid.centered(half_width, n)
    r2 = lambda U, V: 1.0 + U**2 + V**2
    lam = lambda U, V: np.log(2.0 / r2(U, V))
    shape = lambda U, V: -2.0 / r2(U, V)
    return FundamentalData.from_functions(
        ambient_model(SurfaceCase.RIEM, 0.0), grid,
        lam=lam,
        lam_u=lambda U, V: -2.0 * U / r2(U, V),
        lam_v=lambda U, V: -2.0 * V / r2(U, V),
        alpha1=shape, alpha3=shape,
    )


def zero_data(case: SurfaceCase, grid: Grid, L0: float = 0.0) -> FundamentalData:
    """All fields identically zero (totally geodesic plane when L0 = 0)."""
    z = np.zeros(grid.shape)
    return FundamentalData(ambient_model(case, L0), grid, *(z.copy() for _ in range(9)))


def without_exact_derivatives(data: FundamentalData) -> FundamentalData:
    """The same sampled fields without the exact lam derivatives, as the
    CLI reads them from CSV: every lam derivative is a finite difference."""
    return FundamentalData(model=data.model, grid=data.grid, **data.fields)


def differenced_jets(data: FundamentalData, j: dict) -> dict:
    """Reference derivative jets, independent of ``derivative_jets``:
    {axis: the axis-derivative of every shape field, differenced here with
    the library's first-derivative stencil, and of lam_u and lam_v}.

    lam_u along u and lam_v along v are the jets' lam_uu and lam_vv; the
    mixed lam_uv is the v-difference of lam_u, one array for both.
    """
    g = data.grid
    lam_uv = d_dv(j["lam_u"], g)
    out = {}
    for axis, diff in (("u", d_du), ("v", d_dv)):
        out[axis] = {n: diff(j[n], g) for n in FIELD_NAMES[1:]}
        out[axis]["lam_u"], out[axis]["lam_v"] = (
            (j["lam_uu"], lam_uv) if axis == "u" else (lam_uv, j["lam_vv"]))
    return out


def geodesic_sphere_data(n: int = 101, half_width: float = 1.0) -> FundamentalData:
    """Totally geodesic S^2 inside S^4: L0 = 1, Liouville conformal
    factor, all second-fundamental-form and normal-connection fields zero."""
    grid = Grid.centered(half_width, n)
    lf = _liouville_funcs(1.0)
    return FundamentalData.from_functions(
        ambient_model(SurfaceCase.RIEM, 1.0), grid,
        lam=lf["lam"], lam_u=lf["lam_u"], lam_v=lf["lam_v"],
        lam_uu=lf["lam_uu"], lam_vv=lf["lam_vv"],
    )


def umbilic_sphere_data(L0: float, n: int, u0: float = 0.0, v0: float = 0.0,
                        half_width: float = 0.7) -> FundamentalData:
    """Round sphere in the flat (L0 = 0) or S^4 (L0 = 1) ambient: lam is
    the Liouville profile of curvature L = L0 + c^2 and alpha1 = alpha3 =
    c e^lam, with c = -1 flat and c = 1 in S^4, on a chart centred at
    (u0, v0)."""
    c = -1.0 if L0 == 0.0 else 1.0
    lf = _liouville_funcs(L0 + c * c)
    shape = lambda U, V: c * np.exp(lf["lam"](U, V))
    h = 2 * half_width / (n - 1)
    grid = Grid(u0 - half_width, v0 - half_width, h, h, n, n)
    return FundamentalData.from_functions(
        ambient_model(SurfaceCase.RIEM, L0), grid,
        lam=lf["lam"], lam_u=lf["lam_u"], lam_v=lf["lam_v"],
        lam_uu=lf["lam_uu"], lam_vv=lf["lam_vv"],
        alpha1=shape, alpha3=shape)


def gauged_sphere_data(case: SurfaceCase, L0: float, n: int) -> FundamentalData:
    """The umbilic sphere of ``umbilic_sphere_data`` (alpha1 = alpha3 = a)
    with its normal frame turned by theta = 0.3 u v + 0.2 u: a rotation of
    (N1, N2) in the Riemannian case, a boost in the Lorentzian space-like
    one, where N2 is time-like.  alpha1 = alpha3 = c a, beta1 = beta3 =
    -s a with (c, s) = (cos, sin) or (cosh, sinh) of theta, mu1 = theta_u
    and mu2 = theta_v: compatible data whose beta and mu do not vanish
    (GCR residuals fall 4.0x per halving of h)."""
    sphere = umbilic_sphere_data(L0, n)
    U, V = sphere.grid.mesh()
    theta = 0.3 * U * V + 0.2 * U
    turn = (np.cos, np.sin) if case is SurfaceCase.RIEM else (np.cosh, np.sinh)
    c, s = (t(theta) for t in turn)
    a, zero = sphere.alpha1, np.zeros(sphere.grid.shape)
    return FundamentalData(
        ambient_model(case, L0), sphere.grid, lam=sphere.lam,
        alpha1=c * a, alpha2=zero, alpha3=c * a, beta1=-s * a, beta2=zero, beta3=-s * a,
        mu1=0.3 * V + 0.2, mu2=0.3 * U, analytic=sphere.analytic)


def _smooth_field(rng: np.random.Generator, U, V, amplitude=0.6):
    f = np.zeros_like(U)
    for _ in range(2):
        au, av = rng.uniform(0.3, 1.5, size=2)
        pu, pv = rng.uniform(0.0, 2.0 * np.pi, size=2)
        f = f + rng.uniform(-amplitude, amplitude) * np.sin(au * U + pu) * np.cos(av * V + pv)
    return f


def random_smooth_data(case: SurfaceCase, grid: Grid, rng: np.random.Generator,
                       L0: float = None) -> FundamentalData:
    """Smooth but generally non-integrable fundamental data (for identity
    tests between residual families, and for frames to extract from, not
    for reconstruction); L0 is drawn unless given."""
    U, V = grid.mesh()
    if L0 is None:
        L0 = float(rng.uniform(-1.0, 1.0))
    fields = {name: _smooth_field(rng, U, V)
              for name in ("lam", "alpha1", "alpha2", "alpha3",
                           "beta1", "beta2", "beta3", "mu1", "mu2")}
    return FundamentalData(model=ambient_model(case, L0), grid=grid, **fields)


@st.composite
def generated_data(draw, case: SurfaceCase = None) -> FundamentalData:
    """Smooth data in ``case``, or in any case: two sine modes a field with
    drawn amplitudes, on a drawn grid size, spacing and chart origin, with
    a drawn ambient curvature L0."""
    if case is None:
        case = draw(st.sampled_from(list(SurfaceCase)))
    n = draw(st.integers(5, 30))
    h = draw(st.floats(0.01, 0.2))
    u0, v0 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    # an L0 without a finite 1/L0 is rejected (test_fundamental)
    L0 = draw(st.sampled_from([0.0, 1.0, -1.0])
              | st.floats(-2.0, 2.0).filter(lambda x: x == 0 or math.isfinite(1.0 / x)))
    amps = draw(st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18))
    grid = Grid(u0, v0, h, h, n, n)
    U, V = grid.mesh()
    fields = {name: amps[2 * k] * np.sin(0.5 * (k + 1) * U + k) * np.cos(0.3 * (k + 2) * V)
              + amps[2 * k + 1] * np.cos(0.4 * (k + 1) * U - 0.7 * V + 1.0)
              for k, name in enumerate(FIELD_NAMES)}
    return FundamentalData(model=ambient_model(case, L0), grid=grid, **fields)


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
