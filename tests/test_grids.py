import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spaceform.errors import ConfigError
from spaceform.grids import (
    Grid,
    d2_du,
    d2_du_range,
    d2_dv,
    d_du,
    d_du_range,
    d_dv,
    half_samples,
    half_samples_range,
)


def test_grid_axes_and_mesh():
    g = Grid(-1.0, 0.0, 0.5, 0.25, 5, 9)
    assert g.shape == (5, 9)
    assert np.allclose(g.u, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.v[0] == 0.0 and g.v[-1] == pytest.approx(2.0)
    U, V = g.mesh()
    assert U.shape == (5, 9)
    assert U[3, 0] == 0.5 and V[0, 4] == 1.0
    assert g.h == 0.5


def test_grid_centered():
    g = Grid.centered(1.0, 11)
    assert g.u0 == -1.0 and g.v0 == -1.0
    assert g.u[-1] == pytest.approx(1.0)
    assert g.nu == g.nv == 11


@pytest.mark.parametrize("n", [-3, 0, 1, 2])
def test_grid_centered_needs_three_points(n):
    with pytest.raises(ConfigError, match="at least 3 points per axis"):
        Grid.centered(1.0, n)


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(0, 0, -0.1, 0.1, 5, 5)
    with pytest.raises(ConfigError):
        Grid(0, 0, 0.1, 0.1, 2, 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["u0", "v0", "du", "dv"])
def test_grid_rejects_non_finite(field, bad):
    kwargs = dict(u0=0.0, v0=0.0, du=0.1, dv=0.1, nu=5, nv=5)
    kwargs[field] = bad
    with pytest.raises(ConfigError):
        Grid(**kwargs)


@pytest.mark.parametrize("order,rate", [(2, 2.0), (4, 4.0)])
def test_first_derivative_convergence(order, rate):
    errs = []
    for n in (81, 161):
        g = Grid.centered(1.0, n)
        U, V = g.mesh()
        f = np.sin(2.0 * U) * np.cos(V)
        exact = 2.0 * np.cos(2.0 * U) * np.cos(V)
        errs.append(np.max(np.abs(d_du(f, g, order=order) - exact)))
    observed = np.log2(errs[0] / errs[1])
    assert observed > rate - 0.35


def test_first_derivative_exact_on_polynomials():
    g = Grid.centered(1.0, 11)
    U, V = g.mesh()
    assert np.allclose(d_du(U**2 + V, g), 2.0 * U, atol=1e-13)
    assert np.allclose(d_dv(3.0 * V - U, g), 3.0 * np.ones_like(V), atol=1e-13)
    # order 4 is exact through quartics
    assert np.allclose(d_du(U**4, g, order=4), 4.0 * U**3, atol=1e-12)


def test_second_derivative_uniform_order():
    errs = []
    for n in (41, 81):
        g = Grid.centered(1.0, n)
        U, V = g.mesh()
        f = np.exp(U) * np.sin(V)
        errs.append(np.max(np.abs(d2_du(f, g) - f)))
    assert np.log2(errs[0] / errs[1]) > 1.7
    g = Grid.centered(1.0, 11)
    U, V = g.mesh()
    assert np.allclose(d2_dv(V**3, g), 6.0 * V, atol=1e-11)


def test_second_derivative_edge_rows_are_third_order():
    errs = []
    for n in (81, 161, 321):
        g = Grid.centered(1.0, n)
        U, V = g.mesh()
        f = np.exp(U) * np.sin(2.0 * V)
        err_u = np.abs(d2_du(f, g) - f)
        err_v = np.abs(d2_dv(f, g) + 4.0 * f)
        errs.append(max(np.max(err_u[[0, -1]]), np.max(err_v[:, [0, -1]])))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 2.7), rates


def test_second_derivative_edge_stencils_are_exact_on_polynomials():
    # five-point edge rows are exact through quartics, four-point axes through cubics
    g = Grid.centered(1.0, 7)
    U, _ = g.mesh()
    assert np.allclose(d2_du(U**4, g)[[0, -1]], 12.0 * U[[0, -1]]**2, atol=1e-10)
    g4 = Grid(0.0, 0.0, 0.5, 0.5, 4, 3)
    U, _ = g4.mesh()
    assert np.allclose(d2_du(U**3, g4), 6.0 * U, atol=1e-12)


def test_half_samples_matches_cubics():
    g = Grid.centered(1.0, 21)
    U, V = g.mesh()
    f = U**3 - 2.0 * U + 1.0
    mid = half_samples(f, axis=0)
    um = 0.5 * (U[:-1] + U[1:])
    exact = um**3 - 2.0 * um + 1.0
    # interior (Catmull-Rom) exact on cubics; ends quadratic
    assert np.max(np.abs(mid[1:-1] - exact[1:-1])) < 1e-13
    assert np.max(np.abs(mid - exact)) < 5e-3


def _textbook_d4(f, h):
    """Fourth-order first difference along axis 0, one expression per row."""
    if f.shape[0] < 5:
        return np.gradient(f, h, axis=0, edge_order=2)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    out[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    out[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * h)
    out[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * h)
    out[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * h)
    return out


def _textbook_d2(f, h):
    """Second difference along axis 0, one expression per row."""
    out = np.empty_like(f)
    h2 = h * h
    out[1:-1] = (f[:-2] - 2 * f[1:-1] + f[2:]) / h2
    if f.shape[0] < 5:
        out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h2
        out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h2
    else:
        out[0] = (35 * f[0] - 104 * f[1] + 114 * f[2] - 56 * f[3] + 11 * f[4]) / (12 * h2)
        out[-1] = (35 * f[-1] - 104 * f[-2] + 114 * f[-3] - 56 * f[-4] + 11 * f[-5]) / (12 * h2)
    return out


def _textbook_half(f):
    """Midpoint samples along axis 0, one expression per row."""
    out = np.empty((f.shape[0] - 1,) + f.shape[1:], dtype=f.dtype)
    out[1:-1] = (-f[:-3] + 9 * f[1:-2] + 9 * f[2:-1] - f[3:]) / 16
    out[0] = (3 * f[0] + 6 * f[1] - f[2]) / 8
    out[-1] = (3 * f[-1] + 6 * f[-2] - f[-3]) / 8
    return out


@pytest.mark.parametrize("n", [4, 5, 6, 41])
@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("dtype", [float, complex])
def test_in_place_stencils_match_textbook_expressions(n, strided, dtype):
    """The stencils evaluate their terms in place, in the textbook order:
    every bit equals the one-expression form, on contiguous inputs and on
    strided views, and on the short axes that take the edge fallbacks."""
    rng = np.random.default_rng(n)
    draw = lambda shape: (rng.standard_normal(shape) if dtype is float
                          else rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    f = np.moveaxis(draw((7, 3, n)), 2, 0) if strided else draw((n, 7, 3))
    assert f.flags.c_contiguous is not strided
    g = Grid(0.0, 0.0, 0.1, 0.3, n, n)
    fv = np.moveaxis(f, 0, 1)          # the same values with the n axis along v
    cases = [
        (d_du(f, g, order=4), _textbook_d4(f, g.du)),
        (np.moveaxis(d_dv(fv, g, order=4), 1, 0), _textbook_d4(f, g.dv)),
        (d2_du(f, g), _textbook_d2(f, g.du)),
        (np.moveaxis(d2_dv(fv, g), 1, 0), _textbook_d2(f, g.dv)),
        (half_samples(f, axis=0), _textbook_half(f)),
        (np.moveaxis(half_samples(fv, axis=1), 1, 0), _textbook_half(f)),
    ]
    # the same midpoints a block of 1, 2 or 3 steps at a time
    for size in (1, 2, 3):
        cases.append((np.concatenate([half_samples_range(f, i, min(i + size, n - 1))
                                      for i in range(0, n - 1, size)]), _textbook_half(f)))
    for got, ref in cases:
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def _rows_read(n, start, stop, edge):
    """The rows a range kernel may read: those next to [start, stop), and
    the first or last ``edge`` at a true edge."""
    rows = set(range(max(0, start - 1), min(n, stop + 1)))
    if start == 0:
        rows |= set(range(min(edge, n)))
    if stop == n:
        rows |= set(range(max(0, n - edge), n))
    return sorted(rows)


@given(st.integers(3, 30), st.integers(0, 2**32 - 1), st.sampled_from([float, complex]),
       st.data())
def test_range_kernels_are_rows_of_the_whole_grid_differences(nu, seed, dtype, choice):
    """d_du_range and d2_du_range give d_du(f)[start:stop] and
    d2_du(f)[start:stop] bit for bit, NaN included, and read only the rows
    next to the range and the 3 or 5 edge rows; the whole-grid order-2
    d_du and d_dv are np.gradient(edge_order=2) bit for bit."""
    start = choice.draw(st.integers(0, nu - 1))
    stop = choice.draw(st.integers(start + 1, nu))
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((nu, 4)).astype(dtype)
    if dtype is complex:
        f += 1j * rng.standard_normal((nu, 4))
    f[rng.integers(nu), rng.integers(4)] = np.nan
    g = Grid(0.0, 0.0, float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.01, 1.0)), nu, 4)
    for kernel, whole, edge in ((d_du_range, d_du, 3), (d2_du_range, d2_du, 5)):
        ref = whole(f, g)[start:stop]
        poisoned = np.full_like(f, 1e300)
        read = _rows_read(nu, start, stop, edge)
        poisoned[read] = f[read]
        for rows in (f, poisoned):
            got = kernel(rows, g, start, stop)
            assert got.flags.c_contiguous and got.dtype == f.dtype
            assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(d_du(f, g), np.gradient(f, g.du, axis=0, edge_order=2),
                          equal_nan=True)
    assert np.array_equal(d_dv(f.T, g), np.gradient(f.T, g.dv, axis=1, edge_order=2),
                          equal_nan=True)
