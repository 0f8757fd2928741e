"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing capture) so the run log
shows the per-criterion outcome explicitly.
"""

import sys
import time

import numpy as np
import pytest

from conftest import geodesic_sphere_data, random_smooth_data, sphere_data, zero_data
from spaceform.cases import SurfaceCase
from spaceform.grids import Grid
from spaceform.integrability import equivalence_check, gcr_residuals, lax_residual
from spaceform.liegroup import (
    GeneratorSpec,
    displayed_q,
    induced_action,
    lorentz_generator,
    phi_check,
)
from spaceform.reconstruct import (
    DelbarInput,
    HolomorphicSpec,
    construct_delbar,
    construct_from_wxyz_flat,
    extract_fundamental,
    integrate_frame,
    mean_curvature_and_isotropy,
)
from spaceform.twistor import (
    curvature_residual,
    degeneracy_report,
    delbar_residual,
    twistor_invariants,
)


def _report(criterion: int, passed: bool, detail: str):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def test_criterion_1_sphere_golden_convergence():
    t0 = time.time()
    maxima = {}
    for h, n in ((0.02, 101), (0.01, 201)):
        data = sphere_data(n=n)
        assert abs(data.grid.h - h) < 1e-12
        res = gcr_residuals(data)
        maxima[h] = (float(np.max(np.abs(res.gauss))),
                     float(np.max(lax_residual(data))))
    elapsed = time.time() - t0
    ok = True
    detail = []
    for h in (0.02, 0.01):
        g, l = maxima[h]
        ok &= g < 10 * h**2 and l < 10 * h**2
        detail.append(f"h={h}: gauss {g:.2e}, lax {l:.2e} (bound {10*h**2:.1e})")
    ratios = (maxima[0.02][0] / maxima[0.01][0], maxima[0.02][1] / maxima[0.01][1])
    ok &= all(3.2 <= r <= 4.8 for r in ratios)
    ok &= elapsed < 10.0
    detail.append(f"ratios {ratios[0]:.2f}/{ratios[1]:.2f}, {elapsed:.1f}s")
    _report(1, ok, "; ".join(detail))


def test_criterion_2_reconstruction_round_trip():
    t0 = time.time()
    data = sphere_data(n=201)
    ff = integrate_frame(data)
    center = np.array([0.0, 0.0, -1.0, 0.0])
    radial = ff.position - center
    radius_err = float(np.max(np.abs(np.einsum("ijk,ijk->ij", radial, radial) - 1.0)))
    back = extract_fundamental(ff)
    field_err = max(float(np.max(np.abs(getattr(back, n) - getattr(data, n))))
                    for n in ("lam", "alpha1", "alpha2", "alpha3",
                              "beta1", "beta2", "beta3", "mu1", "mu2"))
    elapsed = time.time() - t0
    ok = radius_err < 1e-6 and field_err < 1e-5 and elapsed < 30.0
    _report(2, ok, f"|<F-c,F-c>-1| {radius_err:.2e} (<1e-6), "
                   f"field error {field_err:.2e} (<1e-5), {elapsed:.1f}s")


def test_criterion_3_degeneracy_dichotomy():
    h = 0.01
    sphere = sphere_data(n=201)
    rep_s = degeneracy_report(sphere, twistor_invariants(sphere))
    nondeg_ok = rep_s.nondegenerate and float(np.max(np.abs(rep_s.K_minus_L0))) > 0.5

    zero = zero_data(SurfaceCase.RIEM, Grid.centered(1.0, 21))
    rep_z = degeneracy_report(zero, twistor_invariants(zero))
    zero_ok = (not rep_z.nondegenerate
               and float(np.max(np.abs(rep_z.K_minus_L0))) == 0.0
               and float(np.max(np.abs(rep_z.rperp))) == 0.0)

    delbar = construct_delbar(DelbarInput(
        L0=-1.0, grid=Grid.centered(0.5, 101), p=HolomorphicSpec((0.0, 1.0))))
    rep_d = degeneracy_report(delbar, twistor_invariants(delbar))
    kerr = float(np.max(np.abs(rep_d.K_minus_L0)))
    rerr = float(np.max(np.abs(rep_d.rperp)))
    delbar_ok = (not rep_d.nondegenerate) and kerr < 10 * h**2 and rerr < 10 * h**2

    ok = nondeg_ok and zero_ok and delbar_ok
    _report(3, ok, f"sphere nondegenerate={rep_s.nondegenerate}, "
                   f"zero degenerate with K=L0=0, "
                   f"delbar degenerate |K-L0| {kerr:.2e}, |Rperp| {rerr:.2e}")


def test_criterion_4_equivalence_identities(rng):
    grid = Grid.centered(1.0, 12)
    bound = 10 * grid.h**2
    worst = 0.0
    for case in SurfaceCase:
        for _ in range(100):
            data = random_smooth_data(case, grid, rng)
            for comb in equivalence_check(data).values():
                worst = max(worst, float(np.max(np.abs(comb))))
    ok = worst < bound
    _report(4, ok, f"max combination residual {worst:.2e} over 100x5 "
                   f"random data sets (bound {bound:.1e})")


def test_criterion_5_curvature_identity():
    detail = []
    ok = True
    for name, data in (("sphere L0=0", sphere_data(n=101)),
                       ("geodesic S2 in S4", geodesic_sphere_data(n=101))):
        bound = 10 * data.grid.h**2
        worst = max(float(np.max(np.abs(r)))
                    for r in curvature_residual(data).values())
        ok &= worst < bound
        detail.append(f"{name}: {worst:.2e} (<{bound:.1e})")
    _report(5, ok, "; ".join(detail))


def test_criterion_6_lie_group_suite(rng):
    t0 = time.time()
    gen_err = 0.0
    ortho_err = 0.0
    for k in (1, 2, 3):
        for l in (1, 2):
            for t in rng.uniform(-2.0, 2.0, size=20):
                spec = GeneratorSpec(k, l, float(t))
                q = induced_action(lorentz_generator(spec))
                gen_err = max(gen_err, float(np.max(np.abs(q - displayed_q(spec)))))
                ortho_err = max(ortho_err, float(np.max(np.abs(q.T @ q - np.eye(3)))))
    words = [[GeneratorSpec(int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                            float(rng.uniform(-1.0, 1.0))) for _ in range(5)]
             for _ in range(100)]
    hom_err = phi_check(words)
    central = float(np.max(np.abs(induced_action(-np.eye(4)) - np.eye(3))))
    elapsed = time.time() - t0
    ok = (gen_err < 1e-12 and hom_err < 1e-9 and central == 0.0
          and ortho_err < 1e-12 and elapsed < 5.0)
    _report(6, ok, f"generators {gen_err:.1e} (<1e-12), words {hom_err:.1e} (<1e-9), "
                   f"central image exact={central == 0.0}, "
                   f"orthogonality {ortho_err:.1e}, {elapsed:.1f}s")


def test_criterion_7_delbar_pipeline():
    h = 0.01
    grid = Grid.centered(0.5, 101)
    data = construct_delbar(DelbarInput(L0=-1.0, grid=grid, p=HolomorphicSpec((0.0, 1.0))))
    d1, d2 = delbar_residual(data, twistor_invariants(data))
    dbar = float(max(np.max(np.abs(d1)), np.max(np.abs(d2))))
    gcr = gcr_residuals(data).max_abs()
    hmax = max(float(np.max(np.abs(c)))
               for c in mean_curvature_and_isotropy(data)["H"])

    # the isotropy relation needs p = w nonzero: test on an offset subgrid
    off = Grid(0.02, 0.02, h, h, 44, 44)
    spec = DelbarInput(L0=-1.0, grid=off, p=HolomorphicSpec((0.0, 1.0)))
    iso = mean_curvature_and_isotropy(construct_delbar(spec), spec)["eps_relation"]
    iso_err = min(iso.values())

    rough = construct_delbar(DelbarInput(L0=-1.0, grid=grid,
                                         p=HolomorphicSpec((0.0, 1.0)), r=1.0))
    hrough = max(float(np.max(np.abs(c)))
                 for c in mean_curvature_and_isotropy(rough)["H"])

    ok = (dbar < 1e-12 and gcr < 10 * h**2 and hmax == 0.0
          and iso_err < 1e-6 and hrough > 0.1)
    _report(7, ok, f"delbar {dbar:.1e} (<1e-12), GCR {gcr:.2e} (<{10*h**2:.0e}), "
                   f"max|H| {hmax}, isotropy {iso_err:.1e} (<1e-6), "
                   f"r=1 max|H| {hrough:.2f} (>0.1)")


def test_criterion_8_wxyz_flat_round_trip():
    data = sphere_data(n=101)
    h = data.grid.h
    inv = twistor_invariants(data)
    out = construct_from_wxyz_flat(inv, SurfaceCase.RIEM, data.grid)

    lam_shift = out.lam - data.lam
    gauge_err = float(np.max(np.abs(lam_shift - lam_shift[0, 0])))
    field_err = max(float(np.max(np.abs(getattr(out, n) - getattr(data, n))))
                    for n in ("alpha1", "alpha2", "alpha3",
                              "beta1", "beta2", "beta3", "mu1", "mu2"))
    gcr = gcr_residuals(out).max_abs()
    bound = 10 * h**2
    ok = gauge_err < bound and field_err < bound and gcr < bound
    _report(8, ok, f"lam gauge error {gauge_err:.2e}, field error {field_err:.2e}, "
                   f"GCR {gcr:.2e} (all <{bound:.1e})")
