"""The three workloads: their inputs, their jobs and each job's checks.

A job is one CLI invocation (``spaceform.cli.main``) or one group of
library calls, timed on its own.  Its ``kind`` names the CLI subcommand it
is, or, for library calls, the subcommand whose work the calls do.  Every
call goes through the module attribute (``integrability.gcr_residuals``,
not a local alias) so that the tracer sees it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spaceform import cli, integrability, reconstruct, twistor
from spaceform.cases import SurfaceCase
from spaceform.fundamental import FIELD_NAMES

import inputs
import verify

RIEM = SurfaceCase.RIEM


@dataclass
class Job:
    name: str                       # unique within the workload
    kind: str                       # check, twistor, reconstruct, export, construct, group, identity
    run: Callable                   # run(out_dir) -> exit code (CLI) or result (library)
    check: Callable                 # check(verdict, result, out_dir), untimed
    cli: bool = True
    keep: bool = False              # a later job of the pass reads its output directory


def _cli(argv):
    return lambda out: cli.main(argv + ["--out", out])


def out_dir(work, name):
    return os.path.join(work, "out", name)


# ---------------------------------------------------------------------------
# cli-sphere-401


def cli_sphere_401(seed, work):
    rng = np.random.default_rng(seed)
    grid = inputs.sphere_grid(401, rng)
    fields = inputs.umbilic_sphere(grid)
    paths = inputs.write_fields(os.path.join(work, "in"), grid, fields,
                                ("lam", "alpha1", "alpha3"))
    cfg = inputs.write_yaml(os.path.join(work, "sphere.yaml"),
                            {"case": "riemannian", "L0": 0.0, "fields": paths})
    frames = os.path.join(out_dir(work, "reconstruct"), "frames.csv")
    ecfg = inputs.write_yaml(os.path.join(work, "export.yaml"), {"frames": frames})
    return [
        Job("check", "check", _cli(["check", "--config", cfg]),
            lambda v, code, out: verify.cli_check(v, code, out, grid, 2, golden=True)),
        Job("twistor", "twistor", _cli(["twistor", "--config", cfg]),
            lambda v, code, out: verify.cli_twistor_sphere(v, code, out, grid, fields)),
        Job("reconstruct", "reconstruct", _cli(["reconstruct", "--config", cfg]),
            lambda v, code, out: verify.cli_reconstruct(v, code, out, grid, fields, golden=True),
            keep=True),
        Job("export", "export", _cli(["export", "--config", ecfg]),
            lambda v, code, out: verify.cli_export(v, code, out, frames, grid)),
    ]


# ---------------------------------------------------------------------------
# cli-small

SMALL_SIZES = (41, 61, 101)
GOLDEN_SMALL = 101          # the grid whose sphere gives gcr_max, lax_max, frame_drift


def cli_small(seed, work):
    rng = np.random.default_rng(seed)
    jobs = []
    for n in SMALL_SIZES:
        jobs += _small_jobs(n, inputs.sphere_grid(n, rng), work)
    return jobs


def _small_jobs(n, grid, work):
    d = os.path.join(work, f"in{n}")
    sphere = inputs.umbilic_sphere(grid)
    s4 = inputs.umbilic_sphere(grid, L0=1.0)
    sphere_cfg = inputs.write_yaml(os.path.join(d, "sphere.yaml"), {
        "case": "riemannian", "L0": 0.0,
        "fields": inputs.write_fields(d, grid, sphere, ("lam", "alpha1", "alpha3"))})
    flat_cfg = inputs.write_yaml(os.path.join(d, "flat.yaml"), {
        "mode": "wxyz-flat", "case": "riemannian", "L0": 0.0,
        "invariants": inputs.write_invariants(os.path.join(d, "flat"), grid,
                                              inputs.sphere_invariants(sphere))})
    curved_cfg = inputs.write_yaml(os.path.join(d, "curved.yaml"), {
        "mode": "wxyz-curved", "case": "riemannian", "L0": 1.0,
        "invariants": inputs.write_invariants(os.path.join(d, "curved"), grid,
                                              inputs.sphere_invariants(s4))})
    dgrid = inputs.delbar_grid(n)
    delbar = inputs.delbar_fields(dgrid)
    delbar_cfg = inputs.write_yaml(os.path.join(d, "delbar.yaml"), {
        "mode": "delbar", "L0": inputs.DELBAR_L0, "p": inputs.DELBAR_P,
        "grid": {"u0": dgrid.u0, "v0": dgrid.v0, "du": dgrid.du, "dv": dgrid.dv,
                 "nu": n, "nv": n}})
    built = out_dir(work, f"construct-delbar.{n}")
    lor_cfg = inputs.write_yaml(os.path.join(d, "lorentzian.yaml"), {
        "case": "lorentzian-spacelike", "L0": inputs.DELBAR_L0,
        "fields": {f: os.path.join(built, f"{f}.csv") for f in FIELD_NAMES}})
    frames = os.path.join(out_dir(work, f"reconstruct.{n}"), "frames.csv")
    export_cfg = inputs.write_yaml(os.path.join(d, "export.yaml"), {"frames": frames})
    golden = n == GOLDEN_SMALL
    return [
        Job(f"construct-delbar.{n}", "construct", _cli(["construct", "--config", delbar_cfg]),
            lambda v, c, o: verify.cli_construct_delbar(v, c, o, dgrid, delbar), keep=True),
        Job(f"check-delbar.{n}", "check", _cli(["check", "--config", lor_cfg]),
            lambda v, c, o: verify.cli_check(v, c, o, dgrid, 1, golden=False)),
        Job(f"twistor-delbar.{n}", "twistor", _cli(["twistor", "--config", lor_cfg]),
            lambda v, c, o: verify.cli_twistor_delbar(v, c, o, dgrid)),
        Job(f"construct-wxyz-flat.{n}", "construct", _cli(["construct", "--config", flat_cfg]),
            lambda v, c, o: verify.cli_construct_wxyz(v, c, o, grid, sphere, curved=False)),
        Job(f"construct-wxyz-curved.{n}", "construct", _cli(["construct", "--config", curved_cfg]),
            lambda v, c, o: verify.cli_construct_wxyz(v, c, o, grid, s4, curved=True)),
        Job(f"check-sphere.{n}", "check", _cli(["check", "--config", sphere_cfg]),
            lambda v, c, o: verify.cli_check(v, c, o, grid, 2, golden=golden)),
        Job(f"reconstruct.{n}", "reconstruct", _cli(["reconstruct", "--config", sphere_cfg]),
            lambda v, c, o: verify.cli_reconstruct(v, c, o, grid, sphere, golden=golden),
            keep=True),
        Job(f"export.{n}", "export", _cli(["export", "--config", export_cfg]),
            lambda v, c, o: verify.cli_export(v, c, o, frames, grid)),
        Job(f"group.{n}", "group", _cli(["group"]),
            lambda v, c, o: verify.cli_group(v, c, o)),
    ]


# ---------------------------------------------------------------------------
# api-801

API_N = 801


def _check_calls(data):
    return (integrability.gcr_residuals(data), integrability.lax_residual(data),
            integrability.equivalence_check(data))


def _twistor_calls(data, with_ab=True):
    inv = twistor.twistor_invariants(data)
    rep = twistor.degeneracy_report(data, inv)
    curv = twistor.curvature_residual(data)
    ab = twistor.ab_functions(inv) if with_ab else None
    return inv, rep, curv, ab


def _reconstruct_calls(data):
    ff = reconstruct.integrate_frame(data, check_transposed=True)
    return ff, reconstruct.extract_fundamental(ff)


def api_801(seed, work):
    rng = np.random.default_rng(seed)
    grid = inputs.sphere_grid(API_N, rng)
    flat_fields = inputs.umbilic_sphere(grid)
    flat = inputs.array_data(flat_fields, RIEM, 0.0, grid)
    flat_inv = inputs.sphere_invariants(flat_fields)
    s4_fields = inputs.umbilic_sphere(grid, L0=1.0)
    s4 = inputs.array_data(s4_fields, RIEM, 1.0, grid)
    s4_inv = inputs.sphere_invariants(s4_fields)
    dgrid = inputs.delbar_grid(API_N)
    delbar_golden = inputs.delbar_fields(dgrid)
    delbar_in = reconstruct.DelbarInput(
        L0=inputs.DELBAR_L0, grid=dgrid, lam=delbar_golden["lam"],
        p=reconstruct.HolomorphicSpec(tuple(complex(*c) for c in inputs.DELBAR_P)))
    randoms = [inputs.smooth_random(case, grid, rng) for case in SurfaceCase]
    built = {}

    def construct_delbar(out):
        built["delbar"] = reconstruct.construct_delbar(delbar_in)
        return built["delbar"]

    jobs = [
        Job("check.flat", "check", lambda out: _check_calls(flat),
            lambda v, r, out: verify.api_check(v, r, golden=True), cli=False),
        Job("twistor.flat", "twistor", lambda out: _twistor_calls(flat),
            lambda v, r, out: verify.api_twistor(v, r, flat_inv, True), cli=False),
        Job("construct.flat", "construct",
            lambda out: reconstruct.construct_from_wxyz_flat(flat_inv, RIEM, grid),
            lambda v, r, out: verify.wxyz_fields(v, r.fields, flat_fields, grid, False,
                                                 "construct_from_wxyz_flat"), cli=False),
        Job("reconstruct.flat", "reconstruct", lambda out: _reconstruct_calls(flat),
            lambda v, r, out: verify.api_reconstruct(v, r, flat, flat=True, golden=True),
            cli=False),
        Job("check.s4", "check", lambda out: _check_calls(s4),
            lambda v, r, out: verify.api_check(v, r, golden=False), cli=False),
        Job("twistor.s4", "twistor", lambda out: _twistor_calls(s4),
            lambda v, r, out: verify.api_twistor(v, r, s4_inv, True), cli=False),
        Job("construct.s4", "construct",
            lambda out: reconstruct.construct_from_wxyz_curved(s4_inv, 1.0, RIEM, grid),
            lambda v, r, out: verify.wxyz_fields(v, r.fields, s4_fields, grid, True,
                                                 "construct_from_wxyz_curved"), cli=False),
        Job("reconstruct.s4", "reconstruct", lambda out: _reconstruct_calls(s4),
            lambda v, r, out: verify.api_reconstruct(v, r, s4, flat=False, golden=False),
            cli=False),
        Job("construct.delbar", "construct", construct_delbar,
            lambda v, r, out: verify.closed_form_fields(v, r.fields, delbar_golden,
                                                        "construct_delbar"), cli=False),
        Job("check.delbar", "check", lambda out: _check_calls(built["delbar"]),
            lambda v, r, out: verify.api_check(v, r, golden=False), cli=False),
        # Delta vanishes identically on delbar data, so there is no A/B solve
        Job("twistor.delbar", "twistor", lambda out: _twistor_calls(built["delbar"], False),
            lambda v, r, out: verify.api_twistor(v, r, None, False), cli=False),
    ]
    for data in randoms:
        jobs.append(Job(f"identity.{data.case.value}", "identity",
                        lambda out, data=data: integrability.equivalence_check(data),
                        lambda v, r, out: verify.api_identity(v, r), cli=False))
    return jobs


WORKLOADS = {
    "cli-sphere-401": cli_sphere_401,
    "api-801": api_801,
    "cli-small": cli_small,
}

# Bytes of the largest array api-801 computes: an 801 x 801 stack of 5 x 5
# float64 connection matrices.
API_LARGEST_ARRAY = API_N * API_N * 5 * 5 * 8
