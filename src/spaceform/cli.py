"""Command-line front end: check, twistor, reconstruct, construct, group, export.

Configs are YAML key-value documents; unknown keys are rejected so typos
fail loudly.  Exit codes: 0 success, 1 tolerance failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
import yaml

from .cases import SurfaceCase, case_from_name
from .errors import SpaceformError
from .fundamental import FIELD_NAMES, FundamentalData, ambient_model
from .grids import Grid
from .integrability import equivalence_check, field_jets, gcr_residuals, lax_residual
from .io import (
    read_field_csv,
    read_frames_csv,
    write_field_csv,
    write_frames_csv,
    write_obj_mesh,
    write_residual_report,
)
from .liegroup import GeneratorSpec, displayed_q, induced_action, lorentz_generator, phi_check
from .reconstruct import (
    DelbarInput,
    HolomorphicSpec,
    construct_delbar,
    construct_from_wxyz_curved,
    construct_from_wxyz_flat,
    integrate_frame,
    mean_curvature_and_isotropy,
)
from .twistor import (
    InvariantFamily,
    degeneracy_report,
    delbar_residual,
    family_labels,
    twistor_invariants,
)


class _InputError(Exception):
    """Malformed config / unreadable files; maps to exit code 2."""


def _load_config(path) -> dict:
    if path is None:
        raise _InputError("this subcommand needs --config PATH")
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = yaml.safe_load(f)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise _InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise _InputError(f"config {path} must be a mapping")
    return cfg


def _check_keys(cfg: dict, allowed, where="config"):
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise _InputError(f"unknown {where} keys: {sorted(unknown)}")


def _require(cfg: dict, key, where="config"):
    if key not in cfg:
        raise _InputError(f"missing {where} key: {key}")
    return cfg[key]


def _file_name(value, what) -> str:
    """A config value naming a file; anything but a non-empty string (a
    list, a mapping, an integer that ``open`` would take as a file
    descriptor) is an input error."""
    if not isinstance(value, str) or not value:
        raise _InputError(f"{what} must be a file name, got {value!r}")
    return value


_DATA_KEYS = ("case", "L0", "fields")


def _load_data(cfg, allowed=_DATA_KEYS + ("tolerance",)) -> FundamentalData:
    """FundamentalData from a config with case, L0 and named field files;
    keys outside ``allowed`` are input errors."""
    _check_keys(cfg, allowed)
    case = _case(_require(cfg, "case"))
    L0 = _real(_require(cfg, "L0"), "L0")
    files = _require(cfg, "fields")
    if not isinstance(files, dict) or not files:
        raise _InputError("'fields' must map field names to CSV paths")
    _check_keys(files, FIELD_NAMES, where="fields")
    grid = None
    arrays = {}
    for fname, path in sorted(files.items()):
        path = _file_name(path, f"field '{fname}'")
        try:
            g, _, vals = read_field_csv(path)
        except (OSError, SpaceformError) as exc:
            raise _InputError(f"field '{fname}': {exc}") from exc
        if np.iscomplexobj(vals):
            raise _InputError(f"field '{fname}': fundamental fields are real")
        if grid is None:
            grid = g
        elif g != grid:
            raise _InputError(f"field '{fname}' uses a different grid")
        arrays[fname] = vals
    for fname in FIELD_NAMES:
        arrays.setdefault(fname, np.zeros(grid.shape))
    try:
        return FundamentalData(model=ambient_model(case, L0), grid=grid, **arrays)
    except SpaceformError as exc:
        raise _InputError(str(exc)) from exc


def _case(name) -> SurfaceCase:
    try:
        return case_from_name(str(name))
    except KeyError as exc:
        raise _InputError(str(exc.args[0])) from exc


def _real(x, what, minimum=-math.inf) -> float:
    """A finite real config value >= minimum; a bool is not a number."""
    try:
        value = math.nan if isinstance(x, bool) else float(x)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and value >= minimum):
        bound = "" if minimum == -math.inf else f" >= {minimum:g}"
        raise _InputError(f"{what} must be a finite real number{bound}, got {x!r}")
    return value


def _integer(cfg, key, default, minimum) -> int:
    """An integer config value >= minimum; integral floats are accepted."""
    x = cfg.get(key, default)
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or (isinstance(x, float) and not x.is_integer()) or x < minimum):
        raise _InputError(f"'{key}' must be an integer >= {minimum}, got {x!r}")
    return int(x)


def _grid(cfg) -> Grid:
    if not isinstance(cfg, dict):
        raise _InputError("'grid' must be a mapping")
    _check_keys(cfg, {"u0", "v0", "du", "dv", "nu", "nv"}, where="grid")
    origin_steps = [_real(_require(cfg, key, "grid"), f"grid {key}")
                    for key in ("u0", "v0", "du", "dv")]
    try:
        return Grid(*origin_steps, _integer(cfg, "nu", None, 3), _integer(cfg, "nv", None, 3))
    except SpaceformError as exc:
        raise _InputError(f"bad grid: {exc}") from exc


def _coefficient(c) -> complex:
    """A holomorphic coefficient: a real number or an [re, im] pair."""
    if isinstance(c, (list, tuple)):
        if len(c) != 2:
            raise _InputError(f"'p' entries must be numbers or [re, im] pairs, got {c!r}")
        return complex(_real(c[0], "'p' entry"), _real(c[1], "'p' entry"))
    return complex(_real(c, "'p' entry"))


def _tolerance(args, cfg, default) -> float:
    """The --tolerance flag, else the tolerance key, else ``default``."""
    if args.tolerance is not None:
        return _real(args.tolerance, "--tolerance", minimum=0.0)
    return _real(cfg.get("tolerance", default), "tolerance", minimum=0.0)


def _worst(values) -> float:
    """The largest of ``values``; NaN if any is NaN, which Python's max
    would drop."""
    return float(np.max(list(values)))


def _gate(args, tol, worst, report: dict, what: str, detail: str = "") -> int:
    """End a gated subcommand: write ``<command>_report.json`` (``report``
    with ``tolerance`` and ``passed``), print the OK/FAIL line and return
    the exit code, all from the one comparison ``worst <= tol``, which a
    NaN fails."""
    passed = bool(worst <= tol)
    _report(args.out, f"{args.command}_report.json",
            {**report, "tolerance": tol, "passed": passed})
    verdict, relation = ("OK", "<=") if passed else ("FAIL", ">")
    print(f"{args.command}: {verdict} max {what} {worst:.3e} {relation} "
          f"tolerance {tol:.3e}{detail}")
    return 0 if passed else 1


def _report(out_dir, name, payload: dict):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    cfg = _load_config(args.config)
    data = _load_data(cfg)
    tol = _tolerance(args, cfg, data.grid.default_tol)
    jets = field_jets(data)
    residuals = gcr_residuals(data, jets).as_dict()
    residuals["lax"] = lax_residual(data, jets)
    for label, comb in equivalence_check(data, jets).items():
        residuals["equiv_" + (label or "main")] = comb
    summary = write_residual_report(args.out, "check", data.grid, residuals)
    worst = _worst(v["max"] for v in summary.values())
    failures = {k: v["argmax"] for k, v in summary.items() if not v["max"] <= tol}
    return _gate(args, tol, worst, {"max_residual": worst, "failures": failures},
                 "residual", f" at {failures}" if failures else "")


def _cmd_twistor(args) -> int:
    cfg = _load_config(args.config)
    data = _load_data(cfg, allowed=_DATA_KEYS)
    inv = twistor_invariants(data)
    for label, fam in inv.families.items():
        for comp in ("W", "X", "Y", "Z", "phi", "psi", "delta"):
            name = comp + label
            write_field_csv(os.path.join(args.out, f"twistor_{name}.csv"),
                            data.grid, name, getattr(fam, comp))
    rep = degeneracy_report(data, inv)
    _report(args.out, "twistor_report.json", {
        "nondegenerate": bool(rep.nondegenerate),
        "min_abs_delta": {label or "main": float(np.min(np.abs(d)))
                          for label, d in rep.delta.items()},
        "max_K_minus_L0": float(np.max(np.abs(rep.K_minus_L0))),
        "max_normal_curvature": float(np.max(np.abs(rep.rperp))),
    })
    print(f"twistor: wrote invariants ({'non' if rep.nondegenerate else ''}degenerate)")
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = _load_config(args.config)
    data = _load_data(cfg)
    tol = _tolerance(args, cfg, data.grid.default_tol)
    ff = integrate_frame(data, check_transposed=True)
    write_frames_csv(os.path.join(args.out, "frames.csv"), data.grid, ff.frames)
    diag = {k: float(v) for k, v in ff.diagnostics.items()}
    return _gate(args, tol, _worst(diag.values()), {"diagnostics": diag}, "diagnostic")


def _load_invariants(cfg, case):
    """(grid, {label: InvariantFamily}) from per-component complex CSVs."""
    files = _require(cfg, "invariants")
    labels = family_labels(case)
    if not isinstance(files, dict):
        raise _InputError("'invariants' must map family labels to component files")
    _check_keys(files, {lab or "main" for lab in labels}, where="invariants")
    grid = None
    fams = {}
    for lab in labels:
        fam_cfg = _require(files, lab or "main", "invariants")
        if not isinstance(fam_cfg, dict):
            raise _InputError(f"invariants[{lab or 'main'}] must map W/X/Y/Z to files")
        _check_keys(fam_cfg, {"W", "X", "Y", "Z"}, where=f"invariants[{lab or 'main'}]")
        comps = {}
        for comp in ("W", "X", "Y", "Z"):
            path = _file_name(_require(fam_cfg, comp, "invariant family"),
                              f"invariant {comp}{lab}")
            try:
                g, _, vals = read_field_csv(path)
            except (OSError, SpaceformError) as exc:
                raise _InputError(f"invariant {comp}{lab}: {exc}") from exc
            if grid is None:
                grid = g
            elif g != grid:
                raise _InputError(f"invariant {comp}{lab} uses a different grid")
            comps[comp] = vals
        zero = np.zeros(grid.shape)
        fams[lab] = InvariantFamily(comps["W"], comps["X"], comps["Y"], comps["Z"],
                                    zero, zero, zero)
    return grid, fams


def _cmd_construct(args) -> int:
    cfg = _load_config(args.config)
    mode = _require(cfg, "mode")
    if mode == "delbar":
        _check_keys(cfg, {"mode", "L0", "grid", "p", "r", "tolerance"})
        grid = _grid(_require(cfg, "grid"))
        coeffs = _require(cfg, "p")
        if not isinstance(coeffs, (list, tuple)) or not coeffs:
            raise _InputError("'p' must be a non-empty coefficient list")
        p = HolomorphicSpec(tuple(map(_coefficient, coeffs)))
        inp = DelbarInput(L0=_real(_require(cfg, "L0"), "L0"), grid=grid, p=p,
                          r=_real(cfg.get("r", 0.0), "r"))
        data = construct_delbar(inp)
        inv = twistor_invariants(data)
        d1, d2 = delbar_residual(data, inv)
        rep = degeneracy_report(data, inv)
        H = mean_curvature_and_isotropy(data)["H"]
        extra = {
            "delbar_residual": _worst(np.max(np.abs(d)) for d in (d1, d2)),
            "nondegenerate": bool(rep.nondegenerate),
            "max_K_minus_L0": float(np.max(np.abs(rep.K_minus_L0))),
            "max_mean_curvature": _worst(np.max(np.abs(h)) for h in H),
        }
    elif mode in ("wxyz-flat", "wxyz-curved"):
        _check_keys(cfg, {"mode", "case", "L0", "invariants", "tolerance"})
        case = _case(_require(cfg, "case"))
        grid, fams = _load_invariants(cfg, case)
        if mode == "wxyz-flat":
            data = construct_from_wxyz_flat(fams, case, grid)
        else:
            L0 = _real(_require(cfg, "L0"), "L0")
            data = construct_from_wxyz_curved(fams, L0, case, grid)
        extra = {}
    else:
        raise _InputError(f"unknown construct mode {mode!r}")
    for fname in FIELD_NAMES:
        write_field_csv(os.path.join(args.out, f"{fname}.csv"), data.grid,
                        fname, getattr(data, fname))
    tol = _tolerance(args, cfg, data.grid.default_tol)
    summary = write_residual_report(args.out, "construct", data.grid,
                                    gcr_residuals(data).as_dict())
    return _gate(args, tol, _worst(v["max"] for v in summary.values()),
                 {"mode": mode, "gcr": summary, **extra}, "GCR", f" (mode {mode})")


def _cmd_group(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    _check_keys(cfg, {"words", "word_length", "seed", "tolerance"})
    words = _integer(cfg, "words", 100, 1)
    length = _integer(cfg, "word_length", 5, 1)
    seed = _integer(cfg, "seed", 0, 0)
    tol = _tolerance(args, cfg, 1e-9)
    rng = np.random.default_rng(seed)
    specs = [GeneratorSpec(k, l, float(t))
             for k in (1, 2, 3) for l in (1, 2) for t in rng.uniform(-1.5, 1.5, size=5)]
    gen_err = _worst(np.max(np.abs(induced_action(lorentz_generator(spec)) - displayed_q(spec)))
                     for spec in specs)
    word_specs = [
        [GeneratorSpec(int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                       float(rng.uniform(-1.0, 1.0))) for _ in range(length)]
        for _ in range(words)
    ]
    hom_err = phi_check(word_specs)
    return _gate(args, tol, _worst((gen_err, hom_err)),
                 {"generator_residual": gen_err, "homomorphism_residual": hom_err,
                  "words": words, "word_length": length, "seed": seed},
                 "residual", f" over {words} words")


def _cmd_export(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"frames", "projection", "mesh"})
    path = _require(cfg, "frames")
    mesh = cfg.get("mesh", "surface.obj")
    for key, value in (("frames", path), ("mesh", mesh)):
        _file_name(value, f"'{key}'")
    try:
        grid, frames = read_frames_csv(path)
    except (OSError, SpaceformError) as exc:
        raise _InputError(f"frames: {exc}") from exc
    n = frames.shape[2]
    proj = cfg.get("projection")
    if proj is None:
        proj = np.eye(3, n)
    else:
        try:
            proj = np.asarray(proj, dtype=float)
        except (TypeError, ValueError) as exc:
            raise _InputError(f"projection must be a 3x{n} matrix of numbers: {exc}") from exc
    if proj.shape != (3, n):
        raise _InputError(f"projection must be 3x{n}, got {proj.shape}")
    if not np.all(np.isfinite(proj)):
        raise _InputError("projection matrix has non-finite entries")
    if np.linalg.matrix_rank(proj) < 3:
        raise _InputError("projection matrix has rank < 3")
    points = frames[..., :, 4] @ proj.T
    write_obj_mesh(os.path.join(args.out, mesh), points)
    print(f"export: wrote {mesh} ({grid.nu}x{grid.nv} vertices)")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "twistor": _cmd_twistor,
    "reconstruct": _cmd_reconstruct,
    "construct": _cmd_construct,
    "group": _cmd_group,
    "export": _cmd_export,
}


# the subcommands that compare a result with a tolerance
_GATED = ("check", "reconstruct", "construct", "group")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a command-line error in one stderr line, without the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="spaceform",
        description="Surface compatibility checks, twistor invariants, frame "
                    "integration and constructions in 4-dimensional space forms.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "compatibility (Gauss/Codazzi/Ricci and zero-curvature) residuals"),
        ("twistor", "export twistor invariant fields and the degeneracy report"),
        ("reconstruct", "integrate the frame field from fundamental data"),
        ("construct", "build fundamental data (wxyz-flat, wxyz-curved, delbar)"),
        ("group", "verify the Lorentz-to-SO(3,C) action on self-dual 2-vectors"),
        ("export", "project a frame field to a polygon mesh"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="YAML configuration file")
        if name in _GATED:
            sp.add_argument("--tolerance", type=float, default=None,
                            help="override the configured tolerance")
        sp.add_argument("--out", default=".", help="output directory")
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpaceformError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
