"""Output checks, kept out of the timed region.

A ``Verdict`` sorts what a check finds into two lists:

* ``broken`` — the outputs are wrong or inconsistent: a file does not
  parse, a report disagrees with the per-equation CSVs written beside it,
  an exact identity exceeds ``IDENTITY_TOL``, or a repeated job is not
  byte-identical.  Any entry makes the run's ``correct`` false.
* ``failed`` — the job ran and reported truthfully but did not meet its
  accuracy bound (exit 1, a round trip or a sphere radius above its
  bound).  These count as failed jobs, as do exit 2 and exceptions.

The parsers here use numpy directly, not spaceform's readers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

from inputs import sphere_invariants

IDENTITY_TOL = 1e-10        # exact identities: rounding error only
EXACT_TOL = 1e-12           # values that must round-trip through CSV exactly
WXYZ_FLAT_TOL = 10.0        # lam round trip of the flat construction, times h^2
ACCURACY_TOL = 100.0        # the library's default tolerance, times h^2

CHECK_GCR = ("gauss", "codazzi1", "codazzi2", "codazzi3", "codazzi4", "ricci")
SHAPE_FIELDS = ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3")


class Verdict:
    def __init__(self):
        self.broken = []
        self.failed = []
        self.values = {}

    def require(self, ok, what):
        if not ok:
            self.broken.append(what)

    def bound(self, value, limit, what):
        if not value <= limit:
            self.failed.append(f"{what} {value:.3e} > {limit:.3e}")


def _close(a, b):
    return abs(a - b) <= EXACT_TOL + 1e-9 * max(abs(a), abs(b))


def _maxdiff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------------------
# digests


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            h.update(str(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    else:
        h.update(repr(obj).encode())


def digest_result(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def digest_dir(path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as f:
            while chunk := f.read(1 << 22):
                h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# file parsers


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def read_field(path, grid, name):
    """Values of a field CSV whose rows must lie on ``grid`` (v fastest)."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        rows = np.loadtxt(f, delimiter=",", ndmin=2)
    if header == f"u,v,{name}":
        values = rows[:, 2]
    elif header == f"u,v,{name}_re,{name}_im":
        values = rows[:, 2] + 1j * rows[:, 3]
    else:
        raise ValueError(f"{os.path.basename(path)}: header {header!r}")
    _check_rows(path, rows, len(header.split(",")), grid)
    return values.reshape(grid.shape)


def read_frames(path, grid):
    """(nu, nv, n, 5) frames of a frame-field CSV with n = 4 ambient axes."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        rows = np.loadtxt(f, delimiter=",", ndmin=2)
    cols = ["u", "v"] + [f"{c}_{k}" for c in ("T1", "T2", "N1", "N2", "F")
                         for k in range(4)]
    if header != cols:
        raise ValueError(f"{os.path.basename(path)}: header {header[:4]}...")
    _check_rows(path, rows, len(cols), grid)
    return np.moveaxis(rows[:, 2:].reshape(grid.nu, grid.nv, 5, 4), 2, 3)


def _check_rows(path, rows, width, grid):
    U, V = grid.mesh()
    if rows.shape != (grid.nu * grid.nv, width):
        raise ValueError(f"{os.path.basename(path)}: {rows.shape} rows/columns")
    # the CLI rebuilds the grid from coordinates rounded to 12 decimals, so
    # coordinates it writes may drift from the input grid's by ~1e-10
    if _maxdiff(rows[:, 0], U.ravel()) > 1e-9 or _maxdiff(rows[:, 1], V.ravel()) > 1e-9:
        raise ValueError(f"{os.path.basename(path)}: rows are off the grid")


# ---------------------------------------------------------------------------
# shared checks


def residual_report(v, out, prefix, grid, labels):
    """Summary JSON of ``write_residual_report`` against its per-equation CSVs.

    Returns {label: max |r|} taken from the CSVs (|r| of complex values).
    """
    summary = read_json(os.path.join(out, f"{prefix}_summary.json"))
    v.require(sorted(summary) == sorted(labels),
              f"{prefix} summary labels {sorted(summary)}")
    maxima = {}
    for label in labels:
        r = np.abs(read_field(os.path.join(out, f"{prefix}_{label}.csv"), grid, label))
        m = float(np.max(r))
        s = summary.get(label, {})
        v.require(_close(s.get("max", np.nan), m),
                  f"{prefix} summary max of {label} {s.get('max')} != CSV |r| max {m}")
        loc = tuple(s.get("argmax", (0, 0)))
        v.require(r[loc] >= m - EXACT_TOL - 1e-9 * m,
                  f"{prefix} summary argmax of {label} {loc} is not a CSV maximum")
        maxima[label] = m
    return maxima


def exit_matches(v, code, passed, what):
    v.require((code == 0) == bool(passed), f"{what}: exit {code} but passed={passed}")


def sphere_positions(v, frames, grid):
    """Positions of a frame field must lie on the unit sphere about (0,0,-1,0)."""
    radial = frames[..., :, 4] - np.array([0.0, 0.0, -1.0, 0.0])
    err = float(np.max(np.abs(np.einsum("ijk,ijk->ij", radial, radial) - 1.0)))
    v.bound(err, ACCURACY_TOL * grid.h**2, "| |F - c|^2 - 1 |")


def delbar_identity(v, W, X, Y, Z, what):
    worst = max(float(np.max(np.abs(W + Z))), float(np.max(np.abs(X + Y))))
    v.require(worst <= IDENTITY_TOL, f"{what}: |W + Z|, |X + Y| = {worst:.3e}")


def invariants_match(v, got: dict, golden: dict, what):
    for label, fam in golden.items():
        for comp in "WXYZ":
            err = _maxdiff(got[label][comp], getattr(fam, comp))
            v.require(err <= EXACT_TOL, f"{what}: {comp}{label} off closed form by {err:.3e}")


def shape_fields_match(v, got, golden, what):
    for name in SHAPE_FIELDS:
        err = _maxdiff(got[name], golden[name])
        v.require(err <= IDENTITY_TOL, f"{what}: {name} off the input by {err:.3e}")


def wxyz_fields(v, got, golden, grid, curved, what):
    """Shape fields of a wxyz construction are exact; lam meets its bound
    (the flat construction fixes lam only up to an additive constant)."""
    shape_fields_match(v, got, golden, what)
    diff = np.asarray(got["lam"]) - golden["lam"]
    if not curved:
        diff = diff - diff[0, 0]
    factor = ACCURACY_TOL if curved else WXYZ_FLAT_TOL
    v.bound(float(np.max(np.abs(diff))), factor * grid.h**2, f"{what}: lam round trip")


def closed_form_fields(v, got, golden, what):
    for name, want in golden.items():
        err = _maxdiff(got[name], want)
        v.require(err <= EXACT_TOL * max(1.0, float(np.max(np.abs(want)))),
                  f"{what}: {name} off closed form by {err:.3e}")


# ---------------------------------------------------------------------------
# CLI outputs


def cli_check(v, code, out, grid, n_families, golden):
    equiv = [f"equiv_{kind}{label}" for kind in ("codazzi1", "codazzi2", "gaussricci")
             for label in (("+", "-") if n_families == 2 else ("",))]
    maxima = residual_report(v, out, "check", grid, CHECK_GCR + ("lax",) + tuple(equiv))
    report = read_json(os.path.join(out, "check_report.json"))
    tol = report["tolerance"]
    worst = max(maxima.values())
    v.require(_close(tol, 100.0 * grid.h**2), f"check tolerance {tol} is not 100 h^2")
    v.require(_close(report["max_residual"], worst),
              f"check max_residual {report['max_residual']} != CSV max {worst}")
    v.require(report["passed"] == (worst <= tol), "check passed flag disagrees with the CSVs")
    v.require(sorted(report["failures"]) == sorted(k for k, m in maxima.items() if m > tol),
              f"check failures {sorted(report['failures'])} disagree with the CSVs")
    exit_matches(v, code, report["passed"], "check")
    for label in equiv:
        v.require(maxima[label] <= IDENTITY_TOL,
                  f"check identity {label} = {maxima[label]:.3e}")
    if golden:
        v.values["gcr_max"] = max(maxima[k] for k in CHECK_GCR)
        v.values["lax_max"] = maxima["lax"]


def cli_twistor_sphere(v, code, out, grid, fields):
    fams = {}
    for label in ("+", "-"):
        fams[label] = {c: read_field(os.path.join(out, f"twistor_{c}{label}.csv"),
                                     grid, c + label)
                       for c in ("W", "X", "Y", "Z", "phi", "psi", "delta")}
    invariants_match(v, fams, sphere_invariants(fields), "twistor")
    delta = -fields["alpha1"] * fields["alpha3"]
    for label in ("+", "-"):
        v.require(_maxdiff(fams[label]["delta"], delta) <= EXACT_TOL,
                  f"twistor delta{label} off closed form")
    report = read_json(os.path.join(out, "twistor_report.json"))
    v.require(report["nondegenerate"] is True, "twistor: sphere reported degenerate")
    for label in ("+", "-"):
        v.require(_close(report["min_abs_delta"][label],
                         float(np.min(np.abs(fams[label]["delta"])))),
                  f"twistor min_abs_delta[{label}] disagrees with the CSV")
    exit_matches(v, code, True, "twistor")


def cli_twistor_delbar(v, code, out, grid):
    f = {c: read_field(os.path.join(out, f"twistor_{c}.csv"), grid, c)
         for c in ("W", "X", "Y", "Z", "phi", "psi", "delta")}
    delbar_identity(v, f["W"], f["X"], f["Y"], f["Z"], "twistor")
    report = read_json(os.path.join(out, "twistor_report.json"))
    v.require(report["nondegenerate"] is False, "twistor: delbar data reported nondegenerate")
    exit_matches(v, code, True, "twistor")


def cli_reconstruct(v, code, out, grid, fields, golden):
    report = read_json(os.path.join(out, "reconstruct_report.json"))
    diag = report["diagnostics"]
    v.require(report["passed"] == (max(diag.values()) <= report["tolerance"]),
              "reconstruct passed flag disagrees with its diagnostics")
    exit_matches(v, code, report["passed"], "reconstruct")
    frames = read_frames(os.path.join(out, "frames.csv"), grid)
    cols = frames[..., :4]
    gram = np.einsum("...ak,...al->...kl", cols, cols)
    drift = float(np.max(np.abs(gram - np.eye(4) * np.exp(2.0 * fields["lam"])[..., None, None])))
    v.require(_close(diag["drift"], drift),
              f"reconstruct drift {diag['drift']} != {drift} recomputed from frames.csv")
    sphere_positions(v, frames, grid)
    if golden:
        v.values["frame_drift"] = diag["drift"]


def cli_export(v, code, out, frames_path, grid):
    exit_matches(v, code, True, "export")
    with open(os.path.join(out, "surface.obj"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    nu, nv = grid.shape
    nverts = nu * nv
    v.require(len(lines) == nverts + (nu - 1) * (nv - 1), "export: OBJ line count")
    verts = np.loadtxt(lines[:nverts], usecols=(1, 2, 3))
    faces = np.loadtxt(lines[nverts:], usecols=(1, 2, 3, 4), dtype=np.int64)
    points = read_frames(frames_path, grid)[..., :3, 4].reshape(-1, 3)
    v.require(_maxdiff(verts, points) == 0.0, "export: vertices differ from frames.csv")
    i, j = np.meshgrid(np.arange(nu - 1), np.arange(nv - 1), indexing="ij")
    a = (i * nv + j + 1).ravel()
    want = np.stack([a, a + 1, a + nv + 1, a + nv], axis=1)
    v.require(np.array_equal(faces, want), "export: quad faces out of order")


def _construct_common(v, code, out, grid, mode):
    fields = {name: read_field(os.path.join(out, f"{name}.csv"), grid, name)
              for name in ("lam",) + SHAPE_FIELDS + ("mu1", "mu2")}
    maxima = residual_report(v, out, "construct", grid, CHECK_GCR)
    report = read_json(os.path.join(out, "construct_report.json"))
    v.require(report["mode"] == mode, f"construct report mode {report['mode']}")
    for label, m in maxima.items():
        v.require(_close(report["gcr"][label]["max"], m), f"construct report gcr {label}")
    exit_matches(v, code, True, "construct")
    return fields, report


def cli_construct_delbar(v, code, out, grid, golden):
    fields, report = _construct_common(v, code, out, grid, "delbar")
    closed_form_fields(v, fields, golden, "construct delbar")
    a1, a2, a3 = fields["alpha1"], fields["alpha2"], fields["alpha3"]
    b1, b2, b3 = fields["beta1"], fields["beta2"], fields["beta3"]
    delbar_identity(v, a2 - 1j * b1, a2 + 1j * b3, b2 - 1j * a1, b2 + 1j * a3, "construct")
    v.require(report["delbar_residual"] <= IDENTITY_TOL,
              f"construct delbar_residual {report['delbar_residual']:.3e}")


def cli_construct_wxyz(v, code, out, grid, golden, curved):
    mode = "wxyz-curved" if curved else "wxyz-flat"
    fields, _ = _construct_common(v, code, out, grid, mode)
    wxyz_fields(v, fields, golden, grid, curved, f"construct {mode}")


def cli_group(v, code, out):
    report = read_json(os.path.join(out, "group_report.json"))
    worst = max(report["generator_residual"], report["homomorphism_residual"])
    v.require((report["words"], report["word_length"], report["seed"]) == (100, 5, 0),
              "group report does not show the default words")
    v.require(report["passed"] == (worst <= report["tolerance"]),
              "group passed flag disagrees with its residuals")
    exit_matches(v, code, report["passed"], "group")


# ---------------------------------------------------------------------------
# library results


def api_check(v, result, golden):
    gcr, lax, equiv = result
    worst = max(float(np.max(np.abs(c))) for c in equiv.values())
    v.require(worst <= IDENTITY_TOL, f"equivalence_check identity {worst:.3e}")
    v.require(bool(np.all(np.isfinite(lax))), "lax_residual is not finite")
    if golden:
        v.values["gcr_max"] = gcr.max_abs()
        v.values["lax_max"] = float(np.max(lax))


def api_twistor(v, result, golden_inv, nondegenerate):
    inv, rep, curv, ab = result
    if golden_inv is None:
        f = inv.families[""]
        delbar_identity(v, f.W, f.X, f.Y, f.Z, "twistor_invariants")
    else:
        got = {label: {c: getattr(f, c) for c in "WXYZ"} for label, f in inv.families.items()}
        invariants_match(v, got, golden_inv, "twistor_invariants")
    v.require(rep.nondegenerate == nondegenerate,
              f"degeneracy_report: nondegenerate={rep.nondegenerate}")
    v.require(all(np.all(np.isfinite(r)) for r in curv.values()),
              "curvature_residual is not finite")
    if ab is not None:
        v.require(all(np.all(np.isfinite(x)) for d in ab for x in d.values()),
                  "ab_functions is not finite")


def api_reconstruct(v, result, data, flat, golden):
    ff, back = result
    err = max(_maxdiff(getattr(back, name), getattr(data, name))
              for name in ("lam",) + SHAPE_FIELDS + ("mu1", "mu2"))
    v.bound(err, ACCURACY_TOL * data.grid.h**2, "integrate -> extract round trip")
    if flat:
        sphere_positions(v, ff.frames, data.grid)
    if golden:
        v.values["frame_drift"] = ff.diagnostics["drift"]


def api_identity(v, equiv):
    worst = max(float(np.max(np.abs(c))) for c in equiv.values())
    v.require(worst <= IDENTITY_TOL, f"equivalence_check identity {worst:.3e}")
