import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from conftest import gauged_sphere_data, random_smooth_data, sphere_data
import spaceform
from spaceform.cases import SurfaceCase
from spaceform import cli
from spaceform.cli import main
from spaceform.fundamental import FIELD_NAMES, FundamentalData, ambient_model
from spaceform.grids import Grid
from spaceform.io import read_field_csv, write_field_csv, write_frames_csv
from spaceform.reconstruct import _liouville_funcs
from spaceform.twistor import twistor_invariants


def _write_sphere(tmp_path, n=41):
    data = sphere_data(n=n)
    files = {}
    for name in ("lam", "alpha1", "alpha3"):
        path = tmp_path / f"{name}.csv"
        write_field_csv(path, data.grid, name, getattr(data, name))
        files[name] = str(path)
    return data, files


def _cfg(tmp_path, payload, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


# configs as the CLI jobs write them: file paths, a nested grid mapping,
# [re, im] pairs, floats in every notation yaml.safe_dump uses, and flow style
_CONFIGS = [
    {"case": "riemannian", "L0": 0.0, "tolerance": 2.5e-3,
     "fields": {"lam": "in/lam.csv", "alpha1": "in/alpha1.csv", "alpha3": "in/alpha3.csv"}},
    {"mode": "delbar", "L0": -1.0, "p": [1.0, [0.5, -0.25], [0, 1e-3]], "r": 0.1,
     "grid": {"u0": -0.5, "v0": -0.5, "du": 0.016666666666666666, "dv": 1 / 60, "nu": 61, "nv": 61}},
    {"case": "lorentzian", "L0": 1.0e+2, "invariants": "out/delbar", "tolerance": float("inf"),
     "frames": "out/frames.csv", "nested": [{"a": -0.0, "b": 1e-300}, {"c": 6.02e23}]},
]
_CONFIG_TEXTS = {
    **{f"dumped{i}": yaml.safe_dump(c) for i, c in enumerate(_CONFIGS)},
    "flow mapping": "case: riemannian\nL0: .5\nfields: {lam: 'a b.csv', alpha1: \"x.csv\"}\n",
    "flow sequences": "p: [[1, 2], [-3.0e-1, +4]]\ngrid: {nu: 41, nv: 0x29, du: 5e-2}\n",
}


@pytest.mark.parametrize("text", list(_CONFIG_TEXTS.values()), ids=list(_CONFIG_TEXTS))
def test_config_loaders_agree(tmp_path, text):
    """The CLI's loader (libyaml's where PyYAML has it) reads every config
    as PyYAML's pure-Python safe loader does."""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert cli._load_config(str(path)) == yaml.load(text, Loader=yaml.SafeLoader)
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    assert cli._YAML_LOADER is yaml.CSafeLoader


@pytest.mark.parametrize("text", ["a: [1, 2", "a: b: c", "a: 'x", "- a\nb: c"],
                         ids=["open flow", "nested plain", "open quote", "sequence then key"])
def test_malformed_yaml_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_check_sphere_passes(tmp_path, capsys):
    data, files = _write_sphere(tmp_path)
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0, "fields": files})
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert "check: OK" in capsys.readouterr().out
    report = json.loads((out / "check_report.json").read_text())
    assert report["passed"] and report["failures"] == {}
    assert (out / "check_gauss.csv").exists()


def test_check_csv_sphere_passes_default_tolerance(tmp_path, capsys):
    """Read from CSV there are no analytic lam derivatives; the Lax
    residual must still meet 100 h^2 at the grid corners."""
    _, files = _write_sphere(tmp_path, n=201)
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0, "fields": files})
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert "check: OK" in capsys.readouterr().out
    report = json.loads((out / "check_report.json").read_text())
    assert report["failures"] == {}


def test_check_noise_fails_with_argmax(tmp_path, capsys):
    data, files = _write_sphere(tmp_path)
    grid, _, lam = read_field_csv(files["lam"])
    rng = np.random.default_rng(3)
    write_field_csv(files["lam"], grid, "lam", lam + rng.normal(0, 0.1, grid.shape))
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0, "fields": files})
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((out / "check_report.json").read_text())
    assert not report["passed"]
    assert "gauss" in report["failures"]
    assert len(report["failures"]["gauss"]) == 2


def test_check_evaluates_the_jets_once(tmp_path, monkeypatch):
    """gcr_residuals, lax_residual and equivalence_check share one jet set."""
    from spaceform import integrability
    calls = []
    original = integrability.field_jets

    def counted(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(integrability, "field_jets", counted)
    monkeypatch.setattr(cli, "field_jets", counted)
    _, files = _write_sphere(tmp_path, n=21)
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0, "fields": files})
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_check_missing_file_is_input_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0,
                          "fields": {"lam": str(tmp_path / "nope.csv")}})
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_check_unknown_config_key(tmp_path):
    _, files = _write_sphere(tmp_path, n=11)
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0, "fields": files,
                          "tollerance": 1.0})
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_check_bad_case_name(tmp_path):
    _, files = _write_sphere(tmp_path, n=11)
    cfg = _cfg(tmp_path, {"case": "klein", "L0": 0.0, "fields": files})
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_twistor_outputs(tmp_path, capsys):
    data, files = _write_sphere(tmp_path, n=21)
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0, "fields": files})
    out = tmp_path / "out"
    assert main(["twistor", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "twistor_report.json").read_text())
    assert report["nondegenerate"]
    _, name, W = read_field_csv(out / "twistor_W+.csv")
    assert np.max(np.abs(W)) < 1e-12   # sphere has W = 0 in both families


def test_reconstruct_rejects_L0_without_finite_reciprocal(tmp_path, capsys):
    _, files = _write_sphere(tmp_path, n=11)
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 2.2e-311, "fields": files})
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: L0 must be finite with a finite 1/L0, got 2.2e-311\n"
    assert not (out / "reconstruct_report.json").exists()


def test_reconstruct_and_export_pipeline(tmp_path, capsys):
    data, files = _write_sphere(tmp_path)
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0, "fields": files})
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "reconstruct_report.json").read_text())
    assert report["passed"]

    ecfg = _cfg(tmp_path, {"frames": str(out / "frames.csv")}, "export.yaml")
    assert main(["export", "--config", ecfg, "--out", str(out)]) == 0
    obj = (out / "surface.obj").read_text().splitlines()
    assert sum(1 for l in obj if l.startswith("v ")) == data.grid.nu * data.grid.nv

    # rank-deficient projection is an input error
    bad = _cfg(tmp_path, {"frames": str(out / "frames.csv"),
                          "projection": [[1, 0, 0, 0], [0, 1, 0, 0],
                                         [1, 0, 0, 0]]}, "bad.yaml")
    assert main(["export", "--config", bad, "--out", str(out)]) == 2


def test_construct_delbar(tmp_path, capsys):
    cfg = _cfg(tmp_path, {
        "mode": "delbar", "L0": -1.0,
        "grid": {"u0": -0.4, "v0": -0.4, "du": 0.02, "dv": 0.02,
                 "nu": 41, "nv": 41},
        "p": [[0.0, 0.0], [1.0, 0.0]],
    })
    out = tmp_path / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "construct_report.json").read_text())
    assert report["delbar_residual"] == 0.0
    assert report["max_mean_curvature"] < 1e-12
    assert max(v["max"] for v in report["gcr"].values()) < 100 * 0.02**2


@pytest.mark.parametrize("n, code", [(41, 1), (51, 0)])
def test_reconstruct_of_delbar_output_gates_the_absolute_drift(tmp_path, capsys, n, code):
    """The benchmark's delbar chart, [-0.5, 0.5]^2 with L0 = -1 and p = w,
    built by construct and integrated from its CSVs.  The drift is an
    absolute Gram violation and e^{2 lam} reaches 16 at the chart corners,
    so at 41^2 it exceeds 100 h^2 (6.267e-2 > 6.25e-2) and the gate fails;
    at 51^2 it passes (2.85e-2 <= 4e-2)."""
    grid = Grid.centered(0.5, n)
    built = tmp_path / "built"
    cfg = _cfg(tmp_path, {"mode": "delbar", "L0": -1.0, "p": [[0.0, 0.0], [1.0, 0.0]],
                          "grid": {"u0": grid.u0, "v0": grid.v0, "du": grid.du,
                                   "dv": grid.dv, "nu": n, "nv": n}})
    assert main(["construct", "--config", cfg, "--out", str(built)]) == 0
    rcfg = _cfg(tmp_path, {"case": "lorentzian-spacelike", "L0": -1.0,
                           "fields": {f: str(built / f"{f}.csv") for f in FIELD_NAMES}},
                "reconstruct.yaml")
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", rcfg, "--out", str(out)]) == code
    report = json.loads((out / "reconstruct_report.json").read_text())
    diag = report["diagnostics"]
    assert max(diag, key=diag.get) == "drift"
    assert report["passed"] is (code == 0)
    assert (diag["drift"] > report["tolerance"]) is (code == 1)


def _invariant_files(tmp_path, data):
    inv_cfg = {}
    for label, fam in twistor_invariants(data).families.items():
        comp_files = {}
        for comp in ("W", "X", "Y", "Z"):
            path = tmp_path / f"{comp}{label}.csv"
            write_field_csv(path, data.grid, comp,
                            np.asarray(getattr(fam, comp), dtype=complex))
            comp_files[comp] = str(path)
        inv_cfg[label] = comp_files
    return inv_cfg


def test_construct_wxyz_flat_round_trip(tmp_path):
    data = sphere_data(n=41)
    cfg = _cfg(tmp_path, {"mode": "wxyz-flat", "case": "riemannian",
                          "L0": 0.0, "invariants": _invariant_files(tmp_path, data)})
    out = tmp_path / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    _, _, lam = read_field_csv(out / "lam.csv")
    # flat construction fixes lam only up to an additive constant
    shift = lam - data.lam
    assert np.max(np.abs(shift - shift[0, 0])) < 10 * data.grid.h**2


@pytest.mark.parametrize("L0", [1.0, float("nan")])
def test_construct_wxyz_flat_rejects_curved_or_non_finite_L0(tmp_path, capsys, L0):
    data = sphere_data(n=21)
    cfg = _cfg(tmp_path, {"mode": "wxyz-flat", "case": "riemannian",
                          "L0": L0, "invariants": _invariant_files(tmp_path, data)})
    out = tmp_path / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "L0" in err and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


def test_construct_wxyz_flat_L0_is_optional(tmp_path):
    data = sphere_data(n=21)
    cfg = _cfg(tmp_path, {"mode": "wxyz-flat", "case": "riemannian",
                          "invariants": _invariant_files(tmp_path, data)})
    out = tmp_path / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "construct_report.json").read_text())["passed"]


def test_construct_rejects_non_finite_invariants(tmp_path, capsys):
    data = sphere_data(n=21)
    files = _invariant_files(tmp_path, data)
    _, _, W = read_field_csv(files["-"]["W"])
    W[3, 4] = np.nan
    write_field_csv(files["-"]["W"], data.grid, "W", W)
    cfg = _cfg(tmp_path, {"mode": "wxyz-flat", "case": "riemannian", "invariants": files})
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invariant W-: ") and "non-finite" in err


def test_construct_wxyz_curved_passes_default_tolerance(tmp_path):
    """Umbilic sphere in S^4 (Liouville profile of curvature 2,
    alpha1 = alpha3 = e^lam) read back from CSV invariants."""
    grid = Grid.centered(1.0, 41)
    lam = _liouville_funcs(2.0)["lam"](*grid.mesh())
    fields = {n: np.zeros(grid.shape) for n in FIELD_NAMES}
    fields.update(lam=lam, alpha1=np.exp(lam), alpha3=np.exp(lam))
    data = FundamentalData(ambient_model(SurfaceCase.RIEM, 1.0), grid, **fields)
    cfg = _cfg(tmp_path, {"mode": "wxyz-curved", "case": "riemannian",
                          "L0": 1.0, "invariants": _invariant_files(tmp_path, data)})
    out = tmp_path / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "construct_report.json").read_text())
    assert report["passed"] and report["tolerance"] == pytest.approx(100 * grid.h**2)
    assert max(v["max"] for v in report["gcr"].values()) <= 10 * grid.h**2


@pytest.mark.parametrize("mode, case, L0", [
    ("wxyz-curved", "riemannian", 0.0),
    ("wxyz-curved", "lorentzian-spacelike", 0),
    ("wxyz-flat", "neutral-spacelike", 0.0),
    ("wxyz-curved", "lorentzian-timelike", 1.0),
])
def test_construct_wxyz_rejects_flat_curved_or_case_before_reading(
        tmp_path, capsys, monkeypatch, mode, case, L0):
    """A curved mode with L0 = 0, or a case without a wxyz construction, is
    a malformed config: exit 2 before any invariant file is read."""
    files = _invariant_files(tmp_path, sphere_data(n=11))
    if case.startswith("lorentzian"):
        files = {"main": files["+"]}
    cfg = _cfg(tmp_path, {"mode": mode, "case": case, "L0": L0, "invariants": files})
    monkeypatch.setattr(cli, "read_field_csv", lambda path: pytest.fail(f"read {path}"))
    out = tmp_path / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("L0" in err) is (L0 == 0 and mode == "wxyz-curved")
    assert not any(out.iterdir())


def test_twistor_then_construct_wxyz_flat_in_the_main_family(tmp_path, capsys):
    """Lorentzian space-like data with nonzero beta and mu through the CLI:
    twistor writes the complex family's W, X, Y, Z, and wxyz-flat reads them
    back under the family key 'main'."""
    data = gauged_sphere_data(SurfaceCase.LOR_SPACE, 0.0, 41)
    files = {}
    for name in FIELD_NAMES:
        files[name] = str(tmp_path / f"{name}.csv")
        write_field_csv(files[name], data.grid, name, getattr(data, name))
    cfg = _cfg(tmp_path, {"case": "lorentzian-spacelike", "L0": 0.0, "fields": files},
               name="fields.yaml")
    inv = tmp_path / "inv"
    assert main(["twistor", "--config", cfg, "--out", str(inv)]) == 0
    cfg = _cfg(tmp_path, {"mode": "wxyz-flat", "case": "lorentzian-spacelike", "invariants": {
        "main": {comp: str(inv / f"twistor_{comp}.csv") for comp in "WXYZ"}}})
    out = tmp_path / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    assert "construct: OK" in capsys.readouterr().out
    h = data.grid.h
    for name in FIELD_NAMES:
        _, _, back = read_field_csv(out / f"{name}.csv")
        err = back - getattr(data, name)
        if name == "lam":
            err -= err[0, 0]
        # alpha and beta exactly, mu from the fourth-order A/B solve and lam
        # from its gradient, to second order
        bound = {"alpha": 1e-14, "beta": 1e-14, "mu": 10 * h**4, "la": h**2}[name[:-1]]
        assert np.max(np.abs(err)) < bound, name


_DELBAR = {"mode": "delbar", "L0": -1.0, "p": [[0.0, 0.0], [1.0, 0.0]],
           "grid": {"u0": -0.5, "v0": -0.5, "du": 0.025, "dv": 0.025, "nu": 41, "nv": 41}}


@pytest.mark.parametrize("where", ["cli", "config"])
def test_construct_fails_above_tolerance(tmp_path, capsys, where):
    payload = dict(_DELBAR, tolerance=1e-12) if where == "config" else _DELBAR
    argv = ["--tolerance", "1e-12"] if where == "cli" else []
    out = tmp_path / "out"
    assert main(["construct", "--config", _cfg(tmp_path, payload), "--out", str(out)]
                + argv) == 1
    assert "construct: FAIL" in capsys.readouterr().out
    report = json.loads((out / "construct_report.json").read_text())
    assert report["tolerance"] == 1e-12 and report["passed"] is False
    assert max(v["max"] for v in report["gcr"].values()) > 1e-12
    assert (out / "lam.csv").exists()


def test_check_csv_lorentzian_delbar_passes_default_tolerance(tmp_path, capsys):
    """The delbar data of a space-like surface in H^4, read back from CSV:
    the edge rows of lam_uu and lam_vv stay inside 100 h^2 at 41^2."""
    built = tmp_path / "built"
    assert main(["construct", "--config", _cfg(tmp_path, _DELBAR), "--out", str(built)]) == 0
    cfg = _cfg(tmp_path, {"case": "lorentzian-spacelike", "L0": -1.0,
                          "fields": {n: str(built / f"{n}.csv") for n in FIELD_NAMES}},
               "check.yaml")
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["passed"] and report["failures"] == {}


def test_construct_unknown_mode(tmp_path):
    cfg = _cfg(tmp_path, {"mode": "bogus"})
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_group_default_passes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["group", "--out", str(out)]) == 0
    report = json.loads((out / "group_report.json").read_text())
    assert report["passed"]
    assert report["generator_residual"] < 1e-12


def test_group_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = _cfg(tmp_path, {"words": 10, "seed": 5})
    assert main(["group", "--config", cfg, "--out", str(a)]) == 0
    assert main(["group", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "group_report.json").read_bytes() == (b / "group_report.json").read_bytes()


def test_missing_config_is_input_error(tmp_path, capsys):
    assert main(["check", "--out", str(tmp_path)]) == 2
    assert main(["check", "--config", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path)]) == 2


def test_check_non_finite_field_is_input_error(tmp_path, capsys):
    _, files = _write_sphere(tmp_path, n=11)
    grid, _, lam = read_field_csv(files["lam"])
    lam[3, 4] = np.nan
    write_field_csv(files["lam"], grid, "lam", lam)
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0, "fields": files})
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_lorentzian_check_keeps_complex_residuals(tmp_path):
    data = random_smooth_data(SurfaceCase.LOR_SPACE, Grid.centered(0.5, 11),
                              np.random.default_rng(4))
    files = {}
    for name in FIELD_NAMES:
        files[name] = str(tmp_path / f"{name}.csv")
        write_field_csv(files[name], data.grid, name, getattr(data, name))
    cfg = _cfg(tmp_path, {"case": "lorentzian-spacelike", "L0": data.model.L0,
                          "fields": files})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--config", cfg, "--out", str(out)]) in (0, 1)
    summary = json.loads((out / "check_summary.json").read_text())
    for label, entry in summary.items():
        _, _, r = read_field_csv(out / f"check_{label}.csv")
        assert entry["max"] == float(np.max(np.abs(r)))


def test_threads_flag_is_gone(tmp_path):
    assert main(["group", "--threads", "2", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("payload", [
    {"words": "abc"}, {"words": 0}, {"words": 2.7}, {"words": True},
    {"word_length": 0}, {"word_length": None}, {"seed": -1}, {"seed": 1.5},
])
def test_group_rejects_malformed_counts(tmp_path, capsys, payload):
    cfg = _cfg(tmp_path, payload)
    assert main(["group", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: '") and err.count("\n") == 1
    assert not (tmp_path / "group_report.json").exists()


@pytest.mark.parametrize("payload", [
    {"projection": "abc"},
    {"projection": [[1, 0, 0, 0], [0, "x", 0, 0], [0, 0, 1, 0]]},
    {"projection": [[1, 0, 0, 0], [0, float("nan"), 0, 0], [0, 0, 1, 0]]},
    {"mesh": 5},
    {"frames": 5},
])
def test_export_rejects_malformed_config(tmp_path, capsys, payload):
    grid = Grid.centered(1.0, 3)
    frames = tmp_path / "frames.csv"
    write_frames_csv(frames, grid, np.zeros(grid.shape + (4, 5)))
    cfg = _cfg(tmp_path, {"frames": str(frames), **payload})
    assert main(["export", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_export_rejects_non_finite_frames(tmp_path, capsys):
    grid = Grid.centered(1.0, 3)
    frames = np.zeros(grid.shape + (4, 5))
    frames[1, 2, 0, 4] = np.inf
    path = tmp_path / "frames.csv"
    write_frames_csv(path, grid, frames)
    cfg = _cfg(tmp_path, {"frames": str(path)})
    assert main(["export", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: frames: ") and "non-finite" in err
    assert not (tmp_path / "out" / "surface.obj").exists()


@pytest.mark.parametrize("path", [["lam.csv"], {"file": "lam.csv"}, 0])
@pytest.mark.parametrize("command,payload,where", [
    ("check", lambda p: {"case": "riemannian", "L0": 0.0, "fields": {"lam": p}},
     "field 'lam'"),
    ("construct", lambda p: {"mode": "wxyz-flat", "case": "riemannian", "L0": 0.0,
                             "invariants": {"+": {"W": p}}}, "invariant W+"),
])
def test_data_config_rejects_non_string_paths(tmp_path, capsys, monkeypatch,
                                              path, command, payload, where):
    monkeypatch.setattr(cli, "read_field_csv",
                        lambda *args: pytest.fail("a non-string path reached the reader"))
    cfg = _cfg(tmp_path, payload(path))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where} must be a file name") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["twistor", "export"])
def test_ungated_commands_reject_tolerance_flag(tmp_path, capsys, command):
    assert main([command, "--tolerance", "1e-30", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "spaceform: error: unrecognized arguments: --tolerance 1e-30\n"


def test_twistor_rejects_tolerance_key(tmp_path, capsys):
    _, files = _write_sphere(tmp_path, n=21)
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0, "fields": files,
                          "tolerance": 1e-30})
    assert main(["twistor", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: unknown config keys: ['tolerance']\n"
    assert not (tmp_path / "out" / "twistor_report.json").exists()


@pytest.mark.parametrize("where", ["flag", "key"])
def test_check_honours_tolerance(tmp_path, capsys, where):
    _, files = _write_sphere(tmp_path, n=21)
    payload = {"case": "riemannian", "L0": 0.0, "fields": files}
    argv = ["check", "--out", str(tmp_path / "out")]
    if where == "flag":
        argv += ["--tolerance", "1e-30"]
    else:
        payload["tolerance"] = 1e-30
    assert main(argv + ["--config", _cfg(tmp_path, payload)]) == 1
    assert "check: FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "check_report.json").read_text())
    assert report["tolerance"] == 1e-30 and not report["passed"]


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning",
                            "ignore:invalid value encountered in multiply:RuntimeWarning")
def test_check_nan_residual_fails(tmp_path, capsys):
    """lam = 400 overflows e^{2 lam}, so E = 0 * inf makes the Gauss and Lax
    residuals NaN; the gate fails on them instead of dropping them."""
    grid = Grid.centered(1.0, 11)
    path = tmp_path / "lam.csv"
    write_field_csv(path, grid, "lam", np.full(grid.shape, 400.0))
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0, "fields": {"lam": str(path)}})
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 1
    assert "check: FAIL max residual nan" in capsys.readouterr().out
    report = json.loads((out / "check_report.json").read_text())
    assert report["passed"] is False and np.isnan(report["max_residual"])
    assert {"gauss", "lax"} <= set(report["failures"])


def test_check_nan_residual_files_read_back(tmp_path):
    """lam = 400 at L0 = 1 makes the Gauss and Lax residuals inf and the
    Gauss-Ricci combinations NaN; every residual CSV that check writes
    reads back, with the maximum its summary records."""
    grid = Grid.centered(1.0, 21)
    path = tmp_path / "lam.csv"
    write_field_csv(path, grid, "lam", np.full(grid.shape, 400.0))
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 1.0, "fields": {"lam": str(path)}})
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 1
    back = {}
    for label, entry in json.loads((out / "check_summary.json").read_text()).items():
        back_grid, name, back[label] = read_field_csv(out / f"check_{label}.csv")
        assert back_grid == grid and name == label
        np.testing.assert_equal(np.max(np.abs(back[label])), entry["max"])
    assert np.all(np.isinf(back["gauss"])) and np.all(np.isnan(back["equiv_gaussricci+"]))


@pytest.mark.parametrize("message,points", [
    # the last row of a 3 x 3 grid missing
    ("points do not form a rectangular grid",
     [(u, v) for u in (0.0, 0.5, 1.0) for v in (0.0, 0.5, 1.0)][:-1]),
    ("grid spacing is not uniform", [(u, v) for u in (0.0, 0.5, 1.5) for v in (0.0, 0.5, 1.0)]),
    # u fastest, and u descending
    ("rows are not in row-major order (v fastest)",
     [(u, v) for v in (0.0, 0.5, 1.0) for u in (0.0, 0.5, 1.0)]),
    ("rows are not in row-major order (v fastest)",
     [(u, v) for u in (1.0, 0.5, 0.0) for v in (0.0, 0.5, 1.0)]),
])
def test_check_rejects_a_field_off_any_grid(tmp_path, capsys, message, points):
    path = tmp_path / "lam.csv"
    path.write_text("u,v,lam\n" + "".join(f"{u},{v},0.0\n" for u, v in points))
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0, "fields": {"lam": str(path)}})
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field 'lam': ") and err.count("\n") == 1
    assert message in err


def test_check_overflow_prints_only_the_fail_line(tmp_path):
    """The same overflow run as a process: the gate reports the NaN, and no
    numpy RuntimeWarning reaches stderr."""
    grid = Grid.centered(1.0, 11)
    path = tmp_path / "lam.csv"
    write_field_csv(path, grid, "lam", np.full(grid.shape, 400.0))
    cfg = _cfg(tmp_path, {"case": "riemannian", "L0": 0.0, "fields": {"lam": str(path)}})
    src = os.path.dirname(os.path.dirname(spaceform.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "spaceform.cli", "check",
                           "--config", cfg, "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout.startswith("check: FAIL max residual nan")
    assert proc.stdout.count("\n") == 1


def _gated_payloads(tmp_path):
    """A passing config per gated subcommand."""
    _, files = _write_sphere(tmp_path, n=11)
    data = {"case": "riemannian", "L0": 0.0, "fields": files}
    return {"check": data, "reconstruct": data, "construct": _DELBAR,
            "group": {"words": 2}}


@pytest.mark.parametrize("command", ["check", "reconstruct", "construct", "group"])
@pytest.mark.parametrize("where,value", [
    ("flag", "nan"), ("flag", "inf"), ("flag", "-1.0"),
    ("key", ".nan"), ("key", ".inf"), ("key", "-1.0"), ("key", "true"),
])
def test_gated_commands_reject_bad_tolerance(tmp_path, capsys, command, where, value):
    payload = dict(_gated_payloads(tmp_path)[command])
    argv = [command, "--out", str(tmp_path / "out")]
    if where == "flag":
        argv += ["--tolerance", value]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(payload) + ("" if where == "flag" else f"tolerance: {value}\n"))
    assert main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "tolerance must be a finite real number >= 0" in err and err.count("\n") == 1
    assert not (tmp_path / "out" / f"{command}_report.json").exists()


@pytest.mark.parametrize("command,payload", [
    ("check", {"L0": ".nan"}), ("check", {"L0": ".inf"}), ("check", {"L0": "true"}),
    ("construct", {"r": ".nan"}), ("construct", {"L0": "-.inf"}),
    ("construct", {"p": "[[.nan, 0]]"}), ("construct", {"p": "[[1, 2, 3]]"}),
    ("construct", {"p": "['1+2j']"}), ("construct", {"p": "[true]"}),
    ("construct", {"grid": "{u0: -0.5, v0: -0.5, du: 0.025, dv: 0.025, nu: 41.7, nv: 41}"}),
    ("construct", {"grid": "{u0: -0.5, v0: -0.5, du: 0.025, dv: 0.025, nu: '41', nv: 41}"}),
    ("construct", {"grid": "{u0: .nan, v0: -0.5, du: 0.025, dv: 0.025, nu: 41, nv: 41}"}),
    ("construct", {"grid": "{u0: -0.5, v0: -0.5, du: 0.025, dv: 0.025, nu: 41}"}),
])
def test_malformed_config_numbers_are_input_errors(tmp_path, capsys, command, payload):
    base = dict(_gated_payloads(tmp_path)[command])
    for key in payload:
        base.pop(key, None)
    text = yaml.safe_dump(base) + "".join(f"{k}: {v}\n" for k, v in payload.items())
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_construct_accepts_real_and_pair_coefficients(tmp_path):
    cfg = _cfg(tmp_path, dict(_DELBAR, p=[0, [1.0, 0.0]], r=0))
    out = tmp_path / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0


@pytest.mark.parametrize("what", ["config", "field", "frames"])
def test_non_utf8_input_is_input_error(tmp_path, capsys, what):
    _, files = _write_sphere(tmp_path, n=11)
    if what == "config":
        cfg = tmp_path / "cfg.yaml"
        cfg.write_bytes(b"case: riemannian\nL0: 0.0 # \xff\n")
        argv = ["check", "--config", str(cfg)]
    elif what == "field":
        with open(files["lam"], "ab") as f:
            f.write(b"\xff\n")
        argv = ["check", "--config", _cfg(tmp_path, {"case": "riemannian", "L0": 0.0,
                                                     "fields": files})]
    else:
        frames = tmp_path / "frames.csv"
        frames.write_bytes(b"u,v,T1_\xff\n")
        argv = ["export", "--config", _cfg(tmp_path, {"frames": str(frames)})]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err or "can't decode" in err
    assert err.startswith("error: ") and err.count("\n") == 1

