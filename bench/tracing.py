"""Spans around calls into spaceform's public functions, and the per-layer
metrics derived from them.

The tracer replaces each traced function on every spaceform module that
binds it (``d_du`` as imported by fundamental, integrability, twistor and
reconstruct, for example), so calls between modules are seen as well as
the benchmark's own calls.  ``FundamentalData`` is traced through its
``__init__``.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

from spaceform.fundamental import FundamentalData


def _path_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _elems(args, kwargs, result):
    return int(np.size(args[0] if args else kwargs["f"]))


def _words(args, kwargs, result):
    return len(args[0] if args else kwargs["words"])


def _exit_code(args, kwargs, result):
    return result


# {module: {function: measure}}; a measure turns (args, kwargs, result)
# into the span's count (bytes, elements, words or exit code).
TRACED = {
    "cli": {"main": _exit_code},
    "io": {"write_field_csv": _path_bytes, "read_field_csv": _path_bytes,
           "write_frames_csv": _path_bytes, "read_frames_csv": _path_bytes,
           "write_obj_mesh": _path_bytes, "write_residual_report": None},
    "integrability": {"field_jets": None, "gcr_residuals": None,
                      "lax_residual": None, "equivalence_check": None},
    "fundamental": {"connection_grids": None},
    "grids": {"d_du": _elems, "d_dv": _elems, "d2_du": _elems, "d2_dv": _elems,
              "half_samples": None},
    "twistor": {"twistor_invariants": None, "hat_connection_matrices": None,
                "degeneracy_report": None, "ab_functions": None,
                "curvature_residual": None},
    "reconstruct": {"integrate_frame": None, "construct_from_wxyz_flat": None,
                    "construct_from_wxyz_curved": None, "extract_fundamental": None,
                    "construct_delbar": None, "integrate_potential": None},
    "liegroup": {"phi_check": _words, "induced_action": None},
}

DIFF = ("grids.d_du", "grids.d_dv", "grids.d2_du", "grids.d2_dv")
IO_WRITERS = ("io.write_field_csv", "io.write_frames_csv", "io.write_obj_mesh")
IO_READERS = ("io.read_field_csv", "io.read_frames_csv")

# (span name, figures) reported per traced function; "s" is inclusive time,
# "self_s" excludes the time of traced calls made inside it.
REPORTED = [
    ("cli.main", ("calls", "self_s")),
    *((f"io.{f}", ("calls", "s", "bytes")) for f in (
        "write_field_csv", "read_field_csv", "write_frames_csv",
        "read_frames_csv", "write_obj_mesh")),
    ("io.write_residual_report", ("self_s",)),
    *((f"integrability.{f}", ("calls", "s")) for f in (
        "field_jets", "gcr_residuals", "lax_residual")),
    ("integrability.equivalence_check", ("calls", "self_s")),
    ("fundamental.connection_grids", ("calls", "s")),
    ("fundamental.FundamentalData", ("calls", "s")),
    ("grids.half_samples", ("calls", "s")),
    *((f"twistor.{f}", ("calls", "s")) for f in (
        "twistor_invariants", "hat_connection_matrices", "degeneracy_report",
        "ab_functions")),
    ("twistor.curvature_residual", ("calls", "self_s")),
    *((f"reconstruct.{f}", ("calls", "self_s")) for f in (
        "integrate_frame", "construct_from_wxyz_flat", "construct_from_wxyz_curved")),
    *((f"reconstruct.{f}", ("calls", "s")) for f in (
        "extract_fundamental", "construct_delbar", "integrate_potential")),
    *((f"liegroup.{f}", ("calls", "s")) for f in ("phi_check", "induced_action")),
]


class Tracer:
    """Records one span per traced call: name, start, end, parent, job, count."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else None, "job": self.job,
                    "count": None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span["count"] = measure(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "spaceform" or key.startswith("spaceform.")]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"spaceform.{mod_name}"]
            for fn_name, measure in funcs.items():
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, measure)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        init = FundamentalData.__init__
        FundamentalData.__init__ = self._wrap("fundamental.FundamentalData", init, None)
        self._patched.append((FundamentalData, "__init__", init))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _child_time(spans):
    out = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            out[span["parent"]] += span["end"] - span["start"]
    return out


def layer_metrics(spans) -> dict:
    """Per-layer figures from the spans of a traced run (see REPORTED)."""
    child_time = _child_time(spans)
    agg = {}
    for k, span in enumerate(spans):
        a = agg.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "count": 0, "exit1": 0, "exit2": 0})
        dur = span["end"] - span["start"]
        a["calls"] += 1
        a["s"] += dur
        a["self_s"] += dur - child_time[k]
        if span["name"] == "cli.main":
            a["exit1"] += span["count"] == 1
            a["exit2"] += span["count"] == 2
        elif span["count"] is not None:
            a["count"] += span["count"]

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    out = {}
    for name, figures in REPORTED:
        for fig in figures:
            key = "count" if fig == "bytes" else fig
            out[f"{name}.{fig}"] = (get(name, key), "count" if fig in ("calls", "bytes") else "s")
    for fig in ("exit1", "exit2"):
        out[f"cli.{fig}"] = (get("cli.main", fig), "count")
    out["grids.diff.calls"] = (sum(get(n, "calls") for n in DIFF), "count")
    out["grids.diff.s"] = (sum(get(n, "s") for n in DIFF), "s")
    out["grids.diff.elems"] = (sum(get(n, "count") for n in DIFF), "count")
    for key, names in (("io.write_MBps", IO_WRITERS), ("io.read_MBps", IO_READERS)):
        secs = sum(get(n, "s") for n in names)
        nbytes = sum(get(n, "count") for n in names)
        out[key] = (nbytes / secs / 1e6 if secs else 0.0, "MB/s")
    secs = get("liegroup.phi_check", "s")
    out["liegroup.words_per_s"] = (get("liegroup.phi_check", "count") / secs if secs else 0.0,
                                   "1/s")
    return out


def module_self_time(spans) -> dict:
    """{module: seconds} of time spent in each module's own code.

    A span's self time (its duration less its traced children) belongs to
    the module of the traced function, so the figures partition the time
    covered by outermost spans.
    """
    child_time = _child_time(spans)
    out = {}
    for k, span in enumerate(spans):
        module = span["name"].split(".")[0]
        out[module] = out.get(module, 0.0) + span["end"] - span["start"] - child_time[k]
    return out
