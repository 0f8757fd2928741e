"""The library API that the benchmark calls: a rename or a dropped keyword
shows here, not only as a failed benchmark run."""

import ast
import glob
import importlib
import importlib.util
import inspect
import os

from spaceform.reconstruct import integrate_frame

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
TRACING = os.path.join(BENCH, "tracing.py")


def _traced() -> dict:
    """``TRACED`` of the benchmark's tracer, {module: {function: measure}}."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_function_resolves():
    missing = [f"spaceform.{mod}.{name}" for mod, names in _traced().items()
               for name in names
               if not callable(getattr(importlib.import_module(f"spaceform.{mod}"), name, None))]
    assert missing == []


def _bench_imports() -> list:
    """(file, module, name) of every ``from spaceform... import name`` in
    the benchmark's sources, and (file, module, None) of every ``import
    spaceform...``."""
    found = []
    for path in sorted(glob.glob(os.path.join(BENCH, "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spaceform":
                found += [(os.path.basename(path), node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(os.path.basename(path), a.name, None) for a in node.names
                          if a.name.split(".")[0] == "spaceform"]
    return found


def _resolves(module: str, name) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")   # a submodule
        return True
    except ImportError:
        return False


def test_every_benchmark_import_resolves():
    imports = _bench_imports()
    assert len({file for file, _, _ in imports}) >= 3
    assert [i for i in imports if not _resolves(i[1], i[2])] == []


def test_integrate_frame_takes_the_benchmark_keyword():
    # bench/workloads.py calls integrate_frame(data, check_transposed=True)
    assert "check_transposed" in inspect.signature(integrate_frame).parameters
