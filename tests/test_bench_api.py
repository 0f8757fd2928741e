"""The library API that the benchmark calls: a rename or a dropped keyword
shows here, not only as a failed benchmark run."""

import importlib
import importlib.util
import inspect
import os

from spaceform.reconstruct import integrate_frame

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


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


def test_integrate_frame_takes_the_benchmark_keyword():
    # bench/workloads.py calls integrate_frame(data, check_transposed=True)
    assert "check_transposed" in inspect.signature(integrate_frame).parameters
