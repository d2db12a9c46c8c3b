"""The benchmark's tracer finds every function it wraps.

``bench/tracing.py`` wraps spiderbp functions by module and name. A renamed
or removed one would only show as a per-layer metric reading 0, so each
name is looked up here, with the tracer's tables read from its file.
"""

import importlib
import importlib.util
from pathlib import Path

import spiderbp

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracing_tables():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_and_timer_resolves():
    tracing = tracing_tables()
    hooks = [(module, func) for module, func, *_ in tracing.SPANS + tracing.TIMERS]
    missing = [
        (module, func)
        for module, func in hooks
        if not callable(getattr(importlib.import_module(f"spiderbp.{module}"), func, None))
    ]
    assert hooks and missing == []


def test_every_leaf_resolves_on_every_semiring():
    tracing = tracing_tables()
    missing = [
        (name, method)
        for name, semiring in spiderbp.SEMIRINGS.items()
        for method, _leaf in tracing.LEAVES
        if not callable(getattr(semiring, method, None))
    ]
    assert missing == []
