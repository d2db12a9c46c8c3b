"""The benchmark's tracer finds every function it wraps, and the metrics
it reports are the ones ``BENCHMARK.json`` declares.

``bench/tracing.py`` wraps spiderbp functions by module and name. A renamed
or removed one would only show as a per-layer metric reading 0, so each
name is looked up here, with the tracer's tables read from its file. A
metric renamed on one side of ``BENCHMARK.json`` and the bench would only
show as a metric no run can be compared on.
"""

import ast
import contextlib
import importlib
import importlib.util
import json
from pathlib import Path

import spiderbp

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


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


def module_table(path, table):
    """The module-level tuple ``table`` of the file at ``path``, evaluated
    over the file's literal assignments before it, so that none of the
    file's imports run."""
    names = {"__builtins__": {"tuple": tuple}}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id == table:
                return eval(compile(ast.Expression(node.value), str(path), "eval"), names)
            with contextlib.suppress(ValueError, TypeError, SyntaxError):
                names[node.targets[0].id] = ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {table}")


def test_declared_metrics_are_the_bench_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = module_table(ROOT / "bench" / "run.py", "END_TO_END_METRICS")
    per_layer = module_table(TRACING, "PER_LAYER_METRICS")
    assert [m["name"] for m in declared["end_to_end"]] == [name for name, *_ in end_to_end]
    assert [m["name"] for m in declared["per_layer"]] == [name for name, *_ in per_layer]
