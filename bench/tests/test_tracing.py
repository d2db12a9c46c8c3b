"""Self-time arithmetic, the shims, and BENCHMARK.json's metric lists."""

import json
import os

import numpy as np
import pytest

import run
import tracing
import workloads
import spiderbp
import spiderbp.cli  # noqa: F401
from spiderbp import RunConfig, build_graph

from conftest import ROOT


def test_self_time_on_a_synthetic_span_tree():
    #   0 root    [0, 10]   leaves cover 0.5 directly inside it
    #   1  a      [1, 4]    has child 3
    #   2  b      [3, 6]    overlaps a: the union [1, 6] counts once
    #   3   a1    [2, 3]
    #   4  c      [8, 12]   runs past the root: clipped to [8, 10]
    #   5 other   [20, 21]  a second root with no children
    start = [0, 1, 3, 2, 8, 20]
    end = [10, 4, 6, 3, 12, 21]
    parent = [-1, 0, 0, 1, 0, -1]
    cover = [0.5, 0, 0.25, 0, 0, 0]
    own = tracing.self_times(start, end, parent, cover)
    np.testing.assert_allclose(own, [10 - 5 - 2 - 0.5, 3 - 1, 3 - 0.25, 1, 4, 1])


def test_self_time_children_in_any_order():
    start, end, parent = [0, 5, 1], [10, 7, 2], [-1, 0, 0]
    np.testing.assert_allclose(tracing.self_times(start, end, parent), [7, 2, 1])


def _grid():
    dims, factors, _tables = workloads.grid_model(np.random.default_rng(0), 3, 2)
    return build_graph(dims, [(nb, t.reshape(-1).tolist()) for nb, t in factors], "prob")


def test_shims_record_and_uninstall():
    g = _grid()
    original = spiderbp.engine.contract_to_axis
    tracer = tracing.Tracer()
    tracer.install(spiderbp)
    try:
        assert spiderbp.engine.contract_to_axis is not original
        with tracer.region("bench.op", 1):
            result = spiderbp.engine.run_bp(g, RunConfig(schedule="sync"))
    finally:
        tracer.uninstall()
    assert spiderbp.engine.contract_to_axis is original
    assert "normalize" not in vars(spiderbp.PROB)
    metrics = tracer.metrics(1, 0.0, 0.0)
    assert list(metrics) == [name for name, _unit, _better in tracing.PER_LAYER_METRICS]
    sweeps = result.iterations + (1 if result.converged else 0)
    assert metrics["engine.sweeps"] in (result.iterations, sweeps)
    assert metrics["engine.msg_updates"] == metrics["engine.sweeps"] * 2 * len(g.wires)
    assert metrics["tensor.contract_to_axis.calls"] == metrics["engine.sweeps"] * len(g.wires)
    a = tracer.arrays()
    own = tracing.self_times(a["start"], a["end"], a["parent"], a["cover"])
    assert (own > -1e-6).all()
    # self times and leaf time tile the top-level spans exactly
    roots = a["parent"] == -1
    leaf_s = sum(seconds for _calls, seconds in tracer.leaves.values())
    assert np.isclose(own.sum() + leaf_s, (a["end"] - a["start"])[roots].sum(), rtol=1e-9)


def test_errors_count_once_per_layer():
    tracer = tracing.Tracer()
    g = _grid()
    tracer.install(spiderbp)
    try:
        with tracer.region("bench.op", 1):
            with pytest.raises(spiderbp.NotATreeError):
                spiderbp.engine.two_pass_schedule(g)
    finally:
        tracer.uninstall()
    assert tracer.errors["engine"] == 1
    assert tracer.errors["graph"] == 0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER_METRICS
    ]
