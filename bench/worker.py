"""The measured process: set up spiderbp, run a workload's ops, check them.

    python3 bench/worker.py PLAN --mode setup|run|trace --seconds S

Run from the root of a checkout with ``src`` on PYTHONPATH. The plan and
model files come from ``workloads.write_plan``. Prints one JSON object:

- ``setup``: the set-up time alone, and the host-speed task's time
  (``calibration.py``) right after it;
- ``run``: set-up time, peak RSS and one record per op (name, ms, the
  host-speed task's time right before the op, status), looping over whole
  passes of the op list until ``S`` seconds are used, then the task's time
  once more;
- ``trace``: the same untraced passes, then one traced pass (which first
  re-parses the files under the trace) for every per-layer metric, then a
  tracemalloc pass for ``run_junction_tree``'s peak allocation. Spans are
  written next to the plan as ``spans.npz``.

Every op's output is checked after its timer stops.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time

#: bound in main() once set-up is timed: its import of numpy belongs to set-up
calibration_ms = None


def _parse_files(spiderbp, files):
    """Read and parse every model file the ops run on, keyed by path."""
    graphs = {}
    for f in files:
        with open(f["path"], "r", encoding="utf-8") as handle:
            text = handle.read()
        if f["format"] == "uai":
            graphs[f["path"]], _ = spiderbp.formats.parse_uai(text, semiring=f["semiring"])
        else:
            graphs[f["path"]], _ = spiderbp.formats.parse_native(text, semiring=f["semiring"])
    return graphs


def _call(spiderbp, op, graphs):
    """Zero-argument call of one op. Names resolve at call time, so shims
    installed later are the ones called."""
    kind = op["kind"]
    if kind == "cli":
        argv = op["argv"]
        return lambda: spiderbp.cli.cli_dispatch(argv)
    g = graphs[op["model"]]
    if kind == "bp":
        cfg = spiderbp.engine.RunConfig(schedule="sync")
        return lambda: spiderbp.engine.run_bp(g, cfg)
    cfg = spiderbp.engine.RunConfig(semiring=op["semiring"])
    return lambda: spiderbp.jtree.run_junction_tree(g, cfg)


def _outcome(op, value):
    """What the checks read, gathered after the timer stopped."""
    if op["kind"] == "cli":
        doc = None
        if os.path.exists(op["output"]):
            with open(op["output"], "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        return {"rc": value, "doc": doc}
    beliefs = value.variable_beliefs
    marginals = [beliefs[v].values.tolist() for v in sorted(beliefs)]
    if op["kind"] == "bp":
        return {"result": {"converged": value.converged, "marginals": marginals}}
    z = value.contraction_value
    return {"result": {"z": z if isinstance(z, int) else float(z), "marginals": marginals}}


def _run_op(spiderbp, op, graphs, check, region):
    """Time one op inside ``region``, then check it.

    Returns (ms, cal_ms, status, detail), where ``cal_ms`` is the host-speed
    task's time just before the op (see ``calibration.py``). Garbage from
    earlier ops is collected before the timer starts, and a
    raised exception is not kept (its traceback would hold the op's arrays
    until the next op frees them on its own clock).
    """
    if op["kind"] == "cli" and os.path.exists(op["output"]):
        os.remove(op["output"])
    call = _call(spiderbp, op, graphs)
    gc.collect()
    cal_ms = calibration_ms()
    with region:
        t0 = time.perf_counter()
        try:
            value = call()
        except Exception as err:  # a failed op is recorded and the run goes on
            ms = (time.perf_counter() - t0) * 1e3
            outcome = {"error": type(err).__name__, "message": str(err)[:200]}
        else:
            ms = (time.perf_counter() - t0) * 1e3
            outcome = None
    if outcome is None:
        outcome = _outcome(op, value)
    status, detail = check(op, outcome)
    return ms, cal_ms, status, detail


def _pass(spiderbp, ops, graphs, check, records, tracer=None):
    total = 0.0
    for i, op in enumerate(ops):
        region = contextlib.nullcontext() if tracer is None else tracer.region("bench.op", i + 1)
        ms, cal_ms, status, detail = _run_op(spiderbp, op, graphs, check, region)
        total += ms
        records.append({"name": op["name"], "ms": ms, "cal_ms": cal_ms, "status": status, "detail": detail})
    return total


def _peak_alloc_mb(spiderbp, ops, graphs, check):
    """Largest tracemalloc peak inside one run_junction_tree call, in MB."""
    import tracemalloc

    original = spiderbp.jtree.run_junction_tree
    peak = [0]

    def measured(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return original(*args, **kwargs)
        finally:
            peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1] - base)

    spiderbp.jtree.run_junction_tree = measured
    tracemalloc.start()
    try:
        _pass(spiderbp, ops, graphs, check, [])
    finally:
        tracemalloc.stop()
        spiderbp.jtree.run_junction_tree = original
    return peak[0] / 2**20


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    with open(args.plan, "r", encoding="utf-8") as handle:
        plan = json.load(handle)

    # set-up: what a user pays once before the first op
    t0 = time.perf_counter()
    import spiderbp
    import spiderbp.cli  # noqa: F401  (not loaded by the package; tree-cli ops and the shims need it)

    graphs = _parse_files(spiderbp, plan["setup_files"])
    setup_s = time.perf_counter() - t0
    global calibration_ms
    from calibration import calibration_ms

    setup_cal_ms = calibration_ms()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_cal_ms": setup_cal_ms}))
        return 0

    from checks import check

    ops = plan["ops"]
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < args.seconds:
        last_pass_ms = _pass(spiderbp, ops, graphs, check, records)
    result = {
        "setup_s": setup_s,
        "setup_cal_ms": setup_cal_ms,
        "end_cal_ms": calibration_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
    }
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(spiderbp)
        try:
            with tracer.region("bench.setup", 0):
                traced_graphs = _parse_files(spiderbp, plan["setup_files"])
            traced_ms = _pass(spiderbp, ops, traced_graphs, check, records, tracer)
        finally:
            tracer.uninstall()
        uses_jtree = any(op["kind"] == "jtree" for op in ops)
        peak = _peak_alloc_mb(spiderbp, ops, graphs, check) if uses_jtree else 0.0
        tracer.write(os.path.join(os.path.dirname(args.plan), "spans.npz"))
        # against the pass just before it, so that host load drifting over
        # the run does not pass for trace overhead
        overhead = traced_ms / last_pass_ms - 1.0
        result["per_layer"] = tracer.metrics(len(ops), overhead, peak)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
