"""Timing shims around spiderbp's public functions, and the per-layer metrics.

``Tracer.install(spiderbp)`` rebinds every module attribute that holds one
of the shimmed functions (``spiderbp.engine.contract_to_axis``,
``spiderbp.cli.run_bp``, ...), so a call lands in the shim whichever module
the caller imported the name from. ``uninstall`` puts the originals back.
Nothing in spiderbp is edited; the spans come from this file alone.

Three kinds of shim, by how often they run:

- spans, for layer boundaries: name, start, end, parent span and op id,
  kept in flat arrays and written out at the end;
- leaves, for the algebra methods, which run up to ~10^5 times per op:
  per-name call counts and seconds, with the time added to the enclosing
  span's covered time. Leaves call no shimmed function, so their self
  time is their duration;
- timers, for the per-message updates: count and seconds only.

A span's self time is its duration minus the union of its child spans'
intervals (clipped to the span) minus the leaf time inside it.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("formats", "graph", "engine", "tensor", "algebra", "jtree", "cli")

#: (module, function, span name, layer). Parse functions share one span name.
SPANS = (
    ("cli", "cli_dispatch", "cli.dispatch", "cli"),
    ("formats", "parse_native", "formats.parse", "formats"),
    ("formats", "parse_uai", "formats.parse", "formats"),
    ("graph", "validate_graph", "graph.validate", "graph"),
    ("graph", "components", "graph.components", "graph"),
    ("engine", "run_bp", "engine.run_bp", "engine"),
    ("engine", "contraction_value", "engine.contraction_value", "engine"),
    ("engine", "run_two_pass", "engine.two_pass", "engine"),
    ("engine", "sweep_synchronous", "engine.sweep", "engine"),
    ("engine", "two_pass_schedule", "engine.schedule", "engine"),
    ("engine", "beliefs", "engine.beliefs", "engine"),
    ("engine", "decode_map", "engine.decode_map", "engine"),
    ("engine", "dual_seed", "engine.dual_seed", "engine"),
    ("tensor", "contract_to_axis", "tensor.contract_to_axis", "tensor"),
    ("tensor", "fold_axis_sum", "tensor.fold_axis_sum", "tensor"),
    ("tensor", "hadamard", "tensor.hadamard", "tensor"),
    ("jtree", "build_junction_tree", "jtree.build", "jtree"),
    ("jtree", "run_junction_tree", "jtree.run", "jtree"),
    ("jtree", "marginal_from_clique", "jtree.marginal", "jtree"),
)

#: Semiring methods shimmed on every registry instance, by leaf name.
LEAVES = (
    ("normalize", "algebra.normalize"),
    ("max_distance", "algebra.max_distance"),
    ("array_add", "algebra.array_ops"),
    ("array_mul", "algebra.array_ops"),
)

TIMERS = (
    ("engine", "update_variable_message", "engine.msg"),
    ("engine", "update_factor_message", "engine.msg"),
)

#: every per-layer metric: name, unit, which direction is better
PER_LAYER_METRICS = (
    ("engine.msg_updates", "count", "lower"),
    ("engine.us_per_msg", "us", "lower"),
    ("engine.sweeps", "count", "lower"),
    ("engine.us_per_sweep", "us", "lower"),
    ("engine.useful_sweep_frac", "ratio", "higher"),
    ("engine.schedule.self_ms", "ms", "lower"),
    ("engine.two_pass.calls", "count", "lower"),
    ("engine.beliefs.self_ms", "ms", "lower"),
    ("tensor.contract_to_axis.calls", "count", "lower"),
    ("tensor.contract_to_axis.self_ms", "ms", "lower"),
    ("tensor.contract_to_axis.entries", "count", "lower"),
    ("tensor.contract_to_axis.ns_per_entry", "ns", "lower"),
    ("tensor.fold_axis_sum.self_ms", "ms", "lower"),
    ("tensor.hadamard.calls", "count", "lower"),
    ("tensor.hadamard.self_ms", "ms", "lower"),
    ("algebra.normalize.calls", "count", "lower"),
    ("algebra.normalize.self_ms", "ms", "lower"),
    ("algebra.max_distance.self_ms", "ms", "lower"),
    ("algebra.array_ops.calls", "count", "lower"),
    ("algebra.array_ops.self_ms", "ms", "lower"),
    ("jtree.build.self_ms", "ms", "lower"),
    ("jtree.run.self_ms", "ms", "lower"),
    ("jtree.marginal.self_ms", "ms", "lower"),
    ("jtree.clique_states", "count", "lower"),
    ("jtree.max_clique_states", "count", "lower"),
    ("jtree.peak_alloc_mb", "MB", "lower"),
    ("formats.parse.calls", "count", "lower"),
    ("formats.parse.self_ms", "ms", "lower"),
    ("formats.parse.mb_per_s", "MB/s", "higher"),
    ("graph.validate.calls", "count", "lower"),
    ("graph.validate.self_ms", "ms", "lower"),
    ("graph.components.calls", "count", "lower"),
    ("graph.components.self_ms", "ms", "lower"),
    ("cli.dispatch.self_ms", "ms", "lower"),
) + tuple((f"{layer}.errors", "count", "lower") for layer in LAYERS) + (
    ("trace.overhead_frac", "ratio", "lower"),
)


def self_times(start, end, parent, cover=None):
    """Duration of each span minus what its children and leaves cover.

    ``parent[i]`` is the index of span i's parent, or -1. Child intervals
    are clipped to the parent and overlapping children count once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(start)) if cover is None else np.array(cover, dtype=float)
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0.0
    for i in kids.tolist():
        p = parents[i]
        if p != current:
            current, reach = p, starts[p]
        lo, hi = max(starts[i], reach), min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - covered


class Tracer:
    """Collects spans, leaf totals, timers, counters and errors in memory."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start, self.end, self.cover = array("d"), array("d"), array("d")
        self.name, self.op, self.parent = array("i"), array("i"), array("q")
        self._stack = [-1]
        self.op_id = 0
        self.leaves = {}  # leaf name -> [calls, seconds]
        self.timers = {}  # timer name -> [calls, seconds]
        self.counters = {"contract_entries": 0, "parse_bytes": 0, "clique_states": 0,
                         "max_clique_states": 0, "bp_iterations": 0}
        self.errors = dict.fromkeys(LAYERS, 0)
        self._last_error = {}
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _error(self, layer, err):
        # an exception crossing several shims of one layer counts once there
        if self._last_error.get(layer) is not err:
            self._last_error[layer] = err
            self.errors[layer] += 1

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.parent.append(self._stack[-1])
        self.cover.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name, layer, fn, note=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self._close(idx)
                self._error(layer, err)
                raise
            self._close(idx)
            if note is not None:
                note(self, args, result)
            return result

        return shim

    def leaf(self, name, fn):
        totals = self.leaves.setdefault(name, [0, 0.0])
        cover, stack, clock = self.cover, self._stack, time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                self._error("algebra", err)
                raise
            finally:
                dt = clock() - t0
                totals[0] += 1
                totals[1] += dt
                if stack[-1] >= 0:
                    cover[stack[-1]] += dt

        return shim

    def timer(self, name, layer, fn):
        totals = self.timers.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                self._error(layer, err)
                raise
            finally:
                totals[0] += 1
                totals[1] += clock() - t0

        return shim

    @contextlib.contextmanager
    def region(self, name, op_id):
        """A top-level span for one op (or the set-up)."""
        self.op_id = op_id
        self._last_error.clear()
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- installing ----------------------------------------------------------

    def _rebind(self, package, original, shim):
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, shim)
                    self._patches.append((module, key, original))

    def install(self, package):
        notes = {
            "tensor.contract_to_axis": _note_contract,
            "formats.parse": _note_parse,
            "jtree.build": _note_cliques,
            "engine.run_bp": _note_iterations,
        }
        for module, func, name, layer in SPANS:
            original = getattr(sys.modules[f"{package.__name__}.{module}"], func)
            self._rebind(package, original, self.span(name, layer, original, notes.get(name)))
        for module, func, name in TIMERS:
            original = getattr(sys.modules[f"{package.__name__}.{module}"], func)
            self._rebind(package, original, self.timer(name, "engine", original))
        for semiring in package.SEMIRINGS.values():
            for method, name in LEAVES:
                setattr(semiring, method, self.leaf(name, getattr(semiring, method)))
                self._patches.append((semiring, method, None))

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            if original is None:
                delattr(obj, key)  # drops the instance shim, exposing the method
            else:
                setattr(obj, key, original)
        self._patches.clear()

    # -- reporting -----------------------------------------------------------

    def arrays(self):
        """Copies of the span columns (a view would stop the arrays growing)."""
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "cover": np.array(self.cover, dtype=np.float64),
        }

    def write(self, path):
        np.savez(path, **self.arrays())

    def metrics(self, n_ops, overhead_frac, peak_alloc_mb):
        """Every per-layer metric. Counts and self times are per op: totals
        over the traced set-up and ops, divided by the number of ops."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"], a["cover"])
        dur = a["end"] - a["start"]
        by_name = {name: a["name"] == i for i, name in enumerate(self.names)}
        none = np.zeros(len(own), dtype=bool)

        def calls(*names):
            return int(sum(int(by_name.get(n, none).sum()) for n in names))

        def self_s(name):
            return float(own[by_name.get(name, none)].sum())

        def incl_s(*names):
            return float(sum(dur[by_name.get(n, none)].sum() for n in names))

        # sweeps performed under run_bp: ancestors precede descendants
        run_bp = self._name_ids.get("engine.run_bp", -1)
        sweep_ids = {self._name_ids.get(n, -1) for n in ("engine.sweep", "engine.two_pass")}
        under = []
        bp_sweeps = 0
        for nid, p in zip(a["name"].tolist(), a["parent"].tolist()):
            under.append(nid == run_bp or (p >= 0 and under[p]))
            if under[-1] and nid in sweep_ids:
                bp_sweeps += 1

        def ratio(num, den):
            return num / den if den else 0.0

        per_op = 1.0 / max(n_ops, 1)
        msg_calls, msg_s = self.timers.get("engine.msg", [0, 0.0])
        sweeps = calls("engine.sweep", "engine.two_pass")
        leaf = lambda n: self.leaves.get(n, [0, 0.0])  # noqa: E731
        c = self.counters
        out = {
            "engine.msg_updates": msg_calls * per_op,
            "engine.us_per_msg": ratio(msg_s * 1e6, msg_calls),
            "engine.sweeps": sweeps * per_op,
            "engine.us_per_sweep": ratio(incl_s("engine.sweep", "engine.two_pass") * 1e6, sweeps),
            "engine.useful_sweep_frac": ratio(c["bp_iterations"], bp_sweeps),
            "engine.schedule.self_ms": self_s("engine.schedule") * 1e3 * per_op,
            "engine.two_pass.calls": calls("engine.two_pass") * per_op,
            "engine.beliefs.self_ms": self_s("engine.beliefs") * 1e3 * per_op,
            "tensor.contract_to_axis.calls": calls("tensor.contract_to_axis") * per_op,
            "tensor.contract_to_axis.self_ms": self_s("tensor.contract_to_axis") * 1e3 * per_op,
            "tensor.contract_to_axis.entries": c["contract_entries"] * per_op,
            "tensor.contract_to_axis.ns_per_entry": ratio(
                incl_s("tensor.contract_to_axis") * 1e9, c["contract_entries"]
            ),
            "tensor.fold_axis_sum.self_ms": self_s("tensor.fold_axis_sum") * 1e3 * per_op,
            "tensor.hadamard.calls": calls("tensor.hadamard") * per_op,
            "tensor.hadamard.self_ms": self_s("tensor.hadamard") * 1e3 * per_op,
            "algebra.normalize.calls": leaf("algebra.normalize")[0] * per_op,
            "algebra.normalize.self_ms": leaf("algebra.normalize")[1] * 1e3 * per_op,
            "algebra.max_distance.self_ms": leaf("algebra.max_distance")[1] * 1e3 * per_op,
            "algebra.array_ops.calls": leaf("algebra.array_ops")[0] * per_op,
            "algebra.array_ops.self_ms": leaf("algebra.array_ops")[1] * 1e3 * per_op,
            "jtree.build.self_ms": self_s("jtree.build") * 1e3 * per_op,
            "jtree.run.self_ms": self_s("jtree.run") * 1e3 * per_op,
            "jtree.marginal.self_ms": self_s("jtree.marginal") * 1e3 * per_op,
            "jtree.clique_states": c["clique_states"] * per_op,
            "jtree.max_clique_states": c["max_clique_states"],
            "jtree.peak_alloc_mb": peak_alloc_mb,
            "formats.parse.calls": calls("formats.parse") * per_op,
            "formats.parse.self_ms": self_s("formats.parse") * 1e3 * per_op,
            "formats.parse.mb_per_s": ratio(c["parse_bytes"] / 1e6, incl_s("formats.parse")),
            "graph.validate.calls": calls("graph.validate") * per_op,
            "graph.validate.self_ms": self_s("graph.validate") * 1e3 * per_op,
            "graph.components.calls": calls("graph.components") * per_op,
            "graph.components.self_ms": self_s("graph.components") * 1e3 * per_op,
            "cli.dispatch.self_ms": self_s("cli.dispatch") * 1e3 * per_op,
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer] * per_op
        out["trace.overhead_frac"] = overhead_frac
        return {name: float(out[name]) for name, _unit, _better in PER_LAYER_METRICS}


def _note_contract(tracer, args, result):
    tracer.counters["contract_entries"] += args[1].size


def _note_parse(tracer, args, result):
    tracer.counters["parse_bytes"] += len(args[0])


def _note_cliques(tracer, args, tree):
    g = args[0]
    sizes = [math.prod(g.variable(v).obj.dim for v in c.members) for c in tree.cliques]
    c = tracer.counters
    c["clique_states"] += sum(sizes)
    c["max_clique_states"] = max([c["max_clique_states"]] + sizes)


def _note_iterations(tracer, args, result):
    tracer.counters["bp_iterations"] += result.iterations
