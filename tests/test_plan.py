"""Both schedules on the compiled plan against the per-wire update rules.

The references below compose one Jacobi sweep, and one two-pass run, from
the public per-wire updates (``update_variable_message`` /
``update_factor_message``), the damping formula and the scalar
``distance``. The plan must reproduce them bit for bit: every message, the
residual and the iteration counter, and for the two-pass run the beliefs,
the closed value, the decoded states and the contradiction wire too.
"""

import gc
import json
import math
import sys
import warnings
import weakref
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import spiderbp
from spiderbp import (
    PROB,
    ContradictionError,
    NotATreeError,
    RunConfig,
    ValidationError,
    ZeroMessageError,
    build_graph,
    contraction_value,
    decode_map,
    dual_seed,
    exact_contraction,
    run_bp,
)
from spiderbp.algebra import DualNumber, get_semiring
from spiderbp.engine import (
    beliefs,
    init_messages,
    run_two_pass,
    sweep_synchronous,
    two_pass_schedule,
)
from spiderbp.graph import FactorGraph, _by_variable, _wire_levels, components, tree_info
from spiderbp.tensor import hadamard
from spiderbp import engine
from spiderbp.cli import EXIT_NOT_CONVERGED, cli_dispatch
from spiderbp.engine import contraction_from_state, update_factor_message, update_variable_message
from spiderbp.tensor import Message

from fixtures import (
    node_between,
    normal_form,
    random_loopy,
    random_tree,
    random_tree_structure,
    relabel,
    table_for,
    wire_messages,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


# -- the per-wire reference ------------------------------------------------------


@dataclass
class DictState:
    """A per-wire state: the messages of a reference run, one dict per
    direction, as the per-wire update rules read them."""

    var_to_factor: dict
    factor_to_var: dict
    iteration: int = 0
    residual: float = math.inf
    dead_wire: tuple = None


def unpack(g, state):
    """A ``MessageState`` of ``g`` as a ``DictState``: one ``Message`` per
    directed wire, read off the wire's row of the per-wire view."""
    v2f, f2v = wire_messages(state)
    var_to_factor, factor_to_var = {}, {}
    rows = {d: iter(range(len(a))) for d, a in v2f.items()}  # each dim's wires, in g.wires order
    for (fid, axis), d in zip(g.wires, state._plan.wire_dim.tolist()):
        r = next(rows[d])
        vid = g.factor(fid).neighbors[axis]
        obj = g.variable(vid).obj
        var_to_factor[(vid, fid, axis)] = Message(obj, v2f[d][r])
        factor_to_var[(fid, axis)] = Message(obj, f2v[d][r])
    return DictState(var_to_factor, factor_to_var, state.iteration, state.residual, state.dead_wire)


def reference_sweep(g, state, cfg):
    """One sync sweep, one wire at a time, every v2f before every f2v.

    An update whose support dies is recomputed unnormalized and kept. A
    sweep with such a wire is not damped: it ends with residual inf, the
    first of them (in update order) its ``dead_wire``."""
    semiring = get_semiring(g.semiring)
    dead = []

    def updated(update, *args):
        try:
            return update(g, state, cfg, *args)
        except ContradictionError as err:
            dead.append(err.wire)
            return update(g, state, replace(cfg, normalize=False), *args)

    new_v2f = {}
    for fid, axis in g.wires:
        vid = g.factor(fid).neighbors[axis]
        new_v2f[(vid, fid, axis)] = updated(update_variable_message, vid, (fid, axis))
    new_f2v = {(fid, axis): updated(update_factor_message, fid, axis) for fid, axis in g.wires}
    if dead:
        return DictState(new_v2f, new_f2v, state.iteration + 1, math.inf, dead[0])

    def damped(msg, old):
        if cfg.damping == 0.0:
            return msg
        lam = cfg.damping
        return Message(msg.obj, (1.0 - lam) * msg.values + lam * old.values)

    def gap(msg, old):
        pairs = zip(msg.values.tolist(), old.values.tolist())
        return max((semiring.distance(x, y) for x, y in pairs), default=0.0)

    residual = 0.0
    for new, olds in ((new_v2f, state.var_to_factor), (new_f2v, state.factor_to_var)):
        for key, msg in new.items():
            new[key] = msg = damped(msg, olds[key])
            residual = max(residual, gap(msg, olds[key]))
    return DictState(new_v2f, new_f2v, state.iteration + 1, residual)


def reference_product(g, state, v):
    """Variable ``v``'s incoming f2v messages multiplied as ``hadamard``
    does, in incidence order; the unit when it has none."""
    semiring = get_semiring(g.semiring)
    incoming = [state.factor_to_var[w] for w in g.incident[v.id]]
    return hadamard(semiring, incoming).values if incoming else semiring.ones((v.dim,))


def reference_variable_beliefs(g, state, cfg):
    semiring = get_semiring(g.semiring)
    out = {}
    for v in g.variables:
        values = reference_product(g, state, v)
        if cfg.normalize and semiring.has_normalize:
            try:
                values = semiring.normalize(values)
            except ZeroMessageError:
                pass  # a dead belief is reported as it is
        out[v.id] = values
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == object:
        return a.shape == b.shape and all(
            repr(x) == repr(y) and type(x) is type(y) for x, y in zip(a.ravel(), b.ravel())
        )
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_state(g, got, want):
    got = unpack(g, got)
    assert got.iteration == want.iteration
    assert repr(got.residual) == repr(want.residual)
    assert got.dead_wire == want.dead_wire
    assert list(got.var_to_factor) == list(want.var_to_factor)
    assert list(got.factor_to_var) == list(want.factor_to_var)
    for key, msg in want.var_to_factor.items():
        assert same_bits(got.var_to_factor[key].values, msg.values), ("v2f", key)
    for key, msg in want.factor_to_var.items():
        assert same_bits(got.factor_to_var[key].values, msg.values), ("f2v", key)


def check_against_reference(g, cfg):
    """One sweep, then a full run, each against the per-wire reference."""
    start = init_messages(g, cfg)
    assert_same_state(g, sweep_synchronous(g, start, cfg), reference_sweep(g, unpack(g, start), cfg))
    result = run_bp(g, cfg)
    want = unpack(g, start)
    for _ in range(result.state.iteration):
        want = reference_sweep(g, want, cfg)
    assert_same_state(g, result.state, want)
    assert result.iterations in (want.iteration - 1, want.iteration)
    assert repr(result.residual) == repr(want.residual)
    for vid, values in reference_variable_beliefs(g, want, cfg).items():
        assert same_bits(result.variable_beliefs[vid].values, values), ("belief", vid)
    return result


# -- models ---------------------------------------------------------------------


def normal_form_loopy(rng, name="prob"):
    """A loopy model whose nodes carry tensors of their own, in normal form."""
    dims = [2, 3, 2, 2]
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    factors = [((a, b), rng.uniform(0.1, 2.0, dims[a] * dims[b]).tolist()) for a, b in edges]
    factors.append(((2,), rng.uniform(0.1, 2.0, 2).tolist()))
    degree = {v: sum(v in nb for nb, _ in factors) for v in range(len(dims))}
    tensors = {v: rng.uniform(0.1, 2.0, dims[v] ** degree[v]).tolist() for v in degree}
    return normal_form(dims, factors, tensors, name)


def odd_shapes(rng, name="prob"):
    """Mixed dims, a factor on one variable twice, an isolated variable and a
    rank-0 factor, all in one graph."""
    dims = [2, 3, 4, 3, 2]  # variable 4 touches nothing
    factors = [
        ((0, 1), rng.uniform(0.1, 2.0, 6).tolist()),
        ((1, 1, 2), rng.uniform(0.1, 2.0, 36).tolist()),  # variable 1 on two axes
        ((2, 3), rng.uniform(0.1, 2.0, 12).tolist()),
        ((3, 0), rng.uniform(0.1, 2.0, 6).tolist()),
        ((), [1.5]),
        ((1,), rng.uniform(0.1, 2.0, 3).tolist()),
    ]
    return build_graph(dims, factors, name)


def dead_graph(name="prob"):
    return build_graph([2, 2], [((0,), [0.0, 0.0]), ((0, 1), [1.0, 2.0, 3.0, 4.0])], name)


def late_dead_graph(name="prob"):
    """Both variable messages into factors 2 and 5 die in the second sweep;
    the dim-3 wire (2, 0) comes first in wire order, the dim-2 wire (5, 0)
    sits in the packed array that is read first."""
    return build_graph(
        [2, 3, 3],
        [
            ((0,), [1.0, 0.0]),
            ((0,), [0.0, 1.0]),
            ((1, 2), [1.0] * 9),
            ((1,), [1.0, 0.0, 0.0]),
            ((1,), [0.0, 1.0, 0.0]),
            ((0, 2), [1.0] * 6),
        ],
        name,
    )


# -- bit identity ----------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_float_semirings_on_loopy_graphs(self, name, normalize):
        rng = np.random.default_rng(301)
        for _ in range(6):
            g = random_loopy(rng, name)
            # unnormalized loopy messages grow every sweep: stop well before overflow
            cfg = RunConfig(semiring=name, normalize=normalize, max_iters=200 if normalize else 8)
            check_against_reference(g, cfg)

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool"])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_every_semiring_on_trees(self, name, normalize):
        rng = np.random.default_rng(302)
        for _ in range(6):
            result = check_against_reference(random_tree(rng, name), RunConfig(semiring=name, normalize=normalize))
            assert result.converged

    @pytest.mark.parametrize("normalize", [True, False])
    def test_dual(self, normalize):
        rng = np.random.default_rng(303)
        for i in range(4):
            g = dual_seed(random_tree(rng, "prob", max_vars=6), 0, i % 2)
            assert check_against_reference(g, RunConfig(semiring="dual", normalize=normalize)).converged

    def test_damping(self):
        rng = np.random.default_rng(304)
        for _ in range(4):
            check_against_reference(random_loopy(rng), RunConfig(damping=0.4, max_iters=300))

    @pytest.mark.parametrize("normalize", [True, False])
    def test_node_tensor_pair(self, normalize):
        check_against_reference(node_between([1.0, 0.0, 0.0, 1.0]), RunConfig(normalize=normalize))

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    def test_node_tensors_on_a_loopy_graph(self, name):
        rng = np.random.default_rng(305)
        for _ in range(3):
            result = check_against_reference(normal_form_loopy(rng, name), RunConfig(semiring=name, max_iters=200))
            assert result.converged

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    def test_repeated_axis_mixed_dims_isolated_and_rank0(self, name):
        result = check_against_reference(odd_shapes(np.random.default_rng(306), name), RunConfig(semiring=name))
        unit = {"prob": [0.5, 0.5], "maxtimes": [1.0, 1.0]}[name]
        assert result.variable_beliefs[4].values.tolist() == unit
        assert result.factor_beliefs[4].data.tolist() == [1.5]


def dead_loopy(rng, name="prob"):
    """A random loopy graph with about half of its table entries zeroed, so
    support may die in any sweep."""
    g = random_loopy(rng, name)
    factors = [(f.neighbors, [x * (rng.random() > 0.45) for x in f.tensor.data.tolist()]) for f in g.factors]
    return build_graph([v.dim for v in g.variables], factors, name)


class TestContradictions:
    def reference_wire(self, g, cfg):
        state = unpack(g, init_messages(g, cfg))
        for _ in range(cfg.max_iters):
            state = reference_sweep(g, state, cfg)
            if state.dead_wire is not None:
                return state.dead_wire
        return None

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    @pytest.mark.parametrize("build", [dead_graph, late_dead_graph])
    def test_same_wire_and_no_warning(self, name, build):
        g = build(name)
        cfg = RunConfig(semiring=name, max_iters=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = self.reference_wire(g, cfg)
            result = run_bp(g, cfg)
        assert want is not None
        assert result.contradiction
        assert result.contradiction_wire == want

    @pytest.mark.parametrize("name, damping", [("prob", 0.0), ("prob", 0.3), ("maxtimes", 0.0)])
    def test_the_dead_sweep_keeps_the_reference_messages(self, name, damping):
        """A run that meets dead support ends on that sweep, its messages
        (live ones rescaled, dead ones undivided, none damped), residual
        and dead wire bit for bit those of the per-wire reference."""
        rng, sweeps = np.random.default_rng(312), []
        for _ in range(16):
            g = dead_loopy(rng, name)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = check_against_reference(g, RunConfig(damping=damping, max_iters=50))
            if result.contradiction and result.state.dead_wire is not None:
                assert result.iterations == result.state.iteration and not result.converged
                assert result.contradiction_wire == result.state.dead_wire
                sweeps.append(result.iterations)
        # a damped message keeps the old one's support, so support dies in
        # sweep 1 or never; undamped, it dies in several sweeps
        assert sweeps and (damping or len(set(sweeps)) > 1), sweeps

    def test_first_dead_wire_in_wire_order(self):
        # support dies in sweep 2, which the run counts and keeps
        result = run_bp(late_dead_graph(), RunConfig())
        assert result.contradiction_wire == result.state.dead_wire == ("v2f", 2, 0)
        assert result.iterations == result.state.iteration == 2
        assert result.residual == math.inf and not result.converged

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    def test_a_v2f_and_an_f2v_of_two_dims_dying_in_one_sweep(self, name):
        """The dim-2 v2f wire (3, 0) and the dim-3 f2v wire (5, 1) die in
        one sweep; the dim-3 array comes first in the store, yet the v2f
        wire is reported, as the per-wire reference reports it.

        From the unit start a v2f message first changes at even sweeps and
        an f2v one at odd sweeps, so no run kills both in one sweep: this
        one starts from sweep 1's state with the v2f message on wire (5, 0)
        set to [1, 0], as the unary [1, 0] on v2 sets it in sweep 2."""
        g = build_graph([2, 3, 2], [
            ((1,), [1.0, 1.0, 1.0]),
            ((0,), [1.0, 0.0]),
            ((0,), [0.0, 1.0]),
            ((0, 1), [1.0] * 6),
            ((2,), [1.0, 0.0]),
            ((2, 1), [0.0, 0.0, 0.0, 1.0, 2.0, 3.0]),  # row 0 is zero
        ], name)
        cfg = RunConfig(semiring=name)
        start = sweep_synchronous(g, init_messages(g, cfg), cfg)
        plan, arrays = start._plan, {d: a.copy() for d, a in start._arrays.items()}
        assert list(plan.dims) == [3, 2]
        arrays[2][:, plan.v2f_col[plan.start[5]]] = [1.0, 0.0]
        start = engine.MessageState(plan, arrays, start.iteration)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = reference_sweep(g, unpack(g, start), cfg)
            got = sweep_synchronous(g, start, cfg)
        assert want.dead_wire == got.dead_wire == ("v2f", 3, 0)
        assert_same_state(g, got, want)
        # both die: with the f2v message on (2, 0) made the unit, (3, 0) lives
        arrays[2][:, plan.f2v_col[plan.start[2]]] = 1.0
        got = sweep_synchronous(g, start, cfg)
        assert got.dead_wire == ("f2v", 5, 1)
        assert_same_state(g, got, reference_sweep(g, unpack(g, start), cfg))

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    def test_wires_whose_columns_come_in_another_order(self, name):
        """The f2v wires (1, 0), (2, 0) and (2, 1) die in the first sweep.
        Wire (1, 0) comes first in ``g.wires``, but its column comes last:
        factor 1's (2,) stack follows the (2, 2) stack of factors 0 and 2.
        The sweep reports it, as the per-wire reference does."""
        g = build_graph([2, 2], [((0, 1), [1.0, 2.0, 3.0, 4.0]), ((0,), [0.0, 0.0]), ((1, 0), [0.0] * 4)], name)
        cfg = RunConfig(semiring=name)
        start = init_messages(g, cfg)
        plan = start._plan
        assert plan.f2v_col[plan.start[2]] < plan.f2v_col[plan.start[2] + 1] < plan.f2v_col[plan.start[1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = reference_sweep(g, unpack(g, start), cfg)
            got = sweep_synchronous(g, start, cfg)
            result = run_bp(g, cfg)
        assert want.dead_wire == got.dead_wire == result.contradiction_wire == ("f2v", 1, 0)
        assert_same_state(g, got, want)
        assert_same_state(g, result.state, want)


# -- observability ----------------------------------------------------------------


class TestSweepsObservable:
    def test_run_bp_calls_the_public_sweep_once_per_sweep(self, monkeypatch):
        calls = []
        original = engine.sweep_synchronous

        def counted(g, state, cfg):
            calls.append(state.iteration)
            return original(g, state, cfg)

        monkeypatch.setattr(engine, "sweep_synchronous", counted)
        rng = np.random.default_rng(308)
        for g in [random_loopy(rng) for _ in range(4)] + [random_tree(rng) for _ in range(4)]:
            calls.clear()
            result = run_bp(g, RunConfig(max_iters=500))
            assert len(calls) in (result.iterations, result.iterations + 1)

    def test_bench_tracer_names_still_resolve(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        import tracing

        for module, function, *_rest in tracing.SPANS + tracing.TIMERS:
            assert callable(getattr(sys.modules[f"spiderbp.{module}"], function)), (module, function)
        for semiring in spiderbp.SEMIRINGS.values():
            for method, _name in tracing.LEAVES:
                assert callable(getattr(semiring, method)), (semiring.name, method)


class TestCliClosesItsOwnState:
    def test_one_two_pass_per_z_run(self, tmp_path, monkeypatch, capsys):
        doc = {
            "variables": [{"id": i, "dim": d} for i, d in enumerate([2, 3, 2])],
            "factors": [
                {"id": 0, "neighbors": [0, 1], "values": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]},
                {"id": 1, "neighbors": [1, 2], "values": [1.0, 0.25, 2.0, 0.5, 3.0, 0.75]},
                {"id": 2, "neighbors": [0], "values": [0.3, 0.7]},
            ],
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        g, _ = spiderbp.parse_native(path.read_text())
        cfg = RunConfig(schedule="tree", normalize=False)
        want_z = contraction_value(g)
        want_beliefs = {vid: b.values.tolist() for vid, b in run_bp(g, cfg).variable_beliefs.items()}

        calls = []
        original = engine.run_two_pass

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "run_two_pass", counted)
        code = cli_dispatch(["run", "--input", str(path), "--schedule", "tree", "--no-normalize"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(calls) == 1
        assert out["contraction_value"] == want_z
        assert {b["id"]: b["values"] for b in out["beliefs"]} == want_beliefs
        assert (out["converged"], out["iterations"], out["residual"]) == (True, 1, 0.0)


# -- the two-pass schedule on the plan -------------------------------------------


def reference_two_pass(g, cfg):
    """The per-wire two-pass run: ``two_pass_schedule`` order, one update at a
    time. A message whose support dies is recomputed unnormalized and kept,
    and the state's ``dead_wire`` is the dead wire of lowest
    ``_wire_levels`` level, every v2f before every f2v in ``g.wires`` order
    within it."""
    start = unpack(g, init_messages(g, cfg))
    v2f, f2v = start.var_to_factor, start.factor_to_var
    working = DictState(v2f, f2v)
    levels, position = _wire_levels(g), {wire: i for i, wire in enumerate(g.wires)}
    dead = []  # (level, 0 for v2f or 1 for f2v, g.wires index, wire)

    def update(kind, fid, axis, cfg):
        if kind == "v2f":
            vid = g.factor(fid).neighbors[axis]
            v2f[(vid, fid, axis)] = update_variable_message(g, working, cfg, vid, (fid, axis))
        else:
            f2v[(fid, axis)] = update_factor_message(g, working, cfg, fid, axis)

    for kind, fid, axis in two_pass_schedule(g):
        try:
            update(kind, fid, axis, cfg)
        except ContradictionError as err:
            update(kind, fid, axis, replace(cfg, normalize=False))
            k, i = int(kind == "f2v"), position[(fid, axis)]
            dead.append((levels[k][i], k, i, err.wire))
    if dead:
        return DictState(v2f, f2v, 1, math.inf, min(dead)[3])
    return DictState(v2f, f2v, 1, 0.0)


def reference_tensor_belief(semiring, tensor, msgs):
    """A tensor times one message per axis, axes ascending."""
    arr = tensor.as_array()
    for axis, values in enumerate(msgs):
        shape = [1] * arr.ndim
        shape[axis] = len(values)
        arr = semiring.array_mul(arr, np.asarray(values).reshape(shape))
    return np.asarray(arr).reshape(-1)


def reference_beliefs(g, state, cfg):
    """Variable beliefs and factor beliefs."""
    semiring = get_semiring(g.semiring)
    var_b = reference_variable_beliefs(g, state, cfg)
    fac_b = {
        f.id: reference_tensor_belief(
            semiring,
            f.tensor,
            [state.var_to_factor[(vid, f.id, axis)].values for axis, vid in enumerate(f.neighbors)],
        )
        for f in g.factors
    }
    return var_b, fac_b


def reference_z(g, semiring, state):
    """Each component closed at its smallest variable id by a per-wire
    product and fold."""
    total = semiring.one
    for var_ids, fac_ids in components(g):
        if not var_ids:
            total = semiring.mul(total, g.factor(fac_ids[0]).tensor.data.item(0))
            continue
        z = semiring.fold(reference_product(g, state, g.variable(var_ids[0])), 0).item()
        total = semiring.mul(total, z)
    return total


def reference_map(g, state, semiring):
    """The scalar argmax scan: strictly greater wins, ties to the lowest index."""
    out = {}
    for v in g.variables:
        values = reference_product(g, state, v)
        best, best_val = 0, values[0]
        for j in range(1, len(values)):
            if values[j] > best_val:
                best, best_val = j, values[j]
        out[v.id] = best
    return out


def check_tree_against_reference(g, cfg):
    """A tree run on the plan against the per-wire two-pass, bit for bit."""
    semiring = get_semiring(g.semiring)
    want = reference_two_pass(g, cfg)
    result = run_bp(g, replace(cfg, schedule="tree"))
    if want.dead_wire is None:
        assert result.converged and result.residual == 0.0
    else:
        assert result.contradiction and result.contradiction_wire == want.dead_wire
        assert result.residual == math.inf and not result.converged
    assert_same_state(g, result.state, want)
    var_b, fac_b = reference_beliefs(g, want, cfg)
    for vid, values in var_b.items():
        got = result.variable_beliefs[vid]
        assert same_bits(got.values, values), ("belief", vid)
    for fid, values in fac_b.items():
        assert same_bits(result.factor_beliefs[fid].data, values), ("factor belief", fid)
    if not cfg.normalize:
        z = contraction_from_state(g, result.state)
        assert same_bits(np.array([z], dtype=object), np.array([reference_z(g, semiring, want)], dtype=object))
    if semiring.has_compare:
        assert decode_map(g, result.state) == reference_map(g, want, semiring)
    return result


def random_forest(rng, semiring="prob"):
    """Two or three random trees side by side, plus isolated variables and
    rank-0 factors, with ids interleaved."""
    dims, factors = [], []
    for _ in range(int(rng.integers(2, 4))):
        tree = random_tree(rng, semiring, max_vars=6)
        offset = len(dims)
        dims.extend(v.dim for v in tree.variables)
        for f in tree.factors:
            factors.append((tuple(offset + v for v in f.neighbors), f.tensor.data.tolist()))
        dims.append(int(rng.integers(2, 4)))  # an isolated variable
        factors.append(((), table_for(rng, semiring, 1)))  # a rank-0 factor
    order = rng.permutation(len(factors))
    return build_graph(dims, [factors[i] for i in order], get_semiring(semiring))


def dead_tree(rng, name="prob"):
    """A random tree whose tables hold zeros, so support may die."""
    dims, edges = random_tree_structure(rng, max_vars=7)
    factors = []
    for a, b in edges:
        factors.append(((a, b), (rng.integers(0, 2, dims[a] * dims[b]) * rng.uniform(0.5, 1.5, dims[a] * dims[b])).tolist()))
    for v in range(len(dims)):
        if rng.random() < 0.6:
            factors.append(((v,), (rng.integers(0, 2, dims[v]) * rng.uniform(0.5, 1.5, dims[v])).tolist()))
    if not factors:
        factors.append(((0,), [0.0] * dims[0]))
    return build_graph(dims, factors, get_semiring(name))


def node_tensor_chain(rng, n=4):
    """Nodes v0 - v1 - ... joined by rank-2 factors, with a unary factor on
    the first and last node; every node carries its own tensor, written in
    normal form."""
    dims = [int(d) for d in rng.integers(2, 4, n)]
    factors = [((i, i + 1), rng.uniform(0.1, 2.0, dims[i] * dims[i + 1]).tolist()) for i in range(n - 1)]
    factors += [((0,), rng.uniform(0.1, 2.0, dims[0]).tolist()), ((n - 1,), rng.uniform(0.1, 2.0, dims[-1]).tolist())]
    degree = {v: sum(v in nb for nb, _ in factors) for v in range(n)}
    tensors = {v: rng.uniform(0.1, 2.0, dims[v] ** degree[v]).tolist() for v in range(n)}
    return normal_form(dims, factors, tensors)


class TestTreeBitIdentity:
    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool"])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_every_semiring_on_trees(self, name, normalize):
        rng = np.random.default_rng(311)
        for _ in range(8):
            assert check_tree_against_reference(random_tree(rng, name), RunConfig(semiring=name, normalize=normalize)).converged

    @pytest.mark.parametrize("normalize", [True, False])
    def test_dual(self, normalize):
        rng = np.random.default_rng(312)
        for i in range(5):
            g = dual_seed(random_tree(rng, "prob", max_vars=8), 0, i % 2)
            check_tree_against_reference(g, RunConfig(semiring="dual", normalize=normalize))

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool"])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_forests_with_isolated_variables_and_rank0_factors(self, name, normalize):
        rng = np.random.default_rng(313)
        for _ in range(5):
            check_tree_against_reference(random_forest(rng, name), RunConfig(semiring=name, normalize=normalize))

    @pytest.mark.parametrize("normalize", [True, False])
    def test_explicit_root(self, normalize):
        # the old root becomes id 0, so its component closes there
        rng = np.random.default_rng(314)
        for _ in range(5):
            g = random_forest(rng)
            for root in (len(g.variables) - 1, int(rng.integers(len(g.variables)))):
                check_tree_against_reference(relabel(g, {0: root, root: 0}), RunConfig(normalize=normalize))

    def test_long_chain_is_exact(self):
        # a 300-variable chain: about 600 levels, one or two messages each
        rng = np.random.default_rng(315)
        factors = [((i, i + 1), rng.uniform(0.5, 1.5, 9).tolist()) for i in range(299)]
        factors += [((i,), rng.uniform(0.5, 1.5, 3).tolist()) for i in range(300)]
        # closed in the middle: v150 is relabelled v0
        g = relabel(build_graph([3] * 300, factors, PROB), {0: 150, 150: 0})
        for normalize in (True, False):
            check_tree_against_reference(g, RunConfig(normalize=normalize))

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    def test_dead_support_same_wire_and_partial_beliefs(self, name):
        # a contradicted run completes: every message and belief is the
        # reference's, dead ones undivided, and so is the lowest-level wire
        rng = np.random.default_rng(316)
        contradicted = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(40):
                g = dead_tree(rng, name)
                result = check_tree_against_reference(g, RunConfig(semiring=name))
                contradicted += result.contradiction
            result = check_tree_against_reference(dead_graph(name), RunConfig(semiring=name))
        assert contradicted >= 10
        assert result.variable_beliefs[0].values.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    def test_dead_support_reports_the_lowest_dead_level(self, name):
        # the chain v0 - f2 - v1 - f4 - v2 - f0 - v3 with unary factors f3 on v1
        # and f1 on v3: f3 keeps v1 = 0 only, where f4 is zero, so support dies
        # mid-chain in f4's message to v2 (level 3). Later dead messages follow
        # from it, among them v2f (0, 0), first in g.wires order.
        g = build_graph(
            [2, 2, 2, 2],
            [((2, 3), [1.0, 2.0, 3.0, 4.0]), ((3,), [1.0, 1.0]), ((0, 1), [1.0, 2.0, 3.0, 4.0]), ((1,), [1.0, 0.0]), ((1, 2), [0.0, 0.0, 1.0, 1.0])],
            name,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = check_tree_against_reference(g, RunConfig(semiring=name))
        assert result.contradiction_wire == ("f2v", 4, 1)
        messages = unpack(g, result.state)
        levels = _wire_levels(g)
        dead = []  # (level, wire) in g.wires order, every v2f before every f2v
        for k, kind in enumerate(("v2f", "f2v")):
            for i, (fid, axis) in enumerate(g.wires):
                vid = g.factor(fid).neighbors[axis]
                msg = messages.var_to_factor[(vid, fid, axis)] if kind == "v2f" else messages.factor_to_var[(fid, axis)]
                if not msg.values.any():
                    dead.append((levels[k][i], (kind, fid, axis)))
        assert min(dead) == (3, ("f2v", 4, 1))
        assert dead[0] == (4, ("v2f", 0, 0))
        # the model admits no state, and no belief has support
        assert not any(b.values.any() for b in result.variable_beliefs.values())

    def test_dead_support_with_a_root(self):
        rng = np.random.default_rng(317)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                g = dead_tree(rng)
                last = len(g.variables) - 1
                check_tree_against_reference(relabel(g, {0: last, last: 0}), RunConfig())

    def test_not_a_tree(self):
        cycle = random_loopy(np.random.default_rng(318))
        repeated = build_graph([2, 2], [((0, 0, 1), [1.0] * 8)], PROB)
        for g in (cycle, repeated):
            with pytest.raises(NotATreeError):
                run_two_pass(g, RunConfig(schedule="tree"))
            with pytest.raises(NotATreeError):
                run_bp(g, RunConfig(schedule="tree"))
            with pytest.raises(NotATreeError):
                contraction_value(g)

    def test_tree_runs_make_no_per_wire_update(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-wire update called")

        monkeypatch.setattr(engine, "update_variable_message", forbidden)
        monkeypatch.setattr(engine, "update_factor_message", forbidden)
        g = random_tree(np.random.default_rng(319))
        run_bp(g, RunConfig(schedule="tree"))
        contraction_value(g)


class TestNodeTensorChain:
    """Rank-2 factors between nodes that carry tensors of their own, so
    messages through the node factors matter."""

    @pytest.mark.parametrize("normalize", [True, False])
    def test_tree_matches_per_wire_reference(self, normalize):
        rng = np.random.default_rng(320)
        for n in (2, 3, 4, 5):
            check_tree_against_reference(node_tensor_chain(rng, n), RunConfig(normalize=normalize))

    def test_contraction_matches_the_oracle(self):
        rng = np.random.default_rng(321)
        for n in (2, 3, 4, 5):
            g = node_tensor_chain(rng, n)
            z = contraction_value(g)
            assert np.isclose(z, exact_contraction(g, PROB), rtol=1e-12)

    def test_sync_reaches_the_tree_fixed_point(self):
        g = node_tensor_chain(np.random.default_rng(322), 4)
        tree = run_bp(g, RunConfig(schedule="tree"))
        sync = run_bp(g, RunConfig(schedule="sync", tol=1e-14))
        assert sync.converged
        for fid, belief in tree.factor_beliefs.items():
            assert np.allclose(belief.data, sync.factor_beliefs[fid].data, rtol=1e-9)


def merged_orientations(rng, name="prob", zeroed=None):
    """A tree whose oriented stacks take members from several tensor groups.

    A (2, 3) and a (3, 2) table both send into the dim-3 variable v1, as
    (2, 3) stacks, and out of it, as (3, 2) stacks; the rank-3 tensors of
    shapes (3, 2, 3) and (3, 3, 2) share their (3, 2, 3) and (3, 3, 2)
    orientations; a rank-0 factor sits apart. ``zeroed`` names a factor
    whose table is all zeros."""
    dims = [2, 3, 2, 2, 3, 3, 2]
    scopes = [(0, 1), (1, 2), (1, 3, 4), (4, 5, 6), (2,), (6,)]
    factors = [(scope, table_for(rng, name, math.prod(dims[v] for v in scope))) for scope in scopes]
    factors.append(((), table_for(rng, name, 1)))
    if zeroed is not None:
        scope, values = factors[zeroed]
        factors[zeroed] = (scope, [0.0] * len(values))
    return build_graph(dims, factors, get_semiring(name))


class TestMergedOrientations:
    """Stacks merged across tensor groups against the per-wire reference."""

    def test_stacks_merge_across_groups(self):
        plan = engine._Plan(merged_orientations(np.random.default_rng(330)))
        ops = [op for op in plan._sync_program[0] if op[2] is not None]
        assert sorted(op[2].shape for op in ops) == [(2,), (2, 3), (2, 3, 3), (3, 2), (3, 2, 3), (3, 3, 2)]
        assert sum(len(group.shape) for group in plan.factor_groups) == 11

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool", "dual"])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_both_schedules_every_semiring(self, name, normalize):
        rng = np.random.default_rng(331)
        for i in range(3):
            if name == "dual":
                g = dual_seed(merged_orientations(rng), 2, i)
            else:
                g = merged_orientations(rng, name)
            cfg = RunConfig(semiring=name, normalize=normalize)
            check_against_reference(g, cfg)
            check_tree_against_reference(g, cfg)

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    @pytest.mark.parametrize("zeroed", [0, 1, 2, 3])
    def test_zeroed_tables_halt_at_the_reference_wire(self, name, zeroed):
        # the tree run completes and reports the lowest-level dead wire, the
        # sync run ends on the per-wire sweep that finds its first dead wire
        g = merged_orientations(np.random.default_rng(332), name, zeroed)
        cfg = RunConfig(semiring=name, max_iters=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_tree_against_reference(g, cfg).contradiction
            want = TestContradictions().reference_wire(g, cfg)
            result = check_against_reference(g, cfg)
        assert want is not None
        assert result.contradiction and result.contradiction_wire == want


def ragged_degrees(rng, name="prob", loop=False):
    """Dims 2 and 3 in turn, each on one variable of every degree 0 to 6, in
    shuffled order: a chain through the variables of degree 1 to 6, the two
    of degree 1 at its ends, topped up to each degree with unary factors,
    every factor in shuffled order. With ``loop`` a pairwise factor between
    two variables of degree 3 or more, in place of a unary of each, closes a
    cycle."""
    dims = [2, 3] * 7
    degree = np.empty(14, dtype=int)
    degree[0::2], degree[1::2] = rng.permutation(7), rng.permutation(7)
    first, last = np.flatnonzero(degree == 1).tolist()
    chain = [first, *rng.permutation(np.flatnonzero(degree >= 2)).tolist(), last]
    scopes = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in zip(chain, chain[1:])]
    if loop:
        scopes.append(tuple(rng.choice(np.flatnonzero(degree >= 3), 2, replace=False).tolist()))
    on = np.bincount([v for scope in scopes for v in scope], minlength=14)
    scopes += [(v,) for v in range(14) for _ in range(degree[v] - on[v])]
    factors = [(scopes[i], table_for(rng, name, math.prod(dims[v] for v in scopes[i]))) for i in rng.permutation(len(scopes))]
    return build_graph(dims, factors, get_semiring(name))


class TestRaggedSpiders:
    """A dim's variables of every degree share one ragged spider op, and
    each belief and decoded state one ragged fold per dim."""

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool", "dual"])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_degrees_zero_to_six_in_one_op_per_dim(self, name, normalize):
        rng, semiring = np.random.default_rng(360), get_semiring(name)
        base = "prob" if name == "dual" else name
        for loop in (False, True) if name != "count" else (False,):  # count syncs on trees only
            g = ragged_degrees(rng, base, loop)
            if name == "dual":
                g = dual_seed(g, int(rng.integers(len(g.factors))), 0)
            degree = np.diff(_by_variable(g._wires, 14)[1])
            assert sorted(degree[0::2]) == sorted(degree[1::2]) == list(range(7))
            plan = engine._plan_of(g)
            assert [group.dim for group in plan.var_groups] == [2, 3]
            # one ragged spider op per dim, its variables on one wire included, and no unit op
            spiders = [(op[0], type(op[3]) is tuple, op[1]) for op in plan._sync_program[0] if op[2] is None]
            assert spiders == [(2, True, slice(0, plan.dims[2])), (3, True, slice(0, plan.dims[3]))]
            # unnormalized loopy messages grow every sweep: stop well before overflow
            cfg = RunConfig(semiring=name, normalize=normalize, max_iters=8 if loop and not normalize else 200)
            results = [check_against_reference(g, cfg)]
            if not loop:
                results.append(check_tree_against_reference(g, cfg))
            for result in results:
                state = unpack(g, result.state)
                got = beliefs(g, result.state, cfg)[0]
                for vid, values in reference_variable_beliefs(g, state, cfg).items():
                    assert same_bits(got[vid].values, values), ("belief", vid)
                if semiring.has_compare:
                    assert decode_map(g, result.state) == reference_map(g, state, semiring)

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool", "dual"])
    def test_each_column_folds_exactly_its_own_terms(self, name):
        """Term k, a flat (``ends[k]``, dim) block, multiplies into the first
        ``ends[k]`` columns, each column its own terms left to right, no
        other, and every column past ``ends[0]`` (all of them when ``ends``
        is empty) gets the unit. Under dual a -0.0 eps would turn +0.0 if a
        column with terms were padded with the unit."""
        semiring, rng = get_semiring(name), np.random.default_rng(361)
        for terms in ([4, 4, 3, 1, 1], [2, 2, 2], [1], [3, 1], []):  # per column, nonincreasing
            own = [[[semiring.random_scalar(rng) for _ in range(3)] for _ in range(t)] for t in terms]
            if name == "dual":
                own = [[[DualNumber(x.real, -0.0) for x in row] for row in col] for col in own]
            ends = tuple(sum(t > k for t in terms) for k in range(max(terms, default=0)))
            # term k of each column it reaches, an (ends[k], 3) block, the blocks flat one after another
            blocks = [np.array([own[j][k] for j in range(end)], dtype=semiring.dtype) for k, end in enumerate(ends)]
            msgs = np.concatenate([block.ravel() for block in blocks]) if blocks else np.empty(0, semiring.dtype)
            into = semiring.full((3, len(terms) + 2), semiring.zero)
            engine._fold_ragged(semiring, msgs, ends, into)
            for j, col in enumerate(own):
                assert same_bits(into[:, j], reduce(semiring.array_mul, np.array(col, dtype=semiring.dtype))), (terms, j)
            for j in (-2, -1):  # the columns with no term
                assert same_bits(into[:, j], semiring.ones((3,))), (terms, j)


def sync_program_graphs(rng):
    """Trees, forests (isolated variables, rank-0 factors), loopy graphs,
    mixed dims with a repeated wire, merged orientations, a graph of one
    rank-0 factor, a graph with no factor at all and one with no node."""
    yield from (random_tree(rng) for _ in range(3))
    yield from (random_forest(rng) for _ in range(3))
    yield from (random_loopy(rng) for _ in range(3))
    yield odd_shapes(rng)
    yield merged_orientations(rng)
    yield ragged_degrees(rng)
    yield ragged_degrees(rng, loop=True)
    yield build_graph([2, 3], [((), [2.0])], "prob")
    yield build_graph([2], [], "prob")
    yield build_graph([], [], "prob")


class TestSyncProgramWritesEveryRowOnce:
    """Each dim's array is laid out in the sync program's op order: every op
    of both schedules writes one slice, the sync ops' blocks tile the array,
    v2f columns first, and each two-pass op writes a slice of one block."""

    def test_blocks_tile_each_array_and_every_op_writes_a_slice(self):
        rng = np.random.default_rng(350)
        for g in sync_program_graphs(rng):
            plan = engine._Plan(g)
            ops, *more = plan._sync_program
            assert more == []
            tree = plan._tree_program
            assert (tree is None) == (not tree_info(g).is_tree)
            for d, out, _stack, _arg in ops + [op for level in tree or [] for op in level]:
                assert type(out) is slice and out.step is None and 0 <= out.start < out.stop <= 2 * plan.dims[d]
            degree = np.diff(_by_variable(g._wires, len(g.variables))[1])[g._wires.var]  # of each wire's variable
            for d, n in plan.dims.items():
                mine = sorted((op for op in ops if op[0] == d), key=lambda op: op[1].start)
                slices = [op[1] for op in mine]
                assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]
                assert slices[-1].stop == 2 * n
                # one spider op, a ragged one, writes the dim's v2f columns [0, wires)
                assert [(type(op[3]) is tuple, op[1]) for op in mine if op[2] is None] == [(True, slice(0, n))]
                for _d, out, stack, arg in mine:
                    # a variable op gathers f2v columns into v2f columns [0, wires), a
                    # factor op writes f2v columns [wires, 2 * wires), its whole stack
                    cols = plan.col_wire[d][out]
                    if stack is None:
                        gather, ends = arg
                        assert gather.shape == (d * sum(ends),) and (gather % (2 * n) >= n).all()
                        # ragged: the column of a degree-k variable's wire folds k - 1 terms, so
                        # every column of a variable on one wire, past ends[0], folds none
                        assert list(ends) == sorted(ends, reverse=True)
                        assert (np.array(ends, dtype=int)[:, None] > np.arange(n)).sum(0).tolist() == (degree[cols] - 1).tolist()
                    else:
                        assert out.start >= n and arg == slice(0, out.stop - out.start) and stack.tensors.shape[-1] == arg.stop
                # both wire -> column maps are permutations, and col_wire inverts them
                wires = np.flatnonzero(plan.wire_dim == d)
                assert sorted(plan.v2f_col[wires].tolist()) == list(range(n))
                assert sorted(plan.f2v_col[wires].tolist()) == list(range(n, 2 * n))
                assert plan.col_wire[d][plan.v2f_col[wires]].tolist() == wires.tolist()
                assert plan.col_wire[d][plan.f2v_col[wires]].tolist() == wires.tolist()
            if tree is None:
                continue
            levels = [np.array(x) for x in _wire_levels(g)]  # v2f, f2v

            def level_of(d, cols):
                wires = plan.col_wire[d][cols]
                return np.where(cols < plan.dims[d], levels[0][wires], levels[1][wires])

            # on a tree each block is in nondecreasing two-pass level order, a spider
            # block within each degree, the degrees descending
            for d, out, stack, _arg in ops:
                cols = np.arange(out.start, out.stop)
                steps = np.diff(degree[plan.col_wire[d][cols]]) if stack is None else np.zeros(len(cols) - 1)
                assert (steps <= 0).all() and (np.diff(level_of(d, cols))[steps == 0] >= 0).all()
            # each two-pass op writes the wires of its level in one sync op's block
            for level, level_ops in enumerate(tree):
                for d, out, stack, arg in level_ops:
                    ((_d, block, twin, whole),) = [op for op in ops if op[0] == d and op[1].start <= out.start < op[1].stop]
                    assert out.stop <= block.stop and twin is stack
                    assert (level_of(d, np.arange(out.start, out.stop)) == level).all()
                    part = slice(out.start - block.start, out.stop - block.start)
                    if stack is not None:
                        assert arg == part
                        continue
                    if type(arg) is tuple:  # variables on one wire: a ragged op with no term sends the unit
                        assert len(arg[0]) == 0 and arg[1] == () and (degree[plan.col_wire[d][out]] == 1).all()
                        continue
                    # a spider op folds the sync op's terms of its columns, all alike: (terms, dim, columns)
                    gather = arg
                    assert gather.shape[1:] == (d, out.stop - out.start) and len(gather)
                    assert (degree[plan.col_wire[d][out]] - 1 == len(gather)).all()
                    sync_gather, sync_ends = whole
                    assert len(gather) == sum(e > part.start for e in sync_ends) == sum(e >= part.stop for e in sync_ends)
                    offsets = d * np.cumsum((0,) + sync_ends)  # the sync op's term k is a flat (ends[k], dim) block
                    for k, term in enumerate(gather):
                        block = sync_gather[offsets[k] : offsets[k + 1]].reshape(sync_ends[k], d)
                        assert np.array_equal(term, block[part].T)

    def test_a_sweep_runs_one_op_per_dim_with_wires_and_one_per_stack(self):
        """Read off the graph: the dims its wires have, and its oriented
        shapes, each table's axes but one ascending, then the out axis."""
        rng = np.random.default_rng(353)
        for g in sync_program_graphs(rng):
            shapes = {f.tensor.shape for f in g.factors}
            oriented = {shape[:t] + shape[t + 1 :] + shape[t : t + 1] for shape in shapes for t in range(len(shape))}
            assert len(engine._Plan(g)._sync_program[0]) == len(set(g._wires.dim.tolist())) + len(oriented)

    def test_a_graph_without_wires_sweeps(self):
        for g in (build_graph([2, 3], [((), [2.0])], "prob"), build_graph([2], [], "prob")):
            plan = engine._Plan(g)
            assert (plan._sync_program, plan._tree_program, plan.col_wire) == ([[]], [], {})
            result = run_bp(g, RunConfig())
            assert result.converged and result.iterations == 0
            assert [b.values.tolist() for b in result.variable_beliefs.values()][0] == [0.5, 0.5]

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool", "dual"])
    def test_a_graph_without_nodes_is_a_tree_both_schedules_run(self, name):
        # tree_info calls it a tree, so the plan compiles its two-pass program
        g = build_graph([], [], name)
        assert tree_info(g).is_tree and engine._plan_of(g)._tree_program == []
        for schedule in ("sync", "tree"):
            result = run_bp(g, RunConfig(schedule=schedule))
            assert result.converged and not result.contradiction and result.variable_beliefs == {}
        semiring = get_semiring(name)
        z = contraction_value(g)
        assert type(z) is type(semiring.one) and z == semiring.one

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool", "dual"])
    def test_the_two_pass_writes_every_column_before_any_op_reads_it(self, name):
        """Run into a store of zeros and into one of ones, the two-pass
        program writes the same bits, those of ``run_two_pass``, which starts
        from an unfilled store: no column keeps or feeds its fill."""
        rng, semiring = np.random.default_rng(352), get_semiring(name)
        base = "prob" if name == "dual" else name
        graphs = [random_tree(rng, base) for _ in range(3)] + [random_forest(rng, base) for _ in range(3)]
        if name == "dual":
            graphs = [dual_seed(g, 0, 0) for g in graphs]
        for g in graphs + [build_graph([2, 3], [((), [semiring.one])], name), build_graph([], [], name)]:
            plan, cfg = engine._plan_of(g), RunConfig(schedule="tree", normalize=False)
            want = run_two_pass(g, cfg)._arrays
            for fill in (semiring.zero, semiring.one):
                arrays = {d: np.full_like(a, fill) for d, a in want.items()}
                plan._execute(plan._tree_program, arrays, arrays)
                assert all(same_bits(arrays[d], a) for d, a in want.items()), (name, fill)


def two_dims(rng):
    """A loopy graph over dims 3, 2 and 3, with a dim-2 wire first."""
    scopes = [(1, 0), (0, 2), (1, 2), (0, 1, 2), (1,)]
    dims = [3, 2, 3]
    factors = [(scope, rng.uniform(0.1, 2.0, math.prod(dims[v] for v in scope)).tolist()) for scope in scopes]
    return build_graph(dims, factors, PROB)


class TestOneArrayPerDim:
    """Every message of a state lives in one (dim, 2 * wires) array per dim,
    and a sweep rescales and measures its residual once per dim."""

    def test_the_store_is_one_array_per_dim_v2f_first(self):
        g = two_dims(np.random.default_rng(351))
        cfg = RunConfig()
        start = init_messages(g, cfg)
        state = sweep_synchronous(g, start, cfg)
        plan, want = state._plan, reference_sweep(g, unpack(g, start), cfg)
        assert list(plan.dims) == [2, 3]
        tree = random_tree(np.random.default_rng(352))
        for some in (start, state, run_bp(g, cfg).state, run_bp(tree, RunConfig(schedule="tree")).state):
            assert sorted(some._arrays) == sorted(some._plan.dims)
            for d, a in some._arrays.items():
                assert a.shape == (d, 2 * some._plan.dims[d]) and a.flags.c_contiguous
        for i, ((fid, axis), d) in enumerate(zip(g.wires, plan.wire_dim.tolist())):
            n, vid = plan.dims[d], g.factor(fid).neighbors[axis]
            v2f, f2v = plan.v2f_col[i], plan.f2v_col[i]
            assert v2f < n <= f2v < 2 * n
            assert same_bits(state._arrays[d][:, v2f], want.var_to_factor[(vid, fid, axis)].values)
            assert same_bits(state._arrays[d][:, f2v], want.factor_to_var[(fid, axis)].values)

    @pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(normalize=False), RunConfig(damping=0.3)])
    def test_one_rescale_and_one_residual_per_dim_per_sweep(self, monkeypatch, cfg):
        g = two_dims(np.random.default_rng(353))
        state = init_messages(g, cfg)
        semiring = type(get_semiring("prob"))
        calls = []
        normalize_columns, max_distance = semiring._normalize_columns, semiring.max_distance

        def counted_normalize(self, cols):
            calls.append(("normalize", cols.shape))
            return normalize_columns(self, cols)

        def counted_distance(self, a, b):
            calls.append(("distance", a.shape))
            return max_distance(self, a, b)

        monkeypatch.setattr(semiring, "_normalize_columns", counted_normalize)
        monkeypatch.setattr(semiring, "max_distance", counted_distance)
        for sweep in range(3):
            calls.clear()
            state = sweep_synchronous(g, state, cfg)
            wide = [(d, 2 * n) for d, n in state._plan.dims.items()]
            want = [("normalize", shape) for shape in wide] if cfg.normalize else []
            assert calls == want + [("distance", shape) for shape in wide], sweep


class TestOverflowIsNotConvergence:
    """Unnormalized sync messages on a loopy graph overflow to inf; inf - inf
    gaps are nan and must not read as a zero residual."""

    def graph(self):
        return random_loopy(np.random.default_rng(7))

    def test_run_reports_not_converged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_bp(self.graph(), RunConfig(normalize=False))
        assert not result.converged
        assert result.residual == math.inf
        assert result.iterations == 1000

    def test_a_nan_dual_part_is_a_nan_gap(self):
        dual = get_semiring("dual")
        for a in (DualNumber(1.0, math.nan), DualNumber(math.nan, 1.0)):
            assert math.isnan(dual.distance(a, DualNumber(0.0, 0.0)))
        assert dual.distance(DualNumber(1.0, 3.0), DualNumber(0.5, 1.0)) == 2.0

    def test_cli_exits_not_converged(self, tmp_path, capsys):
        path = tmp_path / "loopy.json"
        path.write_text(spiderbp.serialize_native(self.graph()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli_dispatch(["run", "--input", str(path), "--no-normalize"])
        capsys.readouterr()
        assert code == EXIT_NOT_CONVERGED


# -- one plan per graph ----------------------------------------------------------


def fresh(g):
    """``g`` as a new graph object: the same nodes, no plan kept yet."""
    return FactorGraph(g.variables, g.factors, semiring=g.semiring)


def bits(a):
    a = np.asarray(a)
    if a.dtype == object:
        return a.shape, [(type(x), repr(x)) for x in a.ravel().tolist()]
    return a.dtype, a.shape, a.tobytes()


def result_bits(result):
    """Every field, message and belief of a ``BPResult``, as comparable bits."""
    state = result.state
    return (
        result.converged,
        result.iterations,
        repr(result.residual),
        result.contradiction,
        result.contradiction_wire,
        state.iteration,
        repr(state.residual),
        [(vid, bits(b.values)) for vid, b in result.variable_beliefs.items()],
        [(fid, b.shape, bits(b.data)) for fid, b in result.factor_beliefs.items()],
        [(d, bits(a)) for arrays in wire_messages(state) for d, a in arrays.items()],
    )


def kept_arrays(obj):
    """Every ndarray a plan keeps, through its containers, stacks and programs."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from kept_arrays(x)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from kept_arrays(x)
    elif isinstance(obj, (engine._Plan, engine._Stack)):  # a _TensorGroup is a tuple
        yield from kept_arrays(vars(obj))


class TestOnePlanPerGraph:
    """A graph compiles its plan on its first run and every later run,
    under any config, reuses it; the plan holds no reference back."""

    def test_every_entry_point_reuses_one_plan(self, monkeypatch):
        built = []
        init = engine._Plan.__init__

        def counted(plan, g):
            built.append(id(g))
            init(plan, g)

        monkeypatch.setattr(engine._Plan, "__init__", counted)
        g = merged_orientations(np.random.default_rng(340))
        run_bp(g, RunConfig())
        run_bp(g, RunConfig(schedule="tree", normalize=False))
        contraction_value(g)
        engine.contraction_derivative(g, 2, 1)
        init_messages(g, RunConfig(normalize=False))
        assert built == [id(g)]
        lifted, moved = dual_seed(g, 2, 1), relabel(g, {0: 1, 1: 0})
        for other in (lifted, moved):
            state = run_bp(other, RunConfig(schedule="tree")).state
            assert state._plan is not g.__dict__["_plan"]
            with pytest.raises(ValidationError):
                beliefs(g, state, RunConfig())
        assert built == [id(g), id(lifted), id(moved)]

    def test_two_plans_compiled_at_once_leave_one_kept(self, monkeypatch):
        g = merged_orientations(np.random.default_rng(345))
        init, first = engine._Plan.__init__, []

        def racing(plan, graph):
            if not first:  # another thread compiles and keeps its plan meanwhile
                first.append(object.__new__(engine._Plan))
                init(first[0], graph)
                graph.__dict__["_plan"] = first[0]
            init(plan, graph)

        monkeypatch.setattr(engine._Plan, "__init__", racing)
        result = run_bp(g, RunConfig())
        assert result.state._plan is first[0] is g.__dict__["_plan"]
        assert list(beliefs(g, result.state, RunConfig())[1]) == list(result.factor_beliefs)

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool", "dual"])
    def test_a_kept_plan_runs_as_a_fresh_one(self, name):
        rng = np.random.default_rng(341)
        graphs = [dual_seed(merged_orientations(rng), 2, 1) if name == "dual" else merged_orientations(rng, name)]
        if name in ("prob", "maxtimes", "bool"):
            graphs.append(random_loopy(rng, name))  # sync only
        for g in graphs:
            schedules = ("sync",) if len(graphs) == 2 and g is graphs[1] else ("sync", "tree")
            # few enough sweeps that unnormalized loopy messages stay finite
            configs = [RunConfig(schedule=s, normalize=n, max_iters=25) for s in schedules for n in (True, False)]
            if name == "prob":
                configs.append(RunConfig(damping=0.3))
            for cfg in configs * 2:  # every config twice, each on the kept plan
                assert result_bits(run_bp(g, cfg)) == result_bits(run_bp(fresh(g), cfg)), cfg
        g = graphs[0]
        assert repr(contraction_value(g)) == repr(contraction_value(fresh(g)))

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    def test_a_contradiction_leaves_the_kept_plan_clean(self, name):
        g = merged_orientations(np.random.default_rng(332), name, 1)
        normalized = [RunConfig(max_iters=20), RunConfig(schedule="tree")]
        clean = [RunConfig(normalize=False, max_iters=20), RunConfig(schedule="tree", normalize=False)]
        for cfg in normalized + clean + normalized:
            got = run_bp(g, cfg)
            assert got.contradiction == (cfg in normalized)
            assert result_bits(got) == result_bits(run_bp(fresh(g), cfg)), cfg

    def test_every_kept_array_is_read_only(self):
        rng = np.random.default_rng(342)
        for g, schedule in ((odd_shapes(rng), "sync"), (merged_orientations(rng), "tree")):
            result = run_bp(g, RunConfig(schedule=schedule))
            run_bp(g, RunConfig())  # a sync run of a tree too
            plan = g.__dict__["_plan"]
            assert plan._sync_program[0] and (plan._tree_program is None) == (schedule == "sync")
            arrays = list(kept_arrays(plan))
            assert len(arrays) > 10
            assert not any(a.flags.writeable for a in arrays)
            with pytest.raises(ValueError):
                plan.factor_groups[0].tensors[...] = 0.0
            # a run's own arrays stay writable for the next sweep
            assert all(a.flags.writeable for a in result.state._arrays.values())

    def test_a_dropped_graph_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            g = merged_orientations(np.random.default_rng(343))
            results = [run_bp(g, RunConfig()), run_bp(g, RunConfig(schedule="tree"))]
            results[0].factor_beliefs
            contraction_value(g)
            graph_ref, plan_ref = weakref.ref(g), weakref.ref(g.__dict__["_plan"])
            del g
            alive = graph_ref() is not None  # the results hold their graph
            del results
            dead = graph_ref() is None and plan_ref() is None
        finally:
            gc.enable()
        assert alive and dead

    @pytest.mark.parametrize("schedule", ["sync", "tree"])
    def test_factor_beliefs_are_built_on_first_read(self, monkeypatch, schedule):
        rng = np.random.default_rng(344)
        built = []
        factor_beliefs = engine._Plan.factor_beliefs

        def counted(plan, g, v2f):
            built.append(id(g))
            return factor_beliefs(plan, g, v2f)

        monkeypatch.setattr(engine._Plan, "factor_beliefs", counted)
        graphs = [merged_orientations(rng), merged_orientations(rng, "prob", 1)]
        if schedule == "sync":
            graphs.append(odd_shapes(rng))
        for g in graphs:
            cfg = RunConfig(schedule=schedule, max_iters=20)
            result = run_bp(g, cfg)
            assert built == []
            first = result.factor_beliefs
            assert built == [id(g)]
            want = beliefs(g, result.state, cfg)[1]
            assert list(first) == list(want) == [f.id for f in g.factors]
            for fid, belief in want.items():
                assert first[fid].shape == belief.shape and same_bits(first[fid].data, belief.data), fid
            assert result.factor_beliefs is first
            assert built == [id(g)] * 2  # the second is the public beliefs call
            built.clear()
