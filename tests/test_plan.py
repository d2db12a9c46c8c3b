"""Sync sweeps on the compiled plan against the per-wire update rules.

The reference below composes one Jacobi sweep from the public per-wire
updates (``update_variable_message`` / ``update_factor_message``), the
damping formula and the scalar ``distance``. The plan must reproduce it
bit for bit: every message, the residual and the iteration counter.
"""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spiderbp
from spiderbp import (
    PROB,
    ContradictionError,
    GraphMode,
    MessageState,
    RunConfig,
    beliefs,
    build_graph,
    contraction_value,
    dual_seed,
    get_semiring,
    hadamard,
    init_messages,
    run_bp,
    sweep_synchronous,
)
from spiderbp import engine
from spiderbp.cli import cli_dispatch
from spiderbp.engine import update_factor_message, update_variable_message
from spiderbp.tensor import Message

from fixtures import random_loopy, random_tree

BENCH = Path(__file__).resolve().parent.parent / "bench"


# -- the per-wire reference ------------------------------------------------------


def reference_sweep(g, state, cfg):
    """One sync sweep, one wire at a time, every v2f before every f2v."""
    semiring = get_semiring(cfg.semiring)
    new_v2f, new_f2v = {}, {}
    residual = 0.0

    def damped(msg, old):
        if cfg.damping == 0.0:
            return msg
        lam = cfg.damping
        return Message(msg.obj, (1.0 - lam) * msg.values + lam * old.values)

    def gap(msg, old):
        pairs = zip(msg.values.tolist(), old.values.tolist())
        return max((semiring.distance(x, y) for x, y in pairs), default=0.0)

    for fid, axis in g.wires:
        vid = g.factor(fid).neighbors[axis]
        old = state.var_to_factor[(vid, fid, axis)]
        msg = damped(update_variable_message(g, state, cfg, vid, (fid, axis)), old)
        new_v2f[(vid, fid, axis)] = msg
        residual = max(residual, gap(msg, old))
    for fid, axis in g.wires:
        old = state.factor_to_var[(fid, axis)]
        msg = damped(update_factor_message(g, state, cfg, fid, axis), old)
        new_f2v[(fid, axis)] = msg
        residual = max(residual, gap(msg, old))
    return MessageState(new_v2f, new_f2v, state.iteration + 1, residual)


def reference_variable_beliefs(g, state, cfg):
    semiring = get_semiring(cfg.semiring)
    out = {}
    for v in g.variables:
        incoming = [state.factor_to_var[w] for w in g.incident[v.id]]
        values = hadamard(semiring, incoming).values if incoming else semiring.ones((v.dim,))
        if cfg.normalize and semiring.has_normalize:
            values = semiring.normalize(values)
        out[v.id] = values
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == object:
        return a.shape == b.shape and all(
            repr(x) == repr(y) and type(x) is type(y) for x, y in zip(a.ravel(), b.ravel())
        )
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_state(got, want):
    assert got.iteration == want.iteration
    assert repr(got.residual) == repr(want.residual)
    assert list(got.var_to_factor) == list(want.var_to_factor)
    assert list(got.factor_to_var) == list(want.factor_to_var)
    for key, msg in want.var_to_factor.items():
        assert same_bits(got.var_to_factor[key].values, msg.values), ("v2f", key)
    for key, msg in want.factor_to_var.items():
        assert same_bits(got.factor_to_var[key].values, msg.values), ("f2v", key)


def check_against_reference(g, cfg):
    """One sweep, then a full run, each against the per-wire reference."""
    start = init_messages(g, cfg)
    assert_same_state(sweep_synchronous(g, start, cfg), reference_sweep(g, start, cfg))
    result = run_bp(g, cfg)
    want = start
    for _ in range(result.state.iteration):
        want = reference_sweep(g, want, cfg)
    assert_same_state(result.state, want)
    assert result.iterations in (want.iteration - 1, want.iteration)
    assert repr(result.residual) == repr(want.residual)
    if g.mode is GraphMode.SPIDER:
        expected = reference_variable_beliefs(g, want, cfg)
        for vid, values in expected.items():
            assert same_bits(result.variable_beliefs[vid].values, values), ("belief", vid)
    return result


# -- models ---------------------------------------------------------------------


def bipartite_pair():
    return build_graph(
        [2],
        [((0,), [1.0, 2.0]), ((0,), [3.0, 4.0])],
        PROB,
        mode=GraphMode.BIPARTITE,
        var_tensors={0: [1.0, 0.0, 0.0, 1.0]},
    )


def bipartite_loopy(rng):
    dims = [2, 3, 2, 2]
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    factors = [((a, b), rng.uniform(0.1, 2.0, dims[a] * dims[b]).tolist()) for a, b in edges]
    factors.append(((2,), rng.uniform(0.1, 2.0, 2).tolist()))
    degree = {v: sum(v in nb for nb, _ in factors) for v in range(len(dims))}
    tensors = {v: rng.uniform(0.1, 2.0, dims[v] ** degree[v]).tolist() for v in degree}
    return build_graph(dims, factors, PROB, mode=GraphMode.BIPARTITE, var_tensors=tensors)


def odd_shapes(rng):
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
    return build_graph(dims, factors, PROB)


def dead_graph():
    return build_graph([2, 2], [((0,), [0.0, 0.0]), ((0, 1), [1.0, 2.0, 3.0, 4.0])], PROB)


def late_dead_graph():
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
        PROB,
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
    def test_bipartite_pair(self, normalize):
        check_against_reference(bipartite_pair(), RunConfig(normalize=normalize))

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    def test_bipartite_loopy(self, name):
        rng = np.random.default_rng(305)
        for _ in range(3):
            result = check_against_reference(bipartite_loopy(rng), RunConfig(semiring=name, max_iters=200))
            assert result.converged

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    def test_repeated_axis_mixed_dims_isolated_and_rank0(self, name):
        result = check_against_reference(odd_shapes(np.random.default_rng(306)), RunConfig(semiring=name))
        unit = {"prob": [0.5, 0.5], "maxtimes": [1.0, 1.0]}[name]
        assert result.variable_beliefs[4].values.tolist() == unit
        assert result.factor_beliefs[4].data.tolist() == [1.5]

    def test_packed_and_dict_states_give_the_same_beliefs(self):
        g = random_loopy(np.random.default_rng(307))
        cfg = RunConfig()
        packed = run_bp(g, cfg).state
        unpacked = MessageState(dict(packed.var_to_factor), dict(packed.factor_to_var))
        (va, fa, za), (vb, fb, zb) = beliefs(g, packed, cfg), beliefs(g, unpacked, cfg)
        assert za == zb
        assert all(same_bits(va[k].values, vb[k].values) for k in va)
        assert all(same_bits(fa[k].data, fb[k].data) for k in fa)


class TestContradictions:
    def reference_wire(self, g, cfg):
        state = init_messages(g, cfg)
        try:
            for _ in range(cfg.max_iters):
                state = reference_sweep(g, state, cfg)
        except ContradictionError as err:
            return err.wire
        return None

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    @pytest.mark.parametrize("build", [dead_graph, late_dead_graph])
    def test_same_wire_and_no_warning(self, name, build):
        g = build()
        cfg = RunConfig(semiring=name, max_iters=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = self.reference_wire(g, cfg)
            result = run_bp(g, cfg)
        assert want is not None
        assert result.contradiction
        assert result.contradiction_wire == want

    def test_first_dead_wire_in_wire_order(self):
        result = run_bp(late_dead_graph(), RunConfig())
        assert result.contradiction_wire == ("v2f", 2, 0)
        assert result.iterations == 1


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
        want_z = contraction_value(g, cfg)
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
