"""Both schedules on the compiled plan against the per-wire update rules.

The references below compose one Jacobi sweep, and one two-pass run, from
the public per-wire updates (``update_variable_message`` /
``update_factor_message``), the damping formula and the scalar
``distance``. The plan must reproduce them bit for bit: every message, the
residual and the iteration counter, and for the two-pass run the beliefs,
the closed value, the decoded states and the halting wire too.
"""

import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import spiderbp
from spiderbp import (
    PROB,
    ContradictionError,
    DualNumber,
    GraphMode,
    NotATreeError,
    RunConfig,
    ZeroMessageError,
    beliefs,
    build_graph,
    components,
    contraction_value,
    decode_map,
    dual_seed,
    exact_contraction,
    full_contraction,
    get_semiring,
    hadamard,
    init_messages,
    run_bp,
    run_two_pass,
    sweep_synchronous,
    two_pass_schedule,
)
from spiderbp import engine
from spiderbp.cli import EXIT_NOT_CONVERGED, cli_dispatch
from spiderbp.engine import contraction_from_state, update_factor_message, update_variable_message
from spiderbp.tensor import Message

from fixtures import random_loopy, random_tree, random_tree_structure, table_for

BENCH = Path(__file__).resolve().parent.parent / "bench"


# -- the per-wire reference ------------------------------------------------------


@dataclass
class DictState:
    """The messages of a reference run, one dict per direction, read like a
    ``MessageState``."""

    var_to_factor: dict
    factor_to_var: dict
    iteration: int = 0
    residual: float = math.inf


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
    return DictState(new_v2f, new_f2v, state.iteration + 1, residual)


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


# -- the two-pass schedule on the plan -------------------------------------------


def reference_two_pass(g, cfg, root=None):
    """The per-wire two-pass run: ``two_pass_schedule`` order, one update at a
    time, stopping at the first dead wire."""
    start = init_messages(g, cfg)
    v2f, f2v = dict(start.var_to_factor), dict(start.factor_to_var)
    working = DictState(v2f, f2v)
    for kind, fid, axis in two_pass_schedule(g, root):
        try:
            if kind == "v2f":
                vid = g.factor(fid).neighbors[axis]
                v2f[(vid, fid, axis)] = update_variable_message(g, working, cfg, vid, (fid, axis))
            else:
                f2v[(fid, axis)] = update_factor_message(g, working, cfg, fid, axis)
        except ContradictionError as err:
            return DictState(v2f, f2v, 1, math.inf), err.wire
    return DictState(v2f, f2v, 1, 0.0), None


def reference_tensor_belief(semiring, tensor, msgs):
    """A tensor times one message per axis, axes ascending."""
    arr = tensor.as_array()
    for axis, values in enumerate(msgs):
        shape = [1] * arr.ndim
        shape[axis] = len(values)
        arr = semiring.array_mul(arr, np.asarray(values).reshape(shape))
    return np.asarray(arr).reshape(-1)


def reference_beliefs(g, state, cfg):
    """Variable beliefs (node tensors in bipartite mode) and factor beliefs."""
    semiring = get_semiring(cfg.semiring)
    if g.mode is GraphMode.SPIDER:
        var_b = {}
        for v in g.variables:
            incoming = [state.factor_to_var[w] for w in g.incident[v.id]]
            values = hadamard(semiring, incoming).values if incoming else semiring.ones((v.dim,))
            if cfg.normalize and semiring.has_normalize:
                try:
                    values = semiring.normalize(values)
                except ZeroMessageError:
                    pass  # a dead belief is reported as it is
            var_b[v.id] = values
    else:
        var_b = {
            v.id: reference_tensor_belief(
                semiring, v.tensor, [state.factor_to_var[w].values for w in g.incident[v.id]]
            )
            for v in g.variables
        }
    fac_b = {
        f.id: reference_tensor_belief(
            semiring,
            f.tensor,
            [state.var_to_factor[(vid, f.id, axis)].values for axis, vid in enumerate(f.neighbors)],
        )
        for f in g.factors
    }
    return var_b, fac_b


def reference_z(g, semiring, state, root=None):
    """Each component closed at its root by a per-wire product and fold."""
    total = semiring.one
    for var_ids, fac_ids in components(g):
        if not var_ids:
            total = semiring.mul(total, g.factor(fac_ids[0]).tensor.data[0])
            continue
        v = g.variable(root if root in var_ids else var_ids[0])
        incoming = [state.factor_to_var[w] for w in g.incident[v.id]]
        if g.mode is GraphMode.BIPARTITE:
            z = full_contraction(semiring, v.tensor, incoming)
        elif incoming:
            z = semiring.fold(hadamard(semiring, incoming).values, 0).item()
        else:
            z = semiring.fold(semiring.ones((v.dim,)), 0).item()
        total = semiring.mul(total, z)
    return total


def reference_map(g, state, semiring):
    """The scalar argmax scan: strictly greater wins, ties to the lowest index."""
    out = {}
    for v in g.variables:
        incoming = [state.factor_to_var[w] for w in g.incident[v.id]]
        values = hadamard(semiring, incoming).values if incoming else semiring.ones((v.dim,))
        best, best_val = 0, values[0]
        for j in range(1, len(values)):
            if semiring.compare(values[j], best_val) > 0:
                best, best_val = j, values[j]
        out[v.id] = best
    return out


def check_tree_against_reference(g, cfg, root=None):
    """A tree run on the plan against the per-wire two-pass, bit for bit."""
    semiring = get_semiring(cfg.semiring)
    want, want_wire = reference_two_pass(g, cfg, root)
    result = run_bp(g, replace(cfg, schedule="tree"), root=root)
    if want_wire is None:
        assert result.converged and result.residual == 0.0
    else:
        assert result.contradiction and result.contradiction_wire == want_wire
        assert result.residual == math.inf and not result.converged
    assert_same_state(result.state, want)
    var_b, fac_b = reference_beliefs(g, want, cfg)
    for vid, values in var_b.items():
        got = result.variable_beliefs[vid]
        assert same_bits(got.values if g.mode is GraphMode.SPIDER else got.data, values), ("belief", vid)
    for fid, values in fac_b.items():
        assert same_bits(result.factor_beliefs[fid].data, values), ("factor belief", fid)
    if not cfg.normalize:
        z = contraction_from_state(g, semiring, result.state, root)
        assert same_bits(np.array([z], dtype=object), np.array([reference_z(g, semiring, want, root)], dtype=object))
    if semiring.has_compare and g.mode is GraphMode.SPIDER:
        assert decode_map(g, result.state, semiring) == reference_map(g, want, semiring)
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


def bipartite_chain(rng, n=4):
    """Nodes v0 - v1 - ... joined by rank-2 factors, with a unary factor on
    the first and last node; every node carries its own tensor."""
    dims = [int(d) for d in rng.integers(2, 4, n)]
    factors = [((i, i + 1), rng.uniform(0.1, 2.0, dims[i] * dims[i + 1]).tolist()) for i in range(n - 1)]
    factors += [((0,), rng.uniform(0.1, 2.0, dims[0]).tolist()), ((n - 1,), rng.uniform(0.1, 2.0, dims[-1]).tolist())]
    degree = {v: sum(v in nb for nb, _ in factors) for v in range(n)}
    tensors = {v: rng.uniform(0.1, 2.0, dims[v] ** degree[v]).tolist() for v in range(n)}
    return build_graph(dims, factors, PROB, mode=GraphMode.BIPARTITE, var_tensors=tensors)


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
        rng = np.random.default_rng(314)
        for _ in range(5):
            g = random_forest(rng)
            for root in (len(g.variables) - 1, int(rng.integers(len(g.variables)))):
                check_tree_against_reference(g, RunConfig(normalize=normalize), root=root)

    def test_long_chain_is_exact(self):
        # a 300-variable chain: about 600 levels, one or two messages each
        rng = np.random.default_rng(315)
        factors = [((i, i + 1), rng.uniform(0.5, 1.5, 9).tolist()) for i in range(299)]
        factors += [((i,), rng.uniform(0.5, 1.5, 3).tolist()) for i in range(300)]
        g = build_graph([3] * 300, factors, PROB)
        for normalize in (True, False):
            check_tree_against_reference(g, RunConfig(normalize=normalize), root=150)

    @pytest.mark.parametrize("name", ["prob", "maxtimes"])
    def test_dead_support_same_wire_and_partial_beliefs(self, name):
        rng = np.random.default_rng(316)
        halted = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(40):
                g = dead_tree(rng, name)
                result = check_tree_against_reference(g, RunConfig(semiring=name))
                halted += result.contradiction
            check_tree_against_reference(dead_graph(), RunConfig(semiring=name))
        assert halted >= 10

    def test_dead_support_with_a_root(self):
        rng = np.random.default_rng(317)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                g = dead_tree(rng)
                check_tree_against_reference(g, RunConfig(), root=len(g.variables) - 1)

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


class TestBipartiteChain:
    """Rank-2 factors between nodes, so variable-to-factor messages matter."""

    @pytest.mark.parametrize("normalize", [True, False])
    def test_tree_matches_per_wire_reference(self, normalize):
        rng = np.random.default_rng(320)
        for n in (2, 3, 4, 5):
            check_tree_against_reference(bipartite_chain(rng, n), RunConfig(normalize=normalize))

    def test_contraction_matches_the_oracle(self):
        rng = np.random.default_rng(321)
        for n in (2, 3, 4, 5):
            g = bipartite_chain(rng, n)
            z = contraction_value(g, RunConfig(schedule="tree", normalize=False))
            assert np.isclose(z, exact_contraction(g, PROB), rtol=1e-12)

    def test_sync_reaches_the_tree_fixed_point(self):
        g = bipartite_chain(np.random.default_rng(322), 4)
        tree = run_bp(g, RunConfig(schedule="tree"))
        sync = run_bp(g, RunConfig(schedule="sync", tol=1e-14))
        assert sync.converged
        for vid, belief in tree.variable_beliefs.items():
            assert np.allclose(belief.data, sync.variable_beliefs[vid].data, rtol=1e-9)


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
        path.write_text(spiderbp.serialize_native(self.graph(), PROB))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli_dispatch(["run", "--input", str(path), "--no-normalize"])
        capsys.readouterr()
        assert code == EXIT_NOT_CONVERGED
