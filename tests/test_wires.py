"""The wire table: a parsed graph's nodes wait for a first read.

A parser fills the graph's wire table (``graph._Wires``) and builds no
``FactorNode`` or tensor per factor; ``g.factors`` builds them on first
read. The CLI's tree path never reads them, and what a read builds equals
the nodes built eagerly from the same tables. ``validate_graph`` tests the
table with array operations and looks at a node only to word a violation,
so a table-first graph and its hand-built twin get the same report.
"""

import json

import numpy as np
import pytest

from spiderbp import FactorGraph, RunConfig, evaluate_assignment, parse_native, parse_uai, run_bp
from spiderbp.algebra import BOOL, PROB, get_semiring
from spiderbp.cli import cli_dispatch
from spiderbp.graph import FactorNode, ObjectType, VariableNode, _wire_table, validate_graph
from spiderbp.tensor import DenseTensor

from fixtures import random_dims

SEMIRINGS = ("prob", "maxtimes", "bool", "count", "dual")


def random_model(rng, name):
    """(dims, factors) of a random forest with isolated variables and
    rank-0 factors: factors as (id, neighbor ids, flat values), in id
    order."""
    dims = random_dims(rng, int(rng.integers(1, 7)))
    scopes = [(int(rng.integers(0, v)), v) for v in range(1, len(dims)) if rng.random() < 0.7]
    scopes += [(v,) for v in range(len(dims)) if rng.random() < 0.5]
    scopes += [()] * int(rng.integers(0 if scopes else 1, 3))
    factors = []
    for fid, scope in enumerate(scopes):
        size = int(np.prod([dims[v] for v in scope]))
        if name in ("prob", "maxtimes"):
            values = rng.uniform(0.1, 2.0, size).tolist()
        elif name == "dual":
            values = [[float(x), float(y)] for x, y in rng.uniform(0.1, 2.0, (size, 2))]
        else:
            values = [int(x) for x in rng.integers(0, 2 if name == "bool" else 4, size)]
        factors.append((fid, scope, values))
    return dims, factors


def native_text(name, dims, factors, rng):
    """The native document, its factors listed in a shuffled order, and that order."""
    listed = [factors[k] for k in rng.permutation(len(factors))]
    return json.dumps({
        "semiring_hint": name,
        "variables": [{"id": v, "dim": d} for v, d in enumerate(dims)],
        "factors": [{"id": fid, "neighbors": list(nb), "values": values} for fid, nb, values in listed],
    }), listed


def uai_text(dims, factors):
    lines = ["MARKOV", str(len(dims)), " ".join(map(str, dims)), str(len(factors))]
    lines += [" ".join(map(str, (len(nb), *nb))) for _fid, nb, _values in factors]
    for _fid, _nb, values in factors:
        lines += [str(len(values)), " ".join(map(repr, values))]
    return "\n".join(lines) + "\n"


def eager_nodes(name, dims, listed):
    """The nodes of ``listed`` (id, neighbors, values) factors, built one by one."""
    sr = get_semiring(name)
    return [
        FactorNode(fid, DenseTensor.from_values([dims[v] for v in nb], values, sr), nb) for fid, nb, values in listed
    ]


def same_nodes(got, want):
    assert [f.id for f in got] == [f.id for f in want]
    for f, e in zip(got, want):
        assert f.neighbors == e.neighbors and all(type(v) is int for v in f.neighbors)
        assert f.tensor.shape == e.tensor.shape and all(type(d) is int for d in f.tensor.shape)
        assert f.tensor.data.dtype == e.tensor.data.dtype and f.tensor.data.shape == e.tensor.data.shape
        if f.tensor.data.dtype == object:
            assert f.tensor.data.tolist() == e.tensor.data.tolist()
            assert [type(x) for x in f.tensor.data.tolist()] == [type(x) for x in e.tensor.data.tolist()]
        else:
            assert f.tensor.data.tobytes() == e.tensor.data.tobytes()
        assert not f.tensor.data.flags.writeable


@pytest.mark.parametrize("name", SEMIRINGS)
def test_nodes_read_after_a_run_equal_the_eager_build(name):
    rng = np.random.default_rng(2300 + SEMIRINGS.index(name))
    for _ in range(60):  # 300 models, 540 graphs
        dims, factors = random_model(rng, name)
        text, listed = native_text(name, dims, factors, rng)
        parsed = [(parse_native(text)[0], listed)]
        if name != "dual":  # dual tables have no UAI form
            parsed.append((parse_uai(uai_text(dims, factors), name)[0], factors))
        for g, order in parsed:
            run_bp(g, RunConfig(schedule="tree", normalize=name != "count"))
            assert "factors" not in g.__dict__  # a run reads the table, not the nodes
            same_nodes(g.factors, eager_nodes(name, dims, order))
            assert g.factors is g.factors and g.factor(order[0][0]) is g.factors[0]


@pytest.mark.parametrize("name", ["prob", "dual"])
def test_an_assignment_multiplies_its_entries_in_factor_id_order(name):
    rng = np.random.default_rng(2305 + SEMIRINGS.index(name))
    sr = get_semiring(name)
    for _ in range(30):
        dims, factors = random_model(rng, name)
        text, listed = native_text(name, dims, factors, rng)
        assignment = {v: int(rng.integers(d)) for v, d in enumerate(dims)}
        want = sr.one
        for f in sorted(eager_nodes(name, dims, listed), key=lambda f: f.id):
            want = sr.mul(want, f.tensor.entry([assignment[v] for v in f.neighbors]))
        assert repr(evaluate_assignment(parse_native(text)[0], assignment)) == repr(want)


@pytest.mark.parametrize("name", ["prob", "bool"])
def test_the_zero_wire_is_the_first_dead_belief_in_variable_order(name):
    # variables 2 and 0 each read [1, 0] and [0, 1]: every message lives, and
    # their beliefs die; the document lists variable 2 first
    tables = [(0, [1, 0]), (0, [0, 1]), (1, [1, 1]), (2, [1, 0]), (2, [0, 1])]
    cast = bool if name == "bool" else float
    g = parse_native(json.dumps({
        "variables": [{"id": v, "dim": 2} for v in (2, 1, 0)],
        "factors": [{"id": k, "neighbors": [v], "values": list(map(cast, t))} for k, (v, t) in enumerate(tables)],
    }), name)[0]
    for schedule in ("sync", "tree"):
        result = run_bp(g, RunConfig(schedule=schedule))
        assert result.contradiction and result.contradiction_wire == ("belief", 2), schedule


TREE = {"dims": [2, 3, 2, 2], "scopes": [(0, 1), (2,), (1, 2), (), (0,)]}


def tree_files(tmp_path, name):
    """A tree with an isolated variable and a rank-0 factor, as native and UAI files."""
    rng = np.random.default_rng(2310)
    factors = []
    for fid, scope in enumerate(TREE["scopes"]):
        size = int(np.prod([TREE["dims"][v] for v in scope]))
        values = rng.integers(1, 4, size).tolist() if name == "count" else rng.uniform(0.5, 1.5, size).tolist()
        factors.append((fid, scope, values))
    native = tmp_path / f"{name}.json"
    native.write_text(native_text(name, TREE["dims"], factors, rng)[0])
    uai = tmp_path / f"{name}.uai"
    uai.write_text(uai_text(TREE["dims"], factors))
    return [(str(native), "native"), (str(uai), "uai")]


def test_the_cli_tree_path_builds_no_factor_node(tmp_path, monkeypatch, capsys):
    commands = [
        ("prob", ["run", "--schedule", "tree"]),
        ("prob", ["run", "--schedule", "tree", "--no-normalize"]),
        ("prob", ["map", "--schedule", "tree"]),
        ("prob", ["grad", "--factor", "2", "--entry", "4"]),
        ("prob", ["grad", "--factor", "3", "--entry", "0"]),
        ("count", ["run", "--semiring", "count", "--schedule", "tree", "--no-normalize"]),
    ]
    files = {name: tree_files(tmp_path, name) for name in ("prob", "count")}
    built = []
    init, wrap = FactorNode.__post_init__, DenseTensor._wrap.__func__
    monkeypatch.setattr(FactorNode, "__post_init__", lambda node: built.append(node.id) or init(node))
    monkeypatch.setattr(DenseTensor, "_wrap", classmethod(lambda cls, *a: built.append(a[0]) or wrap(cls, *a)))
    for name, argv in commands:
        for path, fmt in files[name]:
            assert cli_dispatch(argv + ["--input", path, "--format", fmt]) == 0, (argv, fmt)
            assert json.loads(capsys.readouterr().out)
            assert built == [], (argv, fmt)
    # the spies do see a build
    parse_native((tmp_path / "prob.json").read_text())[0].factors
    assert len(built) == 2 * len(TREE["scopes"])


def pair(values, dtype=None):
    return DenseTensor((len(values),), np.array(values, dtype=dtype))


def invalid_graphs():
    """Hand-built graphs that validate_graph rejects for their wiring or dtypes."""
    a, b = VariableNode(0, ObjectType("a", 2)), VariableNode(1, ObjectType("b", 3))
    ones = pair([1.0, 1.0])
    yield (a,), (FactorNode(0, ones, (5,)),), "prob"  # an unknown variable
    yield (a,), (FactorNode(0, pair([1.0] * 3), (0,)),), "prob"  # an axis dim
    yield (a,), (FactorNode(0, pair([True, False], bool), (0,)),), "prob"  # a dtype
    yield (a, b), (FactorNode(1, ones, (1,)), FactorNode(0, ones, (0,)), FactorNode(2, ones, (-1,))), "prob"
    yield (a, b), (FactorNode(0, pair([1.0, 2.0]), (0,)),), "bool"  # floats in a bool graph
    yield (a, b), (FactorNode(0, ones, (0,)), FactorNode(2, ones, (1,))), "prob"  # sparse factor ids
    yield (b, a), (FactorNode(0, ones, (0,)), FactorNode(0, ones, (1,))), "prob"  # repeated factor ids


def report(g):
    return [(v.code, v.message, v.variable_id, v.factor_id, v.axis) for v in validate_graph(g).violations]


def test_the_array_checks_report_what_the_node_checks_report():
    for variables, factors, semiring in invalid_graphs():
        hand_built = FactorGraph(variables, factors, semiring)
        data = np.concatenate([f.tensor.data for f in factors])
        shapes = [f.tensor.shape for f in factors]
        table = _wire_table([f.id for f in factors], [f.neighbors for f in factors], shapes, data)
        table_first = FactorGraph._of_table(variables, table, semiring)
        assert report(hand_built) and report(table_first) == report(hand_built), factors


def test_violations_keep_their_words_and_order():
    variables = (VariableNode(0, ObjectType("a", 2)), VariableNode(1, ObjectType("b", 3)))
    factors = (
        FactorNode(0, pair([1.0, 1.0]), (1,)),
        FactorNode(1, pair([True, False], bool), (7,)),
        FactorNode(2, DenseTensor((2, 3), np.ones(6)), (0, 1)),
    )
    assert report(FactorGraph(variables, factors)) == [
        ("axis-dim", "factor 0 axis 0: dim 2 != variable 1 dim 3", None, 0, 0),
        ("tensor-dtype", "factor 1: bool values in a prob graph (needs float64)", None, 1, None),
        ("factor-neighbor", "factor 1 axis 0 references unknown variable 7", None, 1, 0),
    ]
    square = (FactorNode(0, factors[2].tensor, (0, 1)),)
    assert [v.code for v in validate_graph(FactorGraph(variables, square, BOOL.name)).violations] == ["tensor-dtype"]
    assert validate_graph(FactorGraph(variables, square, PROB.name)).ok
