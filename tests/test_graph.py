"""Graph data model: wiring, validation, components, tree detection."""

import math

import numpy as np
import pytest

from spiderbp import (
    PROB,
    FactorGraph,
    RunConfig,
    ValidationError,
    build_graph,
    contraction_value,
    run_bp,
    run_junction_tree,
    tree_info,
)
from spiderbp.algebra import BOOL
from spiderbp.graph import (
    FactorNode,
    ObjectType,
    VariableNode,
    components,
    validate_graph,
)
from spiderbp.jtree import build_junction_tree
from spiderbp.tensor import DenseTensor
from spiderbp import graph as graph_module

from fixtures import normal_form


def chain(n_vars, dim=2, semiring=PROB):
    """v0 - f0 - v1 - f1 - ... - v(n-1), all pairwise uniform tables."""
    dims = [dim] * n_vars
    factors = [((i, i + 1), [1.0] * (dim * dim)) for i in range(n_vars - 1)]
    if not factors:
        factors = [((0,), [1.0] * dim)]
    return build_graph(dims, factors, semiring)


class TestObjectType:
    def test_dim_must_be_positive_int(self):
        with pytest.raises(ValueError):
            ObjectType("x", 0)
        with pytest.raises(ValueError):
            ObjectType("x", 2.0)


class TestWiring:
    def test_wires_sorted_by_factor_then_axis(self):
        g = build_graph(
            [2, 2, 2],
            [((0, 1), [1.0] * 4), ((1, 2), [1.0] * 4)],
            PROB,
        )
        assert g.wires == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_incident_and_degree(self):
        g = build_graph(
            [2, 2],
            [((0, 1), [1.0] * 4), ((1,), [1.0] * 2)],
            PROB,
        )
        assert g.incident[0] == ((0, 0),)
        assert g.incident[1] == ((0, 1), (1, 0))
        assert len(g.incident[1]) == 2

    def test_repeated_neighbor_yields_two_wires(self):
        g = build_graph([2], [((0, 0), [1.0] * 4)], PROB)
        assert g.incident[0] == ((0, 0), (0, 1))
        assert len(g.incident[0]) == 2

    def test_lookup(self):
        g = chain(3)
        assert g.variable(1).obj.dim == 2
        assert g.factor(0).neighbors == (0, 1)


class TestValidation:
    def test_valid_graph_reports_ok(self):
        report = validate_graph(chain(4))
        assert report.ok and bool(report)

    def test_sparse_variable_ids(self):
        g = FactorGraph(
            (VariableNode(0, ObjectType("a", 2)), VariableNode(2, ObjectType("b", 2))),
            (),
        )
        report = validate_graph(g)
        assert not report.ok
        assert report.violations[0].code == "variable-ids"

    def test_unknown_neighbor(self):
        t = DenseTensor.from_values((2,), [1.0, 1.0], PROB)
        g = FactorGraph(
            (VariableNode(0, ObjectType("a", 2)),),
            (FactorNode(0, t, (5,)),),
        )
        report = validate_graph(g)
        codes = {v.code for v in report.violations}
        assert "factor-neighbor" in codes

    def test_axis_dim_mismatch(self):
        t = DenseTensor.from_values((3,), [1.0] * 3, PROB)
        g = FactorGraph(
            (VariableNode(0, ObjectType("a", 2)),),
            (FactorNode(0, t, (0,)),),
        )
        report = validate_graph(g)
        assert any(v.code == "axis-dim" for v in report.violations)
        with pytest.raises(ValidationError):
            report.raise_if_invalid()

    def test_rank_mismatch(self):
        t = DenseTensor.from_values((2, 2), [1.0] * 4, PROB)
        g = FactorGraph(
            (VariableNode(0, ObjectType("a", 2)),),
            (FactorNode(0, t, (0,)),),
        )
        assert any(v.code == "factor-rank" for v in validate_graph(g).violations)

    def test_unknown_semiring_label(self):
        g = FactorGraph(chain(2).variables, chain(2).factors, semiring="real")
        report = validate_graph(g)
        assert [v.code for v in report.violations] == ["semiring"]

    def test_tensor_dtype_must_match_the_label(self):
        t = DenseTensor.from_values((2,), [True, False], BOOL)
        variables = (VariableNode(0, ObjectType("a", 2)),)
        g = FactorGraph(variables, (FactorNode(0, t, (0,)),))  # left at "prob"
        assert [v.code for v in validate_graph(g).violations] == ["tensor-dtype"]
        with pytest.raises(ValidationError, match="bool values in a prob graph"):
            run_bp(g, RunConfig())
        assert validate_graph(FactorGraph(variables, (FactorNode(0, t, (0,)),), semiring="bool")).ok

    def test_build_graph_validates(self):
        with pytest.raises(ValidationError):
            build_graph([2], [((0, 1), [1.0] * 4)], PROB)


class TestComponents:
    def test_single_component(self):
        comps = components(chain(3))
        assert comps == [((0, 1, 2), (0, 1))]

    def test_disconnected_pieces(self):
        g = build_graph(
            [2, 2, 2],
            [((0, 1), [1.0] * 4)],
            PROB,
        )
        comps = components(g)
        assert comps == [((0, 1), (0,)), ((2,), ())]

    def test_rank0_factor_is_own_component(self):
        g = FactorGraph(
            (VariableNode(0, ObjectType("a", 2)),),
            (FactorNode(0, DenseTensor.from_values((), [2.0], PROB), ()),),
        )
        comps = components(g)
        assert ((), (0,)) in comps
        assert ((0,), ()) in comps


    def test_each_call_returns_a_new_list(self):
        g = build_graph([2, 2, 2], [((0, 1), [1.0] * 4)], PROB)
        first = components(g)
        first.append("scribble")
        second = components(g)
        assert second == [((0, 1), (0,)), ((2,), ())]
        assert second is not components(g)


class TestValidateOnce:
    def test_validate_graph_returns_a_fresh_report(self):
        g = chain(3)
        a, b = validate_graph(g), validate_graph(g)
        assert a.ok and b.ok
        assert a is not b
        a.violations.append("scribble")
        assert validate_graph(g).ok

    def test_a_valid_graph_is_checked_once(self, monkeypatch):
        calls = []
        original = graph_module.validate_graph

        def counted(g):
            calls.append(g)
            return original(g)

        built = chain(3)  # build_graph validates its own result
        g = FactorGraph(built.variables, built.factors)
        monkeypatch.setattr(graph_module, "validate_graph", counted)
        run_bp(g, RunConfig())
        contraction_value(g)
        run_junction_tree(g, RunConfig())
        assert len(calls) == 1 and calls[0] is g

    def test_an_invalid_graph_raises_at_every_entry_point(self):
        good = chain(2)
        t = DenseTensor.from_values((3, 2), [1.0] * 6, PROB)  # axis 0 should have dim 2
        g = FactorGraph(good.variables, (FactorNode(0, t, (0, 1)),))
        calls = [
            lambda: run_bp(g, RunConfig()),
            lambda: run_bp(g, RunConfig(schedule="tree")),
            lambda: contraction_value(g),
            lambda: run_junction_tree(g, RunConfig()),
            lambda: build_junction_tree(g),
        ]
        messages = set()
        for call in calls * 2:
            with pytest.raises(ValidationError) as info:
                call()
            messages.add(str(info.value))
        assert messages == {"invalid graph: factor 0 axis 0: dim 3 != variable 0 dim 2"}


class TestTreeInfo:
    def test_chain_diameter(self):
        # v0-f0-v1-f1-v2: 4 edges end to end
        info = tree_info(chain(3))
        assert info.is_tree
        assert info.diameter == 4
        assert info.components == 1

    def test_single_variable(self):
        # one edge v0 - f0, so the longest shortest path is 1
        g = build_graph([2], [((0,), [1.0, 1.0])], PROB)
        info = tree_info(g)
        assert info.is_tree and info.diameter == 1

    def test_star(self):
        # one factor touching three variables: diameter 4 (v-f-v via center)
        g = build_graph([2, 2, 2], [((0, 1, 2), [1.0] * 8)], PROB)
        info = tree_info(g)
        assert info.is_tree and info.diameter == 2

    def test_cycle_is_not_tree(self):
        g = build_graph(
            [2, 2, 2],
            [((0, 1), [1.0] * 4), ((1, 2), [1.0] * 4), ((0, 2), [1.0] * 4)],
            PROB,
        )
        info = tree_info(g)
        assert not info.is_tree
        assert info.diameter is None

    def test_node_tensors_in_normal_form_keep_the_shape(self):
        # every wire variable joins its factor to its node's tensor, so the
        # normal form is a tree exactly when the model of nodes is
        line = normal_form([2, 2, 2], [((0, 1), [1.0] * 4), ((1, 2), [1.0] * 4)], {0: [1.0, 1.0], 1: [1.0] * 4, 2: [1.0, 1.0]})
        assert all(len(line.incident[v.id]) == 2 for v in line.variables)
        assert tree_info(line).is_tree
        pairs = [(0, 1), (1, 2), (0, 2)]
        cycle = normal_form([2, 2, 2], [(p, [1.0] * 4) for p in pairs], {v: [1.0] * 4 for v in range(3)})
        assert not tree_info(cycle).is_tree

    def test_repeated_neighbor_is_not_tree(self):
        g = build_graph([2], [((0, 0), [1.0] * 4)], PROB)
        assert not tree_info(g).is_tree

    def test_forest_diameter_is_max_over_components(self):
        g = build_graph(
            [2, 2, 2, 2, 2],
            [((0, 1), [1.0] * 4), ((2, 3), [1.0] * 4), ((3, 4), [1.0] * 4)],
            PROB,
        )
        info = tree_info(g)
        assert info.is_tree
        assert info.components == 2
        assert info.diameter == 4


def random_scopes(rng, extra_factors=0):
    """Dims and factor scopes of a random forest of factors of rank 1-3,
    with isolated variables and rank-0 factors, factors shuffled; then
    ``extra_factors`` factors on random variables, which may close cycles
    or repeat a neighbour."""
    dims, scopes = [], []
    for _ in range(int(rng.integers(1, 4))):
        first = len(dims)
        dims.append(2)
        for _ in range(int(rng.integers(0, 6))):
            new = list(range(len(dims), len(dims) + int(rng.integers(0, 3))))
            dims.extend(2 for _ in new)
            scopes.append([int(rng.integers(first, len(dims) - len(new)))] + new)
        if rng.random() < 0.5:
            dims.append(3)  # an isolated variable
        if rng.random() < 0.5:
            scopes.append([])  # a rank-0 factor
    for _ in range(extra_factors):
        scopes.append([int(v) for v in rng.integers(0, len(dims), int(rng.integers(1, 4)))])
    scopes = [[int(v) for v in rng.permutation(s)] for s in scopes]
    return dims, [scopes[i] for i in rng.permutation(len(scopes))]


def graph_of(dims, scopes):
    return build_graph(dims, [(s, [1.0] * math.prod(dims[v] for v in s)) for s in scopes], PROB)


def all_distances(dims, scopes):
    """BFS distances from every node; variable v is node v, factor j node len(dims) + j."""
    adjacency = [[] for _ in range(len(dims) + len(scopes))]
    for j, scope in enumerate(scopes):
        for v in scope:
            adjacency[v].append(len(dims) + j)
            adjacency[len(dims) + j].append(v)
    out = []
    for start in range(len(adjacency)):
        dist = {start: 0}
        frontier = [start]
        for node in frontier:
            for nb in adjacency[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    frontier.append(nb)
        out.append(dist)
    return out


class TestTreeInfoAgainstBruteForce:
    def test_diameter_is_the_longest_shortest_path_on_forests(self):
        rng = np.random.default_rng(907)
        for _ in range(150):
            dims, scopes = random_scopes(rng)
            info = tree_info(graph_of(dims, scopes))
            assert info.is_tree
            assert info.diameter == max(max(d.values()) for d in all_distances(dims, scopes))

    def test_is_tree_counts_edges_and_repeated_neighbours(self):
        rng = np.random.default_rng(908)
        seen = set()
        for case in range(200):
            dims, scopes = random_scopes(rng, extra_factors=case % 3)
            reached = {frozenset(d) for d in all_distances(dims, scopes)}
            edges = sum(len(s) for s in scopes)
            expected = edges == len(dims) + len(scopes) - len(reached) and all(
                len(set(s)) == len(s) for s in scopes
            )
            info = tree_info(graph_of(dims, scopes))
            assert info.is_tree == expected
            assert info.components == len(reached)
            seen.add(expected)
        assert seen == {True, False}


class TestBuildGraph:
    def test_named_dims(self):
        g = build_graph([("left", 2), ("right", 3)], [((0, 1), [1.0] * 6)], PROB)
        assert g.variable(0).obj == ObjectType("left", 2)
        assert g.variable(1).obj.dim == 3

    def test_semiring_by_name_and_coercion(self):
        g = build_graph([2], [((0,), [1, 0])], "count")
        assert g.factor(0).tensor.data.tolist() == [1, 0]
        assert type(g.factor(0).tensor.data[0]) is int

