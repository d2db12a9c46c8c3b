"""Junction trees: construction invariants and exact loopy inference."""

import gc
import json
import math
import re
import weakref
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiderbp import (
    PROB,
    CliqueTooLargeError,
    RunConfig,
    ValidationError,
    build_graph,
    contraction_value,
    dual_seed,
    exact_contraction,
    exact_marginal,
    run_bp,
    run_junction_tree,
)
from spiderbp.algebra import BOOL, COUNT, DUAL, MAXTIMES, DualNumber, get_semiring
from spiderbp.jtree import (
    _clique_potential,
    _eliminate,
    _fold_read,
    _primal_adjacency,
    build_junction_tree,
    marginal_from_clique,
    running_intersection_holds,
)
from spiderbp.formats import graph_to_document, parse_native
from spiderbp.graph import FactorGraph, FactorNode, ObjectType, VariableNode, components
from spiderbp.tensor import DenseTensor
from spiderbp import jtree

from fixtures import brute_force_count, four_cycle, normal_form, peak_bytes, random_loopy, random_tree, relabel, table_for
from test_plan import bits, fresh, kept_arrays, same_bits


def normalized(values):
    arr = np.asarray(values, dtype=np.float64)
    return arr / arr.sum()


def loopy_square(values=None):
    """4-cycle over binary variables with attractive pairwise tables."""
    table = values or [2.0, 1.0, 1.0, 2.0]
    return build_graph(
        [2, 2, 2, 2],
        [
            ((0, 1), list(table)),
            ((1, 2), list(table)),
            ((2, 3), list(table)),
            ((0, 3), list(table)),
            ((0,), [0.7, 0.3]),
        ],
        PROB,
    )


class TestBuild:
    def test_four_cycle_cliques(self):
        tree = build_junction_tree(loopy_square())
        members = sorted(c.members for c in tree.cliques)
        assert members == [(0, 1, 3), (1, 2, 3)]
        assert len(tree.edges) == 1
        a, b, sep = tree.edges[0]
        assert sep == (1, 3)

    def test_chain_cliques_are_edges(self):
        g = build_graph(
            [2, 2, 2],
            [((0, 1), [1.0] * 4), ((1, 2), [1.0] * 4)],
            PROB,
        )
        tree = build_junction_tree(g)
        members = sorted(c.members for c in tree.cliques)
        assert members == [(0, 1), (1, 2)]
        assert tree.edges[0][2] == (1,)

    def test_factors_land_in_lowest_covering_clique(self):
        tree = build_junction_tree(loopy_square())
        by_members = {c.members: c for c in tree.cliques}
        first = by_members[(0, 1, 3)]
        # factor 0 scope {0,1}, factor 3 scope {0,3}, unary {0} all fit here
        assert set(first.factor_ids) >= {0, 3, 4}

    def test_every_factor_assigned_once(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_loopy(rng)
            tree = build_junction_tree(g)
            seen = [fid for c in tree.cliques for fid in c.factor_ids]
            assert sorted(seen) == [f.id for f in g.factors]

    def test_running_intersection_always_holds(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_loopy(rng)
            assert running_intersection_holds(build_junction_tree(g))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        g = random_loopy(rng)
        t1 = build_junction_tree(g)
        t2 = build_junction_tree(g)
        assert [c.members for c in t1.cliques] == [c.members for c in t2.cliques]
        assert t1.edges == t2.edges
        assert t1.elimination_order == t2.elimination_order

    def test_clique_cap(self):
        # a 3-cycle's one clique holds 257**3 states, over the tensor cap of 2**24
        g = build_graph([257] * 3, [(e, [1.0] * 257**2) for e in ((0, 1), (1, 2), (0, 2))], "prob")
        with pytest.raises(CliqueTooLargeError):
            build_junction_tree(g)

    def test_node_tensors_in_normal_form(self):
        # a 3-cycle of nodes with tensors of their own: the normal form is loopy
        rng = np.random.default_rng(330)
        dims = [2, 3, 2]
        factors = [((a, b), rng.uniform(0.1, 2.0, dims[a] * dims[b]).tolist()) for a, b in [(0, 1), (1, 2), (0, 2)]]
        tensors = {v: rng.uniform(0.1, 2.0, dims[v] ** 2).tolist() for v in range(3)}
        g = normal_form(dims, factors, tensors)
        assert running_intersection_holds(build_junction_tree(g))
        result = run_junction_tree(g, RunConfig(normalize=False))
        assert np.isclose(result.contraction_value, exact_contraction(g, PROB), rtol=1e-12)
        for v in g.variables:
            assert np.allclose(result.variable_beliefs[v.id].values, exact_marginal(g, PROB, v.id), rtol=1e-12)

    def test_disconnected_graph_builds_forest(self):
        g = build_graph(
            [2, 2, 2, 2],
            [((0, 1), [1.0] * 4), ((2, 3), [1.0] * 4)],
            PROB,
        )
        tree = build_junction_tree(g)
        assert len(tree.cliques) == 2
        assert tree.edges == ()  # no shared variables, nothing to join


def scope_graph(n, scopes):
    """n binary variables under all-ones prob factors over the given scopes."""
    return build_graph([2] * n, [(scope, [1.0] * 2 ** len(scope)) for scope in scopes], PROB)


def odd_graphs(rng, count):
    """Random loopy graphs, some beside a second disjoint one, with isolated
    variables, rank-0 factors and factors that repeat a neighbour."""
    for _ in range(count):
        scopes = [f.neighbors for f in random_loopy(rng, max_vars=10, extra_edges=(1, 6)).factors]
        n = 1 + max(v for scope in scopes for v in scope)
        if rng.random() < 0.5:  # a second component
            other = [f.neighbors for f in random_loopy(rng, max_vars=6).factors]
            scopes += [tuple(n + v for v in scope) for scope in other]
            n += 1 + max(v for scope in other for v in scope)
        for _ in range(int(rng.integers(0, 3))):  # a repeated neighbour
            v = int(rng.integers(n))
            scopes.append((v, v) if rng.random() < 0.5 else (v, int(rng.integers(n)), v))
        if rng.random() < 0.5:
            scopes.append(())
        yield scope_graph(n + int(rng.integers(0, 3)), scopes)


def elimination_cliques(g, order):
    """Each step's variable with its uneliminated neighbours, after fill-in."""
    adj = {v.id: set() for v in g.variables}
    for f in g.factors:
        for a in f.neighbors:
            adj[a].update(set(f.neighbors) - {a})
    cliques = []
    for v in order:
        nbrs = adj.pop(v)
        cliques.append({v} | nbrs)
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(v)
    return cliques


def root(parent, x):
    """Union-find root of x."""
    while parent[x] != x:
        x = parent[x]
    return x


def components_of(g):
    parent = {v.id: v.id for v in g.variables}
    for f in g.factors:
        for v in f.neighbors[1:]:
            parent[root(parent, v)] = root(parent, f.neighbors[0])
    return len({root(parent, v.id) for v in g.variables})


def max_spanning_weight(cliques):
    """Total separator size of a maximum-weight spanning forest (Kruskal)."""
    pairs = sorted(
        ((len(set(a) & set(b)), i, j) for i, a in enumerate(cliques) for j, b in enumerate(cliques) if i < j),
        reverse=True,
    )
    parent = list(range(len(cliques)))
    total = 0
    for weight, i, j in pairs:
        if weight and root(parent, i) != root(parent, j):
            parent[root(parent, i)] = root(parent, j)
            total += weight
    return total


class TestEliminationTree:
    """The junction tree is the one min-fill elimination induces."""

    def test_invariants_on_random_graphs(self):
        rng = np.random.default_rng(73)
        for g in odd_graphs(rng, 60):
            tree = build_junction_tree(g)
            members = [set(c.members) for c in tree.cliques]
            assert [c.id for c in tree.cliques] == list(range(len(members)))
            # the maximal elimination cliques, in elimination order
            raw = elimination_cliques(g, tree.elimination_order)
            assert members == [c for c in raw if not any(c < d for d in raw)]
            assert not any(a <= b for i, a in enumerate(members) for j, b in enumerate(members) if i != j)
            # a forest: one edge fewer than cliques per component, no cycle
            assert len(tree.edges) == len(members) - components_of(g)
            parent = list(range(len(members)))
            for a, b, sep in tree.edges:
                assert a < b and root(parent, a) != root(parent, b)
                parent[root(parent, a)] = root(parent, b)
                assert sep == tuple(sorted(members[a] & members[b]))
            assert list(tree.edges) == sorted(tree.edges)
            assert running_intersection_holds(tree)
            weight = sum(len(sep) for _a, _b, sep in tree.edges)
            assert weight == max_spanning_weight([c.members for c in tree.cliques])

    def test_star_centre_gives_way_to_its_first_child(self):
        # the leaves go first (no fill), so the centre's own clique {3}
        # lies in each leaf's, and the first leaf's clique takes its place
        tree = build_junction_tree(scope_graph(4, [(0, 3), (1, 3), (2, 3)]))
        assert tree.elimination_order == (0, 1, 2, 3)
        assert [c.members for c in tree.cliques] == [(0, 3), (1, 3), (2, 3)]
        assert tree.edges == ((0, 1, (3,)), (0, 2, (3,)))

    def test_isolated_variables_and_rank0_factors(self):
        tree = build_junction_tree(scope_graph(4, [(), (1, 1), (1, 2), ()]))
        assert [c.members for c in tree.cliques] == [(0,), (1, 2), (3,)]
        assert tree.edges == ()
        # a rank-0 factor is a scalar of Z: it lands in no clique
        assert [c.factor_ids for c in tree.cliques] == [(), (1, 2), ()]


class TestRunJunctionTree:
    def test_four_cycle_marginals_match_oracle(self):
        g = loopy_square()
        result = run_junction_tree(g, RunConfig())
        for v in g.variables:
            expected = normalized(exact_marginal(g, PROB, v.id))
            assert np.allclose(result.variable_beliefs[v.id].values, expected, atol=1e-12)
        assert np.isclose(result.contraction_value, exact_contraction(g, PROB), rtol=1e-12)

    def test_random_loopy_graphs_match_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = random_loopy(rng)
            result = run_junction_tree(g, RunConfig())
            for v in g.variables:
                expected = normalized(exact_marginal(g, PROB, v.id))
                assert np.allclose(
                    result.variable_beliefs[v.id].values, expected, atol=1e-9
                )

    def test_tree_input_agrees_with_plain_bp(self):
        rng = np.random.default_rng(37)
        g = random_tree(rng, "prob", max_vars=8)
        jt = run_junction_tree(g, RunConfig())
        bp = run_bp(g, RunConfig(schedule="tree"))
        for v in g.variables:
            assert np.allclose(
                jt.variable_beliefs[v.id].values,
                bp.variable_beliefs[v.id].values,
                atol=1e-12,
            )

    def test_count_four_cycle_is_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            g = four_cycle(rng, "count")
            cfg = RunConfig(semiring="count", normalize=False)
            result = run_junction_tree(g, cfg)
            assert result.contraction_value == brute_force_count(g)

    def test_bool_unsat_cycle_flags_contradiction(self):
        # an odd antiferromagnetic cycle: no 2-coloring of a triangle
        ne = [False, True, True, False]
        g = build_graph(
            [2, 2, 2],
            [((0, 1), ne), ((1, 2), ne), ((0, 2), ne)],
            BOOL,
        )
        cfg = RunConfig(semiring="bool", normalize=False)
        result = run_junction_tree(g, cfg)
        assert result.contraction_value is False
        assert result.contradiction

    def test_bool_sat_cycle(self):
        ne = [False, True, True, False]
        g = build_graph(
            [2, 2, 2, 2],
            [((0, 1), ne), ((1, 2), ne), ((2, 3), ne), ((0, 3), ne)],
            BOOL,
        )
        cfg = RunConfig(semiring="bool", normalize=False)
        result = run_junction_tree(g, cfg)
        assert result.contraction_value is True
        assert not result.contradiction

    def test_unnormalized_marginals(self):
        g = loopy_square()
        result = run_junction_tree(g, RunConfig(normalize=False))
        for v in g.variables:
            expected = exact_marginal(g, PROB, v.id)
            assert np.allclose(result.variable_beliefs[v.id].values, expected, rtol=1e-12)

    def test_single_variable_graph(self):
        g = build_graph([3], [((0,), [1.0, 2.0, 3.0])], PROB)
        result = run_junction_tree(g, RunConfig())
        assert np.allclose(result.variable_beliefs[0].values, [1 / 6, 2 / 6, 3 / 6])
        assert np.isclose(result.contraction_value, 6.0)

    def test_disconnected_components_multiply(self):
        g = build_graph(
            [2, 2],
            [((0,), [1.0, 2.0]), ((1,), [3.0, 4.0])],
            PROB,
        )
        result = run_junction_tree(g, RunConfig(normalize=False))
        assert np.isclose(result.contraction_value, 3.0 * 7.0)


def forest_with_scalars(rng, name):
    """A forest over 3..8 variables (some of them isolated) with pairwise
    and unary tables, and one or two rank-0 factors at random places in
    factor order, one of them zero half the time."""
    n = int(rng.integers(3, 9))
    dims = [int(d) for d in rng.integers(2, 4, n)]
    factors = []
    for v in range(1, n):
        if rng.random() < 0.6:
            u = int(rng.integers(0, v))
            factors.append(((u, v), table_for(rng, name, dims[u] * dims[v])))
    factors += [((v,), table_for(rng, name, dims[v])) for v in range(n) if rng.random() < 0.4]
    scalars = [[x + 1 for x in table_for(rng, name, 1)] for _ in range(int(rng.integers(1, 3)))]
    if rng.random() < 0.5:
        scalars[0] = [get_semiring(name).zero]
    for scalar in scalars:
        factors.insert(int(rng.integers(len(factors) + 1)), ((), scalar))
    return build_graph(dims, factors, get_semiring(name))


class TestRank0FactorsOnlyScaleZ:
    """A rank-0 factor is a scalar: no clique holds it, it scales Z alone,
    and the junction tree's marginals are tree BP's wherever clique 0 is."""

    @pytest.mark.parametrize("c, z", [(0.0, 0.0), (3.0, 60.0)])
    def test_a_rank0_factor_scales_no_marginal(self, c, z):
        g = build_graph([2, 2, 2], [((), [c]), ((1, 2), [1, 2, 3, 4])], "prob")
        assert [clique.factor_ids for clique in build_junction_tree(g).cliques] == [(), (1,)]
        for normalize, var0 in ((True, [0.5, 0.5]), (False, [1.0, 1.0])):
            cfg = RunConfig(normalize=normalize)
            jt, bp = run_junction_tree(g, cfg), run_bp(g, RunConfig(schedule="tree", normalize=normalize))
            assert not jt.contradiction and not bp.contradiction
            assert jt.variable_beliefs[0].values.tolist() == bp.variable_beliefs[0].values.tolist() == var0
            for v in (1, 2):
                assert np.allclose(jt.variable_beliefs[v].values, bp.variable_beliefs[v].values, rtol=1e-12)
            assert jt.contraction_value == contraction_value(g) == z

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count"])
    def test_forests_match_tree_bp_whichever_component_holds_clique_0(self, name):
        rng, moved = np.random.default_rng(3101), 0
        for _ in range(6):
            g = forest_with_scalars(rng, name)
            n, holders = len(g.variables), set()
            for perm in (np.arange(n), rng.permutation(n), rng.permutation(n), rng.permutation(n)):
                h = relabel(g, dict(enumerate(perm.tolist())))
                tree = build_junction_tree(h)
                assert all(h.factor(fid).neighbors for clique in tree.cliques for fid in clique.factor_ids)
                holders.add(next(i for i, (var_ids, _) in enumerate(components(h)) if tree.cliques[0].members[0] in var_ids))
                for normalize in (True, False):
                    jt = run_junction_tree(h, RunConfig(normalize=normalize))
                    bp = run_bp(h, RunConfig(schedule="tree", normalize=normalize))
                    assert not jt.contradiction and not bp.contradiction
                    for v in h.variables:
                        got, want = jt.variable_beliefs[v.id].values, bp.variable_beliefs[v.id].values
                        if name == "count":
                            assert got.tolist() == want.tolist(), (v.id, normalize)
                        else:
                            np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=f"{v.id} {normalize}")
                z = jt.contraction_value
                assert z == contraction_value(h) if name == "count" else np.isclose(z, contraction_value(h), rtol=1e-12)
            moved += len(holders) > 1
        assert moved  # some forest's clique 0 lies in more than one component as its ids move


class TestCliqueConsistency:
    def test_all_covering_cliques_agree(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            g = random_loopy(rng)
            cfg = RunConfig()
            result = run_junction_tree(g, cfg)
            covering = {}
            for c in result.tree.cliques:
                for vid in c.members:
                    covering.setdefault(vid, []).append(c.id)
            for vid, cids in covering.items():
                answers = [
                    marginal_from_clique(result, cid, vid, cfg).values for cid in cids
                ]
                for other in answers[1:]:
                    assert np.allclose(answers[0], other, atol=1e-9)

    def test_non_member_rejected(self):
        g = loopy_square()
        cfg = RunConfig()
        result = run_junction_tree(g, cfg)
        c0 = result.tree.cliques[0]
        outsider = next(v.id for v in g.variables if v.id not in c0.members)
        with pytest.raises(ValidationError):
            marginal_from_clique(result, c0.id, outsider, cfg)

    def test_a_bad_clique_id_is_a_validation_error_naming_it(self):
        g = loopy_square()
        cfg = RunConfig()
        result = run_junction_tree(g, cfg)
        n = len(result.tree.cliques)
        for cid, words in [(-1, "no clique with id -1"), (n, f"no clique with id {n}"),
                           (1.0, "a clique id must be an integer, got 1.0"), (True, "a clique id must be an integer, got True")]:
            with pytest.raises(ValidationError, match=f"^{words}$"):
                marginal_from_clique(result, cid, result.tree.cliques[1].members[0], cfg)
        vid = result.tree.cliques[1].members[0]
        assert same_bits(marginal_from_clique(result, np.int64(1), vid, cfg).values, marginal_from_clique(result, 1, vid, cfg).values)

    def test_a_bad_variable_id_is_a_validation_error_naming_it(self):
        g = loopy_square()
        cfg = RunConfig()
        result = run_junction_tree(g, cfg)
        cid = next(c.id for c in result.tree.cliques if 1 in c.members)
        # True == 1 and 1.0 == 1 pass a membership test, so they once read variable 1
        for vid in (True, 1.0, np.bool_(True)):
            with pytest.raises(ValidationError, match=f"^a variable id must be an integer, got {re.escape(repr(vid))}$"):
                marginal_from_clique(result, cid, vid, cfg)
        for vid in (-1, len(g.variables)):
            with pytest.raises(ValidationError, match=f"^variable {vid} is not a member of clique {cid} "):
                marginal_from_clique(result, cid, vid, cfg)
        assert same_bits(marginal_from_clique(result, cid, np.int64(1), cfg).values, marginal_from_clique(result, cid, 1, cfg).values)


class TestSeparatorMessages:
    def test_every_clique_belief_folds_to_z(self):
        rng = np.random.default_rng(47)
        for g in [loopy_square()] + [random_loopy(rng) for _ in range(10)]:
            result = run_junction_tree(g, RunConfig())
            z = exact_contraction(g, PROB)
            assert np.isclose(result.contraction_value, z, rtol=1e-12)
            for belief in result.clique_beliefs.values():
                assert np.isclose(belief.data.sum(), z, rtol=1e-12)

    def test_separator_marginals_agree(self):
        rng = np.random.default_rng(53)
        for g in [loopy_square()] + [random_loopy(rng) for _ in range(10)]:
            result = run_junction_tree(g, RunConfig())
            cliques = result.tree.cliques
            for a, b, sep in result.tree.edges:
                folded = []
                for cid in (a, b):
                    members = cliques[cid].members
                    away = tuple(i for i, v in enumerate(members) if v not in sep)
                    folded.append(result.clique_beliefs[cid].as_array().sum(axis=away))
                assert np.allclose(folded[0], folded[1], rtol=1e-12)


def ternary_grid(side):
    """side x side grid of 3-state variables, all-ones pairwise count tables."""
    pairs = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                pairs.append((v, v + 1))
            if r + 1 < side:
                pairs.append((v, v + side))
    return build_graph([3] * side * side, [(p, [1] * 9) for p in pairs], COUNT)


class TestCliqueCapIsTheOnlyCap:
    def test_six_by_six_ternary_grid_counts_exactly(self):
        # its cliques hold 2187 states, but the product of a clique's
        # separator spaces once exceeded the tensor cap
        g = ternary_grid(6)
        result = run_junction_tree(g, RunConfig(semiring="count", normalize=False))
        assert max(c.size for c in result.clique_beliefs.values()) == 3**7
        assert result.contraction_value == 3**36
        for v in g.variables:
            assert result.variable_beliefs[v.id].values.tolist() == [3**35] * 3

    def test_clique_cap_still_applies(self):
        # the 15 x 15 grid's largest clique holds 3**16 states, over the 2**24 cap
        with pytest.raises(CliqueTooLargeError):
            build_junction_tree(ternary_grid(15))


class TestSemiringsAndDeterminism:
    def test_maxtimes_max_marginals_match_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            g = random_loopy(rng, "maxtimes")
            result = run_junction_tree(g, RunConfig(semiring="maxtimes", normalize=False))
            for v in g.variables:
                expected = exact_marginal(g, MAXTIMES, v.id)
                assert np.allclose(result.variable_beliefs[v.id].values, expected, rtol=1e-12)

    def test_dual_contraction_matches_oracle(self):
        rng = np.random.default_rng(61)
        g = dual_seed(random_loopy(rng), 0, 1)
        result = run_junction_tree(g, RunConfig(semiring="dual", normalize=False))
        expected = exact_contraction(g, DUAL)
        assert np.isclose(result.contraction_value.real, expected.real, rtol=1e-12)
        assert np.isclose(result.contraction_value.eps, expected.eps, rtol=1e-12)

    def test_repeat_runs_are_byte_identical(self):
        g = random_loopy(np.random.default_rng(67))
        first, second = (run_junction_tree(g, RunConfig()) for _ in range(2))
        assert first.contraction_value == second.contraction_value
        for vid, belief in first.variable_beliefs.items():
            assert belief.values.tobytes() == second.variable_beliefs[vid].values.tobytes()
        for cid, belief in first.clique_beliefs.items():
            assert belief.data.tobytes() == second.clique_beliefs[cid].data.tobytes()

    def test_separator_sums_are_ascending_left_folds(self):
        # every separator entry is acc = x[0]; acc = acc + x[i] over the
        # other members' index tuples in ascending row-major order. Clique
        # A holds one random table over variables 0..k-1, clique B the
        # separator and one more variable under a table of ones, so B's
        # belief is A's message, bit for bit
        from itertools import product

        rng = np.random.default_rng(71)
        for _ in range(300):
            k = int(rng.integers(2, 5))
            dims = tuple(int(d) for d in rng.integers(2, 5, k))
            sep = tuple(sorted(int(v) for v in rng.choice(k, int(rng.integers(1, k)), replace=False)))
            arr = rng.random(dims) * 10.0 ** rng.integers(-4, 5, dims)
            ones = [1.0] * (2 * math.prod(dims[v] for v in sep))
            g = build_graph([*dims, 2], [(tuple(range(k)), arr.ravel().tolist()), ((*sep, k), ones)], PROB)
            result = run_junction_tree(g, RunConfig(normalize=False))
            assert [c.members for c in result.tree.cliques] in ([tuple(range(k)), (*sep, k)], [(*sep, k), tuple(range(k))])
            b = next(c.id for c in result.tree.cliques if k in c.members)
            got = result.clique_beliefs[b].as_array()[..., 0]
            rest = [i for i in range(k) if i not in sep]
            for s in product(*(range(dims[i]) for i in sep)):
                acc = None
                for r in product(*(range(dims[i]) for i in rest)):
                    index = [0] * k
                    for i, x in zip(list(sep) + rest, s + r):
                        index[i] = x
                    x = float(arr[tuple(index)])
                    acc = x if acc is None else acc + x
                assert float(got[s]).hex() == acc.hex()


def with_odd_factors(rng, g, name):
    """``g`` plus factors over (b, a, b) and (c, b, a) for three of its
    variables, and a rank-0 factor."""
    a, b, c = (int(v) for v in rng.permutation(len(g.variables))[:3])
    dims = [v.obj.dim for v in g.variables]
    factors = [(f.neighbors, f.tensor.data.tolist()) for f in sorted(g.factors, key=lambda f: f.id)]
    for scope in ((b, a, b), (c, b, a), ()):
        factors.append((scope, table_for(rng, name, math.prod(dims[v] for v in scope))))
    return build_graph(dims, factors, get_semiring(name))


def grid_potential(g, semiring, clique):
    """A clique's potential by one gather per factor over the full index
    grid of its members."""
    pos = {v: i for i, v in enumerate(clique.members)}
    dims = tuple(g.variable(v).obj.dim for v in clique.members)
    grid = np.indices(dims)
    pot = semiring.ones(dims)
    for fid in clique.factor_ids:
        f = g.factor(fid)
        if f.rank == 0:
            pot = semiring.array_mul(pot, f.tensor.data[0])
        else:
            pot = semiring.array_mul(pot, f.tensor.as_array()[tuple(grid[pos[v]] for v in f.neighbors)])
    return np.asarray(pot)


class TestLargeCliques:
    """Potentials are built from broadcast views of the factor tables, never
    from an index grid over the clique."""

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool"])
    def test_potentials_match_the_full_index_gather(self, name):
        rng = np.random.default_rng(340)
        semiring = get_semiring(name)
        for _ in range(12):
            g = with_odd_factors(rng, random_loopy(rng, name), name)
            for clique in build_junction_tree(g).cliques:
                assert same_bits(_clique_potential(g, semiring, clique), grid_potential(g, semiring, clique))

    def test_one_big_clique_peaks_near_its_potential(self):
        # 18 binary variables, all pairs joined: one clique of 2**18 states,
        # whose index grid alone would take 18 times the potential
        rng = np.random.default_rng(342)
        g = build_graph([2] * 18, [(pair, rng.uniform(0.9, 1.1, 4).tolist()) for pair in combinations(range(18), 2)], PROB)
        assert len(build_junction_tree(g).cliques) == 1
        assert peak_bytes(run_junction_tree, g, RunConfig()) < 6 * 8 * 2**18


def full_scan_eliminate(adj):
    """Min-fill elimination that rescans every remaining variable's fill at
    every step, ties to the lowest id, with the clique tree read off as
    ``_eliminate`` reads it: the reference for its incremental heap."""
    adj = {v: set(nbrs) for v, nbrs in adj.items()}
    order, later = [], []
    remaining = set(adj)
    while remaining:
        best, best_fill = None, None
        for v in sorted(remaining):
            nbrs = adj[v]
            fill = sum(1 for a, b in combinations(sorted(nbrs), 2) if b not in adj[a])
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        nbrs = sorted(adj[best])
        for a, b in combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
        for n in nbrs:
            adj[n].discard(best)
        remaining.discard(best)
        order.append(best)
        later.append(nbrs)

    step = {v: i for i, v in enumerate(order)}
    parent = [min((step[n] for n in nbrs), default=None) for nbrs in later]
    heir = {}
    for i, p in enumerate(parent):
        if p is not None and p not in heir and len(later[i]) == len(later[p]) + 1:
            heir[p] = i
    holder = []
    for i in range(len(order)):
        holder.append(holder[heir[i]] if i in heir else i)
    kept = {s: k for k, s in enumerate(i for i in range(len(order)) if i not in heir)}
    cliques = [tuple(sorted([order[s]] + later[s])) for s in kept]
    edges = []
    for i, p in enumerate(parent):
        if p is not None and heir.get(p) != i:
            a, b = sorted((kept[holder[i]], kept[holder[p]]))
            edges.append((a, b, tuple(sorted(set(cliques[a]) & set(cliques[b])))))
    return order, cliques, tuple(sorted(edges))


@st.composite
def tied_graphs(draw):
    """Adjacency of 2-30 vertices, ids shuffled: random edge sets, or grids,
    ladders, paths and cycles, whose fills tie at nearly every step."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 30))
        pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
        edges = {(a, b) for a, b in pairs if a != b}
    else:
        rows = draw(st.integers(1, 5))
        cols = draw(st.integers(2, 30 // rows))
        n = rows * cols
        edges = {(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)}
        edges |= {(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)}
        if rows == 1 and cols > 2 and draw(st.booleans()):
            edges.add((0, cols - 1))
    ids = draw(st.permutations(range(n)))
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[ids[a]].add(ids[b])
        adj[ids[b]].add(ids[a])
    return adj


class TestIncrementalMinFill:
    """The heap of fills, updated only where an elimination can change
    them, picks what a full rescan at every step picks."""

    @settings(max_examples=300)
    @given(adj=tied_graphs())
    def test_heap_matches_the_full_scan(self, adj):
        assert _eliminate(adj) == full_scan_eliminate(adj)

    def test_bench_shaped_models_match_the_full_scan(self):
        for g in [ternary_grid(side) for side in (4, 5, 6, 7)] + [loopy_square()]:
            adj = _primal_adjacency(g)
            assert _eliminate(adj) == full_scan_eliminate(adj)


def ternary_prob_grid(rng, side):
    """side x side grid of 3-state variables under random prob tables."""
    g = ternary_grid(side)
    factors = [(f.neighbors, rng.uniform(0.1, 2.0, 9).tolist()) for f in sorted(g.factors, key=lambda f: f.id)]
    return build_graph([3] * side * side, factors, PROB)


def dual_of(rng, g):
    """``g``'s prob tables as dual ones, every entry given an eps part."""
    factors = [(f.neighbors, [[x, float(rng.uniform(-1.0, 1.0))] for x in f.tensor.data.tolist()]) for f in sorted(g.factors, key=lambda f: f.id)]
    return build_graph([v.obj.dim for v in g.variables], factors, DUAL)


def as_reals(values):
    """A marginal as floats; a dual one as its (real, eps) pairs."""
    if values.dtype == object and isinstance(values[0], DualNumber):
        return np.array([(d.real, d.eps) for d in values.tolist()])
    return np.asarray(values, float)


def literal_fold(arr, pos):
    """acc = x[0]; acc = acc + x[i] per state of axis ``pos``, over the
    other axes' index tuples in ascending row-major order."""
    rest = [i for i in range(arr.ndim) if i != pos]
    out = []
    for s in range(arr.shape[pos]):
        acc = None
        for r in np.ndindex(*(arr.shape[i] for i in rest)):
            index = list(r)
            index.insert(pos, s)
            x = float(arr[tuple(index)])
            acc = x if acc is None else acc + x
        out.append(acc)
    return out


class TestOneReadPerVariable:
    """A variable's belief is one fold of its home clique's belief, the
    same fold ``marginal_from_clique`` takes."""

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool", "dual"])
    def test_beliefs_are_marginal_from_clique_bit_for_bit(self, name, normalize):
        rng = np.random.default_rng(350)
        if name == "dual":
            graphs = [dual_of(rng, random_loopy(rng, max_vars=10, extra_edges=(1, 6))) for _ in range(8)]
        else:
            graphs = [random_loopy(rng, name, max_vars=10, extra_edges=(1, 6)) for _ in range(8)]
        if name == "prob":
            graphs.append(ternary_prob_grid(rng, 6))
        elif name == "count":
            graphs.append(ternary_grid(6))
        for g in graphs:
            cfg = RunConfig(semiring=name, normalize=normalize)
            result = run_junction_tree(g, cfg)
            for c in result.tree.cliques:
                for vid in c.members:
                    got = result.variable_beliefs[vid].values
                    folded = marginal_from_clique(result, c.id, vid, cfg).values
                    if result.tree.variable_to_clique[vid] == c.id or get_semiring(name).exact:
                        assert same_bits(got, folded)
                    else:
                        assert np.allclose(as_reals(got), as_reals(folded), rtol=1e-12)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool", "dual"])
    def test_mixed_dims_an_isolated_variable_and_a_rank0_component(self, name, normalize):
        # a loop over dims 2, 3 and 5 with a chord, an isolated variable
        # (a one-member clique) and a component of one rank-0 factor; the
        # file lists the variables out of id order
        rng = np.random.default_rng(356)
        base = "prob" if name == "dual" else name
        dims = [2, 3, 5, 2, 3, 5, 5]
        scopes = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4), (2,), (6,), ()]
        g = build_graph(dims, [(s, table_for(rng, base, math.prod(dims[v] for v in s))) for s in scopes], base)
        doc = graph_to_document(dual_of(rng, g) if name == "dual" else g)
        doc["variables"] = [doc["variables"][i] for i in (4, 6, 0, 2, 5, 1, 3)]
        g, _ = parse_native(json.dumps(doc), semiring=name)
        cfg = RunConfig(normalize=normalize)
        result = run_junction_tree(g, cfg)
        assert [len(c.members) for c in result.tree.cliques].count(1) == 1
        assert list(result.variable_beliefs) == [v.id for v in g.variables] == [4, 6, 0, 2, 5, 1, 3]
        for v in g.variables:
            home = result.tree.variable_to_clique[v.id]
            assert same_bits(result.variable_beliefs[v.id].values, marginal_from_clique(result, home, v.id, cfg).values)
            assert result.variable_beliefs[v.id].obj == v.obj

    def test_a_zero_mass_marginal_keeps_its_raw_zeros(self):
        # one dead component (a triangle with an all-zero table) beside a
        # live one, all binary: one rescale meets dead and live columns
        dead = build_graph(
            [2, 2, 2, 2, 2],
            [((0, 1), [1.0, 2.0, 3.0, 4.0]), ((1, 2), [0.0] * 4), ((0, 2), [1.0, 1.0, 2.0, 1.0]), ((3, 4), [1.0, 2.0, 3.0, 2.0])],
            PROB,
        )
        cfg = RunConfig()
        result = run_junction_tree(dead, cfg)
        assert result.contradiction and result.contraction_value == 0.0
        for vid in (0, 1, 2):
            assert result.variable_beliefs[vid].values.tolist() == [0.0, 0.0]
            assert same_bits(result.variable_beliefs[vid].values, marginal_from_clique(result, result.tree.variable_to_clique[vid], vid, cfg).values)
        assert result.variable_beliefs[3].values.tolist() == [3 / 8, 5 / 8]
        assert not run_junction_tree(dead, RunConfig(normalize=False)).contradiction

    def test_marginal_from_clique_names_the_variable_as_the_run_does(self):
        # a named 3-cycle with a pendant: "c" is covered by two cliques
        edges = ((0, 1), (1, 2), (0, 2), (2, 3))
        g = build_graph([("a", 2), ("b", 2), ("c", 2), ("d", 2)], [(e, [1.0, 2.0, 3.0, 4.0]) for e in edges], "prob")
        cfg = RunConfig()
        result = run_junction_tree(g, cfg)
        covering = [(c.id, vid) for c in result.tree.cliques for vid in c.members]
        assert [vid for _cid, vid in covering].count(2) == 2
        for cid, vid in covering:
            obj = marginal_from_clique(result, cid, vid, cfg).obj
            assert obj == result.variable_beliefs[vid].obj == g.variable(vid).obj
            assert obj.name == "abcd"[vid]

    def test_the_big_clique_read_is_the_literal_left_fold(self):
        rng = np.random.default_rng(351)
        g = ternary_prob_grid(rng, 6)
        result = run_junction_tree(g, RunConfig(normalize=False))
        big = next(c for c in result.tree.cliques if result.clique_beliefs[c.id].size == 3**7)
        belief = result.clique_beliefs[big.id].as_array()
        for pos, vid in enumerate(big.members):
            values = marginal_from_clique(result, big.id, vid, RunConfig(normalize=False)).values
            assert values.tolist() == literal_fold(belief, pos)

    def test_marginal_is_the_literal_left_fold_on_every_axis(self):
        rng = np.random.default_rng(352)
        for _ in range(100):
            dims = tuple(int(d) for d in rng.integers(1, 5, int(rng.integers(1, 5))))
            arr = rng.random(dims) * 10.0 ** rng.integers(-4, 5, dims)
            for pos in range(len(dims)):
                values = _fold_read(PROB, arr, math.prod(dims[:pos]), dims[pos], math.prod(dims[pos + 1 :]))
                assert values.tolist() == literal_fold(arr, pos)

    def test_one_fold_per_variable(self, monkeypatch):
        from spiderbp import jtree

        calls = []
        monkeypatch.setattr(jtree, "_fold_read", lambda *args: calls.append(args) or _fold_read(*args))
        g = random_loopy(np.random.default_rng(353), max_vars=10)
        result = run_junction_tree(g, RunConfig())
        assert len(calls) == len(g.variables)
        marginal_from_clique(result, 0, result.tree.cliques[0].members[0], RunConfig())
        assert len(calls) == len(g.variables) + 1

    def test_beliefs_are_read_only(self):
        g = random_loopy(np.random.default_rng(354), max_vars=10)
        result = run_junction_tree(g, RunConfig())
        for belief in result.clique_beliefs.values():
            assert not belief.data.flags.writeable
            with pytest.raises(ValueError):
                belief.as_array()[(0,) * belief.rank] = 1.0
        for message in result.variable_beliefs.values():
            assert not message.values.flags.writeable

    def test_variable_beliefs_come_in_graph_order(self):
        # a native file may list its variables in any id order
        rng = np.random.default_rng(355)
        orders = []
        for _ in range(10):
            doc = graph_to_document(random_loopy(rng, max_vars=10))
            doc["variables"] = [doc["variables"][int(i)] for i in rng.permutation(len(doc["variables"]))]
            g, _ = parse_native(json.dumps(doc))
            orders.append([v.id for v in g.variables])
            assert list(run_junction_tree(g, RunConfig()).variable_beliefs) == orders[-1]
        assert any(order != sorted(order) for order in orders)


def jt_bits(result):
    """Every field and belief of a ``JTResult``, as comparable bits."""
    z = result.contraction_value
    return (
        type(z), repr(z), result.semiring, result.contradiction, result.tree,
        [(vid, m.obj, bits(m.values), m.values.flags.writeable) for vid, m in result.variable_beliefs.items()],
        [(cid, b.shape, bits(b.data), b.data.flags.writeable) for cid, b in result.clique_beliefs.items()],
    )


def complete_graph(n):
    """n binary variables, a factor on every pair: one clique of 2**n states."""
    return build_graph([2] * n, [(pair, [1.0, 2.0, 2.0, 1.0]) for pair in combinations(range(n), 2)], PROB)


class TestOneJunctionTreePerGraph:
    """A graph compiles its junction tree (the tree, clique potentials and
    send program) on its first run and every later run only propagates;
    the compile holds no reference back to the graph."""

    def test_one_build_and_one_potential_per_clique(self, monkeypatch):
        builds, potentials = [], []
        build, potential = jtree.build_junction_tree, jtree._clique_potential
        monkeypatch.setattr(jtree, "build_junction_tree", lambda g: builds.append(id(g)) or build(g))
        monkeypatch.setattr(jtree, "_clique_potential", lambda *args: potentials.append(args[2].id) or potential(*args))
        rng = np.random.default_rng(360)
        g = with_odd_factors(rng, random_loopy(rng, max_vars=10, extra_edges=(2, 6)), "prob")
        results = [run_junction_tree(g, RunConfig(normalize=n)) for n in (True, False, True, False)]
        results.append(run_junction_tree(g, RunConfig(semiring="prob")))
        cliques = results[0].tree.cliques
        assert builds == [id(g)] and potentials == [c.id for c in cliques] and len(cliques) > 2
        assert all(r.tree is results[0].tree for r in results)
        other = fresh(g)
        assert jt_bits(run_junction_tree(other, RunConfig())) == jt_bits(results[0])
        assert builds == [id(g), id(other)] and len(potentials) == 2 * len(cliques)

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool", "dual"])
    def test_a_kept_compile_runs_as_a_fresh_graph(self, name):
        rng = np.random.default_rng(361)
        for _ in range(6):
            if name == "dual":
                base = with_odd_factors(rng, random_loopy(rng, max_vars=9, extra_edges=(1, 5)), "prob")
                g = dual_seed(base, int(rng.integers(len(base.factors))), 0)
            else:
                g = with_odd_factors(rng, random_loopy(rng, name, max_vars=9, extra_edges=(1, 5)), name)
            for cfg in [RunConfig(normalize=n) for n in (True, False)] * 2:
                assert jt_bits(run_junction_tree(g, cfg)) == jt_bits(run_junction_tree(fresh(g), cfg)), cfg
        variable_free = build_graph([], [((), table_for(rng, name if name != "dual" else "prob", 1))] * 2, name)
        assert jt_bits(run_junction_tree(variable_free, RunConfig())) == jt_bits(run_junction_tree(fresh(variable_free), RunConfig()))

    def test_every_kept_array_is_read_only(self):
        rng = np.random.default_rng(362)
        g = with_odd_factors(rng, random_loopy(rng, max_vars=10, extra_edges=(2, 6)), "prob")
        result = run_junction_tree(g, RunConfig())
        kept = g.__dict__["_junction_tree"]
        arrays = list(kept_arrays(vars(kept)))
        assert len(arrays) == len(result.tree.cliques) > 2
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            kept.potentials[0][...] = 0.0
        with pytest.raises(TypeError):
            result.tree.variable_to_clique[0] = 1
        assert jt_bits(run_junction_tree(g, RunConfig())) == jt_bits(result)

    def test_a_failed_compile_keeps_nothing(self, monkeypatch):
        builds, build = [], jtree.build_junction_tree
        monkeypatch.setattr(jtree, "build_junction_tree", lambda g: builds.append(id(g)) or build(g))
        g = complete_graph(25)
        for _ in range(2):
            with pytest.raises(CliqueTooLargeError):
                run_junction_tree(g, RunConfig())
        assert builds == [id(g)] * 2 and "_junction_tree" not in g.__dict__
        bad = FactorGraph(  # its factor names a variable it does not have
            (VariableNode(0, ObjectType("a", 2)),), (FactorNode(0, DenseTensor((2, 2), np.ones(4)), (0, 1)),)
        )
        for _ in range(2):
            with pytest.raises(ValidationError, match="unknown variable 1"):
                run_junction_tree(bad, RunConfig())
        assert "_junction_tree" not in bad.__dict__

    def test_another_semiring_still_raises_after_the_compile(self):
        g = loopy_square()
        first = run_junction_tree(g, RunConfig())
        for name in ("count", "maxtimes"):
            with pytest.raises(ValidationError, match=f"not {name}"):
                run_junction_tree(g, RunConfig(semiring=name))
        assert jt_bits(run_junction_tree(g, RunConfig(semiring="prob"))) == jt_bits(first)

    def test_a_dropped_graph_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            g = random_loopy(np.random.default_rng(363), max_vars=10)
            results = [run_junction_tree(g, RunConfig()), run_junction_tree(g, RunConfig(normalize=False))]
            refs = [weakref.ref(x) for x in (g, g.__dict__["_junction_tree"])]
            tree_ref = weakref.ref(results[0].tree)
            del g
            freed = all(ref() is None for ref in refs) and tree_ref() is not None  # results hold the tree only
            del results
            freed = freed and tree_ref() is None
        finally:
            gc.enable()
        assert freed
