"""Message-passing engine: schedules, exactness, contraction, decoding."""

import inspect
import math
import re

import numpy as np
import pytest

import spiderbp
from spiderbp import (
    PROB,
    NotATreeError,
    NoTotalOrderError,
    RunConfig,
    ValidationError,
    build_graph,
    contraction_value,
    decode_map,
    dual_seed,
    evaluate_assignment,
    exact_argmax,
    exact_contraction,
    exact_marginal,
    parse_uai,
    run_bp,
    run_junction_tree,
    serialize_uai,
    tree_info,
)
from spiderbp.algebra import BOOL, COUNT, DUAL, DualNumber
from spiderbp.jtree import marginal_from_clique
from spiderbp import engine
from spiderbp.engine import (
    beliefs,
    contraction_derivative,
    contraction_from_state,
    init_messages,
    run_two_pass,
    sweep_synchronous,
    two_pass_schedule,
)

from fixtures import (
    brute_force_count,
    node_between,
    random_forest,
    random_loopy,
    random_tree,
    random_tree_csp,
    relabel,
    wire_messages,
)
from test_plan import same_bits, unpack


def normalized(values):
    arr = np.asarray(values, dtype=np.float64)
    return arr / arr.sum()


def chain3():
    """v0 - f0 - v1 - f1 - v2 with distinct positive tables."""
    return build_graph(
        [2, 2, 2],
        [
            ((0, 1), [1.0, 2.0, 3.0, 4.0]),
            ((1, 2), [5.0, 6.0, 7.0, 8.0]),
            ((0,), [0.25, 0.75]),
        ],
        PROB,
    )


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.semiring is None  # the graph's
        assert cfg.schedule == "sync"
        assert cfg.max_iters == 1000
        assert cfg.tol == 1e-9
        assert cfg.normalize

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig(schedule="flood")
        with pytest.raises(ValueError):
            RunConfig(max_iters=0)
        with pytest.raises(ValueError):
            RunConfig(damping=1.0)
        with pytest.raises(ValueError):
            RunConfig(damping=-0.1)
        with pytest.raises(ValueError):
            RunConfig(semiring="nosuch")

    def test_max_iters_must_be_an_integer_of_at_least_one(self):
        # 2.5 ran 3 sweeps, True 1, and inf never stopped a run that does not converge
        for max_iters in (2.5, 1.0, True, False, np.bool_(True), math.inf, math.nan, "3", None, 0, -1, np.int64(0)):
            with pytest.raises(ValueError, match="^max_iters must be an integer >= 1, got "):
                RunConfig(max_iters=max_iters)
        g = random_loopy(np.random.default_rng(55))
        for max_iters in (2, np.int64(2), np.int32(2)):
            result = run_bp(g, RunConfig(max_iters=max_iters))
            assert result.iterations == 2 and not result.converged

    def test_tol_must_be_finite_and_nonnegative(self):
        # a nan tol passed every residual, an inf one certified any state
        for tol in (math.nan, math.inf, -math.inf, -1e-9):
            with pytest.raises(ValueError, match="tol"):
                RunConfig(tol=tol)
        assert RunConfig(tol=0.0).tol == 0.0

    def test_tol_damping_and_normalize_must_be_of_their_types(self):
        # "x", None and "0.5" raised a bare TypeError, True passed as a tol of 1 and "no" normalized
        for tol in ("x", None, True, False, np.bool_(True), "1e-9", [1e-9], 1j):
            with pytest.raises(ValueError, match=f"^tol must be a finite number >= 0, got {re.escape(repr(tol))}$"):
                RunConfig(tol=tol)
        for damping in ("0.5", None, True, False, np.bool_(False), 0.5j, math.nan, 1, np.float32(-0.5)):
            with pytest.raises(ValueError, match=rf"^damping must be a number in \[0, 1\), got {re.escape(repr(damping))}$"):
                RunConfig(damping=damping)
        for normalize in ("no", "", 0, 1, None, 1.0, np.int64(1)):
            with pytest.raises(ValueError, match=f"^normalize must be a bool, got {re.escape(repr(normalize))}$"):
                RunConfig(normalize=normalize)
        # a semiring object passed and then failed every run; an unhashable name raised a bare TypeError
        for semiring in (PROB, ["prob"], 1):
            with pytest.raises(ValueError, match=f"^semiring must be None or a registry name, got {re.escape(repr(semiring))}$"):
                RunConfig(semiring=semiring)
        # numpy numbers and bools pass, and are kept as given
        cfg = RunConfig(tol=np.float32(1e-6), damping=np.float64(0.25), normalize=np.bool_(False))
        assert (type(cfg.tol), type(cfg.damping), type(cfg.normalize)) == (np.float32, np.float64, np.bool_)
        assert RunConfig(tol=0, damping=np.int64(0)).tol == 0
        g = random_loopy(np.random.default_rng(56))
        want = run_bp(g, RunConfig(tol=1e-6, damping=0.25, max_iters=30))
        got = run_bp(g, RunConfig(tol=np.float64(1e-6), damping=np.float64(0.25), normalize=np.bool_(True), max_iters=30))
        assert (got.iterations, got.residual) == (want.iterations, want.residual)
        assert all(np.array_equal(got.variable_beliefs[v].values, b.values) for v, b in want.variable_beliefs.items())

    def test_damping_restricted_to_prob_sync(self):
        with pytest.raises(ValueError):
            RunConfig(semiring="count", damping=0.5)
        with pytest.raises(ValueError):
            RunConfig(schedule="tree", damping=0.5)
        RunConfig(semiring="prob", schedule="sync", damping=0.5)  # fine


class TestInitMessages:
    def test_normalized_units(self):
        g = chain3()
        state = init_messages(g, RunConfig())
        for msg in unpack(g, state).var_to_factor.values():
            assert np.allclose(msg.values, [0.5, 0.5])
        assert state.iteration == 0

    def test_raw_units_when_unnormalized(self):
        g = chain3()
        state = init_messages(g, RunConfig(normalize=False))
        for msg in unpack(g, state).factor_to_var.values():
            assert msg.values.tolist() == [1.0, 1.0]

    def test_count_units(self):
        g = build_graph([2, 2], [((0, 1), [1, 1, 1, 1])], COUNT)
        state = init_messages(g, RunConfig(semiring="count"))
        for msg in unpack(g, state).var_to_factor.values():
            assert msg.values.tolist() == [1, 1]


class TestTwoPassSchedule:
    def test_chain_rooted_at_far_end(self):
        # v1 - f0 - v0 with v0 on axis 1: the root sits at the far end
        g = relabel(build_graph([2, 2], [((0, 1), [1.0] * 4)], PROB), {0: 1, 1: 0})
        order = two_pass_schedule(g)
        assert order == [
            ("v2f", 0, 0),  # v1 up to f0
            ("f2v", 0, 1),  # f0 up to the root v0
            ("v2f", 0, 1),  # v0 back down
            ("f2v", 0, 0),  # f0 back down to v1
        ]

    def test_every_directed_wire_exactly_once(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_tree(rng, "prob")
            order = two_pass_schedule(g)
            assert len(order) == 2 * len(g.wires)
            assert len(set(order)) == len(order)
            for fid, axis in g.wires:
                assert ("v2f", fid, axis) in order
                assert ("f2v", fid, axis) in order

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        g = random_tree(rng, "prob")
        assert two_pass_schedule(g) == two_pass_schedule(g)

    def test_children_finish_before_parents_send(self):
        # chain3 rooted at its far end: v2 - f0 - v1 - f1 - v0
        g = relabel(chain3(), {0: 2, 2: 0})
        order = two_pass_schedule(g)
        up = order[: len(order) // 2]
        # v1 cannot send to f1 (where it sits on axis 0) before f0
        # delivered v2's side
        assert up.index(("f2v", 0, 1)) < up.index(("v2f", 1, 0))

    def test_forest_with_ties_isolated_variable_and_rank0_factor(self):
        # component A: v0 - f3 - v1 and v0 - f0 - v2; v3 alone; f1 of rank 0;
        # component B: v4 - f2 - v5 - f5 and v4 - f4 - (v6, v7), rooted at
        # v4, its smallest id (v4 and v5 swapped from the scopes below)
        scopes = [(2, 0), (), (5, 4), (0, 1), (6, 5, 7), (4,)]
        g = relabel(build_graph([2] * 8, [(s, [1.0] * 2 ** len(s)) for s in scopes], PROB), {4: 5, 5: 4})
        up = [
            ("v2f", 3, 1),  # depth 2 in A: v1, then v2
            ("v2f", 0, 0),
            ("f2v", 0, 1),  # depth 1 in A: f0, then f3
            ("f2v", 3, 0),
            ("f2v", 5, 0),  # depth 3 in B: f5
            ("v2f", 2, 1),  # depth 2 in B: v5, v6, v7
            ("v2f", 4, 0),
            ("v2f", 4, 2),
            ("f2v", 2, 0),  # depth 1 in B: f2, then f4
            ("f2v", 4, 1),
        ]
        down = [("f2v" if kind == "v2f" else "v2f", fid, axis) for kind, fid, axis in reversed(up)]
        assert two_pass_schedule(g) == up + down

    def test_rejects_cycles_and_multi_wires(self):
        loopy = build_graph(
            [2, 2],
            [((0, 1), [1.0] * 4), ((0, 1), [1.0] * 4)],
            PROB,
        )
        with pytest.raises(NotATreeError):
            two_pass_schedule(loopy)
        diag = build_graph([2], [((0, 0), [1.0] * 4)], PROB)
        with pytest.raises(NotATreeError):
            two_pass_schedule(diag)


class TestTreeExactness:
    def test_chain_matches_oracle(self):
        g = chain3()
        result = run_bp(g, RunConfig(schedule="tree"))
        assert result.converged and result.iterations == 1
        for v in g.variables:
            expected = normalized(exact_marginal(g, PROB, v.id))
            assert np.allclose(result.variable_beliefs[v.id].values, expected, atol=1e-12)

    def test_factor_beliefs_are_joint_marginals(self):
        g = chain3()
        result = run_bp(g, RunConfig(schedule="tree", normalize=False))
        # unnormalized factor belief sums to the contraction value
        z = exact_contraction(g, PROB)
        for f in g.factors:
            belief = result.factor_beliefs[f.id]
            assert np.isclose(belief.data.sum(), z, rtol=1e-12)

    def test_count_semiring_exact(self):
        rng = np.random.default_rng(5)
        g = random_tree_csp(rng)
        result = run_bp(g, RunConfig(semiring="count", schedule="tree"))
        for v in g.variables:
            expected = exact_marginal(g, COUNT, v.id).tolist()
            assert result.variable_beliefs[v.id].values.tolist() == expected

    def test_root_choice_does_not_matter(self):
        # the relabelled copy closes at the old v2
        g, swap = chain3(), {0: 2, 2: 0}
        a = run_bp(g, RunConfig(schedule="tree"))
        b = run_bp(relabel(g, swap), RunConfig(schedule="tree"))
        for v in g.variables:
            np.testing.assert_allclose(
                a.variable_beliefs[v.id].values, b.variable_beliefs[swap.get(v.id, v.id)].values, rtol=1e-12
            )


class TestSyncSchedule:
    def test_converges_within_diameter_on_trees(self):
        g = chain3()
        info = tree_info(g)
        result = run_bp(g, RunConfig(schedule="sync"))
        assert result.converged
        assert result.iterations <= info.diameter
        for v in g.variables:
            expected = normalized(exact_marginal(g, PROB, v.id))
            assert np.allclose(result.variable_beliefs[v.id].values, expected, atol=1e-9)

    def test_not_converged_when_starved(self):
        g = chain3()
        result = run_bp(g, RunConfig(max_iters=1))
        assert not result.converged
        assert result.iterations == 1
        assert result.residual > 1e-9

    def test_uniform_fixed_point_counts_zero_iterations(self):
        g = build_graph([2, 2], [((0, 1), [1.0] * 4)], PROB)
        result = run_bp(g, RunConfig())
        assert result.converged
        assert result.iterations == 0

    def test_damping_converges_to_same_beliefs(self):
        g = chain3()
        plain = run_bp(g, RunConfig())
        damped = run_bp(g, RunConfig(damping=0.4, max_iters=500))
        assert damped.converged
        for v in g.variables:
            assert np.allclose(
                plain.variable_beliefs[v.id].values,
                damped.variable_beliefs[v.id].values,
                atol=1e-7,
            )

    def test_isolated_variable(self):
        g = build_graph([3], [], PROB)
        result = run_bp(g, RunConfig())
        assert result.converged
        assert np.allclose(result.variable_beliefs[0].values, [1 / 3] * 3)

    def test_loopy_graph_runs(self):
        g = build_graph(
            [2, 2, 2],
            [
                ((0, 1), [2.0, 1.0, 1.0, 2.0]),
                ((1, 2), [2.0, 1.0, 1.0, 2.0]),
                ((0, 2), [2.0, 1.0, 1.0, 2.0]),
                ((0,), [0.8, 0.2]),
            ],
            PROB,
        )
        result = run_bp(g, RunConfig(max_iters=200))
        assert result.converged  # loopy BP settles here, approximately correct
        assert result.variable_beliefs[0].values[0] > 0.5


class TestFixedPointContract:
    def test_extra_sweep_moves_nothing(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g = random_tree(rng, "prob")
            cfg = RunConfig()
            result = run_bp(g, cfg)
            assert result.converged
            again = sweep_synchronous(g, result.state, cfg)
            assert again.residual <= cfg.tol

    def test_a_certified_state_keeps_its_residual(self):
        # tol is the last nonzero residual of a tree run, so the sweep after
        # the one it certifies changes no message: the run keeps the
        # certified state, with its own residual and sweep count
        rng, checked = np.random.default_rng(42), 0
        for _ in range(10):
            g = random_tree(rng, "prob")
            state, residuals = init_messages(g, RunConfig()), [math.inf]
            while residuals[-1] > 0.0 and len(residuals) < 50:
                state = sweep_synchronous(g, state, RunConfig())
                residuals.append(state.residual)
            assert residuals[-1] == 0.0  # a tree reaches its fixed point exactly
            if len(residuals) < 3:
                continue
            checked += 1
            result = run_bp(g, RunConfig(tol=residuals[-2]))
            assert result.converged and result.residual > 0.0
            assert result.state.iteration == result.iterations
            assert result.residual == residuals[result.iterations]
        assert checked >= 5


class TestContradictions:
    def dead_graph(self):
        return build_graph(
            [2, 2],
            [((0,), [0.0, 0.0]), ((0, 1), [1.0, 2.0, 3.0, 4.0])],
            PROB,
        )

    def test_normalized_tree_run_flags_and_keeps_partial_state(self):
        result = run_bp(self.dead_graph(), RunConfig(schedule="tree"))
        assert result.contradiction
        assert not result.converged
        assert result.contradiction_wire is not None
        assert set(result.variable_beliefs) == {0, 1}

    def test_normalized_sync_run_flags(self):
        result = run_bp(self.dead_graph(), RunConfig(schedule="sync"))
        assert result.contradiction

    def test_unnormalized_run_completes_with_zero_mass(self):
        result = run_bp(self.dead_graph(), RunConfig(schedule="tree", normalize=False))
        assert result.converged
        assert result.variable_beliefs[0].values.tolist() == [0.0, 0.0]

    def test_bool_unsat_flags_but_completes(self):
        g = build_graph(
            [2],
            [((0,), [True, False]), ((0,), [False, True])],
            BOOL,
        )
        result = run_bp(g, RunConfig(semiring="bool", schedule="tree"))
        assert result.converged
        assert result.contradiction
        assert result.variable_beliefs[0].values.tolist() == [False, False]

    def test_bool_sat_not_flagged(self):
        g = build_graph([2], [((0,), [False, True])], BOOL)
        result = run_bp(g, RunConfig(semiring="bool"))
        assert result.converged and not result.contradiction
        assert result.variable_beliefs[0].values.tolist() == [False, True]

    @staticmethod
    def seeded_models(rng, name):
        """(graph, is a tree) for the fixtures' trees, forests and loopy
        graphs of ``name``, each as drawn and with about half of its entries
        zeroed, so support may die; dual lifts prob ones, count stays on trees."""
        base = "prob" if name == "dual" else name
        for _ in range(4):
            models = [(random_tree(rng, base), True), (random_forest(rng, base), True)]
            if name != "count":  # count under sync needs a cycle-free graph
                models.append((random_loopy(rng, base), False))
            for g, tree in models:
                zeroed = [(f.neighbors, [type(x)(0) if rng.random() < 0.45 else x for x in f.tensor.data.tolist()]) for f in g.factors]
                for h in (g, build_graph([v.dim for v in g.variables], zeroed, base)):
                    if name == "dual":
                        f = h.factors[int(rng.integers(len(h.factors)))]
                        h = dual_seed(h, f.id, int(rng.integers(f.tensor.size)))
                    yield h, tree

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "count", "bool", "dual"])
    def test_one_rule_names_dead_support(self, name):
        """Every run names dead support as ``beliefs`` does: the state's
        dead wire, else the first dead belief. A bool run flags exactly the
        runs with an all-false message or belief."""
        rng, named = np.random.default_rng(2901), 0
        for g, tree in self.seeded_models(rng, name):
            for schedule in ("sync", "tree") if tree else ("sync",):
                for normalize in (True, False):
                    # few enough sweeps that unnormalized loopy messages stay finite
                    cfg = RunConfig(schedule=schedule, normalize=normalize, max_iters=30 if normalize or tree else 8)
                    result = run_bp(g, cfg)
                    wire = result.state.dead_wire or beliefs(g, result.state, cfg)[2]
                    assert result.contradiction_wire == wire and result.contradiction == (wire is not None)
                    named += wire is not None
                    if name == "bool":
                        columns = [a for arrays in wire_messages(result.state) for a in arrays.values()]
                        dead = any((~a.any(axis=1)).any() for a in columns)
                        dead |= any(not b.values.any() for b in result.variable_beliefs.values())
                        assert result.contradiction == dead
        assert named or name == "count", name  # count never rescales: it names no dead support

    def test_a_wiped_out_domain_is_named_in_variable_order(self):
        # the chain v0 - v1 - v2 - v3 of all-true pairs, v3's unary all-false:
        # every domain is wiped out, v0 first
        pair = [True] * 4
        g = build_graph([2, 2, 2, 2], [((0, 1), pair), ((1, 2), pair), ((2, 3), pair), ((3,), [False, False])], BOOL)
        for schedule in ("sync", "tree"):
            result = run_bp(g, RunConfig(schedule=schedule))
            assert result.contradiction and result.converged, schedule
            assert result.contradiction_wire == beliefs(g, result.state, RunConfig())[2] == ("belief", 0), schedule


class TestContractionValue:
    def test_equality_pair_count(self):
        g = build_graph([2, 2], [((0, 1), [1, 0, 0, 1])], COUNT)
        assert contraction_value(g) == 2

    def test_default_config_prob(self):
        g = chain3()
        assert np.isclose(contraction_value(g), exact_contraction(g, PROB), rtol=1e-12)

    def test_matches_brute_force_counts(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = random_tree_csp(rng)
            assert contraction_value(g) == brute_force_count(g)

    def test_root_invariance(self):
        # each relabelled copy closes at another variable of one graph
        g = chain3()
        values = [contraction_value(relabel(g, {0: r, r: 0})) for r in (0, 1, 2)]
        assert all(np.isclose(v, values[0], rtol=1e-12) for v in values)
        rng = np.random.default_rng(41)
        for name in ("count", "bool"):
            g = random_tree(rng, name)
            values = {contraction_value(relabel(g, {0: r, r: 0})) for r in range(len(g.variables))}
            assert len(values) == 1

    def test_forest_multiplies_components(self):
        g = build_graph(
            [2, 2, 3],
            [((0, 1), [1, 0, 0, 1])],
            COUNT,
        )
        # equality pair has 2 states; the isolated variable contributes 3
        assert contraction_value(g) == 2 * 3

    def test_rank0_factor_multiplies_in(self):
        from spiderbp.graph import FactorGraph, FactorNode, ObjectType, VariableNode
        from spiderbp.tensor import DenseTensor

        g = FactorGraph(
            (VariableNode(0, ObjectType("a", 2)),),
            (
                FactorNode(0, DenseTensor.from_values((2,), [1, 1], COUNT), (0,)),
                FactorNode(1, DenseTensor.from_values((), [5], COUNT), ()),
            ),
            semiring="count",
        )
        assert contraction_value(g) == 2 * 5


class TestDecodeMap:
    def test_recovers_exact_argmax_on_tree(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_tree(rng, "maxtimes", max_vars=6)
            cfg = RunConfig(semiring="maxtimes", schedule="tree")
            result = run_bp(g, cfg)
            decoded = decode_map(g, result.state)
            best, best_value = exact_argmax(g)
            got = float(evaluate_assignment(g, decoded))
            assert np.isclose(got, best_value, rtol=1e-12)

    def test_tie_goes_to_lowest_index(self):
        g = build_graph([3], [((0,), [0.5, 0.5, 0.2])], "maxtimes")
        result = run_bp(g, RunConfig(semiring="maxtimes", schedule="tree"))
        decoded = decode_map(g, result.state)
        assert decoded == {0: 0}

    def test_needs_total_order(self):
        g = dual_seed(chain3(), 0, 0)
        result = run_bp(g, RunConfig(schedule="tree"))
        with pytest.raises(NoTotalOrderError):
            decode_map(g, result.state)


class TestEvaluateAssignment:
    def test_product_of_entries(self):
        g = chain3()
        v = evaluate_assignment(g, {0: 1, 1: 0, 2: 1})
        assert np.isclose(v, 3.0 * 6.0 * 0.75)

    @pytest.mark.parametrize(
        "name, scalar", [("prob", float), ("maxtimes", float), ("count", int), ("bool", bool), ("dual", DualNumber)]
    )
    def test_one_python_scalar_type_per_semiring(self, name, scalar):
        tables = {"count": ([1, 2, 3, 4], [5, 6], [7]), "bool": ([1, 0, 1, 1], [1, 1], [1])}
        pair, unary, rank0 = tables.get(name, ([1.0, 2.0, 3.0, 4.0], [0.5, 1.5], [2.0]))
        g = build_graph([2, 2], [((0, 1), pair), ((0,), unary), ((), rank0)], "prob" if name == "dual" else name)
        if name == "dual":
            g = dual_seed(g, 0, 2)
        v = evaluate_assignment(g, {0: 1, 1: 0})
        assert type(v) is scalar
        assert repr(v) == {
            "prob": "9.0", "maxtimes": "9.0", "count": "126", "bool": "True", "dual": repr(DualNumber(9.0, 3.0)),
        }[name]

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ({0: 1, 1: -1}, "state -1 out of range for variable 1 (3 states)"),
            ({0: 1, 1: 3}, "state 3 out of range for variable 1 (3 states)"),
            ({0: 1, 1: 2**70}, f"state {2**70} out of range for variable 1 (3 states)"),
            ({0: True, 1: 0}, "variable 0's state must be an integer, got True"),
            ({0: np.bool_(True), 1: 0}, "variable 0's state must be an integer, got np.True_"),
            ({0: 1.0, 1: 0}, "variable 0's state must be an integer, got 1.0"),
            ({0: 1}, "variable 1's state must be an integer, got None"),
        ],
    )
    def test_a_bad_or_missing_state_is_named(self, assignment, message):
        g = build_graph([2, 3], [((0, 1), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), ((1,), [1.0, 2.0, 3.0])], "prob")
        with pytest.raises(ValidationError) as err:
            evaluate_assignment(g, assignment)
        assert str(err.value) == message
        # numpy integers of any width are states
        assert evaluate_assignment(g, {0: np.int8(1), 1: np.uint64(2)}) == 6.0 * 3.0

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ({0: 1, 1: -5}, "state -5 out of range for variable 1 (3 states)"),
            ({0: 1}, "variable 1's state must be an integer, got None"),
        ],
    )
    def test_a_variable_on_no_factor_needs_a_state_too(self, assignment, message):
        g = build_graph([2, 3], [((0,), [1.0, 2.0])], "prob")
        with pytest.raises(ValidationError) as err:
            evaluate_assignment(g, assignment)
        assert str(err.value) == message
        assert evaluate_assignment(g, {0: 1, 1: 2}) == 2.0

    @pytest.mark.parametrize("assignment", [[0, 1], None, (1, 2), "01", 3], ids=["list", "None", "tuple", "str", "int"])
    def test_an_assignment_that_is_not_a_mapping_is_a_validation_error_naming_its_type(self, assignment):
        g = build_graph([2, 3], [((0, 1), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])], "prob")
        message = f"^an assignment must be a mapping of variable id to state, got {type(assignment).__name__}$"
        with pytest.raises(ValidationError, match=message):
            evaluate_assignment(g, assignment)

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ({0: 1, 1: 2, 7: 99, "x": None}, "assignment key 7 names none of the 2 variables"),
            ({"x": None, 0: 1, 1: 2}, "assignment key 'x' names none of the 2 variables"),
            ({0: 1, 1: 2, -1: 0}, "assignment key -1 names none of the 2 variables"),
            ({0: 1, 1: 2, 2: 0}, "assignment key 2 names none of the 2 variables"),
            ({0: 1, 7: 2}, "variable 1's state must be an integer, got None"),  # a missing state first
        ],
    )
    def test_a_key_that_names_no_variable_is_named(self, assignment, message):
        g = build_graph([2, 3], [((0,), [1.0, 2.0])], "prob")
        with pytest.raises(ValidationError) as err:
            evaluate_assignment(g, assignment)
        assert str(err.value) == message
        # a key equal to an id names that variable, as a dict lookup finds it
        assert evaluate_assignment(g, {np.int64(0): 1, np.int64(1): 2}) == 2.0
        with pytest.raises(ValidationError, match="^assignment key 0 names none of the 0 variables$"):
            evaluate_assignment(build_graph([], [], "prob"), {0: 1})


class TestDualSeed:
    def test_seed_lands_on_one_entry(self):
        g = build_graph([2], [((0,), [2.0, 5.0])], PROB)
        lifted = dual_seed(g, 0, 1)
        assert lifted.factor(0).tensor.data.tolist() == [
            DualNumber(2.0, 0.0),
            DualNumber(5.0, 1.0),
        ]

    def test_derivative_through_contraction(self):
        # Z = sum_x u[x] * w[x] with u = [2, 5], w = [10, 20]
        g = build_graph(
            [2],
            [((0,), [2.0, 5.0]), ((0,), [10.0, 20.0])],
            PROB,
        )
        lifted = dual_seed(g, 0, 1)
        z = contraction_value(lifted)
        assert z.real == 2.0 * 10.0 + 5.0 * 20.0
        assert z.eps == 20.0  # dZ / du[1]

    def test_real_parts_match_prob_run(self):
        rng = np.random.default_rng(19)
        g = random_tree(rng, "prob", max_vars=6)
        lifted = dual_seed(g, 0, 0)
        z = contraction_value(lifted)
        assert np.isclose(z.real, exact_contraction(g, PROB), rtol=1e-12)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: dual_seed(build_graph([2], [((0,), [1.0, 2.0])], PROB), 0, 0),
            lambda: build_graph([2], [((0,), [10**400, 1])], COUNT),
            lambda: build_graph([2], [((0,), [True, False])], BOOL),
            lambda: build_graph([2], [((0,), [1.0, 2.0])], "maxtimes"),
        ],
        ids=["dual", "count-past-float", "bool", "maxtimes"],
    )
    def test_lifts_prob_graphs_only(self, make):
        g = make()
        with pytest.raises(ValidationError, match=f"not a {g.semiring} graph"):
            dual_seed(g, 0, 0)

    def test_bad_targets_rejected(self):
        g = build_graph([2], [((0,), [1.0, 1.0])], PROB)
        with pytest.raises(ValidationError):
            dual_seed(g, 5, 0)
        with pytest.raises(ValidationError):
            dual_seed(g, 0, 99)

    def test_lift_equals_coercing_each_entry(self):
        rng = np.random.default_rng(29)
        g = random_tree(rng, "prob", max_vars=8)
        for fid in (f.id for f in g.factors):
            for entry in (0, g.factor(fid).tensor.size - 1):
                lifted = dual_seed(g, fid, entry)
                for f, lf in zip(g.factors, lifted.factors):
                    pairs = [[x, 1.0 if (f.id, i) == (fid, entry) else 0.0] for i, x in enumerate(f.tensor.data.tolist())]
                    want = DUAL.coerce(pairs)
                    assert lf.tensor.shape == f.tensor.shape
                    assert lf.tensor.data.dtype == object and not lf.tensor.data.flags.writeable
                    assert [(d.real, d.eps) for d in lf.tensor.data.tolist()] == [(d.real, d.eps) for d in want.tolist()]
                    assert all(type(d.real) is float and type(d.eps) is float for d in lf.tensor.data.tolist())
            with pytest.raises(ValidationError, match="out of range"):
                dual_seed(g, fid, g.factor(fid).tensor.size)
            with pytest.raises(ValidationError, match="out of range"):
                dual_seed(g, fid, -1)


def with_entry(g, fid, entry, value):
    """A copy of ``g`` with one table entry set to ``value``."""
    factors = []
    for f in sorted(g.factors, key=lambda f: f.id):
        values = f.tensor.data.tolist()
        if f.id == fid:
            values[entry] = value
        factors.append((f.neighbors, values))
    return build_graph([v.obj.dim for v in g.variables], factors, g.semiring)


class TestContractionDerivative:
    """dZ/d(entry) is the factor's cavity times every other component's
    value, read off one unnormalized prob two-pass."""

    @staticmethod
    def graphs():
        rng = np.random.default_rng(43)
        graphs = [random_tree(rng, "prob", max_vars=8) for _ in range(10)]
        graphs += [random_forest(rng, "prob", max_vars=8) for _ in range(30)]
        graphs.append(parse_uai(serialize_uai(graphs[-1]))[0])
        return graphs

    def test_value_and_derivative_of_the_dual_route(self):
        for g in self.graphs():
            for f in g.factors:
                zeros = np.flatnonzero(f.tensor.data == 0).tolist()
                for entry in {0, f.tensor.size - 1, *zeros[:1]}:
                    value, derivative = contraction_derivative(g, f.id, entry)
                    z = contraction_value(dual_seed(g, f.id, entry))
                    assert same_bits(value, z.real), (f.id, entry)
                    assert np.isclose(derivative, z.eps, rtol=1e-12, atol=0.0), (f.id, entry)

    def test_derivative_is_the_central_difference(self):
        h = 1e-6
        rng = np.random.default_rng(47)
        for g in self.graphs():
            for f in g.factors:
                entry = int(rng.integers(f.tensor.size))
                _, derivative = contraction_derivative(g, f.id, entry)
                # Z is affine in one entry, so every centre gives its slope;
                # a zero entry is differenced about h, keeping tables >= 0
                c = max(float(f.tensor.data[entry]), h)
                up, down = (exact_contraction(with_entry(g, f.id, entry, c + s), PROB) for s in (h, -h))
                fd = (up - down) / (2 * h)
                assert abs(derivative - fd) <= 1e-6 * max(1.0, abs(fd)), (f.id, entry)

    def test_a_rank0_cavity_is_the_other_components(self):
        # Z = (1 + 2) * 5 * 3, the isolated variable summing its 3 states
        g = build_graph([2, 3], [((0,), [1.0, 2.0]), ((), [5.0])], PROB)
        assert contraction_derivative(g, 1, 0) == (45.0, 9.0)
        assert contraction_derivative(g, 0, 1) == (45.0, 15.0)

    def test_bad_targets_before_the_tree_check(self):
        g = build_graph([2], [((0,), [1.0, 1.0])], PROB)
        with pytest.raises(ValidationError, match="^no factor with id 5$"):
            contraction_derivative(g, 5, 0)
        for entry in (-1, 2):
            with pytest.raises(ValidationError, match=rf"^entry {entry} out of range for factor 0 \(2 entries\)$"):
                contraction_derivative(g, 0, entry)
        loopy = random_loopy(np.random.default_rng(3))
        with pytest.raises(NotATreeError):
            contraction_derivative(loopy, 0, 0)
        with pytest.raises(ValidationError, match="no factor with id"):
            contraction_derivative(loopy, len(loopy.factors), 0)

    @pytest.mark.parametrize("target", [contraction_derivative, dual_seed])
    def test_a_target_must_be_an_integer(self, target):
        # a float or a bool id or entry, which numpy would read or reject
        # in its own words, is named in a ValidationError
        g = build_graph([2, 2], [((0, 1), [1.0, 2.0, 3.0, 4.0]), ((1,), [1.0, 2.0])], PROB)
        for fid, entry, words in [(0.0, 1, "a factor id must be an integer, got 0.0"), (True, 0, "a factor id must be an integer, got True"),
                                  (0, 1.0, "an entry must be an integer, got 1.0"), (0, True, "an entry must be an integer, got True"),
                                  (0, np.bool_(True), "an entry must be an integer, got np.True_|an entry must be an integer, got True")]:
            with pytest.raises(ValidationError, match=f"^({words})$"):
                target(g, fid, entry)
        same = [target(g, fid, entry) for fid, entry in [(0, 1), (np.int64(0), np.int32(1)), (np.uint8(0), np.int64(1))]]
        if target is dual_seed:
            same = [[f.tensor.data.tolist() for f in lifted.factors] for lifted in same]
        assert same[0] == same[1] == same[2]


def uniform_grid(rng, n=4):
    """(dims, factors) of an n x n binary grid with uniform(0.5, 1.5) tables."""
    factors = []
    for i in range(n * n):
        r, c = divmod(i, n)
        for j in ([i + 1] if c + 1 < n else []) + ([i + n] if r + 1 < n else []):
            factors.append(((i, j), rng.uniform(0.5, 1.5, 4).tolist()))
    return [2] * (n * n), factors


def nudged(factors, fid, entry, h):
    """The factor list with one table entry moved by h."""
    out = [(nbrs, list(values)) for nbrs, values in factors]
    out[fid][1][entry] += h
    return out


class TestNormalizedDual:
    """A normalized dual belief is p + (dp/d entry) eps: its eps part is the
    derivative of the normalized prob belief with respect to the seeded
    entry (the quotient rule), on trees and on loops alike."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loopy_sync_converges_with_prob(self, seed):
        rng = np.random.default_rng(seed)
        g = build_graph(*uniform_grid(rng), PROB)
        cfg = RunConfig(schedule="sync")
        prob = run_bp(g, cfg)
        dual = run_bp(dual_seed(g, int(rng.integers(len(g.factors))), int(rng.integers(4))), cfg)
        assert prob.converged and dual.converged
        assert dual.iterations <= prob.iterations + 2
        for v in g.variables:
            real = [x.real for x in dual.variable_beliefs[v.id].values]
            assert np.allclose(real, prob.variable_beliefs[v.id].values, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("shape", ["tree", "loopy-grid"])
    def test_eps_is_the_central_difference(self, shape):
        rng = np.random.default_rng(41)
        if shape == "tree":
            g = random_tree(rng, "prob", max_vars=8)
            dims = [v.obj.dim for v in g.variables]
            factors = [(f.neighbors, f.tensor.data.tolist()) for f in g.factors]
            cfg = RunConfig(schedule="tree")
        else:
            dims, factors = uniform_grid(rng)
            cfg = RunConfig(schedule="sync", tol=1e-13)
        h = 1e-6
        for fid in range(0, len(factors), 3):
            entry = int(rng.integers(len(factors[fid][1])))
            dual = run_bp(dual_seed(build_graph(dims, factors, PROB), fid, entry), cfg)
            up = run_bp(build_graph(dims, nudged(factors, fid, entry, h), PROB), cfg)
            down = run_bp(build_graph(dims, nudged(factors, fid, entry, -h), PROB), cfg)
            assert dual.converged and up.converged and down.converged
            for v in range(len(dims)):
                diff = (up.variable_beliefs[v].values - down.variable_beliefs[v].values) / (2 * h)
                eps = [x.eps for x in dual.variable_beliefs[v].values]
                assert np.allclose(eps, diff, rtol=0, atol=1e-8)


class TestNodeTensorInNormalForm:
    """A node with a tensor of its own, as one variable per wire and the
    tensor as a factor over them (fixtures.normal_form)."""

    def test_node_factor_belief_is_the_weighted_node_tensor(self):
        result = run_bp(node_between([1.0, 0.0, 0.0, 1.0]), RunConfig(schedule="tree", normalize=False))
        assert result.converged
        belief = result.factor_beliefs[2]
        assert belief.shape == (2, 2)
        assert belief.data.tolist() == [3.0, 0.0, 0.0, 8.0]

    def test_contraction_matches_oracle(self):
        g = node_between([1.0, 0.0, 0.0, 1.0])
        assert np.isclose(contraction_value(g), exact_contraction(g, PROB))

    def test_sync_agrees_with_tree(self):
        g = node_between([1.0, 0.0, 0.0, 1.0])
        a = run_bp(g, RunConfig(schedule="sync", normalize=False))
        b = run_bp(g, RunConfig(schedule="tree", normalize=False))
        assert a.converged
        for fid, belief in b.factor_beliefs.items():
            assert np.allclose(a.factor_beliefs[fid].data, belief.data)

    def test_decoupling_node_changes_the_value(self):
        assert np.isclose(contraction_value(node_between([1.0, 1.0, 1.0, 1.0])), (1 + 2) * (3 + 4))


class TestContractionOfOneTable:
    def test_scalar_result(self):
        g = build_graph([2, 2], [((0, 1), [1.0, 2.0, 3.0, 4.0])], PROB)
        assert contraction_value(g) == 10.0

    def test_rank0_passthrough(self):
        g = build_graph([], [((), [5])], COUNT)
        z = contraction_value(g)
        assert z == 5 and type(z) is int

    def test_weighted(self):
        g = build_graph([2], [((0,), [3.0, 4.0]), ((0,), [0.5, 2.0])], PROB)
        assert contraction_value(g) == 3.0 * 0.5 + 4.0 * 2.0


class TestValidationGate:
    def test_run_bp_validates_first(self):
        from spiderbp.graph import FactorGraph, FactorNode, ObjectType, VariableNode
        from spiderbp.tensor import DenseTensor

        bad = FactorGraph(
            (VariableNode(0, ObjectType("a", 2)),),
            (FactorNode(0, DenseTensor.from_values((3,), [1.0] * 3, PROB), (0,)),),
        )
        with pytest.raises(ValidationError):
            run_bp(bad, RunConfig())

    @staticmethod
    def dangling():
        """A hand-built graph whose factor names a variable it does not have."""
        from spiderbp.graph import FactorGraph, FactorNode, ObjectType, VariableNode
        from spiderbp.tensor import DenseTensor

        return FactorGraph(
            (VariableNode(0, ObjectType("a", 2)),),
            (FactorNode(0, DenseTensor((2, 2), np.ones(4)), (0, 1)),),
        )

    def test_init_messages_compiles_only_a_valid_graph(self):
        g = self.dangling()
        with pytest.raises(ValidationError, match="unknown variable 1"):
            init_messages(g, RunConfig())
        assert "_plan" not in g.__dict__

    def test_run_two_pass_compiles_only_a_valid_graph(self):
        g = self.dangling()
        with pytest.raises(ValidationError, match="unknown variable 1"):
            run_two_pass(g, RunConfig(schedule="tree"))
        assert "_plan" not in g.__dict__

    def test_count_under_sync_is_validated_before_its_tree_check(self):
        g = self.dangling()
        g = type(g)(g.variables, g.factors, semiring="count")
        with pytest.raises(ValidationError, match="unknown variable 1"):
            run_bp(g, RunConfig())


def k4(semiring=COUNT):
    """Four binary variables, an all-ones table on every pair."""
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    return build_graph([2] * 4, [(pair, [1] * 4) for pair in pairs], semiring)


def spin_glass_grid(rng, n):
    """An n x n binary grid with random couplings and fields."""
    factors = []
    for i in range(n * n):
        r, c = divmod(i, n)
        for j in ([i + 1] if c + 1 < n else []) + ([i + n] if r + 1 < n else []):
            coupling = rng.normal()
            factors.append(((i, j), np.exp([coupling, -coupling, -coupling, coupling]).tolist()))
        field = rng.normal()
        factors.append(((i,), np.exp([field, -field]).tolist()))
    return build_graph([2] * (n * n), factors, PROB)


def small_chain(name):
    """Three binary variables in a chain, tables valid in every semiring."""
    factors = [((0, 1), [1, 0, 1, 1]), ((1, 2), [1, 1, 0, 1]), ((0,), [1, 1])]
    return build_graph([2, 2, 2], factors, name)


class TestTheGraphOwnsItsSemiring:
    def test_an_unnamed_config_runs_the_graphs_semiring(self):
        z = contraction_value(build_graph([2, 2], [((0, 1), [1, 2, 3, 4])], "count"))
        assert z == 10 and type(z) is int
        g = build_graph([2], [((0,), [True, False])], "bool")
        for schedule in ("sync", "tree"):
            values = run_bp(g, RunConfig(schedule=schedule)).variable_beliefs[0].values
            assert values.dtype == np.bool_ and values.tolist() == [True, False]
        assert run_junction_tree(g, RunConfig()).variable_beliefs[0].values.tolist() == [True, False]

    @pytest.mark.parametrize(
        "name, other",
        [("prob", "count"), ("prob", "dual"), ("prob", "maxtimes"), ("count", "prob"), ("bool", "prob")],
    )
    @pytest.mark.parametrize("schedule", ["sync", "tree"])
    def test_another_semiring_is_rejected_everywhere(self, name, other, schedule):
        g = small_chain(name)
        own = RunConfig(schedule=schedule, normalize=False)
        cfg = RunConfig(semiring=other, schedule=schedule, normalize=False)
        state = init_messages(g, own)
        jt = run_junction_tree(g, own)
        calls = [
            lambda: run_bp(g, cfg),
            lambda: init_messages(g, cfg),
            lambda: beliefs(g, state, cfg),
            lambda: sweep_synchronous(g, state, cfg),
            lambda: run_two_pass(g, cfg),
            lambda: run_junction_tree(g, cfg),
            lambda: marginal_from_clique(jt, 0, 0, cfg),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=f"live in {name}, not {other}"):
                call()
        # naming the graph's own semiring is the same as naming none
        named = RunConfig(semiring=name, schedule=schedule, normalize=False)
        z = [contraction_from_state(g, run_two_pass(g, c)) for c in (named, own)]
        assert repr(z[0]) == repr(z[1])

    def test_damping_needs_a_prob_graph(self):
        with pytest.raises(ValueError, match="damping"):
            run_bp(small_chain("count"), RunConfig(damping=0.5))
        assert run_bp(small_chain("prob"), RunConfig(damping=0.5)).converged


class TestMessageState:
    def test_another_graph_is_rejected(self):
        g, twin = (random_loopy(np.random.default_rng(51)) for _ in range(2))
        cfg = RunConfig()
        state = run_bp(g, cfg).state
        with pytest.raises(ValidationError):
            beliefs(twin, state, cfg)
        with pytest.raises(ValidationError):
            decode_map(twin, state)
        with pytest.raises(ValidationError):
            contraction_from_state(twin, state)
        with pytest.raises(ValidationError):
            sweep_synchronous(twin, state, cfg)
        beliefs(g, state, cfg)  # its own graph is fine

    @pytest.mark.parametrize(
        "entry",
        [
            lambda g, state, cfg: beliefs(g, state, cfg),
            lambda g, state, cfg: decode_map(g, state),
            lambda g, state, cfg: contraction_from_state(g, state),
            lambda g, state, cfg: sweep_synchronous(g, state, cfg),
        ],
        ids=["beliefs", "decode_map", "contraction_from_state", "sweep_synchronous"],
    )
    def test_anything_but_a_message_state_is_a_validation_error_naming_its_type(self, entry):
        g, cfg = random_tree(np.random.default_rng(53)), RunConfig()
        state = run_bp(g, cfg).state
        for wrong in (None, "x", [state], {"_plan": state._plan}):
            with pytest.raises(ValidationError, match=f"^a message state must be a MessageState, got {type(wrong).__name__}$"):
                entry(g, wrong, cfg)
        entry(g, state, cfg)  # a state of the graph is fine

    def test_one_sync_sweep_runs_one_op_per_spider_group_and_oriented_shape(self, monkeypatch):
        g = spin_glass_grid(np.random.default_rng(52), 10)
        cfg = RunConfig()
        plan = engine._Plan(g)
        folds, contractions = [], []
        fold, contracted = engine._fold_ragged, engine._Stack.contracted

        def counted_fold(semiring, msgs, ends, into):
            folds.append((msgs.shape, ends, into.shape))
            return fold(semiring, msgs, ends, into)

        def counted_contracted(stack, *args):
            contractions.append(stack.shape)
            return contracted(stack, *args)

        monkeypatch.setattr(engine, "_fold_ragged", counted_fold)
        monkeypatch.setattr(engine._Stack, "contracted", counted_contracted)
        sweep_synchronous(g, init_messages(g, cfg), cfg)
        # one ragged fold for the one dim: 64 interior variables of degree 5, 32 edge ones of
        # degree 4 and 4 corners of degree 3 send on 320 + 128 + 12 = 460 wires, each folding
        # all but one of its variable's wires; term k reaches the wires that have a k-th
        assert [group.dim for group in plan.var_groups] == [2]
        assert folds == [((2 * (460 + 460 + 448 + 320),), (460, 460, 448, 320), (2, 460))]
        assert len(plan._sync_program[0]) == 3
        # (2,) fields, and (2, 2) tables sending on both axes in one op
        assert sorted(contractions) == [(2,), (2, 2)]

    def test_two_pass_runs_one_op_per_level_on_a_chain_facing_both_ways(self):
        rng = np.random.default_rng(54)
        n = 200
        pairs = [(i, i + 1) if rng.random() < 0.5 else (i + 1, i) for i in range(n - 1)]
        factors = [(pair, rng.uniform(0.5, 1.5, 4).tolist()) for pair in pairs]
        factors += [((i,), rng.uniform(0.5, 1.5, 2).tolist()) for i in range(n)]
        g = build_graph([2] * n, factors, PROB)
        plan = engine._Plan(g)
        program = plan._tree_program
        assert len(program) == 2 * n
        assert all(len(ops) == 1 for ops in program)


class TestCountNeedsATreeUnderSync:
    def test_count_sync_on_a_cycle_is_a_validation_error(self):
        g = k4()
        for max_iters in (30, 1000):
            with pytest.raises(ValidationError, match="--schedule tree.*jtree"):
                run_bp(g, RunConfig(semiring="count", max_iters=max_iters))
        assert run_junction_tree(g, RunConfig(semiring="count")).contraction_value == 16

    def test_count_trees_and_other_semirings_still_run(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            assert run_bp(random_tree(rng, "count"), RunConfig(semiring="count")).converged
        assert run_bp(k4(PROB), RunConfig()).converged
        assert run_bp(k4(BOOL), RunConfig(semiring="bool")).converged


class TestPublicApiWidth:
    def test_no_root_parameter_and_35_public_names(self):
        # every component closes at its smallest variable id; no caller picks a root
        assert len(spiderbp.__all__) == 35
        for fn in (run_bp, engine.run_two_pass, contraction_value, engine.contraction_from_state, two_pass_schedule):
            assert "root" not in inspect.signature(fn).parameters, fn.__name__

    def test_no_surface_that_only_tests_read(self):
        # a closed diagram has one value: contraction takes the graph alone
        assert list(inspect.signature(contraction_value).parameters) == ["g"]
        # a run's state is read through beliefs, decode_map and contraction_from_state
        state = init_messages(chain3(), RunConfig())
        for name in ("var_to_factor", "factor_to_var", "_views"):
            assert not hasattr(state, name), name
        assert not hasattr(engine._Plan, "unpack")
        assert not hasattr(spiderbp.tensor, "permute_axes")
        assert not hasattr(spiderbp.errors, "BadPermutationError")
        assert not hasattr(spiderbp.FactorGraph, "degree")
