"""Message-passing engine: schedules, exactness, contraction, decoding."""

import math

import numpy as np
import pytest

from spiderbp import (
    BOOL,
    COUNT,
    DUAL,
    PROB,
    DualNumber,
    GraphMode,
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
    init_messages,
    run_bp,
    run_junction_tree,
    sweep_synchronous,
    tree_info,
    two_pass_schedule,
)
from spiderbp import engine
from spiderbp.engine import beliefs, contraction_from_state

from fixtures import brute_force_count, random_loopy, random_tree, random_tree_csp


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
        assert cfg.semiring == "prob"
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
        for msg in state.var_to_factor.values():
            assert np.allclose(msg.values, [0.5, 0.5])
        assert state.iteration == 0

    def test_raw_units_when_unnormalized(self):
        g = chain3()
        state = init_messages(g, RunConfig(normalize=False))
        for msg in state.factor_to_var.values():
            assert msg.values.tolist() == [1.0, 1.0]

    def test_count_units(self):
        g = build_graph([2, 2], [((0, 1), [1, 1, 1, 1])], COUNT)
        state = init_messages(g, RunConfig(semiring="count"))
        for msg in state.var_to_factor.values():
            assert msg.values.tolist() == [1, 1]


class TestTwoPassSchedule:
    def test_chain_rooted_at_far_end(self):
        g = build_graph([2, 2], [((0, 1), [1.0] * 4)], PROB)
        order = two_pass_schedule(g, root=1)
        assert order == [
            ("v2f", 0, 0),  # v0 up to f0
            ("f2v", 0, 1),  # f0 up to the root v1
            ("v2f", 0, 1),  # v1 back down
            ("f2v", 0, 0),  # f0 back down to v0
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
        g = chain3()
        order = two_pass_schedule(g, root=2)
        up = order[: len(order) // 2]
        # v1 cannot send to f1 (where it sits on axis 0) before f0
        # delivered v0's side
        assert up.index(("f2v", 0, 1)) < up.index(("v2f", 1, 0))

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
        g = chain3()
        a = run_bp(g, RunConfig(schedule="tree"), root=0)
        b = run_bp(g, RunConfig(schedule="tree"), root=2)
        for v in g.variables:
            assert np.allclose(
                a.variable_beliefs[v.id].values, b.variable_beliefs[v.id].values
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
        from spiderbp import sweep_synchronous

        rng = np.random.default_rng(41)
        for _ in range(10):
            g = random_tree(rng, "prob")
            cfg = RunConfig()
            result = run_bp(g, cfg)
            assert result.converged
            again = sweep_synchronous(g, result.state, cfg)
            assert again.residual <= cfg.tol


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


class TestContractionValue:
    def test_equality_pair_count(self):
        g = build_graph([2, 2], [((0, 1), [1, 0, 0, 1])], COUNT)
        assert contraction_value(g, RunConfig(semiring="count", schedule="tree", normalize=False)) == 2

    def test_default_config_prob(self):
        g = chain3()
        assert np.isclose(contraction_value(g), exact_contraction(g, PROB), rtol=1e-12)

    def test_matches_brute_force_counts(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = random_tree_csp(rng)
            cfg = RunConfig(semiring="count", schedule="tree", normalize=False)
            assert contraction_value(g, cfg) == brute_force_count(g)

    def test_root_invariance(self):
        g = chain3()
        values = [contraction_value(g, root=r) for r in (0, 1, 2)]
        assert all(np.isclose(v, values[0], rtol=1e-12) for v in values)

    def test_forest_multiplies_components(self):
        g = build_graph(
            [2, 2, 3],
            [((0, 1), [1, 0, 0, 1])],
            COUNT,
        )
        cfg = RunConfig(semiring="count", schedule="tree", normalize=False)
        # equality pair has 2 states; the isolated variable contributes 3
        assert contraction_value(g, cfg) == 2 * 3

    def test_rank0_factor_multiplies_in(self):
        from spiderbp import DenseTensor, FactorGraph, FactorNode, VariableNode, ObjectType

        g = FactorGraph(
            (VariableNode(0, ObjectType("a", 2)),),
            (
                FactorNode(0, DenseTensor.from_values((2,), [1, 1], COUNT), (0,)),
                FactorNode(1, DenseTensor.from_values((), [5], COUNT), ()),
            ),
        )
        cfg = RunConfig(semiring="count", schedule="tree", normalize=False)
        assert contraction_value(g, cfg) == 2 * 5

    def test_requires_unnormalized(self):
        with pytest.raises(ValidationError):
            contraction_value(chain3(), RunConfig(normalize=True))


class TestDecodeMap:
    def test_recovers_exact_argmax_on_tree(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_tree(rng, "maxtimes", max_vars=6)
            cfg = RunConfig(semiring="maxtimes", schedule="tree")
            result = run_bp(g, cfg)
            decoded = decode_map(g, result.state, "maxtimes")
            best, best_value = exact_argmax(g)
            got = float(evaluate_assignment(g, "maxtimes", decoded))
            assert np.isclose(got, best_value, rtol=1e-12)

    def test_tie_goes_to_lowest_index(self):
        g = build_graph([3], [((0,), [0.5, 0.5, 0.2])], PROB)
        result = run_bp(g, RunConfig(semiring="maxtimes", schedule="tree"))
        decoded = decode_map(g, result.state, "maxtimes")
        assert decoded == {0: 0}

    def test_needs_total_order(self):
        g = chain3()
        result = run_bp(g, RunConfig(schedule="tree"))
        with pytest.raises(NoTotalOrderError):
            decode_map(g, result.state, "dual")


class TestEvaluateAssignment:
    def test_product_of_entries(self):
        g = chain3()
        v = evaluate_assignment(g, PROB, {0: 1, 1: 0, 2: 1})
        assert np.isclose(v, 3.0 * 6.0 * 0.75)


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
        cfg = RunConfig(semiring="dual", schedule="tree", normalize=False)
        z = contraction_value(lifted, cfg)
        assert z.real == 2.0 * 10.0 + 5.0 * 20.0
        assert z.eps == 20.0  # dZ / du[1]

    def test_real_parts_match_prob_run(self):
        rng = np.random.default_rng(19)
        g = random_tree(rng, "prob", max_vars=6)
        lifted = dual_seed(g, 0, 0)
        cfg = RunConfig(semiring="dual", schedule="tree", normalize=False)
        z = contraction_value(lifted, cfg)
        assert np.isclose(z.real, exact_contraction(g, PROB), rtol=1e-12)

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


class TestBipartiteMode:
    def bipartite_pair(self):
        # one node with a copy tensor between two unary factors
        return build_graph(
            [2],
            [((0,), [1.0, 2.0]), ((0,), [3.0, 4.0])],
            PROB,
            mode=GraphMode.BIPARTITE,
            var_tensors={0: [1.0, 0.0, 0.0, 1.0]},
        )

    def test_tree_run_beliefs_are_node_tensors(self):
        g = self.bipartite_pair()
        result = run_bp(g, RunConfig(schedule="tree", normalize=False))
        assert result.converged
        belief = result.variable_beliefs[0]
        assert belief.shape == (2, 2)
        assert belief.as_array().tolist() == [[3.0, 0.0], [0.0, 8.0]]

    def test_contraction_matches_oracle(self):
        g = self.bipartite_pair()
        cfg = RunConfig(schedule="tree", normalize=False)
        assert np.isclose(contraction_value(g, cfg), exact_contraction(g, PROB))

    def test_sync_agrees_with_tree(self):
        g = self.bipartite_pair()
        a = run_bp(g, RunConfig(schedule="sync", normalize=False))
        b = run_bp(g, RunConfig(schedule="tree", normalize=False))
        assert a.converged
        assert np.allclose(
            a.variable_beliefs[0].as_array(), b.variable_beliefs[0].as_array()
        )

    def test_decoupling_node_changes_the_value(self):
        g = build_graph(
            [2],
            [((0,), [1.0, 2.0]), ((0,), [3.0, 4.0])],
            PROB,
            mode=GraphMode.BIPARTITE,
            var_tensors={0: [1.0, 1.0, 1.0, 1.0]},
        )
        cfg = RunConfig(schedule="tree", normalize=False)
        assert np.isclose(contraction_value(g, cfg), (1 + 2) * (3 + 4))


class TestValidationGate:
    def test_run_bp_validates_first(self):
        from spiderbp import DenseTensor, FactorGraph, FactorNode, VariableNode, ObjectType

        bad = FactorGraph(
            (VariableNode(0, ObjectType("a", 2)),),
            (FactorNode(0, DenseTensor.from_values((3,), [1.0] * 3, PROB), (0,)),),
        )
        with pytest.raises(ValidationError):
            run_bp(bad, RunConfig())


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


class TestMessageState:
    def test_another_graph_or_semiring_is_rejected(self):
        g, twin = (random_loopy(np.random.default_rng(51)) for _ in range(2))
        cfg = RunConfig()
        state = run_bp(g, cfg).state
        maxtimes = RunConfig(semiring="maxtimes")
        for other, read_as in ((twin, cfg), (g, maxtimes)):
            with pytest.raises(ValidationError):
                beliefs(other, state, read_as)
            with pytest.raises(ValidationError):
                decode_map(other, state, read_as.semiring)
            with pytest.raises(ValidationError):
                contraction_from_state(other, read_as.semiring, state)
            with pytest.raises(ValidationError):
                sweep_synchronous(other, state, read_as)
        beliefs(g, state, cfg)  # its own graph and semiring are fine

    def test_message_views_are_read_only(self):
        state = init_messages(chain3(), RunConfig())
        with pytest.raises(TypeError):
            state.var_to_factor[(0, 0, 0)] = None
        with pytest.raises(TypeError):
            state.factor_to_var[(0, 0)] = None

    def test_one_sync_sweep_runs_one_op_per_group_and_axis(self, monkeypatch):
        g = spin_glass_grid(np.random.default_rng(52), 10)
        cfg = RunConfig()
        plan = engine._Plan(g, PROB)
        folds, contracts = [], []
        fold_mul, contract = engine._fold_mul, engine._TensorGroup.contract

        def counted_fold(semiring, msgs):
            folds.append(msgs.shape)
            return fold_mul(semiring, msgs)

        def counted_contract(group, *args):
            contracts.append(group.shape)
            return contract(group, *args)

        monkeypatch.setattr(engine, "_fold_mul", counted_fold)
        monkeypatch.setattr(engine._TensorGroup, "contract", counted_contract)
        sweep_synchronous(g, init_messages(g, cfg), cfg)
        assert len(folds) == sum(rows.shape[1] >= 2 for _d, _ids, rows in plan.var_groups) == 3
        assert sorted(contracts) == sorted(group.shape for group in plan.factor_groups for _axis in group.shape)
        assert len(contracts) == 3  # (2, 2) tables on both axes, (2,) fields


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

