"""Brute-force oracle: joint tables, contraction, marginals, argmax."""

import itertools

import numpy as np
import pytest

from spiderbp import (
    PROB,
    FactorGraph,
    TooLargeError,
    ValidationError,
    build_graph,
    contraction_value,
    exact_argmax,
    exact_contraction,
    exact_marginal,
)
from spiderbp.algebra import BOOL, COUNT, DualNumber
from spiderbp.graph import FactorNode, ObjectType, VariableNode
from spiderbp.oracle import assignments, joint_table
from spiderbp.tensor import DenseTensor

from fixtures import node_between, normal_form, peak_bytes, random_tree


class TestAssignments:
    def test_row_major_order(self):
        assert list(assignments((2, 3))) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_empty_dims(self):
        assert list(assignments(())) == [()]


class TestJointTable:
    def test_two_factor_product(self):
        g = build_graph(
            [2, 2],
            [((0, 1), [1.0, 2.0, 3.0, 4.0]), ((1,), [10.0, 100.0])],
            PROB,
        )
        table = joint_table(g, PROB)
        assert table.tolist() == [[10.0, 200.0], [30.0, 400.0]]

    def test_repeated_neighbor_hits_diagonal(self):
        g = build_graph([2], [((0, 0), [1.0, 2.0, 3.0, 4.0])], PROB)
        table = joint_table(g, PROB)
        # f[x, x] for x in {0, 1}
        assert table.tolist() == [1.0, 4.0]

    def test_rank0_factor_scales_everything(self):
        g = FactorGraph(
            (VariableNode(0, ObjectType("a", 2)),),
            (
                FactorNode(0, DenseTensor.from_values((2,), [1.0, 2.0], PROB), (0,)),
                FactorNode(1, DenseTensor.from_values((), [10.0], PROB), ()),
            ),
        )
        assert joint_table(g, PROB).tolist() == [10.0, 20.0]


class TestExactContraction:
    def test_hand_computed(self):
        g = build_graph([2, 2], [((0, 1), [1.0, 2.0, 3.0, 4.0])], PROB)
        assert exact_contraction(g, PROB) == 10.0

    def test_equality_pair_count(self):
        g = build_graph([2, 2], [((0, 1), [1, 0, 0, 1])], COUNT)
        assert exact_contraction(g, COUNT) == 2

    def test_bool_satisfiability(self):
        sat = build_graph([2], [((0,), [False, True])], BOOL)
        unsat = build_graph([2], [((0,), [False, False])], BOOL)
        assert exact_contraction(sat, BOOL) is True
        assert exact_contraction(unsat, BOOL) is False

    def test_matches_itertools_enumeration(self):
        rng = np.random.default_rng(17)
        g = random_tree(rng, "prob", max_vars=5)
        dims = [v.obj.dim for v in g.variables]
        total = 0.0
        for a in itertools.product(*(range(d) for d in dims)):
            term = 1.0
            for f in g.factors:
                term *= float(f.tensor.entry(tuple(a[v] for v in f.neighbors)))
            total += term
        assert np.isclose(exact_contraction(g, PROB), total, rtol=1e-12)

    def test_oracle_cap(self):
        # 4**12 assignments, over DEFAULT_ORACLE_CAP = 2**22
        g = build_graph([4] * 12, [((0, 1), [1.0] * 16)], PROB)
        with pytest.raises(TooLargeError):
            exact_contraction(g, PROB)

    def test_no_variables(self):
        g = FactorGraph(
            (),
            (FactorNode(0, DenseTensor.from_values((), [7], COUNT), ()),),
        )
        assert exact_contraction(g, COUNT) == 7

    def test_no_variables_count_stays_exact(self):
        # rank-0 factors only: the product must not pass through int64
        g = build_graph([], [((), [2**62]), ((), [4])], COUNT)
        assert exact_contraction(g, COUNT) == 2**64 == contraction_value(g)


class TestExactMarginal:
    def test_prior_through_equality(self):
        g = build_graph(
            [2, 2],
            [((0,), [0.9, 0.1]), ((0, 1), [1.0, 0.0, 0.0, 1.0])],
            PROB,
        )
        assert np.allclose(exact_marginal(g, PROB, 1), [0.9, 0.1])

    def test_unnormalized(self):
        g = build_graph([2, 2], [((0, 1), [1.0, 2.0, 3.0, 4.0])], PROB)
        assert exact_marginal(g, PROB, 0).tolist() == [3.0, 7.0]
        assert exact_marginal(g, PROB, 1).tolist() == [4.0, 6.0]

    def test_wire_variable_of_a_node_tensor(self):
        # the identity node ties its two wires: both see 1*3 and 2*4
        g = node_between([1.0, 0.0, 0.0, 1.0])
        assert exact_marginal(g, PROB, 0).tolist() == [3.0, 8.0]
        assert exact_marginal(g, PROB, 1).tolist() == [3.0, 8.0]


class TestExactArgmax:
    def test_picks_best_cell(self):
        g = build_graph([2, 2], [((0, 1), [1.0, 5.0, 3.0, 4.0])], PROB)
        assignment, value = exact_argmax(g)
        assert assignment == {0: 0, 1: 1}
        assert value == 5.0

    def test_tie_breaks_lexicographically_least(self):
        g = build_graph([2, 2], [((0, 1), [2.0, 1.0, 1.0, 2.0])], PROB)
        assignment, value = exact_argmax(g)
        assert assignment == {0: 0, 1: 0}
        assert value == 2.0

    def test_unary_chain(self):
        g = build_graph(
            [2, 2],
            [((0,), [0.2, 0.8]), ((0, 1), [1.0, 0.5, 0.5, 1.0])],
            PROB,
        )
        assignment, value = exact_argmax(g)
        assert assignment == {0: 1, 1: 1}
        assert np.isclose(value, 0.8)


class TestNodeTensorOracle:
    def test_wire_indices_are_independent(self):
        # a node tensor h between factors a and b: sum over i, j of a[i] h[i, j] b[j]
        assert exact_contraction(node_between([1.0, 0.0, 0.0, 1.0]), PROB) == 1 * 3 + 2 * 4
        # decoupling node: product of sums
        assert exact_contraction(node_between([1.0, 1.0, 1.0, 1.0]), PROB) == (1 + 2) * (3 + 4)

    def test_isolated_node_contributes_its_scalar(self):
        # a degree-0 node carries a rank-0 tensor; it multiplies the total
        g = normal_form([2, 2], [((0,), [1.0, 1.0])], {0: [2.0, 3.0], 1: [5.0]})
        assert exact_contraction(g, PROB) == (1.0 * 2.0 + 1.0 * 3.0) * 5.0


class TestJointTableMemory:
    def test_exact_contraction_peaks_near_the_table(self):
        # an 18-variable binary ring: open grids index each factor, so the
        # joint table is the only full-size array
        rng = np.random.default_rng(343)
        g = build_graph([2] * 18, [((i, (i + 1) % 18), rng.uniform(0.5, 1.5, 4).tolist()) for i in range(18)], PROB)
        assert peak_bytes(exact_contraction, g, PROB) < 4 * 8 * 2**18
