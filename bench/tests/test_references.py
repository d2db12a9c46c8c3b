"""The engine-free references agree with spiderbp's brute-force oracle."""

import math

import numpy as np
import pytest

import checks
import reference as ref
import workloads
from spiderbp import build_graph, exact_argmax, exact_contraction, exact_marginal


def _graph(dims, factors, semiring="prob"):
    return build_graph(dims, [(nb, t.reshape(-1).tolist()) for nb, t in factors], semiring)


def _small_tree(seed, topology, n, d):
    return workloads.tree_model(np.random.default_rng(seed), topology, n, d)


TREES = [(seed, topology, n, d) for seed in range(4) for topology, n, d in
         (("chain", 6, 3), ("tree", 7, 2), ("tree", 5, 4))]


@pytest.mark.parametrize("seed,topology,n,d", TREES)
def test_sum_product_matches_oracle(seed, topology, n, d):
    dims, factors = _small_tree(seed, topology, n, d)
    g = _graph(dims, factors)
    log_z, marginals, _pair = ref.tree_sum_product(dims, factors)
    z = exact_contraction(g, "prob")
    assert math.isclose(log_z, math.log(z), rel_tol=1e-12)
    for v in range(n):
        np.testing.assert_allclose(marginals[v], exact_marginal(g, "prob", v) / z, atol=1e-12)


@pytest.mark.parametrize("seed,topology,n,d", TREES)
def test_viterbi_matches_oracle(seed, topology, n, d):
    dims, factors = _small_tree(seed, topology, n, d)
    assignment, log_value = ref.tree_max_product(dims, factors)
    best, value = exact_argmax(_graph(dims, factors))
    assert assignment == [best[v] for v in range(n)]
    assert math.isclose(log_value, math.log(value), rel_tol=1e-12)


@pytest.mark.parametrize("seed,topology,n,d", TREES)
def test_grad_matches_oracle_difference(seed, topology, n, d):
    # Z is linear in each entry, so dZ/d(theta) = Z(theta=1) - Z(theta=0)
    dims, factors = _small_tree(seed, topology, n, d)
    for k in (0, n, len(factors) - 1):
        entry = (seed + k) % factors[k][1].size

        def z_with(theta):
            table = factors[k][1].copy().reshape(-1)
            table[entry] = theta
            changed = list(factors)
            changed[k] = (factors[k][0], table.reshape(factors[k][1].shape))
            return exact_contraction(_graph(dims, changed), "prob")

        expected = z_with(1.0) - z_with(0.0)
        assert math.isclose(ref.log_grad(dims, factors, k, entry), math.log(expected), rel_tol=1e-10)


@pytest.mark.parametrize("topology,n,q", [("chain", 6, 3), ("tree", 7, 3), ("tree", 5, 4)])
def test_tree_colourings_match_oracle(topology, n, q):
    dims, factors = workloads.colouring_tree(np.random.default_rng(n), topology, n, q)
    g = _graph(dims, factors, "count")
    total, per_state = ref.tree_colourings(n, q)
    assert exact_contraction(g, "count") == total
    assert list(exact_marginal(g, "count", n - 1)) == [per_state] * q


@pytest.mark.parametrize("n,q", [(3, 3), (4, 3), (5, 4), (6, 2), (7, 2)])
def test_cycle_colourings_match_oracle(n, q):
    dims, factors = workloads.colouring_cycle(n, q)
    g = _graph(dims, factors, "count")
    total, per_state = ref.cycle_colourings(n, q)
    assert exact_contraction(g, "count") == total
    assert list(exact_marginal(g, "count", 0)) == [per_state] * q


@pytest.mark.parametrize("seed,side,d", [(0, 2, 3), (1, 3, 2), (2, 4, 2), (3, 3, 3)])
def test_transfer_matrix_matches_oracle(seed, side, d):
    dims, factors, tables = workloads.grid_model(np.random.default_rng(seed), side, d)
    g = _graph(dims, factors)
    log_z, marginals = ref.grid_transfer_matrix(side, side, d, *tables)
    z = exact_contraction(g, "prob")
    assert math.isclose(log_z, math.log(z), rel_tol=1e-12)
    for v in range(side * side):
        np.testing.assert_allclose(marginals[v], exact_marginal(g, "prob", v) / z, atol=1e-12)


@pytest.mark.parametrize("seed,topology,n,d", TREES)
def test_loopy_bp_is_exact_on_trees(seed, topology, n, d):
    dims, factors = _small_tree(seed, topology, n, d)
    g = _graph(dims, factors)
    beliefs, _sweeps = ref.loopy_bp(dims, factors)
    z = exact_contraction(g, "prob")
    for v in range(n):
        np.testing.assert_allclose(beliefs[v], exact_marginal(g, "prob", v) / z, atol=1e-10)


def test_representable_range():
    assert ref.representable(700.0) and ref.representable(-700.0)
    assert not ref.representable(710.0) and not ref.representable(-710.0)


class TestChecks:
    GRAD = {"name": "g", "kind": "cli", "check": {"type": "grad", "log_z": 1400.0, "log_grad": 1399.0}}

    def test_silent_overflow_is_the_known_defect(self):
        doc = {"value": float("inf"), "derivative": float("nan")}
        assert checks.check(self.GRAD, {"rc": 0, "doc": doc})[0] == "item-3"

    def test_overflow_with_an_error_exit_is_not_the_known_defect(self):
        assert checks.check(self.GRAD, {"rc": 5, "doc": {}})[0] == "fail"

    def test_wrong_finite_value_fails(self):
        op = {"name": "z", "kind": "cli", "check": {"type": "partition", "log_z": 1.0, "marginals": [[0.5, 0.5]]}}
        doc = {"contraction_value": math.e * 1.001, "beliefs": [{"id": 0, "values": [math.e / 2] * 2}]}
        assert checks.check(op, {"rc": 0, "doc": doc})[0] == "fail"
        doc["contraction_value"] = math.e
        assert checks.check(op, {"rc": 0, "doc": doc})[0] == "pass"

    def test_clique_cap_in_jtree_is_the_known_defect(self):
        op = {"name": "j", "kind": "jtree", "check": {"type": "exact"}}
        assert checks.check(op, {"error": "CliqueTooLargeError"})[0] == "item-2"
        assert checks.check(op, {"error": "ValueError"})[0] == "fail"
