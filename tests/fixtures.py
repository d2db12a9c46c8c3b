"""Shared random-model builders, and a peak-allocation probe, for the test suite.

Everything takes an explicit ``numpy.random.Generator`` so each test
controls its own seed. Joint state spaces are kept at or below 2**16 so
the brute-force oracle stays fast.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from spiderbp import FactorGraph, build_graph
from spiderbp.algebra import get_semiring
from spiderbp.graph import FactorNode, VariableNode

MAX_JOINT = 1 << 16


def random_dims(rng, n, lo=2, hi=4):
    """Dims for n variables with the joint size capped at MAX_JOINT."""
    while True:
        dims = [int(rng.integers(lo, hi + 1)) for _ in range(n)]
        size = 1
        for d in dims:
            size *= d
        if size <= MAX_JOINT:
            return dims


def random_tree_structure(rng, max_vars=12):
    """A random tree skeleton: dims plus pairwise edges (parent, child)."""
    n = int(rng.integers(1, max_vars + 1))
    dims = random_dims(rng, n)
    edges = []
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges.append((parent, v))
    return dims, edges


def positive_table(rng, size):
    """Strictly positive continuous values; ties have probability zero."""
    return rng.uniform(0.1, 2.0, size=size).tolist()


def table_for(rng, semiring_name, size):
    if semiring_name in ("prob", "maxtimes"):
        return positive_table(rng, size)
    if semiring_name == "bool":
        return [bool(b) for b in rng.integers(0, 2, size=size)]
    if semiring_name == "count":
        return [int(c) for c in rng.integers(0, 3, size=size)]
    raise ValueError(semiring_name)


def random_tree(rng, semiring="prob", max_vars=12, unary_prob=0.7):
    """Random tree factor graph with pairwise factors and some unary ones."""
    dims, edges = random_tree_structure(rng, max_vars)
    factors = []
    for a, b in edges:
        factors.append(((a, b), table_for(rng, semiring, dims[a] * dims[b])))
    for v in range(len(dims)):
        if rng.random() < unary_prob:
            factors.append(((v,), table_for(rng, semiring, dims[v])))
    if not factors:  # single variable, no unary drawn: give it a prior
        factors.append(((0,), table_for(rng, semiring, dims[0])))
    return build_graph(dims, factors, get_semiring(semiring))


def random_forest(rng, semiring="prob", max_vars=8):
    """Random forest: a few trees, isolated variables, rank-0 factors and
    tables with zero entries. Always has at least one factor."""
    n = int(rng.integers(1, max_vars + 1))
    dims = random_dims(rng, n)

    def table(size):
        values = table_for(rng, semiring, size)
        return [type(x)(0) if rng.random() < 0.2 else x for x in values]

    factors = []
    for v in range(1, n):
        if rng.random() < 0.7:  # otherwise v roots a tree of its own
            u = int(rng.integers(0, v))
            factors.append(((u, v), table(dims[u] * dims[v])))
    for v in range(n):
        if rng.random() < 0.4:
            factors.append(((v,), table(dims[v])))
    for _ in range(int(rng.integers(0 if factors else 1, 3))):
        factors.append(((), table(1)))
    return build_graph(dims, factors, get_semiring(semiring))


def random_tree_csp(rng, max_vars=8):
    """Random tree of 0/1 constraint tables under the counting semiring."""
    dims, edges = random_tree_structure(rng, max_vars)
    factors = []
    for a, b in edges:
        factors.append(((a, b), [int(x) for x in rng.integers(0, 2, size=dims[a] * dims[b])]))
    for v in range(len(dims)):
        if rng.random() < 0.4:
            factors.append(((v,), [int(x) for x in rng.integers(0, 2, size=dims[v])]))
    if not factors:
        factors.append(((0,), [1] * dims[0]))
    return build_graph(dims, factors, get_semiring("count"))


def random_loopy(rng, semiring="prob", max_vars=8, extra_edges=(1, 3)):
    """Connected graph with cycles: a spanning tree plus extra pairwise edges."""
    n = int(rng.integers(3, max_vars + 1))
    dims = random_dims(rng, n, lo=2, hi=3)
    edges = set()
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges.add((parent, v))
    wanted = int(rng.integers(extra_edges[0], extra_edges[1] + 1))
    attempts = 0
    while wanted > 0 and attempts < 50:
        attempts += 1
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (a, b) not in edges:
            edges.add((a, b))
            wanted -= 1
    factors = []
    for a, b in sorted(edges):
        factors.append(((a, b), table_for(rng, semiring, dims[a] * dims[b])))
    for v in range(n):
        if rng.random() < 0.5:
            factors.append(((v,), table_for(rng, semiring, dims[v])))
    return build_graph(dims, factors, get_semiring(semiring))


def relabel(g, new_ids):
    """Copy of ``g`` with variable ``v`` renamed ``new_ids.get(v, v)``.

    ``new_ids`` permutes some ids among themselves; factors keep their ids,
    axes and tables. Runs close each component at its smallest variable id,
    so a relabelled copy of a tree is the same model closed elsewhere.
    """
    variables = sorted((VariableNode(new_ids.get(v.id, v.id), v.obj) for v in g.variables), key=lambda v: v.id)
    factors = [FactorNode(f.id, f.tensor, tuple(new_ids.get(v, v) for v in f.neighbors)) for f in g.factors]
    return FactorGraph(tuple(variables), tuple(factors), semiring=g.semiring)


def four_cycle(rng, semiring="count"):
    """The canonical 4-cycle v0-v1-v2-v3-v0 with pairwise tables."""
    dims = [2, 2, 2, 2]
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3)]
    factors = [
        (pair, table_for(rng, semiring, 4))
        for pair in pairs
    ]
    return build_graph(dims, factors, get_semiring(semiring))


def brute_force_count(g):
    """Independent solution count: plain nested loops, no numpy, no oracle."""
    import itertools

    dims = [v.obj.dim for v in sorted(g.variables, key=lambda v: v.id)]
    total = 0
    for assignment in itertools.product(*(range(d) for d in dims)):
        value = 1
        for f in g.factors:
            idx = 0
            for axis, vid in enumerate(f.neighbors):
                idx = idx * f.tensor.shape[axis] + assignment[vid]
            value *= int(f.tensor.data[idx])
            if value == 0:
                break
        total += value
    return total


def normal_form(dims, factors, node_tensors, semiring="prob"):
    """A model whose nodes carry tensors of their own, written with spiders
    only (Forney's normal form). Node v gets one variable per factor axis
    on it, in factor-then-axis order; each such axis is rewired to its own
    variable, and v's tensor becomes a factor over those variables. A node
    no factor touches carries a rank-0 tensor, which becomes a rank-0 factor."""
    var_dims, wires, rewired = [], {v: [] for v in range(len(dims))}, []
    for neighbors, values in factors:
        axes = []
        for v in neighbors:
            wires[v].append(len(var_dims))
            axes.append(len(var_dims))
            var_dims.append(dims[v])
        rewired.append((tuple(axes), values))
    rewired += [(tuple(wires[v]), node_tensors[v]) for v in range(len(dims))]
    return build_graph(var_dims, rewired, get_semiring(semiring))


def peak_bytes(fn, *args):
    """Peak traced allocation while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def node_between(node_tensor):
    """One node between the unary factors [1, 2] and [3, 4]; factor 2 is
    the node's tensor over its wires v0 (to factor 0) and v1 (to factor 1)."""
    return normal_form([2], [((0,), [1.0, 2.0]), ((0,), [3.0, 4.0])], {0: node_tensor})


def wire_messages(state):
    """A ``MessageState``'s messages as (v2f, f2v), each dim -> a (wires,
    dim) array, one row per wire of that dim in ``g.wires`` order: the
    store read wire by wire, whatever its layout. The store keeps one
    (dim, 2 * wires) array per dim, whose columns the plan's ``v2f_col``
    and ``f2v_col`` give by ``g.wires`` index."""
    plan = state._plan
    wires = {d: np.flatnonzero(plan.wire_dim == d) for d in state._arrays}
    return tuple({d: a[:, col[wires[d]]].T for d, a in state._arrays.items()} for col in (plan.v2f_col, plan.f2v_col))
