"""The paper's identities, stated of the engine itself.

A variable is a spider, and the algebra is a parameter; the properties
below check that the engine honours both on seeded random trees:

- the spider law: a variable written out as one variable per wire, joined
  by an explicit copy tensor, closes to the same value bit for bit;
- semiring homomorphisms commute with propagation: the real part of a
  dual run is the prob run, and the support of a count run is the bool
  run;
- the generalized distributive law: on a tree the junction tree and the
  two-pass schedule give the same value and marginals;
- a derivative is the diagram with one box cut out: the cavity read of a
  factor at entry x is the value of the diagram with that factor's table
  replaced by the one-hot e_x (exactly, in count), and the eps part of a
  dual run (in prob).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from spiderbp import (
    RunConfig,
    build_graph,
    contraction_value,
    dual_seed,
    run_bp,
    run_junction_tree,
)
from spiderbp.algebra import get_semiring
from spiderbp.engine import contraction_derivative
from spiderbp.tensor import spider_tensor

from fixtures import random_tree
from test_plan import same_bits

SEEDS = st.integers(0, 2**32 - 1)
EXACT = st.sampled_from(["prob", "maxtimes", "count", "bool"])

#: largest explicit copy tensor a rewrite may build
MAX_SPIDER = 4096


def spider_rewrite(g, vid):
    """``g`` with variable ``vid`` split into one variable per wire, joined
    by an explicit ``spider_tensor`` factor whose axes follow the variable's
    incidence order.

    The first wire keeps the id ``vid``, the others take new ids after
    every existing one, so the smallest variable id of each component,
    where a run closes it, is unchanged unless it is ``vid``.
    """
    semiring = get_semiring(g.semiring)
    n, dim = len(g.variables), g.variable(vid).obj.dim
    wires = g.incident[vid]
    split = {wire: vid if i == 0 else n + i - 1 for i, wire in enumerate(wires)}
    factors = []
    for f in sorted(g.factors, key=lambda f: f.id):
        neighbors = tuple(split.get((f.id, axis), v) for axis, v in enumerate(f.neighbors))
        factors.append((neighbors, f.tensor.data.tolist()))
    factors.append((tuple(split[w] for w in wires), spider_tensor(dim, len(wires), semiring).data.tolist()))
    dims = [v.obj.dim for v in g.variables] + [dim] * (len(wires) - 1)
    return build_graph(dims, factors, semiring)


def same_value(a, b):
    return type(a) is type(b) and repr(a) == repr(b)


@given(seed=SEEDS, name=EXACT)
def test_spider_law(seed, name):
    rng = np.random.default_rng(seed)
    g = random_tree(rng, name, max_vars=8)
    for vid in range(1, len(g.variables)):  # 0 is where the run closes
        k = len(g.incident[vid])
        if k and g.variable(vid).obj.dim ** k <= MAX_SPIDER:
            assert same_value(contraction_value(spider_rewrite(g, vid)), contraction_value(g)), vid


@given(seed=SEEDS, normalize=st.booleans())
def test_the_real_part_of_a_dual_run_is_the_prob_run(seed, normalize):
    rng = np.random.default_rng(seed)
    g = random_tree(rng, "prob", max_vars=8)
    seeded = int(rng.integers(len(g.factors)))
    lifted = dual_seed(g, seeded, int(rng.integers(g.factor(seeded).tensor.size)))
    assert same_value(contraction_value(lifted).real, contraction_value(g))
    cfg = RunConfig(schedule="tree", normalize=normalize)
    want, got = run_bp(g, cfg), run_bp(lifted, cfg)
    for vid, belief in want.variable_beliefs.items():
        real = np.array([x.real for x in got.variable_beliefs[vid].values.tolist()])
        assert same_bits(real, belief.values), vid
    for fid, belief in want.factor_beliefs.items():
        real = np.array([x.real for x in got.factor_beliefs[fid].data.tolist()])
        assert same_bits(real, belief.data), fid


@given(seed=SEEDS)
def test_the_support_of_a_count_run_is_the_bool_run(seed):
    rng = np.random.default_rng(seed)
    g = random_tree(rng, "count", max_vars=8)
    support = build_graph(
        [v.obj.dim for v in g.variables],
        [(f.neighbors, [x != 0 for x in f.tensor.data.tolist()]) for f in sorted(g.factors, key=lambda f: f.id)],
        "bool",
    )
    assert contraction_value(support) == (contraction_value(g) != 0)
    cfg = RunConfig(schedule="tree")
    want, got = run_bp(g, cfg), run_bp(support, cfg)
    for vid, belief in want.variable_beliefs.items():
        assert got.variable_beliefs[vid].values.tolist() == [x != 0 for x in belief.values.tolist()], vid


@given(seed=SEEDS, name=EXACT)
def test_generalized_distributive_law(seed, name):
    rng = np.random.default_rng(seed)
    g = random_tree(rng, name, max_vars=8)
    cfg = RunConfig(schedule="tree", normalize=False)
    jt, bp = run_junction_tree(g, cfg), run_bp(g, cfg)
    if name in ("count", "bool"):
        assert jt.contraction_value == contraction_value(g)
        for vid, belief in bp.variable_beliefs.items():
            assert jt.variable_beliefs[vid].values.tolist() == belief.values.tolist(), vid
    else:
        assert np.isclose(jt.contraction_value, contraction_value(g), rtol=1e-12, atol=0.0)
        for vid, belief in bp.variable_beliefs.items():
            assert np.allclose(jt.variable_beliefs[vid].values, belief.values, rtol=1e-12, atol=0.0), vid


@given(seed=SEEDS, name=st.sampled_from(["count", "prob"]))
def test_a_derivative_is_the_diagram_with_one_box_cut_out(seed, name):
    rng = np.random.default_rng(seed)
    g = random_tree(rng, name, max_vars=8)
    f = g.factor(int(rng.integers(len(g.factors))))
    x = int(rng.integers(f.tensor.size))
    _value, cavity = contraction_derivative(g, f.id, x)
    if name == "count":
        one_hot = [int(i == x) for i in range(f.tensor.size)]
        cut = build_graph(
            [v.obj.dim for v in g.variables],
            [(h.neighbors, one_hot if h.id == f.id else h.tensor.data.tolist()) for h in sorted(g.factors, key=lambda h: h.id)],
            name,
        )
        assert same_value(cavity, contraction_value(cut))
    else:
        eps = contraction_value(dual_seed(g, f.id, x)).eps
        assert np.isclose(cavity, eps, rtol=1e-12, atol=0.0)
