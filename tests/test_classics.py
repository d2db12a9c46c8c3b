"""Classic algorithms, written from their textbooks, against the engine.

The paper's claim is that algorithms known as analogous are one algorithm
run over different semirings. Here each classic is written out in plain
Python loops over numpy scalars, without the engine, and the engine's
two-pass (``tree``) run must reproduce it bit for bit. Bits agree only when
both sides add and multiply the same operands in the same order, so each
recursion below is written in the engine's association:

- a table entry times a message, ``a[i, j] * m[i]`` (a product of two
  floats is commutative, so ``m[i] * a[i, j]`` gives the same bits);
- a sum or max is a left fold in ascending index order;
- a variable multiplies its incoming messages in incidence order, which
  on these chains is (transition in, emission, transition out), so the
  message out of x_{t+1} toward the past is ``b_{t+1}(j) * beta_{t+1}(j)``;
- Z is closed at x_0, the smallest variable id, where the engine closes
  every component: Z = sum_i alpha_0(i) * beta_0(i). Reading Z off the
  forward end (sum of alpha_{T-1}) multiplies in another order and may
  differ in the last bits; the engine's Z is the backward algorithm's.

The chain model (Rabiner 1989): hidden states x_0 .. x_{T-1} of K values,
a prior pi, a transition table a[i, j] = P(x_{t+1} = j | x_t = i) and an
emission table; with the observations fixed, b_t(i) is the emission of
the observed symbol at step t. Factor ids are the prior, then at each step
its emission and its transition into the next step.

Rabiner's scaled forward-backward is checked against the normalized prob
run to rounding (rtol 1e-12), since the two rescale at different places.
Three more classics run over the other semirings, each stating its own
association: solution counting by dynamic programming on chain CSPs
(count, exact in any order), AC-3 on tree CSPs (bool, exact in any order)
and forward-mode differentiation of the forward algorithm (against
``dual_seed`` and ``contraction_derivative``, equal to rounding because
the forward algorithm closes Z at the other end). Last, proper colourings
are counted (count) against their closed forms, exact: q(q-1)^(n-1) on
any tree of n variables, (q-1)^(n-1) of them in each state of each
variable, and (q-1)^n + (-1)^n (q-1) on an n-cycle, split evenly over a
variable's q colours.
"""

import numpy as np
import pytest

from spiderbp import RunConfig, build_graph, contraction_value, decode_map, dual_seed, run_bp, run_junction_tree
from spiderbp.engine import contraction_derivative, contraction_from_state

from fixtures import random_tree_structure

SEEDS = range(12)


def hmm(rng):
    """(pi, a, b) of a random chain: b[t] is step t's emission column."""
    steps, k, symbols = int(rng.integers(1, 30)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
    pi = rng.dirichlet(np.ones(k))
    a = rng.dirichlet(np.ones(k), size=k)
    emit = rng.dirichlet(np.ones(symbols), size=k)
    b = [emit[:, int(rng.integers(symbols))] for _ in range(steps)]
    return pi, a, b


def chain_graph(pi, a, b, semiring):
    """The chain's factor graph; factor ids are pi, b_0, a, b_1, a, ..., b_{T-1}."""
    k = len(pi)
    factors = [((0,), pi.tolist())]
    for t, column in enumerate(b):
        factors.append(((t,), column.tolist()))
        if t + 1 < len(b):
            factors.append(((t, t + 1), a.reshape(-1).tolist()))
    return build_graph([k] * len(b), factors, semiring)


def left_fold(op, terms):
    acc = terms[0]
    for x in terms[1:]:
        acc = op(acc, x)
    return acc


def add(x, y):
    return x + y


def larger(x, y):
    return y if y > x else x


def recursions(pi, a, b, fold):
    """Forward and backward tables, alpha[t][i] and beta[t][i], with ``fold``
    the semiring sum: ``add`` gives forward-backward, ``larger`` the
    max-product recursions of Viterbi."""
    k, steps = len(pi), len(b)
    alpha = [[pi[i] * b[0][i] for i in range(k)]]
    for t in range(1, steps):
        alpha.append([fold([a[i, j] * alpha[t - 1][i] for i in range(k)]) * b[t][j] for j in range(k)])
    beta = [[1.0] * k]
    for t in range(steps - 2, -1, -1):
        # the last step sends its emission alone: b * 1.0 is b, bit for bit
        beta.insert(0, [fold([a[i, j] * (b[t + 1][j] * beta[0][j]) for j in range(k)]) for i in range(k)])
    return alpha, beta


def as_array(rows):
    return np.array(rows, dtype=np.float64)


@pytest.mark.parametrize("seed", SEEDS)
def test_forward_backward_is_the_prob_tree_run(seed):
    pi, a, b = hmm(np.random.default_rng(seed))
    alpha, beta = recursions(pi, a, b, lambda terms: left_fold(add, terms))
    gamma = [[x * y for x, y in zip(al, be)] for al, be in zip(alpha, beta)]
    z = left_fold(add, gamma[0])

    g = chain_graph(pi, a, b, "prob")
    result = run_bp(g, RunConfig(schedule="tree", normalize=False))
    for t, belief in result.variable_beliefs.items():
        assert belief.values.tobytes() == as_array(gamma[t]).tobytes(), t
    assert contraction_from_state(g, result.state) == contraction_value(g) == z
    assert repr(contraction_value(g)) == repr(float(z))


@pytest.mark.parametrize("seed", SEEDS)
def test_viterbi_is_the_maxtimes_tree_run(seed):
    pi, a, b = hmm(np.random.default_rng(seed))
    k, steps = len(pi), len(b)
    # Viterbi (1967): delta and its back-pointers, ties to the lowest state
    delta, back = [[pi[i] * b[0][i] for i in range(k)]], []
    for t in range(1, steps):
        row, ptr = [], []
        for j in range(k):
            best = 0
            for i in range(1, k):
                if a[i, j] * delta[t - 1][i] > a[best, j] * delta[t - 1][best]:
                    best = i
            ptr.append(best)
            row.append(left_fold(larger, [a[i, j] * delta[t - 1][i] for i in range(k)]) * b[t][j])
        delta.append(row)
        back.append(ptr)
    path = [max(range(k), key=lambda i: (delta[-1][i], -i))]
    for ptr in reversed(back):
        path.insert(0, ptr[path[0]])
    best_value = left_fold(larger, delta[-1])

    # the max-marginals: delta times the backward max messages
    alpha, psi = recursions(pi, a, b, lambda terms: left_fold(larger, terms))
    assert alpha == delta
    marginals = [[x * y for x, y in zip(al, ps)] for al, ps in zip(alpha, psi)]

    g = chain_graph(pi, a, b, "maxtimes")
    result = run_bp(g, RunConfig(schedule="tree", normalize=False))
    for t, belief in result.variable_beliefs.items():
        assert belief.values.tobytes() == as_array(marginals[t]).tobytes(), t
    # the last step's belief is delta itself, so the best value is its max
    assert result.variable_beliefs[steps - 1].values.tobytes() == as_array(delta[-1]).tobytes()
    assert repr(left_fold(larger, result.variable_beliefs[steps - 1].values.tolist())) == repr(float(best_value))
    assert decode_map(g, result.state) == dict(enumerate(path))


def scaled_recursions(pi, a, b):
    """Rabiner's scaled forward and backward tables (1989, section V.A):
    each alpha_hat[t] is divided by its own sum c_t, and beta_hat[t] by
    c_{t+1}, the scale of the step after it."""
    k, steps = len(pi), len(b)
    alpha_hat, scale = [], []
    for t in range(steps):
        if t == 0:
            alpha = [pi[i] * b[0][i] for i in range(k)]
        else:
            alpha = [left_fold(add, [a[i, j] * alpha_hat[t - 1][i] for i in range(k)]) * b[t][j] for j in range(k)]
        scale.append(left_fold(add, alpha))
        alpha_hat.append([x / scale[t] for x in alpha])
    beta_hat = [[1.0] * k]
    for t in range(steps - 2, -1, -1):
        ahead = [b[t + 1][j] * beta_hat[0][j] for j in range(k)]
        sums = [left_fold(add, [a[i, j] * ahead[j] for j in range(k)]) for i in range(k)]
        beta_hat.insert(0, [x / scale[t + 1] for x in sums])
    return alpha_hat, beta_hat


@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_forward_backward_is_the_normalized_prob_tree_run(seed):
    # The two runs scale differently. Rabiner scales the forward variables
    # once per step, alpha_t to sum to one, and the backward ones by the
    # same per-step constants, so gamma_t = alpha_hat_t * beta_hat_t is the
    # posterior with no division at the end. The normalized engine rescales
    # every message it sends (prior, emission and transition messages
    # alike) to sum to one, and then each belief. The constants cancel in
    # the posterior, but the divisions round at different places, so the
    # two agree to rounding, not bit for bit.
    pi, a, b = hmm(np.random.default_rng(seed))
    alpha_hat, beta_hat = scaled_recursions(pi, a, b)
    result = run_bp(chain_graph(pi, a, b, "prob"), RunConfig(schedule="tree"))
    assert len(result.variable_beliefs) == len(b)
    for t, belief in result.variable_beliefs.items():
        gamma = [x * y for x, y in zip(alpha_hat[t], beta_hat[t])]
        np.testing.assert_allclose(belief.values, gamma, rtol=1e-12, atol=0)


def chain_csp(rng):
    """(dims, unary, pair) of a random chain CSP: unary[t][i] allows x_t = i,
    pair[t][i][j] allows (x_t, x_{t+1}) = (i, j); entries are 0 or 1."""
    steps = int(rng.integers(1, 25))
    dims = [int(rng.integers(2, 5)) for _ in range(steps)]
    unary = [[int(x) for x in rng.random(d) < 0.8] for d in dims]
    pair = [[[int(x) for x in rng.random(dims[t + 1]) < 0.6] for _ in range(dims[t])] for t in range(steps - 1)]
    return dims, unary, pair


def csp_graph(dims, unary, pair, semiring):
    """The chain CSP's factor graph: each step's unary table, then its pair table."""
    factors = []
    for t, allowed in enumerate(unary):
        factors.append(((t,), allowed))
        if t + 1 < len(dims):
            factors.append(((t, t + 1), [x for row in pair[t] for x in row]))
    return build_graph(dims, factors, semiring)


@pytest.mark.parametrize("seed", SEEDS)
def test_dynamic_programming_counts_are_the_count_tree_run(seed):
    # Counting a chain CSP's solutions by dynamic programming (the counting
    # form of bucket elimination; Dechter, Constraint Processing, 2003):
    # f[t][j] counts the partial solutions of x_0 .. x_t ending in j, r[t][j]
    # the extensions of x_t = j over x_{t+1} .. x_{T-1}. Integer sums and
    # products are exact, so any association gives the same count; the
    # folds below still run in ascending index order.
    dims, unary, pair = chain_csp(np.random.default_rng(seed))
    steps = len(dims)
    f = [list(unary[0])]
    for t in range(1, steps):
        into = [left_fold(add, [f[t - 1][i] * pair[t - 1][i][j] for i in range(dims[t - 1])]) for j in range(dims[t])]
        f.append([into[j] * unary[t][j] for j in range(dims[t])])
    r = [[1] * dims[-1]]
    for t in range(steps - 2, -1, -1):
        ahead = [unary[t + 1][j] * r[0][j] for j in range(dims[t + 1])]
        r.insert(0, [left_fold(add, [pair[t][i][j] * ahead[j] for j in range(dims[t + 1])]) for i in range(dims[t])])
    total = left_fold(add, f[-1])

    g = csp_graph(dims, unary, pair, "count")
    assert contraction_value(g) == total
    result = run_bp(g, RunConfig(schedule="tree", normalize=False))
    for t, belief in result.variable_beliefs.items():
        assert belief.values.tolist() == [x * y for x, y in zip(f[t], r[t])], t


def tree_csp(rng):
    """(dims, unary, tables) of a random tree CSP: unary[v][i] allows v = i,
    and tables[(p, c)][i][j] allows (p, c) = (i, j) on each tree edge."""
    dims, edges = random_tree_structure(rng)
    unary = [[int(x) for x in rng.random(d) < 0.8] for d in dims]
    tables = {(p, c): [[int(x) for x in rng.random(dims[c]) < 0.6] for _ in range(dims[p])] for p, c in edges}
    return dims, unary, tables


def ac3(dims, unary, tables):
    """AC-3 (Mackworth 1977): node consistency, then revise arcs from a
    queue until none changes; returns the pruned domains."""
    domains = [{i for i in range(d) if unary[v][i]} for v, d in enumerate(dims)]
    allowed = {}  # (x, y) -> the constraint as a test of (x = a, y = b)
    for (p, c), table in tables.items():
        allowed[(p, c)] = lambda a, b, table=table: table[a][b]
        allowed[(c, p)] = lambda a, b, table=table: table[b][a]
    queue = list(allowed)
    while queue:
        x, y = queue.pop(0)
        supported = {a for a in domains[x] if any(allowed[(x, y)](a, b) for b in domains[y])}
        if supported != domains[x]:
            domains[x] = supported
            queue += [(z, w) for z, w in allowed if w == x and z != y and (z, w) not in queue]
    return domains


def tree_csp_graph(dims, unary, tables):
    factors = [((v,), allowed) for v, allowed in enumerate(unary)]
    factors += [(edge, [x for row in table for x in row]) for edge, table in tables.items()]
    return build_graph(dims, factors, "bool")


@pytest.mark.parametrize("seed", range(40))
def test_ac3_supports_are_the_bool_tree_run(seed):
    # On a tree-structured CSP, arc consistency is global consistency
    # (Freuder 1982): when no domain is wiped out, every value AC-3 keeps
    # extends to a solution, and it keeps exactly those. The bool run's
    # belief is the or over solutions of each value, so the two agree
    # entry for entry; or and and are exact in any association. A wiped
    # out domain means no solution, which the run flags as a contradiction.
    dims, unary, tables = tree_csp(np.random.default_rng(1700 + seed))
    domains = ac3(dims, unary, tables)
    result = run_bp(tree_csp_graph(dims, unary, tables), RunConfig(schedule="tree"))
    wiped = not all(domains)
    assert result.contradiction == wiped
    if not wiped:
        for v, belief in result.variable_beliefs.items():
            assert belief.values.tolist() == [i in domains[v] for i in range(dims[v])], v


def test_ac3_seeds_cover_both_outcomes():
    outcomes = {all(ac3(*tree_csp(np.random.default_rng(1700 + seed)))) for seed in range(40)}
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", SEEDS)
def test_forward_mode_derivative_of_the_forward_algorithm(seed):
    # Forward-mode differentiation (Wengert 1964): each forward variable
    # alpha_t(j) carries its tangent, the derivative with respect to one
    # table entry x, by the product and sum rules. Seeding x's tangent with
    # 1 leaves dZ/dx in Z's tangent. Z is read off the forward end here,
    # while the engine closes the chain at x_0 (the backward algorithm's
    # association), so the two agree to rounding, not bit for bit.
    rng = np.random.default_rng(seed)
    pi, a, b = hmm(rng)
    k, steps = len(pi), len(b)
    g = chain_graph(pi, a, b, "prob")
    fid = int(rng.integers(len(g.factors)))
    entry = int(rng.integers(g.factor(fid).tensor.size))
    # factor ids: pi, then b_t at 1 + 2t and the transition out of step t at 2 + 2t
    dpi = [float(fid == 0 and i == entry) for i in range(k)]
    db = [[float(fid == 1 + 2 * t and i == entry) for i in range(k)] for t in range(steps)]
    da = [[[float(fid == 2 + 2 * t and i * k + j == entry) for j in range(k)] for i in range(k)] for t in range(steps - 1)]

    alpha = [pi[i] * b[0][i] for i in range(k)]
    dalpha = [dpi[i] * b[0][i] + pi[i] * db[0][i] for i in range(k)]
    for t in range(1, steps):
        s = [left_fold(add, [a[i, j] * alpha[i] for i in range(k)]) for j in range(k)]
        ds = [left_fold(add, [da[t - 1][i][j] * alpha[i] + a[i, j] * dalpha[i] for i in range(k)]) for j in range(k)]
        alpha, dalpha = [s[j] * b[t][j] for j in range(k)], [ds[j] * b[t][j] + s[j] * db[t][j] for j in range(k)]
    z, dz = left_fold(add, alpha), left_fold(add, dalpha)

    value, derivative = contraction_derivative(g, fid, entry)
    dual = contraction_value(dual_seed(g, fid, entry))
    assert value == pytest.approx(z, rel=1e-12) and dual.real == pytest.approx(z, rel=1e-12)
    assert derivative == pytest.approx(dz, rel=1e-9, abs=1e-300)
    assert dual.eps == pytest.approx(dz, rel=1e-9, abs=1e-300)


# -- proper colourings, in closed form ------------------------------------------


def differ(q):
    """The 0/1 table of "neighbours take different colours" over q colours."""
    return [int(i != j) for i in range(q) for j in range(q)]


def colouring_tree(rng, q):
    """A random tree of 2..40 variables, each hung under an earlier one by
    a ``differ`` table facing either way; every leaf is on one wire."""
    n = int(rng.integers(2, 41))
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    return build_graph([q] * n, [(edge, differ(q)) for edge in edges], "count"), edges


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_colourings_of_branching_trees_in_closed_form(q):
    rng, branching = np.random.default_rng(3100 + q), 0
    for _ in range(3):
        g, edges = colouring_tree(rng, q)
        n = len(g.variables)
        want = q * (q - 1) ** (n - 1)
        z, jt = contraction_value(g), run_junction_tree(g, RunConfig(normalize=False)).contraction_value
        assert (type(z), z) == (type(jt), jt) == (int, want)
        result = run_bp(g, RunConfig(schedule="tree", normalize=False))
        for vid, belief in result.variable_beliefs.items():
            assert belief.values.tolist() == [(q - 1) ** (n - 1)] * q, vid
            assert all(type(x) is int for x in belief.values.tolist())
        branching += max(np.bincount(np.ravel(edges))) >= 3
    assert branching  # some tree branches


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_colourings_of_cycles_in_closed_form(q):
    for n in range(3, 13):
        g = build_graph([q] * n, [((i, (i + 1) % n), differ(q)) for i in range(n)], "count")
        result = run_junction_tree(g, RunConfig(normalize=False))
        want = (q - 1) ** n + (-1) ** n * (q - 1)
        assert (type(result.contraction_value), result.contraction_value) == (int, want)
        for vid, belief in result.variable_beliefs.items():
            assert belief.values.tolist() == [want // q] * q, (n, vid)
