"""Classic chain algorithms, written from their textbooks, against the engine.

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
"""

import numpy as np
import pytest

from spiderbp import RunConfig, build_graph, contraction_value, decode_map, run_bp
from spiderbp.engine import contraction_from_state

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
