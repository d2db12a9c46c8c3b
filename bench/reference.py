"""Reference answers computed without the engine: numpy and closed forms only.

Every model here is a list of dims plus ``(neighbors, table)`` factors of
rank 1 or 2, where ``table`` is a numpy array shaped by the neighbors' dims.
Nothing in this module imports spiderbp, so a defect in the engine cannot
hide in its own reference.

- ``tree_sum_product`` / ``tree_max_product``: log-space forward-backward
  and Viterbi on cycle-free models (marginals, log Z, pairwise marginals,
  MAP assignment and its log value).
- ``log_grad``: log dZ/d(theta) for one factor entry, from the factor-entry
  marginal: dZ/d(theta) = Z * P(factor at that entry) / theta.
- ``tree_colourings`` / ``cycle_colourings``: closed-form proper-colouring
  counts.
- ``grid_transfer_matrix``: exact log Z and marginals of an r x c grid by
  row-by-row transfer matrices.
- ``loopy_bp``: vectorized flooding (Jacobi) loopy belief propagation.
"""

from __future__ import annotations

import math

import numpy as np

#: natural-log range of finite, normal float64 values
LOG_MAX = math.log(np.finfo(np.float64).max)
LOG_MIN = math.log(np.finfo(np.float64).tiny)


def representable(log_value):
    """True when exp(log_value) is a finite, normal float64."""
    return LOG_MIN < log_value < LOG_MAX


def _logsumexp(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def _tree_order(n, factors):
    """Root-0 BFS over a cycle-free model's pairwise factors.

    Returns (order, parent, parent_factor) where parent_factor[v] is the
    index of the pairwise factor joining v to its parent.
    """
    adj = [[] for _ in range(n)]
    for k, (nb, _t) in enumerate(factors):
        if len(nb) == 2:
            a, b = nb
            adj[a].append((b, k))
            adj[b].append((a, k))
    parent = [-1] * n
    parent_factor = [-1] * n
    seen = [False] * n
    order = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        while queue:
            v = queue.pop()
            order.append(v)
            for u, k in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    parent_factor[u] = k
                    queue.append(u)
    if len(order) != n:
        raise ValueError("model is not cycle-free")
    return order, parent, parent_factor


def _edge_log_table(factors, k, child):
    """Log table of pairwise factor k as [parent state, child state]."""
    nb, table = factors[k]
    log_t = np.log(table)
    return log_t if nb[1] == child else log_t.T


def _unary_logs(dims, factors):
    logs = [np.zeros(d) for d in dims]
    for nb, table in factors:
        if len(nb) == 1:
            logs[nb[0]] = logs[nb[0]] + np.log(table)
    return logs


def tree_sum_product(dims, factors):
    """Exact marginals and log Z of a cycle-free model, in log space.

    Returns (log_z, marginals, pair_marginal) where ``marginals[v]`` is a
    normalized vector and ``pair_marginal(k)`` gives the normalized joint
    table of pairwise factor k over its neighbors.
    """
    n = len(dims)
    order, parent, pf = _tree_order(n, factors)
    unary = _unary_logs(dims, factors)
    up = [u.copy() for u in unary]  # unary plus messages from children
    to_parent = [None] * n  # log message v -> parent(v), over parent states
    for v in reversed(order):
        if parent[v] < 0:
            continue
        t = _edge_log_table(factors, pf[v], v)
        to_parent[v] = _logsumexp(t + up[v][None, :], axis=1)
        up[parent[v]] = up[parent[v]] + to_parent[v]
    log_z = sum(float(_logsumexp(up[v], axis=0)) for v in order if parent[v] < 0)
    down = [np.zeros(d) for d in dims]  # log message parent(v) -> v
    for v in order:
        p = parent[v]
        if p < 0:
            continue
        t = _edge_log_table(factors, pf[v], v)
        cavity = up[p] - to_parent[v] + down[p]
        down[v] = _logsumexp(t + cavity[:, None], axis=0)
    marginals = []
    for v in range(n):
        b = up[v] + down[v]
        marginals.append(np.exp(b - _logsumexp(b, axis=0)))

    def pair_marginal(k):
        (a, b), table = factors[k]
        child, par = (b, a) if parent[b] == a else (a, b)
        joint = (
            (up[par] - to_parent[child] + down[par])[:, None]
            + _edge_log_table(factors, k, child)
            + up[child][None, :]
        )
        joint = np.exp(joint - _logsumexp(joint.reshape(-1), axis=0))
        return joint if (a, b) == (par, child) else joint.T

    return log_z, marginals, pair_marginal


def tree_max_product(dims, factors):
    """Viterbi on a cycle-free model: (assignment list, log of max product)."""
    n = len(dims)
    order, parent, pf = _tree_order(n, factors)
    up = _unary_logs(dims, factors)
    best_child = [None] * n  # argmax of child state per parent state
    for v in reversed(order):
        if parent[v] < 0:
            continue
        scores = _edge_log_table(factors, pf[v], v) + up[v][None, :]
        best_child[v] = np.argmax(scores, axis=1)
        up[parent[v]] = up[parent[v]] + np.max(scores, axis=1)
    assignment = [0] * n
    log_value = 0.0
    for v in order:
        if parent[v] < 0:
            assignment[v] = int(np.argmax(up[v]))
            log_value += float(up[v][assignment[v]])
        else:
            assignment[v] = int(best_child[v][assignment[parent[v]]])
    return assignment, log_value


def log_grad(dims, factors, k, entry):
    """log dZ/d(theta) for flat row-major entry ``entry`` of factor k."""
    log_z, marginals, pair_marginal = tree_sum_product(dims, factors)
    nb, table = factors[k]
    p = pair_marginal(k).reshape(-1)[entry] if len(nb) == 2 else marginals[nb[0]][entry]
    return log_z + math.log(p) - math.log(float(table.reshape(-1)[entry]))


def tree_colourings(n, q):
    """Proper q-colourings of a tree on n vertices, and per-vertex per-colour."""
    total = q * (q - 1) ** (n - 1)
    return total, total // q


def cycle_colourings(n, q):
    """Proper q-colourings of an n-cycle, and per-vertex per-colour."""
    total = (q - 1) ** n + (-1) ** n * (q - 1)
    return total, total // q


def grid_transfer_matrix(rows, cols, d, unary, horiz, vert):
    """Exact log Z and marginals of a grid, row by row.

    Variable (i, j) has id i * cols + j. ``unary[i][j]`` has shape (d,),
    ``horiz[i][j]`` couples (i, j) -> (i, j + 1) and ``vert[i][j]`` couples
    (i, j) -> (i + 1, j), each as a (d, d) table indexed [first, second].
    Returns (log_z, marginals as a list indexed by variable id).
    """
    states = d**cols
    digits = np.array(np.unravel_index(np.arange(states), (d,) * cols)).T  # (states, cols)
    phi = []
    for i in range(rows):
        p = np.ones(states)
        for j in range(cols):
            p = p * unary[i][j][digits[:, j]]
            if j + 1 < cols:
                p = p * horiz[i][j][digits[:, j], digits[:, j + 1]]
        phi.append(p)
    trans = []
    for i in range(rows - 1):
        m = np.ones((states, states))
        for j in range(cols):
            m = m * vert[i][j][digits[:, j][:, None], digits[:, j][None, :]]
        trans.append(m)
    alpha, log_z = [], 0.0
    a = phi[0]
    for i in range(rows):
        if i:
            a = (a @ trans[i - 1]) * phi[i]
        s = a.sum()
        log_z += math.log(s)
        a = a / s
        alpha.append(a)
    beta = [None] * rows
    b = np.ones(states)
    for i in range(rows - 1, -1, -1):
        if i < rows - 1:
            b = trans[i] @ (phi[i + 1] * b)
            b = b / b.sum()
        beta[i] = b
    marginals = [None] * (rows * cols)
    for i in range(rows):
        row = alpha[i] * beta[i]
        row = row / row.sum()
        for j in range(cols):
            marginals[i * cols + j] = np.bincount(digits[:, j], weights=row, minlength=d)
    return log_z, marginals


def loopy_bp(dims, factors, tol=1e-14, max_iters=20000):
    """Flooding loopy BP with every message recomputed from the last sweep.

    Needs one common dim and strictly positive tables of rank 1 or 2.
    Messages start uniform and are normalized to sum 1 after every update,
    as the engine's normalized sync schedule does. Returns (normalized
    beliefs as an (n, d) array, sweeps run).
    """
    n, d = len(dims), dims[0]
    if any(x != d for x in dims):
        raise ValueError("loopy_bp needs one common dim")
    pairs = [(nb, t) for nb, t in factors if len(nb) == 2]
    singles = [(nb, t) for nb, t in factors if len(nb) == 1]
    a = np.array([nb[0] for nb, _ in pairs], dtype=np.int64)
    b = np.array([nb[1] for nb, _ in pairs], dtype=np.int64)
    tables = np.array([t for _, t in pairs]).reshape(len(pairs), d, d)
    s_var = np.array([nb[0] for nb, _ in singles], dtype=np.int64)
    s_msg = np.array([t / t.sum() for _, t in singles]).reshape(len(singles), d)

    def norm(m):
        return m / m.sum(axis=1, keepdims=True)

    to_a = np.full((len(pairs), d), 1.0 / d)  # factor -> its first variable
    to_b = np.full((len(pairs), d), 1.0 / d)
    from_a = np.full((len(pairs), d), 1.0 / d)  # first variable -> factor
    from_b = np.full((len(pairs), d), 1.0 / d)
    for sweep in range(1, max_iters + 1):
        log_in = np.zeros((n, d))
        np.add.at(log_in, a, np.log(to_a))
        np.add.at(log_in, b, np.log(to_b))
        np.add.at(log_in, s_var, np.log(s_msg))
        new_from_a = norm(np.exp(log_in[a] - np.log(to_a)))
        new_from_b = norm(np.exp(log_in[b] - np.log(to_b)))
        new_to_a = norm(np.einsum("pij,pj->pi", tables, from_b))
        new_to_b = norm(np.einsum("pij,pi->pj", tables, from_a))
        change = max(
            np.abs(new_from_a - from_a).max(initial=0.0),
            np.abs(new_from_b - from_b).max(initial=0.0),
            np.abs(new_to_a - to_a).max(initial=0.0),
            np.abs(new_to_b - to_b).max(initial=0.0),
        )
        from_a, from_b, to_a, to_b = new_from_a, new_from_b, new_to_a, new_to_b
        if change <= tol:
            break
    log_in = np.zeros((n, d))
    np.add.at(log_in, a, np.log(to_a))
    np.add.at(log_in, b, np.log(to_b))
    np.add.at(log_in, s_var, np.log(s_msg))
    beliefs = np.exp(log_in - log_in.max(axis=1, keepdims=True))
    return norm(beliefs), sweep
