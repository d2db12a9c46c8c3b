"""Exhaustive ground truth by brute-force enumeration.

Everything here is deliberately independent of the message-passing engine:
results come from materializing the full joint table and folding it in
ascending row-major order with ``Semiring.fold`` (the contract written in
``spiderbp.algebra``), so these functions can arbitrate when the fast path
and a test disagree. A hard size cap, ``DEFAULT_ORACLE_CAP`` assignments,
trades silent slowness for a loud error (TooLargeError).
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import get_semiring
from .errors import TooLargeError

#: cap on the number of enumerated assignments
DEFAULT_ORACLE_CAP = 1 << 22


def _lifted_factor(factor, var_pos, grid, dims):
    """Factor table, broadcastable over the full joint shape.

    Repeated neighbors are handled by advanced indexing: each axis of the
    factor is indexed by its variable's open grid over the joint shape, so
    a factor touching a variable twice lands on the diagonal, and the
    result spans only its own variables' axes (unit axes elsewhere).
    """
    arr = factor.tensor.as_array()
    if factor.rank == 0:
        return arr.reshape(()) if not dims else np.broadcast_to(arr.reshape(()), dims)
    index = tuple(grid[var_pos[v]] for v in factor.neighbors)
    return arr[index]


def joint_table(g, semiring):
    """Full joint array over variable assignments; TooLargeError when there
    are more than ``DEFAULT_ORACLE_CAP`` of them."""
    semiring = get_semiring(semiring)
    dims = tuple(v.obj.dim for v in g.variables)
    total = math.prod(dims)
    if total > DEFAULT_ORACLE_CAP:
        raise TooLargeError(f"{total} assignments exceed the oracle cap of {DEFAULT_ORACLE_CAP}")
    var_pos = {v.id: i for i, v in enumerate(g.variables)}
    grid = np.ix_(*map(range, dims))  # open grids: one axis each
    table = semiring.ones(dims)
    for f in sorted(g.factors, key=lambda f: f.id):
        # a 0-d product comes back a bare scalar, and two bare ints multiply
        # as int64: keep the table in the semiring's dtype
        table = np.asarray(semiring.array_mul(table, _lifted_factor(f, var_pos, grid, dims)), dtype=semiring.dtype)
    return table


def exact_contraction(g, semiring, table=None):
    """Semiring-sum of the joint table over every assignment.

    An assignment picks one state per variable. Terms fold in ascending
    row-major order. ``table`` is a precomputed ``joint_table``, as for
    ``exact_marginal``.
    """
    semiring = get_semiring(semiring)
    if table is None:
        table = joint_table(g, semiring)
    return semiring.fold(table.reshape(-1), 0).item()


def exact_marginal(g, semiring, variable_id, table=None):
    """Unnormalized marginal of one variable by exhaustive summation.

    Component j sums the joint over every assignment that pins the variable
    to j. Pass a precomputed ``joint_table`` as ``table`` to amortize its
    construction over several variables.
    """
    semiring = get_semiring(semiring)
    dims = tuple(v.obj.dim for v in g.variables)
    pos = {v.id: i for i, v in enumerate(g.variables)}[variable_id]
    if table is None:
        table = joint_table(g, semiring)
    rows = np.moveaxis(np.asarray(table), pos, -1).reshape(-1, dims[pos])
    return semiring.fold(rows, 0)


def exact_argmax(g):
    """Lexicographically least maximizer of the product, plus its value.

    Works on nonnegative-real tables (prob/maxtimes storage). Returns
    (assignment dict keyed by variable id, max product).
    """
    semiring = get_semiring("maxtimes")
    dims = tuple(v.obj.dim for v in g.variables)
    table = joint_table(g, semiring)
    if not dims:
        return {}, float(table.reshape(())[()])
    flat = np.asarray(table, dtype=np.float64).reshape(-1)
    best = int(np.argmax(flat))  # first hit = lexicographically least
    index = np.unravel_index(best, dims)
    assignment = {v.id: int(index[i]) for i, v in enumerate(g.variables)}
    return assignment, float(flat[best])
