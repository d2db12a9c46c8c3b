"""Junction trees: exact inference on loopy graphs by clustering.

The variables' co-occurrence graph is triangulated by min-fill elimination
(ties to the lowest id, fills kept in a heap and updated incrementally),
and the junction tree is read off the elimination: each eliminated
variable's clique hangs under the step that eliminates the first of its
remaining neighbours, and a clique contained in a child's takes that
child's place. The maximal cliques so linked form a spanning forest of
maximum total separator size, and the running intersection property holds:
every variable's cliques form a connected subtree.

Inference is Shafer-Shenoy propagation over the separators: each tree edge
carries one message each way, a dense array over the separator's variables
lifted once into the receiver's member axes. A clique sends its potential
times every other incoming message, summed onto the separator by one
``_fold0`` of its (rest, separator) rows. One collect and one distribute
pass per component are exact over any commutative semiring (the
generalized distributive law). A variable's marginal is one ``_fold0`` of
its lowest-id covering clique's belief as (rest, dim) rows, the same from
any covering clique; one ``_normalize_columns`` rescales a dim's marginals.
Every sum is the ascending left fold in row-major order of the summed-out
indices (``spiderbp.algebra``).

A frozen graph keeps its junction tree compiled, read-only, beside its BP
plan: the tree, clique potentials, send and read program are built on its
first ``run_junction_tree``, later calls only propagate, and every
``JTResult`` of the graph shares the one tree.
"""

from __future__ import annotations

import heapq
import math
import types
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .algebra import get_semiring
from .engine import _check_index, _kept, _run_semiring
from .errors import CliqueTooLargeError, ValidationError
from .graph import _ensure_valid, _frozen
from .tensor import DEFAULT_TENSOR_CAP, DenseTensor, Message


@dataclass(frozen=True)
class Clique:
    id: int
    members: tuple  # sorted variable ids
    factor_ids: tuple = ()  # factors folded into this clique's potential


@dataclass(frozen=True)
class JunctionTree:
    cliques: tuple
    #: tree edges as (clique id a, clique id b, separator variable ids), a < b,
    #: sorted
    edges: tuple
    #: original variable id -> lowest-id covering clique, read-only
    variable_to_clique: types.MappingProxyType
    elimination_order: tuple


def _primal_adjacency(g):
    adj = {v.id: set() for v in g.variables}
    for f in g.factors:
        scope = sorted(set(f.neighbors))
        for a, b in combinations(scope, 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _eliminate(adj):
    """Min-fill elimination and the clique tree it induces.

    Eliminates greedily by least fill-in, ties to the lowest id, off a heap
    keyed (fill, id) whose stale entries are skipped. Eliminating x changes
    only its neighbours' fills, recomputed, and takes one off a vertex's
    per fill edge between two of its neighbours (Kjaerulff 1990). Step i's
    clique is v_i with N_i, its neighbours still uneliminated, and its
    parent is the step of N_i's first-eliminated member. It lies in another
    clique exactly when a child's N_i equals it, and the first such child
    takes its place. Returns (elimination order, maximal cliques in that
    order, tree edges (a, b, separator) between clique indices, a < b, sorted).
    """
    adj = {v: set(nbrs) for v, nbrs in adj.items()}

    def missing(v):  # edges missing among v's k neighbours: (k(k-1) - sum |N(a) & N(v)|) / 2
        k = len(adj[v])
        return (k * (k - 1) - sum(map(len, map(adj[v].intersection, map(adj.__getitem__, adj[v]))))) // 2

    fill = {v: missing(v) for v in adj}
    heap = sorted((f, v) for v, f in fill.items())
    order, later = [], []  # later[i]: N_i, sorted
    while heap:
        f, best = heapq.heappop(heap)
        if fill.get(best) != f:
            continue  # stale: eliminated, or its fill has changed since
        del fill[best]
        nbrs = sorted(nset := adj.pop(best))
        for n in nbrs:
            adj[n].discard(best)
        for a, b in combinations(nbrs, 2):
            if b not in adj[a]:  # a fill edge: one fewer missing for a and b's common neighbours
                for w in (adj[a] & adj[b]) - nset:
                    fill[w] -= 1
                    heapq.heappush(heap, (fill[w], w))
                adj[a].add(b)
                adj[b].add(a)
        for v in nbrs:
            fill[v] = missing(v)
            heapq.heappush(heap, (fill[v], v))
        order.append(best)
        later.append(nbrs)

    step = {v: i for i, v in enumerate(order)}
    parent = [min((step[n] for n in nbrs), default=None) for nbrs in later]
    heir = {}  # non-maximal step -> its first child, whose clique holds it
    for i, p in enumerate(parent):
        if p is not None and p not in heir and len(later[i]) == len(later[p]) + 1:
            heir[p] = i
    holder = []  # step -> the step of the kept clique that holds it
    for i in range(len(order)):
        holder.append(holder[heir[i]] if i in heir else i)
    kept = {s: k for k, s in enumerate(i for i in range(len(order)) if i not in heir)}
    cliques = [tuple(sorted([order[s]] + later[s])) for s in kept]
    edges = []
    for i, p in enumerate(parent):
        if p is not None and heir.get(p) != i:
            a, b = sorted((kept[holder[i]], kept[holder[p]]))
            edges.append((a, b, tuple(sorted(set(cliques[a]) & set(cliques[b])))))
    return order, cliques, tuple(sorted(edges))


def running_intersection_holds(tree):
    """True when each variable's cliques form a connected subtree."""
    adj = {c.id: [] for c in tree.cliques}
    for a, b, _sep in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
    var_cliques = {}
    for c in tree.cliques:
        for v in c.members:
            var_cliques.setdefault(v, set()).add(c.id)
    for v, ids in var_cliques.items():
        start = next(iter(ids))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if nb in ids and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != ids:
            return False
    return True


def build_junction_tree(g):
    """Cluster a graph into a junction tree (forest).

    Deterministic throughout: min-fill ties break to the lowest variable
    id, a clique's id is its place in elimination order, the tree is the
    one the elimination induces, and each factor lands in the lowest-id
    clique covering its scope. A rank-0 factor, a scalar that slides
    through any diagram, lands in no clique: it only scales Z. Raises
    CliqueTooLargeError when any clique's state space would exceed
    ``DEFAULT_TENSOR_CAP`` entries.
    """
    _ensure_valid(g)
    order, members, edges = _eliminate(_primal_adjacency(g))
    dims = {v.id: v.obj.dim for v in g.variables}
    for m in members:
        size = math.prod(dims[v] for v in m)
        if size > DEFAULT_TENSOR_CAP:
            raise CliqueTooLargeError(
                f"clique {list(m)} has {size} states, over the cap of {DEFAULT_TENSOR_CAP}"
            )

    assigned = {i: [] for i in range(len(members))}
    covering = {}  # variable id -> ids of the cliques holding it, ascending
    for i, m in enumerate(members):
        for v in m:
            covering.setdefault(v, []).append(i)
    for f in sorted((f for f in g.factors if f.neighbors), key=lambda f: f.id):  # a rank-0 factor scales Z only
        scope = set(f.neighbors)
        assigned[next(i for i in covering[f.neighbors[0]] if scope.issubset(members[i]))].append(f.id)

    cliques = tuple(
        Clique(i, m, tuple(assigned[i])) for i, m in enumerate(members)
    )
    var_to_clique = types.MappingProxyType({v: ids[0] for v, ids in covering.items()})
    tree = JunctionTree(cliques, edges, var_to_clique, tuple(order))
    if not running_intersection_holds(tree):
        raise RuntimeError("internal error: running intersection property violated")
    return tree


def _clique_potential(g, semiring, clique):
    """Member-space product of the factors assigned to this clique."""
    pot = semiring.ones(tuple(g.variable(v).obj.dim for v in clique.members))
    for fid in clique.factor_ids:
        f = g.factor(fid)
        pot = semiring.array_mul(pot, _lift(f.tensor.as_array(), f.neighbors, clique.members))
    return np.asarray(pot)


def _onto(dims, members, sep):
    """A send's layout for ``dims``: (transpose order, summed-out axes
    first; (rest, separator) rows; separator shape)."""
    keep = [members.index(v) for v in sep]
    sep_dims = tuple(dims[i] for i in keep)
    rest = [i for i in range(len(members)) if i not in keep]
    return rest + keep, (math.prod(dims[i] for i in rest), math.prod(sep_dims)), sep_dims


def _split(shape, pos):
    """``shape`` as (pre, dim, post) around its axis ``pos``."""
    return math.prod(shape[:pos]), shape[pos], math.prod(shape[pos + 1 :])


def _fold_read(semiring, belief, pre, dim, post):
    """A variable's unscaled marginal out of ``belief``, laid out as (pre,
    dim, post) around its axis (``_split``): one ``_fold0`` of its (pre,
    post) rows, in ascending row-major order."""
    return semiring._fold0(belief.reshape(pre, dim, post).transpose(0, 2, 1).reshape(-1, dim))


def _lift(arr, variables, members):
    """``arr``, one axis per entry of ``variables``, as a view that
    broadcasts over a clique's member axes: a repeated variable's axes
    become their diagonal, the others are transposed into member order, and
    absent members get unit axes. No entry is copied."""
    axes = list(variables)
    while len(set(axes)) < len(axes):  # np.diagonal puts the pair's axis last
        i = next(k for k, v in enumerate(axes) if v in axes[k + 1:])
        j = axes.index(axes[i], i + 1)
        arr = np.diagonal(arr, axis1=i, axis2=j)
        axes = [a for k, a in enumerate(axes) if k not in (i, j)] + [axes[i]]
    if axes != sorted(axes):
        arr = arr.transpose(sorted(range(len(axes)), key=axes.__getitem__))
    return arr[tuple([slice(None) if m in axes else None for m in members])]


class _CompiledTree:
    """A graph's junction tree, potentials (read-only: every run shares
    them), send program (per separator message, in collect-then-distribute
    order: sender, receiver, ``_onto`` layout, lift index), reads (per
    dim, each variable's home clique and ``_split``) and the entries of
    its rank-0 factors (``scalars``), which no clique holds. It holds no index
    array over clique entries and no reference to the graph."""

    def __init__(self, g):
        semiring = get_semiring(g.semiring)
        self.tree = tree = build_junction_tree(g)
        self.scalars = [f.tensor.data.item(0) for f in sorted(g.factors, key=lambda f: f.id) if not f.neighbors]
        members = [c.members for c in tree.cliques]
        self.potentials = tuple(_clique_potential(g, semiring, c) for c in tree.cliques)
        for pot in self.potentials:  # fresh arrays: frozen, not copied
            pot.flags.writeable = False
        nbrs = [{} for _ in members]
        for a, b, sep in tree.edges:
            nbrs[a][b] = nbrs[b][a] = sep
        self.neighbours = tuple(tuple(sorted(n)) for n in nbrs)
        self.roots, self.sends, parent = [], [], {}
        for root in range(len(members)):
            if root in parent:
                continue
            self.roots.append(root)
            order, parent[root], stack = [], None, [root]
            while stack:  # pre-order, lowest-id child first
                cid = stack.pop()
                order.append(cid)
                for other in reversed(self.neighbours[cid]):
                    if other != parent[cid]:
                        parent[other] = cid
                        stack.append(other)
            for a, b in [(cid, parent[cid]) for cid in reversed(order[1:])] + [(parent[cid], cid) for cid in order[1:]]:
                lift = tuple([slice(None) if m in nbrs[a][b] else None for m in members[b]])
                self.sends.append((a, b, *_onto(self.potentials[a].shape, members[a], nbrs[a][b]), lift))
        self.var_ids, self.reads, at = tuple(v.id for v in g.variables), {}, tree.variable_to_clique
        for slot, v in enumerate(g.variables):  # dim -> [(slot in g.variables, obj, home clique, split)]
            split = _split(self.potentials[at[v.id]].shape, members[at[v.id]].index(v.id))
            self.reads.setdefault(v.obj.dim, []).append((slot, v.obj, at[v.id], split))


@dataclass
class JTResult:
    """One run's read-only answers; ``tree`` is the graph's kept tree,
    shared by every result of the graph."""

    variable_beliefs: dict
    contraction_value: object
    tree: JunctionTree
    #: registry name of the graph's semiring, which the beliefs live in
    semiring: str
    #: clique id -> unnormalized member-space belief (potential times all
    #: incoming separator messages); every covering clique of a variable
    #: folds to the same marginal
    clique_beliefs: dict = None
    contradiction: bool = False


def run_junction_tree(g, cfg):
    """Exact marginals and contraction value via the junction tree.

    The graph's first call compiles its tree, kept read-only and shared by
    every ``JTResult`` (ValidationError, CliqueTooLargeError); each call only
    runs unnormalized Shafer-Shenoy propagation: in each component, rooted
    at its lowest clique id, separator messages are collected towards the
    root in post-order, then distributed in pre-order. Each clique's belief
    is its potential times every incoming message; each variable's marginal
    is folded out of its lowest-id covering clique (rescaled per config),
    and Z is the product over components of the root beliefs' totals, then
    of each rank-0 factor's entry in factor-id order (as ``contraction_value``).
    ``contradiction`` flags dead support by ``run_bp``'s rule: a normalized
    marginal of zero mass (reported as its raw zeros), or under bool Z = 0.
    """
    semiring = _run_semiring(g.semiring, cfg)
    jt = _kept(g, "_junction_tree", _CompiledTree)
    messages = {}  # (sender, receiver) -> separator message lifted to the receiver

    def gather(cid, skip=None):
        arr = jt.potentials[cid]
        for other in jt.neighbours[cid]:
            if other != skip:
                arr = semiring.array_mul(arr, messages[(other, cid)])
        return arr

    for a, b, order, rows, sep_dims, lift in jt.sends:
        messages[(a, b)] = semiring._fold0(gather(a, skip=b).transpose(order).reshape(rows)).reshape(sep_dims)[lift]
    beliefs = [gather(cid) for cid in range(len(jt.potentials))]
    totals = [semiring.fold(beliefs[root].reshape(-1), 0).item() for root in jt.roots]
    z = reduce(semiring.mul, totals + jt.scalars, semiring.one)
    marginals, contradiction = [None] * len(jt.var_ids), semiring.name == "bool" and z == semiring.zero
    for dim, group in jt.reads.items():
        values = np.empty((dim, len(group)), dtype=semiring.dtype)
        for j, (_slot, _obj, cid, split) in enumerate(group):
            values[:, j] = _fold_read(semiring, beliefs[cid], *split)
        if cfg.normalize and semiring.has_normalize:
            contradiction = semiring._normalize_columns(values) is not None or contradiction
        for (slot, obj, *_), row in zip(group, _frozen(values.T.copy())):
            marginals[slot] = Message._wrap(obj, row)
    clique_beliefs = {cid: DenseTensor._wrap(arr.shape, arr.reshape(-1)) for cid, arr in enumerate(beliefs)}
    for belief in clique_beliefs.values():  # fresh arrays or kept potentials: frozen, not copied
        belief.data.flags.writeable = False
    return JTResult(dict(zip(jt.var_ids, marginals)), z, jt.tree, semiring.name, clique_beliefs, contradiction)


def marginal_from_clique(result, cid, variable_id, cfg):
    """Marginal of one variable folded out of one covering clique's belief.

    Every clique containing the variable must yield the same (rescaled)
    answer; exposed so callers can verify that consistency. ``cfg`` is
    checked against the semiring of the graph the result came from; a
    clique id that is not an int in range, or a variable id that is not an
    int in the clique, is a ValidationError.
    """
    semiring = _run_semiring(result.semiring, cfg)
    cid = _check_index(cid, len(result.tree.cliques), "a clique id", f"no clique with id {cid}")
    clique = result.tree.cliques[cid]
    outside = f"variable {variable_id} is not a member of clique {cid} {list(clique.members)}"
    variable_id = _check_index(variable_id, len(result.variable_beliefs), "a variable id", outside)
    if variable_id not in clique.members:
        raise ValidationError(outside)
    belief = result.clique_beliefs[cid].as_array()
    values = _fold_read(semiring, belief, *_split(belief.shape, clique.members.index(variable_id)))
    if cfg.normalize and semiring.has_normalize:
        semiring._normalize_columns(values[:, None])  # a dead one keeps its raw zeros
    values.flags.writeable = False
    return Message._wrap(result.variable_beliefs[variable_id].obj, values)
