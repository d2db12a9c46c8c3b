"""Factor-graph data model: typed wires, variable/factor nodes, validation.

A graph is bipartite: variable nodes on one side, factor nodes (dense
tensors) on the other. Each factor axis is wired to exactly one variable,
and a factor may touch the same variable on several axes, so an edge is
always identified by ``(factor id, axis)``.

Every variable is a spider: a copy/delta tensor of whatever arity its
degree demands. That tensor is never materialized; the engine multiplies
messages pointwise instead. A node that should carry a tensor of its own
is written in normal (Forney) form: one variable per wire, and the node's
tensor as a factor over those variables.

Every graph holds its wiring once, as a wire table (``_Wires``): numpy
arrays of factor id, axis, variable id and dim, one entry per wire in
``g.wires`` order, each factor's offset into them, and the tables stacked
by shape. The parsers fill it directly, and a graph they build makes its
``FactorNode``s only when ``g.factors`` or ``g.factor()`` is first read,
each tensor a read-only view of the stacked tables. A graph built from
nodes (``FactorGraph(variables, factors, semiring)``) gets its table from
them once they pass ``validate_graph``. Validation of a table-first graph,
the walk below and the engine's compiled plan read the table, not the
nodes.

Tree structure comes from one walk, ``_walk``: a breadth-first traversal
that roots each component at its smallest variable and records every
node's wire to its parent, noting any wire that closes a cycle.
``components``, ``tree_info``, the two-pass schedule and its message
levels (``_wire_levels``) all read it; on a tree the diameter is one more
than the highest message level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .algebra import SEMIRINGS
from .errors import NotATreeError, TooLargeError, ValidationError

#: hard cap on total entries of any one tensor, and so on any one dim
DEFAULT_TENSOR_CAP = 1 << 24


@dataclass(frozen=True)
class ObjectType:
    """A wire type: a name plus the number of states it ranges over, at
    most ``DEFAULT_TENSOR_CAP`` (TooLargeError), as any tensor's entries."""

    name: str
    dim: int

    def __post_init__(self):
        if type(self.dim) is bool or not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"object {self.name!r} must have integer dim >= 1, got {self.dim!r}")
        if self.dim > DEFAULT_TENSOR_CAP:
            raise TooLargeError(
                f"object {self.name!r} has dim {self.dim}, over the tensor cap of {DEFAULT_TENSOR_CAP}"
            )


@dataclass(frozen=True)
class VariableNode:
    id: int
    obj: ObjectType

    @property
    def dim(self):
        return self.obj.dim


@dataclass(frozen=True)
class FactorNode:
    id: int
    tensor: object  # DenseTensor
    neighbors: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "neighbors", tuple(self.neighbors))

    @property
    def rank(self):
        return len(self.neighbors)


def _frozen(arr):
    """``arr``, made read-only; views of it inherit the flag."""
    arr.flags.writeable = False
    return arr


class _Wires(NamedTuple):
    """A graph's wiring and tables, built once and kept on the graph.

    ``fac``, ``axis``, ``var`` and ``dim`` hold one entry per wire in
    ``g.wires`` order: its factor id, axis, variable id, and the tensor's
    dim on that axis. ``start[k]`` is the first wire of the k-th factor in
    that order (factors by id, so factor k's on a valid graph) and
    ``start[-1]`` the wire count. ``ids`` are the factor ids in
    ``g.factors`` order, and ``groups`` holds one (shape, positions in
    ``g.factors`` order, tables stacked as (members, *shape)) triple per
    tensor shape. Every array is read-only.
    """

    ids: list
    fac: np.ndarray
    axis: np.ndarray
    var: np.ndarray
    dim: np.ndarray
    start: np.ndarray
    groups: tuple


def _wire_table(ids, neighbors, shapes, flat):
    """The ``_Wires`` of factors ``ids`` (``g.factors`` order), each wired
    to the variable ids ``neighbors`` (int sequences), with tables of
    ``shapes`` cut in order from the flat array ``flat``."""
    fids = np.array(ids, dtype=np.intp)
    ranks = np.fromiter(map(len, neighbors), np.intp, len(neighbors))
    order = np.argsort(fids, kind="stable")  # g.wires order
    sorted_shapes = shapes
    if (np.diff(order) < 0).any():
        neighbors, sorted_shapes, ranks = [neighbors[k] for k in order], [shapes[k] for k in order], ranks[order]
    start = np.zeros(len(ranks) + 1, dtype=np.intp)
    np.cumsum(ranks, out=start[1:])
    n = int(start[-1])
    return _Wires(
        ids,
        _frozen(np.repeat(fids[order], ranks)),
        _frozen(np.arange(n, dtype=np.intp) - np.repeat(start[:-1], ranks)),
        _frozen(np.fromiter(chain.from_iterable(neighbors), np.intp, n)),
        _frozen(np.fromiter(chain.from_iterable(sorted_shapes), np.intp, n)),
        _frozen(start),
        _stacked(shapes, flat),
    )


def _stacked(shapes, flat):
    """``_Wires.groups`` of tables with these shapes cut in order from
    ``flat``: views of one read-only copy of it, its entries grouped by
    shape."""
    by_shape = {}
    for k, shape in enumerate(shapes):
        by_shape.setdefault(shape, []).append(k)
    offsets = np.zeros(len(shapes) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(math.prod, shapes), np.intp, len(shapes)), out=offsets[1:])
    members = [np.array(pos, dtype=np.intp) for pos in by_shape.values()]
    picks = [(offsets[pos, None] + np.arange(math.prod(shape))).reshape(-1) for shape, pos in zip(by_shape, members)]
    flat = _frozen(flat[np.concatenate(picks)] if picks else flat)
    groups, at = [], 0
    for shape, pos, pick in zip(by_shape, members, picks):
        groups.append((shape, _frozen(pos), flat[at : at + len(pick)].reshape(len(pos), *shape)))
        at += len(pick)
    return tuple(groups)


def _factor_nodes(w):
    """The ``FactorNode``s of a valid graph's wire table ``w``, in
    ``g.factors`` order, each tensor a view of its stacked table."""
    from .tensor import DenseTensor

    tensors = [None] * len(w.ids)
    for shape, pos, stack in w.groups:
        for k, table in zip(pos.tolist(), stack.reshape(len(pos), -1)):
            tensors[k] = DenseTensor._wrap(shape, table)
    var, start = w.var.tolist(), w.start.tolist()
    return tuple(FactorNode(fid, t, tuple(var[start[fid] : start[fid + 1]])) for fid, t in zip(w.ids, tensors))


class _Nodes:
    """``FactorGraph.factors`` of a graph made from a wire table: its
    ``FactorNode``s, built on first read and then kept."""

    def __get__(self, g, owner=None):
        if g is None:
            return ()  # the field's default
        return g.__dict__.setdefault("factors", _factor_nodes(g._wires))


@dataclass(frozen=True)
class FactorGraph:
    """Variables and factors whose tensors all live in one semiring.

    ``semiring`` is the registry name of that algebra. Every entry point
    runs the graph in it; to run another algebra, build or parse the model
    under that one. A parsed graph builds its ``factors`` from its wire
    table on first read (see the module docstring).
    """

    variables: tuple = ()
    factors: tuple = _Nodes()
    semiring: str = "prob"

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "factors", tuple(self.factors))

    def variable(self, vid):
        return self._vars_by_id[vid]

    def factor(self, fid):
        return self._factors_by_id[fid]

    @cached_property
    def _vars_by_id(self):
        return {v.id: v for v in self.variables}

    @cached_property
    def _factors_by_id(self):
        return {f.id: f for f in self.factors}

    @cached_property
    def _wires(self):
        # a graph built from nodes gets its table once they pass validate_graph;
        # the parsers set the table of theirs
        factors = _ensure_valid(self).factors
        data = np.concatenate([f.tensor.data for f in factors]) if factors else np.empty(0)
        shapes = [f.tensor.shape for f in factors]
        return _wire_table([f.id for f in factors], [f.neighbors for f in factors], shapes, data)

    @cached_property
    def _dims(self):
        """Each variable's dim by id; read only once the ids are dense."""
        dims = np.empty(len(self.variables), dtype=np.intp)
        dims[[v.id for v in self.variables]] = [v.obj.dim for v in self.variables]
        return _frozen(dims)

    @cached_property
    def wires(self):
        """Every edge as (factor id, axis), factors ascending, axes ascending."""
        return tuple(zip(self._wires.fac.tolist(), self._wires.axis.tolist()))

    @cached_property
    def incident(self):
        """Map variable id -> tuple of (factor id, axis) wires touching it."""
        inc = {v.id: [] for v in self.variables}
        for wire, vid in zip(self.wires, self._wires.var.tolist()):
            if vid in inc:
                inc[vid].append(wire)
        return {vid: tuple(ws) for vid, ws in inc.items()}

    @classmethod
    def _of_table(cls, variables, table, semiring):
        """The graph of ``variables`` (a tuple) and the factors of wire
        table ``table``, unchecked; ``factors`` is built on first read."""
        g = object.__new__(cls)
        # the instance dict, which the frozen __setattr__ does not guard
        g.__dict__.update(variables=variables, semiring=semiring, _wires=table)
        return g

    @cached_property
    def _forest(self):
        # the walk rooted at each component's smallest variable; components(),
        # tree_info(), the two-pass schedule and its levels all read it
        return _walk(self)

    @cached_property
    def _components(self):
        # components(g) copies this tuple into a new list
        nv = len(self.variables)
        return tuple(
            (tuple(sorted(n for n in comp if n < nv)), tuple(sorted(n - nv for n in comp if n >= nv)))
            for comp in self._forest[0]
        )


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    variable_id: int = None
    factor_id: int = None
    axis: int = None

    def __str__(self):
        return self.message


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def raise_if_invalid(self):
        if not self.ok:
            lines = "; ".join(str(v) for v in self.violations)
            raise ValidationError(f"invalid graph: {lines}", report=self)


def validate_graph(g):
    """Structural checks; returns a report rather than raising.

    Checks the semiring label, id density, wiring against declared dims,
    and tensor shapes and dtypes (every tensor stored as the labelled
    semiring's ``dtype``). An empty report means the graph is safe to run.
    A graph with a wire table is checked by array tests over it, and only
    a factor they flag is looked at node by node, for its messages; a
    graph built from nodes is checked node by node.
    """
    out = ValidationReport()

    def bad(code, message, **where):
        out.violations.append(Violation(code, message, **where))

    if g.semiring not in SEMIRINGS:
        known = ", ".join(sorted(SEMIRINGS))
        bad("semiring", f"unknown semiring {g.semiring!r}; known: {known}")
        return out
    dtype = np.dtype(SEMIRINGS[g.semiring].dtype)

    var_ids = [v.id for v in g.variables]
    if sorted(var_ids) != list(range(len(var_ids))):
        bad("variable-ids", f"variable ids must be unique and dense in [0, {len(var_ids)}), got {sorted(var_ids)}")
        return out
    w = g.__dict__.get("_wires")  # a graph built from nodes has none until it passes
    fac_ids = [f.id for f in g.factors] if w is None else w.ids
    if sorted(fac_ids) != list(range(len(fac_ids))):
        bad("factor-ids", f"factor ids must be unique and dense in [0, {len(fac_ids)}), got {sorted(fac_ids)}")
        return out

    # the factors to check node by node, in g.factors order: with a table,
    # only those whose wiring or dtype the array tests flag
    suspects = range(len(fac_ids))
    if w is not None:
        known = (w.var >= 0) & (w.var < len(var_ids))
        fits = known & (w.dim == np.append(g._dims, 0)[np.where(known, w.var, -1)])
        flawed = np.zeros(len(fac_ids), dtype=bool)
        flawed[[fac_ids.index(fid) for fid in set(w.fac[~fits].tolist())]] = True
        for _shape, pos, stack in w.groups:
            flawed[pos] |= stack.dtype != dtype
        suspects = np.flatnonzero(flawed).tolist()

    dims = {v.id: v.obj.dim for v in g.variables}
    for k in suspects:
        f = g.factors[k]
        t = f.tensor
        if t is None:
            bad("factor-tensor", f"factor {f.id} has no tensor", factor_id=f.id)
            continue
        if len(t.shape) != len(f.neighbors):
            bad(
                "factor-rank",
                f"factor {f.id}: tensor rank {len(t.shape)} != {len(f.neighbors)} neighbors",
                factor_id=f.id,
            )
            continue
        if t.data.dtype != dtype:
            bad(
                "tensor-dtype",
                f"factor {f.id}: {t.data.dtype} values in a {g.semiring} graph (needs {dtype})",
                factor_id=f.id,
            )
        if len(t.data) != math.prod(t.shape):
            bad(
                "tensor-size",
                f"factor {f.id}: {len(t.data)} values for shape {list(t.shape)}",
                factor_id=f.id,
            )
        for axis, vid in enumerate(f.neighbors):
            if vid not in dims:
                bad(
                    "factor-neighbor",
                    f"factor {f.id} axis {axis} references unknown variable {vid}",
                    factor_id=f.id,
                    axis=axis,
                )
            elif t.shape[axis] != dims[vid]:
                bad(
                    "axis-dim",
                    f"factor {f.id} axis {axis}: dim {t.shape[axis]} != variable {vid} dim {dims[vid]}",
                    factor_id=f.id,
                    axis=axis,
                )

    return out


def _ensure_valid(g):
    """Raise ValidationError unless ``g`` passes ``validate_graph``.

    A graph is frozen and its tensors are read-only, so a passing verdict
    is kept on the graph, beside ``wires`` and ``incident``, and each graph
    is validated once however many entry points it passes through. A
    failing graph is checked again at every call. Returns ``g``.
    """
    if "_valid" not in g.__dict__:
        validate_graph(g).raise_if_invalid()
        g.__dict__["_valid"] = True
    return g


@dataclass(frozen=True)
class TreeInfo:
    is_tree: bool
    diameter: int = None  # only present when is_tree
    components: int = 0


def components(g):
    """Connected components as (variable ids, factor ids) pairs.

    Isolated variables and rank-0 factors each form their own component.
    Deterministic: ordered by smallest member, variables first. Computed
    once per graph; each call returns a new list.
    """
    return list(g._components)


def tree_info(g):
    """Component count plus treeness/diameter of the bipartite graph.

    ``is_tree`` holds when every component is a tree (no cycles) and no
    factor touches the same variable twice. The diameter is the longest
    shortest path measured in edges, maximized over components; a graph of
    isolated nodes has diameter 0. On a tree that path ends in the wire of
    the highest-level message (see ``_wire_levels``), so the diameter is one
    more than the highest level.
    """
    n = len(components(g))
    try:
        v2f, f2v = _wire_levels(g)
    except NotATreeError:
        return TreeInfo(is_tree=False, components=n)
    return TreeInfo(is_tree=True, diameter=1 + max(v2f + f2v, default=-1), components=n)


def _by_variable(w, nv):
    """(order, cuts): the wires of variable v of the ``nv`` in table ``w``
    are ``order[cuts[v]:cuts[v + 1]]``, in ``g.wires`` order."""
    cuts = np.zeros(nv + 1, dtype=np.intp)
    np.cumsum(np.bincount(w.var, minlength=nv), out=cuts[1:])
    return np.argsort(w.var, kind="stable"), cuts


def _walk(g):
    """Breadth-first walk of every component of ``g`` as a rooted tree.

    Variable ``v`` is node ``v`` and factor ``f`` node ``nv + f``; wire
    ``i`` is ``g.wires[i]`` and ``ends[i]`` the sum of its two nodes, so
    ``ends[i] - n`` is the other end seen from node ``n``. Each component
    is rooted at its smallest variable, where the two-pass schedule and
    ``contraction_value`` close it (a rank-0 factor is a component of its
    own). Read it through the graph's cached ``_forest``.

    Returns ``(comps, parent, node_wires, ends, cyclic)``: each component's
    nodes in BFS order, components ordered by smallest member, variables
    first; each node's wire to its parent (-1 at a root); each node's wires
    in ``g.wires`` order; and whether some wire closes a cycle, a repeated
    wire included.
    """
    w, nv = g._wires, len(g.variables)
    # a variable's wires in g.wires order, then each factor's run of wires
    by_var, cuts = (a.tolist() for a in _by_variable(w, nv))
    runs, every = w.start.tolist(), list(range(len(w.var)))
    node_wires = [by_var[a:b] for a, b in zip(cuts, cuts[1:])]
    node_wires += [every[a:b] for a, b in zip(runs, runs[1:])]
    ends = (w.var + (nv + w.fac)).tolist()
    parent = [-2] * len(node_wires)  # -2: not reached yet
    comps, cyclic = [], False
    for start in range(len(node_wires)):
        if parent[start] != -2:
            continue
        parent[start] = -1
        comp = [start]
        for node in comp:  # grows while it is read
            p = parent[node]
            for i in node_wires[node]:
                if i != p:
                    other = ends[i] - node
                    if parent[other] == -2:
                        parent[other] = i
                        comp.append(other)
                    else:
                        cyclic = True
        comps.append(comp)
    return comps, parent, node_wires, ends, cyclic


def _wire_levels(g):
    """Level of every directed wire, as (v2f, f2v) lists by ``g.wires`` index.

    A message's level is 1 + the largest level among the messages it
    reads, 0 when it reads none (a leaf variable, a rank-1 factor). An up
    pass and a down pass over the walk keep each node's top two incoming
    levels. Raises NotATreeError on a cycle or a repeated wire.
    """
    comps, parent, node_wires, ends, cyclic = g._forest
    if cyclic:
        raise NotATreeError("two-pass scheduling needs a cycle-free graph without repeated wires")
    nv = len(g.variables)
    # a variable reads f2v and sends v2f
    v2f = [0] * len(ends)
    f2v = [0] * len(ends)
    for comp in comps:
        for node in reversed(comp):
            p = parent[node]
            if p >= 0:
                into, out = (f2v, v2f) if node < nv else (v2f, f2v)
                top = -1
                for i in node_wires[node]:
                    if i != p and into[i] > top:
                        top = into[i]
                out[p] = top + 1
        for node in comp:
            into, out = (f2v, v2f) if node < nv else (v2f, f2v)
            wires = node_wires[node]
            top, second, top_wire = -1, -1, -1
            for i in wires:
                x = into[i]
                if x > top:
                    top, second, top_wire = x, top, i
                elif x > second:
                    second = x
            p = parent[node]
            for i in wires:
                if i != p:
                    out[i] = (second if i == top_wire else top) + 1
    return v2f, f2v

