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


@dataclass(frozen=True)
class FactorGraph:
    """Variables and factors whose tensors all live in one semiring.

    ``semiring`` is the registry name of that algebra. Every entry point
    runs the graph in it; to run another algebra, build or parse the model
    under that one.
    """

    variables: tuple = ()
    factors: tuple = ()
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
    def wires(self):
        """Every edge as (factor id, axis), factors ascending, axes ascending."""
        out = []
        for f in sorted(self.factors, key=lambda f: f.id):
            for axis in range(len(f.neighbors)):
                out.append((f.id, axis))
        return tuple(out)

    @cached_property
    def incident(self):
        """Map variable id -> tuple of (factor id, axis) wires touching it."""
        inc = {v.id: [] for v in self.variables}
        for fid, axis in self.wires:
            vid = self.factor(fid).neighbors[axis]
            if vid in inc:
                inc[vid].append((fid, axis))
        return {vid: tuple(ws) for vid, ws in inc.items()}

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
    fac_ids = [f.id for f in g.factors]
    if sorted(fac_ids) != list(range(len(fac_ids))):
        bad("factor-ids", f"factor ids must be unique and dense in [0, {len(fac_ids)}), got {sorted(fac_ids)}")
        return out

    dims = {v.id: v.obj.dim for v in g.variables}
    for f in g.factors:
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
    nv = len(g.variables)
    node_wires = [[] for _ in range(nv + len(g.factors))]
    ends = []
    for f in sorted(g.factors, key=lambda f: f.id):  # g.wires order
        for vid in f.neighbors:
            node_wires[vid].append(len(ends))
            node_wires[nv + f.id].append(len(ends))
            ends.append(vid + nv + f.id)
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

