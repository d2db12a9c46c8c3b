"""Factor-graph data model: typed wires, variable/factor nodes, validation.

A graph is bipartite: variable nodes on one side, factor nodes (dense
tensors) on the other. Each factor axis is wired to exactly one variable,
and a factor may touch the same variable on several axes, so an edge is
always identified by ``(factor id, axis)``.

Two modes exist. In spider mode a variable acts as a copy/delta tensor of
whatever arity its degree demands; that tensor is never materialized, the
engine multiplies messages pointwise instead. In bipartite mode each
variable node carries an explicit tensor of its own (rank = degree, every
axis of the variable's dimension) and is updated exactly like a factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .algebra import SEMIRINGS, get_semiring
from .errors import ValidationError


class GraphMode(Enum):
    SPIDER = "spider"
    BIPARTITE = "bipartite"


@dataclass(frozen=True)
class ObjectType:
    """A wire type: a name plus the number of states it ranges over."""

    name: str
    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"object {self.name!r} must have integer dim >= 1, got {self.dim!r}")


def composite_object(objects, name=None):
    """Object for a bundle of wires; its dim is the product of the parts."""
    dim = math.prod(o.dim for o in objects)
    if name is None:
        name = "(" + "*".join(o.name for o in objects) + ")"
    return ObjectType(name, dim)


@dataclass(frozen=True)
class VariableNode:
    id: int
    obj: ObjectType
    tensor: object = None  # DenseTensor in bipartite mode, else None

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
    mode: GraphMode = GraphMode.SPIDER
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

    def degree(self, vid):
        return len(self.incident[vid])

    @cached_property
    def _components(self):
        # components(g) copies this tuple into a new list
        scope = {f.id: f.neighbors for f in self.factors}
        fac_of_var = {v.id: [] for v in self.variables}
        for f in self.factors:
            for vid in f.neighbors:
                fac_of_var[vid].append(f.id)
        seen_v, seen_f = set(), set()
        comps = []
        for v in sorted(fac_of_var):
            if v in seen_v:
                continue
            vs, fs, stack = {v}, set(), [v]
            while stack:
                for fid in fac_of_var[stack.pop()]:
                    if fid not in fs:
                        fs.add(fid)
                        for u in scope[fid]:
                            if u not in vs:
                                vs.add(u)
                                stack.append(u)
            seen_v |= vs
            seen_f |= fs
            comps.append((tuple(sorted(vs)), tuple(sorted(fs))))
        for f in self.factors:
            if f.id not in seen_f:
                comps.append(((), (f.id,)))
        return tuple(comps)


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
    tensor shapes and dtypes (every tensor stored as the labelled
    semiring's ``dtype``), and the per-mode rules for variable tensors. An
    empty report means the graph is safe to run.
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

    if not out.ok:
        return out

    for v in g.variables:
        if g.mode is GraphMode.SPIDER:
            if v.tensor is not None:
                bad(
                    "spider-tensor",
                    f"variable {v.id} carries a tensor but the graph is in spider mode",
                    variable_id=v.id,
                )
        else:
            t, deg = v.tensor, g.degree(v.id)
            if t is None:
                bad("node-tensor", f"variable {v.id} needs a tensor in bipartite mode", variable_id=v.id)
            elif len(t.shape) != deg or any(d != v.obj.dim for d in t.shape):
                bad(
                    "node-shape",
                    f"variable {v.id}: tensor shape {list(t.shape)} must be [{v.obj.dim}] * degree {deg}",
                    variable_id=v.id,
                )
            elif t.data.dtype != dtype:
                bad(
                    "tensor-dtype",
                    f"variable {v.id}: {t.data.dtype} values in a {g.semiring} graph (needs {dtype})",
                    variable_id=v.id,
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


def _carry_verdict(g, source):
    """Carry ``source``'s passing verdict over to ``g``, a graph with the
    same ids, wiring, tensor shapes and mode."""
    if "_valid" in source.__dict__:
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
    isolated nodes has diameter 0.
    """
    n_edges = len(g.wires)
    multi = False
    for f in g.factors:
        if len(set(f.neighbors)) != len(f.neighbors):
            multi = True
            break
    comps = components(g)
    n_nodes = len(g.variables) + len(g.factors)
    # a forest has exactly nodes - components edges
    is_forest = n_edges == n_nodes - len(comps)
    is_tree = is_forest and not multi
    diameter = _forest_diameter(g, comps) if is_tree else None
    return TreeInfo(is_tree=is_tree, diameter=diameter, components=len(comps))


def _adjacency(g):
    adj = {("v", v.id): [] for v in g.variables}
    adj.update({("f", f.id): [] for f in g.factors})
    for fid, axis in g.wires:
        vid = g.factor(fid).neighbors[axis]
        adj[("f", fid)].append(("v", vid))
        adj[("v", vid)].append(("f", fid))
    return adj

def _bfs_depths(adj, start):
    depth = {start: 0}
    frontier = [start]
    far = start
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adj[node]:
                if nb not in depth:
                    depth[nb] = depth[node] + 1
                    nxt.append(nb)
                    far = nb
        frontier = nxt
    return depth, far


def _forest_diameter(g, comps):
    # classic double-BFS per component
    adj = _adjacency(g)
    best = 0
    for vs, fs in comps:
        start = ("v", vs[0]) if vs else ("f", fs[0])
        _, far = _bfs_depths(adj, start)
        depth, _ = _bfs_depths(adj, far)
        best = max(best, max(depth.values()))
    return best


def build_graph(var_dims, factors, semiring, mode=GraphMode.SPIDER, var_tensors=None):
    """Convenience constructor from plain Python data.

    ``var_dims`` is a list of dims or (name, dim) pairs; ``factors`` a list
    of (neighbor ids, flat row-major values). Values are coerced into the
    given semiring's scalar type, and the graph is labelled with it.
    ``var_tensors`` supplies per-variable tensors for bipartite mode as
    flat value lists.
    """
    from .tensor import DenseTensor  # local import; tensor layer sits above this one

    semiring = get_semiring(semiring)
    variables = []
    for i, entry in enumerate(var_dims):
        name, dim = entry if isinstance(entry, tuple) else (f"v{i}", entry)
        variables.append(VariableNode(i, ObjectType(name, dim)))

    nodes = []
    for i, (neighbors, values) in enumerate(factors):
        unknown = [v for v in neighbors if not 0 <= v < len(variables)]
        if unknown:
            raise ValidationError(
                f"factor {i} references unknown variable ids {unknown}"
            )
        shape = tuple(variables[v].obj.dim for v in neighbors)
        nodes.append(FactorNode(i, DenseTensor.from_values(shape, values, semiring), tuple(neighbors)))

    g = FactorGraph(tuple(variables), tuple(nodes), mode=mode, semiring=semiring.name)
    if var_tensors is not None:
        fitted = []
        for v in g.variables:
            deg = g.degree(v.id)
            t = DenseTensor.from_values((v.obj.dim,) * deg, var_tensors[v.id], semiring)
            fitted.append(VariableNode(v.id, v.obj, t))
        g = FactorGraph(tuple(fitted), g.factors, mode=mode, semiring=semiring.name)
    return _ensure_valid(g)
