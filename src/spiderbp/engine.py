"""The message-passing engine: schedules, convergence, contraction, decoding.

Messages live on directed wires. Because a factor can touch the same
variable on several axes, wires are keyed by ``(factor id, axis)``:
``factor_to_var[(f, axis)]`` flows from the factor to the variable on that
axis, and ``var_to_factor[(v, f, axis)]`` flows back. Variable updates take
the pointwise product of the other incoming messages (the copy tensor stays
virtual); factor updates contract the factor against the other incoming
messages. In bipartite mode a variable node carries an explicit tensor and
is updated exactly like a factor, with its axes paired to the incident
wires sorted by ``(factor id, axis)``; its per-node "belief" is then a
tensor over those axes rather than a length-dim message.

Two schedules are provided. ``sync`` recomputes every message from a
snapshot of the previous state (Jacobi style) until the largest
componentwise change falls to the tolerance; on a tree the fixed point is
reached within diameter sweeps. ``tree`` performs the classic two passes,
leaves to root then root to leaves, and is exact on trees in a single
execution.

Both schedules run on one plan (``_Plan``), compiled once per run. Every
wire gets an integer row in one packed ``(wires, dim)`` array per dim and
direction, and a ``MessageState`` holds nothing but these arrays.
Variables are grouped by (dim, degree) and tensors stacked by shape, and an
update program is a list of levels of batched ops, one op per group and
out axis at each level. ``tree`` gives each directed wire a level (1 + the
largest level among the messages it reads) and runs the levels in order,
in place, so every message is computed once from final inputs. A ``sync``
sweep is the same program with every wire at level 0, run from the old
arrays into new ones. The batched kernels apply the per-wire rules of
``update_variable_message`` and ``update_factor_message`` in the same
operation order, so both schedules give the per-wire messages bit for bit;
beliefs, contraction and decoding read the packed arrays directly. Every
semiring sum is a ``Semiring.fold`` and every rescaling a
``_normalize_rows``, under the contract written in ``spiderbp.algebra``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .algebra import get_semiring
from .errors import (
    ContradictionError,
    NotATreeError,
    NoTotalOrderError,
    ValidationError,
    ZeroMessageError,
)
from .graph import GraphMode, components, tree_info, validate_graph
from .tensor import DenseTensor, Message, contract_to_axis, full_contraction, hadamard

SCHEDULES = ("sync", "tree")


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one run. ``semiring`` is a registry name.

    ``damping`` blends each new message with the old one as
    (1 - damping) * new + damping * old and is only allowed for prob with
    the sync schedule. ``normalize`` rescales messages when the semiring
    knows how; exact algebras ignore it.
    """

    semiring: str = "prob"
    schedule: str = "sync"
    max_iters: int = 1000
    tol: float = 1e-9
    damping: float = 0.0
    normalize: bool = True

    def __post_init__(self):
        get_semiring(self.semiring)
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if self.damping > 0.0 and self.semiring != "prob":
            raise ValueError("damping is only supported for the prob semiring")
        if self.damping > 0.0 and self.schedule != "sync":
            raise ValueError("damping is only supported with the sync schedule")


class MessageState:
    """Every directed message of a run plus its counters; an immutable snapshot.

    The messages live in the packed ``(v2f, f2v)`` arrays of the plan that
    computed them, and a state is only ever read against that plan's graph
    and semiring. ``var_to_factor[(v, f, axis)]`` and
    ``factor_to_var[(f, axis)]`` are read-only views holding one
    ``Message`` per directed wire, built once, when a caller first reads
    them.
    """

    __slots__ = ("_plan", "_arrays", "_views", "iteration", "residual")

    def __init__(self, plan, arrays, iteration=0, residual=math.inf):
        self._plan, self._arrays, self._views = plan, arrays, None
        self.iteration = iteration
        self.residual = residual

    def _unpack(self):
        if self._views is None:
            self._views = tuple(MappingProxyType(d) for d in self._plan.unpack(self._arrays))
        return self._views

    @property
    def var_to_factor(self):
        return self._unpack()[0]

    @property
    def factor_to_var(self):
        return self._unpack()[1]

    def __repr__(self):
        return f"MessageState(iteration={self.iteration}, residual={self.residual})"


@dataclass
class BPResult:
    state: MessageState
    converged: bool
    iterations: int
    residual: float
    variable_beliefs: dict = field(default_factory=dict)
    factor_beliefs: dict = field(default_factory=dict)
    contradiction: bool = False
    contradiction_wire: tuple = None


def init_messages(g, cfg):
    """Unit (all-ones) messages on every directed wire, iteration 0."""
    plan = _Plan(g, get_semiring(cfg.semiring))
    return MessageState(plan, plan.initial(cfg))


def _node_axis_order(g, vid):
    """Axis pairing of a bipartite variable tensor: wires sorted ascending."""
    return tuple(sorted(g.incident[vid]))


def _finish(semiring, cfg, values, wire, obj):
    """Apply per-config normalization to a freshly computed message."""
    if cfg.normalize and semiring.has_normalize:
        try:
            values = semiring.normalize(values)
        except ZeroMessageError:
            raise ContradictionError(wire) from None
    return Message(obj, np.asarray(values))


def update_variable_message(g, state, cfg, vid, out_wire):
    """Message a variable sends toward ``out_wire`` = (factor id, axis).

    Spider mode: pointwise product of the other incoming messages, the unit
    message when there are none. Bipartite mode: contract the node's own
    tensor against the other incoming messages instead.
    """
    semiring = get_semiring(cfg.semiring)
    v = g.variable(vid)
    incoming_wires = [w for w in g.incident[vid] if w != out_wire]
    if g.mode is GraphMode.BIPARTITE:
        order = _node_axis_order(g, vid)
        target = order.index(out_wire)
        msgs = [state.factor_to_var[w] for w in order if w != out_wire]
        out = contract_to_axis(semiring, v.tensor, target, msgs, out_obj=v.obj)
        return _finish(semiring, cfg, out.values, ("v2f",) + out_wire, v.obj)
    if not incoming_wires:
        values = semiring.ones((v.obj.dim,))
    else:
        values = hadamard(
            semiring, [state.factor_to_var[w] for w in incoming_wires]
        ).values
    return _finish(semiring, cfg, values, ("v2f",) + out_wire, v.obj)


def update_factor_message(g, state, cfg, fid, out_axis):
    """Message a factor sends out of one axis.

    Contracts the factor tensor against the variable-to-factor messages on
    every other axis, summing in ascending row-major order.
    """
    semiring = get_semiring(cfg.semiring)
    f = g.factor(fid)
    msgs = []
    for axis in range(f.rank):
        if axis == out_axis:
            continue
        vid = f.neighbors[axis]
        msgs.append(state.var_to_factor[(vid, fid, axis)])
    obj = g.variable(f.neighbors[out_axis]).obj
    out = contract_to_axis(semiring, f.tensor, out_axis, msgs, out_obj=obj)
    return _finish(semiring, cfg, out.values, ("f2v", fid, out_axis), obj)


def _fold_mul(semiring, msgs):
    """Left fold of ``array_mul`` over axis 1 of a (rows, terms, dim) array."""
    acc = msgs[:, 0]
    for j in range(1, msgs.shape[1]):
        acc = semiring.array_mul(acc, msgs[:, j])
    return acc


def _by_level(levels):
    """Stable sort order of ``levels``, then (level, slice) for each run of it."""
    order = np.argsort(levels, kind="stable")
    ordered = levels[order]
    bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), len(order)]
    runs = [(int(ordered[i]), slice(i, j)) for i, j in zip(bounds, bounds[1:])]
    return order, runs


class _TensorGroup:
    """Tensors of one shape stacked as (members, *shape), with wire rows.

    ``rows[a][i]`` is the packed row of the wire on axis ``a`` of member
    ``i``; every axis ``a`` is a wire of dim ``shape[a]``.
    """

    def __init__(self, shape, ids, tensors, rows):
        self.shape, self.ids, self.tensors, self.rows = shape, ids, tensors, rows
        rank = len(shape)
        # axis order that moves one tensor axis last, keeping the rest
        axes = range(1, rank + 1)
        self.target_last = [(0, *(a for a in axes if a != t + 1), t + 1) for t in range(rank)]
        # shape that lines (members, dim) messages up with one axis
        self.along = [(-1,) + (1,) * a + (d,) + (1,) * (rank - a - 1) for a, d in enumerate(shape)]

    def multiplied(self, semiring, tensors, msgs, skip=None):
        """Stacked tensors times one (members, dim) message per axis, axes ascending."""
        arr = tensors
        for axis, m in enumerate(msgs):
            if axis != skip:
                arr = semiring.array_mul(arr, m.reshape(self.along[axis]))
        return arr

    def contract(self, semiring, target, tensors, msgs):
        """The message each stacked tensor sends out of axis ``target``.

        Multiplies the messages on the other axes in ascending order, then
        folds the other index tuples in row-major order.
        """
        arr = self.multiplied(semiring, tensors, msgs, skip=target)
        terms = arr.transpose(self.target_last[target]).reshape(len(arr), -1, self.shape[target])
        return semiring.fold(terms, 1)


def _tensor_groups(members):
    """Group (id, DenseTensor, wire rows) triples by tensor shape."""
    by_shape = {}
    for nid, tensor, rows in members:
        ids, arrays, wire_rows = by_shape.setdefault(tensor.shape, ([], [], []))
        ids.append(nid)
        arrays.append(tensor.data)
        wire_rows.append(rows)
    return [
        _TensorGroup(
            shape,
            ids,
            np.concatenate(arrays).reshape((len(ids), *shape)),
            list(np.array(wire_rows, dtype=np.intp).reshape(len(ids), len(shape)).T),
        )
        for shape, (ids, arrays, wire_rows) in by_shape.items()
    ]


class _Plan:
    """A graph compiled for batched message updates over one semiring.

    Every wire ``(factor id, axis)`` owns one integer row in the packed
    ``(wires, dim)`` array of its variable's dim, numbered in ``g.wires``
    order; a message array pair ``(v2f, f2v)`` maps each dim to such an
    array per direction, and is the only message store. Spider variables
    are grouped by (dim, degree), with ``rows[i, k]`` the row of member i's
    k-th incident wire; factor tensors (and bipartite node tensors) are
    stacked by shape.

    Both schedules run one kind of update program (``_levels``): a list of
    levels, each a list of batched ops, run by ``_execute``. The ops repeat
    the per-wire rules operation for operation: a variable left-folds
    ``array_mul`` over its other wires in incidence order (as
    ``hadamard``), a tensor multiplies messages in ascending axis order and
    folds the remaining index tuples in row-major order (as
    ``contract_to_axis``). Messages, residuals and beliefs therefore equal
    the per-wire results bit for bit. The sync sweep is the program with
    every wire at level 0, compiled once per plan: one op per spider group
    and one per (tensor group, out axis). The two-pass schedule runs the
    program of the wires' dependency levels on the rows whose inputs are
    final.
    """

    def __init__(self, g, semiring):
        self.g, self.semiring = g, semiring
        dim_of = {v.id: v.obj.dim for v in g.variables}
        self.dims = {}  # dim -> number of wires of that dim
        self.wire_rows = []  # (dim, row) of each entry of g.wires
        self.wire_vars = []
        # rows of each variable's wires in incidence order, which is also the
        # axis order of a bipartite node tensor
        self.var_rows = {vid: [] for vid in dim_of}
        factor_rows = {}
        for f in sorted(g.factors, key=lambda f: f.id):  # g.wires order
            rows = factor_rows[f.id] = []
            for vid in f.neighbors:
                d = dim_of[vid]
                r = self.dims.get(d, 0)
                self.dims[d] = r + 1
                self.wire_rows.append((d, r))
                self.wire_vars.append(vid)
                self.var_rows[vid].append(r)
                rows.append(r)
        wire_dims = np.array([d for d, _r in self.wire_rows], dtype=np.intp)
        # index into g.wires of each packed row, for first-dead-wire order
        self.position = {d: np.flatnonzero(wire_dims == d) for d in self.dims}
        self.var_groups = []
        self.node_groups = []
        if g.mode is GraphMode.BIPARTITE:
            self.node_groups = _tensor_groups((v.id, v.tensor, self.var_rows[v.id]) for v in g.variables)
        else:
            by_key = {}
            for v in g.variables:
                rows = self.var_rows[v.id]
                ids, members = by_key.setdefault((v.obj.dim, len(rows)), ([], []))
                ids.append(v.id)
                members.append(rows)
            self.var_groups = [
                (d, ids, np.array(rows, dtype=np.intp).reshape(len(ids), k))
                for (d, k), (ids, rows) in by_key.items()
            ]
        self.factor_groups = _tensor_groups((f.id, f.tensor, factor_rows[f.id]) for f in g.factors)

    def _empty(self):
        return {d: np.empty((n, d), dtype=self.semiring.dtype) for d, n in self.dims.items()}

    def initial(self, cfg):
        """The unit message on every directed wire, as ``init_messages``."""
        semiring = self.semiring
        v2f = self._empty()
        for d, arr in v2f.items():
            unit = semiring.ones((d,))
            if cfg.normalize and semiring.has_normalize:
                unit = semiring.normalize(unit)
            arr[...] = unit
        return v2f, {d: arr.copy() for d, arr in v2f.items()}

    def unpack(self, arrays):
        v2f, f2v = arrays
        by_var, by_factor = {}, {}
        for (fid, axis), vid, (d, r) in zip(self.g.wires, self.wire_vars, self.wire_rows):
            obj = self.g.variable(vid).obj
            by_var[(vid, fid, axis)] = Message(obj, v2f[d][r])
            by_factor[(fid, axis)] = Message(obj, f2v[d][r])
        return by_var, by_factor

    def _first_wire(self, masks):
        """Smallest ``g.wires`` index among the rows a dim -> mask map sets, or None."""
        hits = [int(self.position[d][mask].min()) for d, mask in masks.items() if mask.any()]
        return min(hits, default=None)

    # -- the update program ------------------------------------------------------

    def _execute(self, program, src, dst, normalize=False):
        """Run a program's ops level by level, reading ``src`` and writing ``dst``.

        Both are (v2f, f2v) array pairs: a v2f op reads f2v rows and an f2v
        op reads v2f rows. With ``normalize`` every op rescales its rows
        before writing them, and the result lists (kind, dim, out rows,
        dead-row mask) per op; without, it is empty.
        """
        semiring = self.semiring
        gone = []
        for ops in program:
            for kind, d, out, group, arg in ops:
                k = 0 if kind == "v2f" else 1
                reads = src[1 - k]
                if group is None:
                    values = semiring.ones((len(out), d)) if arg is None else _fold_mul(semiring, reads[d][arg])
                else:
                    target, members, msg_rows = arg
                    msgs = [None if r is None else reads[dd][r] for dd, r in zip(group.shape, msg_rows)]
                    values = group.contract(semiring, target, group.tensors[members], msgs)
                if normalize:
                    values, dead = semiring._normalize_rows(values)
                    gone.append((kind, d, out, dead))
                dst[k][d][out] = values
        return gone

    def _levels(self, v2f_levels, f2v_levels):
        """The update program for given wire levels (dim -> level per row).

        An op is (kind, dim, out rows, tensor group or None, argument): a
        spider variable op folds the f2v rows ``argument`` (None: the unit),
        a tensor op contracts ``argument`` = (target axis, members, message
        rows per axis) of its group. An op that covers its whole group
        takes the members as a slice, so the stacked tensors are not copied.
        """
        ops = []
        for d, _ids, rows in self.var_groups:
            k = rows.shape[1]
            if k == 1:  # a leaf variable sends the unit, at level 0
                ops.append((0, ("v2f", d, rows[:, 0], None, None)))
            elif k > 1:
                leave_out = [[q for q in range(k) if q != p] for p in range(k)]
                out = rows.reshape(-1)
                order, runs = _by_level(v2f_levels[d][out])
                out, others = out[order], rows[:, leave_out].reshape(-1, k - 1)[order]
                ops.extend((level, ("v2f", d, out[run], None, others[run])) for level, run in runs)
        for kind, groups, levels in (
            ("v2f", self.node_groups, v2f_levels),
            ("f2v", self.factor_groups, f2v_levels),
        ):
            for group in groups:
                for target, d in enumerate(group.shape):
                    order, runs = _by_level(levels[d][group.rows[target]])
                    rows = [r[order] for r in group.rows]
                    for level, run in runs:
                        members = slice(None) if len(runs) == 1 else order[run]
                        msg_rows = [None if a == target else r[run] for a, r in enumerate(rows)]
                        ops.append((level, (kind, d, rows[target][run], group, (target, members, msg_rows))))
        program = [[] for _ in range(1 + max((level for level, _op in ops), default=-1))]
        for level, op in ops:
            program[level].append(op)
        return program

    # -- one sync sweep ----------------------------------------------------------

    @cached_property
    def _sync_program(self):
        level0 = {d: np.zeros(n, dtype=np.intp) for d, n in self.dims.items()}
        return self._levels(level0, level0)

    def sweep(self, arrays, cfg):
        """New (v2f, f2v) arrays from the old ones, plus the residual.

        Runs the level-0 program from the old arrays into new ones, then
        normalizes and damps per config as the per-wire rules do. The first
        dead row raises ContradictionError for its wire, every v2f row in
        ``g.wires`` order before every f2v row, before anything is divided
        by zero.
        """
        semiring = self.semiring
        new = self._empty(), self._empty()
        self._execute(self._sync_program, arrays, new)
        for kind, fresh, old in zip(("v2f", "f2v"), new, arrays):
            if cfg.normalize and semiring.has_normalize:
                dead = {}
                for d, rows in fresh.items():
                    fresh[d], dead[d] = semiring._normalize_rows(rows)
                first = self._first_wire(dead)
                if first is not None:
                    raise ContradictionError((kind,) + self.g.wires[first])
            if cfg.damping != 0.0:
                lam = cfg.damping
                for d in fresh:
                    fresh[d] = (1.0 - lam) * fresh[d] + lam * old[d]
        residual = max(self._residual(new[0], arrays[0]), self._residual(new[1], arrays[1]))
        return new, residual

    def _residual(self, new, old):
        """Largest componentwise gap between two message arrays.

        A nan gap (``inf - inf`` once unnormalized messages overflow) makes
        the residual inf, so an overflowed run can never pass for converged.
        """
        out = 0.0
        for d, a in new.items():
            gap = self.semiring.max_distance(a, old[d])
            if gap != gap:
                return math.inf
            out = max(out, gap)
        return out

    # -- the two-pass schedule ---------------------------------------------------

    def two_pass(self, cfg, root=None):
        """Every message of the exact tree schedule, level by level.

        Returns ((v2f, f2v), contradiction wire or None). Each directed
        wire is computed once from final inputs, so the messages equal those
        of the per-wire two-pass run. A normalized run that hits dead
        support leaves the dead rows undivided and carries on; at the end
        every message from the first dead wire of ``two_pass_schedule`` on
        is reset to the unit, which is the state the per-wire run halts in.
        """
        arrays = self.initial(cfg)
        normalize = cfg.normalize and self.semiring.has_normalize
        gone = self._execute(self._levels(*self._wire_levels()), arrays, arrays, normalize)
        if not gone or not np.concatenate([dead for *_op, dead in gone]).any():
            return arrays, None
        return arrays, self._halt(arrays, cfg, root, gone)

    def _halt(self, arrays, cfg, root, gone):
        """Reset the messages the per-wire run never reaches; return the
        wire it halts at."""
        wires = self.g.wires
        dead_wires = {
            (kind,) + wires[pos]
            for kind, d, out, dead in gone
            for pos in self.position[d][out[dead]].tolist()
        }
        schedule = two_pass_schedule(self.g, root)
        at = next(k for k, wire in enumerate(schedule) if wire in dead_wires)
        unit = self.initial(cfg)
        wire_row = dict(zip(wires, self.wire_rows))
        for kind, fid, axis in schedule[at:]:
            d, r = wire_row[(fid, axis)]
            k = 0 if kind == "v2f" else 1
            arrays[k][d][r] = unit[k][d][r]
        return schedule[at]

    def _wire_levels(self):
        """Level of every directed wire, as dim -> level per packed row.

        A message's level is 1 + the largest level among the messages it
        reads, 0 when it reads none (a leaf variable, a rank-1 factor).
        One rooted BFS per component, then an up pass and a down pass that
        keep each node's top two incoming levels. Raises NotATreeError on a
        cycle or a repeated wire.
        """
        g = self.g
        nv = len(g.variables)
        # nodes: variable ids, then nv + factor id; ends[i] - node is the
        # other end of wire i
        node_wires = [[] for _ in range(nv + len(g.factors))]
        ends = []
        for i, ((fid, _axis), vid) in enumerate(zip(g.wires, self.wire_vars)):
            node_wires[vid].append(i)
            node_wires[nv + fid].append(i)
            ends.append(vid + nv + fid)
        parent = [-2] * len(node_wires)  # wire to the parent; -1 root, -2 unseen
        order = []
        for r in range(nv):
            if parent[r] != -2:
                continue
            parent[r] = -1
            k = len(order)
            order.append(r)
            while k < len(order):
                node = order[k]
                k += 1
                p = parent[node]
                for i in node_wires[node]:
                    if i != p:
                        other = ends[i] - node
                        if parent[other] != -2:
                            raise NotATreeError(
                                "two-pass scheduling needs a cycle-free graph without repeated wires"
                            )
                        parent[other] = i
                        order.append(other)
        # levels by wire index; a variable reads f2v and sends v2f
        v2f = [0] * len(ends)
        f2v = [0] * len(ends)
        for node in reversed(order):
            p = parent[node]
            if p >= 0:
                into, out = (f2v, v2f) if node < nv else (v2f, f2v)
                top = -1
                for i in node_wires[node]:
                    if i != p and into[i] > top:
                        top = into[i]
                out[p] = top + 1
        for node in order:
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
        v2f, f2v = np.array(v2f, dtype=np.intp), np.array(f2v, dtype=np.intp)
        return ({d: v2f[pos] for d, pos in self.position.items()}, {d: f2v[pos] for d, pos in self.position.items()})

    # -- reading a state -------------------------------------------------------

    def incoming_products(self, f2v):
        """(dim, ids, product of each member's incoming f2v messages) per spider group.

        The product left-folds in incidence order, as ``hadamard``; an
        isolated variable gets the unit.
        """
        semiring = self.semiring
        for d, ids, rows in self.var_groups:
            if rows.shape[1] == 0:
                yield d, ids, semiring.ones((len(ids), d))
            else:
                yield d, ids, _fold_mul(semiring, f2v[d][rows])

    def beliefs(self, arrays, cfg):
        """``beliefs`` computed on the packed arrays."""
        g, semiring = self.g, self.semiring
        v2f, f2v = arrays
        by_var, dead_vars = {}, set()
        for d, ids, values in self.incoming_products(f2v):
            if cfg.normalize and semiring.has_normalize:
                values, dead = semiring._normalize_rows(values)
                dead_vars.update(vid for vid, gone in zip(ids, dead.tolist()) if gone)
            values = np.asarray(values)
            values.flags.writeable = False
            for vid, row in zip(ids, values):
                by_var[vid] = Message._wrap(g.variable(vid).obj, row)
        for group in self.node_groups:
            by_var.update(self._tensor_beliefs(group, f2v))
        by_factor = {}
        for group in self.factor_groups:
            by_factor.update(self._tensor_beliefs(group, v2f))
        zero_wire = next((("belief", v.id) for v in g.variables if v.id in dead_vars), None)
        var_beliefs = {v.id: by_var[v.id] for v in g.variables}
        factor_beliefs = {f.id: by_factor[f.id] for f in g.factors}
        return var_beliefs, factor_beliefs, zero_wire

    def _tensor_beliefs(self, group, src):
        msgs = [src[d][r] for d, r in zip(group.shape, group.rows)]
        arr = np.asarray(group.multiplied(self.semiring, group.tensors, msgs)).reshape(len(group.ids), -1)
        arr.flags.writeable = False
        return {nid: DenseTensor._wrap(group.shape, flat) for nid, flat in zip(group.ids, arr)}

    def first_zero_wire(self, arrays):
        """First all-zero message, every v2f in wire order before every f2v."""
        for kind, packed in zip(("v2f", "f2v"), arrays):
            first = self._first_wire({d: (rows == self.semiring.zero).all(axis=1) for d, rows in packed.items()})
            if first is not None:
                return (kind,) + self.g.wires[first]
        return None


def _plan_and_arrays(g, semiring, state):
    """The state's compiled plan and packed messages, for its own graph and semiring."""
    plan = state._plan
    if plan.g is not g:
        raise ValidationError("the message state was computed on another graph")
    if plan.semiring is not semiring:
        raise ValidationError(f"the message state holds {plan.semiring.name} messages, not {semiring.name}")
    return plan, state._arrays


def sweep_synchronous(g, state, cfg):
    """One Jacobi sweep: every message recomputed from the old snapshot.

    Runs the state's plan at level 0: every variable and factor update at
    once, normalized and damped per config; a dead message raises
    ContradictionError for the first such wire, every v2f wire in
    ``g.wires`` order before every f2v wire. The state must come from this
    graph and semiring (ValidationError otherwise). The returned state's
    ``residual`` is the largest componentwise change
    (after normalization and damping), which doubles as an exact change
    flag for the exact semirings.
    """
    plan, arrays = _plan_and_arrays(g, get_semiring(cfg.semiring), state)
    arrays, residual = plan.sweep(arrays, cfg)
    return MessageState(plan, arrays, state.iteration + 1, residual)


def two_pass_schedule(g, root=None):
    """Directed-wire order for one exact tree sweep.

    First every wire pointing toward the root in nondecreasing
    distance-from-leaves order, then the same wires reversed. ``root`` is a
    variable id; components not containing it are rooted at their smallest
    variable id. Ties break by ascending node id, so the order is
    deterministic. Entries are ``(kind, factor id, axis)`` with kind
    "v2f" or "f2v".
    """
    info = tree_info(g)
    if not info.is_tree:
        raise NotATreeError("two-pass scheduling needs a cycle-free graph without repeated wires")
    upward = []
    for var_ids, fac_ids in components(g):
        if not var_ids:
            continue  # an isolated rank-0 factor exchanges no messages
        comp_root = root if root in var_ids else var_ids[0]
        upward.extend(_upward_wires(g, comp_root))
    downward = [
        ("f2v" if kind == "v2f" else "v2f", fid, axis)
        for kind, fid, axis in reversed(upward)
    ]
    return upward + downward


def _upward_wires(g, root_vid):
    """Wires of one component pointing toward the root, leaves first."""
    # BFS from the root over (kind, id) nodes, recording each node's parent wire
    parent = {("v", root_vid): None}
    order = [("v", root_vid)]
    frontier = [("v", root_vid)]
    while frontier:
        nxt = []
        for node in frontier:
            kind, nid = node
            if kind == "v":
                nbrs = [("f", fid) for fid, axis in g.incident[nid]]
            else:
                nbrs = [("v", vid) for vid in g.factor(nid).neighbors]
            for nb in sorted(set(nbrs), key=lambda n: n[1]):
                if nb not in parent:
                    parent[nb] = node
                    order.append(nb)
                    nxt.append(nb)
        frontier = nxt
    # deepest nodes emit first; ties break by ascending id
    depth = {}
    for node in order:
        depth[node] = 0 if parent[node] is None else depth[parent[node]] + 1
    wires = []
    for node in sorted(order, key=lambda n: (-depth[n], n[1])):
        if parent[node] is None:
            continue
        kind, nid = node
        pkind, pid = parent[node]
        if kind == "v":
            # variable sends to its parent factor
            axis = next(a for f, a in g.incident[nid] if f == pid)
            wires.append(("v2f", pid, axis))
        else:
            # factor sends to its parent variable
            axis = next(a for a, u in enumerate(g.factor(nid).neighbors) if u == pid)
            wires.append(("f2v", nid, axis))
    return wires


def run_two_pass(g, cfg, root=None):
    """Execute the two-pass schedule once on the compiled plan.

    Returns (state, contradiction wire or None). Messages are computed one
    dependency level at a time and equal those of the per-wire schedule
    ``two_pass_schedule`` bit for bit. A normalized run that hits dead
    support returns the state the per-wire run halts in: the messages
    before the first dead wire of that schedule, the unit from there on.
    """
    plan = _Plan(g, get_semiring(cfg.semiring))
    arrays, halted_wire = plan.two_pass(cfg, root)
    residual = 0.0 if halted_wire is None else math.inf
    return MessageState(plan, arrays, 1, residual), halted_wire


def beliefs(g, state, cfg):
    """Per-variable and per-factor beliefs from a message state.

    A variable's belief is the pointwise product of everything flowing into
    it (the unit for an isolated variable); a factor's belief is its tensor
    times the incoming messages, one per axis. Normalized per config. In
    bipartite mode variable beliefs are node-space tensors instead.
    Computed on the state's compiled plan.
    """
    plan, arrays = _plan_and_arrays(g, get_semiring(cfg.semiring), state)
    return plan.beliefs(arrays, cfg)


def run_bp(g, cfg, root=None):
    """Run belief propagation under the given config.

    The sync schedule sweeps until the residual falls to ``tol`` or
    ``max_iters`` is hit (reported as not converged, never raised). When the
    detecting sweep leaves every message bit-identical it only confirmed an
    already-reached fixed point, so it is not counted in ``iterations``.
    Otherwise a small residual alone is not trusted: residuals need not
    shrink monotonically on loopy graphs, so ``converged`` is reported only
    once an uncounted probe sweep certifies that one further sweep also
    stays within ``tol`` — which the caller can then reproduce exactly. A
    failed probe counts as a normal sweep and iteration continues. If the
    budget runs out before certification the run reports not converged even
    though the last residual may sit at or below ``tol``.
    The tree schedule executes its two passes once and is exact. Count
    messages grow without bound around a cycle, so count under ``sync``
    needs a cycle-free graph (ValidationError otherwise).

    A normalized run that hits an all-zero aggregate stops early and flags
    ``contradiction`` with the offending wire; partial beliefs are still
    returned. Boolean runs never normalize, so they complete even when
    support dies; they flag ``contradiction`` with the first dead wire and
    their all-false beliefs are exact.
    """
    report = validate_graph(g)
    report.raise_if_invalid()
    semiring = get_semiring(cfg.semiring)
    if semiring.name == "count" and cfg.schedule == "sync" and not tree_info(g).is_tree:
        raise ValidationError(
            "count under the sync schedule needs a cycle-free graph: exact counts grow every "
            "sweep around a cycle; count on a tree with --schedule tree, or on any graph with jtree"
        )
    contradiction_wire = None
    if cfg.schedule == "tree":
        state, halted_wire = run_two_pass(g, cfg, root)
        if halted_wire is not None:
            var_b, fac_b, _ = beliefs(g, state, cfg)
            return BPResult(
                state,
                converged=False,
                iterations=1,
                residual=math.inf,
                variable_beliefs=var_b,
                factor_beliefs=fac_b,
                contradiction=True,
                contradiction_wire=halted_wire,
            )
        converged, iterations = True, 1
    else:
        state = init_messages(g, cfg)
        converged = False
        iterations = 0
        try:
            k = 0
            while k < cfg.max_iters:
                k += 1
                new_state = sweep_synchronous(g, state, cfg)
                iterations = k
                changed = _state_changed(state, new_state)
                state = new_state
                if new_state.residual > cfg.tol:
                    continue
                if not changed:
                    # bit-identical: already a fixed point, sweep not counted
                    converged = True
                    iterations = k - 1
                    break
                if k >= cfg.max_iters:
                    break  # no budget left to certify the fixed point
                probe = sweep_synchronous(g, new_state, cfg)
                if probe.residual <= cfg.tol:
                    converged = True  # certified: the next sweep stays put
                    break
                # the probe was real progress after all; adopt and continue
                k += 1
                iterations = k
                state = probe
        except ContradictionError as err:
            var_b, fac_b, _ = beliefs(g, state, cfg)
            return BPResult(
                state,
                converged=False,
                iterations=iterations,
                residual=state.residual,
                variable_beliefs=var_b,
                factor_beliefs=fac_b,
                contradiction=True,
                contradiction_wire=err.wire,
            )
    var_b, fac_b, zero_wire = beliefs(g, state, cfg)
    if semiring.name == "bool":
        # dead support can hide in a belief even when every wire message
        # still has a true entry, so scan both
        contradiction_wire = state._plan.first_zero_wire(state._arrays)
        if contradiction_wire is None:
            for vid in sorted(var_b):
                values = var_b[vid].values if hasattr(var_b[vid], "values") else var_b[vid].data
                if not any(bool(x) for x in values.tolist()):
                    contradiction_wire = ("belief", vid)
                    break
    if zero_wire is not None and contradiction_wire is None:
        contradiction_wire = zero_wire
    return BPResult(
        state,
        converged=converged,
        iterations=iterations,
        residual=state.residual if cfg.schedule == "sync" else 0.0,
        variable_beliefs=var_b,
        factor_beliefs=fac_b,
        contradiction=contradiction_wire is not None,
        contradiction_wire=contradiction_wire,
    )


def _state_changed(old, new):
    """Whether any message of two packed states differs bit for bit."""
    return any(
        not np.array_equal(arr, before[d])
        for after, before in zip(new._arrays, old._arrays)
        for d, arr in after.items()
    )


def contraction_value(g, cfg=None, root=None):
    """Scalar value of the closed diagram (partition sum, count, ...).

    Runs unnormalized two-pass propagation and closes the diagram at one
    root per component (the smallest variable id, or ``root`` in its own
    component), multiplying components together. Exact on trees for every
    semiring; any root choice gives the same value. Rank-0 factors multiply
    in directly; an isolated variable contributes one term per state.
    """
    if cfg is None:
        cfg = RunConfig(normalize=False, schedule="tree")
    if cfg.normalize:
        raise ValidationError("contraction requires normalize=False (raw mass must survive)")
    semiring = get_semiring(cfg.semiring)
    report = validate_graph(g)
    report.raise_if_invalid()
    state, _ = run_two_pass(g, cfg, root)  # unnormalized: never halts
    return contraction_from_state(g, semiring, state, root)


def contraction_from_state(g, semiring, state, root=None):
    """Close the diagram against converged messages, component by component."""
    semiring = get_semiring(semiring)
    plan, (_v2f, f2v) = _plan_and_arrays(g, semiring, state)
    total = semiring.one
    for var_ids, fac_ids in components(g):
        if not var_ids:
            f = g.factor(fac_ids[0])
            total = semiring.mul(total, f.tensor.data[0])
            continue
        comp_root = root if root in var_ids else var_ids[0]
        v = g.variable(comp_root)
        rows = plan.var_rows[comp_root]
        if g.mode is GraphMode.BIPARTITE:
            z = full_contraction(semiring, v.tensor, [Message(v.obj, f2v[v.obj.dim][r]) for r in rows])
        elif rows:
            z = semiring.fold(_fold_mul(semiring, f2v[v.obj.dim][[rows]])[0], 0).item()
        else:
            z = semiring.fold(semiring.ones((v.obj.dim,)), 0).item()
        total = semiring.mul(total, z)
    return total


def decode_map(g, state, semiring):
    """Best state per variable from its belief, ties to the lowest index.

    Needs a totally ordered semiring (prob, maxtimes, bool, count). On a
    tree with maxtimes messages and a unique optimum this recovers the
    globally best assignment. A state wins only by comparing greater than
    the best so far, so a nan never wins and a leading nan keeps state 0.
    """
    semiring = get_semiring(semiring)
    if not semiring.has_compare:
        raise NoTotalOrderError(
            f"semiring {semiring.name!r} has no total order to decode with"
        )
    if g.mode is not GraphMode.SPIDER:
        raise ValidationError("decoding needs spider-mode variable semantics")
    plan, (_v2f, f2v) = _plan_and_arrays(g, semiring, state)
    best_of = {}
    for d, ids, values in plan.incoming_products(f2v):
        best = np.zeros(len(ids), dtype=np.intp)
        best_val = values[:, 0]
        for j in range(1, d):
            better = np.asarray(values[:, j] > best_val, dtype=bool)
            best[better] = j
            best_val = np.where(better, values[:, j], best_val)
        best_of.update(zip(ids, best.tolist()))
    return {v.id: best_of[v.id] for v in g.variables}


def dual_seed(g, factor_id, entry_index):
    """Copy of a numeric graph over dual numbers, one entry carrying eps.

    Every value x becomes x + 0*eps except the chosen factor's flat
    row-major ``entry_index``, which becomes x + 1*eps. Contracting the
    result leaves d(contraction)/d(entry) in the eps component.
    """
    from .algebra import DualNumber
    from .graph import FactorGraph, FactorNode, VariableNode

    def lift(tensor, seed_at=None):
        values = np.empty(tensor.size, dtype=object)
        values[:] = [DualNumber(float(x), 0.0) for x in tensor.data.tolist()]
        if seed_at is not None:
            if not 0 <= seed_at < len(values):
                raise ValidationError(
                    f"entry {seed_at} out of range for factor {factor_id} "
                    f"({len(values)} entries)"
                )
            values[seed_at] = DualNumber(values[seed_at].real, 1.0)
        return DenseTensor(tensor.shape, values)

    if factor_id not in {f.id for f in g.factors}:
        raise ValidationError(f"no factor with id {factor_id}")
    factors = tuple(
        FactorNode(f.id, lift(f.tensor, entry_index if f.id == factor_id else None), f.neighbors)
        for f in g.factors
    )
    variables = tuple(
        VariableNode(v.id, v.obj, lift(v.tensor) if v.tensor is not None else None)
        for v in g.variables
    )
    return FactorGraph(variables, factors, mode=g.mode)


def evaluate_assignment(g, semiring, assignment):
    """Product of all factor entries at one full assignment."""
    semiring = get_semiring(semiring)
    total = semiring.one
    for f in sorted(g.factors, key=lambda f: f.id):
        index = tuple(assignment[v] for v in f.neighbors)
        total = semiring.mul(total, f.tensor.entry(index) if f.rank else f.tensor.data[0])
    return total
