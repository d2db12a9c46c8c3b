"""The message-passing engine: schedules, convergence, contraction, decoding.

Messages live on directed wires. Because a factor can touch the same
variable on several axes, wires are keyed by ``(factor id, axis)``. The
per-wire reference rules (``update_variable_message``,
``update_factor_message``) read a per-wire state: ``factor_to_var[(f,
axis)]`` flows from the factor to the variable on that axis, and
``var_to_factor[(v, f, axis)]`` flows back. Variable updates take the
pointwise product of the other incoming messages (every variable is a
spider, a copy tensor that stays virtual); factor updates contract the
factor against the other incoming messages.

Two schedules are provided. ``sync`` recomputes every message from a
snapshot of the previous state (Jacobi style) until the largest
componentwise change falls to the tolerance; on a tree the fixed point is
reached within diameter sweeps, because a message of level k (below) is
final after k + 1 sweeps and the diameter is one more than the highest
level. ``tree`` performs the classic two passes, leaves to root then root
to leaves: exact on trees in one execution. A normalized run that meets dead
support keeps its messages, dead ones undivided, and names where it died
(``MessageState.dead_wire``): a sync run ends on that sweep, a tree run completes.

Both schedules run on one plan (``_Plan``), compiled once per graph from
its wire table (``graph._Wires``) with array operations, never from its
factor nodes: the first run builds it and the graph keeps it beside its
validation verdict. Reading a run (beliefs, closed values, cavities,
``decode_map``, ``evaluate_assignment``) needs the plan and the table only
(factor beliefs read its stacked tables), so a parsed graph builds no node.
Messages are stored dim-major: one ``(dim, 2 * wires)`` array per dim,
the v2f messages of its wires in columns [0, wires) and their f2v messages
in [wires, 2 * wires); a ``MessageState`` holds nothing but these arrays.
Variables are grouped by dim, by degree descending, and every tensor is
stacked once per out wire, transposed so that wire is last; tensors that
agree in this oriented shape share a stack. The variables of each dim and
degree, and each stack, own one block of columns, their out wires, and
both schedules share this one column order. An update program is a list of
levels of batched ops, each writing one slice of its dim's array. A
``sync`` sweep runs one op per stack and one spider op per dim (a ragged
fold, ``_fold_ragged``, in which each column folds only its own terms, so
a variable on one wire folds none and sends the unit), from the old
arrays into new ones, then rescales and measures its residual once per
dim, over both directions at once. ``tree`` gives each directed wire a
level (1 + the largest level among the messages it reads), keeps each
block in level order, and runs one op per block and level, in place, so
every message is computed once from final inputs. Every op loops over the
wires of a dim, not over the few entries of one message. The ops apply the
per-wire rules of ``update_variable_message`` and
``update_factor_message`` in the same operation order, so both schedules
give the per-wire messages bit for bit.
A run's state is read through ``beliefs``, ``decode_map`` and
``contraction_from_state``, which work on the arrays directly;
``contraction_derivative`` also reads a factor's cavity (its incoming
messages) off them. Every semiring sum is a ``Semiring.fold`` and every
rescaling a ``_normalize_columns``, under the contract written in
``spiderbp.algebra``.

A graph's tensors live in one semiring, named by ``g.semiring``, and every
entry point here runs the graph in that one. A ``RunConfig`` leaves it
unnamed, or names the same one (``_run_semiring`` checks this); a state
is only ever read against the graph that computed it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .algebra import get_semiring
from .errors import (
    ContradictionError,
    NotATreeError,
    NoTotalOrderError,
    ValidationError,
    ZeroMessageError,
)
from .formats import _assemble
from .graph import _by_variable, _ensure_valid, _frozen, _wire_levels, components
from .tensor import DenseTensor, Message, contract_to_axis, hadamard

SCHEDULES = ("sync", "tree")


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one run.

    The run's semiring is the graph's (``FactorGraph.semiring``).
    ``semiring`` is None, meaning the graph's, or a registry name (a str)
    that must equal it: a different name is a ValidationError, since the
    tensors cannot change algebra. ``max_iters`` is an integer >= 1 (a
    Python or numpy one, not a bool). ``tol`` is a finite number >= 0 and
    ``damping`` a number in [0, 1), each a Python or numpy int or float,
    not a bool. ``damping`` blends each new message with the old one as
    (1 - damping) * new + damping * old and is only allowed for prob with
    the sync schedule. ``normalize``, a bool or numpy bool, rescales
    messages when the semiring knows how; exact algebras ignore it. A value
    of another type is a ValueError naming it; values are kept as given.
    """

    semiring: str = None
    schedule: str = "sync"
    max_iters: int = 1000
    tol: float = 1e-9
    damping: float = 0.0
    normalize: bool = True

    def __post_init__(self):
        if self.semiring is not None:
            if not isinstance(self.semiring, str):
                raise ValueError(f"semiring must be None or a registry name, got {self.semiring!r}")
            get_semiring(self.semiring)
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        real = (int, float, np.integer, np.floating)
        if isinstance(self.tol, bool) or not isinstance(self.tol, real) or not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be a finite number >= 0, got {self.tol!r}")
        if isinstance(self.damping, bool) or not isinstance(self.damping, real) or not 0.0 <= self.damping < 1.0:
            raise ValueError(f"damping must be a number in [0, 1), got {self.damping!r}")
        if not isinstance(self.normalize, (bool, np.bool_)):
            raise ValueError(f"normalize must be a bool, got {self.normalize!r}")
        if self.damping > 0.0 and self.semiring not in (None, "prob"):
            raise ValueError("damping is only supported for the prob semiring")
        if self.damping > 0.0 and self.schedule != "sync":
            raise ValueError("damping is only supported with the sync schedule")


def _run_semiring(name, cfg):
    """The semiring of a run under ``cfg`` over tensors in semiring ``name``.

    ``cfg.semiring`` is None (the tensors' own) or must equal ``name``;
    another name is a ValidationError. Damping outside prob is a ValueError.
    """
    if cfg.semiring is not None and cfg.semiring != name:
        raise ValidationError(
            f"the graph's tensors live in {name}, not {cfg.semiring}: "
            f"build or parse the model under {cfg.semiring} to run it there"
        )
    if cfg.damping > 0.0 and name != "prob":
        raise ValueError("damping is only supported for the prob semiring")
    return get_semiring(name)


class MessageState:
    """Every directed message of a run plus its counters; an immutable snapshot.

    The messages live in the arrays of the plan that computed them, one
    ``(dim, 2 * wires)`` array per dim holding both directions in the
    plan's column order, and a state is only ever read against the graph
    that keeps that plan: through ``beliefs``, ``decode_map`` and
    ``contraction_from_state``. ``dead_wire`` names the wire where a
    normalized run's support died (its messages kept undivided), else None.
    """

    __slots__ = ("_plan", "_arrays", "iteration", "residual", "dead_wire")

    def __init__(self, plan, arrays, iteration=0, residual=math.inf, dead_wire=None):
        self._plan, self._arrays = plan, arrays
        self.iteration, self.residual, self.dead_wire = iteration, residual, dead_wire

    def __repr__(self):
        return f"MessageState(iteration={self.iteration}, residual={self.residual}, dead_wire={self.dead_wire})"


@dataclass
class BPResult:
    """A run's final state, counters and beliefs.

    ``factor_beliefs`` is computed from ``state`` on first read and then
    kept; it equals ``beliefs(g, state, cfg)[1]`` bit for bit. The result
    holds its graph for that read.
    """

    state: MessageState
    converged: bool
    iterations: int
    residual: float
    variable_beliefs: dict = field(default_factory=dict)
    contradiction: bool = False
    contradiction_wire: tuple = None
    _graph: object = field(default=None, repr=False, compare=False)

    @cached_property
    def factor_beliefs(self):
        plan, arrays = _plan_and_arrays(self._graph, self.state)
        return plan.factor_beliefs(self._graph, arrays)


def _kept(g, key, compile):
    """``compile(g)``, built on first use and kept on the graph under ``key``
    as ``_ensure_valid`` keeps the verdict. Only a valid graph is compiled,
    and a compile that raises keeps nothing."""
    kept = g.__dict__.get(key)
    if kept is None:
        # setdefault: of two threads compiling at once, both keep the first
        kept = g.__dict__.setdefault(key, compile(_ensure_valid(g)))
    return kept


def _plan_of(g):
    """The graph's compiled plan, built on its first run and kept: this is
    where every run checks its graph (ValidationError)."""
    return _kept(g, "_plan", _Plan)


def init_messages(g, cfg):
    """Unit (all-ones) messages on every directed wire, iteration 0."""
    plan = _plan_of(g)
    _run_semiring(g.semiring, cfg)
    return MessageState(plan, plan.initial(cfg))


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

    The pointwise product of the other incoming messages, the unit message
    when there are none. ``state`` is a per-wire state: any object whose
    ``factor_to_var`` maps each (factor id, axis) wire to a ``Message``.
    """
    semiring = _run_semiring(g.semiring, cfg)
    v = g.variable(vid)
    incoming_wires = [w for w in g.incident[vid] if w != out_wire]
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
    every other axis, summing in ascending row-major order. ``state`` is a
    per-wire state: any object whose ``var_to_factor`` maps each
    (variable id, factor id, axis) wire to a ``Message``.
    """
    semiring = _run_semiring(g.semiring, cfg)
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
    """Left fold of ``array_mul`` over axis 0 of a term-major (terms, ...) array."""
    acc = msgs[0]
    for term in msgs[1:]:
        acc = semiring.array_mul(acc, term)
    return acc


def _fold_ragged(semiring, msgs, ends, into):
    """Left fold of ``array_mul`` into every column of the (dim, columns)
    ``into``: term k of flat ``msgs`` is an (``ends[k]``, dim) block that
    multiplies into the first ``ends[k]`` columns (``ends`` nonincreasing),
    so each column folds exactly its own terms, in order, and a column
    past ``ends[0]`` (every column when ``ends`` is empty) gets the unit,
    the empty product."""
    width, dim = ends[0] if ends else 0, len(into)
    if width < into.shape[1]:  # most sync folds have no such column, and an empty slice's write is not free
        into[:, width:] = semiring.one
    head = msgs[: width * dim].reshape(width, dim)  # the product so far of columns [0, width)
    at = width * dim
    for end in ends[1:]:
        if end < width:  # columns [end, width) have all their terms
            into[:, end:width] = head[end:].T
            head, width = head[:end], end
        head = semiring.array_mul(head, msgs[at : at + end * dim].reshape(end, dim))
        at += end * dim
    into[:, :width] = head.T


def _ragged(terms, d, n):
    """``_fold_ragged``'s (flat indices, ends) into dim ``d``'s (d, 2 * ``n``)
    array for ``terms``, each the f2v columns that term reaches, no more than
    the term before: term after term, each a (columns, d) block."""
    rows = 2 * n * np.arange(d)
    flat = np.concatenate([(cols[:, None] + rows).ravel() for cols in terms]) if terms else np.empty(0, dtype=np.intp)
    return _frozen(flat), tuple(len(cols) for cols in terms)


def _read_beliefs(semiring, cfg, groups, var_ids, dealt):
    """BP's and the junction tree's one read: ``groups`` yields, per group,
    its members' objs, slots in ``g.variables`` (ids ``var_ids``) and a fresh
    (dim, members) product, rescaled in place per config; a column is dead at
    zero mass or, under bool, all false. Returns the read-only beliefs, dealt
    into ``g.variables`` order, and the first dead id in that order or None."""
    made, dead_slots = [], []
    for objs, slots, values in groups:
        if cfg.normalize and semiring.has_normalize:
            dead = semiring._normalize_columns(values)
        else:
            dead = ~values.any(axis=0) if semiring.name == "bool" else None
        if dead is not None:
            dead_slots += [slot for slot, gone in zip(slots, dead.tolist()) if gone]
        made += map(Message._wrap, objs, _frozen(values.T.copy()))
    return dict(zip(var_ids, map(made.__getitem__, dealt))), var_ids[min(dead_slots)] if dead_slots else None


def _by_level(levels):
    """Stable sort order of ``levels``, then (level, slice) for each run of it."""
    order = np.argsort(levels, kind="stable")
    ordered = levels[order]
    bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), len(order)]
    runs = [(int(ordered[i]), slice(i, j)) for i, j in zip(bounds, bounds[1:])]
    return order, runs


class _Stack:
    """The (tensor, out axis) pairs of one oriented shape, dim-major: tensors
    as (other axes ascending..., out dim, members in column order). Member
    ``i``'s wire on other axis ``a`` has its v2f message in column
    ``cols[a][i]`` of its dim's array, which has 2 * ``wires[dim]``
    columns; ``gathers[a]`` holds these messages' flat indices, shaped
    (dim, 1..., members) to line up with axis ``a``."""

    def __init__(self, shape, tensors, cols, wires):
        self.shape, self.tensors, rank = shape, tensors, len(shape)
        along = [(d,) + (1,) * (rank - a - 1) + (-1,) for a, d in enumerate(shape[:-1])]
        self.gathers = [_frozen((c + 2 * wires[d] * np.arange(d)[:, None]).reshape(s)) for d, c, s in zip(shape, cols, along)]

    def contracted(self, semiring, run, arrays):
        """The (out dim, members) messages of the members in slice ``run``:
        tensors times v2f messages, axes ascending, other axes folded in
        row-major order (a rank-1 tensor has none: it is its message)."""
        arr = self.tensors[..., run]
        for d, gather in zip(self.shape, self.gathers):
            arr = semiring.array_mul(arr, arrays[d].take(gather[..., run]))
        return semiring._fold0(arr if arr.ndim == 3 else arr.reshape(-1, *arr.shape[-2:])) if self.gathers else arr


#: the variables of one dim, by degree descending: ``gather`` and ``ends`` are the ragged
#: fold (``_fold_ragged``) of each member's incoming f2v messages in incidence order,
#: ``objs`` the members' wire types and ``slots`` their places in ``g.variables``
_SpiderGroup = namedtuple("_SpiderGroup", "dim gather ends objs slots")


class _Plan:
    """A graph compiled for batched message updates over its semiring.

    A message store maps each dim to one C-contiguous dim-major ``(dim, 2 *
    wires)`` array over the ``wires`` wires of that dim, and is the only
    message store: v2f messages in columns [0, wires), f2v messages in
    [wires, 2 * wires), both laid out in the order of the sync program's
    ops (``_levels``). A wire's columns are ``v2f_col[i]`` and
    ``f2v_col[i]`` for its place i in ``g.wires``, and ``col_wire`` maps
    each column back. Variables are grouped by dim, by degree descending,
    and read through a ragged fold (``_fold_ragged``) of each member's f2v
    columns; factor beliefs come straight from the wire table's stacks. All
    of it is read off the wire table with array operations, never off nodes.

    Both schedules run update programs compiled once per plan from the same
    blocks (``_levels``), lists of levels of batched ops run by
    ``_execute``. The ops repeat the per-wire rules operation for
    operation: a variable left-folds ``array_mul`` over its other wires in
    incidence order (as ``hadamard``), a tensor multiplies messages in
    ascending axis order and folds the remaining index tuples in row-major
    order (as ``contract_to_axis``). A box with its wires permuted is the
    same map, so each tensor is stacked once per out axis with that axis
    last; one oriented shape (say (3, 2): a (2, 3) table sending on axis 0
    and a (3, 2) table sending on axis 1) is one stack across tensor
    groups, and a factor op reads a slice of it. A two-pass spider op
    gathers (terms, dim, out columns) with one flat ``take`` and folds its
    terms, each one contiguous (dim, columns) block; a sync spider op
    gathers a dim's terms of every degree unpadded, term k an (``ends[k]``,
    dim) block of the columns that have a k-th term, a prefix as the
    degrees descend: a column with no term, a variable on one wire, gets
    the unit, as in the two-pass's ragged ops. A ``_Stack`` is (other axes
    ascending..., out dim, members), so a message multiplies in as (dim,
    1..., members) and the fold of the leading axes adds (out dim, members)
    blocks. Every product and sum keeps its operands and their order, so
    messages, residuals and beliefs equal the per-wire results bit for bit.
    The sync program writes each stack's block and each dim's v2f columns
    with one op each; the two-pass program, on a tree, writes each block
    level by level, in place.

    A graph keeps its plan (``_plan_of``) and every run of the graph shares
    it, so every array the plan keeps is read-only and runs write only into
    arrays they allocate. The plan holds no reference to its graph: the
    methods that read the graph take it as an argument.
    """

    def __init__(self, g):
        w, variables = g._wires, g.variables
        self.semiring = get_semiring(g.semiring)
        values, first = np.unique(w.dim, return_index=True)
        self.dims = {d: int(np.count_nonzero(w.dim == d)) for d in values[np.argsort(first)].tolist()}
        # g.wires[i] has dim wire_dim[i]; factor f's wires start at start[f]
        self.wire_dim, self.start = w.dim, w.start
        # the wires of variable v in incidence order: by_var[cuts[v]:cuts[v + 1]]
        by_var, cuts = _by_variable(w, len(variables))
        degree = np.diff(cuts)
        ids = np.fromiter((v.id for v in variables), np.intp, len(variables))
        objs = [v.obj for v in variables]
        dims = g._dims[ids]
        # one spider group per dim, by degree descending (stable in g.variables order), as
        # (dim, start, degree, objs, slots): member i's wires are by_var[start[i]:][:degree[i]]
        _dims, first, group_of = np.unique(dims, return_index=True, return_inverse=True)
        spiders = []
        for k in np.argsort(first).tolist():
            slots = np.flatnonzero(group_of == k)
            slots = slots[np.argsort(-degree[ids[slots]], kind="stable")]
            members = ids[slots]
            spiders.append((int(dims[slots[0]]), cuts[members], degree[members], [objs[i] for i in slots], slots.tolist()))
        # variable_beliefs makes each group's messages in its order, then deals them out in g.variables order
        self._dealt = np.argsort([slot for *_, slots in spiders for slot in slots]).tolist()
        # tensor groups by shape, (shape, tables, wires): wires[a, i] is member i's wire on axis a
        fids = np.array(w.ids, dtype=np.intp)
        groups = [(shape, stack, w.start[fids[pos]] + np.arange(len(shape))[:, None]) for shape, pos, stack in w.groups]
        self._blocks, self._tree_program = self._levels(g, by_var, spiders, groups)
        self.var_ids = ids.tolist()
        # the f2v columns of variable v's wires in incidence order: incident[cuts[v]:cuts[v + 1]]
        self.incident, self.cuts = _frozen(self.f2v_col[by_var]), _frozen(cuts)
        self.var_groups = []
        for d, start, deg, *rest in spiders:
            ends = np.searchsorted(-deg, -np.arange(deg[0])).tolist()  # the members with a k-th wire
            gather = _ragged([self.incident[start[:e] + k] for k, e in enumerate(ends)], d, self.dims.get(d, 0))
            self.var_groups.append(_SpiderGroup(d, *gather, *rest))

    def _empty(self):
        return {d: np.empty((d, 2 * n), dtype=self.semiring.dtype) for d, n in self.dims.items()}

    def initial(self, cfg):
        """The unit message on every directed wire, as ``init_messages``."""
        semiring, arrays = self.semiring, self._empty()
        for d, arr in arrays.items():
            unit = semiring.ones((d,))
            if cfg.normalize and semiring.has_normalize:
                unit = semiring.normalize(unit)
            arr[...] = unit[:, None]
        return arrays

    def _dead_wire(self, g, gone):
        """The first wire of a dead column, as (kind, factor id, axis): every
        v2f before every f2v, each in ``g.wires`` order, whatever their columns.

        ``gone`` holds (dim, out columns, dead-column mask) entries, as
        ``_execute`` returns them, at least one column dead; ``out`` is a
        slice, ``slice(None)`` for every column of the dim.
        """
        hits = []  # (0 for v2f or 1 for f2v, g.wires index)
        for d, out, dead in gone:
            cols = np.arange(2 * self.dims[d])[out][dead]
            hits += zip((cols >= self.dims[d]).tolist(), self.col_wire[d][cols].tolist())
        kind, pos = min(hits)
        return ("v2f", "f2v")[kind], *g.wires[pos]

    # -- the update programs -----------------------------------------------------

    def _execute(self, program, src, dst, normalize=False):
        """Run a program's ops level by level, reading ``src`` and writing ``dst``.

        Both are message stores: a variable op folds f2v columns into v2f
        columns, and a factor op contracts v2f columns into f2v columns;
        each writes the (dim, out columns) block ``dst[d][:, out]``, ``out``
        a slice. With ``normalize`` every op rescales its block in place,
        and the result lists (dim, out columns, dead-column mask) for each
        op with a dead column in the lowest such level; without, it is empty.
        """
        semiring = self.semiring
        gone = []
        for ops in program:
            first = not gone
            for d, out, stack, arg in ops:
                if stack is not None:
                    dst[d][:, out] = stack.contracted(semiring, arg, src)
                elif type(arg) is tuple:  # (flat indices, ends): spiders of one dim, any degrees
                    _fold_ragged(semiring, src[d].ravel()[arg[0]], arg[1], dst[d][:, out])
                else:  # (terms, dim, out columns) flat indices: spiders of one degree
                    dst[d][:, out] = _fold_mul(semiring, src[d].take(arg))
                if normalize:
                    dead = semiring._normalize_columns(dst[d][:, out])
                    if dead is not None and first:
                        gone.append((d, out, dead))
        return gone

    def _levels(self, g, by_var, spiders, groups):
        """Lay out each dim's columns in op order; return the (op per block,
        two-pass program) that writes them, the latter None off a tree.

        A program is a list of levels of ops (dim, out columns, stack or
        None, argument), each writing the slice ``out`` of its dim's array:
        a variable op (stack None) folds the f2v entries of the (terms, dim,
        out columns) flat index ``argument`` (no term: the two-pass runs a
        ragged op), a factor op contracts the slice ``argument`` of its
        ``_Stack``. Each (tensor group, out axis) is transposed to its
        oriented shape (other axes ascending, out axis last), members last,
        and the groups of one oriented shape make one stack. The members of
        each degree of each spider group, in ``spiders`` order, own a block
        of the v2f columns [0, wires), and each stack, in order of first
        appearance, a block of the f2v columns [wires, 2 * wires). On a tree
        a block's wires are sorted stably by level (``graph._wire_levels``);
        elsewhere they keep their order. Returns one op per block
        (``_sync_program`` merges a dim's spider blocks into one) and the
        two-pass program, one op per block and level. Sets the wire ->
        column maps ``v2f_col`` and ``f2v_col`` (by ``g.wires`` index) and
        ``col_wire``, each dim's ``g.wires`` index per column.
        """
        n_wires = len(self.wire_dim)
        # a forest has fewer wires than nodes (or none at all), so most loopy graphs need no walk
        tree = n_wires < max(1, len(g.variables) + len(g._wires.ids)) and not g._forest[-1]
        v2f_level, f2v_level = (np.array(x, dtype=np.intp) for x in _wire_levels(g)) if tree else [np.zeros(n_wires, np.intp)] * 2
        v2f, f2v = np.empty(n_wires, dtype=np.intp), np.empty(n_wires, dtype=np.intp)
        free = {d: [0, n] for d, n in self.dims.items()}  # each dim's next v2f and f2v column

        def block(col, d, half, wires, levels):  # the next columns of one half: (first, order, level runs)
            order, runs = _by_level(levels[wires])
            at = free[d][half]
            col[wires[order]] = np.arange(at, at + len(order))
            free[d][half] = at + len(order)
            return at, order, runs

        stacks = {}
        for shape, tensors, wires in groups:
            rank = len(shape)
            for t in range(rank):
                axes = [a for a in range(rank) if a != t] + [t]
                stack = stacks.setdefault(tuple(shape[a] for a in axes), ([], []))
                stack[0].append(tensors.transpose(*(a + 1 for a in axes), 0))
                stack[1].append(wires[axes])
        stack_blocks = []  # (shape, first column, level runs, tensors, other axes' wires) per stack
        for shape, (tensors, wires) in stacks.items():
            wires = np.concatenate(wires, axis=1)
            at, order, runs = block(f2v, shape[-1], 1, wires[-1], f2v_level)
            stack_blocks.append((shape, at, runs, np.concatenate(tensors, axis=-1).take(order, -1), wires[:-1, order]))
        ops = []  # (dim, first column, level runs, stack or None, argument)
        for d, start, degree, _objs, _slots in spiders:
            bounds = [0, *(np.flatnonzero(degree[1:] != degree[:-1]) + 1).tolist(), len(degree)]
            for a, b in zip(bounds, bounds[1:]):  # the members of each degree k: wires[j, i] is member i's j-th wire
                k = int(degree[a])
                if not k:  # an isolated variable sends nothing
                    continue
                wires = by_var[start[a:b] + np.arange(k).reshape(-1, 1)]
                at, order, runs = block(v2f, d, 0, wires.reshape(-1), v2f_level)
                # the f2v columns each out wire folds: its member's other wires, in incidence order
                leave_out = np.array([[q for q in range(k) if q != p] for p in range(k)], dtype=np.intp).reshape(k, k - 1)
                others = f2v[wires[leave_out]].transpose(1, 0, 2).reshape(k - 1, 1, wires.size).take(order, -1)
                # as flat indices into the (dim, 2 * wires) array: a (terms, dim, out columns) gather
                ops.append((d, at, runs, None, _frozen(others + 2 * self.dims[d] * np.arange(d).reshape(d, 1))))
        for shape, at, runs, tensors, wires in stack_blocks:
            ops.append((shape[-1], at, runs, _Stack(shape, _frozen(tensors), v2f[wires], self.dims), None))
        sync, leveled = [], []
        for d, at, runs, stack, arg in ops:
            size = runs[-1][1].stop
            sync.append((d, slice(at, at + size), stack, arg if stack is None else slice(0, size)))
            for level, run in runs:
                part = run if stack is not None else arg[..., run] if len(arg) else _ragged([], d, 0)
                leveled.append((level, (d, slice(at + run.start, at + run.stop), stack, part)))
        self.v2f_col, self.f2v_col, self.col_wire = _frozen(v2f), _frozen(f2v), {}
        for d, n in self.dims.items():
            wires = np.flatnonzero(self.wire_dim == d)
            self.col_wire[d] = _frozen(np.tile(wires, 2)[np.argsort(np.concatenate([v2f[wires], f2v[wires]]))])
        program = [[] for _ in range(1 + max((level for level, _op in leveled), default=-1))]
        for level, op in leveled:
            program[level].append(op)
        return sync, program if tree else None

    @cached_property
    def _sync_program(self):
        """``_levels``'s op of each stack block, and one ragged op per dim
        over all its spider blocks, by degree descending: it writes the dim's
        v2f columns, those of variables on one wire, past its last column
        with a term, the unit. Built on the first sweep, as a tree run never
        sweeps."""
        ops, spiders = [], {}
        for d, out, stack, arg in self._blocks:
            if stack is None:
                spiders.setdefault(d, []).append(arg)
            else:
                ops.append((d, out, stack, arg))
        for d, gathers in spiders.items():
            terms = [np.concatenate([gather[k, 0] for gather in gathers if len(gather) > k]) for k in range(len(gathers[0]))]
            ops.append((d, slice(0, self.dims[d]), None, _ragged(terms, d, self.dims[d])))
        return [ops]

    # -- one sync sweep ----------------------------------------------------------

    def sweep(self, g, arrays, cfg):
        """A new message store from the old one, the residual and the dead wire.

        Runs the sync program into a new store, each op writing its block,
        then normalizes (in place), damps and measures the residual once per
        dim, both directions at once, as the per-wire rules do column by
        column; the dead wire is None. A sweep with a dead column stops
        before damping: it returns the store with its live columns rescaled
        and its dead ones undivided, residual inf, and the first dead wire,
        every v2f wire in ``g.wires`` order before every f2v wire. A nan gap
        (``inf - inf`` once unnormalized messages overflow) makes the
        residual inf, so an overflowed run can never pass for converged.
        """
        semiring, new = self.semiring, self._empty()
        self._execute(self._sync_program, arrays, new)
        if cfg.normalize and semiring.has_normalize:
            gone = [(d, slice(None), dead) for d, a in new.items() if (dead := semiring._normalize_columns(a)) is not None]
            if gone:
                return new, math.inf, self._dead_wire(g, gone)
        if cfg.damping != 0.0:
            lam = cfg.damping
            for d, old in arrays.items():
                new[d] = (1.0 - lam) * new[d] + lam * old
        residual = 0.0
        for d, a in new.items():
            gap = semiring.max_distance(a, arrays[d])
            if not gap <= residual:  # a larger gap, or a nan one
                residual = gap if gap == gap else math.inf
        return new, residual, None

    # -- the two-pass schedule ---------------------------------------------------

    def two_pass(self, g, cfg):
        """Every message of the exact tree schedule, level by level.

        Returns (message store, contradiction wire or None). Each directed
        wire is computed once from final inputs, so the messages equal those
        of the per-wire two-pass run. A normalized run that hits dead
        support leaves the dead columns undivided and runs to the end; it
        reports the dead wire of lowest level, where support died, every v2f
        before every f2v in ``g.wires`` order within that level.
        """
        if self._tree_program is None:
            raise NotATreeError("two-pass scheduling needs a cycle-free graph without repeated wires")
        arrays = self._empty()  # an op reads lower levels only, so no column is read unwritten
        normalize = cfg.normalize and self.semiring.has_normalize
        gone = self._execute(self._tree_program, arrays, arrays, normalize)
        return arrays, self._dead_wire(g, gone) if gone else None

    # -- reading a state -------------------------------------------------------

    def _products(self, arrays, d, gather, ends, width):
        """A new (``d``, ``width``) array, ``_fold_ragged`` of dim ``d``'s f2v
        entries ``gather``; with no term, the dim may have no array to read."""
        values = np.empty((d, width), dtype=self.semiring.dtype)
        _fold_ragged(self.semiring, arrays[d].ravel()[gather] if ends else gather, ends, values)
        return values

    def incoming_products(self, arrays):
        """(objs, slots, product of each member's incoming f2v messages) per
        spider group, left-folded in incidence order as ``hadamard``: an
        isolated variable's is the unit, the empty product."""
        for group in self.var_groups:
            yield group.objs, group.slots, self._products(arrays, group.dim, group.gather, group.ends, len(group.slots))

    def variable_beliefs(self, arrays, cfg):
        """``beliefs``'s variable beliefs and zero wire, from the f2v messages;
        the wire is the first dead (or all-false) belief in ``g.variables`` order."""
        made, dead = _read_beliefs(self.semiring, cfg, self.incoming_products(arrays), self.var_ids, self._dealt)
        return made, None if dead is None else ("belief", dead)

    def factor_beliefs(self, g, arrays):
        """``beliefs``'s factor beliefs, from the v2f messages and the wire table's stacks."""
        w, by_factor = g._wires, {}
        for shape, pos, arr in w.groups:
            ids = [w.ids[p] for p in pos.tolist()]
            for a, d in enumerate(shape):  # axes ascending
                along = (-1,) + (1,) * a + (d,) + (1,) * (len(shape) - a - 1)
                arr = self.semiring.array_mul(arr, arrays[d].take(self.v2f_col[w.start[ids] + a], 1).T.reshape(along))
            arr = np.asarray(arr).reshape(len(ids), -1)
            arr.flags.writeable = False
            by_factor.update((fid, DenseTensor._wrap(shape, flat)) for fid, flat in zip(ids, arr))
        return {fid: by_factor[fid] for fid in w.ids}

    def cavity(self, arrays, fid, entry):
        """Factor ``fid``'s incoming v2f messages multiplied at its flat
        row-major ``entry``: the factor's belief there with the tensor left
        out. Left-folds ``mul`` in ascending axis order, as
        ``factor_beliefs``; a rank-0 factor's is the empty product."""
        wires = slice(self.start[fid], self.start[fid + 1])
        shape = self.wire_dim[wires].tolist()
        index = np.unravel_index(entry, shape)
        terms = [arrays[d].item(i, col) for d, col, i in zip(shape, self.v2f_col[wires].tolist(), index)]
        return reduce(self.semiring.mul, terms) if terms else self.semiring.one


def _plan_and_arrays(g, state):
    """The state's compiled plan and message arrays, for its own graph: the
    one that keeps that plan; anything but a ``MessageState`` is a
    ValidationError naming its type."""
    if not isinstance(state, MessageState):
        raise ValidationError(f"a message state must be a MessageState, got {type(state).__name__}")
    plan = state._plan
    if g.__dict__.get("_plan") is not plan:
        raise ValidationError("the message state was computed on another graph")
    return plan, state._arrays


def sweep_synchronous(g, state, cfg):
    """One Jacobi sweep: every message recomputed from the old snapshot.

    Runs the state's plan at level 0: every variable and factor update at
    once, normalized and damped per config. The state must come from this
    graph (ValidationError otherwise). The returned state's ``residual`` is
    the largest componentwise change (after normalization and damping);
    0.0 means no message changed, since a gap is 0 only between equal
    values and a nan gap makes the residual inf. A normalized sweep that
    meets dead support keeps its messages undamped, dead ones undivided,
    with residual inf and ``dead_wire`` the first dead wire, every v2f
    wire in ``g.wires`` order before every f2v wire (``_Plan.sweep``).
    """
    _run_semiring(g.semiring, cfg)
    plan, arrays = _plan_and_arrays(g, state)
    arrays, residual, dead_wire = plan.sweep(g, arrays, cfg)
    return MessageState(plan, arrays, state.iteration + 1, residual, dead_wire)


def two_pass_schedule(g):
    """The per-wire reference order of one exact tree sweep; no run takes
    it, as the plan runs the two passes a dependency level at a time.

    Each component is closed at its smallest variable id (on a tree every
    closing point gives the same value). First every wire pointing toward
    that root in nondecreasing distance-from-leaves order, then the same
    wires reversed. Ties break by ascending node id, so the order is
    deterministic. Entries are ``(kind, factor id, axis)`` with kind
    "v2f" or "f2v".
    """
    comps, parent, _node_wires, ends, cyclic = g._forest
    if cyclic:
        raise NotATreeError("two-pass scheduling needs a cycle-free graph without repeated wires")
    nv, wires = len(g.variables), g.wires
    depth = [0] * len(parent)
    upward = []
    for comp in comps:
        for node in comp[1:]:
            depth[node] = depth[ends[parent[node]] - node] + 1
        # deepest nodes send first; nodes of one depth are all variables or
        # all factors, so node order is id order
        for node in sorted(comp[1:], key=lambda n: (-depth[n], n)):
            upward.append(("v2f" if node < nv else "f2v",) + wires[parent[node]])
    downward = [
        ("f2v" if kind == "v2f" else "v2f", fid, axis)
        for kind, fid, axis in reversed(upward)
    ]
    return upward + downward


def run_two_pass(g, cfg):
    """Execute the two passes once on the compiled plan; return the state.

    Messages are computed one dependency level at a time and equal those of
    the per-wire rules in ``two_pass_schedule`` order bit for bit. A
    normalized run that hits dead support computes every message all the
    same, a dead one left undivided, and returns a state with residual inf
    whose ``dead_wire`` is where support died (``_Plan.two_pass``).
    """
    plan = _plan_of(g)
    _run_semiring(g.semiring, cfg)
    arrays, dead_wire = plan.two_pass(g, cfg)
    return MessageState(plan, arrays, 1, 0.0 if dead_wire is None else math.inf, dead_wire)


def beliefs(g, state, cfg):
    """Per-variable and per-factor beliefs from a message state.

    A variable's belief is the pointwise product of everything flowing into
    it (the unit for an isolated variable); a factor's belief is its tensor
    times the incoming messages, one per axis. Normalized per config.
    Computed on the state's compiled plan.
    """
    _run_semiring(g.semiring, cfg)
    plan, arrays = _plan_and_arrays(g, state)
    var_beliefs, zero_wire = plan.variable_beliefs(arrays, cfg)
    return var_beliefs, plan.factor_beliefs(g, arrays), zero_wire


def run_bp(g, cfg):
    """Run belief propagation under the given config.

    The sync schedule sweeps until it converges or ``max_iters`` sweeps
    have run (not converged, never raised). Residuals need not shrink
    monotonically on loopy graphs, so a residual within ``tol`` is trusted
    only once the next sweep stays within ``tol`` too; that certifying sweep
    is not counted in ``iterations`` and the run keeps the state it
    certified. A sweep that changes no message confirms a fixed point
    already reached: it converges the run uncounted. A budget that runs out
    before certification reports not converged, whatever the last residual.
    The tree schedule executes its two passes once and is exact. Count
    messages grow without bound around a cycle, so count under ``sync``
    needs a cycle-free graph (ValidationError otherwise).

    A run that meets dead support flags ``contradiction`` and names it as
    ``beliefs`` does: the state's ``dead_wire``, where a normalized run's
    support died (a sync run ends on that sweep, a tree run completes),
    else the first dead belief in ``g.variables`` order, ``("belief", v)``.
    Boolean runs never normalize: they complete and name the first wiped-out
    domain (messages only lose true entries, so an all-false message leaves
    an all-false belief), and their all-false beliefs are exact.

    The run builds variable beliefs only; the result computes its factor
    beliefs from its state on first read.
    """
    plan = _plan_of(g)
    semiring = _run_semiring(g.semiring, cfg)
    if semiring.name == "count" and cfg.schedule == "sync" and plan._tree_program is None:
        raise ValidationError(
            "count under the sync schedule needs a cycle-free graph: exact counts grow every "
            "sweep around a cycle; count on a tree with --schedule tree, or on any graph with jtree"
        )
    if cfg.schedule == "tree":
        state = run_two_pass(g, cfg)
        converged, iterations = state.dead_wire is None, 1
    else:
        state, converged, iterations = _run_sync(g, cfg)
    var_b, zero_wire = state._plan.variable_beliefs(state._arrays, cfg)
    wire = state.dead_wire or zero_wire
    return BPResult(
        state,
        converged=converged,
        iterations=iterations,
        residual=state.residual,
        variable_beliefs=var_b,
        contradiction=wire is not None,
        contradiction_wire=wire,
        _graph=g,
    )


def _run_sync(g, cfg):
    """``run_bp``'s sync loop; returns (state, converged, iterations). The
    checks run in this order so that a certified state keeps its residual."""
    state, settled = init_messages(g, cfg), False
    for k in range(1, cfg.max_iters + 1):
        new = sweep_synchronous(g, state, cfg)
        if settled and new.residual <= cfg.tol:
            return state, True, k - 1  # certified: the next sweep stays put
        if new.residual == 0.0:
            return new, True, k - 1  # no message changed: already a fixed point
        if new.dead_wire is not None:
            return new, False, k
        state, settled = new, new.residual <= cfg.tol
    return state, False, k


def contraction_value(g):
    """Scalar value of the closed diagram (partition sum, count, ...).

    Runs unnormalized two-pass propagation in the graph's semiring and
    closes the diagram at the smallest variable id of each component,
    multiplying components together. Exact on trees for every semiring; on
    a tree every closing point gives the same value, so relabelling the ids
    leaves it unchanged. Rank-0 factors multiply in directly; an isolated
    variable contributes one term per state.
    """
    return contraction_from_state(g, run_two_pass(g, RunConfig(schedule="tree", normalize=False)))


def contraction_from_state(g, state):
    """Close the diagram against converged messages, component by component,
    each at its smallest variable id."""
    plan, arrays = _plan_and_arrays(g, state)
    return reduce(plan.semiring.mul, [z for _fac_ids, z in _closed_components(g, plan, arrays)], plan.semiring.one)


def _closed_components(g, plan, arrays):
    """(factor ids, closed value) per component, in ``components`` order:
    a rank-0 factor's entry, else the fold of the incoming product at the
    smallest variable id."""
    rank0 = {g._wires.ids[p]: x for shape, pos, stack in g._wires.groups if not shape for p, x in zip(pos.tolist(), stack.tolist())}
    for var_ids, fac_ids in components(g):
        if not var_ids:
            yield fac_ids, rank0[fac_ids[0]]
            continue
        v = var_ids[0]
        d, cols = int(g._dims[v]), plan.incident[plan.cuts[v] : plan.cuts[v + 1]]
        product = plan._products(arrays, d, *_ragged(list(cols[:, None]), d, plan.dims.get(d, 0)), 1)
        yield fac_ids, plan.semiring.fold(product[:, 0], 0).item()


def contraction_derivative(g, factor_id, entry_index):
    """(Z, dZ/dx) for the closed diagram's value Z and the flat row-major
    entry x = ``entry_index`` of factor ``factor_id``'s table.

    Z is linear in every entry, so dZ/dT_f[x] is the diagram with the box
    T_f cut out (Darwiche, JACM 2003): on a tree, f's cavity at x times
    every other component's value. One unnormalized two-pass gives both,
    Z bit for bit as ``contraction_value``. A bad target is a
    ValidationError, a graph with a cycle a NotATreeError.
    """
    factor_id, entry_index = _check_target(g, factor_id, entry_index)
    state = run_two_pass(g, RunConfig(schedule="tree", normalize=False))
    plan, arrays = state._plan, state._arrays
    semiring = plan.semiring
    cavity = plan.cavity(arrays, factor_id, entry_index)
    value = derivative = semiring.one
    for fac_ids, z in _closed_components(g, plan, arrays):
        value = semiring.mul(value, z)
        derivative = semiring.mul(derivative, cavity if factor_id in fac_ids else z)
    return value, derivative


def _check_index(value, size, what, missing):
    """``value``, a Python or numpy integer (not a bool) in range(``size``),
    as an int; else a ValidationError naming ``what`` and it, or ``missing``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if not 0 <= value < size:
        raise ValidationError(missing)
    return int(value)


def _check_target(g, factor_id, entry_index):
    """(factor id, entry) as ints, once ``g`` is valid, has factor
    ``factor_id`` and ``entry_index`` is a flat row-major index into its
    table; a ValidationError otherwise."""
    w = _ensure_valid(g)._wires
    factor_id = _check_index(factor_id, len(w.ids), "a factor id", f"no factor with id {factor_id}")
    size = math.prod(w.dim[w.start[factor_id] : w.start[factor_id + 1]].tolist())
    missing = f"entry {entry_index} out of range for factor {factor_id} ({size} entries)"
    return factor_id, _check_index(entry_index, size, "an entry", missing)


def decode_map(g, state):
    """Best state per variable from its belief, ties to the lowest index.

    Needs a graph in a totally ordered semiring (prob, maxtimes, bool,
    count). On a tree with maxtimes messages and a unique optimum this
    recovers the globally best assignment. A state wins only by comparing
    greater than the best so far, so a nan never wins and a leading nan
    keeps state 0.
    """
    semiring = get_semiring(g.semiring)
    if not semiring.has_compare:
        raise NoTotalOrderError(
            f"semiring {semiring.name!r} has no total order to decode with"
        )
    plan, arrays = _plan_and_arrays(g, state)
    made = []
    for _objs, slots, values in plan.incoming_products(arrays):
        best = np.zeros(len(slots), dtype=np.intp)
        best_val = values[0]
        for j in range(1, len(values)):
            better = np.asarray(values[j] > best_val, dtype=bool)
            best[better] = j
            best_val = np.where(better, values[j], best_val)
        made += best.tolist()
    return dict(zip(plan.var_ids, map(made.__getitem__, plan._dealt)))


def dual_seed(g, factor_id, entry_index):
    """Copy of a prob graph as a dual graph, one entry carrying eps.

    Every value x becomes x + 0*eps except the chosen factor's flat
    row-major ``entry_index``, which becomes x + 1*eps. Contracting the
    result leaves d(contraction)/d(entry) in the eps component: the
    generic-algebra route to what ``contraction_derivative`` reads off one
    prob run. A graph in any other semiring is a ValidationError.
    """
    if g.semiring != "prob":
        raise ValidationError(f"dual_seed lifts a prob graph, not a {g.semiring} graph: parse or build the model under prob")
    factor_id, entry_index = _check_target(g, factor_id, entry_index)
    factors = []
    for f in g.factors:
        values = f.tensor.data.tolist()
        if f.id == factor_id:
            values[entry_index] = [values[entry_index], 1.0]  # a dual pair: x + 1*eps
        factors.append((f.id, f.neighbors, values))
    return _assemble(get_semiring("dual"), g.variables, factors)


def evaluate_assignment(g, assignment):
    """Product of all factor entries at one full assignment, in the graph's
    semiring, as a Python scalar (as ``contraction_value``). Every variable
    needs a state, a Python or numpy integer (not a bool) below its dim; a
    ValidationError names the first missing or bad one by id, or else the
    first key that names no variable. An assignment that is not a mapping is
    a ValidationError naming its type."""
    if not isinstance(assignment, Mapping):
        raise ValidationError(f"an assignment must be a mapping of variable id to state, got {type(assignment).__name__}")
    semiring, w, dims = get_semiring(g.semiring), g._wires, g._dims
    given, states = list(map(assignment.get, range(len(dims)))), None
    if all(t is not bool and issubclass(t, (int, np.integer)) for t in set(map(type, given))):
        with suppress(OverflowError):  # a state past intp is out of range
            states = np.fromiter(given, np.intp, len(given))
    if states is None or ((states < 0) | (states >= dims)).any():
        for vid, (state, dim) in enumerate(zip(given, dims.tolist())):
            _check_index(state, dim, f"variable {vid}'s state", f"state {state!r} out of range for variable {vid} ({dim} states)")
    if len(assignment) != len(given):  # every id has a key, so some key names none
        named = set(range(len(given)))
        stray = next(key for key in assignment if key not in named)
        raise ValidationError(f"assignment key {stray!r} names none of the {len(given)} variables")
    entries, fids = np.empty(len(w.ids), dtype=object), np.array(w.ids, dtype=np.intp)  # entries by factor id
    for shape, pos, stack in w.groups:
        ids = fids[pos]
        entries[ids] = stack[(np.arange(len(ids)), *(states[w.var[w.start[ids] + a]] for a in range(len(shape))))]
    return reduce(semiring.mul, entries.tolist(), semiring.one)
