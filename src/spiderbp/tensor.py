"""Dense semiring tensors, messages, and the contraction kernels.

Data is stored flat in row-major order (last axis fastest) inside a numpy
array whose dtype the semiring picks. Every semiring sum here is a
``Semiring.fold`` over the summed-out index tuples in ascending row-major
order, under the determinism contract written in ``spiderbp.algebra``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _NUMBER
from .errors import (
    BadSplitError,
    ObjectMismatchError,
    ShapeMismatchError,
    TooLargeError,
)
from .graph import DEFAULT_TENSOR_CAP, ObjectType


@dataclass(frozen=True)
class DenseTensor:
    """A rank-n array of semiring scalars, stored flat in row-major order."""

    shape: tuple
    data: np.ndarray

    def __post_init__(self):
        shape = tuple(int(d) for d in self.shape)
        object.__setattr__(self, "shape", shape)
        if any(d < 1 for d in shape):
            raise ShapeMismatchError(f"axis dims must be >= 1, got {list(shape)}")
        size = math.prod(shape)
        if size > DEFAULT_TENSOR_CAP:
            raise TooLargeError(
                f"tensor of {size} entries exceeds the cap of {DEFAULT_TENSOR_CAP}"
            )
        data = np.asarray(self.data).reshape(-1)
        if len(data) != size:
            raise ShapeMismatchError(
                f"{len(data)} values cannot fill shape {list(shape)} ({size} entries)"
            )
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def from_values(cls, shape, values, semiring):
        """Build from raw (possibly nested) values, coercing into ``semiring``."""
        flat = _flatten(values, pairs_are_scalars=getattr(semiring, "name", "") == "dual")
        return cls(tuple(shape), semiring.coerce(flat))

    @classmethod
    def _wrap(cls, shape, data):
        """A tensor over ``data`` as it is, unchecked and uncopied.

        For callers that already hold a read-only flat array filling the
        int tuple ``shape``.
        """
        t = object.__new__(cls)
        # the instance dict, which the frozen __setattr__ does not guard
        fields = t.__dict__
        fields["shape"], fields["data"] = shape, data
        return t

    @classmethod
    def from_array(cls, arr):
        arr = np.asarray(arr)
        return cls(arr.shape, arr.reshape(-1))

    @property
    def rank(self):
        return len(self.shape)

    @property
    def size(self):
        return math.prod(self.shape)

    def as_array(self):
        """Read-only ndarray view shaped like ``shape``."""
        return self.data.reshape(self.shape)

    def entry(self, index):
        """The entry at an int tuple ``index`` (``()`` for rank 0), as a
        Python scalar: ``float``, ``bool`` or the object itself."""
        return self.as_array().item(tuple(index))


def _flatten(values, pairs_are_scalars=False):
    if isinstance(values, np.ndarray):
        return list(values.reshape(-1))
    if not isinstance(values, (list, tuple)):
        return [values]
    out = []

    # preserve row-major order while unrolling nested lists; for the dual
    # algebra a two-number [a, b] inside the table is a scalar, not nesting,
    # while the table itself is always a list of entries
    def walk(x):
        if isinstance(x, (list, tuple)) and not (pairs_are_scalars and _is_pair(x)):
            for item in x:
                walk(item)
        else:
            out.append(x)

    for item in values:
        walk(item)
    return out


def _is_pair(x):
    return len(x) == 2 and all(isinstance(e, _NUMBER) for e in x)


@dataclass(frozen=True)
class Message:
    """A length-dim vector of semiring scalars tagged with its wire type."""

    obj: ObjectType
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values).reshape(-1)
        if len(values) != self.obj.dim:
            raise ShapeMismatchError(
                f"message for {self.obj.name!r} needs {self.obj.dim} entries, got {len(values)}"
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def _wrap(cls, obj, values):
        """A message over ``values`` as it is, unchecked and uncopied.

        For callers that already hold a read-only flat array of ``obj.dim``
        entries.
        """
        m = object.__new__(cls)
        # the instance dict, which the frozen __setattr__ does not guard
        fields = m.__dict__
        fields["obj"], fields["values"] = obj, values
        return m


def matricize(t, row_axes, col_axes):
    """Flatten a tensor to a matrix by grouping axes into rows and columns.

    ``row_axes`` and ``col_axes`` must together partition the axes; each
    group keeps its listed order. The result has shape
    (prod of row dims, prod of col dims) and, like all reshapes here, moves
    no data beyond the axis reordering: any two routes to the same final
    grouping agree entry for entry.
    """
    row_axes = tuple(int(a) for a in row_axes)
    col_axes = tuple(int(a) for a in col_axes)
    if sorted(row_axes + col_axes) != list(range(t.rank)):
        raise BadSplitError(
            f"row axes {list(row_axes)} and column axes {list(col_axes)} "
            f"must partition the {t.rank} axes"
        )
    arr = np.transpose(t.as_array(), row_axes + col_axes)
    rows = math.prod(t.shape[a] for a in row_axes)
    cols = math.prod(t.shape[a] for a in col_axes)
    return DenseTensor((rows, cols), arr.reshape(-1))


def spider_tensor(dim, legs, semiring=None):
    """Copy tensor: one where all ``legs`` indices agree, zero elsewhere.

    With a single leg this degenerates to the all-ones vector (the unit
    message). Every variable is one of these, but the engine never
    materializes it: contracting a spider against messages is their
    pointwise product (``hadamard``). The copy tensors here serve the
    spider-law checks in ``spiderbp.checks`` and the tests.
    """
    if legs < 1:
        raise ShapeMismatchError("a spider needs at least one leg")
    if dim**legs > DEFAULT_TENSOR_CAP:
        raise TooLargeError(
            f"spider of {dim}**{legs} entries exceeds the cap of {DEFAULT_TENSOR_CAP}"
        )
    if semiring is None:
        from .algebra import PROB

        semiring = PROB
    arr = semiring.zeros((dim,) * legs)
    for i in range(dim):
        arr[(i,) * legs] = semiring.one
    return DenseTensor(arr.shape, arr.reshape(-1))


def hadamard(semiring, messages):
    """Pointwise semiring product of messages sharing one object.

    This is what contracting the implicit copy tensor against the messages
    would produce, at O(dim * count) cost instead of O(dim ** count).
    """
    messages = list(messages)
    if not messages:
        raise ShapeMismatchError("hadamard needs at least one message")
    obj = messages[0].obj
    for m in messages[1:]:
        if m.obj != obj:
            raise ObjectMismatchError(
                f"cannot combine messages for {obj.name!r} (dim {obj.dim}) "
                f"and {m.obj.name!r} (dim {m.obj.dim})"
            )
    acc = messages[0].values
    for m in messages[1:]:
        acc = semiring.array_mul(acc, m.values)
    return Message(obj, np.asarray(acc))


def _multiply_into_axis(semiring, arr, axis, values):
    shape = [1] * arr.ndim
    shape[axis] = len(values)
    return semiring.array_mul(arr, np.asarray(values).reshape(shape))


def fold_axis_sum(semiring, arr, keep_axis):
    """Semiring-sum every axis except ``keep_axis``.

    One ``semiring.fold`` over the summed-out index tuples in ascending
    row-major order.
    """
    moved = np.moveaxis(arr, keep_axis, -1)
    return semiring.fold(moved.reshape(-1, arr.shape[keep_axis]), 0)


def contract_to_axis(semiring, t, target, messages, out_obj=None):
    """Contract all non-target axes of ``t`` against one message each.

    ``messages`` pair up with the non-target axes in ascending axis order.
    Returns the message left on the target axis:

        out[j] = sum over remaining index tuples of
                 t[..., j, ...] * prod of message entries

    with the sum folded in ascending row-major order of the tuples
    (``fold_axis_sum``).
    """
    if t.rank < 1:
        raise ShapeMismatchError("cannot contract a rank-0 tensor to an axis")
    if not 0 <= target < t.rank:
        raise ShapeMismatchError(f"target axis {target} out of range for rank {t.rank}")
    others = [a for a in range(t.rank) if a != target]
    if len(messages) != len(others):
        raise ShapeMismatchError(
            f"need {len(others)} messages for the non-target axes, got {len(messages)}"
        )
    arr = t.as_array()
    for axis, msg in zip(others, messages):
        if len(msg.values) != t.shape[axis]:
            raise ShapeMismatchError(
                f"axis {axis} has dim {t.shape[axis]} but message has {len(msg.values)}"
            )
        arr = _multiply_into_axis(semiring, arr, axis, msg.values)
    out = fold_axis_sum(semiring, arr, target)
    if out_obj is None:
        out_obj = ObjectType(f"axis{target}", t.shape[target])
    return Message(out_obj, out)

