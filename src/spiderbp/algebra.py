"""Pluggable scalar algebras (commutative semirings) for message passing.

The same propagation loop computes marginals, MAP assignments, constraint
support, exact model counts, or derivatives purely by swapping the scalar
algebra it runs on. Each instance bundles:

* the scalar operations ``add``/``mul`` with their identities,
* the numpy dtype used to store tensors of such scalars,
* ``fold``, the one semiring sum every other layer calls,
* optional extras: ``normalize`` (rescale a message vector) and the
  ``has_compare`` flag (a total order under ``>``, needed for argmax
  decoding).

Instances are stateless singletons looked up by name:

====================  ==========================================
``"prob"``            nonnegative reals, (+, *): marginals
``"maxtimes"``        nonnegative reals, (max, *): MAP
``"bool"``            {False, True}, (or, and): constraint support
``"count"``           nonnegative integers, (+, *), exact: counting
``"dual"``            pairs a + b*eps with eps^2 = 0: derivatives
====================  ==========================================

Tensors over a semiring are ordinary numpy arrays whose dtype the instance
picks: float64 for the real semirings, bool for ``bool``, and object arrays
for ``count`` (arbitrary-precision Python ints) and ``dual`` (pairs).

Determinism contract. Every semiring sum in the package (message
contraction, normalization, closing a diagram, the junction tree's
separator sums and marginals, the oracle's totals) goes through
``Semiring.fold(arr, axis)``, written once: it moves ``axis`` to the front
and calls the semiring's one kernel ``_fold0``, which the engine's and
junction tree's axis-0 sums call directly. The result is the ascending
left fold

    acc = x[0]; acc = add(acc, x[i]) for i = 1, 2, ...

along ``axis``, bit for bit; an empty axis gives the zero. Callers fold
summed-out index tuples in ascending row-major order. Floating-point
addition is not associative, so this order is what makes a run
reproducible bit for bit on one platform, whichever kernel computes it:
prob and maxtimes use their ufunc's ``accumulate`` (sequential by
definition) or, when the slices are long, a loop over them; or and exact
integer addition cannot change a bit in any order, so bool and count use
ufunc ``reduce``; dual loops over the slices. The maxtimes ``add`` follows
``np.maximum`` (a nan wins, a tie goes to the second operand), so its
scalar and array forms agree. Rescaling is written once per semiring too,
in ``_normalize_columns``: the engine stores messages dim-major, one column
per wire, so a column's mass is a fold of axis 0, and ``normalize`` is the
one-column case.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import ZeroMessageError


@dataclass(frozen=True)
class DualNumber:
    """A dual number a + b*eps with eps^2 = 0.

    Multiplication carries derivatives along for the ride:
    (a + b*eps)(c + d*eps) = ac + (ad + bc)*eps.
    """

    real: float
    eps: float = 0.0

    def __add__(self, other):
        return DualNumber(self.real + other.real, self.eps + other.eps)

    def __mul__(self, other):
        return DualNumber(
            self.real * other.real,
            self.real * other.eps + self.eps * other.real,
        )

    def __repr__(self):
        return f"{self.real} + {self.eps}ε"


#: elementwise DualNumber(real, eps) of two float arrays, as an object array
_dual_array = np.frompyfunc(DualNumber, 2, 1)

#: the types of a plain number in a dual table and of each part of an [a, b]
#: pair, in ``coerce_scalar`` as in ``tensor._flatten``
_NUMBER = (int, float, np.floating, np.integer)


class Semiring:
    """Base contract every scalar algebra fulfils.

    Subclasses set ``name``, ``zero``, ``one``, ``dtype`` and implement the
    scalar ops and their elementwise array forms ``array_add`` and
    ``array_mul``, which are what the tensor and engine layers actually
    call.
    """

    name = "?"
    zero = None
    one = None
    dtype = np.float64
    has_normalize = False
    has_compare = False
    exact = False
    #: full scalar domain when it is small enough to enumerate, else None
    enumerable = None

    # -- scalar operations -------------------------------------------------

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def distance(self, a, b):
        """Nonnegative float gap between two scalars; 0 iff equal.

        Exact semirings use a 0/1 indicator so the engine's residual
        machinery doubles as an exact-change flag.
        """
        raise NotImplementedError

    def approx_eq(self, a, b):
        """Equal, or for an inexact algebra within a ``distance`` of 1e-9."""
        if self.exact:
            return a == b
        return self.distance(a, b) <= 1e-9

    def render(self, a):
        """Decimal string for one scalar."""
        return repr(a)

    # -- array operations ---------------------------------------------------

    def coerce_scalar(self, x):
        """Validate and convert one raw value into this algebra's domain."""
        raise NotImplementedError

    def coerce(self, values):
        """Flat numpy array of this algebra's scalars from raw values."""
        scalars = [self.coerce_scalar(x) for x in values]
        out = np.empty(len(scalars), dtype=self.dtype)
        out[:] = scalars
        return out

    def full(self, shape, value):
        out = np.empty(shape, dtype=self.dtype)
        out[...] = value
        return out

    def zeros(self, shape):
        return self.full(shape, self.zero)

    def ones(self, shape):
        return self.full(shape, self.one)

    def fold(self, arr, axis):
        """Semiring sum of ``arr`` along ``axis``, as a new array without it.

        The result is the ascending left fold ``acc = x[0]; acc = add(acc,
        x[i])`` along the axis, bit for bit, and the zero for an empty
        axis (the contract in the module docstring).
        """
        arr = np.asarray(arr)
        if arr.shape[axis] == 0:
            return self.zeros(arr.shape[:axis] + arr.shape[axis + 1 :])
        # every fold in the package is of axis 0, and moveaxis costs microseconds
        return np.array(self._fold0(np.moveaxis(arr, axis, 0) if axis else arr), dtype=self.dtype)

    def _fold0(self, arr):
        """The kernel of ``fold(arr, 0)`` for an array of this algebra's
        dtype with a nonempty axis 0, without ``fold``'s conversion: a new
        array or scalar, never a view of ``arr``. Overrides change how it is
        computed, never its bits. This one adds whole rows, first to last."""
        acc = np.array(arr[0])
        for i in range(1, len(arr)):
            acc = self.array_add(acc, arr[i])
        return acc

    def max_distance(self, a, b):
        """Largest componentwise ``distance`` between two equal-shape arrays.

        A nan distance anywhere makes the result nan.
        """
        out = 0.0
        for x, y in zip(np.asarray(a).ravel().tolist(), np.asarray(b).ravel().tolist()):
            gap = self.distance(x, y)
            if gap != gap:
                return gap
            out = max(out, gap)
        return out

    # -- optional: message rescaling -----------------------------------------

    def normalize(self, values):
        """Rescaled copy of ``values``; raises ZeroMessageError on dead support.

        Only available when ``has_normalize``; the one-column case of
        ``_normalize_columns``. The exception carries the unchanged input so
        callers can still report what was computed.
        """
        out = np.array(values, dtype=self.dtype).reshape(-1)
        if self._normalize_columns(out[:, None]) is not None:
            raise ZeroMessageError(values=values)
        return out

    def _normalize_columns(self, cols):
        """Divide each column of a (dim, n) array by its mass, the fold of
        axis 0, in place.

        Returns the dead-column mask, None when no column is dead. A column
        is dead when its mass is zero; dead columns keep their entries, and
        nothing is divided by zero.
        """
        raise NotImplementedError

    # -- randomized-check support --------------------------------------------

    def random_scalar(self, rng):
        raise NotImplementedError

    # -- file-format payloads -------------------------------------------------

    def value_to_json(self, a):
        return a


class ProbSemiring(Semiring):
    """Nonnegative reals under (+, *): sum-product marginals."""

    name = "prob"
    zero = 0.0
    one = 1.0
    has_normalize = True
    has_compare = True
    #: the ufunc of ``add``; its ``accumulate`` applies it in index order
    _ufunc = np.add

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def distance(self, a, b):
        return abs(a - b)

    def coerce_scalar(self, x):
        v = self._real(x)
        if not 0.0 <= v < math.inf:
            raise ValueError(f"{self.name} values must be finite nonnegative reals, got {x!r}")
        return v

    def _real(self, x):
        # float() of None, a list or an int past float range is a
        # ValueError here, like any other value out of the domain
        try:
            return float(x)
        except (TypeError, OverflowError):
            raise ValueError(
                f"{self.name} values must be finite nonnegative reals, got {reprlib.repr(x)}"
            ) from None

    def coerce(self, values):
        try:
            reals = list(map(float, values))
        except (TypeError, OverflowError):
            reals = [self._real(x) for x in values]  # raises at the same value
        out = np.array(reals, dtype=np.float64)
        ok = (out >= 0.0) & (out < math.inf)
        if not ok.all():
            bad = float(out[~ok][0])
            raise ValueError(f"{self.name} values must be finite nonnegative reals, got {bad!r}")
        return out

    def array_add(self, a, b):
        return self._ufunc(a, b)

    def array_mul(self, a, b):
        return np.multiply(a, b)

    def _fold0(self, arr):
        # The loop makes one ufunc call per row (not array_add: every sync
        # sweep folds here), accumulate one inner loop per position: long rows
        # favour the loop. Both add in row order, so the choice moves no bit.
        # The last row is copied, as a view of it would keep all n rows alive.
        n = len(arr)
        if n == 1 or arr.size < 32 * n * n:
            return self._ufunc.accumulate(arr, axis=0)[-1].copy()
        acc = self._ufunc(arr[0], arr[1])
        for i in range(2, n):
            acc = self._ufunc(acc, arr[i])
        return acc

    @np.errstate(invalid="ignore")  # inf - inf is a nan gap, not a warning
    def max_distance(self, a, b):
        # the same answer as the scalar loop: max is exact, and np.max keeps
        # any nan
        d = np.subtract(a, b)
        return float(np.abs(d, out=d).max()) if d.size else 0.0

    def _normalize_columns(self, cols):
        s = self._fold0(cols)  # a new array: dividing cols leaves it be
        if np.count_nonzero(s) == len(s):
            np.divide(cols, s, out=cols)
            return None
        dead = s == 0.0
        live = ~dead
        cols[:, live] = cols[:, live] / s[live]
        return dead

    def random_scalar(self, rng):
        return float(rng.uniform(0.0, 2.0))

    def value_to_json(self, a):
        return float(a)


class MaxTimesSemiring(ProbSemiring):
    """Nonnegative reals under (max, *): max-product / MAP.

    Kept over [0, inf) rather than log space so the exact same factor
    tables drive both marginal and MAP runs.
    """

    name = "maxtimes"
    _ufunc = np.maximum

    def add(self, a, b):
        # np.maximum's rule, so scalar and array sums agree bit for bit: a
        # nan wins, and a tie (0.0 against -0.0) goes to the second
        return a if a > b or a != a else b


class BoolSemiring(Semiring):
    """Booleans under (or, and): support / constraint propagation."""

    name = "bool"
    zero = False
    one = True
    dtype = np.bool_
    has_compare = True
    exact = True
    enumerable = (False, True)

    def add(self, a, b):
        return bool(a or b)

    def mul(self, a, b):
        return bool(a and b)

    def distance(self, a, b):
        return 0.0 if bool(a) == bool(b) else 1.0

    def render(self, a):
        return "1" if a else "0"

    def coerce_scalar(self, x):
        if isinstance(x, (bool, np.bool_)):
            return bool(x)
        if x in (0, 1):
            return bool(x)
        raise ValueError(f"bool values must be true/false or 0/1, got {x!r}")

    def array_add(self, a, b):
        return np.logical_or(a, b)

    def array_mul(self, a, b):
        return np.logical_and(a, b)

    def _fold0(self, arr):
        # or gives the same bits in any order
        return np.logical_or.reduce(arr, axis=0)

    def random_scalar(self, rng):
        return bool(rng.integers(2))

    def value_to_json(self, a):
        return bool(a)


class NatCountSemiring(Semiring):
    """Nonnegative integers under (+, *), exact at any size.

    Values are plain Python ints held in object arrays, so counts never
    overflow or round.
    """

    name = "count"
    zero = 0
    one = 1
    dtype = np.object_
    has_compare = True
    exact = True

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def distance(self, a, b):
        return 0.0 if a == b else 1.0

    def coerce_scalar(self, x):
        if isinstance(x, bool):
            return int(x)
        if isinstance(x, (int, np.integer)):
            v = int(x)
        elif isinstance(x, float) and x.is_integer():
            v = int(x)
        else:
            raise ValueError(f"count values must be nonnegative integers, got {x!r}")
        if v < 0:
            raise ValueError(f"count values must be nonnegative integers, got {x!r}")
        return v

    def coerce(self, values):
        values = list(values)
        if set(map(type, values)) <= {int} and (not values or min(values) >= 0):
            # plain nonnegative ints pass through unchanged, as coerce_scalar
            # would return them
            out = np.empty(len(values), dtype=object)
            out[:] = values
            return out
        return super().coerce(values)

    def array_add(self, a, b):
        return np.add(a, b)

    def array_mul(self, a, b):
        return np.multiply(a, b)

    def _fold0(self, arr):
        # int addition is exact in any order
        return np.add.reduce(arr, axis=0)

    def random_scalar(self, rng):
        return int(rng.integers(0, 10))

    def value_to_json(self, a):
        return int(a)


class DualSemiring(Semiring):
    """Dual numbers a + b*eps under componentwise +, truncated *.

    Running a contraction with one factor entry seeded as value + 1*eps
    leaves the contraction's partial derivative with respect to that entry
    in the eps component of the result.
    """

    name = "dual"
    zero = DualNumber(0.0, 0.0)
    one = DualNumber(1.0, 0.0)
    dtype = np.object_
    has_normalize = True

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def array_add(self, a, b):
        # object arrays: numpy calls DualNumber.__add__ per element, in order
        return np.add(a, b)

    def array_mul(self, a, b):
        return np.multiply(a, b)

    def distance(self, a, b):
        # a nan in either part is a nan gap; max() would drop it second
        real, eps = abs(a.real - b.real), abs(a.eps - b.eps)
        return eps if eps != eps or eps > real else real

    def coerce_scalar(self, x):
        if isinstance(x, DualNumber):
            v = x
        elif isinstance(x, (list, tuple)) and len(x) == 2 and all(isinstance(p, _NUMBER) for p in x):
            v = DualNumber(self._part(x, x[0]), self._part(x, x[1]))
        elif isinstance(x, _NUMBER):
            v = DualNumber(self._part(x, x), 0.0)
        else:
            raise ValueError(f"dual values must be [a, b] pairs or numbers, got {x!r}")
        if not (math.isfinite(v.real) and math.isfinite(v.eps)):
            raise ValueError(f"dual values must be finite, got {x!r}")
        return v

    def _part(self, x, part):
        # float() of an int past float range, as a domain error
        try:
            return float(part)
        except OverflowError:
            raise ValueError(
                f"dual values must be [a, b] pairs or numbers, got {reprlib.repr(x)}"
            ) from None

    def _normalize_columns(self, cols):
        # The quotient rule: (a + b*eps) / (s + sigma*eps), with s and sigma
        # the sums of the real and eps parts, is a/s + (b*s - a*sigma)/s^2
        # eps, the derivative of a/s; the eps part is computed as
        # (b - sigma*a/s)/s, which does not square s.
        lines = cols.tolist()
        a = np.array([[d.real for d in line] for line in lines], dtype=np.float64).reshape(cols.shape)
        b = np.array([[d.eps for d in line] for line in lines], dtype=np.float64).reshape(cols.shape)
        s, sigma = PROB._fold0(a), PROB._fold0(b)
        live = s != 0.0
        real = a[:, live] / s[live]
        cols[:, live] = _dual_array(real, (b[:, live] - sigma[live] * real) / s[live])
        return None if live.all() else ~live

    def random_scalar(self, rng):
        return DualNumber(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))

    def value_to_json(self, a):
        return [a.real, a.eps]


PROB = ProbSemiring()
MAXTIMES = MaxTimesSemiring()
BOOL = BoolSemiring()
COUNT = NatCountSemiring()
DUAL = DualSemiring()

SEMIRINGS = {s.name: s for s in (PROB, MAXTIMES, BOOL, COUNT, DUAL)}


def get_semiring(name):
    """Look up a semiring instance by its registry name."""
    if isinstance(name, Semiring):
        return name
    try:
        return SEMIRINGS[name]
    except KeyError:
        known = ", ".join(sorted(SEMIRINGS))
        raise ValueError(f"unknown semiring {name!r}; known: {known}") from None
