"""Pluggable scalar algebras (commutative semirings) for message passing.

The same propagation loop computes marginals, MAP assignments, constraint
support, exact model counts, or derivatives purely by swapping the scalar
algebra it runs on. Each instance bundles:

* the scalar operations ``add``/``mul`` with their identities,
* the numpy dtype used to store tensors of such scalars,
* ``fold``, the one semiring sum every other layer calls,
* optional extras: ``normalize`` (rescale a message vector) and ``compare``
  (a total order, needed for argmax decoding).

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
``Semiring.fold(arr, axis)``, and its result is the ascending left fold

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
in ``_normalize_rows``, and ``normalize`` is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NoTotalOrderError, ZeroMessageError


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

    def approx_eq(self, a, b, tol=1e-9):
        if self.exact:
            return a == b
        return self.distance(a, b) <= tol

    def render(self, a):
        """Decimal string for one scalar."""
        return repr(a)

    def compare(self, a, b):
        """Three-way comparison; only meaningful when ``has_compare``."""
        raise NoTotalOrderError(f"semiring {self.name!r} has no total order")

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
        axis (the contract in the module docstring). Overrides change how
        it is computed, never its bits. This one adds whole slices, first
        to last.
        """
        arr = np.asarray(arr)
        lead = (slice(None),) * axis
        if arr.shape[axis] == 0:
            return self.zeros(arr.shape[:axis] + arr.shape[axis + 1 :])
        acc = arr[lead + (0,)]
        for i in range(1, arr.shape[axis]):
            acc = self.array_add(acc, arr[lead + (i,)])
        return np.array(acc, dtype=self.dtype)

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

        Only available when ``has_normalize``; the one-row case of
        ``_normalize_rows``. The exception carries the unchanged input so
        callers can still report what was computed.
        """
        out, dead = self._normalize_rows(np.asarray(values).reshape(1, -1))
        if dead[0]:
            raise ZeroMessageError(values=values)
        return out[0]

    def _normalize_rows(self, rows):
        """Each row of a 2-d array divided by its mass (a semiring fold).

        Returns (rescaled rows, dead-row mask). A row is dead when its mass
        is zero; dead rows come back as they were, and nothing is divided
        by zero.
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

    def compare(self, a, b):
        # int() first: numpy bools do not support subtraction.
        return int(a > b) - int(a < b)

    def coerce_scalar(self, x):
        v = float(x)
        if not 0.0 <= v < math.inf:
            raise ValueError(f"{self.name} values must be finite nonnegative reals, got {x!r}")
        return v

    def coerce(self, values):
        out = np.asarray([float(x) for x in values], dtype=np.float64)
        ok = (out >= 0.0) & (out < math.inf)
        if not ok.all():
            bad = float(out[~ok][0])
            raise ValueError(f"{self.name} values must be finite nonnegative reals, got {bad!r}")
        return out

    def array_add(self, a, b):
        return self._ufunc(a, b)

    def array_mul(self, a, b):
        return np.multiply(a, b)

    def fold(self, arr, axis):
        # The slice loop makes one call per index along the axis, accumulate
        # runs one inner loop per position across it: long slices favour
        # the loop. Both add in index order, so the choice moves no bit.
        arr = np.asarray(arr)
        n = arr.shape[axis]
        if n == 0 or arr.size >= 32 * n * n:
            return super().fold(arr, axis)
        return np.array(self._ufunc.accumulate(arr, axis=axis)[(slice(None),) * axis + (-1,)], dtype=self.dtype)

    def max_distance(self, a, b):
        # the same answer as the scalar loop: max is exact, and np.max keeps
        # any nan
        with np.errstate(invalid="ignore"):
            d = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
        return float(d.max()) if d.size else 0.0

    def _normalize_rows(self, rows):
        s = self.fold(rows, 1)
        dead = s == 0.0
        if np.count_nonzero(s) == len(s):
            return rows / s[:, None], dead
        out = rows.copy()
        live = ~dead
        out[live] = rows[live] / s[live, None]
        return out, dead

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

    def compare(self, a, b):
        return int(bool(a)) - int(bool(b))

    def render(self, a):
        return "1" if a else "0"

    def coerce_scalar(self, x):
        if isinstance(x, (bool, np.bool_)):
            return bool(x)
        if x in (0, 1):
            return bool(x)
        raise ValueError(f"bool values must be true/false or 0/1, got {x!r}")

    def coerce(self, values):
        return np.asarray([self.coerce_scalar(x) for x in values], dtype=np.bool_)

    def array_add(self, a, b):
        return np.logical_or(a, b)

    def array_mul(self, a, b):
        return np.logical_and(a, b)

    def fold(self, arr, axis):
        # or gives the same bits in any order
        return np.asarray(np.logical_or.reduce(np.asarray(arr), axis=axis))

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

    def compare(self, a, b):
        # int() first: numpy bools do not support subtraction.
        return int(a > b) - int(a < b)

    def render(self, a):
        return str(a)

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

    def array_add(self, a, b):
        return np.add(a, b)

    def array_mul(self, a, b):
        return np.multiply(a, b)

    def fold(self, arr, axis):
        # int addition is exact in any order
        return np.asarray(np.add.reduce(np.asarray(arr), axis=axis), dtype=object)

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

    def render(self, a):
        return repr(a)

    def coerce_scalar(self, x):
        if isinstance(x, DualNumber):
            v = x
        elif isinstance(x, (list, tuple)) and len(x) == 2:
            v = DualNumber(float(x[0]), float(x[1]))
        elif isinstance(x, (int, float, np.floating, np.integer)):
            v = DualNumber(float(x), 0.0)
        else:
            raise ValueError(f"dual values must be [a, b] pairs or numbers, got {x!r}")
        if not (math.isfinite(v.real) and math.isfinite(v.eps)):
            raise ValueError(f"dual values must be finite, got {x!r}")
        return v

    def _normalize_rows(self, rows):
        # Rescaling by the real mass keeps the derivative information
        # consistent: both components divide by the same real scalar.
        lines = rows.tolist()
        reals = np.array([[d.real for d in line] for line in lines], dtype=np.float64)
        mass = PROB.fold(reals.reshape(rows.shape), 1)
        out = rows.copy()
        for i, s in enumerate(mass.tolist()):
            if s != 0.0:
                out[i] = [DualNumber(d.real / s, d.eps / s) for d in lines[i]]
        return out, mass == 0.0

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


@dataclass
class AxiomReport:
    """Outcome of a randomized semiring-axiom check."""

    semiring: str
    triples: int
    checks: int
    failures: list

    @property
    def ok(self):
        return not self.failures


_AXIOMS = (
    ("add associative", lambda s, a, b, c: (s.add(s.add(a, b), c), s.add(a, s.add(b, c)))),
    ("mul associative", lambda s, a, b, c: (s.mul(s.mul(a, b), c), s.mul(a, s.mul(b, c)))),
    ("add commutative", lambda s, a, b, c: (s.add(a, b), s.add(b, a))),
    ("mul commutative", lambda s, a, b, c: (s.mul(a, b), s.mul(b, a))),
    ("add identity", lambda s, a, b, c: (s.add(a, s.zero), a)),
    ("mul identity", lambda s, a, b, c: (s.mul(a, s.one), a)),
    ("distributive", lambda s, a, b, c: (s.mul(a, s.add(b, c)), s.add(s.mul(a, b), s.mul(a, c)))),
    ("annihilating zero", lambda s, a, b, c: (s.mul(a, s.zero), s.zero)),
)


def check_semiring_axioms(semiring, samples=1000, seed=0, tol=1e-9):
    """Spot-check the semiring laws on random scalar triples.

    Draws ``samples`` triples from the instance's own generator (magnitudes
    kept moderate so float roundoff stays far below ``tol``). Semirings with
    a tiny enumerable domain are checked exhaustively instead whenever
    ``samples`` covers every triple.
    """
    semiring = get_semiring(semiring)
    dom = semiring.enumerable
    if dom is not None and len(dom) ** 3 <= samples:
        triples = list(product(dom, repeat=3))
    else:
        rng = np.random.default_rng(seed)
        triples = [
            (
                semiring.random_scalar(rng),
                semiring.random_scalar(rng),
                semiring.random_scalar(rng),
            )
            for _ in range(samples)
        ]
    failures = []
    checks = 0
    for a, b, c in triples:
        for label, law in _AXIOMS:
            left, right = law(semiring, a, b, c)
            checks += 1
            if not semiring.approx_eq(left, right, tol):
                failures.append(
                    f"{label}: a={semiring.render(a)} b={semiring.render(b)} "
                    f"c={semiring.render(c)} -> {semiring.render(left)} != "
                    f"{semiring.render(right)}"
                )
    return AxiomReport(semiring.name, len(triples), checks, failures)
