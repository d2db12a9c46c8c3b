"""Self-check property suites, runnable from tests or the CLI.

Each suite returns a report with a check count and a list of failure
descriptions; a healthy build produces no failures. These intentionally
verify the library against independent computations (numpy tensordot,
explicit reindexing) rather than against the kernels they exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import SEMIRINGS, get_semiring
from .tensor import DenseTensor, matricize, spider_tensor


@dataclass
class CheckReport:
    name: str
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


def check_semiring_axioms(semiring, samples=1000, seed=0):
    """Spot-check the semiring laws on random scalar triples.

    Draws ``samples`` triples from the instance's own generator (magnitudes
    kept moderate so float roundoff stays far below ``approx_eq``'s 1e-9).
    Semirings with a tiny enumerable domain are checked exhaustively
    instead whenever ``samples`` covers every triple.
    """
    semiring = get_semiring(semiring)
    dom = semiring.enumerable
    if dom is not None and len(dom) ** 3 <= samples:
        triples = list(product(dom, repeat=3))
    else:
        rng = np.random.default_rng(seed)
        triples = [tuple(semiring.random_scalar(rng) for _ in range(3)) for _ in range(samples)]
    failures = []
    checks = 0
    for a, b, c in triples:
        for label, law in _AXIOMS:
            left, right = law(semiring, a, b, c)
            checks += 1
            if not semiring.approx_eq(left, right):
                failures.append(
                    f"{label}: a={semiring.render(a)} b={semiring.render(b)} "
                    f"c={semiring.render(c)} -> {semiring.render(left)} != "
                    f"{semiring.render(right)}"
                )
    return CheckReport(f"semiring_axioms[{semiring.name}]", checks, failures)


def check_spider_fusion(max_dim=4, max_arity=4):
    """Fusing two copy tensors along one shared wire yields a copy tensor.

    Exhaustive over dims and arities up to the bounds, over every choice of
    contracted axis on both sides, for merged arity >= 1. The ground truth
    contraction is numpy's tensordot, not this package's kernels. The
    excluded arity-1/arity-1 pair closes into a scalar equal to the
    dimension, which is asserted as well.
    """
    checks = 0
    failures = []
    for d in range(1, max_dim + 1):
        unit = spider_tensor(d, 1).as_array()
        circle = float(np.tensordot(unit, unit, axes=([0], [0])))
        checks += 1
        if circle != float(d):
            failures.append(f"closed pair of units at dim {d}: {circle} != {d}")
        for k1 in range(1, max_arity + 1):
            for k2 in range(1, max_arity + 1):
                if k1 + k2 < 3:
                    continue
                expected = spider_tensor(d, k1 + k2 - 2).as_array()
                s1 = spider_tensor(d, k1).as_array()
                s2 = spider_tensor(d, k2).as_array()
                for a1 in range(k1):
                    for a2 in range(k2):
                        fused = np.tensordot(s1, s2, axes=([a1], [a2]))
                        checks += 1
                        if not np.array_equal(fused, expected):
                            failures.append(
                                f"dim {d}: fusing arity {k1} axis {a1} with "
                                f"arity {k2} axis {a2} is not the arity "
                                f"{k1 + k2 - 2} copy tensor"
                            )
    return CheckReport("spider_fusion", checks, failures)


def random_split(rng, rank):
    """A random ordered (row axes, col axes) partition of ``rank`` axes."""
    perm = [int(x) for x in rng.permutation(rank)]
    cut = int(rng.integers(0, rank + 1))
    return tuple(perm[:cut]), tuple(perm[cut:])


def reshape_via(t, intermediate, final):
    """Reshape to ``final`` = (rows, cols) by way of another grouping.

    The intermediate matrix is reinterpreted as the permuted rank-n tensor
    (same flat data), then regrouped by where the final split's axes landed.
    """
    rows1, cols1 = intermediate
    order = rows1 + cols1
    m1 = matricize(t, rows1, cols1)
    unfolded = DenseTensor(tuple(t.shape[a] for a in order), m1.data)
    rows2, cols2 = final
    return matricize(
        unfolded,
        tuple(order.index(a) for a in rows2),
        tuple(order.index(a) for a in cols2),
    )


def check_reshape_routes(samples=500, seed=0, max_rank=4, max_dim=4):
    """Any two reshape routes to the same final grouping agree entrywise."""
    rng = np.random.default_rng(seed)
    checks = 0
    failures = []
    for case in range(samples):
        rank = int(rng.integers(1, max_rank + 1))
        shape = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(rank))
        t = DenseTensor(shape, rng.uniform(0.0, 1.0, size=int(np.prod(shape))))
        final = random_split(rng, rank)
        intermediate = random_split(rng, rank)
        direct = matricize(t, *final)
        routed = reshape_via(t, intermediate, final)
        checks += 1
        if direct.shape != routed.shape or not np.array_equal(direct.data, routed.data):
            failures.append(
                f"case {case}: shape {shape}, final {final}, via {intermediate}"
            )
    return CheckReport("reshape_routes", checks, failures)


def run_all_checks(samples=1000, seed=0):
    """Every suite: semiring axioms per instance, fusion, reshape routes."""
    reports = [check_semiring_axioms(name, samples=samples, seed=seed) for name in sorted(SEMIRINGS)]
    reports.append(check_spider_fusion())
    reports.append(check_reshape_routes(samples=500, seed=seed))
    return reports
