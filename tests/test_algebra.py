"""Semiring instances: laws, coercion, normalization, serialization."""

import numpy as np
import pytest

from spiderbp import PROB, SEMIRINGS, ZeroMessageError
from spiderbp.algebra import (
    BOOL,
    COUNT,
    DUAL,
    MAXTIMES,
    DualNumber,
    get_semiring,
)
from spiderbp.checks import check_semiring_axioms

ALL_NAMES = ("prob", "maxtimes", "bool", "count", "dual")


class TestRegistry:
    def test_names(self):
        assert tuple(SEMIRINGS) == ALL_NAMES

    def test_lookup_by_name(self):
        assert get_semiring("prob") is PROB
        assert get_semiring("maxtimes") is MAXTIMES
        assert get_semiring("bool") is BOOL
        assert get_semiring("count") is COUNT
        assert get_semiring("dual") is DUAL

    def test_instance_passthrough(self):
        assert get_semiring(PROB) is PROB

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown semiring"):
            get_semiring("tropical")

    def test_capabilities(self):
        assert PROB.has_normalize and PROB.has_compare
        assert MAXTIMES.has_normalize and MAXTIMES.has_compare
        assert not BOOL.has_normalize and BOOL.has_compare
        assert not COUNT.has_normalize and COUNT.has_compare
        assert DUAL.has_normalize and not DUAL.has_compare
        assert BOOL.exact and COUNT.exact
        assert not (PROB.exact or MAXTIMES.exact or DUAL.exact)


class TestDualNumber:
    def test_multiplication_carries_derivative(self):
        # (1 + 2e)(3 + 4e) = 3 + (1*4 + 2*3)e
        p = DualNumber(1.0, 2.0) * DualNumber(3.0, 4.0)
        assert p == DualNumber(3.0, 10.0)

    def test_addition_componentwise(self):
        s = DualNumber(1.0, 2.0) + DualNumber(3.0, 4.0)
        assert s == DualNumber(4.0, 6.0)

    def test_eps_squared_vanishes(self):
        eps = DualNumber(0.0, 1.0)
        assert eps * eps == DualNumber(0.0, 0.0)

    def test_repr(self):
        assert "ε" in repr(DualNumber(1.0, 2.0))


class TestScalarOps:
    def test_prob(self):
        assert PROB.add(2.0, 3.0) == 5.0
        assert PROB.mul(2.0, 3.0) == 6.0
        assert PROB.zero == 0.0 and PROB.one == 1.0

    def test_maxtimes(self):
        assert MAXTIMES.add(2.0, 3.0) == 3.0
        assert MAXTIMES.mul(2.0, 3.0) == 6.0
        assert MAXTIMES.zero == 0.0 and MAXTIMES.one == 1.0

    def test_bool(self):
        assert BOOL.add(False, True) is True
        assert BOOL.mul(False, True) is False
        assert BOOL.zero is False and BOOL.one is True

    def test_count_is_arbitrary_precision(self):
        big = 10**30
        assert COUNT.mul(big, big) == 10**60
        assert COUNT.add(big, 1) == big + 1

    def test_dual(self):
        a, b = DualNumber(2.0, 1.0), DualNumber(3.0, 0.5)
        assert DUAL.mul(a, b) == DualNumber(6.0, 4.0)
        assert DUAL.add(a, b) == DualNumber(5.0, 1.5)


class TestDistance:
    def test_prob_absolute(self):
        assert PROB.distance(1.0, 3.5) == 2.5

    def test_exact_semirings_are_indicators(self):
        assert BOOL.distance(True, True) == 0.0
        assert BOOL.distance(True, False) == 1.0
        assert COUNT.distance(7, 7) == 0.0
        assert COUNT.distance(7, 8) == 1.0

    def test_dual_max_component(self):
        d = DUAL.distance(DualNumber(1.0, 5.0), DualNumber(2.0, 5.5))
        assert d == 1.0

    def test_max_distance_over_arrays(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.5, 3.1])
        assert PROB.max_distance(a, b) == 0.5

    def test_an_inf_minus_inf_gap_is_nan_without_a_warning(self):
        # overflowed messages: the suite turns a RuntimeWarning into an error
        inf = np.inf
        for semiring in (PROB, MAXTIMES):
            assert np.isnan(semiring.max_distance(np.array([[inf, 1.0]]), np.array([[inf, 0.5]])))
            assert semiring.max_distance(np.array([[inf, 1.0]]), np.array([[2.0, 0.5]])) == inf
            assert semiring.max_distance(np.empty((2, 0)), np.empty((2, 0))) == 0.0


class TestCoercion:
    def test_prob_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PROB.coerce([1.0, -0.5])

    def test_prob_rejects_nan(self):
        with pytest.raises(ValueError):
            PROB.coerce([float("nan")])

    @pytest.mark.parametrize("semiring", [PROB, MAXTIMES])
    def test_real_semirings_reject_non_finite(self, semiring):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="finite nonnegative"):
                semiring.coerce([bad, 1.0])
            with pytest.raises(ValueError, match="finite nonnegative"):
                semiring.coerce_scalar(bad)

    def test_dual_rejects_non_finite(self):
        inf, nan = float("inf"), float("nan")
        for bad in ([nan, 1.0], [1.0, inf], inf, DualNumber(1.0, nan)):
            with pytest.raises(ValueError, match="finite"):
                DUAL.coerce([bad])

    def test_count_accepts_integer_valued_floats(self):
        out = COUNT.coerce([1, 2.0, True])
        assert out.tolist() == [1, 2, 1]
        assert all(type(x) is int for x in out.tolist())

    def test_count_rejects_fraction_and_negative(self):
        with pytest.raises(ValueError):
            COUNT.coerce([0.5])
        with pytest.raises(ValueError):
            COUNT.coerce([-1])

    def test_bool_accepts_01(self):
        out = BOOL.coerce([0, 1, True, False])
        assert out.dtype == np.bool_
        assert out.tolist() == [False, True, True, False]

    def test_bool_rejects_other_numbers(self):
        with pytest.raises(ValueError):
            BOOL.coerce([2])

    def test_dual_accepts_pairs_and_scalars(self):
        out = DUAL.coerce([[1.0, 2.0], 3, DualNumber(4.0, 5.0)])
        assert out.tolist() == [
            DualNumber(1.0, 2.0),
            DualNumber(3.0, 0.0),
            DualNumber(4.0, 5.0),
        ]

    def test_dual_rejects_triples(self):
        with pytest.raises(ValueError):
            DUAL.coerce([[1.0, 2.0, 3.0]])


class TestArrayOps:
    def test_prob_uses_float_kernels(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        assert PROB.array_add(a, b).tolist() == [4.0, 6.0]
        assert PROB.array_mul(a, b).tolist() == [3.0, 8.0]
        assert MAXTIMES.array_add(a, b).tolist() == [3.0, 4.0]

    def test_bool_kernels(self):
        a = np.array([True, False])
        b = np.array([False, False])
        assert BOOL.array_add(a, b).tolist() == [True, False]
        assert BOOL.array_mul(a, b).tolist() == [False, False]

    def test_object_arrays_stay_exact(self):
        a = COUNT.coerce([10**20, 2])
        b = COUNT.coerce([10**20, 3])
        assert COUNT.array_mul(a, b).tolist() == [10**40, 6]

    def test_dual_elementwise(self):
        a = DUAL.coerce([[1.0, 1.0]])
        b = DUAL.coerce([[2.0, 0.0]])
        assert DUAL.array_mul(a, b).tolist() == [DualNumber(2.0, 2.0)]
        rng = np.random.default_rng(41)

        def duals(shape):
            out = np.empty(shape, dtype=object)
            out.reshape(-1)[:] = [DUAL.random_scalar(rng) for _ in range(out.size)]
            return out

        pairs = [(duals((3,)), duals((3,))), (duals((4, 3)), duals((3,))), (duals((2, 1)), duals((1, 5)))]
        pairs += [(duals((3,)), DUAL.random_scalar(rng)), (duals(()), duals(()))]
        for x, y in pairs:
            for array_op, op in ((DUAL.array_add, DUAL.add), (DUAL.array_mul, DUAL.mul)):
                got = np.asarray(array_op(x, y), dtype=object)
                xs, ys = np.broadcast_arrays(np.asarray(x, dtype=object), np.asarray(y, dtype=object))
                want = [op(p, q) for p, q in zip(xs.ravel().tolist(), ys.ravel().tolist())]
                assert got.shape == xs.shape
                assert [repr(z) for z in got.ravel().tolist()] == [repr(z) for z in want]

    def test_fold_add_is_left_to_right(self):
        xs = np.array([0.1, 0.2, 0.3, 0.4])
        acc = xs[0]
        for x in xs.tolist()[1:]:
            acc = acc + x
        assert PROB.fold(xs, 0) == acc

    def test_zeros_ones(self):
        assert COUNT.ones((2,)).tolist() == [1, 1]
        assert DUAL.zeros((2,)).tolist() == [DualNumber(0.0, 0.0)] * 2
        assert BOOL.ones((3,)).tolist() == [True, True, True]


def literal_fold(semiring, arr, axis):
    """The fold contract spelled out, one scalar ``add`` at a time."""
    moved = np.moveaxis(arr, axis, -1)
    lines = moved.reshape(int(np.prod(moved.shape[:-1])), moved.shape[-1]).tolist()
    out = []
    for line in lines:
        acc = semiring.zero if not line else line[0]
        for x in line[1:]:
            acc = semiring.add(acc, x)
        out.append(acc)
    return out


def random_entries(rng, name, shape):
    if name == "prob":
        # magnitudes far apart, so a different grouping changes the bits
        return rng.random(shape) * 10.0 ** rng.integers(-8, 9, shape)
    if name == "maxtimes":
        return rng.integers(0, 5, shape) * rng.random(shape)
    if name == "bool":
        return rng.random(shape) < 0.2
    out = np.empty(shape, dtype=object)
    if name == "count":
        out.ravel()[:] = [int(x) * 10**30 + int(y) for x, y in zip(rng.integers(0, 3, out.size), rng.integers(0, 9, out.size))]
    else:
        reals = rng.random(out.size) * 10.0 ** rng.integers(-8, 9, out.size)
        eps = rng.standard_normal(out.size) * 10.0 ** rng.integers(-8, 9, out.size)
        out.ravel()[:] = [DualNumber(a, b) for a, b in zip(reals.tolist(), eps.tolist())]
    return out


FOLD_SHAPES = [(7,), (1,), (4, 6), (1, 9), (9, 1), (70, 2), (2, 70), (3, 4, 5), (40, 3, 2), (2, 1, 33)]


class TestFoldContract:
    """``Semiring.fold`` is the ascending left fold of ``add``, bit for bit."""

    def assert_contract(self, semiring, arr, axis):
        got = semiring.fold(arr, axis)
        want = literal_fold(semiring, arr, axis)
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.dtype(semiring.dtype)
        assert got.shape == arr.shape[:axis] + arr.shape[axis + 1 :]
        flat = got.reshape(-1).tolist()
        assert [(type(x), repr(x)) for x in flat] == [(type(x), repr(x)) for x in want]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_axis_of_random_arrays(self, name):
        rng = np.random.default_rng(11)
        semiring = get_semiring(name)
        for shape in FOLD_SHAPES:
            arr = random_entries(rng, name, shape)
            for axis in range(arr.ndim):
                self.assert_contract(semiring, arr, axis)
                # a transposed, non-contiguous view of the same entries
                self.assert_contract(semiring, arr.T, arr.ndim - 1 - axis)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_empty_axis_gives_the_zero(self, name):
        semiring = get_semiring(name)
        arr = semiring.zeros((3, 0, 2))
        got = semiring.fold(arr, 1)
        assert got.shape == (3, 2)
        assert got.tolist() == [[semiring.zero] * 2] * 3
        assert semiring.fold(semiring.zeros((0,)), 0).item() == semiring.zero

    def test_maxtimes_nan_wins_in_scalar_and_array_sums(self):
        arr = np.array([[np.nan, 1.0, 2.0], [1.0, np.nan, 0.5], [3.0, 1.0, np.nan], [1.0, 2.0, 0.5]])
        for axis in (0, 1):
            self.assert_contract(MAXTIMES, arr, axis)
        assert np.isnan(MAXTIMES.fold(arr, 1)).tolist() == [True, True, True, False]

    def test_prob_order_is_visible(self):
        # the data above is only a test of order if other orders differ
        rng = np.random.default_rng(11)
        arr = random_entries(rng, "prob", (300, 40))
        assert not np.array_equal(PROB.fold(arr, 1), np.add.reduce(arr, axis=1))

    @pytest.mark.parametrize("name", ["prob", "maxtimes", "dual"])
    def test_normalize_is_the_one_row_case(self, name):
        rng = np.random.default_rng(5)
        semiring = get_semiring(name)
        for dim in (1, 2, 3, 7):
            rows = random_entries(rng, "dual" if name == "dual" else "prob", (100, dim))
            rows[0] = semiring.zeros((dim,))  # one dead row
            # the engine's (dim, wires) layout: one message per column, rescaled in place
            scaled = rows.T.copy()
            dead = semiring._normalize_columns(scaled)
            assert dead.tolist() == [True] + [False] * 99
            assert [repr(x) for x in scaled[:, 0].tolist()] == [repr(x) for x in rows[0].tolist()]
            for i in range(1, len(rows)):
                one = semiring.normalize(rows[i])
                assert [repr(x) for x in one.tolist()] == [repr(x) for x in scaled[:, i].tolist()]
            with pytest.raises(ZeroMessageError):
                semiring.normalize(rows[0])

    @pytest.mark.parametrize(
        "name, kind", [("prob", float), ("maxtimes", float), ("count", int), ("bool", bool), ("dual", DualNumber)]
    )
    def test_closed_values_are_python_scalars(self, name, kind):
        from spiderbp import RunConfig, contraction_value, dual_seed, exact_contraction, run_junction_tree

        from fixtures import random_tree

        rng = np.random.default_rng(23)
        g = random_tree(rng, "prob" if name == "dual" else name, max_vars=6)
        if name == "dual":
            g = dual_seed(g, 0, 0)
        values = [
            contraction_value(g),
            exact_contraction(g, name),
            run_junction_tree(g, RunConfig(semiring=name)).contraction_value,
        ]
        assert [type(z) for z in values] == [kind] * 3

    @pytest.mark.parametrize(
        "name, kind", [("prob", float), ("maxtimes", float), ("count", int), ("bool", bool), ("dual", DualNumber)]
    )
    @pytest.mark.parametrize("variables", [0, 4])
    def test_closed_values_with_a_rank0_factor_are_python_scalars(self, name, kind, variables):
        # a rank-0 factor is a component of its own, closed at its one entry
        from spiderbp import RunConfig, build_graph, contraction_value, dual_seed, exact_contraction, run_junction_tree

        from fixtures import random_tree, table_for

        rng = np.random.default_rng(29)
        base = "prob" if name == "dual" else name
        factors = [((), table_for(rng, base, 1))]
        dims = []
        if variables:
            tree = random_tree(rng, base, max_vars=variables)
            dims = [v.obj.dim for v in tree.variables]
            factors += [(f.neighbors, f.tensor.data.tolist()) for f in sorted(tree.factors, key=lambda f: f.id)]
        g = build_graph(dims, factors, get_semiring(base))
        if name == "dual":
            g = dual_seed(g, 0, 0)
        values = [
            contraction_value(g),
            exact_contraction(g, name),
            run_junction_tree(g, RunConfig(semiring=name)).contraction_value,
        ]
        assert [type(z) for z in values] == [kind] * 3


class TestNormalize:
    def test_prob_normalizes_to_unit_sum(self):
        out = get_semiring("prob").normalize([0.2, 0.3, 0.5])
        assert np.allclose(out, [0.2, 0.3, 0.5])
        out = get_semiring("prob").normalize([1.0, 3.0])
        assert np.allclose(out, [0.25, 0.75])

    def test_maxtimes_normalizes_to_unit_max(self):
        out = get_semiring("maxtimes").normalize([0.2, 0.8])
        assert np.allclose(out, [0.25, 1.0])

    def test_dual_follows_the_quotient_rule(self):
        # (a + b eps)/(s + sigma eps): s = 4, sigma = 1, eps = (b s - a sigma)/s^2
        values = DUAL.coerce([DualNumber(1.0, 1.0), DualNumber(3.0, 0.0)])
        out = get_semiring("dual").normalize(values)
        assert out.tolist() == [DualNumber(0.25, 0.1875), DualNumber(0.75, -0.1875)]

    def test_zero_vector_raises_with_payload(self):
        for name in ("prob", "maxtimes"):
            with pytest.raises(ZeroMessageError) as exc:
                get_semiring(name).normalize([0.0, 0.0])
            assert list(exc.value.values) == [0.0, 0.0]


class TestRender:
    def test_bool_renders_01(self):
        assert BOOL.render(True) == "1"
        assert BOOL.render(False) == "0"

    def test_count_renders_decimal(self):
        assert COUNT.render(10**21) == str(10**21)


class TestJSONValues:
    def test_dual_encodes_as_pair(self):
        assert DUAL.value_to_json(DualNumber(1.0, 2.0)) == [1.0, 2.0]


class TestAxioms:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_laws_hold(self, name):
        report = check_semiring_axioms(name, samples=300, seed=7)
        assert report.ok, report.failures[:3]

    def test_bool_is_exhaustive(self):
        report = check_semiring_axioms("bool", samples=300, seed=7)
        assert report.checks == 64  # 8 triples x 8 laws

    def test_broken_algebra_is_caught(self):
        class Broken(type(PROB)):
            name = "broken"

            def add(self, a, b):
                return a + b + 1e-3

        report = check_semiring_axioms(Broken(), samples=50, seed=0)
        assert not report.ok
