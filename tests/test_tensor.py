"""Dense tensors: storage, reshaping, spiders, and contraction kernels."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from spiderbp import (
    PROB,
    BadSplitError,
    ObjectMismatchError,
    ShapeMismatchError,
    TooLargeError,
)
from spiderbp.algebra import BOOL, COUNT, DUAL, DualNumber
from spiderbp.graph import ObjectType
from spiderbp.tensor import (
    DenseTensor,
    Message,
    contract_to_axis,
    fold_axis_sum,
    hadamard,
    matricize,
    spider_tensor,
)


def obj(dim, name="x"):
    return ObjectType(name, dim)


class TestDenseTensor:
    def test_row_major_flat_storage(self):
        t = DenseTensor.from_values((2, 2), [[1.0, 2.0], [3.0, 4.0]], PROB)
        assert t.data.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert t.entry((0, 1)) == 2.0
        assert t.entry((1, 0)) == 3.0

    def test_flat_values_accepted(self):
        t = DenseTensor.from_values((2, 3), [1, 2, 3, 4, 5, 6], COUNT)
        assert t.rank == 2 and t.size == 6
        assert t.entry((1, 2)) == 6

    def test_nested_pairs_are_not_dual_scalars_for_count(self):
        # a [a, b] row only collapses to a scalar under the dual algebra
        t = DenseTensor.from_values((2, 2), [[1, 2], [3, 4]], COUNT)
        assert t.data.tolist() == [1, 2, 3, 4]

    def test_dual_pairs_are_scalars(self):
        t = DenseTensor.from_values((2,), [[1.0, 2.0], [3.0, 4.0]], DUAL)
        assert t.data.tolist() == [DualNumber(1.0, 2.0), DualNumber(3.0, 4.0)]

    def test_a_flat_dual_table_is_a_list_of_scalars(self):
        # the table's own list is never an [a, b] pair, only its items are
        t = DenseTensor.from_values((2,), [1.5, 2.5], DUAL)
        assert t.data.tolist() == [DualNumber(1.5, 0.0), DualNumber(2.5, 0.0)]
        mixed = DenseTensor.from_values((2,), [[1.5, 1.0], 2.5], DUAL)
        assert mixed.data.tolist() == [DualNumber(1.5, 1.0), DualNumber(2.5, 0.0)]

    def test_data_is_read_only(self):
        t = DenseTensor.from_values((2,), [1.0, 2.0], PROB)
        with pytest.raises(ValueError):
            t.data[0] = 9.0

    def test_wrong_count_rejected(self):
        with pytest.raises(ShapeMismatchError):
            DenseTensor.from_values((2, 2), [1.0, 2.0, 3.0], PROB)

    def test_zero_dim_rejected(self):
        with pytest.raises(ShapeMismatchError):
            DenseTensor.from_values((0,), [], PROB)

    def test_rank0_scalar(self):
        t = DenseTensor.from_values((), [7], COUNT)
        assert t.rank == 0 and t.size == 1
        assert t.data[0] == 7

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            DenseTensor((2,) * 25, np.zeros(2))


class TestMessage:
    def test_dim_checked(self):
        with pytest.raises(ShapeMismatchError):
            Message(obj(3), np.array([1.0, 2.0]))

    def test_values_read_only(self):
        m = Message(obj(2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            m.values[0] = 0.0


class TestWrap:
    """``_wrap`` skips the checks and the copy, not the frozen dataclass: a
    wrapped value compares, prints and refuses assignment as a built one."""

    def test_a_wrapped_message_is_a_frozen_message(self):
        built = Message(obj(2), np.array([1.0, 2.0]))
        wrapped = Message._wrap(obj(2), built.values)
        assert vars(wrapped) == {"obj": obj(2), "values": built.values}
        assert wrapped == built and wrapped.values is built.values
        assert wrapped != Message._wrap(obj(2, "y"), built.values)
        assert repr(wrapped) == repr(built)
        with pytest.raises(FrozenInstanceError):
            wrapped.values = built.values
        with pytest.raises(FrozenInstanceError):
            del wrapped.obj

    def test_a_wrapped_tensor_is_a_frozen_tensor(self):
        built = DenseTensor((2, 3), np.arange(6.0))
        wrapped = DenseTensor._wrap((2, 3), built.data)
        assert vars(wrapped) == {"shape": (2, 3), "data": built.data}
        assert wrapped == built and wrapped.data is built.data
        assert wrapped != DenseTensor._wrap((3, 2), built.data)
        assert repr(wrapped) == repr(built)
        with pytest.raises(FrozenInstanceError):
            wrapped.shape = (6,)
        with pytest.raises(FrozenInstanceError):
            del wrapped.data


class TestMatricize:
    def test_grouping(self):
        rng = np.random.default_rng(5)
        arr = rng.uniform(size=(2, 3, 4))
        t = DenseTensor(arr.shape, arr.reshape(-1))
        m = matricize(t, (0, 2), (1,))
        assert m.shape == (8, 3)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    assert m.entry((i * 4 + k, j)) == t.entry((i, j, k))

    def test_full_row_grouping_is_flat_vector(self):
        t = DenseTensor.from_values((2, 2), [1, 2, 3, 4], COUNT)
        m = matricize(t, (0, 1), ())
        assert m.shape == (4, 1)
        assert m.data.tolist() == [1, 2, 3, 4]

    def test_bad_split(self):
        t = DenseTensor.from_values((2, 2), [1, 2, 3, 4], COUNT)
        with pytest.raises(BadSplitError):
            matricize(t, (0,), (0, 1))
        with pytest.raises(BadSplitError):
            matricize(t, (0,), ())


class TestSpiderTensor:
    def test_diagonal_of_ones(self):
        s = spider_tensor(2, 3, PROB)
        arr = s.as_array()
        for idx in np.ndindex(2, 2, 2):
            expected = 1.0 if len(set(idx)) == 1 else 0.0
            assert arr[idx] == expected

    def test_single_leg_is_unit_message(self):
        assert spider_tensor(3, 1, PROB).data.tolist() == [1.0, 1.0, 1.0]

    def test_semiring_dtypes(self):
        assert spider_tensor(2, 2, BOOL).data.dtype == np.bool_
        s = spider_tensor(2, 2, COUNT)
        assert s.data.tolist() == [1, 0, 0, 1]

    def test_needs_a_leg(self):
        with pytest.raises(ShapeMismatchError):
            spider_tensor(2, 0)

    def test_cap_guard(self):
        with pytest.raises(TooLargeError):
            spider_tensor(2, 25)


class TestHadamard:
    def test_pointwise_product(self):
        a = Message(obj(2), np.array([0.5, 0.5]))
        b = Message(obj(2), np.array([0.8, 0.2]))
        out = hadamard(PROB, [a, b])
        assert np.allclose(out.values, [0.4, 0.1])

    def test_single_message_unchanged(self):
        a = Message(obj(3), np.array([1.0, 2.0, 3.0]))
        assert hadamard(PROB, [a]).values.tolist() == [1.0, 2.0, 3.0]

    def test_object_mismatch(self):
        a = Message(obj(2), np.array([1.0, 1.0]))
        b = Message(obj(3, "y"), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ObjectMismatchError):
            hadamard(PROB, [a, b])

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatchError):
            hadamard(PROB, [])

    def test_matches_explicit_spider_contraction(self):
        # multiplying k messages = contracting the (k+1)-leg copy tensor
        rng = np.random.default_rng(11)
        d, k = 3, 3
        msgs = [Message(obj(d), rng.uniform(0.1, 1.0, size=d)) for _ in range(k)]
        fast = hadamard(PROB, msgs)
        spider = spider_tensor(d, k + 1, PROB)
        slow = contract_to_axis(PROB, spider, k, msgs, out_obj=obj(d))
        assert np.allclose(fast.values, slow.values)


class TestFoldAxisSum:
    def test_keep_column_axis(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert fold_axis_sum(PROB, arr, 1).tolist() == [4.0, 6.0]
        assert fold_axis_sum(PROB, arr, 0).tolist() == [3.0, 7.0]

    def test_exact_for_object_ints(self):
        arr = COUNT.coerce([10**20, 1, 2, 3]).reshape(2, 2)
        assert fold_axis_sum(COUNT, arr, 1).tolist() == [10**20 + 2, 4]


class TestContractToAxis:
    def test_masking_message_selects_row(self):
        f = DenseTensor.from_values((2, 2), [[1.0, 2.0], [3.0, 4.0]], PROB)
        picked = contract_to_axis(PROB, f, 1, [Message(obj(2), np.array([1.0, 0.0]))])
        assert picked.values.tolist() == [1.0, 2.0]

    def test_unit_messages_marginalize(self):
        f = DenseTensor.from_values((2, 2), [[1.0, 2.0], [3.0, 4.0]], PROB)
        out = contract_to_axis(PROB, f, 0, [Message(obj(2), np.array([1.0, 1.0]))])
        assert out.values.tolist() == [3.0, 7.0]

    def test_three_axes(self):
        rng = np.random.default_rng(2)
        arr = rng.uniform(size=(2, 3, 2))
        t = DenseTensor(arr.shape, arr.reshape(-1))
        m0 = Message(obj(2, "a"), rng.uniform(size=2))
        m2 = Message(obj(2, "c"), rng.uniform(size=2))
        out = contract_to_axis(PROB, t, 1, [m0, m2])
        expected = np.einsum("ijk,i,k->j", t.as_array(), m0.values, m2.values)
        assert np.allclose(out.values, expected)

    def test_count_stays_exact(self):
        f = DenseTensor.from_values((2, 2), [10**20, 0, 0, 1], COUNT)
        out = contract_to_axis(COUNT, f, 1, [Message(obj(2), COUNT.coerce([1, 1]))])
        assert out.values.tolist() == [10**20, 1]

    def test_message_count_checked(self):
        f = DenseTensor.from_values((2, 2), [1.0] * 4, PROB)
        with pytest.raises(ShapeMismatchError):
            contract_to_axis(PROB, f, 0, [])

    def test_message_length_checked(self):
        f = DenseTensor.from_values((2, 3), [1.0] * 6, PROB)
        with pytest.raises(ShapeMismatchError):
            contract_to_axis(PROB, f, 0, [Message(obj(2), np.ones(2))])

    def test_rank0_rejected(self):
        t = DenseTensor.from_values((), [1.0], PROB)
        with pytest.raises(ShapeMismatchError):
            contract_to_axis(PROB, t, 0, [])

