import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brainformer import tensor as T
from brainformer.tensor import Tensor

from helpers import finite_difference_check, softmax_oracle, top_k_indices


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_expansion(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        w = rng.normal(size=(3, 2))  # fixed weights make the loss scalar

        def loss_fn():
            return T.tsum(T.mul(T.matmul(a, b), w))

        worst, _ = finite_difference_check({"a": a, "b": b}, loss_fn)
        assert worst < 1e-6

    def test_vector_operand_rejected(self):
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_batched_matches_per_slice_products(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(5, 6))
        out = T.matmul(Tensor(a), Tensor(b)).data
        assert out.shape == (2, 3, 4, 6)
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(out[i, j], a[i, j] @ b)

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((2, 3, 4), (2, 4, 5)),          # matching batch axes
        ((2, 3, 2, 4), (4, 3)),          # 2-D weight against a 4-D operand
        ((3, 1, 2, 4), (1, 2, 4, 3)),    # size-1 batch axes on both sides
    ])
    def test_batched_gradient_finite_differences(self, a_shape, b_shape):
        rng = np.random.default_rng(21)
        a = Tensor(rng.normal(size=a_shape), requires_grad=True)
        b = Tensor(rng.normal(size=b_shape), requires_grad=True)
        w = rng.normal(size=(a.data @ b.data).shape)

        def loss_fn():
            return T.tsum(T.mul(T.matmul(a, b), w))

        worst, _ = finite_difference_check({"a": a, "b": b}, loss_fn)
        assert worst < 1e-6


class TestLayout:
    def test_reshape_and_permute_values(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(T.reshape(Tensor(x), (6, 4)).data,
                                      x.reshape(6, 4))
        np.testing.assert_array_equal(T.permute(Tensor(x), (2, 0, 1)).data,
                                      np.transpose(x, (2, 0, 1)))

    def test_reshape_gradient(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = rng.normal(size=(2, 3, 4))
        worst, _ = finite_difference_check(
            {"x": x}, lambda: T.tsum(T.mul(T.reshape(x, (2, 3, 4)), w)))
        assert worst < 1e-6

    def test_permute_gradient(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        w = rng.normal(size=(4, 2, 5, 3))
        worst, _ = finite_difference_check(
            {"x": x}, lambda: T.tsum(T.mul(T.permute(x, (2, 0, 3, 1)), w)))
        assert worst < 1e-6


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, 0.25)

    def test_stabilized_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 1000.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5])
        assert np.all(np.isfinite(out.data))

    def test_matches_scalar_oracle(self):
        out = T.softmax(Tensor([1.0, 2.0, 3.0]), axis=-1)
        np.testing.assert_allclose(out.data, softmax_oracle([1.0, 2.0, 3.0]),
                                   atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, row):
        out = T.softmax(Tensor(row), axis=-1)
        assert abs(out.data.sum() - 1.0) <= 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = rng.normal(size=(3, 5))
        worst, _ = finite_difference_check(
            {"x": x}, lambda: T.tsum(T.mul(T.softmax(x, axis=-1), w)))
        assert worst < 1e-5


class TestLayerNorm:
    def test_constant_vector_zeros(self):
        x = Tensor(np.full((1, 6), 3.7))
        out = T.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_already_normalized(self):
        x = Tensor([[1.0, -1.0]])
        out = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-14)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_empty_dim_error(self):
        with pytest.raises(ValueError):
            T.layer_norm(Tensor(np.ones((2, 0))), Tensor([]), Tensor([]))

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g = Tensor(rng.normal(size=6), requires_grad=True)
        b = Tensor(rng.normal(size=6), requires_grad=True)
        w = rng.normal(size=(4, 6))
        worst, _ = finite_difference_check(
            {"x": x, "g": g, "b": b},
            lambda: T.tsum(T.mul(T.layer_norm(x, g, b), w)))
        assert worst < 1e-5


class TestActivations:
    def test_relu_values(self):
        out = T.relu(Tensor([-1.0, 2.0]))
        assert out.data.tolist() == [0.0, 2.0]

    def test_gelu_against_high_precision(self):
        import mpmath
        mpmath.mp.dps = 50
        x = 1.0
        expected = float(0.5 * x * (1 + mpmath.erf(x / mpmath.sqrt(2))))
        out = T.gelu(Tensor([x]))
        assert abs(out.data[0] - expected) < 1e-14

    def test_gelu_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=8), requires_grad=True)
        worst, _ = finite_difference_check(
            {"x": x}, lambda: T.tsum(T.mul(T.gelu(x), np.arange(1.0, 9.0))))
        assert worst < 1e-6


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = T.cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2])
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_confident_correct(self):
        logits = np.full((2, 5), -50.0)
        logits[0, 3] = 50.0
        logits[1, 1] = 50.0
        loss = T.cross_entropy(Tensor(logits), [3, 1])
        assert loss.item() < 1e-10

    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            T.cross_entropy(Tensor(np.zeros((2, 4))), [0, 4])

    def test_matches_scalar_logsumexp(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 7))
        targets = rng.integers(0, 7, size=5)
        expected = 0.0
        for i in range(5):
            lse = math.log(sum(math.exp(v) for v in logits[i]))
            expected += lse - logits[i, targets[i]]
        expected /= 5
        loss = T.cross_entropy(Tensor(logits), targets)
        assert abs(loss.item() - expected) < 1e-10

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        targets = rng.integers(0, 6, size=4)
        worst, _ = finite_difference_check(
            {"x": x}, lambda: T.cross_entropy(x, targets))
        assert worst < 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.tsum(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_fanout_accumulates_both_branches(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        a = T.mul(x, 3.0)
        b = T.mul(x, 5.0)
        T.tsum(T.add(a, b)).backward()
        np.testing.assert_allclose(x.grad, [8.0, 8.0])

    @staticmethod
    def _fan_in_graph(case, a, b):
        """A graph where one upstream gradient reaches two parents; returns
        the loss and every tensor in the graph."""
        if case == "add_leaves":
            nodes = [T.add(a, b)]
        elif case == "add_self":
            nodes = [T.add(a, a)]
        elif case == "reshape_permute":
            r = T.reshape(a, (2, 6))
            nodes = [r, T.permute(r, (1, 0))]
        else:  # one tensor feeding two ops
            y1, y2 = T.mul(a, b), T.gelu(a)
            nodes = [y1, y2, T.add(y1, y2)]
        top = nodes[-1]
        weighted = T.mul(top, np.linspace(-1.0, 2.0, top.size).reshape(top.shape))
        loss = T.tsum(weighted)
        return loss, [a, b, *nodes, weighted, loss]

    @pytest.mark.parametrize("case", ["add_leaves", "add_self",
                                      "reshape_permute", "fan_out"])
    def test_gradients_own_their_memory(self, case):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        worst, _ = finite_difference_check(
            {"a": a, "b": b}, lambda: self._fan_in_graph(case, a, b)[0])
        assert worst < 1e-7
        loss, tensors = self._fan_in_graph(case, a, b)
        a.zero_grad()
        b.zero_grad()
        loss.backward()
        grads = [t.grad for t in tensors if t.grad is not None]
        assert len(grads) >= 3
        for i, gi in enumerate(grads):
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_gather_scatter_gradients(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        w = rng.normal(size=(5, 3))

        def loss_fn():
            taken = T.take_rows(x, idx)
            back = T.scatter_rows([(taken, idx)], 5)
            return T.tsum(T.mul(back, w))

        worst, _ = finite_difference_check({"x": x}, loss_fn)
        assert worst < 1e-7

        # three pairs whose indices overlap within and across pairs
        vals = {f"v{i}": Tensor(rng.normal(size=(m, 3)), requires_grad=True)
                for i, m in enumerate((4, 2, 3))}
        idxs = [np.array([0, 2, 2, 4]), np.array([2, 0]), np.array([4, 1, 2])]

        def scatter():
            return T.scatter_rows(list(zip(vals.values(), idxs)), 5)

        expected = np.zeros((5, 3))
        for v, i in zip(vals.values(), idxs):
            np.add.at(expected, i, v.data)
        np.testing.assert_array_equal(scatter().data, expected)
        worst, _ = finite_difference_check(vals, lambda: T.tsum(T.mul(scatter(), w)))
        assert worst < 1e-7


class TestTopK:
    """``helpers.top_k_indices``, the oracle of routing's tie rule."""

    def test_basic(self):
        assert top_k_indices([0.1, 0.9, 0.5], 2) == [1, 2]

    def test_tie_break_lowest_index(self):
        assert top_k_indices([0.3, 0.3, 0.3], 2) == [0, 1]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            top_k_indices([1.0, 2.0], 3)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            row = rng.normal(size=10)
            k = int(rng.integers(1, 11))
            got = top_k_indices(row, k)
            expected = sorted(range(10), key=lambda i: (-row[i], i))[:k]
            assert got == expected

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_pure_function(self, row, data):
        k = data.draw(st.integers(1, len(row)))
        assert top_k_indices(row, k) == top_k_indices(row, k)
