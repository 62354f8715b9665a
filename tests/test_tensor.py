import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from brainformer import layers as L
from brainformer import tensor as T
from brainformer.tensor import Tensor

from helpers import (
    finite_difference_check, gelu, layer_norm_reference, softmax_oracle, top_k_indices,
)


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
        for a_shape in ((3,), (2, 4, 3)):  # a vector, and a 3-D operand
            with pytest.raises(ValueError):
                T.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones((3, 2))))


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, 0.25)

    def test_stabilized_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])
        assert np.all(np.isfinite(out.data))

    def test_matches_scalar_oracle(self):
        out = T.softmax(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, softmax_oracle([1.0, 2.0, 3.0]),
                                   atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, row):
        out = T.softmax(Tensor(row))
        assert abs(out.data.sum() - 1.0) <= 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = rng.normal(size=(3, 5))
        worst, _ = finite_difference_check(
            {"x": x}, lambda: T.tsum(T.mul(T.softmax(x), w)))
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

    @pytest.mark.parametrize("shape", [(64, 64), (64, 32), (512, 128)])
    def test_bitwise_equal_to_numpy_mean_and_var(self, shape):
        """The output and all three gradients have the bits of the form
        written with numpy's mean and var (helpers.layer_norm_reference)."""
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        g = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
        b = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
        up = rng.normal(size=shape)
        y = T.layer_norm(x, g, b)
        T.tsum(T.mul(y, up)).backward()
        want = layer_norm_reference(x.data, g.data, b.data, up)
        for got, ref in zip((y.data, x.grad, g.grad, b.grad), want):
            assert got.tobytes() == ref.tobytes()


class TestActivations:
    """The ReLU and GeLU array math of ``tensor._ACTIVATIONS``, which the
    FFN kernel runs; the gradient check runs it as a graph op
    (``helpers.gelu``)."""

    def test_relu_values(self):
        out, _ = T._ACTIVATIONS["relu"][0](np.array([-1.0, 2.0]))
        assert out.tolist() == [0.0, 2.0]

    def test_gelu_against_high_precision(self):
        import mpmath
        mpmath.mp.dps = 50
        x = 1.0
        expected = float(0.5 * x * (1 + mpmath.erf(x / mpmath.sqrt(2))))
        out, _ = T._ACTIVATIONS["gelu"][0](np.array([x]))
        assert abs(out[0] - expected) < 1e-14

    def test_gelu_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=8), requires_grad=True)
        worst, _ = finite_difference_check(
            {"x": x}, lambda: T.tsum(T.mul(gelu(x), np.arange(1.0, 9.0))))
        assert worst < 1e-6


    @pytest.mark.parametrize("scale", [1e-3, 1.0, 40.0])
    def test_gelu_is_the_written_formula_bitwise(self, scale):
        """GeLU's forward and gradient, computed in one buffer each, give
        the bits of 0.5 * (1 + erf(x / sqrt(2))) and g * (phi + x * pdf),
        pdf = exp(-0.5 * x * x) / sqrt(2 pi), as written."""
        rng = np.random.default_rng(16)
        x = rng.normal(size=(16, 33)) * scale
        g = rng.normal(size=x.shape)
        phi = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
        forward, grad = T._ACTIVATIONS["gelu"]
        out, saved = forward(x)
        assert out.tobytes() == (x * phi).tobytes()
        assert grad(g, x, saved).tobytes() == (g * (phi + x * pdf)).tobytes()

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
        else:  # one tensor feeding two ops
            y1, y2 = T.mul(a, b), gelu(a)
            nodes = [y1, y2, T.add(y1, y2)]
        top = nodes[-1]
        weighted = T.mul(top, np.linspace(-1.0, 2.0, top.size).reshape(top.shape))
        loss = T.tsum(weighted)
        return loss, [a, b, *nodes, weighted, loss]

    @pytest.mark.parametrize("case", ["add_leaves", "add_self", "fan_out"])
    def test_gradients_own_their_memory(self, case):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        worst, _ = finite_difference_check(
            {"a": a, "b": b}, lambda: self._fan_in_graph(case, a, b)[0])
        assert worst < 1e-7
        loss, tensors = self._fan_in_graph(case, a, b)
        a.grad = None
        b.grad = None
        loss.backward()
        grads = [t.grad for t in tensors if t.grad is not None]
        assert len(grads) >= 3
        for i, gi in enumerate(grads):
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    @staticmethod
    def _experts(n_experts, activation, rng, d=3):
        cfg = L.MoeConfig(model_dim=d, expert_hidden_dim=4, n_experts=n_experts,
                          gating=L.GATE_TOP2, capacity_factor=1, activation=activation)
        params = L.init_moe_params(cfg, rng)
        del params["wg"]  # the gate scores are given
        return cfg, params

    def test_gather_scatter_gradients(self):
        """The MoE experts node gathers each expert's rows and scatters its
        weighted outputs back: x and the gate scores against central
        differences, with a row an expert takes twice and an idle expert."""
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        gate = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        w = rng.normal(size=(5, 3))
        cfg, params = self._experts(2, "relu", rng)

        def loss_fn():
            back = L.moe_experts(x, cfg, params, [idx[:0], idx], gate)
            return T.tsum(T.mul(back, w))

        worst, _ = finite_difference_check({"x": x, "gate": gate}, loss_fn)
        assert worst < 1e-7
        assert params["expert0.w_in"].grad is None

        # three experts whose rows overlap within and across experts
        cfg, params = self._experts(3, "gelu", rng)
        idxs = [np.array([0, 2, 2, 4]), np.array([2, 0]), np.array([4, 1, 2])]

        def combine():
            return L.moe_experts(x, cfg, params, idxs, gate3)

        gate3 = Tensor(rng.normal(size=(5, 3)))
        expected = np.zeros((5, 3))
        for e, i in enumerate(idxs):
            p = {name: params[f"expert{e}.{name}"].data for name in ("w_in", "w_out")}
            y = gelu(Tensor(x.data[i] @ p["w_in"])).data @ p["w_out"]
            np.add.at(expected, i, y * gate3.data[i, e][:, None])
        np.testing.assert_array_equal(combine().data, expected)
        worst, _ = finite_difference_check(dict(params, x=x), lambda: T.tsum(T.mul(combine(), w)))
        assert worst < 1e-7

    @pytest.mark.parametrize("gate_grad", [True, False])
    def test_experts_node_gradients(self, gate_grad):
        """Expert weights, x and gate scores against central differences,
        gated experts with rows repeated across experts; gate scores that
        do not require gradients get none."""
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        gate = Tensor(rng.normal(size=(6, 3)), requires_grad=gate_grad)
        idxs = [np.array([0, 3, 5]), np.array([3, 1]), np.array([5, 0, 3])]
        w = rng.normal(size=(6, 4))
        cfg, params = self._experts(3, "gated_gelu", rng, d=4)

        def loss_fn():
            out = L.moe_experts(x, cfg, params, idxs, gate)
            return T.tsum(T.mul(out, w))

        checked = dict(params, x=x, gate=gate) if gate_grad else dict(params, x=x)
        worst, name = finite_difference_check(checked, loss_fn)
        assert worst < 1e-6, name
        if not gate_grad:
            assert gate.grad is None


class TestGraphConsumption:
    """``backward`` frees the graph it sweeps: op nodes drop their closures
    and parent links, leaves stay usable, a consumed graph cannot be swept
    again."""

    @staticmethod
    def _graph(x, w):
        h = T.matmul(x, w)
        return h, T.tsum(T.mul(T.softmax(gelu(h)), h))

    def _inputs(self):
        rng = np.random.default_rng(14)
        return (Tensor(rng.normal(size=(4, 5)), requires_grad=True),
                Tensor(rng.normal(size=(5, 3)), requires_grad=True))

    def test_sweep_frees_intermediates_while_loss_is_held(self):
        x, w = self._inputs()
        h, loss = self._graph(x, w)
        activation = weakref.ref(h.data)
        del h
        assert activation() is not None  # the graph holds it until the sweep
        loss.backward()
        assert activation() is None
        assert loss.grad is not None and x.grad is not None and w.grad is not None

    def test_second_backward_raises(self):
        x, w = self._inputs()
        _, loss = self._graph(x, w)
        loss.backward()
        want = x.grad.copy()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, want)

    def test_graph_on_a_consumed_node_raises(self):
        x, w = self._inputs()
        h, loss = self._graph(x, w)
        loss.backward()
        want = {"x": x.grad.copy(), "w": w.grad.copy()}
        again = T.tsum(T.mul(h, T.matmul(x, w)))
        with pytest.raises(RuntimeError, match="consumed"):
            again.backward()
        np.testing.assert_array_equal(x.grad, want["x"])  # nothing touched
        np.testing.assert_array_equal(w.grad, want["w"])

    def test_leaves_feed_several_graphs(self):
        """Graphs built on the same leaves, before and after a sweep, each
        give the finite-difference gradients."""
        x, w = self._inputs()
        fns = [lambda: self._graph(x, w)[1],
               lambda: T.cross_entropy(T.matmul(x, w), np.array([0, 2, 1, 2]))]
        built = [fn() for fn in fns]  # both exist before either sweep
        for graph, fn in zip(built, fns):
            pending = [graph]
            worst, _ = finite_difference_check(
                {"x": x, "w": w}, lambda: pending.pop() if pending else fn())
            assert worst < 1e-7
            assert not pending


class TestLeafCallback:
    """``backward(on_leaf)`` reports each requires_grad leaf exactly once,
    after the last op that consumes it, so its gradient is final."""

    def _leaves(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        c = Tensor(rng.normal(size=(4, 5)))  # an input: never reported
        return x, w, b, c

    @staticmethod
    def _graph(x, w, b, c):
        # x is used twice by one mul and once by an add; w feeds two matmuls
        h = T.add(T.matmul(T.mul(x, x), w), T.matmul(T.add(x, c), w))
        return T.tsum(gelu(T.add(h, b)))

    def test_each_leaf_once_with_its_final_gradient(self):
        leaves = self._leaves()
        reported = []
        self._graph(*leaves).backward(
            lambda leaf: reported.append((leaf, leaf.grad.copy())))
        x, w, b, c = leaves  # each reported once; the input c never
        assert sorted(id(leaf) for leaf, _ in reported) == sorted(map(id, (x, w, b)))
        assert c.grad is None
        plain = tuple(Tensor(t.data, requires_grad=t.requires_grad) for t in leaves)
        self._graph(*plain).backward()
        final = {id(t): p.grad for t, p in zip(leaves, plain)}
        for leaf, grad in reported:  # nothing was added after the report
            assert grad.tobytes() == final[id(leaf)].tobytes()
            assert leaf.grad.tobytes() == grad.tobytes()

    def test_consumed_graph_raises_before_any_report(self):
        leaves = self._leaves()
        loss = self._graph(*leaves)
        loss.backward()
        reported = []
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward(reported.append)
        x, w, _, _ = leaves
        again = T.tsum(T.mul(loss, T.tsum(T.matmul(x, w))))
        with pytest.raises(RuntimeError, match="consumed"):
            again.backward(reported.append)
        assert reported == []


class TestNoGrad:
    @staticmethod
    def _ops(x, w):
        """One pass through most ops and a causal-attention node (two
        segments, trainable weights), ending in a scalar loss."""
        h = T.layer_norm(T.matmul(x, w), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        cfg = L.AttentionConfig(model_dim=3, n_heads=2, head_dim=2)
        h = L.attention_forward(h, cfg, L.init_attention_params(cfg, np.random.default_rng(13)),
                                seq_len=2)
        moe = L.MoeConfig(model_dim=3, expert_hidden_dim=2, n_experts=3, gating=L.GATE_TOP2,
                          capacity_factor=1, activation="gated_gelu")
        rows = T.take_rows(gelu(h), np.array([0, 2, 2, 1]))
        back = L.moe_experts(rows, moe, L.init_moe_params(moe, np.random.default_rng(15)),
                             [np.array([1, 0, 3]), np.array([], dtype=np.int64),
                              np.array([2, 2])], T.softmax(h))
        return T.add(T.tsum(T.mul(back, back)), T.cross_entropy(back, np.array([0, 1, 2, 0])))

    def _inputs(self):
        rng = np.random.default_rng(12)
        return (Tensor(rng.normal(size=(4, 5)), requires_grad=True),
                Tensor(rng.normal(size=(5, 3)), requires_grad=True))

    def test_records_no_graph(self):
        x, w = self._inputs()
        with T.no_grad():
            loss = self._ops(x, w)
        assert loss._parents == () and loss._backward is None
        assert not loss.requires_grad
        assert x.requires_grad and w.requires_grad
        assert x.grad is None and w.grad is None
        want = self._ops(x, w).item()
        assert loss.item() == want

    def test_restored_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside")
        x, w = self._inputs()
        assert self._ops(x, w)._backward is not None

    def test_nested_blocks(self):
        x, w = self._inputs()
        with T.no_grad():
            with T.no_grad():
                pass
            assert self._ops(x, w)._backward is None
        assert self._ops(x, w)._backward is not None

    def test_gradients_work_afterwards(self):
        x, w = self._inputs()
        worst, _ = finite_difference_check({"x": x, "w": w}, lambda: self._ops(x, w))
        want = {"x": x.grad.copy(), "w": w.grad.copy()}
        with T.no_grad():
            self._ops(x, w)
        x.grad = None
        w.grad = None
        self._ops(x, w).backward()
        assert worst < 1e-6
        np.testing.assert_array_equal(x.grad, want["x"])
        np.testing.assert_array_equal(w.grad, want["w"])


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
