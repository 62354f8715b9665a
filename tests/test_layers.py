import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from brainformer import layers as L
from brainformer import tensor as T
from brainformer import threads
from brainformer.tensor import Tensor

from helpers import (
    finite_difference_check, brute_force_top2, expert_choice_oracle,
    softmax_oracle, attention_oracle, moe_oracle, top_k_indices, experts_graph,
    ffn_graph, gelu,
)


def attn_cfg(d=6, h=2, dh=3):
    return L.AttentionConfig(model_dim=d, n_heads=h, head_dim=dh)


class TestAttention:
    def test_single_token(self):
        cfg = attn_cfg()
        rng = np.random.default_rng(0)
        params = L.init_attention_params(cfg, rng)
        x = Tensor(rng.normal(size=(1, 6)))
        out = L.attention_forward(x, cfg, params)
        # softmax over one position is 1, so output is V then O projection
        expected = x.data @ params["wv"].data @ params["wo"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_causality_bitwise(self):
        cfg = attn_cfg()
        rng = np.random.default_rng(1)
        params = L.init_attention_params(cfg, rng)
        x = rng.normal(size=(8, 6))
        base = L.attention_forward(Tensor(x), cfg, params).data
        for j in [3, 5, 7]:
            pert = x.copy()
            pert[j] += rng.normal(size=6)
            out = L.attention_forward(Tensor(pert), cfg, params).data
            assert np.array_equal(out[:j], base[:j])

    def test_hand_computed_scalar_attention(self):
        # one head, head_dim 1, two tokens: everything is scalar math
        cfg = L.AttentionConfig(model_dim=1, n_heads=1, head_dim=1)
        params = {
            "wq": Tensor([[2.0]]), "wk": Tensor([[0.5]]),
            "wv": Tensor([[3.0]]), "wo": Tensor([[1.5]]),
        }
        x = np.array([[1.0], [2.0]])
        out = L.attention_forward(Tensor(x), cfg, params).data
        q, k, v = 2.0 * x, 0.5 * x, 3.0 * x
        # token 0 sees only itself
        expected0 = v[0, 0] * 1.5
        # token 1: softmax over (q1*k0, q1*k1), scale 1/sqrt(1)=1
        w = softmax_oracle([q[1, 0] * k[0, 0], q[1, 0] * k[1, 0]])
        expected1 = (w[0] * v[0, 0] + w[1] * v[1, 0]) * 1.5
        np.testing.assert_allclose(out[:, 0], [expected0, expected1], atol=1e-12)

    def test_segmented_batches_are_independent(self):
        cfg = attn_cfg()
        rng = np.random.default_rng(2)
        params = L.init_attention_params(cfg, rng)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(4, 6))
        joint = L.attention_forward(Tensor(np.vstack([a, b])), cfg, params,
                                    seq_len=4).data
        solo_a = L.attention_forward(Tensor(a), cfg, params).data
        solo_b = L.attention_forward(Tensor(b), cfg, params).data
        np.testing.assert_array_equal(joint[:4], solo_a)
        np.testing.assert_array_equal(joint[4:], solo_b)

    def test_gradient(self):
        cfg = attn_cfg(d=4, h=2, dh=2)
        rng = np.random.default_rng(3)
        params = L.init_attention_params(cfg, rng)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = rng.normal(size=(3, 4))
        everything = dict(params, x=x)
        worst, _ = finite_difference_check(
            everything,
            lambda: T.tsum(T.mul(L.attention_forward(x, cfg, params), w)))
        assert worst < 1e-4

    def test_gradient_over_segments_and_heads(self):
        """x and all four weights against central differences, over 3
        segments of 4 tokens and 4 heads."""
        cfg = attn_cfg(d=6, h=4, dh=2)
        rng = np.random.default_rng(4)
        params = L.init_attention_params(cfg, rng)
        x = Tensor(rng.normal(size=(12, 6)), requires_grad=True)
        w = rng.normal(size=(12, 6))
        worst, name = finite_difference_check(
            dict(params, x=x),
            lambda: T.tsum(T.mul(L.attention_forward(x, cfg, params, seq_len=4), w)))
        assert worst < 1e-6, name

    def test_frozen_input_gets_no_gradient(self):
        cfg = attn_cfg()
        rng = np.random.default_rng(5)
        params = L.init_attention_params(cfg, rng)
        x = Tensor(rng.normal(size=(8, 6)))
        T.tsum(L.attention_forward(x, cfg, params, seq_len=4)).backward()
        assert x.grad is None
        for p in params.values():
            assert p.grad is not None and p.grad.shape == p.shape
            assert np.any(p.grad != 0)

    @pytest.mark.parametrize("d, n_heads, head_dim, n_seqs, seq_len", [
        (64, 4, 16, 2, 32),    # the proxy search's baseline
        (128, 4, 32, 4, 128),  # the wide training benchmark
    ])
    def test_matches_loop_oracle_at_model_shapes(self, d, n_heads, head_dim, n_seqs,
                                                 seq_len):
        cfg = attn_cfg(d=d, h=n_heads, dh=head_dim)
        rng = np.random.default_rng(d)
        params = L.init_attention_params(cfg, rng)
        x = rng.normal(size=(n_seqs * seq_len, d))
        out = L.attention_forward(Tensor(x), cfg, params, seq_len=seq_len).data
        expected = attention_oracle(x, params, n_heads, head_dim, seq_len=seq_len)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_seqs", [1, 3])
    @pytest.mark.parametrize("n_heads", [1, 4])
    def test_matches_loop_oracle(self, n_seqs, n_heads):
        cfg = attn_cfg(d=8, h=n_heads, dh=3)
        rng = np.random.default_rng(30 + n_seqs + n_heads)
        params = L.init_attention_params(cfg, rng)
        x = rng.normal(size=(5 * n_seqs, 8))
        out = L.attention_forward(Tensor(x), cfg, params, seq_len=5).data
        expected = attention_oracle(x, params, n_heads, 3, seq_len=5)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)

    def test_matches_loop_oracle_single_sequence(self):
        cfg = attn_cfg(d=8, h=4, dh=2)
        rng = np.random.default_rng(36)
        params = L.init_attention_params(cfg, rng)
        x = rng.normal(size=(7, 8))
        out = L.attention_forward(Tensor(x), cfg, params).data
        np.testing.assert_allclose(out, attention_oracle(x, params, 4, 2),
                                   rtol=1e-12, atol=0)


    @pytest.mark.parametrize("length", [1, 2, 7])
    def test_causal_mask_is_shared_and_read_only(self, length):
        mask = L._causal_mask(length)
        want = np.where(np.triu(np.ones((length, length)), k=1) == 1, L.NEG_MASK, 0.0)
        np.testing.assert_array_equal(mask, want)
        assert not mask.flags.writeable
        assert L._causal_mask(length) is mask
        with pytest.raises(ValueError):
            mask[0, 0] = 1.0


class TestFfn:
    def test_zero_weights_zero_output(self):
        cfg = L.FfnConfig(4, 8, "relu")
        params = {"w_in": Tensor(np.zeros((4, 8))), "w_out": Tensor(np.zeros((8, 4)))}
        out = L.ffn_forward(Tensor(np.ones((3, 4))), cfg, params)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_relu_transparent_on_positive_path(self):
        cfg = L.FfnConfig(3, 3, "relu")
        params = {"w_in": Tensor(np.eye(3)), "w_out": Tensor(2.0 * np.eye(3))}
        x = np.abs(np.random.default_rng(4).normal(size=(5, 3)))
        out = L.ffn_forward(Tensor(x), cfg, params)
        np.testing.assert_allclose(out.data, x @ np.eye(3) @ (2 * np.eye(3)))

    @pytest.mark.parametrize("act", L.ACTIVATIONS)
    def test_matches_direct_recomputation(self, act):
        cfg = L.FfnConfig(4, 6, act)
        rng = np.random.default_rng(5)
        params = L.init_ffn_params(cfg, rng)
        x = rng.normal(size=(3, 4))
        out = L.ffn_forward(Tensor(x), cfg, params).data
        u = x @ params["w_in"].data
        if act in L.GATED_ACTIVATIONS:
            v = x @ params["w_gate"].data
            base = np.maximum(u, 0) if act == "gated_relu" else gelu(Tensor(u)).data
            h = base * v
        elif act == "relu":
            h = np.maximum(u, 0)
        else:
            h = gelu(Tensor(u)).data
        np.testing.assert_allclose(out, h @ params["w_out"].data, atol=1e-12)

    @pytest.mark.parametrize("act", L.ACTIVATIONS)
    def test_gradient(self, act):
        cfg = L.FfnConfig(3, 5, act)
        rng = np.random.default_rng(6)
        params = L.init_ffn_params(cfg, rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = rng.normal(size=(2, 3))
        worst, _ = finite_difference_check(
            dict(params, x=x),
            lambda: T.tsum(T.mul(L.ffn_forward(x, cfg, params), w)))
        assert worst < 1e-4


class TestFfnNode:
    """The dense ``ffn_forward``, one node over ``x`` and its weights,
    against the op graph it replaced (``helpers.ffn_graph``), bit for bit."""

    @staticmethod
    def case(act, x_grad):
        cfg = L.FfnConfig(6, 10, act)
        rng = np.random.default_rng(26)
        params = L.init_ffn_params(cfg, rng)
        return cfg, params, Tensor(rng.normal(size=(7, 6)), requires_grad=x_grad), \
            rng.normal(size=(7, 6))

    @pytest.mark.parametrize("act", L.ACTIVATIONS)
    def test_one_graph_node(self, act):
        cfg, params, x, _ = self.case(act, True)
        out = L.ffn_forward(x, cfg, params)
        assert out._backward is not None
        assert list(out._parents) == [x] + [params[k] for k in ("w_in", "w_gate", "w_out")
                                            if k in params]
        assert all(p._backward is None for p in out._parents)

    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("act", L.ACTIVATIONS)
    def test_matches_the_op_graph_bitwise(self, act, x_grad):
        cfg, params, x, w = self.case(act, x_grad)
        tensors = dict(params, x=x)

        def run(ffn):
            for t in tensors.values():
                t.grad = None
            out = ffn(x, cfg, params)
            T.tsum(T.mul(out, w)).backward()
            return out.data, {k: t.grad for k, t in tensors.items()}

        want_out, want = run(ffn_graph)
        got_out, got = run(L.ffn_forward)
        assert got_out.tobytes() == want_out.tobytes()
        assert (got["x"] is None) == (not x_grad)
        for name, grad in want.items():
            if grad is not None:
                assert got[name].tobytes() == grad.tobytes(), name

    @pytest.mark.parametrize("act", L.ACTIVATIONS)
    def test_no_grad_records_nothing(self, act):
        cfg, params, x, _ = self.case(act, True)
        with T.no_grad():
            out = L.ffn_forward(x, cfg, params)
            want = ffn_graph(x, cfg, params)
        assert out._parents == () and out._backward is None
        assert out.data.tobytes() == want.data.tobytes()


class TestGateScores:
    def test_zero_gating_matrix_uniform(self):
        out = L.gate_scores(Tensor(np.random.default_rng(7).normal(size=(3, 5))),
                            Tensor(np.zeros((5, 4))))
        np.testing.assert_allclose(out.data, 0.25)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        out = L.gate_scores(Tensor(rng.normal(size=(10, 6))),
                            Tensor(rng.normal(size=(6, 8))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 3))
        wg = rng.normal(size=(3, 4))
        out = L.gate_scores(Tensor(x), Tensor(wg)).data
        logits = x @ wg
        for i in range(4):
            np.testing.assert_allclose(out[i], softmax_oracle(list(logits[i])),
                                       atol=1e-14)


class TestRouteTop2:
    def test_no_capacity_pressure(self):
        rng = np.random.default_rng(10)
        scores = rng.random((5, 2))
        dec = L.route_top2(scores, capacity=5)
        assert len(dec.assignments) == 10
        assert not dec.dropped_tokens

    def test_contested_expert_greedy_fill(self):
        scores = np.array([
            [0.9, 0.05, 0.03, 0.02],
            [0.8, 0.1, 0.06, 0.04],
            [0.7, 0.2, 0.06, 0.04],
            [0.6, 0.3, 0.06, 0.04],
        ])
        dec = L.route_top2(scores, capacity=1)
        expected, expected_dropped = brute_force_top2(scores, 1)
        assert sorted(dec.assignments) == sorted(expected)
        assert dec.dropped_tokens == expected_dropped
        # token 0 holds expert 0; the rest fall back by index order
        assert (0, 0, 0.9) in dec.assignments

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            e = int(rng.integers(2, 6))
            cap = int(rng.integers(1, n + 1))
            scores = rng.random((n, e))
            dec = L.route_top2(scores, cap)
            expected, expected_dropped = brute_force_top2(scores, cap)
            assert sorted(dec.assignments) == sorted(expected)
            assert dec.dropped_tokens == expected_dropped

    def test_matches_brute_force_in_order_with_ties(self):
        # few distinct score values: most rows hold ties
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            e = int(rng.integers(1, 6))
            cap = int(rng.integers(1, n + 1))
            scores = rng.integers(0, 3, size=(n, e)).astype(float)
            dec = L.route_top2(scores, cap)
            expected, expected_dropped = brute_force_top2(scores, cap)
            assert dec.assignments == expected
            assert dec.dropped_tokens == expected_dropped

    def test_capacity_invariant(self):
        rng = np.random.default_rng(12)
        scores = rng.random((16, 4))
        dec = L.route_top2(scores, capacity=3)
        counts = np.bincount([e for _, e, _ in dec.assignments], minlength=4)
        assert counts.max() <= 3
        per_token = np.bincount([t for t, _, _ in dec.assignments], minlength=16)
        for tok in range(16):
            if tok in dec.dropped_tokens:
                assert per_token[tok] == 0
            else:
                assert 1 <= per_token[tok] <= 2


class TestRouteExpertChoice:
    def test_unit_capacity_four_by_four(self):
        rng = np.random.default_rng(13)
        scores = rng.random((4, 4))
        dec = L.route_expert_choice(scores, capacity=1)
        assert len(dec.assignments) == 4
        experts = [e for _, e, _ in dec.assignments]
        assert sorted(experts) == [0, 1, 2, 3]

    def test_each_expert_picks_argmax(self):
        scores = np.array([
            [0.9, 0.1, 0.1],
            [0.1, 0.8, 0.1],
            [0.1, 0.1, 0.7],
        ])
        dec = L.route_expert_choice(scores, capacity=1)
        assert sorted(dec.assignments) == [
            (0, 0, 0.9), (1, 1, 0.8), (2, 2, 0.7)]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(14)
        scores = rng.random((6, 3))
        dec = L.route_expert_choice(scores, capacity=2)
        assert sorted(dec.assignments) == sorted(expert_choice_oracle(scores, 2))

    def test_matches_sort_oracle_in_order_with_ties(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            e = int(rng.integers(1, 6))
            cap = int(rng.integers(1, n + 1))
            scores = rng.integers(0, 3, size=(n, e)).astype(float)
            dec = L.route_expert_choice(scores, cap)
            expected = expert_choice_oracle(scores, cap)
            assert dec.assignments == expected
            assert dec.dropped_tokens == set(range(n)) - {t for t, _, _ in expected}

    def test_permutation_covariance(self):
        rng = np.random.default_rng(16)
        scores = rng.random((8, 3))  # distinct with probability 1
        perm = rng.permutation(8)
        dec = L.route_expert_choice(scores, 2)
        dec_p = L.route_expert_choice(scores[perm], 2)
        inv = np.argsort(perm)
        remapped = sorted((int(inv[t]), e, w) for t, e, w in dec.assignments)
        assert sorted(dec_p.assignments) == remapped


class TestAuxLoss:
    def test_uniform_scores(self):
        scores = Tensor(np.full((8, 4), 0.25))
        assert abs(L.load_balance_aux_loss(scores).item() - 1.0) < 1e-12

    def test_maximal_imbalance(self):
        scores = np.zeros((6, 4))
        scores[:, 0] = 1.0
        assert abs(L.load_balance_aux_loss(Tensor(scores)).item() - 4.0) < 1e-12

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(8, 4))
        scores = L.gate_scores(Tensor(logits), Tensor(np.eye(4, 4)))
        # scalar recomputation
        data = scores.data
        top1 = [int(np.argmax(data[i])) for i in range(8)]
        expected = 0.0
        for e in range(4):
            frac = sum(1 for t in top1 if t == e) / 8
            expected += frac * data[:, e].mean()
        expected *= 4
        assert abs(L.load_balance_aux_loss(scores).item() - expected) < 1e-12

    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 5)),
                  elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    @settings(max_examples=100, deadline=None)
    def test_top1_ties_match_top_k_indices(self, scores):
        # few distinct values, so most rows hold ties for their maximum
        n, n_experts = scores.shape
        top1 = [top_k_indices(row, 1)[0] for row in scores]
        expected = n_experts * sum(
            top1.count(e) / n * scores[:, e].mean() for e in range(n_experts))
        got = L.load_balance_aux_loss(Tensor(scores)).item()
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_gradient_matches_finite_differences(self):
        """One node whose only parent is ``scores``. Its gradient matches
        central differences at every score whose +-eps move leaves each
        row's top-1 expert as it was: rows 0 and 3 tie for their maximum
        (the lowest index is top-1, and a tied maximum is skipped, since
        moving it moves the top-1 choice), and no token picks expert 3,
        whose column gets a zero gradient."""
        data = np.array([[0.4, 0.4, 0.15, 0.05],
                         [0.1, 0.6, 0.2, 0.1],
                         [0.2, 0.1, 0.5, 0.2],
                         [0.3, 0.1, 0.3, 0.3],
                         [0.7, 0.1, 0.1, 0.1]])
        scores = Tensor(data.copy(), requires_grad=True)
        loss = L.load_balance_aux_loss(scores)
        assert len(loss._parents) == 1 and loss._parents[0] is scores
        loss.backward()
        eps = 1e-6
        checked = set()
        for t, e in np.ndindex(data.shape):
            row = data[t]
            if row[e] == row.max() and np.count_nonzero(row == row.max()) > 1:
                continue
            up, down = data.copy(), data.copy()
            up[t, e] += eps
            down[t, e] -= eps
            fd = (L.load_balance_aux_loss(Tensor(up)).item()
                  - L.load_balance_aux_loss(Tensor(down)).item()) / (2 * eps)
            assert abs(fd - scores.grad[t, e]) < 1e-8, (t, e)
            checked.add((t, e))
        assert len(checked) == data.size - 5  # the 2 + 3 tied maxima
        np.testing.assert_array_equal(scores.grad[:, 3], 0.0)
        np.testing.assert_allclose(scores.grad[0], 4 * np.array([3, 1, 1, 0]) / 25,
                                   rtol=1e-15)


def moe_cfg(**kw):
    base = dict(model_dim=4, expert_hidden_dim=6, n_experts=2,
                gating=L.GATE_TOP2, capacity_factor=2, activation="gelu")
    base.update(kw)
    return L.MoeConfig(**base)


class TestMoeForward:
    def test_single_expert_collapse_to_ffn(self):
        cfg = moe_cfg(n_experts=1, capacity_factor=4)
        rng = np.random.default_rng(18)
        params = L.init_moe_params(cfg, rng)
        x = Tensor(rng.normal(size=(5, 4)))
        out, aux, _ = L.moe_forward(x, cfg, params)
        ffn = L.ffn_forward(x, L.FfnConfig(4, 6, "gelu"), params,
                            prefix="expert0.")
        np.testing.assert_allclose(out.data, ffn.data, atol=1e-10)

    def test_expert_choice_aux_is_zero(self):
        cfg = moe_cfg(gating=L.GATE_EXPERT_CHOICE)
        rng = np.random.default_rng(19)
        params = L.init_moe_params(cfg, rng)
        _, aux, _ = L.moe_forward(Tensor(rng.normal(size=(6, 4))), cfg, params)
        assert aux.item() == 0.0

    def test_two_token_scalar_unroll(self):
        cfg = L.MoeConfig(model_dim=2, expert_hidden_dim=2, n_experts=2,
                          gating=L.GATE_TOP2, capacity_factor=2,
                          activation="relu")
        rng = np.random.default_rng(20)
        params = L.init_moe_params(cfg, rng)
        x = rng.normal(size=(2, 2))
        out, _, _ = L.moe_forward(Tensor(x), cfg, params)
        scores = L.gate_scores(Tensor(x), params["wg"]).data
        expected = np.zeros((2, 2))
        for tok in range(2):
            for exp in range(2):  # capacity 2 >= both choices fit
                w_in = params[f"expert{exp}.w_in"].data
                w_out = params[f"expert{exp}.w_out"].data
                h = np.maximum(x[tok] @ w_in, 0.0)
                expected[tok] += scores[tok, exp] * (h @ w_out)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("gating", L.GATINGS)
    def test_gradients_flow_including_gate(self, gating):
        cfg = moe_cfg(gating=gating, capacity_factor=2)
        rng = np.random.default_rng(21)
        params = L.init_moe_params(cfg, rng)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        w = rng.normal(size=(4, 4))

        def loss_fn():
            out, aux, _ = L.moe_forward(x, cfg, params)
            return T.add(T.tsum(T.mul(out, w)), aux)

        worst, worst_name = finite_difference_check(dict(params, x=x), loss_fn)
        assert worst < 1e-4, worst_name
        assert params["wg"].grad is not None
        assert np.abs(params["wg"].grad).max() > 0

    @pytest.mark.parametrize("gating,activation", [
        (L.GATE_TOP2, "gated_gelu"), (L.GATE_TOP2, "relu"),
        (L.GATE_EXPERT_CHOICE, "gated_relu"), (L.GATE_EXPERT_CHOICE, "gelu")])
    def test_matches_per_expert_scatter_oracle_bitwise(self, gating, activation):
        # one combine node over all experts weights and sums each row in
        # the same order as per-expert weighted placements joined by adds
        cfg = moe_cfg(model_dim=8, expert_hidden_dim=12, n_experts=6,
                      gating=gating, capacity_factor=2, activation=activation)
        rng = np.random.default_rng(22)
        params = L.init_moe_params(cfg, rng)
        x = Tensor(rng.normal(size=(30, 8)), requires_grad=True)
        w = rng.normal(size=(30, 8))
        tensors = dict(params, x=x)

        def run(forward):
            for t in tensors.values():
                t.grad = None
            out, aux = forward(x, cfg, params)[:2]
            T.add(T.tsum(T.mul(out, w)), aux).backward()
            return out.data, aux.data, {k: t.grad for k, t in tensors.items()}

        out, aux, grads = run(L.moe_forward)
        want_out, want_aux, want_grads = run(moe_oracle)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(aux, want_aux)
        for name, want in want_grads.items():
            if want is None:
                assert grads[name] is None, name
            else:
                np.testing.assert_array_equal(grads[name], want, err_msg=name)

    @pytest.mark.parametrize("gating", L.GATINGS)
    def test_routing_groups_route_alone(self, gating):
        """Each routing group gets exactly the decision ``route_*`` makes on
        its own scores with the group's capacity, its token indices offset
        by the group's start; its output rows match the group run alone."""
        cfg = moe_cfg(model_dim=8, expert_hidden_dim=12, n_experts=4,
                      gating=gating, capacity_factor=2, activation="gated_gelu")
        rng = np.random.default_rng(23)
        params = L.init_moe_params(cfg, rng)
        x = Tensor(rng.normal(size=(40, 8)))
        out, _, decision = L.moe_forward(x, cfg, params, group_size=10)
        scores = L.gate_scores(x, params["wg"]).data
        route = L.route_top2 if gating == L.GATE_TOP2 else L.route_expert_choice
        groups = [route(scores[i:i + 10], cfg.capacity(10)) for i in range(0, 40, 10)]
        np.testing.assert_array_equal(
            decision.tokens, np.concatenate([d.tokens + 10 * i for i, d in enumerate(groups)]))
        np.testing.assert_array_equal(decision.experts,
                                      np.concatenate([d.experts for d in groups]))
        np.testing.assert_array_equal(decision.weights,
                                      np.concatenate([d.weights for d in groups]))
        assert decision.n_tokens == 40
        for i in range(0, 40, 10):
            alone, _, _ = L.moe_forward(Tensor(x.data[i:i + 10]), cfg, params)
            np.testing.assert_allclose(out.data[i:i + 10], alone.data, rtol=1e-12, atol=0)

    def test_one_group_is_the_default(self):
        cfg = moe_cfg(n_experts=3)
        rng = np.random.default_rng(24)
        params = L.init_moe_params(cfg, rng)
        x = Tensor(rng.normal(size=(9, 4)))
        default = L.moe_forward(x, cfg, params)
        whole = L.moe_forward(x, cfg, params, group_size=9)
        np.testing.assert_array_equal(default[0].data, whole[0].data)
        assert default[2].assignments == whole[2].assignments
        with pytest.raises(ValueError, match="routing group"):
            L.moe_forward(x, cfg, params, group_size=4)

    def test_capacity_error(self):
        cfg = moe_cfg(n_experts=2, capacity_factor=1)
        with pytest.raises(ValueError):
            cfg.capacity(1)  # floor(1*1/2) = 0

    def test_expert_choice_capacity_at_most_tokens(self):
        cfg = moe_cfg(n_experts=2, capacity_factor=3, gating=L.GATE_EXPERT_CHOICE)
        assert cfg.capacity(1) == 1  # floor(3/2) still fits one token
        with pytest.raises(ValueError, match="c <= n_experts"):
            cfg.capacity(8)  # floor(3*8/2) = 12 > 8
        assert moe_cfg(n_experts=2, capacity_factor=3).capacity(8) == 12  # top-2

    @given(n=st.integers(1, 12), n_experts=st.integers(1, 6),
           c=st.integers(1, 6), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_some_expert_always_takes_a_token(self, n, n_experts, c, seed):
        """With a capacity >= 1 the combine has rows to scatter: top-2 keeps
        token 0's first choice, expert choice fills every expert."""
        scores = np.random.default_rng(seed).random((n, n_experts))
        for gating in L.GATINGS:
            try:
                k = moe_cfg(n_experts=n_experts, capacity_factor=c,
                            gating=gating).capacity(n)
            except ValueError:
                continue
            if gating == L.GATE_TOP2:
                dec = L.route_top2(scores, k)
                assert (0, int(np.argmax(scores[0]))) in \
                    set(zip(dec.tokens.tolist(), dec.experts.tolist()))
            else:
                dec = L.route_expert_choice(scores, k)
                assert np.array_equal(np.bincount(dec.experts, minlength=n_experts),
                                      np.full(n_experts, k))


NODE = L.moe_experts  # the node itself, whatever a test patches into ``layers``


class TestMoeExperts:
    """``moe_experts``, the one node over an MoE layer's experts, against
    the per-expert graph it replaced (``helpers.experts_graph``), bit for
    bit: the output and the gradients of ``x``, ``wg`` and every expert
    weight, with the experts' work on the caller's thread alone and shared
    with the helper thread (``CHUNK_BYTES`` lowered so that the expert
    matrices are big)."""

    @staticmethod
    def case(gating, activation, seed=25):
        """6 experts over 30 tokens whose first feature is 3; under top-2,
        experts 4 and 5 score so low on it that they get no token."""
        cfg = moe_cfg(model_dim=8, expert_hidden_dim=12, n_experts=6, gating=gating,
                      capacity_factor=2, activation=activation)
        rng = np.random.default_rng(seed)
        params = L.init_moe_params(cfg, rng)
        x = rng.normal(size=(30, 8))
        x[:, 0] = 3.0
        if gating == L.GATE_TOP2:
            params["wg"].data[0, 4:] -= 10.0
        return cfg, params, x, rng.normal(size=(30, 8))

    @staticmethod
    def run(monkeypatch, experts, cfg, params, x, w):
        """moe_forward with ``experts`` as its experts node, then backward
        from sum(out * w) + aux: (output, gradients by name, decision)."""
        monkeypatch.setattr(L, "moe_experts", experts)
        tensors = dict(params, x=x)
        for t in tensors.values():
            t.grad = None
        out, aux, decision = L.moe_forward(x, cfg, params)
        T.add(T.tsum(T.mul(out, w)), aux).backward()
        return out.data, {k: t.grad for k, t in tensors.items()}, decision

    @staticmethod
    def assert_same_grads(got, want):
        for name, grad in want.items():
            if grad is None:
                assert got[name] is None, name
            else:
                assert got[name].tobytes() == grad.tobytes(), name

    @pytest.mark.parametrize("share, switch_interval", [(False, None), (True, None),
                                                        (True, 1e-6)])
    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("activation", L.ACTIVATIONS)
    @pytest.mark.parametrize("gating", L.GATINGS)
    def test_matches_the_per_expert_graph_bitwise(self, gating, activation, x_grad, share,
                                                  switch_interval, monkeypatch):
        """Shared also with the interpreter switching threads every
        microsecond."""
        cfg, params, x_data, w = self.case(gating, activation)
        x = Tensor(x_data, requires_grad=x_grad)
        if share:
            monkeypatch.setattr(threads, "CHUNK_BYTES", params["expert0.w_in"].data.nbytes)
        shares = []
        real_share = threads._Helper.share

        def spy(self, fn, items):
            shares.append(len(items))
            return real_share(self, fn, items)
        monkeypatch.setattr(threads._Helper, "share", spy)
        want_out, want, decision = self.run(monkeypatch, experts_graph, cfg, params, x, w)
        assert shares == []
        interval = sys.getswitchinterval()
        try:
            if switch_interval is not None:
                sys.setswitchinterval(switch_interval)
            got_out, got, again = self.run(monkeypatch, NODE, cfg, params, x, w)
        finally:
            sys.setswitchinterval(interval)
        assert again.assignments == decision.assignments
        loads = np.bincount(decision.experts, minlength=cfg.n_experts)
        busy = int((loads > 0).sum())
        assert shares == ([busy, busy] if share else [])  # forward, backward
        if gating == L.GATE_TOP2:
            assert not loads[4:].any()  # idle experts
        assert np.bincount(decision.tokens).max() >= 2  # a token taken twice
        np.testing.assert_array_equal(got_out, want_out)
        assert (got["x"] is None) == (not x_grad)
        self.assert_same_grads(got, want)

    def test_no_graph_no_share(self, monkeypatch):
        """Under ``no_grad`` the node records nothing and works alone, with
        big expert matrices too, and gives the graph's output bitwise."""
        cfg, params, x_data, _ = self.case(L.GATE_TOP2, L.ACT_GATED_GELU)
        monkeypatch.setattr(threads, "CHUNK_BYTES", 1)
        monkeypatch.setattr(threads._Helper, "share", None)  # a call would raise
        x = Tensor(x_data, requires_grad=True)
        with T.no_grad():
            out, _, _ = L.moe_forward(x, cfg, params)
        assert out._backward is None and out._parents == ()
        monkeypatch.setattr(L, "moe_experts", experts_graph)
        with T.no_grad():
            want, _, _ = L.moe_forward(x, cfg, params)
        np.testing.assert_array_equal(out.data, want.data)

    @pytest.mark.parametrize("activation", L.ACTIVATIONS)
    def test_the_oracles_run_no_ffn_kernel(self, activation, monkeypatch):
        """``experts_graph`` and ``moe_oracle`` build each expert's FFN from
        ``helpers.ffn_graph``, so neither runs the kernel it checks."""
        cfg, params, x_data, w = self.case(L.GATE_TOP2, activation)
        x = Tensor(x_data, requires_grad=True)

        def refuse(*args, **kwargs):
            raise AssertionError("an oracle ran the FFN kernel")
        for name in ("_ffn", "ffn_forward"):
            monkeypatch.setattr(L, name, refuse)
        self.run(monkeypatch, experts_graph, cfg, params, x, w)
        out, aux = moe_oracle(x, cfg, params)
        T.add(T.tsum(T.mul(out, w)), aux).backward()
        assert params["expert0.w_in"].grad is not None

    def test_on_the_helper_the_node_runs_alone(self, monkeypatch):
        """A node that records a graph on the helper thread itself (as a
        job of the helper's) runs every expert there, forward and backward,
        and gives what it gives on the caller's thread, bitwise."""
        cfg, params, x_data, w = self.case(L.GATE_TOP2, L.ACT_GATED_GELU)
        monkeypatch.setattr(threads, "CHUNK_BYTES", 1)
        x = Tensor(x_data, requires_grad=True)
        want_out, want, _ = self.run(monkeypatch, NODE, cfg, params, x, w)
        ran_on = set()
        real_product = T._product

        def product(a, b):
            ran_on.add(threading.current_thread())
            return real_product(a, b)
        monkeypatch.setattr(T, "_product", product)
        helper, got, done = threads.helper(), [], threading.Event()

        def job():
            got.append(self.run(monkeypatch, NODE, cfg, params, x, w))
            done.set()
        helper.submit((job,))
        assert done.wait(60) and helper.take_over() is None
        assert ran_on == {helper.thread}
        np.testing.assert_array_equal(got[0][0], want_out)
        self.assert_same_grads(got[0][1], want)

    @pytest.mark.parametrize("where", ["forward", "backward"])
    def test_an_error_on_the_helper_raises_on_the_caller(self, where, monkeypatch):
        """An expert's forward or backward raising on the helper thread
        (the caller's first expert waits until the helper has taken one)
        raises from the node on the caller's thread. The helper is then
        idle with no error kept, and the node works again."""
        cfg, params, x_data, w = self.case(L.GATE_EXPERT_CHOICE, L.ACT_GATED_RELU)
        monkeypatch.setattr(threads, "CHUNK_BYTES", 1)
        x = Tensor(x_data, requires_grad=True)
        want_out, want, _ = self.run(monkeypatch, NODE, cfg, params, x, w)
        helper = threads.helper()
        failed = threading.Event()
        real_act = T._ACTIVATIONS["relu"]

        def on_helper_raise(fn):
            def wrapped(*args):
                if threading.current_thread() is helper.thread:
                    failed.set()
                    raise RuntimeError(f"{where} failed on the helper")
                assert failed.wait(60)
                return fn(*args)
            return wrapped
        act = ((on_helper_raise(real_act[0]), real_act[1]) if where == "forward"
               else (real_act[0], on_helper_raise(real_act[1])))
        monkeypatch.setitem(T._ACTIVATIONS, "relu", act)
        with pytest.raises(RuntimeError, match=f"{where} failed on the helper"):
            self.run(monkeypatch, NODE, cfg, params, x, w)
        assert not helper.jobs and not helper.lock.locked() and helper.error is None
        assert T._grad_enabled is True
        monkeypatch.setitem(T._ACTIVATIONS, "relu", real_act)
        got_out, got, _ = self.run(monkeypatch, NODE, cfg, params, x, w)
        np.testing.assert_array_equal(got_out, want_out)
        self.assert_same_grads(got, want)
