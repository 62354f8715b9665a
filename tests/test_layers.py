import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from brainformer import layers as L
from brainformer import tensor as T
from brainformer.tensor import Tensor

from helpers import (
    finite_difference_check, brute_force_top2, expert_choice_oracle,
    softmax_oracle, attention_oracle, moe_oracle, top_k_indices,
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
            base = np.maximum(u, 0) if act == "gated_relu" else T.gelu(Tensor(u)).data
            h = base * v
        elif act == "relu":
            h = np.maximum(u, 0)
        else:
            h = T.gelu(Tensor(u)).data
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
        # one N-ary scatter over all experts sums each row in the same
        # order as per-expert scatters joined by adds
        cfg = moe_cfg(model_dim=8, expert_hidden_dim=12, n_experts=6,
                      gating=gating, capacity_factor=2, activation=activation)
        rng = np.random.default_rng(22)
        params = L.init_moe_params(cfg, rng)
        x = Tensor(rng.normal(size=(30, 8)), requires_grad=True)
        w = rng.normal(size=(30, 8))
        tensors = dict(params, x=x)

        def run(forward):
            for t in tensors.values():
                t.zero_grad()
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
