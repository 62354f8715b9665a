import json
import math
from pathlib import Path

import numpy as np
import pytest

from brainformer import layers as L
from brainformer import tensor as T
from brainformer.model import (
    BlockSpec, ModelSpec, ConfigError, LanguageModel,
    scale_model_dim, count_params,
    layer_param_counts, layer_flops_per_token, model_flops_per_token,
    step_cost_units, glam_baseline_block, lm_loss,
)
from brainformer.tensor import Tensor
from brainformer.training import (
    TrainConfig, TrainState, save_checkpoint, load_checkpoint,
)

from helpers import finite_difference_check

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tiny_block(**kw):
    base = dict(layers=("attn", "moe", "ffn"), d=8, d_moe=16, d_ffn=16,
                h=2, d_head=4, g="top2", c=2, a="gelu", n_experts=2)
    base.update(kw)
    return BlockSpec(**base)


class TestBlockSpec:
    def test_needs_attention(self):
        with pytest.raises(ConfigError):
            tiny_block(layers=("ffn", "moe"))

    def test_needs_layers(self):
        with pytest.raises(ConfigError):
            tiny_block(layers=())

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            tiny_block(layers=("attn", "conv"))

    @pytest.mark.parametrize("field, value", [
        ("d", 0), ("d_moe", 0), ("d_ffn", 0), ("h", 0), ("n_experts", 0),
        ("d_head", 0), ("c", 0), ("g", "top3"), ("a", "swish"), ("d", 8.5),
        ("c", True), ("h", "2")])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ConfigError):
            tiny_block(**{field: value})

    def test_json_roundtrip(self):
        spec = tiny_block()
        doc = spec.to_json_dict()
        assert doc["schema_version"] == 1
        assert BlockSpec.from_json_dict(json.loads(json.dumps(doc))) == spec

    def test_model_spec_roundtrip(self):
        ms = ModelSpec(block=tiny_block(), n_blocks=2, vocab_size=11,
                       max_seq_len=16)
        doc = ms.to_json_dict()
        assert ModelSpec.from_json_dict(json.loads(json.dumps(doc))) == ms


def one_block_model(spec, seed):
    return LanguageModel(ModelSpec(spec, 1, 2, 1), seed)


class TestCompose:
    def test_single_ffn_block_is_residual_ffn(self):
        spec = tiny_block(layers=("attn", "ffn"))
        owner = one_block_model(spec, seed=0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 8)))
        out, aux = owner.forward_body(x)
        # manual: pre-norm + residual per layer, in order
        p = owner.params
        h0 = T.layer_norm(x, p["layer0.ln.g"], p["layer0.ln.b"])
        y0 = L.attention_forward(h0, spec.layer_config("attn"), p,
                                 prefix="layer0.")
        x1 = T.add(x, y0)
        h1 = T.layer_norm(x1, p["layer1.ln.g"], p["layer1.ln.b"])
        y1 = L.ffn_forward(h1, spec.layer_config("ffn"), p, prefix="layer1.")
        expected = T.add(x1, y1)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)
        assert aux.item() == 0.0

    def test_three_layer_manual_composition(self):
        spec = tiny_block()
        owner = one_block_model(spec, seed=1)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 8)))
        out, aux = owner.forward_body(x)
        p = owner.params
        cur = x
        total_aux = 0.0
        for i, kind in enumerate(spec.layers):
            h = T.layer_norm(cur, p[f"layer{i}.ln.g"], p[f"layer{i}.ln.b"])
            if kind == "attn":
                y = L.attention_forward(h, spec.layer_config(kind), p,
                                        prefix=f"layer{i}.")
            elif kind == "ffn":
                y = L.ffn_forward(h, spec.layer_config(kind), p,
                                  prefix=f"layer{i}.")
            else:
                y, a, _ = L.moe_forward(h, spec.layer_config(kind), p,
                                        prefix=f"layer{i}.")
                total_aux += a.item()
            cur = T.add(cur, y)
        np.testing.assert_allclose(out.data, cur.data, atol=1e-12)
        assert abs(aux.item() - total_aux) < 1e-12


def body(spec, n):
    return ModelSpec(block=spec, n_blocks=n, vocab_size=2, max_seq_len=1).body_layers()


class TestStackScale:
    def test_stack_three_times_eight_layers(self):
        spec = BlockSpec.from_json_dict(json.loads(CONFIGS.joinpath(
            "brainformer1_like.json").read_text()))
        assert len(spec.layers) == 8
        assert len(body(spec, 3)) == 24

    def test_stack_once_is_identity(self):
        spec = tiny_block()
        assert body(spec, 1) == list(spec.layers)

    def test_stack_zero_rejected(self):
        with pytest.raises(ConfigError):
            body(tiny_block(), 0)

    def test_stack_associativity(self):
        spec = tiny_block()
        assert body(spec, 2) + body(spec, 3) == body(spec, 5)

    def test_params_not_shared_across_repetitions(self):
        ms = ModelSpec(block=tiny_block(), n_blocks=2, vocab_size=7,
                       max_seq_len=8)
        m = LanguageModel(ms, seed=0)
        assert not np.array_equal(m.params["layer0.wq"].data,
                                  m.params["layer3.wq"].data)

    def test_scale_example(self):
        spec = tiny_block(d=1024, d_moe=2048, d_ffn=2048, h=16)
        scaled = scale_model_dim(spec, 2)
        assert (scaled.d, scaled.d_moe, scaled.d_ffn) == (2048, 4096, 4096)
        assert (scaled.h, scaled.g, scaled.c, scaled.a, scaled.layers) == \
            (spec.h, spec.g, spec.c, spec.a, spec.layers)

    def test_scale_multiplicative(self):
        spec = tiny_block()
        assert scale_model_dim(scale_model_dim(spec, 2), 2) == \
            scale_model_dim(spec, 4)

    def test_scale_bad_factor(self):
        with pytest.raises(ValueError):
            scale_model_dim(tiny_block(), 3)

    def test_ffn_layer_scales_quadratically(self):
        spec = tiny_block(d=512, d_ffn=2048)
        t1, _ = layer_param_counts(spec, "ffn")
        t2, _ = layer_param_counts(scale_model_dim(spec, 2), "ffn")
        assert abs(t2 / t1 - 4.0) < 0.01


class TestCountParams:
    def test_matches_enumeration_on_random_genomes(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            layers = ["attn"]
            for _ in range(int(rng.integers(1, 4))):
                layers.append(str(rng.choice(["attn", "ffn", "moe"])))
            spec = BlockSpec(
                layers=tuple(layers),
                d=int(rng.choice([4, 8])), d_moe=int(rng.choice([4, 8])),
                d_ffn=int(rng.choice([4, 8])), h=int(rng.integers(1, 3)),
                d_head=int(rng.choice([2, 4])),
                g=str(rng.choice(["top2", "expert_choice"])),
                c=int(rng.integers(1, 5)),
                a=str(rng.choice(["relu", "gelu", "gated_relu", "gated_gelu"])),
                n_experts=int(rng.integers(1, 4)))
            ms = ModelSpec(block=spec, n_blocks=int(rng.integers(1, 3)),
                           vocab_size=7, max_seq_len=6)
            model = LanguageModel(ms, seed=0)
            assert count_params(ms).n_params == sum(p.size for p in model.params.values())

    def test_single_expert_total_equals_activated(self):
        ms = ModelSpec(block=tiny_block(n_experts=1), n_blocks=1,
                       vocab_size=7, max_seq_len=8)
        pc = count_params(ms)
        assert pc.n_params == pc.n_act_params
        assert pc.n_params_no_embed == pc.n_act_params_no_embed

    def test_activated_strictly_less_with_experts(self):
        ms = ModelSpec(block=tiny_block(n_experts=4), n_blocks=1,
                       vocab_size=7, max_seq_len=8)
        pc = count_params(ms)
        assert pc.n_act_params < pc.n_params

    def test_top2_activated_independent_of_expert_count(self):
        a = tiny_block(n_experts=4)
        b = tiny_block(n_experts=8)
        _, act_a = layer_param_counts(a, "moe")
        _, act_b = layer_param_counts(b, "moe")
        # only the gating matrix column count differs
        assert act_b - act_a == a.d * 4

    def test_linear_in_stack_count(self):
        spec = tiny_block()
        one = ModelSpec(block=spec, n_blocks=1, vocab_size=7, max_seq_len=8)
        three = ModelSpec(block=spec, n_blocks=3, vocab_size=7, max_seq_len=8)
        pc1, pc3 = count_params(one), count_params(three)
        body1 = pc1.n_params_no_embed - 2 * spec.d  # minus final norm
        body3 = pc3.n_params_no_embed - 2 * spec.d
        assert body3 == 3 * body1

    def test_glam_reconstruction_reported_against_reference(self):
        ms = ModelSpec(block=glam_baseline_block(a="gated_gelu"), n_blocks=6,
                       vocab_size=256000, max_seq_len=1024)
        pc = count_params(ms)
        # informative comparison, not a pass/fail tolerance: the counting
        # convention for the published 1.9B/145M is unstated
        dev_total = abs(pc.n_params - 1.9e9) / 1.9e9
        dev_act = abs(pc.n_act_params_no_embed - 145e6) / 145e6
        print(f"\nGLaM 0.1B/32E reconstruction: total {pc.n_params:,} "
              f"(dev {dev_total:.1%} vs 1.9B), activated-no-embed "
              f"{pc.n_act_params_no_embed:,} (dev {dev_act:.1%} vs 145M)")
        assert pc.n_act_params_no_embed < pc.n_params_no_embed


class TestLmForward:
    def test_logits_shape(self):
        ms = ModelSpec(block=tiny_block(), n_blocks=1, vocab_size=11,
                       max_seq_len=8)
        m = LanguageModel(ms, seed=0)
        for n in (2, 4, 8):
            logits, _ = m.forward(np.zeros(n, dtype=int))
            assert logits.shape == (n, 11)

    def test_zero_output_projection_uniform(self):
        ms = ModelSpec(block=tiny_block(), n_blocks=1, vocab_size=11,
                       max_seq_len=8)
        m = LanguageModel(ms, seed=0)  # out projection initialized to zero
        tokens = np.arange(5) % 11
        loss, _ = lm_loss(m, tokens, tokens)
        assert abs(loss.item() - (math.log(11) + 0.01 *
                                  m.forward(tokens)[1].item())) < 1e-9

    def test_oversize_sequence_rejected(self):
        ms = ModelSpec(block=tiny_block(), n_blocks=1, vocab_size=11,
                       max_seq_len=4)
        m = LanguageModel(ms, seed=0)
        with pytest.raises(ValueError):
            m.forward(np.zeros(8, dtype=int))

    def test_bad_token_id_rejected(self):
        ms = ModelSpec(block=tiny_block(), n_blocks=1, vocab_size=11,
                       max_seq_len=8)
        m = LanguageModel(ms, seed=0)
        with pytest.raises(ValueError):
            m.forward(np.array([0, 11]))

    def test_deterministic_logits(self):
        ms = ModelSpec(block=tiny_block(), n_blocks=1, vocab_size=11,
                       max_seq_len=8)
        tokens = np.arange(8) % 11
        a = LanguageModel(ms, seed=3).forward(tokens)[0].data
        b = LanguageModel(ms, seed=3).forward(tokens)[0].data
        assert np.array_equal(a, b)

    def test_forward_backward_builds_no_layer_config(self, monkeypatch):
        """A block builds its layer configs once, when it is checked; the
        forward and backward passes reuse them, MoE experts' too."""
        ms = ModelSpec(block=tiny_block(layers=("attn", "ffn", "attn", "moe")),
                       n_blocks=3, vocab_size=11, max_seq_len=8)
        m = LanguageModel(ms, seed=0)
        built = []

        def counting(init):
            def counted(self, *args, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)
            return counted
        for cls in (L.AttentionConfig, L.FfnConfig, L.MoeConfig):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
        tokens = np.arange(8) % 11
        loss, _ = lm_loss(m, tokens, tokens, seq_len=8)
        loss.backward()
        assert built == []

    def test_full_model_gradient(self):
        spec = tiny_block()
        ms = ModelSpec(block=spec, n_blocks=1, vocab_size=11, max_seq_len=5)
        m = LanguageModel(ms, seed=1)
        rng = np.random.default_rng(0)
        toks = rng.integers(0, 11, size=5)
        targ = rng.integers(0, 11, size=5)

        def loss_fn():
            return lm_loss(m, toks, targ, aux_coeff=0.01)[0]

        worst, name = finite_difference_check(m.params, loss_fn, rng=rng,
                                              max_per_tensor=12)
        assert worst < 1e-4, name


class TestFlops:
    def test_ffn_token_step_formula(self):
        spec = tiny_block(a="relu")
        d, dffn = spec.d, spec.d_ffn
        assert layer_flops_per_token(spec, "ffn", 16) == 2 * (d * dffn + dffn * d)

    def test_sequence_length_scaling(self):
        spec = tiny_block()
        f1 = layer_flops_per_token(spec, "ffn", 16)
        f2 = layer_flops_per_token(spec, "ffn", 32)
        assert f1 == f2  # per-token FFN cost has no length term
        a1 = layer_flops_per_token(spec, "attn", 16)
        a2 = layer_flops_per_token(spec, "attn", 32)
        hw = spec.h * spec.d_head
        assert a2 - a1 == 4 * hw * 16  # score+combine term doubles

    def test_matches_independent_enumeration(self):
        spec = tiny_block(a="gated_gelu")
        ms = ModelSpec(block=spec, n_blocks=2, vocab_size=11, max_seq_len=8)
        seq = 8
        # independent enumeration of every projection
        hw = spec.h * spec.d_head
        total = 2 * spec.d * 11  # output projection
        for kind in ms.body_layers():
            if kind == "attn":
                total += 2 * (3 * spec.d * hw + hw * spec.d) + 4 * hw * seq
            elif kind == "ffn":
                total += 2 * (2 * spec.d * spec.d_ffn + spec.d_ffn * spec.d)
            else:
                total += 2 * spec.d * spec.n_experts
                total += 2 * (2 * spec.d * spec.d_moe + spec.d_moe * spec.d) * 2
        assert model_flops_per_token(ms, seq) == total

    def test_step_cost_linear_in_batch(self):
        ms = ModelSpec(block=tiny_block(), n_blocks=1, vocab_size=11,
                       max_seq_len=8)
        assert step_cost_units(ms, 4, 8) == 2 * step_cost_units(ms, 2, 8)
        # forward plus backward: three times the model FLOPs per token
        assert step_cost_units(ms, 2, 8) == 3 * 2 * 8 * model_flops_per_token(ms, 8)


def counted_forward_flops(monkeypatch, model, tokens, seq_len):
    """Two FLOPs per multiply-add of every product in one forward pass,
    counted by wrapping ``tensor._product``, which runs ``tensor.matmul``'s
    products and the attention node's; and the MoE routing decisions."""
    macs, decisions = [], []
    real_product, real_moe = T._product, L.moe_forward

    def product(a, b):
        out = real_product(a, b)
        macs.append(out.size * a.shape[-1])
        return out

    def moe_forward(*args, **kw):
        out = real_moe(*args, **kw)
        decisions.append(out[2])
        return out

    monkeypatch.setattr(T, "_product", product)
    monkeypatch.setattr(L, "moe_forward", moe_forward)
    model.forward(tokens, seq_len=seq_len)
    monkeypatch.undo()
    return 2 * sum(macs), decisions


class TestCountedFlops:
    """The analytic FLOPs behind cost-unit budgets against the FLOPs a
    forward pass performs: equal when no assignment is dropped."""

    n, seq = 32, 8

    def model(self, **kw):
        spec = tiny_block(a="gated_gelu", n_experts=4, **kw)
        ms = ModelSpec(block=spec, n_blocks=2, vocab_size=11, max_seq_len=8)
        return ms, LanguageModel(ms, seed=3)

    def tokens(self):
        return np.random.default_rng(0).integers(0, 11, self.n)

    @pytest.mark.parametrize("g, c", [("expert_choice", 1), ("expert_choice", 2),
                                      ("top2", 8)])
    def test_equal_without_drops(self, monkeypatch, g, c):
        ms, m = self.model(g=g, c=c)
        counted, decisions = counted_forward_flops(monkeypatch, m, self.tokens(),
                                                   self.seq)
        per_token = c if g == "expert_choice" else 2
        assert all(len(dec.tokens) == per_token * self.n for dec in decisions)
        assert counted == model_flops_per_token(ms, self.seq) * self.n

    def test_top2_drops_are_charged(self, monkeypatch):
        """A top-2 genome pays for the assignments its capacity drops."""
        ms, m = self.model(g="top2", c=1)
        counted, decisions = counted_forward_flops(monkeypatch, m, self.tokens(),
                                                   self.seq)
        dropped = sum(2 * self.n - len(dec.tokens) for dec in decisions)
        assert dropped > 0
        spec = ms.block
        expert = 2 * (2 * spec.d * spec.d_moe + spec.d_moe * spec.d)  # gated
        assert counted == model_flops_per_token(ms, self.seq) * self.n - dropped * expert


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        ms = ModelSpec(block=tiny_block(), n_blocks=1, vocab_size=11,
                       max_seq_len=8)
        m = LanguageModel(ms, seed=0)
        state = TrainState.fresh(m, TrainConfig())
        state.step = 42
        state.rng.random(3)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(m, state, path)
        m2 = LanguageModel(ms, seed=99)
        state2 = TrainState.fresh(m2, TrainConfig(seed=5))
        load_checkpoint(m2, state2, path)
        assert state2.step == 42
        assert state2.rng.bit_generator.state == state.rng.bit_generator.state
        for name in m.params:
            assert np.array_equal(m.params[name].data, m2.params[name].data)

    def test_one_npz_file(self, tmp_path):
        ms = ModelSpec(block=tiny_block(), n_blocks=1, vocab_size=11,
                       max_seq_len=8)
        m = LanguageModel(ms, seed=0)
        state = TrainState.fresh(m, TrainConfig())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(m, state, path)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]
        moments = {f"{k}/{n}" for n, kinds in state.optimizer.state.items() for k in kinds}
        with np.load(path) as npz:
            assert set(npz.files) == \
                {"meta"} | {f"param/{n}" for n in m.params} | moments
            meta = json.loads(str(npz["meta"]))
            assert set(meta) == {"step", "rng"}
            assert meta["step"] == 0
            assert meta["rng"] == state.rng.bit_generator.state
