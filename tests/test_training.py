import copy
import gc
import io
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brainformer.model import (
    BlockSpec, ModelSpec, ConfigError, LanguageModel, lm_loss,
)
from brainformer.search import proxy_model_spec
from brainformer.training import (
    BYTE_VOCAB, CHUNK_BYTES, TrainConfig, TrainingError, Adafactor, ByteCorpus,
    TrainState, lr_at, train_steps, evaluate_perplexity, measure_step_time,
    save_checkpoint, load_checkpoint, cut_trajectory, read_log,
)
from brainformer.tensor import Tensor

from helpers import adafactor_oracle, adafactor_reference, perplexity_oracle


def tiny_model(vocab=BYTE_VOCAB, seq=32, n_experts=2, g="top2"):
    spec = BlockSpec(layers=("attn", "moe"), d=8, d_moe=16, d_ffn=16,
                     h=2, d_head=4, g=g, c=2, a="relu", n_experts=n_experts)
    return LanguageModel(ModelSpec(block=spec, n_blocks=1, vocab_size=vocab,
                                   max_seq_len=seq), seed=0)


def fresh(model, cfg):
    return TrainState.fresh(model, cfg)


def losses(result):
    return [r["loss"] for r in result.records]


def tiny_corpus(n=512, valid_fraction=0.1):
    rng = np.random.default_rng(0)
    return ByteCorpus(bytes(rng.integers(0, 256, size=n, dtype=np.uint8)),
                      valid_fraction=valid_fraction)


class TestSchedule:
    def test_constant_through_warmup(self):
        cfg = TrainConfig(base_lr=0.01, warmup_constant_steps=100)
        assert lr_at(1, cfg) == 0.01
        assert lr_at(100, cfg) == 0.01

    def test_inverse_sqrt_after(self):
        cfg = TrainConfig(base_lr=0.01, warmup_constant_steps=100)
        assert abs(lr_at(400, cfg) - 0.01 * math.sqrt(100 / 400)) < 1e-15

    def test_quarter_rate_at_sixteenfold(self):
        cfg = TrainConfig(base_lr=0.01, warmup_constant_steps=10000)
        assert abs(lr_at(40000, cfg) - 0.005) < 1e-15

    def test_continuous_at_boundary(self):
        cfg = TrainConfig(base_lr=0.01, warmup_constant_steps=100)
        assert abs(lr_at(100, cfg) - lr_at(101, cfg)) < 1e-4

    def test_one_based(self):
        with pytest.raises(ValueError):
            lr_at(0, TrainConfig())

    def test_monotone_nonincreasing(self):
        cfg = TrainConfig(warmup_constant_steps=50)
        vals = [lr_at(s, cfg) for s in range(1, 500)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestTrainConfig:
    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            TrainConfig.from_dict({"dropout": 0.1})

    def test_roundtrip(self):
        cfg = TrainConfig.from_dict({"base_lr": 0.2, "seq_len": 16})
        assert cfg.base_lr == 0.2
        assert cfg.seq_len == 16

    def test_accepts_zero_seed_and_steps_and_int_rates(self):
        cfg = TrainConfig.from_dict({"seed": 0, "max_steps": 0, "base_lr": 1,
                                     "valid_fraction": 0})
        assert (cfg.seed, cfg.max_steps, cfg.base_lr) == (0, 0, 1)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("seq_len", "8"), ("warmup_constant_steps", 1.0),
        ("log_every", None), ("eval_tokens", True), ("seed", -1),
        ("max_steps", 2.5), ("base_lr", True), ("aux_coeff", "0.01"),
        ("beta2", None), ("valid_fraction", [0.1]), ("base_lr", 0),
        ("base_lr", float("nan")), ("beta2", 1), ("beta2", -0.5),
        ("aux_coeff", -0.5)])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig.from_dict({field: value})


class TestCorpus:
    def test_split_disjoint_and_complete(self):
        data = bytes(range(100))
        c = ByteCorpus(data, valid_fraction=0.2)
        assert c.train_ids.size == 80
        assert c.valid_ids.size == 20
        joined = np.concatenate([c.train_ids, c.valid_ids])
        np.testing.assert_array_equal(joined, np.frombuffer(data, np.uint8))

    def test_zero_valid_fraction(self):
        c = ByteCorpus(b"hello world", valid_fraction=0.0)
        assert c.valid_ids.size == 0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ByteCorpus(b"x")

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, float("nan"), "0.1", True])
    def test_valid_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError, match="valid_fraction"):
            ByteCorpus(bytes(100), valid_fraction=fraction)

    def test_batch_shapes_and_target_shift(self):
        c = tiny_corpus()
        rng = np.random.default_rng(1)
        inputs, targets = c.sample_batch(rng, 3, 16)
        assert inputs.shape == targets.shape == (48,)
        # each row's targets are the inputs shifted by one position
        ids = c.train_ids
        for b in range(3):
            row_in = inputs[b * 16:(b + 1) * 16]
            row_tg = targets[b * 16:(b + 1) * 16]
            np.testing.assert_array_equal(row_in[1:], row_tg[:-1])
            assert row_in.tobytes() in ids.tobytes()

    def test_batch_rows_are_windows_at_drawn_starts(self):
        # row b is the window at the b-th start of one integers() draw
        c = tiny_corpus()
        ids = c.train_ids
        inputs, targets = c.sample_batch(np.random.default_rng(3), 4, 16)
        starts = np.random.default_rng(3).integers(0, ids.size - 16, size=4)
        np.testing.assert_array_equal(
            inputs, np.concatenate([ids[s:s + 16] for s in starts]))
        np.testing.assert_array_equal(
            targets, np.concatenate([ids[s + 1:s + 17] for s in starts]))

    def test_short_corpus_wraps(self):
        c = ByteCorpus(b"abcd", valid_fraction=0.0)
        rng = np.random.default_rng(0)
        inputs, targets = c.sample_batch(rng, 2, 16)
        assert inputs.shape == (32,)

    def test_token_range_fits_byte_vocab(self):
        c = tiny_corpus()
        assert BYTE_VOCAB == 258
        assert c.train_ids.max() < 256

    def test_windows_nonoverlapping(self):
        c = ByteCorpus(bytes(range(100)), valid_fraction=0.5)
        seen = []
        for inp, tgt in c.windows(10, split="valid"):
            np.testing.assert_array_equal(inp[1:], tgt[:-1])
            seen.extend(inp.tolist())
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("n_valid, lengths", [(50, [10] * 4), (11, [10]), (8, [7]),
                                                  (2, [1]), (1, []), (0, [])])
    def test_window_lengths(self, n_valid, lengths):
        """Windows of seq_len 10; a split no longer than that gives one
        window of all but its last id. ``window_len`` states the length."""
        c = ByteCorpus(bytes(range(100)), valid_fraction=n_valid / 100)
        assert c.valid_ids.size == n_valid
        wins = list(c.windows(10))
        assert [len(t) for _, t in wins] == lengths
        for inp, tgt in wins:
            np.testing.assert_array_equal(inp[1:], tgt[:-1])
        if lengths:
            assert c.window_len(10, "valid") == lengths[0]


class TestAdafactor:
    def test_scalar_first_step_oracle(self):
        # hand computation for a single 1-element parameter
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.5])
        opt = Adafactor({"p": p}, beta2=0.99)
        opt.update({"p": p}, lr=0.1)
        v = 0.01 * (0.25 + 1e-30)
        u = 0.5 / math.sqrt(v)
        u /= max(1.0, abs(u))  # clip at rms 1
        alpha = 0.1 * max(1e-3, 2.0)
        assert abs(p.data[0] - (2.0 - alpha * u)) < 1e-12

    def test_matrix_factored_oracle(self):
        # 2x2 matrix: verify the row/col factored second moment directly
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = Tensor(np.zeros((2, 2)), requires_grad=True)
        p.grad = g.copy()
        opt = Adafactor({"w": p}, beta2=0.9)
        opt.update({"w": p}, lr=0.05)
        g2 = g * g + 1e-30
        r = 0.1 * g2.sum(axis=1)
        c = 0.1 * g2.sum(axis=0)
        v = np.outer(r, c) / r.sum()
        u = g / np.sqrt(v)
        rms = math.sqrt(np.mean(u * u))
        if rms > 1.0:
            u = u / rms
        alpha = 0.05 * 1e-3  # zero param, floor applies
        np.testing.assert_allclose(p.data, -alpha * u, atol=1e-15)

    def test_vector_keeps_full_accumulator(self):
        p = Tensor(np.ones(5), requires_grad=True)
        opt = Adafactor({"b": p})
        assert "v" in opt.state["b"] and "r" not in opt.state["b"]

    def test_no_first_moment_state(self):
        p = Tensor(np.ones((3, 3)), requires_grad=True)
        opt = Adafactor({"w": p})
        assert set(opt.state["w"]) == {"r", "c"}

    def test_applied_gradients_are_dropped(self):
        rng = np.random.default_rng(32)
        params = {"w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                  "b": Tensor(rng.normal(size=4), requires_grad=True)}
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        Adafactor(params).update(params, lr=0.1)
        assert all(p.grad is None for p in params.values())

    def test_none_grad_skipped(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adafactor({"b": p})
        opt.update({"b": p}, lr=0.1)
        np.testing.assert_array_equal(p.data, np.ones(3))

    def test_nonfinite_grad_raises(self):
        p = Tensor(np.ones(3), requires_grad=True)
        p.grad = np.array([1.0, np.nan, 0.0])
        opt = Adafactor({"b": p})
        with pytest.raises(TrainingError):
            opt.update({"b": p}, lr=0.1)

    @pytest.mark.parametrize("shape", [(5, 7), (6,), ()])
    def test_matches_unfactored_oracle(self, shape):
        # the oracle builds outer(r, c) and divides by its sqrt; the update
        # scales g by row and column factors instead, so only the rounding
        # differs. Params are re-synced each step so every update is
        # compared on the same inputs.
        rng = np.random.default_rng(30)
        p = Tensor(rng.normal(size=shape), requires_grad=True)
        q = Tensor(p.data.copy(), requires_grad=True)
        opt, ref = Adafactor({"w": p}, beta2=0.9), Adafactor({"w": q}, beta2=0.9)
        clipped = []
        for step in range(10):
            g = rng.normal(size=shape) * (1.0 if step < 5 else 1e-3)
            p.grad, q.grad = g.copy(), g.copy()
            before = np.array(q.data)
            opt.update({"w": p}, lr=0.1)
            adafactor_oracle(ref, {"w": q}, lr=0.1)
            np.testing.assert_allclose(p.data - before, q.data - before,
                                       rtol=1e-12, atol=0)
            for key, value in ref.state["w"].items():
                np.testing.assert_allclose(opt.state["w"][key], value,
                                           rtol=1e-12, atol=0)
            step_rms = math.sqrt(np.mean((q.data - before) ** 2))
            alpha = 0.1 * max(1e-3, math.sqrt(np.mean(before * before)))
            clipped.append(step_rms > alpha * (1 - 1e-9))
            p.data = np.array(q.data)
        assert any(clipped) and not all(clipped)  # both regimes were compared

    @pytest.mark.parametrize("shape", [(5, 7), (6,), ()])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_grad_names_the_parameter(self, shape, bad):
        rng = np.random.default_rng(31)
        p = Tensor(rng.normal(size=shape), requires_grad=True)
        g = rng.normal(size=shape)
        g.reshape(-1)[-1] = bad
        p.grad = g
        before = p.data.copy()
        opt = Adafactor({"layer0.w": p})
        with pytest.raises(TrainingError, match="'layer0.w'"):
            opt.update({"layer0.w": p}, lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_update_magnitude_bounded(self):
        # clip threshold 1.0 and relative scaling bound each step
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        opt = Adafactor({"w": p})
        for _ in range(5):
            before = p.data.copy()
            p.grad = rng.normal(size=(4, 4)) * 100
            opt.update({"w": p}, lr=0.1)
            step = p.data - before
            rms_param = max(1e-3, math.sqrt(np.mean(before * before)))
            assert math.sqrt(np.mean(step * step)) <= 0.1 * rms_param + 1e-12


# the search-proxy baseline block, and a searched d=32 block without MoE
PROXY_BLOCK = dict(layers=("attn", "ffn", "attn", "moe"), d=64, d_moe=128, d_ffn=128,
                   h=4, d_head=16, g="top2", c=2, a="gelu", n_experts=4)
D32_BLOCK = dict(layers=("attn", "attn", "attn", "ffn", "attn"), d=32, d_moe=128,
                 d_ffn=128, h=4, d_head=16, g="expert_choice", c=2, a="gated_gelu",
                 n_experts=4)
# top-2 over 16 small experts: on TEXT some get no token, and their
# matrices share chunks with busy experts' ones
IDLE_EXPERTS_BLOCK = dict(layers=("attn", "moe"), d=16, d_moe=32, d_ffn=32, h=2,
                          d_head=8, g="top2", c=1, a="relu", n_experts=16)
TEXT = b"the quick brown fox jumps over the lazy dog and the cat sat on the mat. " * 20


def random_params(rng, shapes):
    return {name: Tensor(rng.normal(size=shape), requires_grad=True)
            for name, shape in shapes.items()}


class TestChunkedUpdate:
    """``Adafactor.update`` steps chunks of same-shape params with one pass
    each; the per-param loop it replaced (``helpers.adafactor_reference``)
    must give the same params and moments, bit for bit."""

    def model_case(self, block):
        model = LanguageModel(proxy_model_spec(BlockSpec(**block), 128), seed=0)
        corpus, rng = ByteCorpus(TEXT), np.random.default_rng(0)

        def set_grads(step):
            inputs, targets = corpus.sample_batch(rng, 2, 32)
            lm_loss(model, inputs, targets, seq_len=32)[0].backward()
        return model.params, set_grads, None

    def random_case(self, shapes, drop=(), between=None):
        """Random gradients; ``drop`` holds the (step, name) pairs that get
        none, so a chunk is stepped in part."""
        rng = np.random.default_rng(7)
        params = random_params(rng, shapes)

        def set_grads(step):
            for name, p in params.items():
                p.grad = None if (step, name) in drop else rng.normal(size=p.shape)
        return params, set_grads, between

    def reload_and_rebind(self, tmp_path):
        """Save after step 2, load that checkpoint after step 4 (and put the
        reference back to step 2), then scale one param from outside after
        step 5: the chunk must restack its params each time."""
        path = tmp_path / "ckpt.bin"
        saved = {}

        def between(step, params, opt, ref_params, ref):
            state = TrainState(opt, np.random.default_rng(0))
            if step == 2:
                save_checkpoint(SimpleNamespace(params=params), state, path)
                saved.update(data={n: p.data.copy() for n, p in ref_params.items()},
                             moments=copy.deepcopy(ref.state))
            elif step == 4:
                load_checkpoint(SimpleNamespace(params=params), state, path)
                for n, p in ref_params.items():
                    p.data = saved["data"][n].copy()
                ref.state = copy.deepcopy(saved["moments"])
            elif step == 5:
                for side in (params, ref_params):
                    side["w1"].data = side["w1"].data * 0.5
        shapes = {"w0": (8, 8), "w1": (8, 8), "w2": (8, 8), "b0": (4,), "b1": (4,)}
        return self.random_case(shapes, between=between)

    @pytest.mark.parametrize("case", ["proxy", "d32_genome", "budget_split",
                                      "scalar_and_vector", "reload_and_rebind"])
    def test_matches_per_param_loop(self, case, tmp_path):
        if case == "proxy":
            params, set_grads, between = self.model_case(PROXY_BLOCK)
        elif case == "d32_genome":
            params, set_grads, between = self.model_case(D32_BLOCK)
        elif case == "budget_split":
            # 10 params of 64 KB: chunks of 4, 4 and 2; the 5th misses step 3
            params, set_grads, between = self.random_case(
                {f"w{i}": (64, 128) for i in range(10)}, drop={(3, "w4")})
        elif case == "scalar_and_vector":
            params, set_grads, between = self.random_case(
                {"s0": (), "v": (6,), "s1": (), "w": (5, 7)}, drop={(2, "s0")})
        else:
            params, set_grads, between = self.reload_and_rebind(tmp_path)
        ref_params = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in params.items()}
        opt, ref = Adafactor(params), Adafactor(ref_params)
        if case == "budget_split":
            assert CHUNK_BYTES // (64 * 128 * 8) == 4
            assert [len(c.names) for c in opt._chunks] == [4, 4, 2]
        idle = []
        for step in range(1, 7):
            set_grads(step)
            for n, p in params.items():
                ref_params[n].grad = None if p.grad is None else p.grad.copy()
            idle.append(sum(p.grad is None for p in params.values()))
            opt.update(params, lr=0.05)
            adafactor_reference(ref, ref_params, lr=0.05)
            assert all(p.grad is None for p in params.values())
            for n, p in params.items():
                assert p.data.tobytes() == ref_params[n].data.tobytes(), (step, n)
                for k, m in opt.state[n].items():
                    assert m.tobytes() == ref.state[n][k].tobytes(), (step, n, k)
            if between:
                between(step, params, opt, ref_params, ref)
        if case in ("proxy", "budget_split", "scalar_and_vector"):
            assert any(idle)  # some chunk was stepped in part

    @pytest.mark.parametrize("block", [PROXY_BLOCK, IDLE_EXPERTS_BLOCK])
    def test_sweep_steps_match_backward_then_update(self, block, monkeypatch):
        """``train_steps`` steps each one-member chunk inside the sweep,
        once its gradient is final, and the rest in ``update``: over several
        steps its params and moments are bitwise those of a plain
        ``backward()`` followed by ``update``. When ``update`` is entered,
        no one-member chunk still holds a gradient, and each chunk that
        stacks several holds every gradient a plain ``backward()`` gives."""
        spec = proxy_model_spec(BlockSpec(**block), 128)
        model, ref = LanguageModel(spec, seed=0), LanguageModel(spec, seed=0)
        cfg, corpus = TrainConfig(batch_size=2, seq_len=32, warmup_constant_steps=2), ByteCorpus(TEXT)
        state, ref_state = fresh(model, cfg), fresh(ref, cfg)
        held = {}  # optimizer -> per step: per chunk, which members hold a gradient
        real_update = Adafactor.update

        def update(self, params, lr):
            held.setdefault(self, []).append(
                [[params[n].grad is not None for n in c.names] for c in self._chunks])
            real_update(self, params, lr)
        monkeypatch.setattr(Adafactor, "update", update)
        for step in range(1, 6):
            train_steps(model, corpus, cfg, 1, state)
            inputs, targets = corpus.sample_batch(ref_state.rng, cfg.batch_size, cfg.seq_len)
            lm_loss(ref, inputs, targets, aux_coeff=cfg.aux_coeff,
                    seq_len=cfg.seq_len)[0].backward()
            ref_state.optimizer.update(ref.params, lr_at(step, cfg))
            for n, p in model.params.items():
                assert p.data.tobytes() == ref.params[n].data.tobytes(), (step, n)
                for k, m in state.optimizer.state[n].items():
                    assert m.tobytes() == ref_state.optimizer.state[n][k].tobytes(), (step, n, k)
        swept, plain = held[state.optimizer], held[ref_state.optimizer]
        assert len(swept) == len(plain) == 5
        for chunks, ref_chunks in zip(swept, plain):
            for has, ref_has in zip(chunks, ref_chunks):
                assert has == ([False] if len(has) == 1 else ref_has)
        assert any(has == [True] for chunks in plain for has in chunks)  # the sweep stepped some
        assert any(len(has) > 1 and any(has) for chunks in swept for has in chunks)

    @pytest.mark.parametrize("shape", [(5, 7), (6,), ()])
    def test_nonfinite_mid_chunk_names_it_and_changes_nothing(self, shape):
        """A NaN in the middle member's gradient raises naming it, and
        leaves the params and moments of its whole chunk as they were; the
        chunk before it (another shape, first in order) is stepped."""
        rng = np.random.default_rng(33)
        params = random_params(rng, {"early": (3, 2), "first": shape, "mid": shape,
                                     "last": shape})
        opt = Adafactor(params)
        assert [c.names for c in opt._chunks] == [["early"], ["first", "mid", "last"]]
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        opt.update(params, lr=0.1)  # non-zero moments
        before = {n: (p.data.copy(), copy.deepcopy(opt.state[n])) for n, p in params.items()}
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        params["mid"].grad.reshape(-1)[-1] = np.nan
        with pytest.raises(TrainingError, match="'mid'"):
            opt.update(params, lr=0.1)
        for n in ("first", "mid", "last"):
            np.testing.assert_array_equal(params[n].data, before[n][0])
            for k, m in opt.state[n].items():
                np.testing.assert_array_equal(m, before[n][1][k])
        assert not np.array_equal(params["early"].data, before["early"][0])

    def test_nonfinite_in_the_sweep_names_it_and_changes_nothing(self, monkeypatch):
        """A NaN put into a one-member chunk's gradient (``embed``'s) during
        the sweep makes ``train_steps`` raise in the sweep, naming its
        param, with the params and moments of its chunk as they were.
        One-member chunks are stepped in sweep order: ``out``, swept first,
        was stepped; ``pos``, swept after ``embed``, was not."""
        self.poison_in_sweep(monkeypatch, "embed", stepped="out", kept="pos")

    def test_nonfinite_in_a_stacked_chunk_raises_from_update(self, monkeypatch):
        """A NaN put into the gradient of a chunk that stacks several
        members (``layer0.ln.b``'s) during the sweep raises from ``update``
        after the sweep, in chunk order, with its whole chunk as it was:
        ``pos``, swept last, was stepped; ``layer0.wq``, in a later chunk,
        was not."""
        self.poison_in_sweep(monkeypatch, "layer0.ln.b", stepped="pos", kept="layer0.wq")

    @staticmethod
    def poison_in_sweep(monkeypatch, bad, stepped, kept):
        """Put a NaN into ``bad``'s gradient as the sweep reports it: the
        step raises naming it, its chunk unchanged, ``stepped``'s param
        stepped and ``kept``'s not."""
        model, cfg, corpus = tiny_model(), TrainConfig(batch_size=2, seq_len=16), tiny_corpus()
        state = fresh(model, cfg)
        train_steps(model, corpus, cfg, 1, state)  # non-zero moments
        opt = state.optimizer
        chunk = next(c for c in opt._chunks if bad in c.names)
        assert (chunk.names == [bad] if bad == "embed"
                else len(chunk.names) > 1 and chunk.names[-1] != bad)
        before = {n: (p.data.copy(), copy.deepcopy(opt.state[n]))
                  for n, p in model.params.items()}
        real_sweep = Adafactor.sweep

        def sweep(self, lr):
            on_leaf = real_sweep(self, lr)

            def poisoned(leaf):
                if leaf is model.params[bad]:
                    leaf.grad.reshape(-1)[0] = np.nan
                on_leaf(leaf)
            return poisoned
        monkeypatch.setattr(Adafactor, "sweep", sweep)
        with pytest.raises(TrainingError, match=re.escape(repr(bad))):
            train_steps(model, corpus, cfg, 1, state)
        for n in chunk.names:
            np.testing.assert_array_equal(model.params[n].data, before[n][0])
            for k, m in opt.state[n].items():
                np.testing.assert_array_equal(m, before[n][1][k])
        assert not np.array_equal(model.params[stepped].data, before[stepped][0])
        np.testing.assert_array_equal(model.params[kept].data, before[kept][0])
        assert state.step == 1


class TestBudget:
    """A ``train_steps`` call trains exactly the steps it is given."""

    def test_zero_steps_runs_nothing(self):
        m = tiny_model()
        cfg = TrainConfig(seq_len=8, batch_size=2)
        state = fresh(m, cfg)
        before = {k: v.data.copy() for k, v in m.params.items()}
        res = train_steps(m, tiny_corpus(), cfg, 0, state)
        assert res.steps == 0
        assert state.step == 0
        for k in before:
            np.testing.assert_array_equal(m.params[k].data, before[k])

    def test_step_budget_exact(self):
        m = tiny_model()
        cfg = TrainConfig(seq_len=8, batch_size=2)
        state = fresh(m, cfg)
        res = train_steps(m, tiny_corpus(), cfg, 3, state)
        assert res.steps == 3
        assert state.step == 3


class TestTrainLoop:
    def test_loss_decreases(self):
        m = tiny_model()
        cfg = TrainConfig(seq_len=16, batch_size=4, base_lr=0.05, valid_fraction=0.0)
        res = train_steps(m, tiny_corpus(), cfg, 30, fresh(m, cfg))
        first = np.mean(losses(res)[:5])
        last = np.mean(losses(res)[-5:])
        assert last < first

    def test_initial_loss_near_log_vocab(self):
        m = tiny_model()
        cfg = TrainConfig(seq_len=8, batch_size=2)
        res = train_steps(m, tiny_corpus(), cfg, 1, fresh(m, cfg))
        assert abs(losses(res)[0] - math.log(258)) < 0.05

    def test_divergence_aborts_cleanly(self):
        m = tiny_model()
        m.params["embed"].data[:] = np.nan
        cfg = TrainConfig(seq_len=8, batch_size=2)
        state = fresh(m, cfg)
        res = train_steps(m, tiny_corpus(), cfg, 10, state)
        assert res.diverged
        assert res.steps == 0
        assert state.step == 0

    def test_trajectory_file_jsonl(self, tmp_path):
        m = tiny_model()
        path = tmp_path / "traj.jsonl"
        cfg = TrainConfig(seq_len=8, batch_size=2)
        train_steps(m, tiny_corpus(), cfg, 4, fresh(m, cfg), trajectory_path=str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        recs = [json.loads(ln) for ln in lines]
        assert [r["step"] for r in recs] == [1, 2, 3, 4]
        assert all(set(r) >= {"step", "loss", "lr", "step_time"} for r in recs)

    def test_resume_continues_step_count(self):
        m = tiny_model()
        cfg = TrainConfig(seq_len=8, batch_size=2)
        state = fresh(m, cfg)
        train_steps(m, tiny_corpus(), cfg, 3, state)
        res = train_steps(m, tiny_corpus(), cfg, 2, state)
        assert state.step == 5
        assert res.records[-1]["step"] == 5

    def test_gradients_dropped_after_each_update(self):
        """Between steps, and after the last, a run holds its params and
        state but no gradient."""
        m = tiny_model()
        cfg = TrainConfig(seq_len=8, batch_size=2)
        res = train_steps(m, tiny_corpus(), cfg, 2, fresh(m, cfg))
        assert res.steps == 2
        assert all(p.grad is None for p in m.params.values())

    def test_lr_recorded_follows_schedule(self):
        m = tiny_model()
        cfg = TrainConfig(seq_len=8, batch_size=2, warmup_constant_steps=2,
                          base_lr=0.01)
        res = train_steps(m, tiny_corpus(), cfg, 4, fresh(m, cfg))
        got = [r["lr"] for r in res.records]
        expect = [lr_at(s, cfg) for s in (1, 2, 3, 4)]
        assert got == expect


class TestEvaluate:
    @staticmethod
    def _model(g):
        """A model whose predictions depend on its input: the output
        projection, zero at init, drawn at random."""
        model = tiny_model(g=g)
        rng = np.random.default_rng(5)
        model.params["out"].data = rng.normal(size=model.params["out"].shape)
        return model

    @pytest.mark.parametrize("g", ["top2", "expert_choice"])
    @pytest.mark.parametrize("n_bytes, seq_len, max_tokens, n_windows", [
        (6500, 16, None, 40),   # one full forward of 32 windows, then 8
        (6500, 16, 100, 7),     # a max_tokens cut inside the first forward
        (200, 32, None, 1),     # a split shorter than seq_len: one 19-id window
    ])
    def test_matches_per_window_oracle(self, g, n_bytes, seq_len, max_tokens,
                                       n_windows):
        """Within rtol 1e-12, not bitwise: the batched forward's matrix
        products and its one mean over many windows may round differently
        (the 40-window case differs by about 2e-15 relative)."""
        model, corpus = self._model(g), tiny_corpus(n=n_bytes)
        assert len(list(corpus.windows(seq_len, max_tokens=max_tokens))) == n_windows
        got = evaluate_perplexity(model, corpus, seq_len=seq_len, max_tokens=max_tokens)
        want = perplexity_oracle(model, corpus, seq_len=seq_len, max_tokens=max_tokens)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        assert abs(math.log(want / BYTE_VOCAB)) > 1e-3  # not the uniform model

    def test_leaves_params_as_they_were(self):
        model, corpus = self._model("top2"), tiny_corpus()
        inputs, targets = corpus.sample_batch(np.random.default_rng(0), 2, 16)
        lm_loss(model, inputs, targets, seq_len=16)[0].backward()
        model.params["embed"].grad = None
        model.params["pos"].requires_grad = False
        before = {n: (p.requires_grad, p.grad, None if p.grad is None else p.grad.copy())
                  for n, p in model.params.items()}
        evaluate_perplexity(model, corpus, seq_len=16)
        for name, p in model.params.items():
            flag, grad, values = before[name]
            assert p.requires_grad is flag and p.grad is grad, name
            if grad is not None:
                np.testing.assert_array_equal(grad, values, err_msg=name)

    def test_uniform_model_is_vocab_size(self):
        m = tiny_model()  # zero output projection, uniform predictions
        ppl = evaluate_perplexity(m, tiny_corpus(), seq_len=16, max_tokens=64)
        assert abs(ppl - 258) < 1e-6

    def test_empty_split_rejected(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            evaluate_perplexity(m, tiny_corpus(valid_fraction=0.0),
                                seq_len=16)


class TestStepTime:
    def test_returns_positive_median_and_analytic(self):
        """Only the measured median; the analytic cost is
        ``step_cost_units``, checked in test_model."""
        t = measure_step_time(tiny_model(), tiny_corpus(),
                              TrainConfig(seq_len=8, batch_size=2))
        assert isinstance(t, float) and t > 0

    def test_one_warmup_then_median_of_three(self, monkeypatch):
        """One call trains the copy 4 steps and drops the first step's time."""
        calls = []

        def recording(model, corpus, cfg, n_steps, state, **kw):
            calls.append(n_steps)
            res = train_steps(model, corpus, cfg, n_steps, state, **kw)
            for rec, t in zip(res.records, (100.0, 3.0, 1.0, 2.0)):
                rec["step_time"] = t
            return res
        monkeypatch.setattr("brainformer.training.train_steps", recording)
        t = measure_step_time(tiny_model(), tiny_corpus(),
                              TrainConfig(seq_len=8, batch_size=2))
        assert calls == [4]
        assert t == 2.0

    def test_leaves_model_untouched(self):
        """The copy trains under a state of its own: the caller's model
        params and the state the caller holds do not move."""
        m = tiny_model()
        cfg = TrainConfig(seq_len=8, batch_size=2)
        state = fresh(m, cfg)
        rng_before = state.rng.bit_generator.state
        before = {k: v.data.copy() for k, v in m.params.items()}
        measure_step_time(m, tiny_corpus(), cfg)
        assert state.step == 0
        assert state.rng.bit_generator.state == rng_before
        for moments in state.optimizer.state.values():
            assert all(not v.any() for v in moments.values())
        for k in before:
            np.testing.assert_array_equal(m.params[k].data, before[k])


def assert_same_params(a, b):
    assert set(a.params) == set(b.params)
    for name in a.params:
        assert np.max(np.abs(a.params[name].data - b.params[name].data)) == 0.0, name


class TestCarriedState:
    """Chunks that share one ``TrainState`` are one run, bitwise. Equality
    is exact on one machine and numpy/BLAS build; across builds float
    results may differ."""

    @settings(max_examples=12, deadline=None)
    @given(g=st.sampled_from(["top2", "expert_choice"]),
           chunks=st.lists(st.integers(0, 4), min_size=1, max_size=4))
    def test_chunks_equal_one_run(self, g, chunks):
        corpus = tiny_corpus()
        cfg = TrainConfig(seq_len=8, batch_size=2, warmup_constant_steps=3, seed=7)
        whole, parts = tiny_model(g=g), tiny_model(g=g)
        whole_state, state = fresh(whole, cfg), fresh(parts, cfg)
        ref = train_steps(whole, corpus, cfg, sum(chunks), whole_state)
        chunked = []
        for n in chunks:
            res = train_steps(parts, corpus, cfg, n, state)
            assert res.steps == n
            chunked += losses(res)
        assert state.step == whole_state.step == sum(chunks)
        assert np.max(np.abs(np.subtract(chunked, losses(ref))), initial=0.0) == 0.0
        assert_same_params(parts, whole)

    def test_fresh_state_starts_over(self):
        """A second fresh state draws the same batches as the first did."""
        corpus = tiny_corpus()
        cfg = TrainConfig(seq_len=8, batch_size=2)
        m = tiny_model()
        first, again = fresh(m, cfg), fresh(m, cfg)
        train_steps(m, corpus, cfg, 2, first)
        res = train_steps(m, corpus, cfg, 2, again)
        assert again.rng.bit_generator.state == first.rng.bit_generator.state
        assert again.step == 2 and [r["step"] for r in res.records] == [1, 2]

    def test_checkpoint_resume_equals_one_run(self, tmp_path):
        corpus = tiny_corpus()
        cfg = TrainConfig(seq_len=8, batch_size=2, warmup_constant_steps=2)
        whole = tiny_model()
        ref = train_steps(whole, corpus, cfg, 5, fresh(whole, cfg))
        first = tiny_model()
        first_state = fresh(first, cfg)
        res = train_steps(first, corpus, cfg, 3, first_state)
        save_checkpoint(first, first_state, tmp_path / "ckpt.bin")
        resumed = LanguageModel(first.spec, seed=1)
        state = fresh(resumed, cfg)
        load_checkpoint(resumed, state, tmp_path / "ckpt.bin")
        assert state.step == 3
        res2 = train_steps(resumed, corpus, cfg, 2, state)
        assert losses(res) + losses(res2) == losses(ref)
        assert_same_params(resumed, whole)


class TestCheckpointFile:
    """The checkpoint is one file, replaced whole: a crash mid-save leaves
    the previous one, and a cut file never loads. It always holds the
    whole run: params, moments, RNG and step."""

    cfg = TrainConfig(seq_len=8, batch_size=2)
    corpus = ByteCorpus(bytes(range(11)) * 8)

    def saved(self, tmp_path):
        """A small model after one step, saved with its training state."""
        m = tiny_model(vocab=11, seq=8)
        state = fresh(m, self.cfg)
        train_steps(m, self.corpus, self.cfg, 1, state)
        save_checkpoint(m, state, tmp_path / "ckpt.bin")
        return m, state

    @staticmethod
    def snapshot(model, state):
        """Copies of everything ``load_checkpoint`` may change."""
        return ({k: p.data.copy() for k, p in model.params.items()},
                {n: {k: v.copy() for k, v in moments.items()}
                 for n, moments in state.optimizer.state.items()},
                state.rng.bit_generator.state, state.step)

    def assert_unchanged(self, model, state, before):
        params, moments, rng, step = before
        for k, v in params.items():
            np.testing.assert_array_equal(model.params[k].data, v)
        for n, ms in moments.items():
            for k, v in ms.items():
                np.testing.assert_array_equal(state.optimizer.state[n][k], v)
        assert state.rng.bit_generator.state == rng
        assert state.step == step

    def test_interrupted_save_keeps_previous(self, tmp_path, monkeypatch):
        m, state = self.saved(tmp_path)
        path = tmp_path / "ckpt.bin"
        before = path.read_bytes()
        real_savez = np.savez

        class Crash(Exception):
            pass

        def torn_savez(fh, **arrays):
            buf = io.BytesIO()
            real_savez(buf, **arrays)
            fh.write(buf.getvalue()[:len(before) // 2])
            raise Crash

        train_steps(m, self.corpus, self.cfg, 1, state)
        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(Crash):
            save_checkpoint(m, state, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        loaded = tiny_model(vocab=11, seq=8)
        loaded_state = fresh(loaded, self.cfg)
        load_checkpoint(loaded, loaded_state, path)
        assert loaded_state.step == 1

    def test_every_truncation_is_a_config_error(self, tmp_path):
        m, _ = self.saved(tmp_path)
        full = (tmp_path / "ckpt.bin").read_bytes()
        state = fresh(m, self.cfg)
        cut_path = tmp_path / "cut.bin"
        for cut in range(len(full)):
            cut_path.write_bytes(full[:cut])
            with pytest.raises(ConfigError):
                load_checkpoint(m, state, cut_path)
        cut_path.write_bytes(full)
        load_checkpoint(m, state, cut_path)

    def test_old_flat_format_is_a_config_error(self, tmp_path):
        """Earlier versions wrote the params as raw float64 bytes."""
        m = tiny_model(vocab=11, seq=8)
        path = tmp_path / "ckpt.bin"
        path.write_bytes(np.concatenate([p.data.ravel() for p in m.params.values()])
                         .tobytes())
        with pytest.raises(ConfigError):
            load_checkpoint(m, fresh(m, self.cfg), path)

    def rewrite(self, path, edit):
        """Rewrite the checkpoint at ``path`` with ``edit`` applied to its
        entries (a dict of name to array, ``meta`` as parsed JSON)."""
        with np.load(path) as npz:
            entries = {k: npz[k] for k in npz.files}
        entries["meta"] = json.loads(str(entries["meta"]))
        edit(entries)
        with open(path, "wb") as fh:
            np.savez(fh, **{k: np.array(json.dumps(v)) if k == "meta" else v
                            for k, v in entries.items()})

    def test_params_only_file_is_a_config_error(self, tmp_path):
        """Earlier versions could write the params and step alone."""
        self.saved(tmp_path)
        path = tmp_path / "ckpt.bin"

        def params_only(entries):
            for key in [k for k in entries if k != "meta" and not k.startswith("param/")]:
                del entries[key]
            entries["meta"] = {"step": entries["meta"]["step"]}
        self.rewrite(path, params_only)
        loaded = tiny_model(vocab=11, seq=8)
        state = fresh(loaded, self.cfg)
        before = self.snapshot(loaded, state)
        with pytest.raises(ConfigError):
            load_checkpoint(loaded, state, path)
        self.assert_unchanged(loaded, state, before)

    @pytest.mark.parametrize("edit", [
        "drop a param", "extra param", "param shape", "drop a moment",
        "extra moment", "moment shape", "moment kind"])
    def test_entries_must_be_exactly_the_run(self, tmp_path, edit):
        """An entry missing, extra or of another shape fails before any
        param, moment, RNG or step changes."""
        m, _ = self.saved(tmp_path)
        path = tmp_path / "ckpt.bin"
        matrix = next(n for n, ms in fresh(m, self.cfg).optimizer.state.items()
                      if "r" in ms)

        def change(entries):
            if edit == "drop a param":
                del entries["param/layer0.ln.g"]
            elif edit == "extra param":
                entries["param/layer9.ln.g"] = np.ones(8)
            elif edit == "param shape":
                entries["param/out"] = np.zeros((8, 12))
            elif edit == "drop a moment":
                del entries[f"r/{matrix}"]
            elif edit == "extra moment":
                entries["v/layer9.ln.g"] = np.ones(8)
            elif edit == "moment shape":
                entries[f"c/{matrix}"] = np.ones(3)
            else:  # a factored moment stored as a full accumulator
                entries[f"v/{matrix}"] = entries.pop(f"r/{matrix}")
        self.rewrite(path, change)
        loaded = tiny_model(vocab=11, seq=8)
        state = fresh(loaded, self.cfg)
        before = self.snapshot(loaded, state)
        with pytest.raises(ConfigError, match="does not fit"):
            load_checkpoint(loaded, state, path)
        self.assert_unchanged(loaded, state, before)

    BAD_PCG64 = {"bit_generator": "PCG64", "state": {"state": "x", "inc": 1},
                 "has_uint32": 0, "uinteger": 0}

    @pytest.mark.parametrize("how, meta", [
        ("merge", {"step": -1}), ("merge", {"step": 2.0}), ("merge", {"step": True}),
        ("merge", {"step": None}), ("merge", {"rng": 5}), ("merge", {"rng": {}}),
        ("merge", {"rng": {"bit_generator": "MT19937"}}), ("merge", {"rng": BAD_PCG64}),
        ("replace", {"step": 1}), ("replace", [1]), ("replace", "step")])
    def test_malformed_meta_is_a_config_error(self, tmp_path, how, meta):
        """A bad step or RNG state beside a good other half, or a ``meta``
        that is not an object holding both, fails before anything changes."""
        self.saved(tmp_path)
        path = tmp_path / "ckpt.bin"

        def change(entries):
            if how == "merge":
                entries["meta"].update(meta)
            else:
                entries["meta"] = meta
        self.rewrite(path, change)
        loaded = tiny_model(vocab=11, seq=8)
        state = fresh(loaded, self.cfg)
        before = self.snapshot(loaded, state)
        with pytest.raises(ConfigError, match="unreadable checkpoint"):
            load_checkpoint(loaded, state, path)
        self.assert_unchanged(loaded, state, before)


class TestCutTrajectory:
    """``cut_trajectory`` keeps the records up to a step and drops a torn
    last line; a complete line that is not a record fails before any cut."""

    lines = [json.dumps({"step": s, "loss": 1.0}) + "\n" for s in (1, 2, 3)]

    def test_keeps_records_up_to_step(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        path.write_text("".join(self.lines) + '{"loss": 1.5, "st')
        cut_trajectory(path, 2)
        assert path.read_text() == "".join(self.lines[:2])

    @pytest.mark.parametrize("bad", ["not json", '{"x": 1}', '{"step": "2"}',
                                     "[3]", "", '{"step": true}'])
    @pytest.mark.parametrize("at", [0, 2, 3])
    def test_complete_non_record_is_a_config_error(self, tmp_path, bad, at):
        path = tmp_path / "traj.jsonl"
        lines = self.lines[:at] + [bad + "\n"] + self.lines[at:]
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match="not a record"):
            cut_trajectory(path, 1)
        assert path.read_text() == "".join(lines)


class TestResumeLog:
    """Resuming a run log: ``read_log`` reads it and changes no byte, and
    the caller cuts the file at the ``end`` it returns (``cut_trajectory``
    at once, ``search.evolve`` once every replayed trial has matched). Every
    complete line must parse, a refused log is left as it was, and a
    missing log has no records and stays missing."""

    lines = [json.dumps({"step": s}) + "\n" for s in (1, 2, 3)]

    def test_missing_file_has_no_records(self, tmp_path):
        path = tmp_path / "none.jsonl"
        assert read_log(path, dict) == ([], None)
        cut_trajectory(path, 3)
        assert not path.exists()

    def test_keeps_every_complete_record_and_cuts_a_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        text = "".join(self.lines) + '{"step": 4'
        path.write_text(text)
        end = len("".join(self.lines))
        assert read_log(path, dict) == ([{"step": s} for s in (1, 2, 3)], end)
        assert path.read_text() == text
        cut_trajectory(path, 3)
        assert path.read_text() == "".join(self.lines)

    def test_keep_is_a_prefix(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("".join(self.lines))
        assert read_log(path, dict, keep=lambda rec: rec["step"] != 2) == \
            ([{"step": 1}], len(self.lines[0]))
        assert path.read_text() == "".join(self.lines)
        cut_trajectory(path, 1)
        assert path.read_text() == self.lines[0]

    @pytest.mark.parametrize("bad", ["", "  ", "not json", "[1]"])
    def test_refused_log_is_left_as_it_was(self, tmp_path, bad):
        path = tmp_path / "log.jsonl"
        text = self.lines[0] + bad + "\n" + self.lines[1] + '{"step": 3'
        path.write_text(text)
        with pytest.raises(ConfigError, match="not a record"):
            read_log(path, lambda doc: doc["step"])
        with pytest.raises(ConfigError, match="not a record"):
            cut_trajectory(path, 1)
        assert path.read_text() == text

    def test_directory_is_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot resume from"):
            read_log(tmp_path, dict)
        with pytest.raises(ConfigError, match="cannot resume from"):
            cut_trajectory(tmp_path, 1)


class TestGraphLifetime:
    """A step's graph has no reference cycles, so dropping the loss frees it
    by refcount alone; the cyclic collector then finds nothing."""

    @pytest.mark.parametrize("g", ["top2", "expert_choice"])
    def test_no_cyclic_garbage(self, g):
        model = tiny_model(g=g)
        corpus = tiny_corpus()
        inputs, targets = corpus.sample_batch(np.random.default_rng(0), 2, 16)
        gc.collect()
        gc.disable()
        try:
            loss, ce = lm_loss(model, inputs, targets, seq_len=16)
            loss.backward()
            del loss, ce
            assert gc.collect() == 0
            evaluate_perplexity(model, corpus, seq_len=16, max_tokens=16)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("g", ["top2", "expert_choice"])
    def test_backward_frees_the_graph_while_loss_is_held(self, g):
        """With the loss still bound after backward, the cyclic collector
        finds nothing and the step holds, beyond the params' gradients,
        less than a quarter of what its forward allocated."""
        model = tiny_model(g=g)
        inputs, targets = tiny_corpus().sample_batch(np.random.default_rng(0), 2, 16)
        lm_loss(model, inputs, targets, seq_len=16)[0].backward()  # fills caches
        for p in model.params.values():
            p.grad = None
        grad_bytes = sum(p.data.nbytes for p in model.params.values())
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss, ce = lm_loss(model, inputs, targets, seq_len=16)
            forward = tracemalloc.get_traced_memory()[0] - before
            loss.backward()
            held = tracemalloc.get_traced_memory()[0] - before
            assert gc.collect() == 0
        finally:
            tracemalloc.stop()
            gc.enable()
        assert math.isfinite(ce.item())
        assert held - grad_bytes < forward / 4
