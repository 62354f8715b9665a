import gc
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brainformer.model import (
    BlockSpec, ModelSpec, ConfigError, LanguageModel, lm_loss,
)
from brainformer.training import (
    BYTE_VOCAB, TrainConfig, TrainingError, Adafactor, ByteCorpus,
    TrainState, lr_at, train_steps, evaluate_perplexity, measure_step_time,
    save_checkpoint, load_checkpoint,
)
from brainformer.tensor import Tensor

from helpers import adafactor_oracle


def tiny_model(vocab=BYTE_VOCAB, seq=32, n_experts=2, g="top2"):
    spec = BlockSpec(layers=("attn", "moe"), d=8, d_moe=16, d_ffn=16,
                     h=2, d_head=4, g=g, c=2, a="relu", n_experts=n_experts)
    return LanguageModel(ModelSpec(block=spec, n_blocks=1, vocab_size=vocab,
                                   max_seq_len=seq), seed=0)


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
        assert c.vocab_size == 258
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


class TestBudget:
    """A ``train_steps`` call trains exactly the steps it is given."""

    def test_zero_steps_runs_nothing(self):
        m = tiny_model()
        before = {k: v.data.copy() for k, v in m.params.items()}
        res = train_steps(m, tiny_corpus(), TrainConfig(seq_len=8, batch_size=2), 0)
        assert res.steps == 0
        for k in before:
            np.testing.assert_array_equal(m.params[k].data, before[k])

    def test_step_budget_exact(self):
        m = tiny_model()
        res = train_steps(m, tiny_corpus(), TrainConfig(seq_len=8, batch_size=2), 3)
        assert res.steps == 3
        assert m.step == 3


class TestTrainLoop:
    def test_loss_decreases(self):
        m = tiny_model()
        res = train_steps(m, tiny_corpus(),
                          TrainConfig(seq_len=16, batch_size=4, base_lr=0.05,
                                      valid_fraction=0.0),
                          30)
        first = np.mean(losses(res)[:5])
        last = np.mean(losses(res)[-5:])
        assert last < first

    def test_initial_loss_near_log_vocab(self):
        m = tiny_model()
        res = train_steps(m, tiny_corpus(),
                          TrainConfig(seq_len=8, batch_size=2),
                          1)
        assert abs(losses(res)[0] - math.log(258)) < 0.05

    def test_divergence_aborts_cleanly(self):
        m = tiny_model()
        m.params["embed"].data[:] = np.nan
        res = train_steps(m, tiny_corpus(),
                          TrainConfig(seq_len=8, batch_size=2),
                          10)
        assert res.diverged
        assert res.steps == 0

    def test_trajectory_file_jsonl(self, tmp_path):
        import json
        m = tiny_model()
        path = tmp_path / "traj.jsonl"
        train_steps(m, tiny_corpus(), TrainConfig(seq_len=8, batch_size=2),
                    4, trajectory_path=str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        recs = [json.loads(ln) for ln in lines]
        assert [r["step"] for r in recs] == [1, 2, 3, 4]
        assert all(set(r) >= {"step", "loss", "lr", "step_time"} for r in recs)

    def test_resume_continues_step_count(self):
        m = tiny_model()
        cfg = TrainConfig(seq_len=8, batch_size=2)
        train_steps(m, tiny_corpus(), cfg, 3)
        res = train_steps(m, tiny_corpus(), cfg, 2)
        assert m.step == 5
        assert res.records[-1]["step"] == 5

    def test_lr_recorded_follows_schedule(self):
        m = tiny_model()
        cfg = TrainConfig(seq_len=8, batch_size=2, warmup_constant_steps=2,
                          base_lr=0.01)
        res = train_steps(m, tiny_corpus(), cfg, 4)
        got = [r["lr"] for r in res.records]
        expect = [lr_at(s, cfg) for s in (1, 2, 3, 4)]
        assert got == expect


class TestEvaluate:
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

        def recording(model, corpus, cfg, n_steps, **kw):
            calls.append(n_steps)
            res = train_steps(model, corpus, cfg, n_steps, **kw)
            for rec, t in zip(res.records, (100.0, 3.0, 1.0, 2.0)):
                rec["step_time"] = t
            return res
        monkeypatch.setattr("brainformer.training.train_steps", recording)
        t = measure_step_time(tiny_model(), tiny_corpus(),
                              TrainConfig(seq_len=8, batch_size=2))
        assert calls == [4]
        assert t == 2.0

    def test_leaves_model_untouched(self):
        m = tiny_model()
        before = {k: v.data.copy() for k, v in m.params.items()}
        measure_step_time(m, tiny_corpus(), TrainConfig(seq_len=8, batch_size=2))
        assert m.step == 0
        for k in before:
            np.testing.assert_array_equal(m.params[k].data, before[k])


def assert_same_params(a, b):
    assert set(a.params) == set(b.params)
    for name in a.params:
        assert np.max(np.abs(a.params[name].data - b.params[name].data)) == 0.0, name


class TestCarriedState:
    """Chunks that pass ``result.state`` on are one run, bitwise. Equality
    is exact on one machine and numpy/BLAS build; across builds float
    results may differ."""

    @settings(max_examples=12, deadline=None)
    @given(g=st.sampled_from(["top2", "expert_choice"]),
           chunks=st.lists(st.integers(0, 4), min_size=1, max_size=4))
    def test_chunks_equal_one_run(self, g, chunks):
        corpus = tiny_corpus()
        cfg = TrainConfig(seq_len=8, batch_size=2, warmup_constant_steps=3, seed=7)
        whole, parts = tiny_model(g=g), tiny_model(g=g)
        ref = train_steps(whole, corpus, cfg, sum(chunks))
        state, chunked = None, []
        for n in chunks:
            res = train_steps(parts, corpus, cfg, n, state=state)
            assert res.steps == n
            state, chunked = res.state, chunked + losses(res)
        assert parts.step == whole.step == sum(chunks)
        assert np.max(np.abs(np.subtract(chunked, losses(ref))), initial=0.0) == 0.0
        assert_same_params(parts, whole)

    def test_no_state_starts_fresh(self):
        corpus = tiny_corpus()
        cfg = TrainConfig(seq_len=8, batch_size=2)
        m = tiny_model()
        first = train_steps(m, corpus, cfg, 2)
        again = train_steps(m, corpus, cfg, 2)
        assert again.state is not first.state
        assert again.state.rng.bit_generator.state == \
            first.state.rng.bit_generator.state  # both drew two fresh batches

    def test_checkpoint_resume_equals_one_run(self, tmp_path):
        corpus = tiny_corpus()
        cfg = TrainConfig(seq_len=8, batch_size=2, warmup_constant_steps=2)
        whole = tiny_model()
        ref = train_steps(whole, corpus, cfg, 5)
        first = tiny_model()
        res = train_steps(first, corpus, cfg, 3)
        save_checkpoint(first, tmp_path / "ckpt.bin", state=res.state)
        resumed = LanguageModel(first.spec, seed=1)
        state = TrainState.fresh(resumed, cfg)
        load_checkpoint(resumed, tmp_path / "ckpt.bin", state=state)
        res2 = train_steps(resumed, corpus, cfg, 2, state=state)
        assert losses(res) + losses(res2) == losses(ref)
        assert_same_params(resumed, whole)

    def test_params_only_checkpoint_gives_fresh_state(self, tmp_path):
        corpus = tiny_corpus()
        cfg = TrainConfig(seq_len=8, batch_size=2)
        m = tiny_model()
        train_steps(m, corpus, cfg, 2)
        save_checkpoint(m, tmp_path / "ckpt.bin")
        loaded = LanguageModel(m.spec, seed=1)
        state = TrainState.fresh(loaded, cfg)
        load_checkpoint(loaded, tmp_path / "ckpt.bin", state=state)
        assert loaded.step == 2
        assert_same_params(loaded, m)
        assert state.rng.bit_generator.state == \
            np.random.default_rng(cfg.seed).bit_generator.state
        for moments in state.optimizer.state.values():
            assert all(not v.any() for v in moments.values())


class TestCheckpointFile:
    """The checkpoint is one file, replaced whole: a crash mid-save leaves
    the previous one, and a cut file never loads."""

    cfg = TrainConfig(seq_len=8, batch_size=2)
    corpus = ByteCorpus(bytes(range(11)) * 8)

    def saved(self, tmp_path):
        """A small model after one step, saved with its training state."""
        m = tiny_model(vocab=11, seq=8)
        res = train_steps(m, self.corpus, self.cfg, 1)
        save_checkpoint(m, tmp_path / "ckpt.bin", state=res.state)
        return m, res.state

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

        train_steps(m, self.corpus, self.cfg, 1, state=state)
        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(Crash):
            save_checkpoint(m, path, state=state)
        monkeypatch.undo()
        assert path.read_bytes() == before
        loaded = tiny_model(vocab=11, seq=8)
        load_checkpoint(loaded, path)
        assert loaded.step == 1

    def test_every_truncation_is_a_config_error(self, tmp_path):
        m, _ = self.saved(tmp_path)
        full = (tmp_path / "ckpt.bin").read_bytes()
        state = TrainState.fresh(m, self.cfg)
        cut_path = tmp_path / "cut.bin"
        for cut in range(len(full)):
            cut_path.write_bytes(full[:cut])
            with pytest.raises(ConfigError):
                load_checkpoint(m, cut_path, state=state)
        cut_path.write_bytes(full)
        load_checkpoint(m, cut_path, state=state)

    def test_old_flat_format_is_a_config_error(self, tmp_path):
        """Earlier versions wrote the params as raw float64 bytes."""
        m = tiny_model(vocab=11, seq=8)
        path = tmp_path / "ckpt.bin"
        path.write_bytes(np.concatenate([p.data.ravel() for p in m.params.values()])
                         .tobytes())
        with pytest.raises(ConfigError):
            load_checkpoint(m, path)


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
