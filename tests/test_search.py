import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from brainformer.model import BlockSpec, ConfigError, glam_baseline_block
from brainformer.training import ByteCorpus, TrainConfig
from brainformer.search import (
    SearchSpace, Candidate, TrialRecord, EvolutionState, SurrogateRunner,
    ProxyTrainingRunner,
    sample_candidate, mutate, evolve, finalize_topk, run_trial,
    read_ledger, record_to_line, proxy_model_spec,
    STOP_COMPLETED, STOP_STEP_TIME, STOP_PERPLEXITY, STOP_BASELINE,
    STOP_DIVERGED,
)


def toy_space(**kw):
    base = dict(k_choices=(2, 3), layer_kinds=("attn", "moe"),
                d_choices=(8, 16), d_moe_choices=(16,), d_ffn_choices=(16,),
                h_choices=(2,), g_choices=("top2", "expert_choice"),
                c_choices=(1, 2), a_choices=("relu",),
                n_experts=2, d_head=4)
    base.update(kw)
    return SearchSpace(**base)


def toy_baseline():
    return BlockSpec(layers=("attn", "moe"), d=8, d_moe=16, d_ffn=16, h=2,
                     d_head=4, g="top2", c=2, a="relu", n_experts=2)


class TestSearchSpace:
    def test_defaults_cover_published_table(self):
        s = SearchSpace()
        assert s.d_choices == (512, 768, 1024)
        assert s.d_moe_choices == (1536, 2048, 3072, 4096)
        assert s.h_choices == (12, 16, 20)
        assert set(s.g_choices) == {"top2", "expert_choice"}
        assert s.c_choices == (1, 2, 3, 4)
        assert set(s.a_choices) == {"relu", "gelu", "gated_relu", "gated_gelu"}

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ConfigError):
            SearchSpace.from_dict({"d_choices": [8], "depth": 3})

    def test_empty_domain_rejected(self):
        with pytest.raises(ConfigError):
            toy_space(d_choices=())

    def test_domain_must_be_a_list(self):
        with pytest.raises(ConfigError, match="d_choices must be a JSON list"):
            SearchSpace.from_dict({"d_choices": 64})

    def test_expert_choice_capacity_above_experts_rejected(self):
        with pytest.raises(ConfigError, match="expert choice needs c <= n_experts"):
            toy_space(c_choices=(1, 2, 3))
        # top-2 routing caps nothing at the token count
        assert toy_space(g_choices=("top2",), c_choices=(1, 2, 3)).c_choices == (1, 2, 3)

    def test_contains(self):
        s = toy_space()
        assert s.contains(toy_baseline())
        assert not s.contains(toy_baseline().__class__(
            layers=("attn", "moe"), d=32, d_moe=16, d_ffn=16, h=2, d_head=4,
            g="top2", c=2, a="relu", n_experts=2))

    def test_enumerate_counts(self):
        s = toy_space()
        genomes = s.enumerate()
        # k=2: 3 attn-containing layouts; k=3: 7. times 2 d * 2 g * 2 c
        assert len(genomes) == (3 + 7) * 8
        assert len(set(genomes)) == len(genomes)
        assert all(s.contains(g) for g in genomes)

    def test_enumerate_limit(self):
        with pytest.raises(ConfigError):
            toy_space().enumerate(limit=10)


class TestSample:
    def test_always_has_attention(self):
        s = toy_space()
        for i in range(200):
            cand = sample_candidate(s, random.Random(i), cand_id=i)
            assert "attn" in cand.genome.layers
            assert s.contains(cand.genome)

    def test_field_marginals_uniform(self):
        # binomial 4-sigma bound on each binary field over n draws
        s = toy_space()
        n = 4000
        counts = {"d": 0, "g": 0, "c": 0, "k": 0}
        for i in range(n):
            g = sample_candidate(s, random.Random(i)).genome
            counts["d"] += g.d == 8
            counts["g"] += g.g == "top2"
            counts["c"] += g.c == 1
            counts["k"] += len(g.layers) == 2
        for name in ("d", "g", "c"):
            sigma = math.sqrt(n * 0.25)
            assert abs(counts[name] - n / 2) < 4 * sigma, (name, counts[name])
        # rejecting attention-free layouts skews the length marginal:
        # P(k=2 | accepted) = (1/2 * 3/4) / (1/2 * 3/4 + 1/2 * 7/8)
        pk2 = 0.375 / 0.8125
        sigma = math.sqrt(n * pk2 * (1 - pk2))
        assert abs(counts["k"] - n * pk2) < 4 * sigma, counts["k"]

    def test_support_coverage(self):
        s = toy_space()
        seen = set()
        for i in range(500):
            g = sample_candidate(s, random.Random(i)).genome
            seen.add((g.d, g.g, g.c, len(g.layers), g.layers))
        assert {v[0] for v in seen} == {8, 16}
        assert {v[1] for v in seen} == {"top2", "expert_choice"}
        assert {v[2] for v in seen} == {1, 2}
        assert {v[3] for v in seen} == {2, 3}

    def test_unsatisfiable_space(self):
        """A space whose blocks can hold no attention layer is refused
        when it is made, before any draw."""
        with pytest.raises(ConfigError, match="needs at least one attention layer"):
            toy_space(layer_kinds=("moe",))


class TestMutate:
    def diff_fields(self, a, b):
        out = []
        for f in ("layers", "d", "d_moe", "d_ffn", "h", "g", "c", "a"):
            if getattr(a, f) != getattr(b, f):
                out.append(f)
        return out

    def test_changes_exactly_one_field(self):
        s = toy_space()
        parent = toy_baseline()
        for i in range(300):
            child = mutate(parent, s, random.Random(i))
            assert len(self.diff_fields(parent, child)) == 1
            assert "attn" in child.layers

    def test_singleton_fields_never_mutated(self):
        s = toy_space()
        parent = toy_baseline()
        for i in range(300):
            child = mutate(parent, s, random.Random(i))
            assert child.d_moe == 16 and child.d_ffn == 16
            assert child.h == 2 and child.a == "relu"

    def test_all_mutation_sites_reachable(self):
        s = toy_space()
        parent = toy_baseline()
        touched = set()
        for i in range(500):
            child = mutate(parent, s, random.Random(i))
            touched.add(self.diff_fields(parent, child)[0])
        assert touched == {"layers", "d", "g", "c"}

    def test_layer_mutation_stays_in_space(self):
        s = toy_space()
        parent = toy_baseline()
        for i in range(300):
            assert s.contains(mutate(parent, s, random.Random(i)))

    def test_no_mutable_fields(self):
        s = toy_space(k_choices=(2,), layer_kinds=("attn",), d_choices=(8,),
                      g_choices=("top2",), c_choices=(1,))
        parent = BlockSpec(layers=("attn", "attn"), d=8, d_moe=16, d_ffn=16,
                           h=2, d_head=4, g="top2", c=1, a="relu", n_experts=2)
        with pytest.raises(ConfigError):
            mutate(parent, s, random.Random(0))

    def test_repeated_value_is_one_choice(self):
        """A domain whose values are all equal is not mutable; one that
        repeats a value besides another still mutates to it."""
        parent = toy_baseline()
        with pytest.raises(ConfigError, match="no mutable fields"):
            mutate(parent, toy_space(k_choices=(2, 2), layer_kinds=("attn", "attn"),
                                     d_choices=(8, 8), g_choices=("top2",),
                                     c_choices=(2,)), random.Random(0))
        s = toy_space(k_choices=(2,), layer_kinds=("attn",), d_choices=(8, 8, 16),
                      g_choices=("top2",), c_choices=(2,))
        children = {mutate(parent, s, random.Random(i)).d for i in range(20)}
        assert children == {16}


class TestEarlyStop:
    """``run_trial``'s two prunes compare strictly against the baseline:
    equal step time or equal quality continues. Stub callbacks log what
    ran; a budget of 8 at step time 1 trains 2 steps, then 6."""

    def run(self, step_time, quality, baseline_quality=5.0):
        baseline = TrialRecord(trial_id=-1, parent_id=None, genome={},
                               step_time=1.0, cost_per_step=1.0, steps=8,
                               final_loss=1.0, reward=-1.0,
                               stop_reason=STOP_BASELINE,
                               quality_25=baseline_quality)
        calls = []

        def train(n):
            calls.append(("train", n))
            return n, [], False

        def measure(step):
            calls.append(("quality", step))
            return quality
        rec = run_trial(toy_baseline(), 0, None, baseline, 8.0, step_time,
                        step_time, train, measure, lambda step: (1.0, []))
        return rec.stop_reason, calls

    def test_step_time_strict(self):
        assert self.run(2.0, 4.0) == (STOP_STEP_TIME, [])
        assert self.run(1.0, 4.0)[0] == STOP_COMPLETED
        assert self.run(0.5, 4.0)[0] == STOP_COMPLETED

    def test_quality_strict(self):
        assert self.run(1.0, 5.1) == (STOP_PERPLEXITY,
                                      [("train", 2), ("quality", 2)])
        assert self.run(1.0, 5.0) == (STOP_COMPLETED,
                                      [("train", 2), ("quality", 2), ("train", 6)])
        assert self.run(1.0, 4.9)[0] == STOP_COMPLETED

    def test_step_time_checked_first(self):
        # pruned before any training or quality measurement
        assert self.run(2.0, 6.0) == (STOP_STEP_TIME, [])

    def test_baseline_without_quality_never_prunes(self):
        # a baseline that diverged before its 25% checkpoint has no quality
        assert self.run(1.0, 1e9, baseline_quality=None)[0] == STOP_COMPLETED


class TestSurrogateRunner:
    def test_steps_floor_of_budget(self):
        r = SurrogateRunner(budget_cost_units=10.0, baseline_genome=toy_baseline(),
                            cost_fn=lambda g: 3.0)
        rec = r.evaluate(Candidate(genome=toy_baseline(), id=0))
        assert rec.steps == 3

    def test_half_cost_doubles_steps(self):
        cheap = toy_baseline()
        costly = toy_baseline()
        costs = {id(cheap): 2.0, id(costly): 4.0}
        r = SurrogateRunner(budget_cost_units=100.0, baseline_genome=costly,
                            cost_fn=lambda g: costs[id(g)])
        rec_costly = r.evaluate(Candidate(genome=costly, id=0))
        rec_cheap = r.evaluate(Candidate(genome=cheap, id=1))
        assert rec_costly.steps == 25
        assert rec_cheap.steps == 50

    def test_budget_below_one_step(self):
        r = SurrogateRunner(budget_cost_units=1.0, baseline_genome=toy_baseline(),
                            cost_fn=lambda g: 5.0)
        rec = r.evaluate(Candidate(genome=toy_baseline(), id=0))
        assert rec.steps == 0
        assert rec.reward == -1.0
        assert rec.stop_reason == STOP_STEP_TIME

    def test_reward_matches_curve(self):
        r = SurrogateRunner(budget_cost_units=1e12, baseline_genome=toy_baseline())
        rec = r.evaluate(Candidate(genome=toy_baseline(), id=0))
        assert rec.stop_reason == STOP_COMPLETED
        assert abs(rec.reward + r.loss_curve(toy_baseline(), rec.steps)) < 1e-12
        assert rec.final_loss == -rec.reward

    def test_slower_than_baseline_pruned(self):
        big = mutate(toy_baseline(), toy_space(), random.Random(0))
        costs = lambda g: 1.0 if g == toy_baseline() else 9.0
        r = SurrogateRunner(budget_cost_units=100.0,
                            baseline_genome=toy_baseline(), cost_fn=costs)
        rec = r.evaluate(Candidate(genome=big, id=0))
        assert rec.stop_reason == STOP_STEP_TIME
        assert rec.reward == -1.0

    def test_baseline_record_cached(self):
        r = SurrogateRunner(budget_cost_units=1e12, baseline_genome=toy_baseline())
        assert r.baseline_record() is r.baseline_record()
        assert r.baseline_record().stop_reason == STOP_BASELINE
        assert r.baseline_record().trial_id == -1


class TestOneRunner:
    """The surrogate is a ``ProxyTrainingRunner`` that overrides only
    ``_trial``: both train their baseline once and price a step alike."""

    def runner(self, kind):
        if kind == "surrogate":
            return SurrogateRunner(budget_cost_units=1e12, batch_size=2, seq_len=8,
                                   baseline_genome=toy_baseline())
        proxy = TestProxyTrainingRunner()
        return ProxyTrainingRunner(proxy.corpus(), proxy.cfg(), budget_cost_units=3e6,
                                   baseline_genome=toy_baseline())

    @pytest.mark.parametrize("kind", ["surrogate", "proxy"])
    def test_baseline_trains_once(self, kind, monkeypatch):
        runner = self.runner(kind)
        trial, calls = runner._trial, []

        def counting(genome, trial_id):
            calls.append((genome, trial_id))
            return trial(genome, trial_id)
        monkeypatch.setattr(runner, "_trial", counting)
        other = replace(toy_baseline(), c=1)
        recs = [runner.evaluate(Candidate(genome=other, id=i)) for i in range(3)]
        assert runner.baseline_record() is runner.baseline_record()
        assert [c for c in calls if c[0] == toy_baseline()] == [(toy_baseline(), -1)]
        assert calls[1:] == [(other, 0), (other, 1), (other, 2)]
        assert [r.trial_id for r in recs] == [0, 1, 2]

    @pytest.mark.parametrize("genome", [toy_baseline(), replace(toy_baseline(), d=16),
                                        replace(toy_baseline(), layers=("attn",))])
    def test_step_cost_is_the_analytic_formula(self, genome):
        from brainformer.model import step_cost_units
        want = float(step_cost_units(proxy_model_spec(genome, max_seq_len=8), 2, 8))
        surrogate, proxy = self.runner("surrogate"), self.runner("proxy")
        assert surrogate.step_cost(genome) == proxy.step_cost(genome) == want
        assert surrogate.cost_fn(genome) == want
        # a proxy trial records it as its cost per step
        assert proxy._evaluate(genome, 0, None, None).cost_per_step == want

    @pytest.mark.parametrize("shape", [{"batch_size": 0}, {"seq_len": 0},
                                       {"batch_size": 2.0}])
    def test_surrogate_shape_checked_by_train_config(self, shape):
        with pytest.raises(ConfigError, match="must be an integer >= 1"):
            SurrogateRunner(budget_cost_units=1.0, **shape)


class TestLedger:
    def test_record_roundtrip(self):
        rec = TrialRecord(trial_id=3, parent_id=1,
                          genome=toy_baseline().to_json_dict(), step_time=1.0,
                          cost_per_step=1.0, steps=10, final_loss=2.5,
                          reward=-2.5, stop_reason=STOP_COMPLETED,
                          trajectory=[[1, 3.0]], quality_25=2.9)
        line = record_to_line(rec)
        back = TrialRecord.from_json_dict(json.loads(line))
        assert back == rec
        assert record_to_line(back) == line

    def test_canonical_key_order(self):
        rec = TrialRecord(trial_id=0, parent_id=None, genome={}, step_time=1.0,
                          cost_per_step=1.0, steps=0, final_loss=None,
                          reward=-1.0, stop_reason=STOP_STEP_TIME)
        doc = json.loads(record_to_line(rec))
        assert list(doc) == sorted(doc)

    def test_tolerant_read_skips_corrupt(self, tmp_path):
        rec = TrialRecord(trial_id=0, parent_id=None, genome={}, step_time=1.0,
                          cost_per_step=1.0, steps=0, final_loss=None,
                          reward=-1.0, stop_reason=STOP_STEP_TIME)
        path = tmp_path / "ledger.jsonl"
        path.write_text(record_to_line(rec) + "\n{broken\n" +
                        record_to_line(rec) + "\n")
        records, skipped = read_ledger(path)
        assert len(records) == 2
        assert skipped == 1

    @pytest.mark.parametrize("edit", [
        {"trial_id": "3"}, {"trial_id": -2}, {"trial_id": 3.0}, {"trial_id": True},
        {"parent_id": "1"}, {"parent_id": -1}, {"parent_id": 3}, {"parent_id": 4},
        {"reward": "-2.5"}, {"reward": None}, {"reward": False},
        {"step_time": "1.0"}, {"step_time": None}, {"quality_25": "2.9"},
        {"stop_reason": "done"}, {"stop_reason": None}, {"genome": [1]},
        {"steps": "many"}, {"steps": -1}, {"steps": 10.0}, {"steps": True},
        {"cost_per_step": None}, {"cost_per_step": "1.0"}, {"final_loss": "oops"},
        {"final_loss": True}, {"trajectory": {"step": 1}}, {"trajectory": None}])
    def test_record_fields_checked_where_parsed(self, edit):
        doc = {"trial_id": 3, "parent_id": 1, "genome": {}, "step_time": 1.0,
               "cost_per_step": 1.0, "steps": 10, "final_loss": 2.5,
               "reward": -2.5, "stop_reason": STOP_COMPLETED, "quality_25": 2.9}
        assert TrialRecord.from_json_dict(doc).trial_id == 3
        with pytest.raises(ConfigError, match="not a trial record"):
            TrialRecord.from_json_dict(dict(doc, **edit))

    def test_parent_must_be_an_earlier_trial(self, tmp_path):
        """Every real parent is an earlier trial, so a record naming itself,
        the baseline or a later trial is skipped: of two records naming
        each other, a cycle, the earlier one goes."""
        def rec(trial_id, parent_id):
            return TrialRecord(trial_id=trial_id, parent_id=parent_id, genome={},
                               step_time=1.0, cost_per_step=1.0, steps=0,
                               final_loss=None, reward=-1.0,
                               stop_reason=STOP_STEP_TIME)
        path = tmp_path / "ledger.jsonl"
        recs = [rec(0, None), rec(1, 0), rec(2, 3), rec(3, 2), rec(4, 4), rec(5, -1)]
        path.write_text("".join(record_to_line(r) + "\n" for r in recs))
        records, skipped = read_ledger(path)
        assert [(r.trial_id, r.parent_id) for r in records] == [(0, None), (1, 0),
                                                                 (3, 2)]
        assert skipped == 3


def run_toy_search(ledger_path=None, rounds=8, resume=False, seed=3):
    space = toy_space()
    runner = SurrogateRunner(budget_cost_units=1e12,
                             baseline_genome=toy_baseline())
    return evolve(space, p=4, rounds=rounds, runner=runner, seed=seed,
                  ledger_path=ledger_path, resume=resume)


class TestEvolve:
    def test_history_bookkeeping(self):
        state = run_toy_search()
        assert len(state.history) == 4 + 8
        assert [r.trial_id for r in state.history] == list(range(12))
        assert len(state.population()) == 4
        assert state.baseline.stop_reason == STOP_BASELINE

    def test_children_have_live_parents(self):
        state = run_toy_search()
        for rec in state.history[4:]:
            parent = state.history[rec.parent_id]
            # parent was in the population window when the child was bred
            assert rec.trial_id - 4 <= parent.trial_id < rec.trial_id

    def test_aging_eviction(self):
        state = run_toy_search()
        pop_ids = [r.trial_id for r in state.population()]
        assert pop_ids == [8, 9, 10, 11]

    def test_deterministic_ledger(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_toy_search(str(p1))
        run_toy_search(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_byte_identical(self, tmp_path):
        full = tmp_path / "full.jsonl"
        run_toy_search(str(full), rounds=8)
        part = tmp_path / "part.jsonl"
        run_toy_search(str(part), rounds=3)
        run_toy_search(str(part), rounds=8, resume=True)
        assert part.read_bytes() == full.read_bytes()

    def test_resume_mid_population(self, tmp_path):
        # crash after the baseline and two initial samples
        full = tmp_path / "full.jsonl"
        run_toy_search(str(full), rounds=6)
        part = tmp_path / "part.jsonl"
        lines = full.read_text().splitlines(keepends=True)
        part.write_text("".join(lines[:3]))
        run_toy_search(str(part), rounds=6, resume=True)
        assert part.read_bytes() == full.read_bytes()


    @pytest.mark.parametrize("change", ["seed", "baseline", "parent_id", "genome"])
    def test_resume_refuses_another_searchs_ledger(self, tmp_path, change):
        """A ledger whose replayed trials are not the ones this search
        proposes is a ConfigError, and the ledger is left as it was."""
        part = tmp_path / "part.jsonl"
        run_toy_search(str(part), rounds=3)
        lines = part.read_text().splitlines(keepends=True)
        seed, runner = 3, SurrogateRunner(budget_cost_units=1e12,
                                          baseline_genome=toy_baseline())
        if change == "seed":
            seed = 4
        elif change == "baseline":
            runner = SurrogateRunner(budget_cost_units=1e12,
                                     baseline_genome=replace(toy_baseline(), c=1))
        else:  # edit the last trial, a child, in the ledger
            doc = json.loads(lines[-1])
            if change == "parent_id":
                doc["parent_id"] = (doc["parent_id"] + 1) % 4
            else:
                doc["genome"]["c"] = 3 - doc["genome"]["c"]
            lines[-1] = record_to_line(TrialRecord.from_json_dict(doc)) + "\n"
            part.write_text("".join(lines))
        before = part.read_bytes()
        with pytest.raises(ConfigError, match="another search wrote the ledger"):
            evolve(toy_space(), p=4, rounds=8, runner=runner, seed=seed,
                   ledger_path=str(part), resume=True)
        assert part.read_bytes() == before


class TestProxyTrainingRunner:
    def corpus(self):
        rng = np.random.default_rng(0)
        return ByteCorpus(bytes(rng.integers(0, 256, 400, dtype=np.uint8)),
                          valid_fraction=0.2)

    def cfg(self):
        return TrainConfig(batch_size=2, seq_len=8, eval_tokens=64,
                           log_every=1)

    def test_requires_exactly_one_budget(self):
        with pytest.raises(ConfigError):
            ProxyTrainingRunner(self.corpus(), self.cfg())
        with pytest.raises(ConfigError):
            ProxyTrainingRunner(self.corpus(), self.cfg(),
                                budget_cost_units=1.0, budget_seconds=1.0)

    def test_completed_trial_trains_full_budget(self):
        # cost budget worth ~6 steps of the toy block
        from brainformer.model import step_cost_units
        cost = step_cost_units(proxy_model_spec(toy_baseline(), max_seq_len=8),
                               2, 8)
        runner = ProxyTrainingRunner(self.corpus(), self.cfg(),
                                     budget_cost_units=6.5 * cost,
                                     baseline_genome=toy_baseline())
        rec = runner.evaluate(Candidate(genome=toy_baseline(), id=0))
        assert rec.stop_reason == STOP_COMPLETED
        assert rec.steps == 6
        assert math.isfinite(rec.reward)
        assert abs(rec.reward + rec.final_loss) < 1e-12
        assert rec.quality_25 is not None

    def test_completed_trial_is_one_run(self):
        """Training resumes after the 25% checkpoint with the first chunk's
        optimizer and RNG, so the trial equals one uninterrupted run."""
        from brainformer.model import LanguageModel, step_cost_units
        from brainformer.training import TrainState, evaluate_perplexity, train_steps
        spec = proxy_model_spec(toy_baseline(), max_seq_len=8)
        cost = step_cost_units(spec, 2, 8)
        runner = ProxyTrainingRunner(self.corpus(), self.cfg(),
                                     budget_cost_units=6.5 * cost,
                                     baseline_genome=toy_baseline())
        rec = runner.evaluate(Candidate(genome=toy_baseline(), id=3))
        assert rec.stop_reason == STOP_COMPLETED
        model = LanguageModel(spec, seed=runner.seed)
        cfg = replace(self.cfg(), seed=3)  # the trial's seed: runner seed + id
        ref = train_steps(model, runner.corpus, cfg, 6, TrainState.fresh(model, cfg))
        assert rec.trajectory == [[r["step"], r["loss"]] for r in ref.records]
        assert rec.final_loss == math.log(evaluate_perplexity(
            model, runner.corpus, seq_len=8, max_tokens=64))

    def test_wallclock_trial_measures_once(self, monkeypatch):
        calls = []

        def fake_measure(model, corpus, cfg):
            calls.append(cfg.seed)
            return 0.25
        monkeypatch.setattr("brainformer.search.measure_step_time", fake_measure)
        runner = ProxyTrainingRunner(self.corpus(), replace(self.cfg(), seed=99),
                                     budget_seconds=2.0, seed=5,
                                     baseline_genome=toy_baseline())
        rec = runner.baseline_record()
        assert calls == [5]  # the trial's seed, not the train config's
        assert rec.step_time == 0.25
        assert rec.steps == 8

    def diverging_trial(self, monkeypatch, chunk):
        """A trial of the baseline genome (12 steps, checkpoint at 3) whose
        ``chunk``-th call to train_steps diverges one step before its end."""
        from brainformer.model import step_cost_units
        from brainformer.training import train_steps
        cost = step_cost_units(proxy_model_spec(toy_baseline(), max_seq_len=8),
                               2, 8)
        runner = ProxyTrainingRunner(self.corpus(), self.cfg(),
                                     budget_cost_units=12.5 * cost,
                                     baseline_genome=toy_baseline())
        baseline = runner.baseline_record()  # trains without the fault
        calls = []

        def faulty(model, corpus, cfg, n_steps, state, **kw):
            calls.append(n_steps)
            if len(calls) != chunk:
                return train_steps(model, corpus, cfg, n_steps, state, **kw)
            res = train_steps(model, corpus, cfg, n_steps - 1, state, **kw)
            res.diverged = True
            return res
        monkeypatch.setattr("brainformer.search.train_steps", faulty)
        # id 0 trains with the baseline's seed, so it passes the checkpoint
        rec = runner.evaluate(Candidate(genome=toy_baseline(), id=0))
        assert calls == [3, 9][:chunk]
        assert rec.stop_reason == STOP_DIVERGED
        assert rec.reward == -1.0
        assert rec.final_loss is None
        return rec, baseline

    def test_diverged_in_first_chunk(self, monkeypatch):
        rec, _ = self.diverging_trial(monkeypatch, chunk=1)
        assert rec.steps == 2
        assert rec.trajectory == []
        assert rec.quality_25 is None

    def test_diverged_in_second_chunk(self, monkeypatch):
        rec, baseline = self.diverging_trial(monkeypatch, chunk=2)
        assert rec.steps == 3 + 8
        assert rec.trajectory == baseline.trajectory[:3]
        assert [s for s, _ in rec.trajectory] == [1, 2, 3]
        assert rec.quality_25 == baseline.quality_25

    def test_costly_genome_pruned_on_step_time(self):
        from brainformer.model import step_cost_units
        cost = step_cost_units(proxy_model_spec(toy_baseline(), max_seq_len=8),
                               2, 8)
        runner = ProxyTrainingRunner(self.corpus(), self.cfg(),
                                     budget_cost_units=4 * cost,
                                     baseline_genome=toy_baseline())
        wide = toy_baseline().__class__(
            layers=("attn", "moe", "moe"), d=16, d_moe=32, d_ffn=32, h=2,
            d_head=8, g="top2", c=2, a="relu", n_experts=2)
        rec = runner.evaluate(Candidate(genome=wide, id=0))
        assert rec.stop_reason == STOP_STEP_TIME
        assert rec.reward == -1.0


class TestFinalize:
    def make_record(self, trial_id, reward, stop=STOP_COMPLETED):
        return TrialRecord(trial_id=trial_id, parent_id=None,
                           genome=toy_baseline().to_json_dict(), step_time=1.0,
                           cost_per_step=1.0, steps=5,
                           final_loss=-reward if stop == STOP_COMPLETED else None,
                           reward=reward, stop_reason=stop)

    def test_sorted_by_reward_then_id(self):
        recs = [self.make_record(0, -3.0), self.make_record(1, -1.0),
                self.make_record(2, -1.0), self.make_record(3, -2.0)]
        out = finalize_topk(EvolutionState(history=recs), k=3)
        assert [s["trial_id"] for s in out["selected"]] == [1, 2, 3]
        assert not out["flagged_short"]

    def test_pruned_trials_excluded(self):
        recs = [self.make_record(0, 5.0, stop=STOP_STEP_TIME),
                self.make_record(1, -2.0)]
        out = finalize_topk(EvolutionState(history=recs), k=2)
        assert [s["trial_id"] for s in out["selected"]] == [1]
        assert out["flagged_short"]
        assert out["n_completed"] == 1

    def test_scaled_specs(self):
        out = finalize_topk(EvolutionState(history=[self.make_record(0, -1.0)]), k=1,
                            factors=(2, 4), stacks=(6, 8))
        scaled = out["selected"][0]["scaled"]
        assert [(s["factor"], s["n_blocks"]) for s in scaled] == [(2, 6), (4, 8)]
        doc = scaled[0]["model"]
        assert doc["block"]["d"] == toy_baseline().d * 2
        assert doc["n_blocks"] == 6

    def test_mismatched_factors_stacks(self):
        with pytest.raises(ConfigError):
            finalize_topk(EvolutionState(history=[self.make_record(0, -1.0)]), k=1,
                          factors=(2,), stacks=(6, 8))

    def test_from_state(self, tmp_path):
        # pruning against the baseline means not every trial completes
        state = run_toy_search()
        out = finalize_topk(state, k=2)
        n_done = len(state.completed())
        assert out["n_completed"] == n_done
        assert len(out["selected"]) == min(2, n_done) >= 1
        rewards = [s["reward"] for s in out["selected"]]
        assert rewards == sorted(rewards, reverse=True)
        assert rewards[0] == max(r.reward for r in state.completed())
