"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL
verdict line (written straight to the real stdout so it is visible even
under pytest capture). Run the whole file with:

    pytest tests/test_acceptance.py -v
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from brainformer import layers as L
from brainformer import tensor as T
from brainformer.layers import (
    AttentionConfig, FfnConfig, MoeConfig, attention_forward, ffn_forward,
    gate_scores, moe_forward, route_top2, route_expert_choice,
    init_attention_params, init_ffn_params, init_moe_params,
)
from brainformer.model import (
    BlockSpec, ModelSpec, LanguageModel, count_params, lm_loss,
    glam_baseline_block, step_cost_units,
)
from brainformer.search import (
    SearchSpace, SurrogateRunner, ProxyTrainingRunner, evolve, finalize_topk,
    proxy_model_spec, STOP_COMPLETED,
)
from brainformer.tensor import Tensor
from brainformer.training import (
    ByteCorpus, TrainConfig, TrainState, train_steps, evaluate_perplexity,
)

from helpers import finite_difference_check, brute_force_top2, tsum

ACTIVATIONS = ("relu", "gelu", "gated_relu", "gated_gelu")
GATINGS = ("top2", "expert_choice")

_capman = None


@pytest.fixture(autouse=True)
def _expose_capture_manager(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(text):
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(text, flush=True)
    else:
        print(text, flush=True)


def verdict(n, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    _emit(f"[{tag}] criterion {n}: {desc}{suffix}")
    assert ok, f"criterion {n} failed: {desc}{suffix}"


def test_criterion_01_gradient_suite():
    """Finite differences validate every layer type and a full three-layer
    block (both gatings, all four activations) on all parameters."""
    started = time.monotonic()
    worst_overall = 0.0
    rng = np.random.default_rng(0)

    # individual layers
    acfg = AttentionConfig(model_dim=8, n_heads=2, head_dim=4)
    ap = init_attention_params(acfg, np.random.default_rng(1))
    x = Tensor(rng.normal(size=(5, 8)))
    w = rng.normal(size=(5, 8))
    worst, _ = finite_difference_check(
        ap, lambda: tsum(T.mul(attention_forward(x, acfg, ap), w)), rng=rng)
    worst_overall = max(worst_overall, worst)
    for a in ACTIVATIONS:
        fcfg = FfnConfig(model_dim=8, hidden_dim=12, activation=a)
        fp = init_ffn_params(fcfg, np.random.default_rng(2))
        worst, _ = finite_difference_check(
            fp, lambda: tsum(T.mul(ffn_forward(x, fcfg, fp), w)), rng=rng)
        worst_overall = max(worst_overall, worst)
    for g in GATINGS:
        mcfg = MoeConfig(model_dim=8, expert_hidden_dim=12, n_experts=2,
                         gating=g, capacity_factor=2, activation="gelu")
        mp = init_moe_params(mcfg, np.random.default_rng(3))
        worst, _ = finite_difference_check(
            mp, lambda: tsum(T.mul(moe_forward(x, mcfg, mp)[0], w)), rng=rng)
        worst_overall = max(worst_overall, worst)

    # full blocks through the LM head
    for g, a in itertools.product(GATINGS, ACTIVATIONS):
        spec = BlockSpec(layers=("attn", "moe", "ffn"), d=8, d_moe=12,
                         d_ffn=12, h=2, d_head=4, g=g, c=2, a=a, n_experts=2)
        ms = ModelSpec(block=spec, n_blocks=1, vocab_size=7, max_seq_len=5)
        m = LanguageModel(ms, seed=3)
        toks = rng.integers(0, 7, size=5)
        targ = rng.integers(0, 7, size=5)
        worst, name = finite_difference_check(
            m.params, lambda: lm_loss(m, toks, targ)[0], rng=rng)
        worst_overall = max(worst_overall, worst)

    elapsed = time.monotonic() - started
    verdict(1, "gradient suite on all layer types and full blocks",
            worst_overall < 1e-4 and elapsed < 60.0,
            f"worst rel err {worst_overall:.2e}, {elapsed:.1f}s")


def test_criterion_02_expert_choice_load_balance():
    """Expert-choice routing gives every expert exactly its capacity over
    1,000 random batches."""
    rng = np.random.default_rng(10)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(8, 65))
        e = int(rng.choice([2, 4, 8]))
        # an expert holds distinct tokens, so its quota floor(c*n/e) can
        # only be met when c <= e
        c = int(rng.integers(1, min(4, e) + 1))
        cap = (c * n) // e
        scores = gate_scores(Tensor(rng.normal(size=(n, 4))),
                             Tensor(rng.normal(size=(4, e))))
        decision = route_expert_choice(scores, cap)
        loads = decision.per_expert_tokens(e)
        if any(len(loads[ex]) != cap for ex in range(e)):
            violations += 1
    verdict(2, "expert-choice perfect load balance over 1000 batches",
            violations == 0, f"{violations} violations")


def test_criterion_03_top2_matches_brute_force():
    """Greedy top-2 routing matches a literal simulation oracle and its
    capacity/assignment invariants over 1,000 random batches."""
    rng = np.random.default_rng(11)
    mismatches = 0
    invariant_breaks = 0
    for _ in range(1000):
        n = int(rng.integers(8, 65))
        e = int(rng.choice([2, 4, 8]))
        c = int(rng.integers(1, 5))
        cap = (c * n) // e
        scores = gate_scores(Tensor(rng.normal(size=(n, 4))),
                             Tensor(rng.normal(size=(4, e))))
        decision = route_top2(scores, cap)
        want_assign, want_dropped = brute_force_top2(scores.data, cap)
        got = [(t, ex, w) for t, ex, w in decision.assignments]
        if got != want_assign or decision.dropped_tokens != want_dropped:
            mismatches += 1
        loads = decision.per_expert_tokens(e)
        if any(len(toks) > cap for toks in loads):
            invariant_breaks += 1
        per_token = {}
        for t, ex, w in decision.assignments:
            per_token[t] = per_token.get(t, 0) + 1
        for t in range(n):
            if t in decision.dropped_tokens:
                if t in per_token:
                    invariant_breaks += 1
            elif not 1 <= per_token.get(t, 0) <= 2:
                invariant_breaks += 1
    verdict(3, "top-2 routing matches brute-force oracle over 1000 batches",
            mismatches == 0 and invariant_breaks == 0,
            f"{mismatches} mismatches, {invariant_breaks} invariant breaks")


def test_criterion_04_single_expert_equals_dense():
    """An E=1 mixture layer is numerically a dense FFN with the same
    weights."""
    rng = np.random.default_rng(12)
    fcfg = FfnConfig(model_dim=8, hidden_dim=16, activation="gelu")
    fp = init_ffn_params(fcfg, np.random.default_rng(4))
    mcfg = MoeConfig(model_dim=8, expert_hidden_dim=16, n_experts=1,
                     gating="top2", capacity_factor=1, activation="gelu")
    mp = {"wg": Tensor(np.zeros((8, 1)), requires_grad=True)}
    for name, p in fp.items():
        mp[f"expert0.{name}"] = p
    worst = 0.0
    for _ in range(100):
        x = Tensor(rng.normal(size=(6, 8)))
        dense = ffn_forward(x, fcfg, fp)
        mixed, _, _ = moe_forward(x, mcfg, mp)
        worst = max(worst, float(np.max(np.abs(dense.data - mixed.data))))
    verdict(4, "E=1 mixture layer equals dense FFN within 1e-10",
            worst < 1e-10, f"max abs diff {worst:.2e}")


def test_criterion_05_causality_bitwise():
    """Perturbing token j leaves logits at earlier positions bitwise
    unchanged (dense and top-2 layers; expert-choice selects tokens per
    expert across the whole batch and is not causal by design)."""
    spec = BlockSpec(layers=("attn", "ffn", "moe"), d=8, d_moe=16, d_ffn=16,
                     h=2, d_head=4, g="top2", c=2, a="gelu", n_experts=2)
    ms = ModelSpec(block=spec, n_blocks=1, vocab_size=11, max_seq_len=12)
    m = LanguageModel(ms, seed=5)
    rng = np.random.default_rng(13)
    breaks = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        toks = rng.integers(0, 11, size=n)
        j = int(rng.integers(1, n))
        base, _ = m.forward(toks, seq_len=n)
        other = toks.copy()
        other[j] = (other[j] + 1 + rng.integers(0, 10)) % 11
        pert, _ = m.forward(other, seq_len=n)
        if not np.array_equal(base.data[:j], pert.data[:j]):
            breaks += 1
    verdict(5, "bitwise causality over 100 perturbed inputs",
            breaks == 0, f"{breaks} breaks")


def _enumerate_param_oracle(ms):
    """Count parameters by instantiating the model and walking every
    tensor, classifying each by name."""
    m = LanguageModel(ms, seed=0)
    act_experts = min(ms.block.c if ms.block.g == "expert_choice" else 2,
                      ms.block.n_experts)
    total = act = total_ne = act_ne = 0
    for name, p in m.params.items():
        size = p.data.size
        vocab_group = name in ("embed", "pos", "out")
        expert_idx = None
        if ".expert" in name:
            expert_idx = int(name.split(".expert")[1].split(".")[0])
        total += size
        if not vocab_group:
            total_ne += size
        if expert_idx is None or expert_idx < act_experts:
            act += size
            if not vocab_group:
                act_ne += size
    return total, act, total_ne, act_ne


def test_criterion_06_param_accounting():
    """Analytic parameter counts match a tensor-walk oracle on 50 random
    genomes; E=1 collapses total to activated; the published 0.1B/32E
    reference is compared for information only."""
    rng = np.random.default_rng(14)
    mismatch = 0
    for _ in range(50):
        layers = ["attn"]
        for _ in range(int(rng.integers(1, 4))):
            layers.append(str(rng.choice(["attn", "ffn", "moe"])))
        rng.shuffle(layers)
        if "attn" not in layers:
            layers[0] = "attn"
        spec = BlockSpec(
            layers=tuple(layers), d=int(rng.choice([4, 8, 16])),
            d_moe=int(rng.choice([8, 16])), d_ffn=int(rng.choice([8, 16])),
            h=int(rng.integers(1, 3)), d_head=int(rng.choice([2, 4])),
            g=str(rng.choice(GATINGS)), c=int(rng.integers(1, 5)),
            a=str(rng.choice(ACTIVATIONS)), n_experts=int(rng.integers(1, 5)))
        ms = ModelSpec(block=spec, n_blocks=int(rng.integers(1, 3)),
                       vocab_size=int(rng.integers(5, 30)),
                       max_seq_len=int(rng.integers(4, 9)))
        pc = count_params(ms)
        if (pc.n_params, pc.n_act_params, pc.n_params_no_embed,
                pc.n_act_params_no_embed) != _enumerate_param_oracle(ms):
            mismatch += 1
        if spec.n_experts == 1 and pc.n_params != pc.n_act_params:
            mismatch += 1

    reference = ModelSpec(block=glam_baseline_block(a="gated_gelu"),
                          n_blocks=6, vocab_size=256000, max_seq_len=1024)
    rc = count_params(reference)
    _emit(f"[info] 0.1B/32E reconstruction vs published 1.9B total / 145M "
          f"activated: total {rc.n_params:,} "
          f"({100 * (rc.n_params - 1.9e9) / 1.9e9:+.1f}%), "
          f"activated-no-embed {rc.n_act_params_no_embed:,} "
          f"({100 * (rc.n_act_params_no_embed - 145e6) / 145e6:+.1f}%); "
          f"totals include embedding, position table, and untied output "
          f"projection, *_no_embed variants exclude all three")
    verdict(6, "parameter accounting matches tensor-walk oracle on 50 genomes",
            mismatch == 0, f"{mismatch} mismatches")


def test_criterion_07_overfit_tiny_corpus():
    """A four-layer expert-choice genome memorizes a fixed 1,024-byte
    corpus to training perplexity < 1.1 within 2,000 steps."""
    started = time.monotonic()
    spec = BlockSpec(layers=("attn", "moe", "ffn", "moe"), d=64, d_moe=128,
                     d_ffn=128, h=4, d_head=16, g="expert_choice", c=1,
                     a="gated_gelu", n_experts=4)
    ms = ModelSpec(block=spec, n_blocks=1, vocab_size=258, max_seq_len=64)
    model = LanguageModel(ms, seed=0)
    text = ("the quick brown fox jumps over the lazy dog. " * 30)[:1024]
    assert len(text) == 1024
    corpus = ByteCorpus(text.encode(), valid_fraction=0.0)
    cfg = TrainConfig(base_lr=0.05, warmup_constant_steps=100, batch_size=4,
                      seq_len=64, valid_fraction=0.0, log_every=50)
    ppl = float("inf")
    state = TrainState.fresh(model, cfg)  # carried across chunks: one run
    while state.step < 2000:
        train_steps(model, corpus, cfg, 100, state)
        ppl = evaluate_perplexity(model, corpus, split="train", seq_len=64,
                                  max_tokens=512)
        if ppl < 1.1:
            break
    elapsed = time.monotonic() - started
    verdict(7, "overfit to perplexity < 1.1 within 2000 steps",
            ppl < 1.1 and state.step <= 2000 and elapsed < 300.0,
            f"ppl {ppl:.4f} at step {state.step}, {elapsed:.1f}s")


def _toy_search_space():
    return SearchSpace(k_choices=(2,), layer_kinds=("attn", "moe"),
                       d_choices=(8, 16), d_moe_choices=(16,),
                       d_ffn_choices=(16,), h_choices=(2,),
                       g_choices=GATINGS, c_choices=(1, 2),
                       a_choices=("relu",), n_experts=2, d_head=4)


def _toy_search_baseline():
    return BlockSpec(layers=("attn", "moe"), d=16, d_moe=16, d_ffn=16, h=2,
                     d_head=4, g="top2", c=2, a="relu", n_experts=2)


def test_criterion_08_search_finds_argmax():
    """On an exhaustively enumerable toy space the evolutionary search
    recovers the constraint-respecting argmax in at least 95 of 100 seeded
    runs; every step-time violator scores -1 and never reaches the top-k."""
    space = _toy_search_space()
    genomes = space.enumerate(limit=64)
    oracle_runner = SurrogateRunner(budget_cost_units=5e9,
                                    baseline_genome=_toy_search_baseline())
    baseline = oracle_runner.baseline_record()
    oracle = [oracle_runner._evaluate(g, i, None, baseline)
              for i, g in enumerate(genomes)]
    completed = [r for r in oracle if r.stop_reason == STOP_COMPLETED]
    best_reward = max(r.reward for r in completed)
    violator_genomes = {str(r.genome) for r in oracle
                        if r.step_time > baseline.step_time}
    bad_rewards = [r.reward for r in oracle
                   if r.step_time > baseline.step_time and r.reward != -1.0]

    hits = 0
    violator_in_topk = 0
    for seed in range(100):
        runner = SurrogateRunner(budget_cost_units=5e9,
                                 baseline_genome=_toy_search_baseline())
        state = evolve(space, p=8, rounds=16, runner=runner, seed=seed)
        got = max((r.reward for r in state.completed()), default=None)
        if got is not None and abs(got - best_reward) < 1e-12:
            hits += 1
        topk = finalize_topk(state, k=3)
        for sel in topk["selected"]:
            if str(sel["genome"]) in violator_genomes:
                violator_in_topk += 1
    verdict(8, "toy-space search recovers the exhaustive argmax",
            hits >= 95 and violator_in_topk == 0 and not bad_rewards,
            f"{hits}/100 hits, {violator_in_topk} violators in top-k, "
            f"{len(bad_rewards)} violators without reward -1")


def test_criterion_09_budget_fairness():
    """Under a fixed cost budget a candidate with half the per-step cost
    completes twice the steps, to within one step of granularity; real
    proxy training trains exactly floor(budget / cost) steps."""
    from brainformer.search import Candidate
    budget = 1001.0
    runner = SurrogateRunner(budget_cost_units=budget,
                             baseline_genome=_toy_search_baseline(),
                             cost_fn=lambda g: 2.0 if g.d == 16 else 1.0)
    slow = runner.evaluate(Candidate(genome=_toy_search_baseline(), id=0))
    fast_genome = _toy_search_baseline().__class__(
        layers=("attn", "moe"), d=8, d_moe=16, d_ffn=16, h=2, d_head=4,
        g="top2", c=2, a="relu", n_experts=2)
    fast = runner.evaluate(Candidate(genome=fast_genome, id=1))
    surrogate_ok = abs(fast.steps - 2 * slow.steps) <= 1

    # real proxy training obeys the same contract: a trial of each of two
    # genomes of different analytic cost trains floor(budget / cost) steps
    corpus = ByteCorpus(bytes(range(256)), valid_fraction=0.0)
    cfg = TrainConfig(batch_size=1, seq_len=8, valid_fraction=0.0, eval_tokens=64)
    genomes = [BlockSpec(layers=layers, d=8, d_moe=16, d_ffn=16, h=2, d_head=4,
                         g="top2", c=2, a="relu", n_experts=2)
               for layers in (("attn", "ffn"), ("attn",))]
    costs = [step_cost_units(proxy_model_spec(g, max_seq_len=8), 1, 8)
             for g in genomes]
    loop_budget = 12.5 * costs[0]
    proxy = ProxyTrainingRunner(corpus, cfg, budget_cost_units=loop_budget,
                                baseline_genome=genomes[0])
    trained = [proxy._evaluate(g, i, None, None).steps
               for i, g in enumerate(genomes)]
    loop_ok = trained == [math.floor(loop_budget / c) for c in costs] \
        and trained[0] < trained[1]
    verdict(9, "half per-step cost completes twice the steps (within 1)",
            surrogate_ok and loop_ok,
            f"surrogate {slow.steps}/{fast.steps}, "
            f"loop {trained[0]}/{trained[1]}")


def test_criterion_10_search_determinism(tmp_path):
    """A fixed-seed surrogate search (population 16, 10 rounds) writes a
    byte-identical ledger across repeat runs and across a crash-resume at
    round 5."""
    space = _toy_search_space()

    def run(path, rounds, resume=False):
        runner = SurrogateRunner(budget_cost_units=5e9,
                                 baseline_genome=_toy_search_baseline())
        evolve(space, p=16, rounds=rounds, runner=runner, seed=42,
               ledger_path=str(path), resume=resume)

    a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    run(a, 10)
    run(b, 10)
    run(c, 5)
    run(c, 10, resume=True)
    repeat_ok = a.read_bytes() == b.read_bytes()
    resume_ok = a.read_bytes() == c.read_bytes()
    verdict(10, "byte-identical ledger across runs and crash-resume",
            repeat_ok and resume_ok,
            f"repeat {repeat_ok}, resume {resume_ok}")
