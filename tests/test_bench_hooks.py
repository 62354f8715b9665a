"""The benchmark under perfbench/ times the package by wrapping its
functions by name from outside. A rename in src/ must fail here rather
than only print "not found, not traced" and zero the per-layer metrics."""

import importlib
import os

import brainformer
import brainformer.cli  # noqa: F401  (the tracer wraps cli.main too)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_finds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer").Tracer(brainformer, full=True)
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_tracer_counts_scored_eval_tokens(monkeypatch):
    """``eval_tok_per_s`` divides the tracer's ``eval_tokens`` by eval time,
    so one ``evaluate_perplexity`` call must add exactly the targets it
    scored: a 100-byte validation slice in 16-token windows scores 6
    windows (starts 0, 16, ..., 80), 96 targets."""
    monkeypatch.syspath_prepend(PERFBENCH)
    corpus = brainformer.ByteCorpus(bytes(range(200)) * 5, valid_fraction=0.1)
    block = brainformer.BlockSpec(layers=("attn",), d=8, d_moe=8, d_ffn=8, h=2,
                                  d_head=4, g="top2", c=1, a="relu", n_experts=1)
    model = brainformer.LanguageModel(
        brainformer.ModelSpec(block, 1, corpus.vocab_size, 16), seed=0)
    tracer = importlib.import_module("tracer").Tracer(brainformer)
    tracer.install()
    try:
        brainformer.evaluate_perplexity(model, corpus, seq_len=16)
    finally:
        tracer.uninstall()
    assert corpus.valid_ids.size == 100
    assert tracer.eval_tokens == 96
