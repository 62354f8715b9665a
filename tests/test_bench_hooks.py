"""The benchmark under perfbench/ times the package by wrapping its
functions by name from outside. A rename in src/ must fail here rather
than only print "not found, not traced" and zero the per-layer metrics."""

import importlib
import json
import os

import numpy as np

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
        brainformer.ModelSpec(block, 1, brainformer.training.BYTE_VOCAB, 16), seed=0)
    tracer = importlib.import_module("tracer").Tracer(brainformer)
    tracer.install()
    try:
        brainformer.evaluate_perplexity(model, corpus, seq_len=16)
    finally:
        tracer.uninstall()
    assert corpus.valid_ids.size == 100
    assert tracer.eval_tokens == 96


def test_traced_train_counts_only_scored_tokens(monkeypatch, tmp_path):
    """A ``train`` run's checks before training draw no evaluation window:
    the tracer counts exactly the tokens the validation pass scored. A
    120-byte validation slice in 16-token windows, capped at 64 tokens,
    scores 4 windows."""
    monkeypatch.syspath_prepend(PERFBENCH)
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(bytes(range(200)) * 3)
    genome = tmp_path / "genome.json"
    genome.write_text(json.dumps(brainformer.BlockSpec(
        layers=("attn", "moe"), d=8, d_moe=8, d_ffn=8, h=2, d_head=4, g="top2",
        c=2, a="relu", n_experts=2).to_json_dict()))
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"batch_size": 2, "seq_len": 16, "max_steps": 2,
                                  "valid_fraction": 0.2, "eval_tokens": 64}))
    tracer = importlib.import_module("tracer").Tracer(brainformer)
    tracer.install()
    try:
        assert brainformer.cli.main(["train", "--genome", str(genome),
                                     "--corpus", str(corpus), "--config", str(config),
                                     "--out", str(tmp_path / "run")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.eval_tokens == 64


def test_one_attention_span_per_attention_layer(monkeypatch):
    """``layers.attention_ms`` sums the ``layers.attention_forward`` spans:
    a traced forward and backward of a model with two attention sub-layers
    records exactly two."""
    monkeypatch.syspath_prepend(PERFBENCH)
    block = brainformer.BlockSpec(layers=("attn", "ffn", "attn"), d=8, d_moe=8, d_ffn=8,
                                  h=2, d_head=4, g="top2", c=1, a="relu", n_experts=1)
    model = brainformer.LanguageModel(brainformer.ModelSpec(block, 1, 11, 8), seed=0)
    tokens = np.arange(17) % 11
    tracer = importlib.import_module("tracer").Tracer(brainformer, full=True)
    tracer.install()
    try:
        loss, _ = brainformer.model.lm_loss(model, tokens[:-1], tokens[1:], seq_len=8)
        loss.backward()
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("layers.attention_forward") == 2
    assert names.count("tensor.backward") == 1
