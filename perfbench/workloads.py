"""The benchmark's workloads and the inputs each one is given.

Every input is generated here from the workload seed and written as the
files a user would pass to ``brainformer``: a genome JSON, a train or
search config JSON and a byte corpus. The program only ever sees those
files. The same seed and run length always give byte-identical inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

CORPUS_BYTES = 192 * 1024
VALID_FRACTION = 0.1

# the criterion-7 layer order (attn, moe, ffn, moe) at d=128, with many
# experts and per-token top-2 routing
WIDE_TOP2_GENOME = {
    "layers": ["attn", "moe", "ffn", "moe"], "d": 128, "d_moe": 256,
    "d_ffn": 256, "h": 4, "d_head": 32, "g": "top2", "c": 2,
    "a": "gated_gelu", "n_experts": 32,
}

# GLaM-like baseline of the proxy search; the runner stacks it 3 times
SEARCH_BASELINE_GENOME = {
    "layers": ["attn", "ffn", "attn", "moe"], "d": 64, "d_moe": 128,
    "d_ffn": 128, "h": 4, "d_head": 16, "g": "top2", "c": 2, "a": "gelu",
    "n_experts": 4,
}

SEARCH_SPACE = {
    "k_choices": [2, 3, 4, 5, 6], "d_choices": [32, 64],
    "d_moe_choices": [128], "d_ffn_choices": [128], "h_choices": [4],
    "g_choices": ["top2", "expert_choice"], "c_choices": [1, 2],
    "a_choices": ["relu", "gated_gelu"], "n_experts": 4, "d_head": 16,
}

# Analytic cost units of one training step of the baseline stacked 3 times
# at batch 2 x 32, as brainformer.model.step_cost_units gave when this
# benchmark was written. A fixed number, so the budget input stays the same
# if the cost model changes.
BASELINE_STEP_COST = 110444544.0

# The evolution's own seed stays fixed so that every run proposes the same
# genome sequence and contains completed, step-time-pruned and
# quality-pruned trials; the workload seed varies the corpus. (The proxy
# runner seeds model init and trial training from this seed too.) A trial
# mix that changed with the workload seed would swamp trials/hour.
SEARCH_EVOLUTION_SEED = 1
SEARCH_POPULATION = 4
SEARCH_ROUNDS = 8


@dataclass(frozen=True)
class TrainWorkload:
    """``brainformer train`` on one genome, then its validation pass."""

    name: str
    why: str
    genome: dict
    batch_size: int
    seq_len: int
    steps_per_second: float  # sizes a run: about this many steps per --seconds
    eval_tokens: int
    kind: str = "train"

    def steps(self, seconds):
        return max(3, round(self.steps_per_second * seconds))


@dataclass(frozen=True)
class SearchWorkload:
    """``brainformer search`` in proxy-training mode with a cost budget."""

    name: str
    why: str
    batch_size: int
    seq_len: int
    baseline_steps_per_second: float  # cost budget, in baseline steps per --seconds
    eval_tokens: int
    population: int = SEARCH_POPULATION
    rounds: int = SEARCH_ROUNDS
    kind: str = "search"

    def trials(self):
        return self.population + self.rounds


WORKLOADS = {w.name: w for w in (
    TrainWorkload(
        name="train-wide-top2",
        why="32 experts with top-2 routing: dispatch, routing, the optimizer "
            "over 192 expert matrices and memory dominate a step",
        genome=WIDE_TOP2_GENOME, batch_size=4, seq_len=128,
        steps_per_second=3.0, eval_tokens=16384),
    SearchWorkload(
        name="search-proxy",
        why="the only workload running search.py: per-trial model builds, "
            "short trainings, 25%-checkpoint evals and ledger I/O",
        batch_size=2, seq_len=32, baseline_steps_per_second=2.0,
        eval_tokens=1024),
)}


def _text(rng, vocab, n_bytes):
    weights = [1.0 / rank for rank in range(1, len(vocab) + 1)]
    parts, size = [], 0
    while size < n_bytes:
        sentence = " ".join(rng.choices(vocab, weights, k=rng.randint(4, 14)))
        sentence = sentence.capitalize() + rng.choice(".,;!?") + " "
        parts.append(sentence)
        size += len(sentence)
    return "".join(parts).encode("ascii")[:n_bytes]


def make_corpus(seed, n_bytes=CORPUS_BYTES):
    """Seeded word-level text over a Zipf-weighted vocabulary of random words.

    The vocabulary is the same for every seed, and so is the validation
    tail (the last ``VALID_FRACTION`` of the bytes, which the program holds
    out): the seed changes the training text only. Validation losses then
    compare across seeds, and the search's checkpoint comparisons do not
    flip with the evaluation sample.
    """
    vocab_rng = random.Random("perfbench-vocabulary")
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocab = ["".join(vocab_rng.choice(letters)
                     for _ in range(vocab_rng.randint(2, 8)))
             for _ in range(300)]
    n_valid = round(n_bytes * VALID_FRACTION)
    train = _text(random.Random(f"perfbench-corpus|{seed}"), vocab, n_bytes - n_valid)
    valid = _text(random.Random("perfbench-validation"), vocab, n_valid)
    return train + valid


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_inputs(workload, seed, seconds, in_dir):
    """Write the workload's input files; return (argv after ``brainformer``,
    facts the checks need)."""
    os.makedirs(in_dir, exist_ok=True)
    corpus = os.path.join(in_dir, "corpus.txt")
    with open(corpus, "wb") as fh:
        fh.write(make_corpus(seed))
    config = os.path.join(in_dir, "config.json")
    if workload.kind == "train":
        steps = workload.steps(seconds)
        genome = os.path.join(in_dir, "genome.json")
        _write_json(genome, dict(workload.genome, schema_version=1))
        _write_json(config, {
            "batch_size": workload.batch_size, "seq_len": workload.seq_len,
            "max_steps": steps, "seed": seed, "valid_fraction": VALID_FRACTION,
            "log_every": 1, "eval_tokens": workload.eval_tokens,
        })
        argv = ["train", "--genome", genome, "--corpus", corpus,
                "--config", config]
        return argv, {"ops": steps}
    budget_steps = workload.baseline_steps_per_second * seconds
    _write_json(config, {
        "mode": "train", "seed": SEARCH_EVOLUTION_SEED,
        "population": workload.population, "rounds": workload.rounds,
        "budget_mode": "cost",
        "budget": {"cost_units": budget_steps * BASELINE_STEP_COST},
        "corpus": corpus, "valid_fraction": VALID_FRACTION,
        "train": {"batch_size": workload.batch_size,
                  "seq_len": workload.seq_len, "log_every": 1,
                  "eval_tokens": workload.eval_tokens},
        "baseline_genome": dict(SEARCH_BASELINE_GENOME, schema_version=1),
        "space": SEARCH_SPACE, "workers": 1,
    })
    return ["search", "--config", config], {"ops": workload.trials()}

