"""The golden runs: short fixed runs of the command line whose output bytes
and losses ``tests/golden.json`` holds, keyed by the numpy and BLAS build
that produced them (``test_golden.py`` compares against it).

Run ``PYTHONPATH=src python tests/regen_golden.py`` to rewrite the file. A
change that means to move these numbers regenerates it and says so; any
other change must leave the file passing as it is.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from brainformer.cli import _one_blas_thread, main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
CONFIGS = HERE.parent / "configs"

# The relative loss gap allowed on another build. Under OPENBLAS_CORETYPE
# SandyBridge, Haswell or Prescott, and with one BLAS thread instead of two,
# these runs' losses differed from the SkylakeX kernels' by at most 9.1e-16
# relative (2-core x86_64 VM, numpy 2.4.6, OpenBLAS 0.3.31, before ``main``
# set one BLAS thread itself).
TOLERANCE = 1e-12

# The search-proxy baseline block (top-2) and an expert-choice block.
TOP2_BLOCK = {"layers": ["attn", "ffn", "attn", "moe"], "d": 64, "d_moe": 128,
              "d_ffn": 128, "h": 4, "d_head": 16, "g": "top2", "c": 2,
              "a": "gelu", "n_experts": 4, "schema_version": 1}
EXPERT_CHOICE_BLOCK = {"layers": ["attn", "moe", "ffn", "moe"], "d": 32, "d_moe": 64,
                       "d_ffn": 64, "h": 4, "d_head": 8, "g": "expert_choice",
                       "c": 2, "a": "gated_gelu", "n_experts": 4, "schema_version": 1}
TRAIN = {"batch_size": 2, "seq_len": 32, "max_steps": 30, "seed": 0,
         "valid_fraction": 0.1, "log_every": 1, "eval_tokens": 256}
# 96 routed tokens per step, not a power of two, so the load-balance loss's
# 1/n and top-1 fractions round and the order of its float operations shows.
TRAIN_3X32 = dict(TRAIN, batch_size=3)
PROXY_SEARCH = {
    "mode": "train", "seed": 2, "population": 3, "rounds": 2,
    "budget": {"cost_units": 12 * 110444544.0},  # 12 baseline steps
    "valid_fraction": 0.1, "baseline_genome": TOP2_BLOCK,
    "train": {"batch_size": 2, "seq_len": 32, "log_every": 1, "eval_tokens": 128},
    "space": {"k_choices": [2, 3, 4], "d_choices": [32, 64], "d_moe_choices": [128],
              "d_ffn_choices": [128], "h_choices": [4],
              "g_choices": ["top2", "expert_choice"], "c_choices": [1, 2],
              "a_choices": ["relu", "gated_gelu"], "n_experts": 4, "d_head": 16},
    "topk": {"k": 1, "factors": [2], "stacks": [2]},
}
GENOMES = ("brainformer1_like.json", "desk_top2.json", "glam_0p1b_32e.json")


def _openblas(symbol, restype):
    """``scipy_openblas_<symbol>64_()`` (or ``openblas_<symbol>()``) of the
    OpenBLAS numpy bundles; None when it bundles none."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in (f"scipy_openblas_{symbol}64_", f"openblas_{symbol}"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                return fn()
    return None


def fingerprint():
    """What decides the bits of a float run: the numpy version, the BLAS
    library, its version and kernel family, and the thread count the runs
    use, the one ``main`` sets (one and two OpenBLAS threads round some
    products differently). The kernel family is the one OpenBLAS picked
    for this CPU, or ``OPENBLAS_CORETYPE``."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    core = _openblas("get_corename", ctypes.c_char_p)
    with _one_blas_thread():
        threads = _openblas("get_num_threads", ctypes.c_int)
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_core": core.decode() if core else None,
            "blas_threads": threads}


def corpus_bytes(n_bytes=24 * 1024):
    """Seeded word-level text over a Zipf-weighted vocabulary."""
    rng = random.Random("golden-corpus")
    vocab = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                     for _ in range(rng.randint(2, 8))) for _ in range(200)]
    weights = [1.0 / rank for rank in range(1, len(vocab) + 1)]
    parts, size = [], 0
    while size < n_bytes:
        sentence = " ".join(rng.choices(vocab, weights, k=rng.randint(4, 14)))
        parts.append(sentence.capitalize() + ". ")
        size += len(parts[-1])
    return "".join(parts).encode("ascii")[:n_bytes]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _digests(out, names):
    return {name: _sha((out / name).read_bytes()) for name in names}


def _cli(argv):
    """``brainformer`` in-process with its stdout captured; must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"brainformer {' '.join(map(str, argv))} exited {code}")
    return buf.getvalue()


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


def _train(work, name, block, config="train.json"):
    genome = _write_json(work / f"{name}.json", block)
    out = work / name
    _cli(["train", "--genome", genome, "--corpus", work / "corpus.txt",
          "--config", work / config, "--out", out, "--stack", 3])
    lines = (out / "trajectory.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for rec in records:
        del rec["step_time"]  # wall clock
    report = json.loads((out / "train_report.json").read_text())
    return {
        "digests": dict(_digests(out, ["checkpoint.bin", "train_report.json"]),
                        trajectory=_sha(json.dumps(records, sort_keys=True).encode())),
        "losses": [r["loss"].hex() for r in records] + [report["valid_ppl"].hex()],
        "facts": [r["step"] for r in records],
    }


def _search(work, name, config):
    out = work / name
    _cli(["search", "--config", config, "--out", out])
    records = [json.loads(line) for line in (out / "ledger.jsonl").read_text().splitlines()]
    losses = []
    for rec in records:
        losses += [v.hex() for v in (rec["final_loss"], rec["quality_25"]) if v is not None]
    return {
        "digests": _digests(out, ["ledger.jsonl", "topk.json", "summary.csv"]),
        "losses": losses,
        "facts": [[r["trial_id"], r["parent_id"], r["genome"], r["steps"], r["stop_reason"]]
                  for r in records],
    }


def _count_params():
    reports = {}
    for name in GENOMES:
        reports[name] = json.loads(_cli(["count-params", "--genome", CONFIGS / name]))
    return {"digests": {"reports": _sha(json.dumps(reports, sort_keys=True).encode())},
            "losses": [], "facts": reports}


def run_cases():
    """Each case's ``digests`` (sha256 of output bytes), ``losses``
    (``float.hex`` of every loss it wrote) and ``facts`` (what no build
    may change: steps, trial ids, genomes, stop reasons, counts)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "corpus.txt").write_bytes(corpus_bytes())
        _write_json(work / "train.json", TRAIN)
        _write_json(work / "train_3x32.json", TRAIN_3X32)
        search = _write_json(work / "search.json",
                             dict(PROXY_SEARCH, corpus=str(work / "corpus.txt")))
        return {
            "train_top2": _train(work, "train_top2", TOP2_BLOCK),
            "train_top2_3x32": _train(work, "train_top2_3x32", TOP2_BLOCK, "train_3x32.json"),
            "train_expert_choice": _train(work, "train_expert_choice", EXPERT_CHOICE_BLOCK),
            "search_proxy": _search(work, "search_proxy", search),
            "search_surrogate": _search(work, "search_surrogate",
                                        CONFIGS / "search_surrogate.json"),
            "count_params": _count_params(),
        }


def regenerate(path=GOLDEN):
    doc = {"fingerprint": fingerprint(), "tolerance": TOLERANCE, "cases": run_cases()}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
