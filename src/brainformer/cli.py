"""Operator entry points: run searches, train/evaluate single genomes,
count parameters, and summarize trial ledgers.

Exit codes: 0 success, 1 runtime failure (e.g. divergence), 2 usage or
config error. Every run writes a manifest.json with artifact checksums.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import ctypes
import dataclasses
import glob
import hashlib
import json
import math
import os
import platform
import random
import sys
import time

import numpy as np
import scipy

from . import model as M
from . import search as S
from . import threads
from . import training as TR
from .layers import ConfigError, positive_int, real_number

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir, command, config_path, seed, started, artifacts):
    manifest = {
        "command": command,
        "config": config_path,
        "seed": seed,
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "out_dir": os.path.abspath(out_dir),
        "artifacts": {name: _sha256(os.path.join(out_dir, name))
                      for name in artifacts
                      if os.path.exists(os.path.join(out_dir, name))},
        "environment": _environment(),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _environment():
    """The build a run ran on: float results differ across numpy and BLAS
    builds. ``nproc`` counts the CPUs this process may run on (all of the
    machine's where the OS cannot say); ``blas_threads`` and ``blas_core``
    are the thread count the run used (``_one_blas_thread``) and the
    kernel set of numpy's bundled OpenBLAS (None where numpy bundles
    none); ``helper_thread`` tells whether the process started its
    helper thread (``threads.helper``)."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    openblas = _bundled_openblas()
    core = _openblas_call(openblas, "scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "nproc": nproc,
            "blas_threads": _openblas_call(openblas, "scipy_openblas_get_num_threads64_",
                                           ctypes.c_int),
            "blas_core": core.decode() if core is not None else None,
            "helper_thread": threads._helper is not None}


def _bundled_openblas():
    """The OpenBLAS library a numpy wheel bundles (already loaded by numpy,
    so this opens the same copy), or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _openblas_call(lib, symbol, restype, *args):
    """``symbol(*args)`` of ``lib``, a function of int arguments, or None
    where the library or the symbol is absent."""
    fn = getattr(lib, symbol, None) if lib is not None else None
    if fn is None:
        return None
    fn.argtypes, fn.restype = [ctypes.c_int] * len(args), restype
    return fn(*args)


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's bundled OpenBLAS at one thread inside the block, and at the
    count it had before once the block ends. The program runs its own
    second thread (``threads.helper``); beside it, OpenBLAS's second thread
    made the wide model's training step and evaluation slower on two
    cores, and the count moves result bits. A library without the setter
    is left as it is."""
    openblas, setter = _bundled_openblas(), "scipy_openblas_set_num_threads64_"
    before = _openblas_call(openblas, "scipy_openblas_get_num_threads64_", ctypes.c_int)
    pinned = before is not None and hasattr(openblas, setter)
    if pinned:
        _openblas_call(openblas, setter, None, 1)
    try:
        yield
    finally:
        if pinned:
            _openblas_call(openblas, setter, None, before)


def _load_corpus(path, valid_fraction):
    try:
        with open(path, "rb") as fh:
            return TR.ByteCorpus(fh.read(), valid_fraction=valid_fraction)
    except (OSError, ConfigError) as exc:
        raise ConfigError(f"corpus: {exc}")


def _load_json(path, what):
    """The JSON object in a config or genome file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}")
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"{what} is not valid JSON ({path}): {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object ({path})")
    return doc


def _make_out_dir(path):
    """Create the output directory ``path``, or keep it if it exists; a
    path that cannot be a directory (say, an existing regular file) is a
    usage error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# The train config keys a search sets itself, and where it takes each from.
SEARCH_SETS = {"seed": "the top-level seed or --seed",
               "max_steps": "the budget",
               "valid_fraction": "the top-level valid_fraction"}


def _build_runner(cfg, seed, space):
    """The trial runner a search config asks for, seeded with ``seed``. Its
    budget holds exactly one of ``cost_units`` and ``seconds``, a positive
    number, and that key picks the mode: analytic cost units, or
    wall-clock seconds (proxy training only). A surrogate search reads only
    ``train.batch_size`` and ``train.seq_len``; proxy training must route
    the baseline and every (g, c) of ``space`` through its MoE layers."""
    mode = cfg.get("mode", "surrogate")
    baseline_doc = cfg.get("baseline_genome")
    baseline = None if baseline_doc is None else M.BlockSpec.from_json_dict(baseline_doc)
    budget = cfg.get("budget", {})
    if len(budget) != 1 or not budget.keys() <= {"cost_units", "seconds"}:
        raise ConfigError(f"search config: budget needs exactly one of "
                          f"cost_units, seconds, got {sorted(budget)}")
    cost_units, seconds = budget.get("cost_units"), budget.get("seconds")
    limit = seconds if cost_units is None else cost_units
    if not (real_number(limit) and limit > 0):
        raise ConfigError(f"search config: budget must be a positive number, "
                          f"got {limit!r}")
    train_doc = cfg.get("train", {})
    for key, source in SEARCH_SETS.items():
        if key in train_doc:
            raise ConfigError(f"search config: train.{key} is not read; the "
                              f"search takes it from {source}")
    try:
        train_cfg = TR.TrainConfig.from_dict(train_doc)
    except ConfigError as exc:
        raise ConfigError(f"search config: {exc}")
    if mode == "surrogate":
        if seconds is not None:
            raise ConfigError("surrogate mode only supports cost budgets")
        unread = sorted(set(train_doc) - {"batch_size", "seq_len"})
        if unread:
            raise ConfigError(f"search config: a surrogate search reads only "
                              f"train.batch_size and train.seq_len, not {unread}")
        return S.SurrogateRunner(budget_cost_units=cost_units,
                                 baseline_genome=baseline,
                                 batch_size=train_cfg.batch_size,
                                 seq_len=train_cfg.seq_len)
    if mode == "train":
        if not isinstance(cfg.get("corpus"), str):
            raise ConfigError(f"search config: train mode needs a corpus path, "
                              f"got {cfg.get('corpus')!r}")
        corpus = _load_corpus(cfg["corpus"], cfg.get("valid_fraction", 0.1))
        runner = S.ProxyTrainingRunner(corpus, train_cfg, budget_cost_units=cost_units,
                                       budget_seconds=seconds, baseline_genome=baseline,
                                       seed=seed)
        moes = _moe_configs(runner.baseline_genome)
        if M.KIND_MOE in space.layer_kinds:
            moes += space.moe_configs()
        _check_routing(moes, train_cfg, corpus,
                       "valid" if corpus.has_valid else "train")
        return runner
    raise ConfigError(f"search config: unknown mode {mode!r}")


def cmd_search(args):
    cfg = _load_json(args.config, "search config")
    for name in ("population", "rounds"):
        if name not in cfg:
            raise ConfigError(f"search config: missing field {name!r}")
    for name in ("budget", "space", "train", "topk", "baseline_genome"):
        if not isinstance(cfg.get(name, {}), dict):
            raise ConfigError(f"search config: {name} must be a JSON object")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    tournament_size = cfg.get("tournament_size")
    for name, value, least in (
            ("population", cfg["population"], 2), ("rounds", cfg["rounds"], 0),
            ("seed", seed, 0),
            ("tournament_size", 1 if tournament_size is None else tournament_size, 1)):
        if not positive_int(value, least):
            raise ConfigError(f"search config: {name} must be an integer >= "
                              f"{least}, got {value!r}")
    try:
        space = S.SearchSpace.from_dict(cfg.get("space", {}))
        if cfg["rounds"] > 0:  # every round mutates: probe once, off the search's RNG
            rng = random.Random(0)
            S.mutate(S.sample_candidate(space, rng).genome, space, rng)
    except ConfigError as exc:
        raise ConfigError(f"search config: {exc}")
    topk = cfg.get("topk", {})
    unknown = sorted(set(topk) - {"k", "factors", "stacks"})
    if unknown:
        raise ConfigError(f"search config: unknown topk fields: {unknown}")
    S.finalize_topk(S.EvolutionState(), **topk)  # checks the settings before any trial
    runner = _build_runner(cfg, seed, space)
    _make_out_dir(args.out)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    ledger_path = os.path.join(args.out, "ledger.jsonl")
    if not args.resume and os.path.exists(ledger_path):
        raise ConfigError(f"ledger already exists (use --resume): {ledger_path}")
    state = S.evolve(space, cfg["population"], cfg["rounds"], runner,
                     seed=seed, tournament_size=tournament_size,
                     ledger_path=ledger_path, resume=args.resume)
    _write_json(os.path.join(args.out, "topk.json"), S.finalize_topk(state, **topk))
    with open(os.path.join(args.out, "summary.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trial_id", "reward", "step_time", "final_loss", "stop_reason"])
        for rec in state.history:
            w.writerow([rec.trial_id, rec.reward, rec.step_time,
                        rec.final_loss, rec.stop_reason])
    _write_manifest(args.out, "search", args.config, seed, started,
                    ["ledger.jsonl", "topk.json", "summary.csv"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _load_model_spec(path, stack):
    """A genome file holds a full model spec (it has a ``"block"`` key),
    which ``stack`` must leave None, or a bare block, stacked ``stack``
    times (None: once) over the byte vocab."""
    doc = _load_json(path, "genome")
    if "block" in doc and stack is not None:
        raise ConfigError(f"--stack applies to a bare block; {path} is a full "
                          f"model spec, which sets its own n_blocks")
    try:
        if "block" in doc:
            return M.ModelSpec.from_json_dict(doc)
        block = M.BlockSpec.from_json_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"malformed genome {path}: {exc}")
    # a bad --stack is the command line's fault, not the file's
    return M.ModelSpec(block=block, n_blocks=1 if stack is None else stack,
                       vocab_size=TR.BYTE_VOCAB, max_seq_len=1024)


def _moe_configs(block):
    """The MoE layer config of ``block``, as a list of none or one."""
    return [block.layer_config(M.KIND_MOE)] if M.KIND_MOE in block.layers else []


def _check_routing(moes, cfg, corpus, split):
    """Raise ConfigError unless each MoE layer config in ``moes`` can route a
    training batch and an evaluation window of ``split`` (None: no
    evaluation); ``MoeConfig.capacity`` states what each must satisfy."""
    routed = [cfg.batch_size * cfg.seq_len]
    if split is not None:
        routed.append(corpus.window_len(cfg.seq_len, split))
    for moe in moes:
        for n_tokens in routed:
            moe.capacity(n_tokens)


def cmd_train(args):
    cfg_doc = _load_json(args.config, "train config") if args.config else {}
    if args.seed is not None:
        cfg_doc["seed"] = args.seed
    try:
        cfg = TR.TrainConfig.from_dict(cfg_doc)
    except ConfigError as exc:
        raise ConfigError(f"train config: {exc}")
    spec = _load_model_spec(args.genome, args.stack)
    if cfg.seq_len > spec.max_seq_len:
        raise ConfigError(f"seq_len {cfg.seq_len} exceeds genome max_seq_len "
                          f"{spec.max_seq_len}")
    corpus = _load_corpus(args.corpus, cfg.valid_fraction)
    _check_routing(_moe_configs(spec.block), cfg, corpus,
                   "valid" if corpus.has_valid else None)
    ckpt = os.path.join(args.out, "checkpoint.bin")
    traj = os.path.join(args.out, "trajectory.jsonl")
    model = M.LanguageModel(spec, seed=cfg.seed)
    state = TR.TrainState.fresh(model, cfg)
    if args.resume:
        if os.path.exists(ckpt):
            TR.load_checkpoint(model, state, ckpt)
        TR.cut_trajectory(traj, state.step)
    elif os.path.exists(ckpt) or os.path.exists(traj):
        raise ConfigError(f"{args.out} holds a run (use --resume)")
    _make_out_dir(args.out)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    result = TR.train_steps(model, corpus, cfg, cfg.max_steps, state,
                            trajectory_path=traj)
    TR.save_checkpoint(model, state, ckpt)
    report = {
        "steps": result.steps,
        "total_step": state.step,
        "final_loss": result.final_loss,
        "diverged": result.diverged,
    }
    if corpus.has_valid and result.steps > 0 and not result.diverged:
        report["valid_ppl"] = TR.evaluate_perplexity(
            model, corpus, seq_len=cfg.seq_len, max_tokens=cfg.eval_tokens)
    _write_json(os.path.join(args.out, "train_report.json"), report)
    _write_manifest(args.out, "train", args.config, cfg.seed, started,
                    ["checkpoint.bin", "trajectory.jsonl", "train_report.json"])
    if result.diverged:
        print(f"error: training diverged at step {state.step}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------------------
# count-params
# ---------------------------------------------------------------------------

def cmd_count_params(args):
    spec = _load_model_spec(args.genome, args.stack)
    if args.scale:
        spec = dataclasses.replace(spec, block=M.scale_model_dim(spec.block, args.scale))
    counts = dataclasses.asdict(M.count_params(spec))
    report = {
        **counts,
        "genome": spec.to_json_dict(),
        "flops_per_token": M.model_flops_per_token(spec, spec.max_seq_len),
        "counting_convention": (
            "n_params / n_act_params include the input embedding, position "
            "table, and untied output projection; the *_no_embed variants "
            "exclude all three"),
    }
    if args.reference is not None:
        try:
            given = [float(x) for x in args.reference.split(",")]
        except ValueError:
            given = []
        if len(given) != 2 or not all(0 < ref < math.inf for ref in given):
            raise ConfigError(f"--reference expects TOTAL,ACTIVATED, two positive "
                              f"finite numbers, got {args.reference!r}")
        ref_total, ref_act = given
        # totals compare to the reference total, activated counts to activated
        refs = {name: ref_act if name.startswith("n_act") else ref_total
                for name in counts}
        report["reference_comparison"] = {
            "reference_n_params": ref_total,
            "reference_n_act_params": ref_act,
            "deviation_pct": {name: 100.0 * (n - refs[name]) / refs[name]
                              for name, n in counts.items()},
        }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        _make_out_dir(args.out)
        _write_json(os.path.join(args.out, "param_report.json"), report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args):
    try:
        records, skipped = S.read_ledger(args.ledger)
    except OSError as exc:
        raise ConfigError(f"cannot read ledger: {exc}")
    if skipped:
        print(f"warning: skipped {skipped} corrupt ledger lines", file=sys.stderr)
    trials = sorted((r for r in records if r.trial_id >= 0),
                    key=lambda r: r.trial_id)
    _make_out_dir(args.out)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")

    best = None
    with open(os.path.join(args.out, "reward_over_time.csv"), "w",
              newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trial_id", "reward", "best_so_far"])
        for rec in trials:
            if best is None or rec.reward > best.reward:
                best = rec
            w.writerow([rec.trial_id, rec.reward, best.reward])

    tally = collections.Counter(rec.stop_reason for rec in trials)
    lineage = []
    node = best
    by_id = {r.trial_id: r for r in trials}
    while node is not None:
        lineage.append({"trial_id": node.trial_id, "reward": node.reward,
                        "genome": node.genome})
        node = by_id.get(node.parent_id) if node.parent_id is not None else None
    summary = {
        "n_trials": len(trials),
        "skipped_corrupt_lines": skipped,
        "stop_reason_tally": tally,
        "best_trial": best.trial_id if best else None,
        "best_lineage": lineage,
    }
    _write_json(os.path.join(args.out, "report.json"), summary)
    _write_manifest(args.out, "report", args.ledger, None, started,
                    ["reward_over_time.csv", "report.json"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="brainformer",
                                 description="block search, training, and reporting")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run the evolutionary block search")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="train one genome on a byte corpus")
    p.add_argument("--genome", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--stack", type=int,
                   help="block repetitions when the genome file is a bare block")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("count-params", help="parameter and FLOP accounting")
    p.add_argument("--genome", required=True)
    p.add_argument("--scale", type=int, choices=M.SCALE_FACTORS)
    p.add_argument("--stack", type=int)
    p.add_argument("--reference", help="TOTAL,ACTIVATED reference counts to compare")
    p.add_argument("--out")
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("report", help="summarize a trial ledger")
    p.add_argument("--ledger", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None):
    """Run one command at one BLAS thread (``_one_blas_thread``)."""
    with _one_blas_thread():
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except TR.TrainingError as exc:
            print(f"training error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
