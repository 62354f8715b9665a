import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from brainformer import cli
from brainformer.cli import main, _build_runner, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE
from brainformer.model import BlockSpec, ModelSpec, LanguageModel
from brainformer.search import SearchSpace, TrialRecord, record_to_line, STOP_COMPLETED
from brainformer import training as TR
from brainformer.training import TrainConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def toy_block(**kw):
    base = dict(layers=("attn", "moe"), d=8, d_moe=16, d_ffn=16, h=2,
                d_head=4, g="top2", c=2, a="relu", n_experts=2)
    base.update(kw)
    return BlockSpec(**base)


@pytest.fixture
def genome_file(tmp_path):
    path = tmp_path / "genome.json"
    path.write_text(json.dumps(toy_block().to_json_dict()))
    return str(path)


@pytest.fixture
def corpus_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "corpus.bin"
    path.write_bytes(bytes(rng.integers(0, 256, 600, dtype=np.uint8)))
    return str(path)


def search_config(tmp_path, **overrides):
    cfg = {
        "mode": "surrogate",
        "population": 4,
        "rounds": 4,
        "seed": 7,
        "budget": {"cost_units": 1e12},
        "baseline_genome": toy_block().to_json_dict(),
        "space": {
            "k_choices": [2, 3], "layer_kinds": ["attn", "moe"],
            "d_choices": [8, 16], "d_moe_choices": [16],
            "d_ffn_choices": [16], "h_choices": [2],
            "g_choices": ["top2", "expert_choice"], "c_choices": [1, 2],
            "a_choices": ["relu"], "n_experts": 2, "d_head": 4,
        },
        "topk": {"k": 1, "factors": [2], "stacks": [6]},
    }
    cfg.update(overrides)
    path = tmp_path / "search.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def check_environment(manifest):
    """A manifest's ``environment`` names the build it ran on."""
    env = manifest["environment"]
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "blas_version", "nproc",
                        "blas_threads", "blas_core", "helper_thread"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert (env["blas"], env["blas_version"]) == (blas["name"], blas["version"])
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    assert env["nproc"] == nproc
    assert env["blas_threads"] is None or (type(env["blas_threads"]) is int and env["blas_threads"] >= 1)
    assert env["blas_core"] is None or (isinstance(env["blas_core"], str) and env["blas_core"])
    assert env["helper_thread"] in (True, False)


class TestSearchCommand:
    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["search", "--config", search_config(tmp_path),
                     "--out", str(out)]) == EXIT_OK
        for name in ("ledger.jsonl", "topk.json", "summary.csv",
                     "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"ledger.jsonl", "topk.json",
                                              "summary.csv"}
        assert manifest["seed"] == 7
        check_environment(manifest)

    def test_deterministic_across_runs(self, tmp_path):
        cfg = search_config(tmp_path)
        main(["search", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["search", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/ledger.jsonl").read_bytes() == \
            (tmp_path / "b/ledger.jsonl").read_bytes()

    def test_refuses_existing_ledger(self, tmp_path):
        cfg = search_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["search", "--config", cfg, "--out", out]) == EXIT_OK
        assert main(["search", "--config", cfg, "--out", out]) == EXIT_USAGE

    def test_resume_continues(self, tmp_path):
        cfg_short = search_config(tmp_path, rounds=2)
        out = str(tmp_path / "run")
        main(["search", "--config", cfg_short, "--out", out])
        cfg_full = search_config(tmp_path)
        assert main(["search", "--config", cfg_full, "--out", out,
                     "--resume"]) == EXIT_OK
        main(["search", "--config", cfg_full, "--out", str(tmp_path / "full")])
        assert (tmp_path / "run/ledger.jsonl").read_bytes() == \
            (tmp_path / "full/ledger.jsonl").read_bytes()

    def test_malformed_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["search", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rounds": 4}))
        assert main(["search", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_surrogate_rejects_wallclock(self, tmp_path):
        cfg = search_config(tmp_path, budget={"seconds": 10})
        assert main(["search", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    @pytest.mark.parametrize("budget", [{"cost_units": "x"}, {},
                                        {"cost_units": 1e12, "seconds": 10},
                                        {"cost_units": 0}, {"cost_units": True},
                                        {"seconds": -1.0}])
    def test_malformed_budget(self, tmp_path, budget, capsys):
        out = tmp_path / "o"
        assert main(["search", "--config", search_config(tmp_path, budget=budget),
                     "--out", str(out)]) == EXIT_USAGE
        assert "search config:" in capsys.readouterr().err
        assert not out.exists()

    def test_seconds_budget_runs_wallclock(self, tmp_path, corpus_file):
        cfg = json.loads(Path(search_config(
            tmp_path, mode="train", corpus=corpus_file, budget={"seconds": 0.5},
            train={"batch_size": 2, "seq_len": 8})).read_text())
        space = SearchSpace.from_dict(cfg["space"])
        runner = _build_runner(cfg, 7, space)
        assert runner.wallclock and runner.budget == 0.5
        cfg["budget"] = {"cost_units": 1e9}
        runner = _build_runner(cfg, 7, space)
        assert not runner.wallclock and runner.budget == 1e9

    def test_budget_mode_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--config", search_config(tmp_path),
                  "--out", str(tmp_path / "o"), "--budget-mode", "cost"])
        assert exc.value.code == EXIT_USAGE
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("train, message", [
        ({"valid_fraction": 0.0}, "top-level valid_fraction"),
        ({"dropout": 0.1}, "unknown train config fields"),
        ({"seed": 1}, "top-level seed or --seed"),
        ({"max_steps": 5}, "takes it from the budget"),
        ({"seq_len": "8"}, "seq_len must be an integer >= 1"),
        ({"base_lr": 0.3, "eval_tokens": 7, "batch_size": 2},  # surrogate mode
         "reads only train.batch_size and train.seq_len, not "
         "['base_lr', 'eval_tokens']")])
    def test_bad_train_section(self, tmp_path, train, message, capsys):
        out = tmp_path / "o"
        assert main(["search", "--config", search_config(tmp_path, train=train),
                     "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        # 32 experts at c=1 get floor(8/32) = 0 tokens of a 1 x 8 batch
        {"space": {"k_choices": [2], "layer_kinds": ["attn", "moe"],
                   "d_choices": [8], "d_moe_choices": [16],
                   "d_ffn_choices": [16], "h_choices": [2],
                   "g_choices": ["top2"], "c_choices": [1],
                   "a_choices": ["relu"], "n_experts": 32, "d_head": 4},
         "train": {"batch_size": 1, "seq_len": 8}},
        # a baseline with 16 experts at c=1 routes a 4 x 8 batch, but not
        # an 8-token window of the split trials score on
        {"baseline_genome": toy_block(n_experts=16, c=1).to_json_dict()},
        {"baseline_genome": toy_block(n_experts=16, c=1).to_json_dict(),
         "valid_fraction": 0.0}])
    def test_train_mode_refuses_unroutable_batch_or_window(self, tmp_path,
                                                           corpus_file, edit,
                                                           capsys):
        out = tmp_path / "o"
        cfg = search_config(tmp_path, **{
            "mode": "train", "corpus": corpus_file, "rounds": 1,
            "budget": {"cost_units": 3e6},
            "train": {"batch_size": 4, "seq_len": 8, "eval_tokens": 32},
            **edit})
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert "capacity" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_seeds_the_whole_search(self, tmp_path, corpus_file):
        """In train mode ``--seed`` drives evolution, proxy model init and
        trial batches, exactly as the config's ``seed`` does."""
        def search(out, seed, *flag):
            cfg = search_config(tmp_path, mode="train", corpus=corpus_file,
                                seed=seed, rounds=2, budget={"cost_units": 3e6},
                                train={"batch_size": 2, "seq_len": 8,
                                       "eval_tokens": 32})
            assert main(["search", "--config", cfg, "--out", str(out),
                         *flag]) == EXIT_OK
            return {name: (out / name).read_bytes()
                    for name in ("ledger.jsonl", "topk.json", "summary.csv")}
        assert search(tmp_path / "flag", 1, "--seed", "3") == \
            search(tmp_path / "config", 3)

    @pytest.mark.parametrize("edit, message", [
        ({"population": "8"}, "population must be an integer >= 2"),
        ({"population": 1}, "population must be an integer >= 2"),
        ({"rounds": 2.5}, "rounds must be an integer >= 0"),
        ({"rounds": -1}, "rounds must be an integer >= 0"),
        ({"tournament_size": -1}, "tournament_size must be an integer >= 1"),
        ({"tournament_size": True}, "tournament_size must be an integer >= 1"),
        ({"seed": -1}, "seed must be an integer >= 0"),
        ({"seed": 1.0}, "seed must be an integer >= 0"),
        ({"space": {"d_choices": 64}}, "d_choices must be a JSON list"),
        ({"space": {"g_choices": ["expert_choice"], "c_choices": [1, 4],
                    "n_experts": 2}}, "expert choice needs c <= n_experts"),
        ({"mode": "evolve"}, "search config: unknown mode 'evolve'")])
    def test_bad_scalar_rejected_before_any_trial(self, tmp_path, edit, message,
                                                  capsys):
        out = tmp_path / "o"
        cfg = search_config(tmp_path, **edit)
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["search", "--config", search_config(tmp_path),
                     "--out", str(out), "--seed", "-1"]) == EXIT_USAGE
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--config", search_config(tmp_path),
                  "--out", str(tmp_path / "o"), "--workers", "2"])
        assert exc.value.code == EXIT_USAGE
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section", ["budget", "space", "train", "topk",
                                         "baseline_genome"])
    def test_section_must_be_object(self, tmp_path, section, capsys):
        out = tmp_path / "o"
        cfg = search_config(tmp_path, **{section: 5})
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert f"{section} must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("topk", [
        {"k": "x"}, {"k": 0}, {"k": True}, {"factors": [3], "stacks": [6]},
        {"factors": [2]}, {"factors": "24", "stacks": "68"},
        {"stacks": [6, 0]}, {"stacks": [6, 8.0]}])
    def test_bad_topk_rejected_before_any_trial(self, tmp_path, topk, capsys):
        out = tmp_path / "o"
        cfg = search_config(tmp_path, topk=topk)
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert "topk" in capsys.readouterr().err
        assert not out.exists()

    def test_topk_defaults_are_finalize_topks(self, tmp_path):
        """A config without ``topk`` finalizes with ``finalize_topk``'s own
        defaults: the two best trials, scaled 2x over 6 blocks and 4x over 8."""
        doc = json.loads(Path(search_config(tmp_path)).read_text())
        del doc["topk"]
        path, out = tmp_path / "defaults.json", tmp_path / "o"
        path.write_text(json.dumps(doc))
        assert main(["search", "--config", str(path), "--out", str(out)]) == EXIT_OK
        topk = json.loads((out / "topk.json").read_text())
        assert topk["requested"] == 2 and topk["selected"]
        for sel in topk["selected"]:
            assert [(s["factor"], s["n_blocks"]) for s in sel["scaled"]] == [(2, 6), (4, 8)]

    SINGLE_VALUED = {"k_choices": [2], "layer_kinds": ["attn"], "d_choices": [8],
                     "d_moe_choices": [16], "d_ffn_choices": [16], "h_choices": [2],
                     "g_choices": ["top2"], "c_choices": [2], "a_choices": ["relu"],
                     "n_experts": 2, "d_head": 4}

    @pytest.mark.parametrize("edit, message", [
        ({}, "no mutable fields in this search space"),
        ({"k_choices": [1], "layer_kinds": ["attn", "ffn"]},
         "mutation failed to produce a valid child"),
        ({"d_choices": [8, 8]}, "no mutable fields in this search space")])
    def test_space_that_cannot_mutate_refused_before_any_trial(self, tmp_path, edit,
                                                                message, capsys):
        """Every round mutates a parent, so a space in which no genome can
        mutate is refused before the baseline trains; with no rounds it
        runs."""
        space = {**self.SINGLE_VALUED, **edit}
        out = tmp_path / "o"
        cfg = search_config(tmp_path, space=space, population=2, rounds=2)
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: search config: {message}\n"
        assert not out.exists()
        cfg = search_config(tmp_path, space=space, population=2, rounds=0)
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_OK

    def test_empty_baseline_genome_refused(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = search_config(tmp_path, baseline_genome={})
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert "malformed genome" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, edit, message", [
        ("space", {"k_choices": [2.5, 4]}, "k_choices must be integers >= 1, got 2.5"),
        ("space", {"k_choices": [True]}, "k_choices must be integers >= 1, got True"),
        ("space", {"layer_kinds": ["attn", "conv"]}, "unknown layer kind 'conv'"),
        ("space", {"layer_kinds": ["moe", "ffn"]}, "needs at least one attention layer"),
        ("space", {"d_head": True}, "head_dim=True"),
        ("space", {"h_choices": [2, 0]}, "n_heads=0"),
        ("space", {"a_choices": ["relu", "tanh"]}, "unknown activation 'tanh'"),
        ("budget", {"secnds": 3}, "got ['cost_units', 'secnds']"),
        ("topk", {"factor": [2]}, "unknown topk fields: ['factor']")])
    def test_config_no_search_can_use_is_refused_first(self, tmp_path, section,
                                                      edit, message, capsys):
        """A space holding a genome that cannot be built, and a budget or
        topk key the search does not read, exit 2 with one error line
        before anything is written."""
        doc = json.loads(Path(search_config(tmp_path)).read_text())
        doc[section].update(edit)
        path, out = tmp_path / "bad.json", tmp_path / "o"
        path.write_text(json.dumps(doc))
        assert main(["search", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: search config: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("corpus, valid_fraction", [("missing", 0.1),
                                                        ("corpus", 1.0),
                                                        ("corpus", -0.5),
                                                        ("corpus", "x")])
    def test_bad_corpus(self, tmp_path, corpus_file, corpus, valid_fraction,
                        capsys):
        path = corpus_file if corpus == "corpus" else str(tmp_path / "nope.bin")
        out = tmp_path / "o"
        cfg = search_config(tmp_path, mode="train", corpus=path,
                            valid_fraction=valid_fraction, rounds=1,
                            budget={"cost_units": 3e6},
                            train={"batch_size": 2, "seq_len": 8})
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert "corpus:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corpus", [99, None, ["corpus.bin"]])
    def test_corpus_must_be_a_path(self, tmp_path, corpus, capsys):
        """A number would be opened as a file descriptor (0 would read
        stdin), so only a string names a corpus."""
        out = tmp_path / "o"
        cfg = search_config(tmp_path, mode="train", corpus=corpus,
                            train={"batch_size": 2, "seq_len": 8})
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert "train mode needs a corpus path" in capsys.readouterr().err
        assert not out.exists()

    def test_config_keys_it_does_not_read_are_ignored(self, tmp_path):
        # e.g. "workers" and "budget_mode", which older configs carry
        plain = tmp_path / "plain"
        main(["search", "--config", search_config(tmp_path), "--out", str(plain)])
        assert main(["search", "--config",
                     search_config(tmp_path, workers=1, budget_mode="cost"),
                     "--out", str(tmp_path / "old")]) == EXIT_OK
        assert (tmp_path / "old/ledger.jsonl").read_bytes() == \
            (plain / "ledger.jsonl").read_bytes()

    def test_resume_after_torn_last_line(self, tmp_path):
        """A crash mid-write leaves part of the last record; --resume cuts it
        and re-runs that trial, so the ledger ends as if never stopped."""
        cfg = search_config(tmp_path, rounds=1)
        whole = tmp_path / "whole"
        main(["search", "--config", cfg, "--out", str(whole)])
        full = (whole / "ledger.jsonl").read_bytes()
        last = full.rstrip(b"\n").rfind(b"\n") + 1
        out = tmp_path / "cut"
        for cut in range(last + 1, len(full)):
            out.mkdir(exist_ok=True)
            (out / "ledger.jsonl").write_bytes(full[:cut])
            assert main(["search", "--config", cfg, "--out", str(out),
                         "--resume"]) == EXIT_OK, cut
            assert (out / "ledger.jsonl").read_bytes() == full, cut

    def test_resume_rejects_corrupt_complete_line(self, tmp_path, capsys):
        cfg = search_config(tmp_path)
        out = tmp_path / "run"
        main(["search", "--config", cfg, "--out", str(out)])
        lines = (out / "ledger.jsonl").read_text().splitlines(keepends=True)
        (out / "ledger.jsonl").write_text("".join(lines[:2]) + "{oops\n")
        assert main(["search", "--config", cfg, "--out", str(out),
                     "--resume"]) == EXIT_USAGE
        assert "cannot resume" in capsys.readouterr().err

    def test_resume_refuses_ledger_of_another_seed(self, tmp_path, capsys):
        """The shipped seed-7 search cut to its baseline and first 9 trials,
        with or without a torn tail of the next line, resumed with --seed 8,
        is exit 2 with the ledger byte-identical, torn tail included."""
        cfg = str(CONFIGS / "search_surrogate.json")
        out = tmp_path / "run"
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "ledger.jsonl").read_bytes().splitlines(keepends=True)
        for torn in (b"", lines[10][:50]):
            cut = b"".join(lines[:10]) + torn
            (out / "ledger.jsonl").write_bytes(cut)
            assert main(["search", "--config", cfg, "--out", str(out), "--seed", "8",
                         "--resume"]) == EXIT_USAGE
            assert "another search wrote the ledger" in capsys.readouterr().err
            assert (out / "ledger.jsonl").read_bytes() == cut
            assert main(["search", "--config", cfg, "--out", str(out),
                         "--resume"]) == EXIT_OK
            assert (out / "ledger.jsonl").read_bytes() == b"".join(lines)

    @pytest.mark.parametrize("bad", [b"{oops\n", b"\n"])
    def test_refused_resume_leaves_ledger_as_it_was(self, tmp_path, bad):
        """A complete line that is not a record, blank lines included,
        refuses the resume before the torn tail is cut."""
        cfg = search_config(tmp_path)
        out = tmp_path / "run"
        main(["search", "--config", cfg, "--out", str(out)])
        lines = (out / "ledger.jsonl").read_bytes().splitlines(keepends=True)
        torn = b"".join(lines[:2]) + bad + lines[2][:10]
        (out / "ledger.jsonl").write_bytes(torn)
        assert main(["search", "--config", cfg, "--out", str(out),
                     "--resume"]) == EXIT_USAGE
        assert (out / "ledger.jsonl").read_bytes() == torn

    @pytest.mark.parametrize("field", ["trial_id", "step_time"])
    def test_resume_refuses_mistyped_ledger(self, tmp_path, field, capsys):
        """A ledger whose trial ids are strings would replay none of its
        trials and run them all again, and a baseline whose step time is a
        string cannot be compared with a trial's: either ledger is refused
        with its bytes unchanged."""
        cfg = search_config(tmp_path)
        out = tmp_path / "run"
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_OK
        docs = [json.loads(line) for line in
                (out / "ledger.jsonl").read_text().splitlines()[:5]]
        mistyped = "".join(json.dumps(dict(doc, **{field: str(doc[field])})) + "\n"
                           for doc in docs).encode()
        (out / "ledger.jsonl").write_bytes(mistyped)
        assert main(["search", "--config", cfg, "--out", str(out),
                     "--resume"]) == EXIT_USAGE
        assert "is not a record" in capsys.readouterr().err
        assert (out / "ledger.jsonl").read_bytes() == mistyped

    def test_resume_refuses_ill_typed_record(self, tmp_path, capsys):
        """A record whose final loss, steps, cost per step and trajectory
        have the wrong types would be copied into ``topk.json`` and
        ``summary.csv`` on resume: the shipped search's ledger with its best
        completed record so changed is refused with its bytes unchanged,
        and ``report`` skips that line."""
        cfg, out = str(CONFIGS / "search_surrogate.json"), tmp_path / "run"
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "ledger.jsonl").read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        best = max((i for i, doc in enumerate(docs) if doc["stop_reason"] == STOP_COMPLETED),
                   key=lambda i: docs[i]["reward"])
        docs[best].update(final_loss="oops", steps="many", cost_per_step=None,
                          trajectory={"step": 1})
        lines[best] = json.dumps(docs[best])
        ill_typed = "".join(line + "\n" for line in lines).encode()
        (out / "ledger.jsonl").write_bytes(ill_typed)
        assert main(["search", "--config", cfg, "--out", str(out), "--resume"]) == EXIT_USAGE
        assert "is not a record" in capsys.readouterr().err
        assert (out / "ledger.jsonl").read_bytes() == ill_typed
        assert main(["report", "--ledger", str(out / "ledger.jsonl"),
                     "--out", str(tmp_path / "rep")]) == EXIT_OK
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert report["skipped_corrupt_lines"] == 1

    def test_resume_with_ledger_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "ledger.jsonl").mkdir(parents=True)
        assert main(["search", "--config", search_config(tmp_path),
                     "--out", str(out), "--resume"]) == EXIT_USAGE
        assert "cannot resume from" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["ledger.jsonl"]

    def test_unknown_space_field_rejected(self, tmp_path):
        cfg = search_config(tmp_path, space={"depth": 3})
        assert main(["search", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE


class TestTrainCommand:
    def train_cfg(self, tmp_path, **overrides):
        doc = {"batch_size": 2, "seq_len": 16, "max_steps": 3,
               "valid_fraction": 0.2, "eval_tokens": 64}
        doc.update(overrides)
        path = tmp_path / "train.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_basic_run(self, tmp_path, genome_file, corpus_file):
        out = tmp_path / "run"
        rc = main(["train", "--genome", genome_file, "--corpus", corpus_file,
                   "--config", self.train_cfg(tmp_path), "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "train_report.json").read_text())
        assert report["steps"] == 3
        assert not report["diverged"]
        assert "valid_ppl" in report
        assert len((out / "trajectory.jsonl").read_text().splitlines()) == 3
        assert (out / "checkpoint.bin").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"checkpoint.bin", "train_report.json",
                                              "trajectory.jsonl"}
        check_environment(manifest)

    @pytest.mark.parametrize("bundled", [True, False])
    def test_runs_at_one_blas_thread_and_restores_the_count(self, bundled, tmp_path,
                                                             genome_file, corpus_file,
                                                             monkeypatch):
        """``main`` runs a command at one thread of numpy's bundled OpenBLAS,
        as the manifest records, and leaves the count as it found it. With
        no bundled OpenBLAS found, the run goes on as it is and the manifest
        records no count."""
        lib = cli._bundled_openblas()

        def count():
            return cli._openblas_call(lib, "scipy_openblas_get_num_threads64_", ctypes.c_int)
        before = count()
        if not bundled:
            monkeypatch.setattr(cli, "_bundled_openblas", lambda: None)
        out = tmp_path / "run"
        assert main(["train", "--genome", genome_file, "--corpus", corpus_file,
                     "--config", self.train_cfg(tmp_path), "--out", str(out)]) == EXIT_OK
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["blas_threads"] == (1 if bundled and before is not None else None)
        assert count() == before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="the OS cannot pin a process to one CPU")
    def test_one_cpu_run_writes_the_same_bytes(self, tmp_path):
        """``brainformer train`` on a genome whose expert matrices, embed and
        out reach ``CHUNK_BYTES``, pinned to one CPU, still steps those
        params on the helper thread and scores its 3 evaluation forwards
        on the caller's and the helper's: its checkpoint, its report and
        its trajectory (without ``step_time``) are those of a run that may
        use every CPU, byte for byte. Both children run one BLAS thread.
        The pinned child sets its own affinity before it imports the
        package, so no thread of this process takes part in the fork."""
        genome = tmp_path / "wide.json"
        genome.write_text(json.dumps(toy_block(d=128, d_moe=256, d_ffn=256, h=4,
                                               d_head=32, n_experts=4).to_json_dict()))
        corpus = tmp_path / "corpus.bin"  # 1200 validation bytes: 74 windows of 16
        corpus.write_bytes(bytes(np.random.default_rng(0).integers(0, 256, 6000, dtype=np.uint8)))
        config = self.train_cfg(tmp_path, max_steps=4, eval_tokens=4096)
        src = str(Path(TR.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        pin = "os.sched_setaffinity(0, {%d}); " % min(os.sched_getaffinity(0))

        def train(out, pinned):
            code = ("import os, sys; " + (pin if pinned else "")
                    + "from brainformer.cli import main; sys.exit(main(sys.argv[1:]))")
            subprocess.run([sys.executable, "-c", code, "train", "--genome", str(genome),
                            "--corpus", str(corpus), "--out", str(out), "--config", config],
                           env=env, check=True, capture_output=True)
            records = [json.loads(line) for line in (out / "trajectory.jsonl").read_text().splitlines()]
            for rec in records:
                del rec["step_time"]
            env_doc = json.loads((out / "manifest.json").read_text())["environment"]
            return ((out / "checkpoint.bin").read_bytes(), records,
                    (out / "train_report.json").read_bytes(), env_doc)
        pinned, free = train(tmp_path / "pinned", True), train(tmp_path / "free", False)
        assert pinned[:3] == free[:3]
        assert len(pinned[1]) == 4 and b"valid_ppl" in pinned[2]
        assert (pinned[3]["nproc"], pinned[3]["helper_thread"]) == (1, True)
        assert free[3]["helper_thread"]
        if pinned[3]["blas_threads"] is not None:  # numpy bundles OpenBLAS
            assert pinned[3]["blas_threads"] == free[3]["blas_threads"] == 1

    def test_divergence_exits_1_with_one_stderr_line(self, tmp_path, genome_file,
                                                     corpus_file, monkeypatch, capsys):
        real_loss, calls = TR.lm_loss, []

        def diverging_loss(*args, **kw):  # the third step's loss is NaN
            loss, ce = real_loss(*args, **kw)
            calls.append(None)
            if len(calls) == 3:
                loss.data = np.full_like(loss.data, np.nan)
            return loss, ce
        monkeypatch.setattr(TR, "lm_loss", diverging_loss)
        out = tmp_path / "run"
        rc = main(["train", "--genome", genome_file, "--corpus", corpus_file,
                   "--config", self.train_cfg(tmp_path, max_steps=5), "--out", str(out)])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err == "error: training diverged at step 2\n"
        report = json.loads((out / "train_report.json").read_text())
        assert report["diverged"] is True
        assert report["steps"] == report["total_step"] == 2
        assert "valid_ppl" not in report

    def test_zero_steps_checkpoint_is_init(self, tmp_path, genome_file,
                                           corpus_file):
        out = tmp_path / "run"
        rc = main(["train", "--genome", genome_file, "--corpus", corpus_file,
                   "--config", self.train_cfg(tmp_path, max_steps=0),
                   "--out", str(out)])
        assert rc == EXIT_OK
        spec = ModelSpec(block=toy_block(), n_blocks=1, vocab_size=258,
                         max_seq_len=1024)
        fresh = LanguageModel(spec, seed=0)
        loaded = LanguageModel(spec, seed=1)
        state = TR.TrainState.fresh(loaded, TrainConfig(seed=1))
        TR.load_checkpoint(loaded, state, out / "checkpoint.bin")
        assert state.step == 0
        assert state.rng.bit_generator.state == \
            np.random.default_rng(0).bit_generator.state
        for name in fresh.params:
            np.testing.assert_array_equal(loaded.params[name].data,
                                          fresh.params[name].data)

    def test_resume_advances_step_counter(self, tmp_path, genome_file,
                                          corpus_file):
        out = str(tmp_path / "run")
        cfg = self.train_cfg(tmp_path)
        main(["train", "--genome", genome_file, "--corpus", corpus_file,
              "--config", cfg, "--out", out])
        cfg2 = self.train_cfg(tmp_path, max_steps=2)
        rc = main(["train", "--genome", genome_file, "--corpus", corpus_file,
                   "--config", cfg2, "--out", out, "--resume"])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "run/train_report.json").read_text())
        assert report["total_step"] == 5

    def test_resume_is_bitwise(self, tmp_path, genome_file, corpus_file):
        """3 steps then --resume for 2 leaves the same files as 5 steps
        (on one machine and numpy/BLAS build), and the trajectory logs
        every log_every-th step of the run, not of each call."""
        for log_every in (1, 2):
            def train(out, steps, *extra):
                assert main(["train", "--genome", genome_file, "--corpus",
                             corpus_file, "--out", str(out), "--config",
                             self.train_cfg(tmp_path, max_steps=steps,
                                            log_every=log_every),
                             *extra]) == EXIT_OK

            split, whole = tmp_path / f"split{log_every}", tmp_path / f"whole{log_every}"
            train(split, 3)
            train(split, 2, "--resume")
            train(whole, 5)
            assert (split / "checkpoint.bin").read_bytes() == \
                (whole / "checkpoint.bin").read_bytes()

            def logged(out):
                return [(rec["step"], rec["loss"]) for rec in map(
                    json.loads, (out / "trajectory.jsonl").read_text().splitlines())]
            assert [step for step, _ in logged(whole)] == list(range(log_every, 6, log_every))
            assert logged(split) == logged(whole)

    def test_crash_then_resume_equals_one_run(self, tmp_path, genome_file,
                                              corpus_file, monkeypatch):
        """Runs that die mid-step, before the first checkpoint and after
        one, then --resume, end with the checkpoint and trajectory of a run
        that never stopped; a torn last trajectory line is cut."""
        class Crash(Exception):
            pass

        real_update = TR.Adafactor.update

        def train(out, steps, *extra, crash_at=None):
            calls = []

            def update(self, lr):
                calls.append(lr)
                if len(calls) == crash_at:
                    raise Crash
                real_update(self, lr)

            monkeypatch.setattr(TR.Adafactor, "update", update)
            argv = ["train", "--genome", genome_file, "--corpus", corpus_file,
                    "--out", str(out), "--config",
                    self.train_cfg(tmp_path, max_steps=steps), *extra]
            if crash_at:
                with pytest.raises(Crash):
                    main(argv)
            else:
                assert main(argv) == EXIT_OK

        def records(out):
            return [(r["step"], r["loss"]) for r in map(
                json.loads, (out / "trajectory.jsonl").read_text().splitlines())]

        split, whole = tmp_path / "split", tmp_path / "whole"
        train(split, 3, crash_at=3)  # dies in step 3, before any checkpoint
        assert not (split / "checkpoint.bin").exists()
        assert [s for s, _ in records(split)] == [1, 2]
        train(split, 3, "--resume")  # no checkpoint: starts over
        train(split, 2, "--resume", crash_at=1)  # dies in step 4
        with open(split / "trajectory.jsonl", "a") as fh:
            fh.write('{"loss": 1.5, "st')  # and tears step 4's record
        train(split, 2, "--resume")
        train(whole, 5)
        assert (split / "checkpoint.bin").read_bytes() == \
            (whole / "checkpoint.bin").read_bytes()
        assert records(split) == records(whole)
        assert [s for s, _ in records(whole)] == [1, 2, 3, 4, 5]

    def test_refuses_existing_run(self, tmp_path, genome_file, corpus_file,
                                  capsys):
        out = tmp_path / "run"
        argv = ["train", "--genome", genome_file, "--corpus", corpus_file,
                "--config", self.train_cfg(tmp_path), "--out", str(out)]
        assert main(argv) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == EXIT_USAGE
        assert "use --resume" in capsys.readouterr().err
        (out / "checkpoint.bin").unlink()
        del before["checkpoint.bin"]
        assert main(argv) == EXIT_USAGE  # the trajectory alone is a run too
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("damage", ["truncated", "old flat format", "directory"])
    def test_resume_from_unreadable_checkpoint(self, tmp_path, genome_file,
                                              corpus_file, damage, capsys):
        out = tmp_path / "run"
        argv = ["train", "--genome", genome_file, "--corpus", corpus_file,
                "--config", self.train_cfg(tmp_path), "--out", str(out)]
        assert main(argv) == EXIT_OK
        ckpt = out / "checkpoint.bin"
        if damage == "truncated":
            ckpt.write_bytes(ckpt.read_bytes()[:-100])
        elif damage == "directory":
            ckpt.unlink()
            ckpt.mkdir()
        else:  # flat float64 params with a JSON sidecar of offsets
            ckpt.write_bytes(np.zeros(64).tobytes())
            (out / "checkpoint.bin.json").write_text('{"tensors": {}}\n')

        def files():
            return {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        before = files()
        assert main(argv + ["--resume"]) == EXIT_USAGE
        assert "unreadable checkpoint" in capsys.readouterr().err
        assert files() == before

    @pytest.mark.parametrize("layers", [["attn", "ffn"], ["ffn"]])
    def test_resume_refuses_checkpoint_of_another_model(self, tmp_path,
                                                         corpus_file, layers,
                                                         capsys):
        """A checkpoint that covers only part of the model is a config
        error, and the run's files keep their bytes."""
        out = tmp_path / "run"

        def argv(layer_kinds):
            path = tmp_path / "genome.json"
            path.write_text(json.dumps(toy_block(layers=tuple(layer_kinds),
                                                 d=16).to_json_dict()))
            return ["train", "--genome", str(path), "--corpus", corpus_file,
                    "--config", self.train_cfg(tmp_path), "--out", str(out)]
        assert main(argv(["attn"])) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv(["attn", *layers]) + ["--resume"]) == EXIT_USAGE
        assert "does not fit this run" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("line", ["not json", '{"x": 1}'])
    def test_resume_refuses_trajectory_line_that_is_no_record(
            self, tmp_path, genome_file, corpus_file, line, capsys):
        out = tmp_path / "run"
        argv = ["train", "--genome", genome_file, "--corpus", corpus_file,
                "--config", self.train_cfg(tmp_path), "--out", str(out)]
        assert main(argv) == EXIT_OK
        with open(out / "trajectory.jsonl", "a") as fh:
            fh.write(line + "\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv + ["--resume"]) == EXIT_USAGE
        assert "not a record" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_with_trajectory_directory(self, tmp_path, genome_file,
                                              corpus_file, capsys):
        out = tmp_path / "run"
        argv = ["train", "--genome", genome_file, "--corpus", corpus_file,
                "--config", self.train_cfg(tmp_path), "--out", str(out)]
        assert main(argv) == EXIT_OK
        (out / "trajectory.jsonl").unlink()
        (out / "trajectory.jsonl").mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert main(argv + ["--resume"]) == EXIT_USAGE
        assert "cannot resume from" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert (out / "trajectory.jsonl").is_dir()

    @pytest.mark.parametrize("budget", [{"max_steps": 1}, {"max_seconds": 0.3},
                                        {"max_cost_units": 1e9}])
    def test_malformed_budget(self, tmp_path, genome_file, corpus_file,
                              budget, capsys):
        """A train config has no budget section: max_steps is the one run
        length, so any budget is refused before --out is made."""
        out = tmp_path / "run"
        assert main(["train", "--genome", genome_file, "--corpus", corpus_file,
                     "--config", self.train_cfg(tmp_path, budget=budget),
                     "--out", str(out)]) == EXIT_USAGE
        assert "unknown train config fields: ['budget']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        ({"seq_len": "8"}, "seq_len must be an integer >= 1"),
        ({"batch_size": 0}, "batch_size must be an integer >= 1"),
        ({"log_every": 2.0}, "log_every must be an integer >= 1"),
        ({"eval_tokens": None}, "eval_tokens must be an integer >= 1"),
        ({"warmup_constant_steps": True}, "warmup_constant_steps must be an integer"),
        ({"max_steps": -1}, "max_steps must be an integer >= 0"),
        ({"seed": "0"}, "seed must be an integer >= 0"),
        ({"base_lr": "0.1"}, "base_lr must be a number"),
        ({"valid_fraction": False}, "valid_fraction must be a number"),
        ({"base_lr": -1}, "base_lr must be > 0"),
        ({"base_lr": 0}, "base_lr must be > 0"),
        ({"beta2": 0.99}, "unknown train config fields: ['beta2']"),
        ({"aux_coeff": -5}, "aux_coeff must be >= 0")])
    def test_bad_field_type(self, tmp_path, genome_file, corpus_file, edit,
                            message, capsys):
        out = tmp_path / "run"
        assert main(["train", "--genome", genome_file, "--corpus", corpus_file,
                     "--config", self.train_cfg(tmp_path, **edit),
                     "--out", str(out)]) == EXIT_USAGE
        assert f"train config: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_seq_len_above_max_seq_len(self, tmp_path, genome_file, corpus_file,
                                       capsys):
        """A bare block's model spec has max_seq_len 1024."""
        out = tmp_path / "run"
        assert main(["train", "--genome", genome_file, "--corpus", corpus_file,
                     "--config", self.train_cfg(tmp_path, seq_len=1025),
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: seq_len 1025 exceeds genome max_seq_len 1024\n"
        assert not out.exists()

    def test_training_error_exits_1_with_one_stderr_line(self, tmp_path, genome_file,
                                                         corpus_file, monkeypatch,
                                                         capsys):
        def raising(*args, **kw):
            raise TR.TrainingError("non-finite gradient in 'out'")
        monkeypatch.setattr(TR, "train_steps", raising)
        assert main(["train", "--genome", genome_file, "--corpus", corpus_file,
                     "--config", self.train_cfg(tmp_path),
                     "--out", str(tmp_path / "run")]) == EXIT_RUNTIME
        assert capsys.readouterr().err == \
            "training error: non-finite gradient in 'out'\n"

    @pytest.mark.parametrize("valid_fraction", [-0.5, 1.0, 1.5])
    def test_valid_fraction_out_of_range(self, tmp_path, genome_file, corpus_file,
                                         valid_fraction, capsys):
        out = tmp_path / "run"
        assert main(["train", "--genome", genome_file, "--corpus", corpus_file,
                     "--config", self.train_cfg(tmp_path, valid_fraction=valid_fraction),
                     "--out", str(out)]) == EXIT_USAGE
        assert "corpus: valid_fraction must be a number in [0, 1)" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path, genome_file, corpus_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--genome", genome_file, "--corpus", corpus_file,
                     "--config", self.train_cfg(tmp_path), "--out", str(out),
                     "--seed", "-1"]) == EXIT_USAGE
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_corpus(self, tmp_path, genome_file):
        assert main(["train", "--genome", genome_file,
                     "--corpus", str(tmp_path / "nope.bin"),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_malformed_genome(self, tmp_path, corpus_file):
        bad = tmp_path / "g.json"
        bad.write_text(json.dumps({"layers": ["ffn"], "d": 8}))
        assert main(["train", "--genome", str(bad), "--corpus", corpus_file,
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_unknown_train_field(self, tmp_path, genome_file, corpus_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dropout": 0.1}))
        assert main(["train", "--genome", genome_file, "--corpus", corpus_file,
                     "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_expert_capacity_below_one(self, tmp_path, corpus_file, batch_size,
                                       capsys):
        """16 experts at c=1 get floor(8/16) = 0 tokens of an 8-token
        window: batch 1 fails in the first step, batch 4 only in the
        validation pass. Both are refused before --out is made."""
        genome = tmp_path / "g.json"
        genome.write_text(json.dumps(toy_block(
            n_experts=16, g="expert_choice", c=1).to_json_dict()))
        out = tmp_path / "run"
        assert main(["train", "--genome", str(genome), "--corpus", corpus_file,
                     "--config", self.train_cfg(tmp_path, batch_size=batch_size,
                                                seq_len=8),
                     "--out", str(out)]) == EXIT_USAGE
        assert "capacity" in capsys.readouterr().err
        assert not out.exists()

    def test_expert_choice_capacity_above_tokens(self, tmp_path, corpus_file,
                                                 capsys):
        """Expert choice with c=4 > 2 experts wants floor(4*8/2) = 16 of the
        8 tokens routed; refused before --out is made."""
        genome = tmp_path / "g.json"
        genome.write_text(json.dumps(toy_block(
            g="expert_choice", c=4).to_json_dict()))
        out = tmp_path / "run"
        assert main(["train", "--genome", str(genome), "--corpus", corpus_file,
                     "--config", self.train_cfg(tmp_path, batch_size=1,
                                                seq_len=8),
                     "--out", str(out)]) == EXIT_USAGE
        assert "expert choice needs c <= n_experts" in capsys.readouterr().err
        assert not out.exists()


class TestCountParams:
    def test_prints_all_tallies(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(toy_block(n_experts=4).to_json_dict()))
        assert main(["count-params", "--genome", str(path)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        for key in ("n_params", "n_act_params", "n_params_no_embed",
                    "n_act_params_no_embed", "flops_per_token",
                    "counting_convention"):
            assert key in doc
        assert doc["n_act_params"] < doc["n_params"]

    def test_single_expert_total_equals_activated(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(toy_block(n_experts=1).to_json_dict()))
        main(["count-params", "--genome", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_params"] == doc["n_act_params"]

    def test_scale_flag(self, tmp_path, genome_file, capsys):
        main(["count-params", "--genome", genome_file, "--scale", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["genome"]["block"]["d"] == 16

    def test_reference_deviation(self, tmp_path, genome_file, capsys):
        main(["count-params", "--genome", genome_file,
              "--reference", "1000,500"])
        doc = json.loads(capsys.readouterr().out)
        dev = doc["reference_comparison"]["deviation_pct"]["n_params"]
        assert abs(dev - 100.0 * (doc["n_params"] - 1000) / 1000) < 1e-9

    def test_bad_reference(self, tmp_path, genome_file):
        assert main(["count-params", "--genome", genome_file,
                     "--reference", "abc"]) == EXIT_USAGE

    @pytest.mark.parametrize("reference", [
        "1,0", "0,1", "1,-5", "nan,1", "1,inf", "nan,inf", "1e400,1", "abc", "1",
        "1,2,3", ""])
    def test_reference_must_be_two_positive_finite_numbers(self, tmp_path, genome_file,
                                                           reference, capsys):
        out = tmp_path / "d"
        assert main(["count-params", "--genome", genome_file, "--reference", reference,
                     "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --reference expects")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        {"n_blocks": "6"}, {"vocab_size": "x"}, {"n_blocks": 2.5},
        {"n_blocks": True}, {"block": {"d": 64.5}}, {"block": {"c": True}},
        {"schema_version": 2}, {"n_block": 6}, {"block": 5}])
    def test_malformed_model_genome(self, tmp_path, edit, capsys):
        doc = json.loads((CONFIGS / "glam_0p1b_32e.json").read_text())
        for key, value in edit.items():
            if isinstance(value, dict):
                doc[key].update(value)
            else:
                doc[key] = value
        path, out = tmp_path / "g.json", tmp_path / "rep"
        path.write_text(json.dumps(doc))
        assert main(["count-params", "--genome", str(path),
                     "--out", str(out)]) == EXIT_USAGE
        assert "malformed genome" in capsys.readouterr().err
        assert not out.exists()

    def test_out_file(self, tmp_path, genome_file, capsys):
        out = tmp_path / "rep"
        main(["count-params", "--genome", genome_file, "--out", str(out)])
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads((out / "param_report.json").read_text())
        assert printed == saved


@pytest.mark.parametrize("role, doc", [("train config", [1]), ("train config", 5),
                                       ("search config", 5), ("genome", [1, 2])])
def test_json_input_must_be_an_object(tmp_path, genome_file, corpus_file, role,
                                      doc, capsys):
    path, out = tmp_path / "input.json", tmp_path / "o"
    path.write_text(json.dumps(doc))
    if role == "search config":
        argv = ["search", "--config", str(path)]
    elif role == "train config":
        argv = ["train", "--genome", genome_file, "--corpus", corpus_file,
                "--config", str(path)]
    else:
        argv = ["train", "--genome", str(path), "--corpus", corpus_file]
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert f"{role} must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("role, damage", [
    ("genome", "directory"), ("train config", "directory"),
    ("search config", "directory"), ("corpus", "directory"),
    ("ledger", "directory"), ("genome", "not UTF-8"),
    ("train config", "not UTF-8"), ("search config", "not UTF-8")])
def test_unreadable_input_file(tmp_path, genome_file, corpus_file, role, damage,
                               capsys):
    """Each file the CLI reads, given as a directory (or, for a JSON input,
    as bytes that are not UTF-8), is a usage error before --out is made.
    A corpus is raw bytes, and a ledger skips the lines it cannot read."""
    bad = tmp_path / "bad"
    if damage == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe{")
    out = tmp_path / "o"
    argv = {"genome": ["train", "--genome", str(bad), "--corpus", corpus_file],
            "train config": ["train", "--genome", genome_file, "--corpus",
                             corpus_file, "--config", str(bad)],
            "corpus": ["train", "--genome", genome_file, "--corpus", str(bad)],
            "search config": ["search", "--config", str(bad)],
            "ledger": ["report", "--ledger", str(bad)]}[role]
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["search", "train"])
def test_refusal_from_the_package_is_one_error_line(tmp_path, corpus_file, command,
                                                    capsys):
    """A ConfigError raised below the CLI, here a resume refused by
    ``search.evolve`` (another seed's ledger) or ``training.load_checkpoint``
    (a checkpoint of another model), exits 2 with one ``error:`` line."""
    out = tmp_path / "run"
    if command == "search":
        argv = ["search", "--config", search_config(tmp_path), "--out", str(out)]
        assert main(argv) == EXIT_OK
        argv += ["--seed", "8"]
    else:
        genome = tmp_path / "genome.json"
        genome.write_text(json.dumps(toy_block(layers=("attn",), d=16).to_json_dict()))
        argv = ["train", "--genome", str(genome), "--corpus", corpus_file, "--config",
                TestTrainCommand().train_cfg(tmp_path), "--out", str(out)]
        assert main(argv) == EXIT_OK
        genome.write_text(json.dumps(toy_block(layers=("attn", "ffn"),
                                               d=16).to_json_dict()))
    capsys.readouterr()
    assert main(argv + ["--resume"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot resume from" if command == "search"
                          else "error: checkpoint ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["train", "count-params"])
def test_stack_applies_to_a_bare_block_only(tmp_path, genome_file, corpus_file,
                                            command, capsys):
    """A bare block is stacked --stack times, once without it; a full model
    spec sets its own n_blocks, so --stack with one is refused."""
    full = tmp_path / "model.json"
    full.write_text(json.dumps(ModelSpec(block=toy_block(), n_blocks=2, vocab_size=258,
                                         max_seq_len=64).to_json_dict()))
    argv = {"train": ["train", "--corpus", corpus_file,
                      "--config", TestTrainCommand().train_cfg(tmp_path)],
            "count-params": ["count-params"]}[command]
    out = tmp_path / "o"
    assert main(argv + ["--genome", str(full), "--stack", "2",
                        "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: --stack applies to a bare block")
    assert err.count("\n") == 1
    assert not out.exists()
    for genome, stack, n_blocks in ((full, [], 2), (genome_file, [], 1),
                                    (genome_file, ["--stack", "3"], 3)):
        out = tmp_path / f"run{n_blocks}"
        assert main(argv + ["--genome", str(genome), *stack,
                            "--out", str(out)]) == EXIT_OK
        if command == "count-params":
            report = json.loads((out / "param_report.json").read_text())
            assert report["genome"]["n_blocks"] == n_blocks


def test_bad_stack_is_not_blamed_on_the_genome(tmp_path, genome_file, capsys):
    """A --stack the model spec refuses is a usage error of its own; the
    well-formed genome file is not called malformed."""
    assert main(["count-params", "--genome", genome_file, "--stack", "0",
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: n_blocks must be") and err.count("\n") == 1
    assert "malformed genome" not in err


@pytest.mark.parametrize("command", ["train", "search", "count-params", "report"])
def test_out_is_a_regular_file(tmp_path, genome_file, corpus_file, command, capsys):
    """An --out that names an existing regular file is a usage error, and
    the file is left as it was."""
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_text("")
    out = tmp_path / "taken"
    out.write_bytes(b"not a directory")
    argv = {"train": ["train", "--genome", genome_file, "--corpus", corpus_file],
            "search": ["search", "--config", search_config(tmp_path)],
            "count-params": ["count-params", "--genome", genome_file],
            "report": ["report", "--ledger", str(ledger)]}[command]
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert "cannot create output directory" in capsys.readouterr().err
    assert out.read_bytes() == b"not a directory"


@pytest.mark.parametrize("command", ["train", "search-surrogate", "search-train"])
def test_successful_run_writes_nothing_to_stderr(tmp_path, genome_file, corpus_file,
                                                 command, capsys):
    if command == "train":
        argv = ["train", "--genome", genome_file, "--corpus", corpus_file,
                "--config", TestTrainCommand().train_cfg(tmp_path)]
    elif command == "search-surrogate":
        argv = ["search", "--config", search_config(tmp_path)]
    else:
        argv = ["search", "--config", search_config(
            tmp_path, mode="train", corpus=corpus_file, rounds=1,
            budget={"cost_units": 3e6},
            train={"batch_size": 2, "seq_len": 8, "eval_tokens": 32})]
    assert main(argv + ["--out", str(tmp_path / "run")]) == EXIT_OK
    assert capsys.readouterr().err == ""


class TestReport:
    def make_record(self, trial_id, reward, parent_id=None):
        return TrialRecord(trial_id=trial_id, parent_id=parent_id,
                           genome=toy_block().to_json_dict(), step_time=1.0,
                           cost_per_step=1.0, steps=5, final_loss=-reward,
                           reward=reward, stop_reason=STOP_COMPLETED)

    def test_empty_ledger(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("")
        out = tmp_path / "rep"
        assert main(["report", "--ledger", str(ledger),
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "reward_over_time.csv").read_text().splitlines()
        assert lines == ["trial_id,reward,best_so_far"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["n_trials"] == 0
        assert doc["best_trial"] is None

    def test_hand_computed_best_so_far(self, tmp_path):
        recs = [self.make_record(0, -3.0), self.make_record(1, -5.0),
                self.make_record(2, -2.0)]
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("".join(record_to_line(r) + "\n" for r in recs))
        out = tmp_path / "rep"
        main(["report", "--ledger", str(ledger), "--out", str(out)])
        rows = (out / "reward_over_time.csv").read_text().splitlines()[1:]
        assert rows == ["0,-3.0,-3.0", "1,-5.0,-3.0", "2,-2.0,-2.0"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["best_trial"] == 2
        assert doc["stop_reason_tally"] == {"completed": 3}

    def test_lineage_walk(self, tmp_path):
        recs = [self.make_record(0, -4.0),
                self.make_record(1, -3.0, parent_id=0),
                self.make_record(2, -1.0, parent_id=1)]
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("".join(record_to_line(r) + "\n" for r in recs))
        out = tmp_path / "rep"
        main(["report", "--ledger", str(ledger), "--out", str(out)])
        doc = json.loads((out / "report.json").read_text())
        assert [n["trial_id"] for n in doc["best_lineage"]] == [2, 1, 0]

    def test_corrupt_lines_counted(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_bytes(record_to_line(self.make_record(0, -1.0)).encode() +
                           b"\n{oops\n\xff\xfe\n")
        out = tmp_path / "rep"
        assert main(["report", "--ledger", str(ledger),
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["skipped_corrupt_lines"] == 2

    def test_mistyped_record_skipped(self, tmp_path, capsys):
        """A record with a string trial id is one skipped line, not a
        crash when trial ids are compared."""
        recs = [self.make_record(0, -3.0), self.make_record(1, -2.0, parent_id=0),
                self.make_record(2, -1.0, parent_id=1)]
        lines = [record_to_line(r) for r in recs]
        lines[1] = lines[1].replace('"trial_id":1', '"trial_id":"1"')
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "rep"
        assert main(["report", "--ledger", str(ledger), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == "warning: skipped 1 corrupt ledger lines\n"
        doc = json.loads((out / "report.json").read_text())
        assert doc["skipped_corrupt_lines"] == 1 and doc["n_trials"] == 2
        assert [n["trial_id"] for n in doc["best_lineage"]] == [2]

    def test_missing_ledger(self, tmp_path):
        assert main(["report", "--ledger", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "rep")]) == EXIT_USAGE


class TestShippedConfigs:
    """Every file under configs/ still loads, so removing an option cannot
    silently break a shipped config."""

    def test_search_config_runs(self, tmp_path):
        assert main(["search", "--config", str(CONFIGS / "search_surrogate.json"),
                     "--out", str(tmp_path / "run")]) == EXIT_OK
        # the example finds something: a trial completes and is selected
        topk = json.loads((tmp_path / "run" / "topk.json").read_text())
        assert topk["n_completed"] >= 1 and topk["selected"]

    def test_train_config_loads(self):
        TrainConfig.from_dict(json.loads((CONFIGS / "train_overfit.json").read_text()))

    @pytest.mark.parametrize("name", ["brainformer1_like.json", "desk_top2.json",
                                      "glam_0p1b_32e.json"])
    def test_genome_counts(self, name, capsys):
        assert main(["count-params", "--genome", str(CONFIGS / name)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n_params"] > 0
