"""Metrics and output checks, computed from a run's spans and the files the
program wrote. Nothing here imports the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from collections import defaultdict

WARMUP_STEPS = 2  # per train_steps call, not counted in step times
STOP_BASELINE = "baseline"
STOP_COMPLETED = "completed"
STOP_STEP_TIME = "step_time_violation"
STOP_QUALITY = "perplexity_violation"
STOP_DIVERGED = "diverged"
KNOWN_STOPS = {STOP_COMPLETED, STOP_STEP_TIME, STOP_QUALITY, STOP_DIVERGED}

END_TO_END_UNITS = {
    "train_tok_per_s": "tokens/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "eval_tok_per_s": "tokens/s",
    "ops_per_hour": "1/h",
    "final_loss": "nats",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "tensor.backward_ms": "ms",
    "tensor.op_calls": "count",
    "tensor.matmul_calls": "count",
    "tensor.gc_ms": "ms",
    "tensor.gc_passes": "count",
    "layers.attention_ms": "ms",
    "layers.ffn_ms": "ms",
    "layers.moe_ms": "ms",
    "layers.gate_ms": "ms",
    "layers.expert_ffn_ms": "ms",
    "layers.route_ms": "ms",
    "layers.aux_ms": "ms",
    "model.forward_ms": "ms",
    "model.build_ms": "ms",
    "training.sample_batch_ms": "ms",
    "training.optimizer_ms": "ms",
    "training.loop_self_ms": "ms",
    "training.eval_ms": "ms",
    "search.trial_s": "s",
    "search.baseline_s": "s",
    "search.evolve_self_ms": "ms",
    "search.completed_frac": "ratio",
    "search.pruned_step_time_frac": "ratio",
    "search.pruned_quality_frac": "ratio",
    "search.steps_trained": "count",
    "search.pruned_steps_frac": "ratio",
    "cli.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Spans:
    """Index over one run's spans: durations, children and self time."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = defaultdict(float)
        for s in spans:
            if s["parent"] >= 0:
                self.child_time[s["parent"]] += s["end"] - s["start"]

    def named(self, name, phase=None):
        return [(i, s) for i, s in enumerate(self.spans)
                if s["name"] == name and (phase is None or s["phase"] == phase)]

    def total(self, name, phase=None):
        return sum(s["end"] - s["start"] for _, s in self.named(name, phase))

    def self_total(self, name, phase=None):
        return sum(s["end"] - s["start"] - self.child_time[i]
                   for i, s in self.named(name, phase))

    def step_times(self):
        """Wall time of each step: the gap from one ``sample_batch`` call to
        the next, or to the end of its ``train_steps`` call."""
        starts = sorted(s["start"] for _, s in self.named("training.sample_batch", "train"))
        times = []
        for _, call in self.named("training.train_steps"):
            inside = [t for t in starts if call["start"] <= t <= call["end"]]
            edges = inside + [call["end"]]
            gaps = [b - a for a, b in zip(edges, edges[1:])]
            times.extend(gaps[WARMUP_STEPS:])
        return times

    def train_steps_done(self):
        return len(self.named("training.sample_batch", "train"))


def tail(values):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workload, spans, child, outputs, setup_samples):
    """The user-visible metrics of one untraced run, plus notes for humans."""
    tokens_per_step = workload.batch_size * workload.seq_len
    steps = spans.train_steps_done()
    train_s = spans.total("training.train_steps")
    step_times = spans.step_times() or [train_s / max(steps, 1)]
    tail_value, tail_pct, tail_n = tail(step_times)
    eval_s = spans.total("training.evaluate_perplexity")
    if workload.kind == "train":
        ops, work_s = steps, train_s
        ppl = outputs.get("report", {}).get("valid_ppl")
        final = math.log(ppl) if ppl else None
    else:
        ops = len(outputs.get("trials", []))
        work_s = spans.total("search.evolve")
        done = [r["final_loss"] for r in outputs.get("trials", [])
                if r.get("stop_reason") == STOP_COMPLETED]
        final = min(done) if done else None
    metrics = {
        "train_tok_per_s": steps * tokens_per_step / train_s if train_s else 0.0,
        "step_ms_p50": 1000.0 * statistics.median(step_times),
        "step_ms_tail": 1000.0 * tail_value,
        "eval_tok_per_s": child.get("eval_tokens", 0) / eval_s if eval_s else 0.0,
        "ops_per_hour": 3600.0 * ops / work_s if work_s else 0.0,
        "final_loss": final if final is not None else 0.0,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": child.get("peak_rss_kb", 0) / 1024.0,
    }
    notes = {
        "step_ms_tail_percentile": round(tail_pct, 2),
        "step_samples": tail_n,
        "setup_samples": len(setup_samples),
    }
    return metrics, notes


def per_layer(workload, spans, child, outputs, untraced_tok_per_s):
    """Per-layer metrics of one traced run.

    Layer times and counts are per training step, over training steps only
    (the final or checkpoint evaluations are excluded); ``training.eval_ms``
    is per evaluation pass; ``search.*`` are per trial or per search.
    """
    steps = max(spans.train_steps_done(), 1)
    per_step = 1000.0 / steps

    def train_ms(name):
        return per_step * spans.total(name, "train")

    ffn_dense = ffn_expert = 0.0
    for _, s in spans.named("layers.ffn_forward", "train"):
        parent = spans.spans[s["parent"]]["name"] if s["parent"] >= 0 else ""
        if parent == "layers.moe_forward":
            ffn_expert += s["end"] - s["start"]
        else:
            ffn_dense += s["end"] - s["start"]
    ops = child.get("op_calls", {}).get("train", {})
    gc_train = child.get("gc", {}).get("train", {"passes": 0, "seconds": 0.0})
    evals = spans.named("training.evaluate_perplexity")
    builds = spans.named("model.build")
    trials = outputs.get("trials", [])
    n_trials = max(len(trials), 1)
    trial_times = [s["end"] - s["start"] for _, s in spans.named("search.trial")]
    cli_children = {"training.train_steps", "search.evolve",
                    "training.evaluate_perplexity"}
    cli_overhead = 0.0
    for i, s in spans.named("cli.main"):
        cli_overhead += s["end"] - s["start"] - sum(
            c["end"] - c["start"] for c in spans.spans
            if c["parent"] == i and c["name"] in cli_children)
    trial_steps = sum(r.get("steps", 0) for r in trials)
    pruned_steps = sum(r.get("steps", 0) for r in trials
                       if r.get("stop_reason") in (STOP_STEP_TIME, STOP_QUALITY))
    traced_tok_per_s = (spans.train_steps_done() * workload.batch_size
                        * workload.seq_len / spans.total("training.train_steps")
                        if spans.total("training.train_steps") else 0.0)

    def share(reason):
        return sum(r.get("stop_reason") == reason for r in trials) / n_trials

    return {
        "tensor.backward_ms": train_ms("tensor.backward"),
        "tensor.op_calls": sum(ops.values()) / steps,
        "tensor.matmul_calls": ops.get("matmul", 0) / steps,
        "tensor.gc_ms": per_step * gc_train["seconds"],
        "tensor.gc_passes": gc_train["passes"] / steps,
        "layers.attention_ms": train_ms("layers.attention_forward"),
        "layers.ffn_ms": per_step * ffn_dense,
        "layers.moe_ms": per_step * spans.self_total("layers.moe_forward", "train"),
        "layers.gate_ms": train_ms("layers.gate_scores"),
        "layers.expert_ffn_ms": per_step * ffn_expert,
        "layers.route_ms": train_ms("layers.route_top2")
                           + train_ms("layers.route_expert_choice"),
        "layers.aux_ms": train_ms("layers.load_balance_aux_loss"),
        "model.forward_ms": train_ms("model.lm_loss"),
        "model.build_ms": 1000.0 * spans.total("model.build") / max(len(builds), 1),
        "training.sample_batch_ms": train_ms("training.sample_batch"),
        "training.optimizer_ms": train_ms("training.optimizer_update"),
        "training.loop_self_ms": per_step * spans.self_total("training.train_steps"),
        "training.eval_ms": 1000.0 * spans.total("training.evaluate_perplexity")
                            / max(len(evals), 1),
        "search.trial_s": statistics.median(trial_times) if trial_times else 0.0,
        "search.baseline_s": float(spans.total("search.baseline")),
        "search.evolve_self_ms": 1000.0 * spans.self_total("search.evolve") / n_trials,
        "search.completed_frac": share(STOP_COMPLETED),
        "search.pruned_step_time_frac": share(STOP_STEP_TIME),
        "search.pruned_quality_frac": share(STOP_QUALITY),
        "search.steps_trained": float(trial_steps),
        "search.pruned_steps_frac": pruned_steps / trial_steps if trial_steps else 0.0,
        "cli.overhead_ms": 1000.0 * cli_overhead,
        "trace.overhead_frac": (untraced_tok_per_s / traced_tok_per_s - 1.0
                                if traced_tok_per_s else 0.0),
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def check_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        artifacts = json.load(fh)["artifacts"]
    bad = [name for name, digest in artifacts.items()
           if _sha256(os.path.join(out_dir, name)) != digest]
    return not bad and bool(artifacts), f"{len(artifacts)} artifacts, mismatched {bad}"


def read_outputs(workload, out_dir):
    """What the checks and metrics need from the program's output files."""
    outputs = {}
    if workload.kind == "train":
        with open(os.path.join(out_dir, "trajectory.jsonl")) as fh:
            ces = [json.loads(line)["loss"] for line in fh if line.strip()]
        outputs["first_ce"] = ces[0] if ces else None
        outputs["last_ce"] = ces[-1] if ces else None
        with open(os.path.join(out_dir, "train_report.json")) as fh:
            outputs["report"] = json.load(fh)
    else:
        records, unparsed = [], 0
        with open(os.path.join(out_dir, "ledger.jsonl")) as fh:
            for line in fh:
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    unparsed += 1
        outputs["records"] = records
        outputs["unparsed"] = unparsed
        outputs["trials"] = [r for r in records
                             if r.get("stop_reason") != STOP_BASELINE]
    return outputs


def checks(workload, child, outputs, out_dir, expected_ops, traced):
    """Named (passed, detail) output checks for one run."""
    result = {"exit_code_0": (child.get("rc") == 0 and not child.get("error"),
                              f"rc {child.get('rc')}")}
    if not outputs:
        result["outputs_readable"] = (False, "program outputs missing")
        return result
    if workload.kind == "train":
        first, last = outputs["first_ce"], outputs["last_ce"]
        uniform = math.log(258)
        result["first_ce_is_ln_258"] = (
            first is not None and abs(first - uniform) <= 1e-9,
            f"first CE {first!r}, ln 258 = {uniform!r}")
        result["last_ce_finite_and_below_first"] = (
            last is not None and math.isfinite(last) and last < first,
            f"last CE {last!r}")
        result["valid_ppl_reported"] = (
            (outputs["report"].get("valid_ppl") or 0.0) > 1.0,
            f"valid_ppl {outputs['report'].get('valid_ppl')!r}")
        steps = outputs["report"].get("steps")
        result["all_steps_ran"] = (steps == expected_ops and
                                   not outputs["report"].get("diverged"),
                                   f"{steps} of {expected_ops} steps")
    else:
        records = outputs["records"]
        stops = [r.get("stop_reason") for r in records]
        result["ledger_complete"] = (
            outputs["unparsed"] == 0 and len(records) == 1 + expected_ops
            and stops[:1] == [STOP_BASELINE]
            and all(s in KNOWN_STOPS for s in stops[1:]),
            f"{len(records)} records ({outputs['unparsed']} unparsed), "
            f"expected 1 + {expected_ops}")
        best = [r.get("final_loss") for r in outputs["trials"]
                if r.get("stop_reason") == STOP_COMPLETED]
        result["completed_trial_has_finite_loss"] = (
            any(isinstance(v, float) and math.isfinite(v) for v in best),
            f"{len(best)} completed trials")
    result["manifest_checksums"] = check_manifest(out_dir)
    if traced:
        routing = child.get("routing", {})
        result["routing_invariants"] = (
            routing.get("checked", 0) > 0 and not routing.get("violations"),
            f"{routing.get('checked', 0)} decisions, "
            f"violations {routing.get('violations')}")
    return result


def failed_ops(workload, child, outputs, check_results, attempted):
    """Operations counted as failed: all of them when the command did not
    exit 0; else diverged steps or trials, plus one per failed check."""
    if not check_results["exit_code_0"][0]:
        return attempted
    failed = sum(not ok for ok, _ in check_results.values())
    if workload.kind == "train" and outputs.get("report", {}).get("diverged"):
        failed += 1
    else:
        failed += sum(r.get("stop_reason") == STOP_DIVERGED
                      for r in outputs.get("trials", []))
    return min(failed, attempted)
