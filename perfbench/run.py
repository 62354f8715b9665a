"""The brainformer benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's input files from the seed, runs the public entry
point ``brainformer.cli.main`` on them in a child process, checks the
program's outputs and prints every metric by name with its unit. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import subprocess
import sys
import time

import metrics as M
from workloads import WORKLOADS, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
SETUP_RUNS = 5  # set-up-only processes per untraced run; setup_s is their median
TIME_LIMIT_S = 170.0
# On these matrix sizes a second BLAS thread only spin-waits: on 2 cores it
# doubled CPU time without making a step faster, and made step times noisy.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def git_sha(root):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_lines(root):
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "brainformer", "*.py"))):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def run_child(level, run_dir, cli_argv, deadline):
    """Run one workload process; return (its child.json, set-up seconds)."""
    os.makedirs(run_dir)
    prog_out = os.path.join(run_dir, "out")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--level", level,
           "--out", run_dir, "--", *cli_argv, "--out", prog_out]
    env = dict(os.environ, BRAINFORMER_LOG_LEVEL="warn", **SINGLE_THREAD_BLAS)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a workload process started")
    with open(os.path.join(run_dir, "stdout.txt"), "w") as out, \
            open(os.path.join(run_dir, "stderr.txt"), "w") as err:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=out, stderr=err,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{level} process exceeded the time limit")
    result_path = os.path.join(run_dir, "child.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(os.path.join(run_dir, "stderr.txt")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise BenchError(f"{level} process exited with {proc.returncode}")
    with open(result_path) as fh:
        child = json.load(fh)
    if child.get("error"):
        sys.stderr.write(child["error"])
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(child.get("package_file", "")).startswith(src + os.sep):
        raise BenchError(f"brainformer was imported from {child.get('package_file')}, "
                         f"not from {src}")
    setup_s = (child["setup_end"] - spawned) if child.get("setup_end") else None
    return child, setup_s, prog_out


def measured_run(workload, level, run_dir, cli_argv, expected_ops, deadline):
    """One full workload process plus its checks and the data metrics need."""
    child, setup_s, prog_out = run_child(level, run_dir, cli_argv, deadline)
    try:
        outputs = M.read_outputs(workload, prog_out)
    except (OSError, ValueError, KeyError):
        outputs = {}
    results = M.checks(workload, child, outputs, prog_out, expected_ops,
                       traced=level == "full")
    spans_path = os.path.join(run_dir, "spans.jsonl")
    spans = M.Spans(M.read_spans(spans_path) if os.path.exists(spans_path) else [])
    failed = M.failed_ops(workload, child, outputs, results, expected_ops)
    return {"child": child, "setup_s": setup_s, "outputs": outputs,
            "checks": results, "spans": spans, "failed": failed}


def fmt(value):
    if isinstance(value, float) and math.isfinite(value):
        return f"{value:.6g}"
    return str(value)


def print_metrics(values, units):
    for name, value in values.items():
        print(f"  {name:<30} {fmt(value):>14} {units[name]}")


def print_checks(label, results):
    for name, (ok, detail) in results.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {label}{name}: {detail}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "brainformer", "cli.py")):
        print(f"error: no brainformer source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK_DIR, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    cli_argv, facts = write_inputs(workload, args.seed, args.seconds,
                                   os.path.join(work, "inputs"))
    ops = facts["ops"]

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"  why: {workload.why}")
    try:
        if args.trace == 0:
            setup = []
            for i in range(SETUP_RUNS - 1):
                _, setup_s, _ = run_child("setup", os.path.join(work, f"setup{i}"),
                                              cli_argv, deadline)
                if setup_s is None:
                    raise BenchError("set-up-only process never reached a step")
                setup.append(setup_s)
            run = measured_run(workload, "timeline", os.path.join(work, "run"),
                               cli_argv, ops, deadline)
            if run["setup_s"] is not None:
                setup.append(run["setup_s"])
            runs = [("", run)]
            values, notes = M.end_to_end(workload, run["spans"], run["child"],
                                         run["outputs"], setup)
            units = M.END_TO_END_UNITS
        else:
            base = measured_run(workload, "timeline", os.path.join(work, "untraced"),
                                cli_argv, ops, deadline)
            run = measured_run(workload, "full", os.path.join(work, "traced"),
                               cli_argv, ops, deadline)
            runs = [("untraced.", base), ("traced.", run)]
            untraced, _ = M.end_to_end(workload, base["spans"], base["child"],
                                       base["outputs"], [0.0])
            values = M.per_layer(workload, run["spans"], run["child"],
                                 run["outputs"], untraced["train_tok_per_s"])
            notes = {}
            units = M.PER_LAYER_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = dict(run["child"].get("env", {}), git_sha=git_sha(ROOT),
               src_loc=source_lines(ROOT))
    print("  environment: " + json.dumps(env, sort_keys=True))
    print("  final_loss (validation loss of the trained model, or"
          " search_best_loss) and final_ce compare only between runs on one"
          " machine, numpy and BLAS build")
    if run["child"].get("missing"):
        print(f"  not found, not traced: {run['child']['missing']}")
    print("metrics:")
    print_metrics(values, units)
    attempted = ops * len(runs)
    failed = sum(r["failed"] for _, r in runs)
    aliases = {"fail_frac": (failed / attempted, "ratio")}
    if args.trace == 0:
        if workload.kind == "train":
            aliases["final_ce"] = (run["outputs"].get("last_ce"), "nats")
        else:
            aliases["trials_per_hour"] = (values["ops_per_hour"], "trials/h")
            aliases["search_best_loss"] = (values["final_loss"], "nats")
        aliases["step_ms_tail_percentile"] = (notes["step_ms_tail_percentile"], "%")
        aliases["step_samples"] = (notes["step_samples"], "count")
        aliases["setup_samples"] = (notes["setup_samples"], "count")
    if workload.kind == "search":
        trials = run["outputs"].get("trials", [])
        for reason in sorted(M.KNOWN_STOPS):
            share = sum(r.get("stop_reason") == reason for r in trials)
            aliases[f"share_{reason}"] = (share / max(len(trials), 1), "ratio")
    print_metrics({k: v for k, (v, _) in aliases.items()},
                  {k: u for k, (_, u) in aliases.items()})
    print("checks:")
    for label, r in runs:
        print_checks(label, r["checks"])
    correct = all(ok for _, r in runs for ok, _ in r["checks"].values())
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "env": env,
                   "metrics": values, "notes": notes, "correct": correct,
                   "attempted": attempted, "failed": failed,
                   "checks": {label + k: v for label, r in runs
                              for k, v in r["checks"].items()}},
                  fh, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
