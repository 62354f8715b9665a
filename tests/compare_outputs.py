"""Byte identity of two source trees on the benchmark workloads.

    python tests/compare_outputs.py OLD_SRC NEW_SRC [--seeds N ...] [--blas-threads N]

For each seed (default 0-9) and each workload of ``perfbench/workloads.py``
it writes the inputs the benchmark gives the program, at the benchmark's
run length (``run_seconds`` of ``BENCHMARK.json``), and runs
``python -m brainformer.cli`` on them once per tree, with that tree as
``PYTHONPATH`` and ``--blas-threads`` BLAS threads: 1 by default, as
``perfbench/run.py`` runs it; more checks the outputs where the program's
two threads both call a multi-threaded BLAS. It
compares a search's ``ledger.jsonl``, ``topk.json`` and ``summary.csv``,
and a training's ``checkpoint.bin``, ``train_report.json`` and
``trajectory.jsonl`` without its wall-clock ``step_time``; both runs must
exit 0 with an empty stderr. It prints one table row per output and exits
1 on any difference. The exit row also shows each run's peak RSS
(``ru_maxrss`` of that child, from ``os.wait4``) and each tree's line total
of ``brainformer/*.py``; memory and lines are reported, not compared.
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS, write_inputs  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUTPUTS = {"search": ("ledger.jsonl", "topk.json", "summary.csv"),
           "train": ("checkpoint.bin", "train_report.json", "trajectory.jsonl")}


def run_cli(src, argv, out_dir, cwd, blas_threads):
    """Run the command line of the tree at ``src``; (exit code, stderr,
    peak RSS in MB from that child's own rusage)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               **{var: str(blas_threads) for var in BLAS_THREAD_VARS})
    with subprocess.Popen([sys.executable, "-m", "brainformer.cli", *argv,
                           "--out", out_dir], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err.decode(errors="replace"), usage.ru_maxrss / 1024


def source_lines(src):
    """The line total of the program's modules in the tree at ``src``."""
    total = 0
    for path in glob.glob(os.path.join(src, "brainformer", "*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def read_output(path):
    """``(size, sha256)`` of a file's bytes (a trajectory's without
    ``step_time``), or None if it is missing. Files are hashed in blocks:
    a child's ``ru_maxrss`` starts at this process's own peak, so holding
    a checkpoint here would raise every later run's figure."""
    digest, size = hashlib.sha256(), 0
    try:
        with open(path, "rb") as fh:
            if os.path.basename(path) == "trajectory.jsonl":
                lines = []
                for line in fh:
                    doc = json.loads(line)
                    del doc["step_time"]
                    lines.append(json.dumps(doc, sort_keys=True))
                blocks = ["\n".join(lines).encode()]
            else:
                blocks = iter(lambda: fh.read(1 << 20), b"")
            for block in blocks:
                digest.update(block)
                size += len(block)
    except FileNotFoundError:
        return None
    return size, digest.hexdigest()


def compare(workload, seed, seconds, old_src, new_src, blas_threads):
    """Table rows ``(what, ok, detail)`` of one workload and seed; the
    inputs and outputs go in a directory removed on return."""
    with tempfile.TemporaryDirectory() as case:
        argv, _ = write_inputs(workload, seed, seconds, os.path.join(case, "in"))
        outs = {side: os.path.join(case, side) for side in ("old", "new")}
        srcs = {"old": old_src, "new": new_src}
        runs = {side: run_cli(src, argv, outs[side], case, blas_threads)
                for side, src in srcs.items()}
        rows = [("exit 0, empty stderr",
                 all(code == 0 and not err for code, err, _ in runs.values()),
                 "; ".join(f"{side}: exit {code}, stderr {err.strip()[-200:]!r}, "
                           f"peak RSS {rss:.1f} MB, {source_lines(srcs[side])} source lines"
                           for side, (code, err, rss) in runs.items()))]
        for name in OUTPUTS[workload.kind]:
            old, new = (read_output(os.path.join(outs[side], name)) for side in outs)
            detail = "missing" if old is None or new is None else \
                f"{old[0]} bytes" if old == new else f"{old[0]} vs {new[0]} bytes"
            rows.append((name, old is not None and old == new, detail))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description="byte identity of two source trees "
                                             "on the benchmark workloads")
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    ap.add_argument("--blas-threads", type=int, default=1,
                    help="BLAS threads of every program run (default 1)")
    args = ap.parse_args(argv)
    if args.blas_threads < 1:
        ap.error("--blas-threads must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    print(f"{'seed':>4}  {'workload':<16} {'output':<21} {'result':<9} detail")
    n_rows = n_bad = 0
    for seed in args.seeds:
        for workload in WORKLOADS.values():
            for what, ok, detail in compare(workload, seed, seconds, args.old_src,
                                            args.new_src, args.blas_threads):
                print(f"{seed:>4}  {workload.name:<16} {what:<21} "
                      f"{'ok' if ok else 'FAIL':<9} {detail}", flush=True)
                n_rows += 1
                n_bad += not ok
    print(f"{n_rows - n_bad} of {n_rows} checks hold")
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
