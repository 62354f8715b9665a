"""Measure the benchmark over many seeds and record the quartiles.

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/BASELINE.json

Runs ``run.py`` once per seed and workload (untraced), then one traced run
per workload on the first seed, one process at a time. For every workload
and end-to-end metric it records the values, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the first and third quartile as a share of the median.
It prints each spread next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    with open(os.path.join(ROOT, ".perfbench-work", workload, "result.json")) as fh:
        saved = json.load(fh)
    return json.loads(proc.stdout.strip().splitlines()[-1]), saved, wall


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values, walls, failed, attempted, notes = {}, [], 0, 0, {}
        for seed in seeds:
            result, saved, wall = run(workload, seed, args.seconds, 0)
            walls.append(wall)
            for name, value in saved["notes"].items():
                notes.setdefault(name, []).append(value)
            failed += result["failed"]
            attempted += result["attempted"]
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: output checks failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s", flush=True)
        doc["env"] = saved["env"]
        entry = {"end_to_end": {name: summarize(v) for name, v in values.items()},
                 "notes": notes,
                 "failed": failed, "attempted": attempted,
                 "run_wall_s": summarize(walls)}
        traced, _, _ = run(workload, seeds[0], args.seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        doc["workloads"][workload] = entry
        for name, summary in entry["end_to_end"].items():
            flag = "" if summary["spread"] <= bounds[name] / 3 else "  above bound/3"
            print(f"  {name:<18} median {summary['median']:>12.6g}  spread "
                  f"{summary['spread']:.3f}  bound {bounds[name]}{flag}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
