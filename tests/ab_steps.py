"""Interleaved in-process A/B of two source trees' training step and
evaluation forward.

    python tests/ab_steps.py OLD_SRC NEW_SRC [--workload NAME] [--reps N]

Imports the ``brainformer`` package of each tree under its own name in this
one process, at one BLAS thread, and builds each tree's model of a
workload of ``perfbench/workloads.py`` (default ``search-proxy``) from the
same seed and the workload's seed-0 corpus: the train workload's genome as
``brainformer train`` builds it, or the search workload's baseline genome
stacked as its proxy runner stacks it. Each model trains 3 warm-up steps.
Each repetition then times, per tree, one training step (``train_steps``
of one step) and one ``no_grad`` evaluation forward of 512 validation
tokens with its cross entropy; the tree that goes first alternates.

After the timed loop, a separate pass trains ``TRACED_STEPS`` more steps
per tree under ``tracemalloc``, so the timing is untouched, alternating
the trees, and takes the peak of the memory traced during each step
(numpy's arrays included, on both threads). A step's peak depends on how
far the helper thread has drained its queue of optimizer steps, so one
step's reading varies from run to run; the median and maximum over several
steps repeat better.

Prints each tree's median milliseconds, how often the new tree was
faster, the median and maximum of each tree's traced peaks in MB, and whether
every parameter of the two models is bitwise equal at the end; exits 1
only if one differs. Each tree's package starts its own
helper thread, so the process holds two. pytest does not collect it.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import (  # noqa: E402
    SEARCH_BASELINE_GENOME, VALID_FRACTION, WORKLOADS, make_corpus,
)

WARMUP_STEPS = 3
TRACED_STEPS = 5
FORWARD_TOKENS = 512


def load_package(src, name):
    """The ``brainformer`` package of the tree at ``src``, imported as
    ``name`` with its submodules."""
    init = os.path.join(os.path.abspath(src), "brainformer", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


class Side:
    """One tree's model, training state, corpus and evaluation batch."""

    def __init__(self, pkg, workload):
        self.pkg = pkg
        M, TR = pkg.model, pkg.training
        self.corpus = TR.ByteCorpus(make_corpus(0), valid_fraction=VALID_FRACTION)
        self.cfg = TR.TrainConfig(batch_size=workload.batch_size, seq_len=workload.seq_len,
                                  seed=0, valid_fraction=VALID_FRACTION)
        if workload.kind == "train":
            spec = M.ModelSpec(block=M.BlockSpec.from_json_dict(workload.genome), n_blocks=1,
                               vocab_size=TR.BYTE_VOCAB, max_seq_len=1024)
        else:
            block = M.BlockSpec.from_json_dict(SEARCH_BASELINE_GENOME)
            spec = pkg.search.proxy_model_spec(block, max_seq_len=workload.seq_len)
        self.model = M.LanguageModel(spec, seed=0)
        self.state = TR.TrainState.fresh(self.model, self.cfg)
        windows = list(self.corpus.windows(workload.seq_len, max_tokens=FORWARD_TOKENS))
        self.inputs = np.concatenate([w for w, _ in windows])
        self.targets = np.concatenate([t for _, t in windows])
        self.train(WARMUP_STEPS)

    def train(self, n_steps):
        res = self.pkg.training.train_steps(self.model, self.corpus, self.cfg, n_steps,
                                            self.state)
        if res.diverged:
            raise RuntimeError("training diverged")

    def forward(self):
        T, s = self.pkg.tensor, self.cfg.seq_len
        with T.no_grad():
            logits, _ = self.model.forward(self.inputs, seq_len=s, group_size=s)
            T.cross_entropy(logits, self.targets)


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def traced_peak_mb(fn):
    """The peak of the memory ``tracemalloc`` traces while ``fn`` runs, in MB:
    what ``fn`` allocates, at most, alive at once."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None):
    ap = argparse.ArgumentParser(description="interleaved in-process A/B of two "
                                             "source trees' step and forward")
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="search-proxy")
    ap.add_argument("--reps", type=int, default=100)
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    workload = WORKLOADS[args.workload]
    sides = {tag: Side(load_package(src, f"brainformer_{tag}"), workload)
             for tag, src in (("old", args.old_src), ("new", args.new_src))}
    times = {(tag, what): [] for tag in sides for what in ("step", "forward")}
    for rep in range(args.reps):
        order = ("old", "new") if rep % 2 == 0 else ("new", "old")
        for tag in order:
            times[tag, "step"].append(timed(lambda: sides[tag].train(1)))
            times[tag, "forward"].append(timed(sides[tag].forward))

    print(f"{workload.name}: {args.reps} repetitions after {WARMUP_STEPS} warm-up steps, "
          f"1 BLAS thread")
    print(f"{'':<26} {'old ms':>9} {'new ms':>9} {'new/old':>8}  new faster")
    for what, label in (("step", "training step"),
                        ("forward", f"{FORWARD_TOKENS}-token no_grad forward")):
        old, new = times["old", what], times["new", what]
        m_old, m_new = statistics.median(old), statistics.median(new)
        faster = sum(n < o for o, n in zip(old, new))
        print(f"{label:<26} {m_old:>9.2f} {m_new:>9.2f} {m_new / m_old:>8.3f}  "
              f"{faster} of {args.reps}")
    peaks = {tag: [] for tag in sides}
    for rep in range(TRACED_STEPS):
        for tag in ("old", "new") if rep % 2 == 0 else ("new", "old"):
            peaks[tag].append(traced_peak_mb(lambda: sides[tag].train(1)))
    for what, stat in (("median", statistics.median), ("max", max)):
        old, new = stat(peaks["old"]), stat(peaks["new"])
        print(f"{f'traced peak, {what} of {TRACED_STEPS}':<26} {old:>6.1f} MB {new:>6.1f} MB "
              f"{new / old:>8.3f}")
    old_params, new_params = (sides[tag].model.params for tag in ("old", "new"))
    differ = [name for name, p in old_params.items()
              if p.data.tobytes() != new_params[name].data.tobytes()]
    print("params bitwise equal" if not differ else
          f"params differ: {len(differ)} of {len(old_params)}, first {differ[0]!r}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
