"""Spans and counters recorded from outside the brainformer package.

The benchmark wraps the package's functions at run time; no source file of
the program changes. A span holds a name, start, end, the index of the span
that was open when it started, the phase it ran in ("train" inside
``train_steps``, "eval" inside ``evaluate_perplexity``, else "other"), the
search trial id and the training step. Spans stay in memory and are written
when the run ends. Wrappers keep no reference to arguments or results, so
tensors are freed exactly as without tracing.

Two levels exist. The timeline level, used by every run, spans only the
command's outer loop (``cli.main``, ``train_steps``, ``sample_batch``,
``evaluate_perplexity``, ``evolve``): a few spans per step. The full level
adds spans on every layer, counts calls into the tensor ops, times
cyclic-GC passes and checks every routing decision.
"""

from __future__ import annotations

import gc
import json
import time
import types
from collections import Counter

# (span name, module, attribute path, phase the span sets)
TIMELINE_TARGETS = (
    ("cli.main", "cli", "main", None),
    ("training.train_steps", "training", "train_steps", "train"),
    ("training.sample_batch", "training", "ByteCorpus.sample_batch", None),
    ("training.evaluate_perplexity", "training", "evaluate_perplexity", "eval"),
    ("search.evolve", "search", "evolve", None),
)

FULL_TARGETS = TIMELINE_TARGETS + (
    ("tensor.backward", "tensor", "Tensor.backward", None),
    ("layers.attention_forward", "layers", "attention_forward", None),
    ("layers.ffn_forward", "layers", "ffn_forward", None),
    ("layers.moe_forward", "layers", "moe_forward", None),
    ("layers.gate_scores", "layers", "gate_scores", None),
    ("layers.route_top2", "layers", "route_top2", None),
    ("layers.route_expert_choice", "layers", "route_expert_choice", None),
    ("layers.load_balance_aux_loss", "layers", "load_balance_aux_loss", None),
    ("model.lm_loss", "model", "lm_loss", None),
    ("model.build", "model", "LanguageModel.__init__", None),
    ("training.optimizer_update", "training", "Adafactor.update", None),
    ("search.trial", "search", "ProxyTrainingRunner.evaluate", None),
    ("search.baseline", "search", "ProxyTrainingRunner.baseline_record", None),
)

MODULES = ("tensor", "layers", "model", "training", "search", "cli")


class SetupDone(Exception):
    """Raised at the first timed step or trial by a set-up-only run."""


class Tracer:
    def __init__(self, package, full=False, setup_only=False):
        self.package = package
        self.full = full
        self.setup_only = setup_only
        self.spans = []
        self._stack = []
        self.phase = "other"
        self.trial = -1
        self.step = 0
        self.setup_end = None  # time.monotonic() at the first step or trial
        self.eval_tokens = 0
        self.op_calls = {"train": Counter(), "eval": Counter(), "other": Counter()}
        self.gc = {"train": [0, 0.0], "eval": [0, 0.0], "other": [0, 0.0]}
        self._gc_start = None
        self.routing = {"checked": 0, "violations": []}
        self.missing = []
        self._modules = [getattr(package, m) for m in MODULES] + [package]
        self._restore = []

    # -- installing -----------------------------------------------------
    def install(self):
        for name, module, path, phase in (FULL_TARGETS if self.full
                                          else TIMELINE_TARGETS):
            self._wrap(name, module, path, phase)
        self._wrap_windows()
        if self.full:
            self._wrap_tensor_ops()
            gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _resolve(self, module, path):
        owner = getattr(self.package, module)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        return owner, parts[-1]

    def _replace(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr]
        wrapped = make_wrapper(original)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if isinstance(owner, types.ModuleType):
            # also rebind names bound by ``from .x import f``
            for mod in self._modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def _wrap(self, name, module, path, phase):
        owner, attr = self._resolve(module, path)
        if owner is None or attr not in vars(owner):
            self.missing.append(f"{module}.{path}")
            return
        before = {
            "training.sample_batch": self._before_batch,
            "training.train_steps": self._before_work,
            "search.evolve": self._before_work,
            "search.trial": self._before_trial,
        }.get(name)
        check = {
            "layers.route_top2": self._check_top2,
            "layers.route_expert_choice": self._check_expert_choice,
        }.get(name) if self.full else None
        self._replace(owner, attr,
                      lambda fn: self._span_wrapper(name, fn, phase, before, check))

    def _span_wrapper(self, name, fn, phase, before, check):
        tracer, spans, stack = self, self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = tracer.phase
            if phase is not None:
                tracer.phase = phase
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.phase = outer
                stack.pop()
                spans[idx] = (name, t0, t1, parent, phase or outer,
                              tracer.trial, tracer.step)
            if check is not None:
                tracer._timed_check(check, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_windows(self):
        owner, attr = self._resolve("training", "ByteCorpus.windows")
        if owner is None or attr not in vars(owner):
            self.missing.append("training.ByteCorpus.windows")
            return
        tracer = self

        def make(fn):
            def windows(*args, **kwargs):
                for inputs, targets in fn(*args, **kwargs):
                    tracer.eval_tokens += len(targets)
                    yield inputs, targets
            return windows
        self._replace(owner, attr, make)

    def _wrap_tensor_ops(self):
        tensor = self.package.tensor
        names = [k for k, v in vars(tensor).items()
                 if not k.startswith("_") and isinstance(v, types.FunctionType)
                 and v.__module__ == tensor.__name__]
        calls = self.op_calls
        tracer = self

        def make_counter(op):
            def make(fn):
                def counted(*args, **kwargs):
                    calls[tracer.phase][op] += 1
                    return fn(*args, **kwargs)
                counted.__wrapped__ = fn
                return counted
            return make
        for op in names:
            self._replace(tensor, op, make_counter(op))

    # -- hooks ----------------------------------------------------------
    def _before_work(self, args):
        if self.setup_end is None:
            self.setup_end = time.monotonic()
            if self.setup_only:
                raise SetupDone()

    def _before_batch(self, args):
        if self.phase == "train":
            self.step += 1

    def _before_trial(self, args):
        self.trial = args[1].id  # (runner, candidate)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            acc = self.gc[self.phase]
            acc[0] += 1
            acc[1] += time.perf_counter() - self._gc_start
            self._gc_start = None

    def _timed_check(self, check, args, decision):
        # its own span, so the parent's self time does not include it
        parent = self._stack[-1] if self._stack else -1
        t0 = time.perf_counter()
        try:
            check(args, decision)
        finally:
            self.spans.append(("bench.check", t0, time.perf_counter(), parent,
                               self.phase, self.trial, self.step))

    # -- routing invariants ---------------------------------------------
    def _loads(self, args, decision):
        scores, capacity = args[0], args[1]
        per_expert = [0] * scores.shape[1]
        per_token = Counter()
        for tok, exp, _ in decision.assignments:
            per_expert[exp] += 1
            per_token[tok] += 1
        self.routing["checked"] += 1
        return capacity, per_expert, per_token

    def _violation(self, text):
        if len(self.routing["violations"]) < 20:
            self.routing["violations"].append(f"step {self.step}: {text}")

    def _check_expert_choice(self, args, decision):
        capacity, per_expert, _ = self._loads(args, decision)
        if any(load != capacity for load in per_expert):
            self._violation(f"expert choice loads {per_expert} != capacity {capacity}")

    def _check_top2(self, args, decision):
        capacity, per_expert, per_token = self._loads(args, decision)
        if max(per_expert, default=0) > capacity:
            self._violation(f"top-2 load {max(per_expert)} > capacity {capacity}")
        if max(per_token.values(), default=0) > 2:
            self._violation("a token has more than 2 top-2 assignments")

    # -- output ---------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, phase, trial, step in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "phase": phase,
                                     "trial": trial, "step": step}) + "\n")

    def summary(self):
        return {
            "setup_end": self.setup_end,
            "eval_tokens": self.eval_tokens,
            "op_calls": {k: dict(v) for k, v in self.op_calls.items()},
            "gc": {k: {"passes": v[0], "seconds": v[1]} for k, v in self.gc.items()},
            "routing": self.routing,
            "missing": self.missing,
        }
