"""Desk-scale LM training: Adafactor, constant-then-inverse-sqrt schedule,
byte-level corpus ingestion, one step loop that trains a given number of
steps, its carried state and one-file checkpoint, perplexity evaluation.
A search budget becomes a step count in ``search.run_trial`` alone.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import os
import time
import zipfile
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .layers import ConfigError, positive_int, real_number
from .model import lm_loss
from .threads import CHUNK_BYTES, helper

BYTE_VOCAB = 258  # 256 byte values + 2 reserved specials


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    base_lr: float = 0.05
    warmup_constant_steps: int = 100
    max_steps: int = 1000
    batch_size: int = 8
    seq_len: int = 128
    seed: int = 0
    aux_coeff: float = 0.01
    valid_fraction: float = 0.1
    log_every: int = 1
    eval_tokens: int = 2048
    # no dropout field on purpose: training never uses dropout

    def __post_init__(self):
        """Counts are ints (seed and max_steps may be 0, the others are at
        least 1); rates and fractions are real numbers, never bools, and
        the rates lie in their ranges (``ByteCorpus`` checks the split)."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                least = 0 if f.name in ("seed", "max_steps") else 1
                if not positive_int(value, least):
                    raise ConfigError(f"{f.name} must be an integer >= {least}, "
                                      f"got {value!r}")
            elif not real_number(value):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
        for name, in_range, rule in (("base_lr", self.base_lr > 0, "> 0"),
                                     ("aux_coeff", self.aux_coeff >= 0, ">= 0")):
            if not in_range:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, doc):
        bad = set(doc) - set(cls.__dataclass_fields__)
        if bad:
            raise ConfigError(f"unknown train config fields: {sorted(bad)}")
        return cls(**doc)


def lr_at(step, cfg):
    """Constant for the warmup window, then inverse-sqrt decay, continuous
    at the boundary."""
    if step < 1:
        raise ValueError("steps are 1-based")
    w = cfg.warmup_constant_steps
    if step <= w:
        return cfg.base_lr
    return cfg.base_lr * math.sqrt(w / step)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

class ByteCorpus:
    """Raw bytes as token ids with a disjoint train/validation split.
    ``has_valid``: the validation split holds a window (at least 2 ids)."""

    def __init__(self, data, valid_fraction=0.1):
        if not (real_number(valid_fraction) and 0 <= valid_fraction < 1):
            raise ConfigError(f"valid_fraction must be a number in [0, 1), "
                              f"got {valid_fraction!r}")
        ids = np.frombuffer(bytes(data), dtype=np.uint8).astype(np.int64)
        if ids.size < 2:
            raise ConfigError("corpus too small")
        n_valid = int(round(len(ids) * valid_fraction))
        split = len(ids) - n_valid
        if split < 2:
            raise ConfigError("validation fraction leaves no training data")
        self.train_ids = ids[:split]
        self.valid_ids = ids[split:]
        self.has_valid = self.valid_ids.size >= 2

    def sample_batch(self, rng, batch_size, seq_len):
        """Flat training (inputs, targets) of shape [batch_size * seq_len]."""
        ids = self.train_ids
        if ids.size < seq_len + 1:
            # wrap short corpora so any seq_len is usable
            reps = (seq_len + 1) // ids.size + 1
            ids = np.tile(ids, reps)
        starts = rng.integers(0, ids.size - seq_len, size=batch_size)
        win = ids[starts[:, None] + np.arange(seq_len + 1)]
        return win[:, :-1].reshape(-1), win[:, 1:].reshape(-1)

    def _split(self, split):
        return self.train_ids if split == "train" else self.valid_ids

    def window_len(self, seq_len, split="valid"):
        """The length of each evaluation window of ``split``: ``seq_len``,
        or all but the last id of a split no longer than that."""
        return min(seq_len, self._split(split).size - 1)

    def windows(self, seq_len, split="valid", max_tokens=None):
        """Consecutive non-overlapping (inputs, targets) evaluation windows."""
        ids, n = self._split(split), self.window_len(seq_len, split)
        if n < 1:
            return
        total = 0
        for s in range(0, ids.size - n, n):
            yield ids[s:s + n], ids[s + 1:s + n + 1]
            total += n
            if max_tokens is not None and total >= max_tokens:
                return


# ---------------------------------------------------------------------------
# Adafactor (first-moment decay 0, fixed second-moment decay)
# ---------------------------------------------------------------------------

class _Chunk:
    """Same-shape params stepped together. Their values and moments are
    ``arrays`` stacked along a new first axis (``"p"``, ``"r"``/``"c"`` or
    ``"v"``); each ``p.data`` and ``Adafactor.state`` entry is a view of
    its slice. A one-member chunk stacks ``p.data[None]``, not a copy."""

    def __init__(self, names, params, state):
        k, shape = len(names), params[names[0]].shape
        self.names = names
        self.members = [params[name] for name in names]
        self.factored = len(shape) == 2 and shape[0] > 1 and shape[1] > 1
        self.arrays = {"p": self.members[0].data[None] if k == 1
                       else np.stack([p.data for p in self.members])}
        if self.factored:
            self.arrays.update(r=np.zeros((k, shape[0])), c=np.zeros((k, shape[1])))
        else:
            self.arrays["v"] = np.zeros((k,) + shape)
        for i, (name, p) in enumerate(zip(names, self.members)):
            p.data = self.arrays["p"][i, ...]  # [i] of a 1-D stack would be a copy
            state[name] = {key: a[i, ...] for key, a in self.arrays.items() if key != "p"}


class Adafactor:
    """Factored second-moment optimizer.

    beta1 = 0 so no first-moment state is kept. Matrices factor the
    running second moment into row/column sums; vectors and scalars keep
    the full accumulator. Update clipping threshold 1.0, relative step
    size scaled by the parameter RMS.

    Params are grouped by shape (in order of first appearance) into chunks
    of up to ``CHUNK_BYTES // param_bytes`` members, at least one, so a
    big param (of at least ``CHUNK_BYTES``) is a chunk of its own. The
    optimizer owns the params' values and moments and steps them in place;
    outside code may change a param in place but never rebinds ``p.data``.
    """

    BETA2 = 0.99
    EPS1 = 1e-30
    EPS2 = 1e-3
    CLIP = 1.0

    def __init__(self, params):
        self.state = {}
        by_shape = {}
        for name, p in params.items():
            by_shape.setdefault(p.data.shape, []).append(name)
        self._chunks = []
        for shape, names in by_shape.items():
            per_chunk = max(1, CHUNK_BYTES // params[names[0]].data.nbytes)
            for i in range(0, len(names), per_chunk):
                self._chunks.append(_Chunk(names[i:i + per_chunk], params, self.state))
        # param -> chunk, for the params of at least CHUNK_BYTES (one-member
        # chunks), which ``sweep`` steps
        self._big = {c.members[0]: c for c in self._chunks
                     if c.members[0].data.nbytes >= CHUNK_BYTES}

    @contextlib.contextmanager
    def sweep(self, lr):
        """``with opt.sweep(lr) as on_leaf: loss.backward(on_leaf)`` is one
        training step. ``on_leaf`` submits the step of each big param (of at
        least ``CHUNK_BYTES``) to the process's ``helper()`` once the sweep
        reports it: its gradient is final and no later backward op reads it,
        so the helper thread steps it, as ``update`` would, while the sweep
        goes on (a ``tensor.Product`` multiplied out there). When the sweep
        ends, the caller steps in order what the thread has not started and
        waits for the one in flight. It then re-raises the first error of
        those steps (no big param after that one was stepped, and ``update``
        does not run), or calls ``update(lr)`` for every other chunk, back
        to back: handed to the thread too, the small ones made the search
        slower."""
        worker = helper() if self._big else None

        def on_leaf(leaf):
            chunk = self._big.get(leaf)
            if chunk is not None:
                worker.submit((self._update_chunk, chunk, [0], lr))
        try:
            yield on_leaf
        finally:
            error = worker.take_over() if worker else None
        if error:
            raise error
        self.update(lr)

    def update(self, lr):
        """One step on every parameter that has a gradient, one chunk at a
        time, bit for bit the arithmetic of a loop over the params. A chunk
        stacks its members' gradients (a lone array as a view, a
        ``tensor.Product`` multiplied out), drops them once its moments are
        updated, and subtracts the step from its params in place. In
        training, ``sweep`` has already stepped the big params (of at least
        ``CHUNK_BYTES``) and calls this for every other chunk, one-member or
        stacked.

        The factored step is g * rsqrt(r / sum(r))[:, None] * rsqrt(c)[None, :],
        which equals g / sqrt(outer(r, c) / sum(r)) without building the
        outer product. Raises TrainingError naming the first parameter whose
        gradient holds a NaN or inf, in chunk order (shapes by first
        appearance, each in construction order); in training, ``sweep`` has
        raised first for a big param, in sweep order. Earlier chunks are
        stepped, and its chunk's params, moments and gradients are left as
        they were.
        """
        for chunk in self._chunks:
            live = [i for i, p in enumerate(chunk.members) if p.grad is not None]
            if live:
                self._update_chunk(chunk, live, lr)

    def _update_chunk(self, chunk, live, lr):
        """Step the chunk's members at indices ``live``: the whole chunk in
        place, or copies of part of its arrays, written back once stepped."""
        k = len(live)
        members = [chunk.members[i] for i in live]
        whole = k == len(chunk.members)
        arrays = chunk.arrays if whole else {key: a[live] for key, a in chunk.arrays.items()}
        P = arrays["p"]
        if k == 1 and type(members[0].grad) is not T.Product:
            G = members[0].grad[None]
        else:
            G = np.empty(P.shape)
            for i, p in enumerate(members):
                if type(p.grad) is T.Product:
                    p.grad.value(G[i])
                else:
                    G[i, ...] = p.grad
        # one fresh buffer holds g * g, then the step u
        G2 = np.multiply(G, G, out=np.empty(G.shape))
        if chunk.factored:
            R, C = arrays["r"], arrays["c"]
            rows = np.add.reduce(G2, axis=2)
            self._check_finite(chunk, live, G, rows)
            self._decay(R, rows, G.shape[2])
            self._decay(C, np.add.reduce(G2, axis=1), G.shape[1])
            row_factor = 1.0 / np.sqrt(R / np.add.reduce(R, axis=1, keepdims=True))
            U = np.multiply(G, row_factor[:, :, None], out=G2)
            U *= (1.0 / np.sqrt(C))[:, None, :]
        else:
            self._check_finite(chunk, live, G, G2)
            U = np.divide(G, np.sqrt(self._decay(arrays["v"], G2, 1)), out=G2)
        for p in members:
            p.grad = None
        # each RMS is one np.vecdot per slice, the dot a loop runs (einsum
        # rounds differently); the scale is in Python floats, because numpy
        # calls on length-1 arrays slowed the one-member chunks
        flat_u, flat_p = U.reshape(k, -1), P.reshape(k, -1)  # flat_u is a view of U
        size = flat_u.shape[1]
        scale = [lr * max(self.EPS2, math.sqrt(pp / size)) / max(1.0, math.sqrt(uu / size) / self.CLIP)
                 for uu, pp in zip(np.vecdot(flat_u, flat_u).tolist(), np.vecdot(flat_p, flat_p).tolist())]
        flat_u *= np.array(scale)[:, None]
        P -= U
        if not whole:
            for key, a in arrays.items():
                chunk.arrays[key][live] = a

    def _decay(self, moment, fresh, n):
        """``moment = BETA2 * moment + (1 - BETA2) * (fresh + n * EPS1)`` in place,
        ``fresh`` being g * g summed over n entries (overwritten); returns ``moment``."""
        fresh += n * self.EPS1
        fresh *= 1 - self.BETA2
        moment *= self.BETA2
        moment += fresh
        return moment

    @staticmethod
    def _check_finite(chunk, live, G, reduced):
        """Raise naming the first member whose gradient (a slice of G) is
        not finite. ``reduced`` (G * G or its row sums, all >= 0) has a
        non-finite sum whenever G is not finite, so G is scanned only then."""
        if not math.isfinite(np.add.reduce(reduced, axis=None)):
            for i, g in zip(live, G):
                if not np.isfinite(g).all():
                    raise TrainingError(f"non-finite gradient in {chunk.names[i]!r}")


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    """All a run holds besides the params: Adafactor moments, batch RNG and
    steps trained. ``train_steps`` advances it; a checkpoint holds it all."""

    optimizer: Adafactor
    rng: np.random.Generator
    step: int = 0

    @classmethod
    def fresh(cls, model, cfg):
        return cls(Adafactor(model.params), np.random.default_rng(cfg.seed))


def _checkpoint_arrays(model, state):
    """A checkpoint's arrays by entry: ``param/<name>``, ``r|c|v/<name>``."""
    arrays = {f"param/{n}": model.params[n].data for n in sorted(model.params)}
    arrays.update((f"{k}/{n}", moments[k]) for n, moments in
                  sorted(state.optimizer.state.items()) for k in sorted(moments))
    return arrays


def save_checkpoint(model, state, path):
    """One ``.npz`` of the params, the state's Adafactor moments and a JSON
    ``meta`` entry (step, batch RNG). It is written and fsynced as
    ``path + ".tmp"``, then renamed onto ``path``, so a crash leaves the
    old checkpoint or the new one, never a mix."""
    meta = json.dumps({"step": state.step, "rng": state.rng.bit_generator.state}, sort_keys=True)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, meta=np.array(meta), **_checkpoint_arrays(model, state))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(model, state, path):
    """Restore the params and the state's moments, RNG and step in place,
    copying into the arrays the run holds (no ``p.data`` is rebound).
    A file that is not a checkpoint of exactly this model's params and this
    state's moments, shapes included, raises ConfigError and changes nothing.
    It is opened here: ``np.load`` leaves its own handle open on a bad zip."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
        meta = json.loads(str(arrays.pop("meta")))
        step = meta["step"]
        if not positive_int(step, 0):
            raise ValueError(f"step {step!r}")
        rng = copy.deepcopy(state.rng)
        rng.bit_generator.state = meta["rng"]
    except (OSError, zipfile.BadZipFile, EOFError, ValueError, KeyError,
            TypeError, NotImplementedError) as exc:
        raise ConfigError(f"unreadable checkpoint {path}: {exc!r}") from None
    want = {(key, arr.shape) for key, arr in _checkpoint_arrays(model, state).items()}
    misfit = sorted(want ^ {(key, arr.shape) for key, arr in arrays.items()})
    if misfit:
        raise ConfigError(f"checkpoint {path} does not fit this run: {misfit[0][0]!r}")
    for key, view in _checkpoint_arrays(model, state).items():
        view[...] = arrays[key]
    state.rng, state.step = rng, step


@dataclass
class TrainResult:
    records: list = field(default_factory=list)
    steps: int = 0
    diverged: bool = False
    final_loss: float = None


def train_steps(model, corpus, cfg, n_steps, state, trajectory_path=None):
    """Train ``n_steps`` steps (0 is a no-op run), advancing ``state``
    (moments, RNG, step) in place, so calls that share one state are one
    run, bitwise. Backward frees each step's graph as it sweeps, and inside
    ``Adafactor.sweep`` the process's helper thread steps each big param
    once its gradient is final while the sweep goes on; after the sweep the
    rest of the chunks are stepped back to back. A non-finite gradient
    raises TrainingError after the sweep. Between steps the run holds its
    params and ``state`` only. Divergence (non-finite loss) aborts with the
    partial trajectory retained.
    """
    result = TrainResult()
    out = open(trajectory_path, "a") if trajectory_path else None
    try:
        while result.steps < n_steps:
            t0 = time.monotonic()
            inputs, targets = corpus.sample_batch(state.rng, cfg.batch_size, cfg.seq_len)
            loss, ce = lm_loss(model, inputs, targets,
                               aux_coeff=cfg.aux_coeff, seq_len=cfg.seq_len)
            if not math.isfinite(loss.item()):
                result.diverged = True
                break
            lr = lr_at(state.step + 1, cfg)
            with state.optimizer.sweep(lr) as on_leaf:
                loss.backward(on_leaf)
            state.step += 1
            result.steps += 1
            result.final_loss = ce.item()
            if state.step % cfg.log_every == 0:  # the run's step, not this call's
                rec = {"step": state.step, "loss": ce.item(), "lr": lr,
                       "step_time": time.monotonic() - t0}
                result.records.append(rec)
                if out:
                    out.write(json.dumps(rec, sort_keys=True) + "\n")
                    out.flush()
    finally:
        if out:
            out.close()
    return result


def read_log(path, parse, keep=None):
    """``(records, end)`` of a JSONL run log to resume, changing no byte:
    ``parse`` of each complete line's JSON value (raising ValueError,
    KeyError or TypeError for one that is not a record), cut to the
    longest prefix ``keep`` accepts, and the offset just past its last
    line (None for a missing file, which has no records). A complete line
    that is not a record (a blank one is not), or a path that cannot be
    read and written (a directory), raises ConfigError."""
    try:
        fh = open(path, "rb+")  # a log that cannot be cut is refused here
    except FileNotFoundError:
        return [], None
    except OSError as exc:
        raise ConfigError(f"cannot resume from {path}: {exc}") from None
    with fh:
        lines = fh.read().split(b"\n")[:-1]  # the complete lines
    try:
        records = [parse(json.loads(line)) for line in lines]
    except (ValueError, KeyError, TypeError):  # not JSON, or not a record
        raise ConfigError(f"cannot resume from {path}: a complete line "
                          f"is not a record") from None
    kept = next((i for i, rec in enumerate(records) if keep and not keep(rec)),
                len(records))
    return records[:kept], sum(len(line) + 1 for line in lines[:kept])


def cut_trajectory(path, step):
    """Keep a ``train_steps`` trajectory's records up to ``step``, so a
    resumed run appends to what its checkpoint holds: the file is cut
    after ``read_log``'s records, so a torn last line (a crash mid-write)
    goes, and a refused log is left as it was."""
    def record_step(doc):
        if not positive_int(doc["step"], 1):
            raise ValueError(f"step {doc['step']!r}")
        return doc["step"]
    _, end = read_log(path, record_step, keep=lambda s: s <= step)
    if end is not None:
        os.truncate(path, end)


# Tokens per evaluation forward. Stacking windows into one forward trades
# Python overhead per op for larger arrays: on the wide benchmark model,
# 512 to 2048 tokens ran at the same speed with flat peak memory, while one
# forward over all 16384 eval tokens nearly doubled peak memory.
EVAL_BATCH_TOKENS = 512


def evaluate_perplexity(model, corpus, split="valid", seq_len=128, max_tokens=None):
    """exp(mean token cross entropy), teacher-forced over the slice; inf
    where that overflows a float.

    Windows are stacked ``EVAL_BATCH_TOKENS // window`` (at least one) to
    a forward, which records no graph. Each window is its own sequence and
    its own routing group, so it gets the routing decisions it would get
    alone; only the rounding of batched matrix products can differ.

    The caller's thread and the process's ``helper()`` thread share the
    forwards (``_Helper.share``), and the first error a forward met on
    either thread raises here. Each forward's ``(nll * tokens, tokens)`` is
    summed in window order, so the result is bitwise that of one thread
    scoring the forwards in turn. ``no_grad`` is entered once, here, around
    both threads' forwards: its flag is global to the module, so a job must
    not enter it.
    """
    windows = list(corpus.windows(seq_len, split=split, max_tokens=max_tokens))
    if not windows:
        raise ValueError(f"no evaluation windows in {split} slice")
    n = windows[0][0].size
    per_forward = max(1, EVAL_BATCH_TOKENS // n)
    batches = [windows[s:s + per_forward] for s in range(0, len(windows), per_forward)]
    scores = [None] * len(batches)

    def score(i):
        inputs = np.concatenate([w for w, _ in batches[i]])
        targets = np.concatenate([t for _, t in batches[i]])
        logits, _ = model.forward(inputs, seq_len=n, group_size=n)
        scores[i] = (T.cross_entropy(logits, targets).item() * targets.size, targets.size)

    with T.no_grad():
        helper().share(score, range(len(batches)))
    total_nll = 0.0
    total_tokens = 0
    for nll, tokens in scores:
        total_nll += nll
        total_tokens += tokens
    try:
        return math.exp(total_nll / total_tokens)
    except OverflowError:  # a mean NLL past about 709.78 nats
        return math.inf


def measure_step_time(model, corpus, cfg):
    """Median recorded ``step_time`` of 3 steps after one warm-up step of
    training a throwaway copy of the model (inf if it diverges first)."""
    throwaway = copy.deepcopy(model)
    res = train_steps(throwaway, corpus, replace(cfg, log_every=1), 4,
                      TrainState.fresh(throwaway, cfg))
    times = [r["step_time"] for r in res.records[1:]]  # first is warm-up
    return float(np.median(times)) if times else math.inf
