"""Desk-scale LM training: Adafactor, constant-then-inverse-sqrt schedule,
byte-level corpus ingestion, one step loop that trains a given number of
steps, its carried state and one-file checkpoint, perplexity evaluation.
A search budget becomes a step count in ``search.run_trial`` alone.
"""

from __future__ import annotations

import copy
import json
import math
import os
import time
import zipfile
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .layers import positive_int, real_number
from .model import ConfigError, lm_loss

BYTE_VOCAB = 258  # 256 byte values + 2 reserved specials
TOK_BOS = 256
TOK_EOS = 257


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
    beta2: float = 0.99
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
                    raise ValueError(f"{f.name} must be an integer >= {least}, "
                                     f"got {value!r}")
            elif not real_number(value):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        for name, in_range, rule in (("base_lr", self.base_lr > 0, "> 0"),
                                     ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                                     ("aux_coeff", self.aux_coeff >= 0, ">= 0")):
            if not in_range:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, doc):
        known = {f for f in cls.__dataclass_fields__}
        bad = set(doc) - known
        if bad:
            raise ValueError(f"unknown train config fields: {sorted(bad)}")
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
    """Raw bytes as token ids with a disjoint train/validation split."""

    def __init__(self, data, valid_fraction=0.1):
        if not (real_number(valid_fraction) and 0 <= valid_fraction < 1):
            raise ValueError(f"valid_fraction must be a number in [0, 1), "
                             f"got {valid_fraction!r}")
        ids = np.frombuffer(bytes(data), dtype=np.uint8).astype(np.int64)
        if ids.size < 2:
            raise ValueError("corpus too small")
        n_valid = int(round(len(ids) * valid_fraction))
        split = len(ids) - n_valid
        if split < 2:
            raise ValueError("validation fraction leaves no training data")
        self.train_ids = ids[:split]
        self.valid_ids = ids[split:]
        self.vocab_size = BYTE_VOCAB

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

class Adafactor:
    """Factored second-moment optimizer.

    beta1 = 0 so no first-moment state is kept. Matrices factor the
    running second moment into row/column sums; vectors and scalars keep
    the full accumulator. Update clipping threshold 1.0, relative step
    size scaled by the parameter RMS.
    """

    EPS1 = 1e-30
    EPS2 = 1e-3
    CLIP = 1.0

    def __init__(self, params, beta2=0.99):
        self.beta2 = beta2
        self.state = {}
        for name, p in params.items():
            if p.data.ndim == 2 and p.data.shape[0] > 1 and p.data.shape[1] > 1:
                self.state[name] = {
                    "r": np.zeros(p.data.shape[0]),
                    "c": np.zeros(p.data.shape[1]),
                }
            else:
                self.state[name] = {"v": np.zeros_like(p.data)}

    def update(self, params, lr):
        """One step on every parameter that has a gradient.

        The factored step is g * rsqrt(r / sum(r))[:, None] * rsqrt(c)[None, :],
        which equals g / sqrt(outer(r, c) / sum(r)) without building the
        outer product. Raises TrainingError naming the first parameter
        whose gradient holds a NaN or inf.
        """
        b2 = self.beta2
        for name, p in params.items():
            g = p.grad
            if g is None:
                continue
            st = self.state[name]
            # one fresh buffer per parameter holds g * g, then the step u,
            # then the new params (out= keeps it an array for 0-d params)
            g2 = np.multiply(g, g, out=np.empty_like(p.data))
            if "r" in st:
                rows = g2.sum(axis=1)
                self._check_finite(name, g, rows)
                st["r"] = b2 * st["r"] + (1 - b2) * (rows + g.shape[1] * self.EPS1)
                st["c"] = b2 * st["c"] + (1 - b2) * (g2.sum(axis=0) + g.shape[0] * self.EPS1)
                u = np.multiply(g, (1.0 / np.sqrt(st["r"] / st["r"].sum()))[:, None], out=g2)
                u *= 1.0 / np.sqrt(st["c"])
            else:
                self._check_finite(name, g, g2)
                g2 += self.EPS1
                st["v"] = b2 * st["v"] + (1 - b2) * g2
                u = np.divide(g, np.sqrt(st["v"]), out=g2)
            flat_u, flat_p = u.reshape(-1), p.data.reshape(-1)
            rms_u = math.sqrt(np.dot(flat_u, flat_u) / flat_u.size)
            rms_p = math.sqrt(np.dot(flat_p, flat_p) / flat_p.size)
            u *= lr * max(self.EPS2, rms_p) / max(1.0, rms_u / self.CLIP)
            p.data = np.subtract(p.data, u, out=u)

    @staticmethod
    def _check_finite(name, g, reduced):
        """Raise if g holds a NaN or inf. ``reduced`` (g * g or its row
        sums) is non-finite whenever g is, so g is scanned only then."""
        if not np.isfinite(reduced).all() and not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient in {name!r}")


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    """What a run carries between ``train_steps`` calls besides the params
    and ``model.step``: the optimizer moments and the batch RNG."""

    optimizer: Adafactor
    rng: np.random.Generator

    @classmethod
    def fresh(cls, model, cfg):
        return cls(Adafactor(model.params, beta2=cfg.beta2),
                   np.random.default_rng(cfg.seed))


def save_checkpoint(model, path, state=None):
    """One ``.npz`` of the params, a training state's Adafactor moments and
    a JSON ``meta`` entry (step, batch RNG). It is written and fsynced as
    ``path + ".tmp"``, then renamed onto ``path``, so a crash leaves the
    old checkpoint or the new one, never a mix."""
    meta = {"step": model.step}
    arrays = {f"param/{n}": model.params[n].data for n in sorted(model.params)}
    if state is not None:
        meta["rng"] = state.rng.bit_generator.state
        arrays.update((f"{k}/{n}", moments[k]) for n, moments in
                      sorted(state.optimizer.state.items()) for k in sorted(moments))
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(model, path, state=None):
    """Restore params and ``model.step``, and a given training state's
    moments and RNG in place; a params-only checkpoint leaves it as is.
    A file that does not read as a checkpoint raises ConfigError. The file
    is opened here, not by ``np.load``, which leaves its own handle open
    when the zip directory does not parse."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
        meta = json.loads(str(arrays.pop("meta")))
        step = int(meta["step"])
    except (OSError, zipfile.BadZipFile, EOFError, ValueError, KeyError,
            NotImplementedError) as exc:
        raise ConfigError(f"unreadable checkpoint {path}: {exc!r}") from None
    for key, arr in arrays.items():
        section, name = key.split("/", 1)
        if section == "param":
            if name not in model.params or model.params[name].data.shape != arr.shape:
                raise ConfigError(f"checkpoint tensor {name!r} does not fit this model")
            model.params[name].data = arr
        elif state is not None:  # an Adafactor moment: "r", "c" or "v"
            state.optimizer.state[name][section] = arr
    if state is not None and "rng" in meta:
        state.rng.bit_generator.state = meta["rng"]
    model.step = step


@dataclass
class TrainResult:
    records: list = field(default_factory=list)
    steps: int = 0
    diverged: bool = False
    final_loss: float = None
    state: TrainState = None


def train_steps(model, corpus, cfg, n_steps, trajectory_path=None, state=None):
    """Train ``n_steps`` steps (0 is a no-op run).

    ``state=None`` starts fresh (zero moments, RNG from ``cfg.seed``);
    passing the returned ``result.state`` on continues the run bitwise.
    Divergence (non-finite loss) aborts with the partial trajectory
    retained.
    """
    state = state or TrainState.fresh(model, cfg)
    result = TrainResult(state=state)
    out = open(trajectory_path, "a") if trajectory_path else None
    try:
        while result.steps < n_steps:
            t0 = time.monotonic()
            inputs, targets = corpus.sample_batch(state.rng, cfg.batch_size, cfg.seq_len)
            loss, ce = lm_loss(model, inputs, targets,
                               aux_coeff=cfg.aux_coeff, seq_len=cfg.seq_len)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                result.diverged = True
                break
            model.zero_grad()
            loss.backward()
            lr = lr_at(model.step + 1, cfg)
            state.optimizer.update(model.params, lr)
            model.step += 1
            result.steps += 1
            result.final_loss = ce.item()
            if result.steps % cfg.log_every == 0:
                rec = {"step": model.step, "loss": ce.item(), "lr": lr,
                       "step_time": time.monotonic() - t0}
                result.records.append(rec)
                if out:
                    out.write(json.dumps(rec, sort_keys=True) + "\n")
                    out.flush()
    finally:
        if out:
            out.close()
    return result


def cut_trajectory(path, step):
    """Keep the records of a ``train_steps`` trajectory up to ``step``, so
    a resumed run appends to what its checkpoint holds; a torn last line
    goes too."""
    with open(path, "rb+") as fh:
        keep = 0
        for line in fh:
            if not line.endswith(b"\n") or json.loads(line)["step"] > step:
                break
            keep += len(line)
        fh.truncate(keep)


def model_has_valid(corpus):
    return corpus.valid_ids.size >= 2


def evaluate_perplexity(model, corpus, split="valid", seq_len=128, max_tokens=None):
    """exp(mean token cross entropy), teacher-forced over the slice."""
    total_nll = 0.0
    total_tokens = 0
    for inputs, targets in corpus.windows(seq_len, split=split, max_tokens=max_tokens):
        logits, _ = model.forward(inputs, seq_len=len(inputs))
        ce = T.cross_entropy(logits, targets)
        total_nll += ce.item() * len(targets)
        total_tokens += len(targets)
    if total_tokens == 0:
        raise ValueError(f"no evaluation windows in {split} slice")
    return math.exp(total_nll / total_tokens)


def measure_step_time(model, corpus, cfg):
    """Median recorded ``step_time`` of 3 steps after one warm-up step of
    training a throwaway copy of the model (inf if it diverges first)."""
    res = train_steps(copy.deepcopy(model), corpus, replace(cfg, log_every=1), 4)
    times = [r["step_time"] for r in res.records[1:]]  # first is warm-up
    return float(np.median(times)) if times else math.inf
