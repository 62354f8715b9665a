"""Constrained evolutionary block search.

Regularized (aging) evolution over the block genome space: tournament
selection from the population, single-field mutation, oldest-member
eviction. Trials run serially, one at a time in trial-id order, so a
wall-clock trial times nothing but itself.

Every trial follows one protocol (``run_trial``): it stacks the candidate
block three times and trains it under a fixed budget (faster blocks
complete more steps); it is pruned if its step time exceeds the
baseline's, or if its quality at the 25% checkpoint trails the
baseline's there. Pruned and diverged trials score -1; completed trials
score the negative final validation loss. The runners differ only in how
they time a step, train, and measure quality: a closed-form surrogate
curve, or real proxy training.

The searched genome fields are stated once, in ``SEARCHED_FIELDS``; each
draws from its ``<field>_choices`` domain of ``SearchSpace``, next to the
block length and layer order.

All per-trial randomness derives from (seed, phase, index), so a search
is bitwise reproducible and crash-resumable from its JSONL ledger alone.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import layers as L
from .model import (
    BlockSpec, ModelSpec, ConfigError, LanguageModel,
    KIND_ATTN, LAYER_KINDS,
    count_params, step_cost_units, glam_baseline_block,
    SCALE_FACTORS, scale_model_dim,
)
from .training import (
    TrainConfig, TrainState, evaluate_perplexity, measure_step_time,
    read_log, train_steps, BYTE_VOCAB,
)

PROXY_STACK = 3  # proxy models stack the candidate block three times

STOP_COMPLETED = "completed"
STOP_STEP_TIME = "step_time_violation"
STOP_PERPLEXITY = "perplexity_violation"
STOP_DIVERGED = "diverged"
STOP_BASELINE = "baseline"  # reference entry, not a search trial
STOP_REASONS = (STOP_COMPLETED, STOP_STEP_TIME, STOP_PERPLEXITY, STOP_DIVERGED,
                STOP_BASELINE)

# The genome fields drawn from a SearchSpace domain besides the block length
# and layer order, in sample-draw and mutation-item order.
SEARCHED_FIELDS = ("d", "d_moe", "d_ffn", "h", "g", "c", "a")
# The SearchSpace fields that are domains: lists of choices.
DOMAINS = ("k_choices", "layer_kinds", *(f"{f}_choices" for f in SEARCHED_FIELDS))


@dataclass(frozen=True)
class SearchSpace:
    """Finite domains for every genome field; defaults are the published
    search table plus a block-length bracket around the known block size."""

    k_choices: tuple = (4, 5, 6, 7, 8, 9, 10)
    layer_kinds: tuple = LAYER_KINDS
    d_choices: tuple = (512, 768, 1024)
    d_moe_choices: tuple = (1536, 2048, 3072, 4096)
    d_ffn_choices: tuple = (1536, 2048, 3072, 4096)
    h_choices: tuple = (12, 16, 20)
    g_choices: tuple = tuple(L.GATINGS)
    c_choices: tuple = (1, 2, 3, 4)
    a_choices: tuple = tuple(L.ACTIVATIONS)
    n_experts: int = 32
    d_head: int = 64

    def __post_init__(self):
        for name in DOMAINS:
            vals = tuple(getattr(self, name))
            object.__setattr__(self, name, vals)
            if not vals:
                raise ConfigError(f"search space domain {name} is empty")
        bad = [k for k in self.k_choices if not L.positive_int(k)]
        if bad:
            raise ConfigError(f"search space k_choices must be integers >= 1, got {bad[0]!r}")
        # each value swapped into the first choices, over all the layer
        # kinds, builds a genome; the checks are per value, so all do
        first = {f: self.domain(f)[0] for f in SEARCHED_FIELDS}
        for f, value in ((f, v) for f in SEARCHED_FIELDS for v in self.domain(f)):
            BlockSpec(layers=self.layer_kinds, **{**first, f: value},
                      n_experts=self.n_experts, d_head=self.d_head)
        for moe in self.moe_configs():  # routing n_experts tokens, capacity is c
            moe.capacity(self.n_experts)

    def moe_configs(self):
        """An MoE layer config per (g, c) the space allows: every way its
        MoE layers route, since routing reads only g, c and ``n_experts``."""
        return [L.MoeConfig(self.d_choices[0], self.d_moe_choices[0], self.n_experts,
                            g, c, self.a_choices[0])
                for g, c in itertools.product(self.g_choices, self.c_choices)]

    @classmethod
    def from_dict(cls, doc):
        known = set(cls.__dataclass_fields__)
        bad = set(doc) - known
        if bad:
            raise ConfigError(f"unknown search space fields: {sorted(bad)}")
        for name in DOMAINS:
            if name in doc and not isinstance(doc[name], list):
                raise ConfigError(f"search space domain {name} must be a "
                                  f"JSON list, got {doc[name]!r}")
        return cls(**doc)

    def domain(self, name):
        """The choices of one of ``SEARCHED_FIELDS``."""
        return getattr(self, f"{name}_choices")

    def contains(self, spec):
        return (len(spec.layers) in self.k_choices
                and all(kind in self.layer_kinds for kind in spec.layers)
                and all(getattr(spec, f) in self.domain(f) for f in SEARCHED_FIELDS)
                and spec.n_experts == self.n_experts
                and spec.d_head == self.d_head)

    def enumerate(self, limit=None):
        """Every genome in the space (for exhaustive oracles on toy spaces)."""
        domains = [self.domain(f) for f in SEARCHED_FIELDS]
        out = []
        for k in self.k_choices:
            for combo in itertools.product(self.layer_kinds, repeat=k):
                if KIND_ATTN not in combo:
                    continue
                for values in itertools.product(*domains):
                    out.append(BlockSpec(layers=combo,
                                         **dict(zip(SEARCHED_FIELDS, values)),
                                         n_experts=self.n_experts,
                                         d_head=self.d_head))
                    if limit is not None and len(out) > limit:
                        raise ConfigError(f"space larger than limit {limit}")
        return out


@dataclass(frozen=True)
class Candidate:
    genome: BlockSpec
    id: int
    parent_id: int = None


def sample_candidate(space, rng, cand_id=0):
    """Uniform independent draw per field, rejecting attention-free blocks."""
    for _ in range(1000):
        k = rng.choice(space.k_choices)
        layers = tuple(rng.choice(space.layer_kinds) for _ in range(k))
        if KIND_ATTN not in layers:
            continue
        genome = BlockSpec(
            layers=layers,
            **{f: rng.choice(space.domain(f)) for f in SEARCHED_FIELDS},
            n_experts=space.n_experts,
            d_head=space.d_head,
        )
        return Candidate(genome=genome, id=cand_id)
    raise ConfigError("could not sample a valid genome (space unsatisfiable?)")


def _mutable_items(space, genome):
    """What a mutation may change: each domain of two or more distinct values."""
    items = [("field", f, space.domain(f)) for f in SEARCHED_FIELDS
             if len(set(space.domain(f))) > 1]
    if len(set(space.layer_kinds)) > 1:
        for pos in range(len(genome.layers)):
            items.append(("layer", pos, space.layer_kinds))
    if len(set(space.k_choices)) > 1:
        items.append(("k", None, space.k_choices))
    return items


def mutate(genome, space, rng):
    """Resample exactly one genome field (or one layer position, or the
    block length) to a different value; the child stays valid."""
    items = _mutable_items(space, genome)
    if not items:
        raise ConfigError("no mutable fields in this search space")
    for _ in range(200):
        kind, key, choices = items[rng.randrange(len(items))]
        if kind == "field":
            alts = [v for v in choices if v != getattr(genome, key)]
            return replace(genome, **{key: rng.choice(alts)})
        layers = list(genome.layers)
        if kind == "layer":
            layers[key] = rng.choice([v for v in choices if v != layers[key]])
        else:  # block length
            new_k = rng.choice([v for v in choices if v != len(layers)])
            del layers[new_k:]
            while len(layers) < new_k:
                layers.append(rng.choice(space.layer_kinds))
        if KIND_ATTN in layers:
            return replace(genome, layers=tuple(layers))
    raise ConfigError("mutation failed to produce a valid child")


# ---------------------------------------------------------------------------
# Trial records and the ledger
# ---------------------------------------------------------------------------

@dataclass
class TrialRecord:
    trial_id: int
    parent_id: int
    genome: dict
    step_time: float
    cost_per_step: float
    steps: int
    final_loss: float
    reward: float
    stop_reason: str
    trajectory: list = field(default_factory=list)
    quality_25: float = None  # validation quality at the 25% checkpoint

    def to_json_dict(self):
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc):
        """The record of a ledger line's JSON object. It raises ConfigError
        unless the trial id is an int >= -1, the parent null or an earlier
        trial's id, the steps an int >= 0, the reward, step time and cost
        per step numbers, the final loss and 25% quality null or numbers,
        the stop reason one of ``STOP_REASONS``, the genome an object and
        the trajectory a list."""
        rec = cls(**doc)
        if not (L.positive_int(rec.trial_id, -1)
                and (rec.parent_id is None or L.positive_int(rec.parent_id, 0)
                     and rec.parent_id < rec.trial_id)
                and L.positive_int(rec.steps, 0)
                and all(map(L.real_number, (rec.reward, rec.step_time, rec.cost_per_step)))
                and all(v is None or L.real_number(v) for v in (rec.final_loss, rec.quality_25))
                and rec.stop_reason in STOP_REASONS and isinstance(rec.genome, dict)
                and isinstance(rec.trajectory, list)):
            raise ConfigError(f"not a trial record: trial {rec.trial_id!r}")
        return rec

    def block_spec(self):
        return BlockSpec.from_json_dict(self.genome)


def record_to_line(rec):
    return json.dumps(rec.to_json_dict(), sort_keys=True, separators=(",", ":"))


def read_ledger(path):
    """``(records, skipped)``: the trial records of a JSONL ledger, and the
    count of non-blank lines that are not trial records."""
    records, skipped = [], 0
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(TrialRecord.from_json_dict(json.loads(line)))
            except (ValueError, TypeError):  # not UTF-8, not JSON, not a record
                skipped += 1
    return records, skipped


# ---------------------------------------------------------------------------
# Trial runners
# ---------------------------------------------------------------------------

def proxy_model_spec(genome, max_seq_len):
    return ModelSpec(block=genome, n_blocks=PROXY_STACK,
                     vocab_size=BYTE_VOCAB, max_seq_len=max_seq_len)


def run_trial(genome, trial_id, parent_id, baseline, budget, step_time,
              cost_per_step, train, quality, finish):
    """The trial protocol every runner shares.

    In order: prune if ``step_time`` exceeds the baseline's; plan
    ``floor(budget / step_time)`` steps (none planned: pruned); train the
    first quarter, then prune if the quality there is strictly worse than the
    baseline's at its own first quarter; train the rest; score the
    negative final loss. A chunk that diverges ends the trial with its
    steps counted and its trajectory points dropped. ``baseline=None``
    runs the baseline itself, which is never pruned against anything.

    The runner supplies the strategies: ``train(n)`` trains n more steps
    and returns ``(steps trained, trajectory points, diverged)``;
    ``quality(step)`` is the validation quality (lower is better) after
    ``step`` steps; ``finish(step)`` returns ``(final loss, further
    trajectory points)``.
    """
    rec = TrialRecord(trial_id=trial_id, parent_id=parent_id,
                      genome=genome.to_json_dict(), step_time=step_time,
                      cost_per_step=cost_per_step, steps=0, final_loss=None,
                      reward=-1.0, stop_reason=STOP_STEP_TIME)
    if baseline is not None and step_time > baseline.step_time:
        return rec
    total = int(math.floor(budget / max(step_time, 1e-9)))
    if total < 1:  # the budget cannot cover even one step
        return rec
    check_at = max(1, total // 4)
    for at_check, n in ((True, check_at), (False, total - check_at)):
        steps, points, diverged = train(n)
        rec.steps += steps
        if diverged:
            rec.stop_reason = STOP_DIVERGED
            return rec
        rec.trajectory += points
        if at_check:
            rec.quality_25 = quality(rec.steps)
            # a baseline that diverged before its checkpoint has no quality
            if baseline is not None and baseline.quality_25 is not None \
                    and rec.quality_25 > baseline.quality_25:
                rec.stop_reason = STOP_PERPLEXITY
                return rec
    rec.final_loss, points = finish(rec.steps)
    rec.trajectory += points
    rec.reward = -rec.final_loss
    rec.stop_reason = STOP_COMPLETED
    return rec


class ProxyTrainingRunner:
    """Real proxy training: stack the block three times, train under the
    fixed budget, prune at the 25% checkpoint, reward the negative final
    validation loss. The two chunks of a trial are one run: the second
    carries on the first's optimizer moments and batch RNG. ``seed``
    initialises every proxy model; trial i (the baseline: 0) draws its
    batches, step-time measurement included, from ``seed + i``, never
    from ``train_cfg.seed``. The baseline trains once, on first use; a
    subclass overrides only ``_trial``, how one trial trains and scores."""

    def __init__(self, corpus, train_cfg, budget_cost_units=None,
                 budget_seconds=None, baseline_genome=None, seed=0):
        if (budget_cost_units is None) == (budget_seconds is None):
            raise ConfigError("set exactly one of budget_cost_units / budget_seconds")
        self.corpus = corpus
        self.cfg = train_cfg
        self.wallclock = budget_seconds is not None
        self.budget = budget_seconds if self.wallclock else budget_cost_units
        self.baseline_genome = baseline_genome or glam_baseline_block()
        self.seed = seed
        self.baseline = None

    def step_cost(self, genome):
        """The analytic cost units of one training step of ``genome``'s proxy."""
        return float(step_cost_units(proxy_model_spec(genome, self.cfg.seq_len),
                                     self.cfg.batch_size, self.cfg.seq_len))

    def baseline_record(self):
        if self.baseline is None:
            self.baseline = self._evaluate(self.baseline_genome, -1, None, None)
            self.baseline.stop_reason = STOP_BASELINE
        return self.baseline

    def evaluate(self, candidate):
        return self._evaluate(candidate.genome, candidate.id, candidate.parent_id,
                              self.baseline_record())

    def _evaluate(self, genome, trial_id, parent_id, baseline):
        return run_trial(genome, trial_id, parent_id, baseline, self.budget,
                         *self._trial(genome, trial_id))

    def _trial(self, genome, trial_id):
        """``run_trial``'s step time, cost per step, train, quality, finish."""
        model = LanguageModel(proxy_model_spec(genome, self.cfg.seq_len), seed=self.seed)
        cost = self.step_cost(genome)
        cfg = replace(self.cfg, seed=self.seed + max(trial_id, 0))
        step_time = measure_step_time(model, self.corpus, cfg) \
            if self.wallclock else cost
        state = TrainState.fresh(model, cfg)

        def train(n):
            res = train_steps(model, self.corpus, cfg, n, state)
            return (res.steps, [[r["step"], r["loss"]] for r in _thin(res.records)],
                    res.diverged)

        def quality(step):
            split = "valid" if self.corpus.has_valid else "train"
            return evaluate_perplexity(model, self.corpus, split=split,
                                       seq_len=self.cfg.seq_len,
                                       max_tokens=self.cfg.eval_tokens)
        return (step_time, cost, train, quality,
                lambda step: (math.log(quality(step)), []))


class SurrogateRunner(ProxyTrainingRunner):
    """Deterministic analytic stand-in for proxy training.

    Per-step cost is the analytic FLOP estimate (or an injected cost
    function); the loss trajectory is a closed-form power-law curve whose
    floor and decay depend only on the genome. Only ``_trial`` differs
    from real training, so the trial protocol and the baseline are the
    same, which makes search tests fast and machine-independent.
    """

    def __init__(self, budget_cost_units, baseline_genome=None,
                 batch_size=8, seq_len=128, cost_fn=None):
        super().__init__(None, TrainConfig(batch_size=batch_size, seq_len=seq_len),
                         budget_cost_units=float(budget_cost_units),
                         baseline_genome=baseline_genome)
        self.cost_fn = cost_fn or self.step_cost

    def loss_curve(self, genome, step):
        """Analytic validation-loss curve; lower floor for bigger models,
        faster decay for models activating a larger share of their weights."""
        counts = count_params(proxy_model_spec(genome, self.cfg.seq_len))
        floor = 1.0 + 14.0 / math.log(counts.n_params_no_embed + 3)
        decay = 0.22 + 0.12 * counts.n_act_params_no_embed / counts.n_params_no_embed
        return floor + 4.0 * (step + 1.0) ** -decay

    def _trial(self, genome, trial_id):
        cost = self.cost_fn(genome)

        def curve(step):
            return self.loss_curve(genome, step)

        def finish(steps):
            points = sorted({max(1, steps * i // 10) for i in range(1, 11)})
            return curve(steps), [[s, curve(s)] for s in points]
        return cost, cost, lambda n: (n, [], False), curve, finish


def _thin(records, keep=10):
    if len(records) <= keep:
        return records
    idx = np.linspace(0, len(records) - 1, keep).astype(int)
    return [records[i] for i in idx]


# ---------------------------------------------------------------------------
# The evolution loop
# ---------------------------------------------------------------------------

@dataclass
class EvolutionState:
    history: list = field(default_factory=list)   # TrialRecords, append-only
    baseline: TrialRecord = None
    population_size: int = 0

    def population(self):
        return self.history[-self.population_size:]

    def completed(self):
        return [r for r in self.history if r.stop_reason == STOP_COMPLETED]


def _phase_rng(seed, phase, index):
    return random.Random(f"{seed}|{phase}|{index}")


def evolve(space, p, rounds, runner, seed=0, tournament_size=None,
           ledger_path=None, resume=False):
    """Run (or resume) a regularized-evolution search.

    Trials run one at a time in trial-id order: the initial population
    (ids 0..p-1, with p >= 2 as ``cli.cmd_search`` checks), then one
    tournament-selected, mutated child per round.
    The ledger, when given, receives one JSON line per trial (baseline
    first, trial_id -1). Resuming replays the ledger's trials (a torn
    last line is cut off when its trial re-runs) and continues; because all
    randomness is derived from the seed and trial indices, the resumed
    ledger is byte-identical to an uninterrupted run. Every trial is
    proposed, replayed or not, so a replayed trial (or baseline) whose
    genome or parent is not the proposal's raises ConfigError; a changed
    budget or train shape that proposes the same trials goes unnoticed.
    """
    ts = tournament_size or max(2, p // 5)
    state = EvolutionState(population_size=p)

    records, end = (read_log(ledger_path, TrialRecord.from_json_dict)
                    if resume and ledger_path else ([], None))
    replayed = {rec.trial_id: rec for rec in records}
    ledger = open(ledger_path, "a") if ledger_path else None

    def emit(rec):
        nonlocal end
        if rec.stop_reason != STOP_BASELINE:
            state.history.append(rec)
        if ledger and rec.trial_id not in replayed:
            if end is not None:  # every earlier trial matched: cut a torn tail
                ledger.truncate(end)
                end = None
            ledger.write(record_to_line(rec) + "\n")
            ledger.flush()

    def check_replay(trial_id, genome, parent_id):
        rec = replayed.get(trial_id)
        if rec is not None and (rec.block_spec() != genome or rec.parent_id != parent_id):
            raise ConfigError(f"cannot resume from {ledger_path}: trial {trial_id} is "
                              f"not the trial this search proposes (its genome or "
                              f"parent differs); another search wrote the ledger")
    try:
        check_replay(-1, runner.baseline_genome, None)
        if -1 in replayed:
            runner.baseline = replayed[-1]
        state.baseline = runner.baseline_record()
        emit(state.baseline)
        for trial_id in range(p + rounds):
            if trial_id < p:
                cand = sample_candidate(space, _phase_rng(seed, "sample", trial_id),
                                        cand_id=trial_id)
            else:
                rng = _phase_rng(seed, "round", trial_id - p)
                pop = state.population()
                contenders = [pop[i] for i in sorted(rng.sample(range(len(pop)),
                                                                min(ts, len(pop))))]
                best = max(contenders, key=lambda r: (r.reward, -r.trial_id))
                cand = Candidate(genome=mutate(best.block_spec(), space, rng),
                                 id=trial_id, parent_id=best.trial_id)
            check_replay(trial_id, cand.genome, cand.parent_id)
            emit(replayed[trial_id] if trial_id in replayed else runner.evaluate(cand))
    finally:
        if ledger:
            ledger.close()
    return state


def check_topk(k, factors, stacks):
    """Raise ConfigError unless k is a positive int and every factor (2 or
    4) pairs up with a stack (a positive block count)."""
    if not (L.positive_int(k) and isinstance(factors, (list, tuple))
            and isinstance(stacks, (list, tuple)) and len(factors) == len(stacks)
            and all(L.positive_int(f) and f in SCALE_FACTORS for f in factors)
            and all(map(L.positive_int, stacks))):
        raise ConfigError(f"topk needs k >= 1 and factors (each 2 or 4) paired "
                          f"with stacks >= 1, got k={k!r}, factors={factors!r}, "
                          f"stacks={stacks!r}")


def finalize_topk(state, k=2, factors=(2, 4), stacks=(6, 8)):
    """Scale-and-stack the k best completed trials into full model specs.

    Ties in reward break toward the earlier trial id. If fewer than k
    trials completed, all of them are returned and the result is flagged.
    """
    check_topk(k, factors, stacks)
    completed = state.completed()
    ranked = sorted(completed, key=lambda r: (-r.reward, r.trial_id))
    selected = ranked[:k]
    out = {
        "requested": k,
        "n_completed": len(completed),
        "flagged_short": len(selected) < k,
        "selected": [],
    }
    for rec in selected:
        genome = rec.block_spec()
        scaled = []
        for f, n in zip(factors, stacks):
            spec = ModelSpec(block=scale_model_dim(genome, f), n_blocks=n,
                             vocab_size=BYTE_VOCAB, max_seq_len=1024)
            scaled.append({"factor": f, "n_blocks": n,
                           "model": spec.to_json_dict()})
        out["selected"].append({
            "trial_id": rec.trial_id,
            "reward": rec.reward,
            "final_loss": rec.final_loss,
            "genome": rec.genome,
            "scaled": scaled,
        })
    return out
