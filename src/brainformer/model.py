"""Architecture genome, block composition, the decoder-only LM wrapper,
and parameter / FLOP accounting.

A block is an ordered list of sub-layer kinds sharing one set of width /
gating / activation hyperparameters; a model stacks the block N times
(parameters never shared across repetitions) between embeddings and an
untied output projection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace, asdict

import numpy as np

from . import tensor as T
from . import layers as L
from .layers import ConfigError
from .tensor import Tensor

GENOME_SCHEMA_VERSION = 1

KIND_ATTN = "attn"
KIND_FFN = "ffn"
KIND_MOE = "moe"
LAYER_KINDS = (KIND_ATTN, KIND_MOE, KIND_FFN)


@dataclass(frozen=True)
class BlockSpec:
    """The searchable genome: layer ordering plus shared hyperparameters."""

    layers: tuple
    d: int
    d_moe: int
    d_ffn: int
    h: int
    g: str
    c: int
    a: str
    n_experts: int
    d_head: int = 64

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        self.validate()

    def validate(self):
        if len(self.layers) < 1:
            raise ConfigError("block needs at least one layer")
        for kind in self.layers:
            if kind not in LAYER_KINDS:
                raise ConfigError(f"unknown layer kind {kind!r}")
        if KIND_ATTN not in self.layers:
            raise ConfigError("block needs at least one attention layer")
        # the layer configs check widths, gating and activation
        object.__setattr__(self, "_layer_configs", {
            KIND_ATTN: L.AttentionConfig(self.d, self.h, self.d_head),
            KIND_MOE: L.MoeConfig(self.d, self.d_moe, self.n_experts, self.g,
                                  self.c, self.a),
            KIND_FFN: L.FfnConfig(self.d, self.d_ffn, self.a),
        })

    def layer_config(self, kind):
        """The config every sub-layer of ``kind`` in this block shares, as
        ``validate`` checked it."""
        return self._layer_configs[kind]

    def to_json_dict(self):
        doc = asdict(self)
        doc["layers"] = list(self.layers)
        doc["schema_version"] = GENOME_SCHEMA_VERSION
        return doc

    @classmethod
    def from_json_dict(cls, doc):
        return _from_genome_doc(cls, doc)


@dataclass(frozen=True)
class ModelSpec:
    block: BlockSpec
    n_blocks: int
    vocab_size: int
    max_seq_len: int

    def __post_init__(self):
        for name, least in (("n_blocks", 1), ("vocab_size", 2), ("max_seq_len", 1)):
            value = getattr(self, name)
            if not L.positive_int(value, least):
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")

    def body_layers(self):
        """Body layer kinds: the block repeated n_blocks times (no weight
        sharing)."""
        return list(self.block.layers) * self.n_blocks

    def to_json_dict(self):
        return {
            "schema_version": GENOME_SCHEMA_VERSION,
            "block": self.block.to_json_dict(),
            "n_blocks": self.n_blocks,
            "vocab_size": self.vocab_size,
            "max_seq_len": self.max_seq_len,
        }

    @classmethod
    def from_json_dict(cls, doc):
        model = _from_genome_doc(cls, doc)  # its block still a JSON object
        return replace(model, block=BlockSpec.from_json_dict(model.block))


def _from_genome_doc(cls, doc):
    """``cls`` built from a genome JSON object: its schema version must
    match, and its other keys must be exactly the fields of ``cls``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a genome must be a JSON object, got {doc!r}")
    doc = dict(doc)
    version = doc.pop("schema_version", GENOME_SCHEMA_VERSION)
    if version != GENOME_SCHEMA_VERSION:
        raise ConfigError(f"unsupported genome schema version {version}")
    try:
        return cls(**doc)
    except TypeError as exc:
        raise ConfigError(f"malformed genome: {exc}") from None


SCALE_FACTORS = (2, 4)


def scale_model_dim(spec, factor):
    """Scale model and hidden dims by 2x or 4x; everything else unchanged.

    Scaled genomes intentionally leave the search-space domains; callers
    wanting the original domains should check against the search space.
    """
    if factor not in SCALE_FACTORS:
        raise ValueError("scale factor must be 2 or 4")
    return replace(spec, d=spec.d * factor, d_moe=spec.d_moe * factor, d_ffn=spec.d_ffn * factor)


# ---------------------------------------------------------------------------
# Parameter accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamCount:
    """Total vs. per-token-activated tallies, with and without the
    vocab-sized tensors (input embedding, position table, output
    projection), since the embedding convention dominates small models.
    """

    n_params: int
    n_act_params: int
    n_params_no_embed: int
    n_act_params_no_embed: int


def _ffn_weights(d, hidden, activation):
    gated = 2 if activation in L.GATED_ACTIVATIONS else 1
    return d * hidden * gated + hidden * d


def layer_param_counts(spec, kind):
    """(total, activated) parameter count of one sub-layer incl. its pre-norm."""
    ln = 2 * spec.d
    cfg = spec.layer_config(kind)
    if kind == KIND_ATTN:
        hw = cfg.n_heads * cfg.head_dim
        total = 3 * spec.d * hw + hw * spec.d + ln
        return total, total
    if kind == KIND_FFN:
        total = _ffn_weights(spec.d, spec.d_ffn, spec.a) + ln
        return total, total
    expert = _ffn_weights(spec.d, spec.d_moe, spec.a)
    gate = spec.d * cfg.n_experts
    total = gate + cfg.n_experts * expert + ln
    # experts a token reaches: two under top-2, c under expert choice
    k = min(2 if cfg.gating == L.GATE_TOP2 else cfg.capacity_factor, cfg.n_experts)
    activated = gate + k * expert + ln
    return total, activated


def count_params(model_spec):
    """Analytic parameter tally; matches tensor-by-tensor enumeration exactly."""
    spec = model_spec.block
    embed = model_spec.vocab_size * spec.d
    pos = model_spec.max_seq_len * spec.d
    out = spec.d * model_spec.vocab_size
    vocab_group = embed + pos + out
    body_total = body_act = 2 * spec.d  # final layer norm
    for kind in model_spec.body_layers():
        t, a = layer_param_counts(spec, kind)
        body_total += t
        body_act += a
    return ParamCount(
        n_params=vocab_group + body_total,
        n_act_params=vocab_group + body_act,
        n_params_no_embed=body_total,
        n_act_params_no_embed=body_act,
    )


# ---------------------------------------------------------------------------
# Analytic FLOP estimates (forward multiply-adds counted as 2 flops)
# ---------------------------------------------------------------------------

def layer_flops_per_token(spec, kind, seq_len):
    """Two FLOPs per activated weight (the pre-norm's 2*d parameters are
    not multiplied), plus attention's scores and weighted combine over the
    full window."""
    mix = 4 * spec.h * spec.d_head * seq_len if kind == KIND_ATTN else 0
    return 2 * (layer_param_counts(spec, kind)[1] - 2 * spec.d) + mix


def model_flops_per_token(model_spec, seq_len):
    spec = model_spec.block
    total = 2 * spec.d * model_spec.vocab_size  # output projection
    for kind in model_spec.body_layers():
        total += layer_flops_per_token(spec, kind, seq_len)
    return total


def step_cost_units(model_spec, batch_size, seq_len):
    """Analytic cost of one training step (forward + backward ~ 3x forward)."""
    return 3 * batch_size * seq_len * model_flops_per_token(model_spec, seq_len)


# ---------------------------------------------------------------------------
# The decoder-only language model
# ---------------------------------------------------------------------------

class LanguageModel:
    """Embed (+learned positions) -> N blocks of pre-norm residual
    sub-layers -> final norm -> untied output projection.
    """

    def __init__(self, spec, seed=0):
        self.spec = spec
        self.block = spec.block
        self.body = spec.body_layers()
        rng = np.random.default_rng(seed)
        d = self.block.d
        init = {KIND_ATTN: L.init_attention_params, KIND_FFN: L.init_ffn_params,
                KIND_MOE: L.init_moe_params}
        p = {
            "embed": Tensor(rng.normal(0.0, 1.0, size=(spec.vocab_size, d)), requires_grad=True),
            "pos": Tensor(rng.normal(0.0, 0.01, size=(spec.max_seq_len, d)), requires_grad=True),
            "out": Tensor(np.zeros((d, spec.vocab_size)), requires_grad=True),
            "final_ln.g": Tensor(np.ones(d), requires_grad=True),
            "final_ln.b": Tensor(np.zeros(d), requires_grad=True),
        }
        for i, kind in enumerate(self.body):
            prefix = f"layer{i}."
            p[prefix + "ln.g"] = Tensor(np.ones(d), requires_grad=True)
            p[prefix + "ln.b"] = Tensor(np.zeros(d), requires_grad=True)
            p.update(init[kind](self.block.layer_config(kind), rng, prefix=prefix))
        self.params = p

    def forward(self, tokens, seq_len=None, group_size=None):
        """Logits [n, V] and the summed MoE auxiliary loss for a flat token
        batch; ``seq_len`` marks sequence boundaries for attention and
        positions (defaults to the whole batch being one sequence), and
        ``group_size`` is the tokens per MoE routing group (defaults to the
        whole batch being one group).
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        n = tokens.shape[0]
        s = n if seq_len is None else seq_len
        if n % s != 0:
            raise ValueError(f"{n} tokens not divisible by seq_len {s}")
        if s > self.spec.max_seq_len:
            raise ValueError(f"seq_len {s} exceeds max_seq_len {self.spec.max_seq_len}")
        if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= self.spec.vocab_size:
            raise ValueError("token id out of range")
        positions = np.tile(np.arange(s), n // s)
        x = T.add(T.take_rows(self.params["embed"], tokens),
                  T.take_rows(self.params["pos"], positions))
        x, aux = self.forward_body(x, seq_len=s, group_size=group_size)
        x = T.layer_norm(x, self.params["final_ln.g"], self.params["final_ln.b"])
        logits = T.matmul(x, self.params["out"])
        return logits, aux

    def forward_body(self, x, seq_len=None, group_size=None):
        """Apply every sub-layer (pre-norm + residual) to [n, d] activations."""
        aux = Tensor(0.0)
        p = self.params
        for i, kind in enumerate(self.body):
            prefix = f"layer{i}."
            h = T.layer_norm(x, p[prefix + "ln.g"], p[prefix + "ln.b"])
            cfg = self.block.layer_config(kind)
            if kind == KIND_ATTN:
                y = L.attention_forward(h, cfg, p, seq_len=seq_len, prefix=prefix)
            elif kind == KIND_FFN:
                y = L.ffn_forward(h, cfg, p, prefix=prefix)
            else:
                y, layer_aux, _ = L.moe_forward(h, cfg, p, prefix=prefix,
                                                group_size=group_size)
                aux = T.add(aux, layer_aux)
            x = T.add(x, y)
        return x, aux


def lm_loss(model, inputs, targets, aux_coeff=0.01, seq_len=None):
    """Cross entropy plus weighted MoE auxiliary loss."""
    logits, aux = model.forward(inputs, seq_len=seq_len)
    ce = T.cross_entropy(logits, targets)
    return T.add(ce, T.mul(aux, aux_coeff)), ce


# ---------------------------------------------------------------------------
# Reference genomes
# ---------------------------------------------------------------------------

def glam_baseline_block(a=L.ACT_GELU):
    """GLaM-style interleaving at GLaM's widths: dense block then sparse.

    Stacked 3x this gives the 12-sub-layer baseline shape that the search
    compares against.
    """
    return BlockSpec(layers=(KIND_ATTN, KIND_FFN, KIND_ATTN, KIND_MOE), d=768, d_moe=3072,
                     d_ffn=3072, h=12, d_head=64, g=L.GATE_TOP2, c=2, a=a, n_experts=32)

