"""Sub-layer primitives: causal attention, dense FFN, sparsely gated MoE.

All forwards map [n, d] -> [n, d] where n is the number of tokens in the
batch (possibly several sequences laid out contiguously). Attention is
applied per sequence segment; routing sees the whole batch.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .tensor import Tensor

ACT_RELU = "relu"
ACT_GELU = "gelu"
ACT_GATED_RELU = "gated_relu"
ACT_GATED_GELU = "gated_gelu"
ACTIVATIONS = (ACT_GATED_RELU, ACT_GATED_GELU, ACT_RELU, ACT_GELU)
GATED_ACTIVATIONS = (ACT_GATED_RELU, ACT_GATED_GELU)

GATE_TOP2 = "top2"
GATE_EXPERT_CHOICE = "expert_choice"
GATINGS = (GATE_TOP2, GATE_EXPERT_CHOICE)

NEG_MASK = -1e30  # exp(NEG_MASK - finite) underflows to exactly 0.0


def positive_int(value, least=1):
    """True for an int >= least; a bool, float or string is not a count."""
    return type(value) is int and value >= least


def real_number(value):
    """True for an int or a float; a bool is not a number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class AttentionConfig:
    model_dim: int
    n_heads: int
    head_dim: int

    def __post_init__(self):
        if not all(map(positive_int, (self.model_dim, self.n_heads, self.head_dim))):
            raise ValueError(f"attention dims must be positive integers: {self}")


@dataclass(frozen=True)
class FfnConfig:
    model_dim: int
    hidden_dim: int
    activation: str

    def __post_init__(self):
        if not all(map(positive_int, (self.model_dim, self.hidden_dim))):
            raise ValueError(f"ffn dims must be positive integers: {self}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class MoeConfig:
    """An MoE layer; ``expert`` is the ``FfnConfig`` its experts share."""

    model_dim: int
    expert_hidden_dim: int
    n_experts: int
    gating: str
    capacity_factor: int
    activation: str

    def __post_init__(self):
        if not all(map(positive_int, (self.model_dim, self.expert_hidden_dim,
                                      self.n_experts))):
            raise ValueError(f"moe dims must be positive integers: {self}")
        if not positive_int(self.capacity_factor):
            raise ValueError("capacity_factor must be an integer >= 1")
        if self.gating not in GATINGS:
            raise ValueError(f"unknown gating {self.gating!r}")
        # the experts' FfnConfig checks the activation
        object.__setattr__(self, "expert", FfnConfig(self.model_dim, self.expert_hidden_dim,
                                                     self.activation))

    def capacity(self, n_tokens):
        """The tokens each expert takes from a batch of ``n_tokens``:
        floor(c * n / E), at least 1, and under expert choice, where each
        expert picks distinct tokens, at most n (so c <= E for n >= E)."""
        c, e = self.capacity_factor, self.n_experts
        k = (c * n_tokens) // e
        if k < 1:
            raise ValueError(f"per-expert capacity floor({c}*{n_tokens}/{e}) < 1")
        if self.gating == GATE_EXPERT_CHOICE and k > n_tokens:
            raise ValueError(f"expert-choice capacity floor({c}*{n_tokens}/{e}) "
                             f"= {k} exceeds the {n_tokens} tokens routed; "
                             f"expert choice needs c <= n_experts")
        return k


@dataclass
class RoutingDecision:
    """Token/expert assignments plus the tokens that fell through to residual.

    Held as index arrays in routing order: assignment i sends token
    ``tokens[i]`` to expert ``experts[i]`` with combine weight
    ``weights[i]``; ``n_tokens`` is the size of the routed batch.
    """

    tokens: np.ndarray
    experts: np.ndarray
    weights: np.ndarray
    n_tokens: int

    @classmethod
    def from_pairs(cls, tokens, experts, scores):
        """Assign token ``tokens[i]`` to expert ``experts[i]`` with weight
        ``scores[tokens[i], experts[i]]``; unassigned tokens are dropped."""
        return cls(tokens, experts, scores[tokens, experts], scores.shape[0])

    @property
    def assignments(self):
        """``(token_index, expert_index, combine_weight)`` tuples in routing
        order, as Python ints and floats."""
        return list(zip(self.tokens.tolist(), self.experts.tolist(),
                        self.weights.tolist()))

    @property
    def dropped_tokens(self):
        """Indices of the tokens no expert took, as a set of ints."""
        dropped = np.ones(self.n_tokens, dtype=bool)
        dropped[self.tokens] = False
        return set(np.flatnonzero(dropped).tolist())

    def expert_tokens(self, n_experts):
        """Each expert's token indices as an int array, in routing order."""
        order = np.argsort(self.experts, kind="stable")
        ends = np.cumsum(np.bincount(self.experts, minlength=n_experts))
        return np.split(self.tokens[order], ends[:-1])

    def per_expert_tokens(self, n_experts):
        """Each expert's ``(token_index, combine_weight)`` pairs, in routing
        order; ``expert_tokens`` over assignment indices picks them."""
        rows = replace(self, tokens=np.arange(self.tokens.size)).expert_tokens(n_experts)
        return [list(zip(self.tokens[r].tolist(), self.weights[r].tolist())) for r in rows]


def _weight(rng, shape):
    """A trainable weight drawn from N(0, 1/fan_in), fan_in = shape[0]."""
    return Tensor(rng.normal(0.0, shape[0] ** -0.5, size=shape), requires_grad=True)


def init_attention_params(cfg, rng, prefix=""):
    d, hw = cfg.model_dim, cfg.n_heads * cfg.head_dim
    return {
        prefix + "wq": _weight(rng, (d, hw)),
        prefix + "wk": _weight(rng, (d, hw)),
        prefix + "wv": _weight(rng, (d, hw)),
        prefix + "wo": _weight(rng, (hw, d)),
    }


def init_ffn_params(cfg, rng, prefix=""):
    d, dh = cfg.model_dim, cfg.hidden_dim
    params = {prefix + "w_in": _weight(rng, (d, dh)), prefix + "w_out": _weight(rng, (dh, d))}
    if cfg.activation in GATED_ACTIVATIONS:
        params[prefix + "w_gate"] = _weight(rng, (d, dh))
    return params


def init_moe_params(cfg, rng, prefix=""):
    d = cfg.model_dim
    params = {prefix + "wg": _weight(rng, (d, cfg.n_experts))}
    for e in range(cfg.n_experts):
        params.update(init_ffn_params(cfg.expert, rng, prefix=f"{prefix}expert{e}."))
    return params


def _causal_mask(length):
    mask = np.zeros((length, length))
    mask[np.triu_indices(length, k=1)] = NEG_MASK
    return mask


def attention_forward(x, cfg, params, seq_len=None, prefix=""):
    """Multi-head causal self-attention over each seq_len segment of x.

    The segments and heads run as one batched pass over [b, h, s, head_dim];
    every matmul loops over the leading axes, so each segment's projections
    are the same per-segment products a loop over segments would compute.
    """
    n, d = x.shape
    s = n if seq_len is None else seq_len
    if n % s != 0:
        raise ValueError(f"{n} tokens not divisible by seq_len {s}")
    b, h, dh = n // s, cfg.n_heads, cfg.head_dim
    xs = T.reshape(x, (b, s, d))

    def split_heads(name):  # [b, s, h*dh] -> [b, h, s, dh]
        proj = T.matmul(xs, params[prefix + name])
        return T.permute(T.reshape(proj, (b, s, h, dh)), (0, 2, 1, 3))

    q, k, v = split_heads("wq"), split_heads("wk"), split_heads("wv")
    scores = T.add(T.mul(T.matmul(q, T.permute(k, (0, 1, 3, 2))), dh ** -0.5),
                   _causal_mask(s))
    heads = T.matmul(T.softmax(scores, axis=-1), v)
    merged = T.reshape(T.permute(heads, (0, 2, 1, 3)), (b, s, h * dh))
    return T.reshape(T.matmul(merged, params[prefix + "wo"]), (n, d))


def ffn_forward(x, cfg, params, prefix=""):
    """Dense FFN: project up, activate, project down. A gated activation
    multiplies act(x @ w_in) by a second stream, x @ w_gate."""
    act = T.relu if cfg.activation in (ACT_RELU, ACT_GATED_RELU) else T.gelu
    u = T.matmul(x, params[prefix + "w_in"])
    v = T.matmul(x, params[prefix + "w_gate"]) if cfg.activation in GATED_ACTIVATIONS else None
    h = act(u) if v is None else T.mul(act(u), v)
    return T.matmul(h, params[prefix + "w_out"])


def gate_scores(x, wg):
    """Token-to-expert affinities, softmax-normalized over the expert axis.

    Per-token normalization only: no cross-token statistics, so causal
    decoding leaks nothing.
    """
    return T.softmax(T.matmul(x, wg), axis=-1)


def route_top2(scores, capacity):
    """Token-based routing: each token takes its top-2 experts, greedily
    filled in token-index order; assignments to full experts are dropped.

    The greedy fill in array form (GShard): taking the (token, expert)
    pairs in token-major, rank-minor order, a pair is kept when fewer than
    ``capacity`` earlier pairs target its expert. ``MoeConfig.capacity``
    gives ``capacity``, at least 1.
    """
    data = scores.data if isinstance(scores, Tensor) else np.asarray(scores)
    n, n_experts = data.shape
    k = min(2, n_experts)  # degenerates to top-1 when only one expert exists
    # descending per row, lowest index first on ties
    experts = np.argsort(-data, axis=1, kind="stable")[:, :k].reshape(-1)
    tokens = np.repeat(np.arange(n), k)
    pair = np.arange(experts.size)
    onehot = np.zeros((experts.size, n_experts), dtype=np.int64)
    onehot[pair, experts] = 1
    earlier = np.cumsum(onehot, axis=0)[pair, experts] - 1
    keep = earlier < capacity
    return RoutingDecision.from_pairs(tokens[keep], experts[keep], data)


def route_expert_choice(scores, capacity):
    """Expert-based routing: each expert takes its top-capacity tokens.

    Every expert ends up with exactly ``capacity`` assignments; tokens
    chosen by no expert pass through on the residual path.
    ``MoeConfig.capacity`` gives ``capacity``, from 1 to the tokens routed.
    """
    data = scores.data if isinstance(scores, Tensor) else np.asarray(scores)
    n_experts = data.shape[1]
    # descending per column, lowest token first on ties
    top = np.argsort(-data, axis=0, kind="stable")[:capacity]
    return RoutingDecision.from_pairs(top.T.reshape(-1),
                                      np.repeat(np.arange(n_experts), capacity), data)


def load_balance_aux_loss(scores):
    """Importance-times-load balance penalty for top-2 gating.

    E * sum_e (fraction of tokens whose top-1 expert is e) * (mean gate
    score of e). Differentiable through the mean-score factor only; equals
    1 for perfectly uniform scores.
    """
    n, n_experts = scores.shape
    top1 = scores.data.argmax(axis=1)  # first maximum: lowest index first on ties
    frac = np.bincount(top1, minlength=n_experts) / n
    return T.mul(T.tsum(T.mul(T.tmean(scores, axis=0), frac)), float(n_experts))


def moe_forward(x, cfg, params, prefix=""):
    """Sparsely gated FFN: gate, route, dispatch, weighted combine.

    Returns (output, aux_loss); aux_loss is the load-balance penalty for
    top-2 gating and exactly 0 for expert choice (perfectly balanced by
    construction). Dropped tokens contribute zero rows; the residual
    connection around the layer carries them through. Some expert always
    takes a token: top-2 keeps token 0's first choice, and under expert
    choice every expert fills its capacity.
    """
    n = x.shape[0]
    k = cfg.capacity(n)
    scores = gate_scores(x, params[prefix + "wg"])
    if cfg.gating == GATE_TOP2:
        decision = route_top2(scores, k)
        aux = load_balance_aux_loss(scores)
    else:
        decision = route_expert_choice(scores, k)
        aux = Tensor(0.0)
    pairs = []
    for exp, toks in enumerate(decision.expert_tokens(cfg.n_experts)):
        if toks.size == 0:
            continue
        xe = T.take_rows(x, toks)
        ye = ffn_forward(xe, cfg.expert, params, prefix=f"{prefix}expert{exp}.")
        w = T.take_entries(scores, toks, np.full_like(toks, exp))
        pairs.append((T.mul(ye, w), toks))
    return T.scatter_rows(pairs, n), aux, decision
