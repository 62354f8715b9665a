"""Sub-layer primitives: causal attention, dense FFN, sparsely gated MoE.

All forwards map [n, d] -> [n, d] where n is the number of tokens in the
batch (possibly several sequences laid out contiguously). Attention is
applied per sequence segment; routing is per routing group, by default the
whole batch.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from . import threads
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


class ConfigError(ValueError):
    """A value from outside the program (a config, genome, corpus, ledger,
    checkpoint or flag) it cannot use; own-invariant checks raise ValueError."""


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
            raise ConfigError(f"attention dims must be positive integers: {self}")


@dataclass(frozen=True)
class FfnConfig:
    model_dim: int
    hidden_dim: int
    activation: str

    def __post_init__(self):
        if not all(map(positive_int, (self.model_dim, self.hidden_dim))):
            raise ConfigError(f"ffn dims must be positive integers: {self}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


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
            raise ConfigError(f"moe dims must be positive integers: {self}")
        if not positive_int(self.capacity_factor):
            raise ConfigError("capacity_factor must be an integer >= 1")
        if self.gating not in GATINGS:
            raise ConfigError(f"unknown gating {self.gating!r}")
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
            raise ConfigError(f"per-expert capacity floor({c}*{n_tokens}/{e}) < 1")
        if self.gating == GATE_EXPERT_CHOICE and k > n_tokens:
            raise ConfigError(f"expert-choice capacity floor({c}*{n_tokens}/{e}) "
                              f"= {k} exceeds the {n_tokens} tokens routed; "
                              f"expert choice needs c <= n_experts")
        return k


@dataclass
class RoutingDecision:
    """Token/expert assignments plus the tokens that fell through to residual.

    Held as index arrays in routing order over the routed [n_tokens,
    n_experts] gate scores (not a copy): assignment i sends token
    ``tokens[i]`` to expert ``experts[i]`` with combine weight ``weights[i]``.
    """

    tokens: np.ndarray
    experts: np.ndarray
    scores: np.ndarray

    @property
    def weights(self):
        return self.scores[self.tokens, self.experts]

    @property
    def n_tokens(self):
        return self.scores.shape[0]

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
        weights = self.weights  # one gather, not one per expert
        return [list(zip(self.tokens[r].tolist(), weights[r].tolist())) for r in rows]


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


@functools.lru_cache(maxsize=8)
def _causal_mask(length):
    """The additive [length, length] causal mask: NEG_MASK above the
    diagonal, 0 elsewhere. One read-only array per length, shared by every
    attention forward; a run uses one or two lengths (its seq_len, and a
    short split's window)."""
    mask = np.zeros((length, length))
    mask[np.triu_indices(length, k=1)] = NEG_MASK
    mask.setflags(write=False)
    return mask


def attention_forward(x, cfg, params, seq_len=None, prefix=""):
    """Multi-head causal self-attention over each seq_len segment of x.

    One autodiff node. The segments and heads run as one batched pass over
    [b, h, s, head_dim]; every product loops over the leading axes, so each
    segment's projections are the same per-segment products a loop over
    segments would compute, and no segment reads another's rows.

    The hand-written backward repeats, bit for bit, the float arithmetic of
    the op graph this node replaces (matmuls, head reshapes and permutes,
    scale, mask, softmax): a weight gradient is the per-segment products
    summed over the segment axis, dK is (Q^T dS)^T, the x gradient sums the
    q, k and v terms in that order, and every product's gradient operand is
    C-contiguous, as the graph's pass-through copies left it (BLAS can round
    a product over a strided operand differently).
    """
    n, d = x.shape
    s = n if seq_len is None else seq_len
    if n % s != 0:
        raise ValueError(f"{n} tokens not divisible by seq_len {s}")
    b, h, dh = n // s, cfg.n_heads, cfg.head_dim
    wq, wk, wv, wo = (params[prefix + name] for name in ("wq", "wk", "wv", "wo"))
    scale = dh ** -0.5
    xs = x.data.reshape(b, s, d)

    def split_heads(a):  # [b, s, h*dh] -> [b, h, s, dh]
        return a.reshape(b, s, h, dh).transpose(0, 2, 1, 3)

    def merge_heads(a):  # [b, h, s, dh] -> [b, s, h*dh]
        return a.transpose(0, 2, 1, 3).reshape(b, s, h * dh)

    q, k, v = (split_heads(T._product(xs, w.data)) for w in (wq, wk, wv))
    p = T._product(q, k.swapaxes(-1, -2))  # becomes softmax(scale * q k^T + mask)
    p *= scale
    p += _causal_mask(s)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    merged = merge_heads(T._product(p, v))

    def backward(g):
        gb = g.reshape(b, s, d)
        if wo.requires_grad:
            T._accum(wo, (merged.swapaxes(-1, -2) @ gb).sum(axis=0))
        dheads = np.ascontiguousarray(split_heads(gb @ wo.data.T))
        ds = dheads @ v.swapaxes(-1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale  # the gradient of q k^T
        dq, dk, dv = (np.ascontiguousarray(merge_heads(a)) for a in (
            ds @ k, (q.swapaxes(-1, -2) @ ds).swapaxes(-1, -2), p.swapaxes(-1, -2) @ dheads))
        for w, dproj in ((wq, dq), (wk, dk), (wv, dv)):
            if w.requires_grad:
                T._accum(w, (xs.swapaxes(-1, -2) @ dproj).sum(axis=0))
        if x.requires_grad:
            dx = dq @ wq.data.T
            dx += dk @ wk.data.T
            dx += dv @ wv.data.T
            T._accum(x, dx.reshape(n, d))

    return T._make(T._product(merged, wo.data).reshape(n, d), (x, wq, wk, wv, wo),
                   backward)


def _ffn_weights(cfg, params, prefix):
    """An FFN's weight Tensors in ``_ffn``'s order."""
    gated = cfg.activation in GATED_ACTIVATIONS
    return [params[prefix + n] for n in ("w_in", "w_gate", "w_out") if gated or n != "w_gate"]


def _ffn(x, cfg, weights, record):
    """An FFN on arrays, the one copy of its arithmetic, for the dense node
    and each expert: act(x @ w_in), times x @ w_gate when gated, @ w_out;
    ``weights`` are the arrays of ``_ffn_weights``. Returns (y, grad):
    grad(gy) lists the gradients of x and of each weight, by the op graph's
    float operations, in its order. Without ``record`` grad is None: what
    only it reads goes, and the gate multiplies in place, before the down
    product."""
    act, act_grad = T._ACTIVATIONS[cfg.activation.removeprefix("gated_")]
    w_in, *w_gate, w_out = weights
    u = T._product(x, w_in)
    v = T._product(x, w_gate[0]) if w_gate else None
    a, act_saved = act(u)
    if not record:
        del u, act_saved
        return T._product(a if v is None else np.multiply(a, v, out=a), w_out), None
    h = a if v is None else a * v

    def grad(gy):
        gh = gy @ w_out.T
        du = act_grad(gh if v is None else gh * v, u, act_saved)
        grads = [du @ w_in.T, x.T @ du]  # x's, then each weight's
        if v is not None:
            dv = gh * a
            grads[0] += dv @ w_gate[0].T
            grads.append(x.T @ dv)
        return grads + [h.T @ gy]

    return T._product(h, w_out), grad


def ffn_forward(x, cfg, params, prefix=""):
    """Dense FFN as one autodiff node over ``x`` and its weights, by
    ``_ffn``: project up, activate (times x @ w_gate when gated), down."""
    parents = [x] + _ffn_weights(cfg, params, prefix)
    record = T._grad_enabled and any(p.requires_grad for p in parents)
    y, grad = _ffn(x.data, cfg, [w.data for w in parents[1:]], record)

    def backward(g):
        for t, dt in zip(parents, grad(g)):
            T._accum(t, dt)

    return T._make(y, parents, backward)


def gate_scores(x, wg):
    """Token-to-expert affinities, softmax-normalized over the expert axis.

    Per-token normalization only: no cross-token statistics, so causal
    decoding leaks nothing.
    """
    return T.softmax(T.matmul(x, wg))


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
    return RoutingDecision(tokens[keep], experts[keep], data)


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
    return RoutingDecision(top.T.reshape(-1), np.repeat(np.arange(n_experts), capacity), data)


def load_balance_aux_loss(scores):
    """Importance-times-load balance penalty for top-2 gating.

    E * sum_e (fraction of tokens whose top-1 expert is e) * (mean gate
    score of e). Differentiable through the mean-score factor only; equals
    1 for perfectly uniform scores. One node over ``scores``, running the
    float operations of the op chain it replaced (token mean, times frac,
    summed, times E) in that chain's order.
    """
    n, n_experts = scores.shape
    top1 = scores.data.argmax(axis=1)  # first maximum: lowest index first on ties
    frac = np.bincount(top1, minlength=n_experts) / n
    inv_n = 1.0 / n
    loss = ((scores.data.sum(axis=0) * inv_n) * frac).sum() * n_experts

    def backward(g):
        grad = ((g * n_experts) * frac) * inv_n  # the same for every token
        T._accum(scores, np.broadcast_to(grad, scores.shape).copy())

    return T._make(loss, (scores,), backward)


def _each(fn, items):
    """Call ``fn(item)`` for each item in turn, on this thread."""
    for item in items:
        fn(item)


def moe_experts(x, cfg, params, expert_tokens, scores, prefix=""):
    """An MoE layer's dispatch, experts and combine as one autodiff node
    over ``x``, every active expert's weights and the gate ``scores``, the
    last parent, so a sweep visits the graph around it in the order the
    per-expert graph gave. Expert e (params ``{prefix}expert{e}.*``) runs
    its FFN over the rows ``x[expert_tokens[e]]``, and its output rows,
    weighted by ``scores[token, e]``, are summed into zero rows in expert
    order. Experts with no token take no part.

    The node runs the float operations of the graph it replaced (per
    expert a ``take_rows``, the FFN by ``_ffn`` and a weighted scatter),
    bit for bit. Each expert's forward and backward read no other
    expert's, so they fill per-expert buffers; the sums that cross experts
    run here, in the old sweep's order: the combine, the gate terms by one
    ``np.add.at`` per expert and the input rows scatter-added into
    ``x.grad``, each from expert 0 up. When the node records a graph and
    the expert matrices are big (at least ``threads.CHUNK_BYTES``), the
    caller's thread and the helper thread share that per-expert work
    (``_Helper.share``), which calls only ``_ffn`` and array helpers of
    ``tensor``, never an op or a function ``perfbench/tracer.py`` wraps.
    """
    active = [(e, idx) for e, idx in enumerate(expert_tokens) if idx.size]
    weights = [_ffn_weights(cfg.expert, params, f"{prefix}expert{e}.") for e, _ in active]
    parents = [x] + [w for ws in weights for w in ws] + [scores]
    record = T._grad_enabled and any(p.requires_grad for p in parents)
    run = _each
    if record and weights and weights[0][0].data.nbytes >= threads.CHUNK_BYTES:
        run = threads.helper().share
    weighted = [None] * len(active)  # each expert's output rows times their gate scores
    saved = [None] * len(active)  # what each expert's backward reads

    def forward(i):
        e, idx = active[i]
        y, grad = _ffn(x.data[idx], cfg.expert, [w.data for w in weights[i]], record)
        w = scores.data[idx, e][:, None]
        weighted[i] = y * w
        if record:
            saved[i] = (y, w, grad)

    run(forward, range(len(active)))
    out = np.zeros((x.shape[0], cfg.model_dim))
    for (_, idx), rows in zip(active, weighted):
        T._scatter_add_rows(out, idx, rows)
    del weighted

    def backward(g):
        grads = [None] * len(active)  # (gate term, input-row gradient, *weight gradients)

        def expert_backward(i):
            _, idx = active[i]
            y, w, grad = saved[i]
            saved[i] = None  # each expert's activations go once it is done
            rows = g[idx]
            grads[i] = ((rows * y).sum(axis=1), *grad(rows * w))

        run(expert_backward, range(len(active)))
        for (e, idx), ws, (gate_term, gx, *gw) in zip(active, weights, grads):
            if scores.requires_grad:
                np.add.at(T._grad_of(scores), (idx, e), gate_term)
            for w, dw in zip(ws, gw):
                T._accum(w, dw)
            if x.requires_grad:
                T._scatter_add_rows(T._grad_of(x), idx, gx)

    return T._make(out, parents, backward)


def moe_forward(x, cfg, params, prefix="", group_size=None):
    """Sparsely gated FFN: gate, route, then the experts node
    (``moe_experts``), which dispatches, runs the experts and combines.

    Tokens are routed in routing groups (GShard): each run of
    ``group_size`` rows, by default the whole batch, is routed on its own
    with capacity ``cfg.capacity(group_size)``, so a group's decision does
    not depend on the other groups. The groups' decisions are joined into
    one ``RoutingDecision`` over the batch, and each expert runs once over
    its tokens from all groups.

    Returns (output, aux_loss, decision); aux_loss is the load-balance
    penalty over the whole batch for top-2 gating and exactly 0 for expert
    choice (perfectly balanced by construction). Dropped tokens contribute
    zero rows; the residual connection around the layer carries them
    through. Some expert always takes a token: top-2 keeps token 0's first
    choice, and under expert choice every expert fills its capacity.
    """
    n = x.shape[0]
    g = n if group_size is None else group_size
    if n % g != 0:
        raise ValueError(f"{n} tokens not divisible by routing group size {g}")
    k = cfg.capacity(g)
    scores = gate_scores(x, params[prefix + "wg"])
    if cfg.gating == GATE_TOP2:
        route = route_top2
        aux = load_balance_aux_loss(scores)
    else:
        route = route_expert_choice
        aux = Tensor(0.0)
    groups = [route(scores.data[start:start + g], k) for start in range(0, n, g)]
    decision = RoutingDecision(
        np.concatenate([d.tokens + i * g for i, d in enumerate(groups)]),
        np.concatenate([d.experts for d in groups]), scores.data)
    out = moe_experts(x, cfg, params, decision.expert_tokens(cfg.n_experts), scores, prefix)
    return out, aux, decision
