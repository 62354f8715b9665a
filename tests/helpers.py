"""Shared test utilities: finite-difference gradient checking and small
independent oracles.
"""

import math

import numpy as np

from brainformer import layers as L
from brainformer import tensor as T
from brainformer import training
from brainformer.tensor import Tensor
from brainformer.training import TrainingError


def finite_difference_check(params, loss_fn, eps=1e-5, rng=None,
                            max_per_tensor=None):
    """Max relative error between analytic grads and central differences.

    ``params`` maps names to Tensors; ``loss_fn`` recomputes the scalar
    loss from the current parameter values. Checks every entry unless
    ``max_per_tensor`` caps the sampled count.
    """
    loss = loss_fn()
    for p in params.values():
        p.grad = None
    loss.backward()
    worst = 0.0
    worst_name = None
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        n = flat.size
        if max_per_tensor is not None and n > max_per_tensor:
            assert rng is not None
            idxs = rng.choice(n, size=max_per_tensor, replace=False)
        else:
            idxs = range(n)
        for i in idxs:
            old = flat[i]
            flat[i] = old + eps
            up = loss_fn().item()
            flat[i] = old - eps
            down = loss_fn().item()
            flat[i] = old
            fd = (up - down) / (2 * eps)
            an = analytic.reshape(-1)[i]
            # the 1e-6 floor keeps float roundoff in the central difference
            # (|loss| * 1e-16 / eps in absolute terms) from registering as a
            # large relative error on near-zero gradient entries
            denom = max(abs(fd), abs(an), 1e-6)
            err = abs(fd - an) / denom
            if err > worst:
                worst = err
                worst_name = name
    return worst, worst_name


def softmax_oracle(row):
    """Scalar-math exp-normalize, independent of the tensor implementation."""
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def top_k_indices(scores, k):
    """Indices of the k largest values, descending, ties broken by lowest
    index: the order routing's stable argsorts must give."""
    if isinstance(scores, Tensor):
        scores = scores.data
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if k > scores.size:
        raise ValueError(f"k={k} exceeds row length {scores.size}")
    order = np.argsort(-scores, kind="stable")
    return [int(i) for i in order[:k]]


def brute_force_top2(scores, capacity):
    """Literal simulation of the greedy top-2 capacity rule."""
    n, n_experts = scores.shape
    load = {e: 0 for e in range(n_experts)}
    assignments = []
    dropped = set()
    for tok in range(n):
        ranked = sorted(range(n_experts), key=lambda e: (-scores[tok, e], e))
        got = 0
        for e in ranked[: min(2, n_experts)]:
            if load[e] < capacity:
                load[e] += 1
                assignments.append((tok, e, float(scores[tok, e])))
                got += 1
        if got == 0:
            dropped.add(tok)
    return assignments, dropped


def expert_choice_oracle(scores, capacity):
    """Per-column full-sort selection."""
    n, n_experts = scores.shape
    assignments = []
    for e in range(n_experts):
        ranked = sorted(range(n), key=lambda t: (-scores[t, e], t))
        for t in ranked[:capacity]:
            assignments.append((t, e, float(scores[t, e])))
    return assignments


def attention_oracle(x, params, n_heads, head_dim, seq_len=None):
    """Causal multi-head attention as a loop over sequences and heads.

    Numpy only: reads the arrays behind the ``wq``/``wk``/``wv``/``wo``
    Tensors. Each segment of ``seq_len`` rows is its own sequence.
    """
    w = {k: params[k].data for k in ("wq", "wk", "wv", "wo")}
    n = x.shape[0]
    s = n if seq_len is None else seq_len
    outs = []
    for b in range(n // s):
        xs = x[b * s:(b + 1) * s]
        q, k, v = xs @ w["wq"], xs @ w["wk"], xs @ w["wv"]
        heads = []
        for h in range(n_heads):
            cols = slice(h * head_dim, (h + 1) * head_dim)
            scores = q[:, cols] @ k[:, cols].T * head_dim ** -0.5
            scores[np.triu_indices(s, k=1)] = -np.inf
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            heads.append((e / e.sum(axis=1, keepdims=True)) @ v[:, cols])
        outs.append(np.concatenate(heads, axis=1) @ w["wo"])
    return np.concatenate(outs, axis=0)


def adafactor_oracle(opt, params, lr):
    """``Adafactor.update`` as first written: it builds outer(r, c), its
    sqrt and the quotient, and takes plain means. Reads ``opt``'s constants
    and updates its state in place."""
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name!r}")
        st = opt.state[name]
        g2 = g * g + opt.EPS1
        if "r" in st:
            st["r"] = opt.beta2 * st["r"] + (1 - opt.beta2) * g2.sum(axis=1)
            st["c"] = opt.beta2 * st["c"] + (1 - opt.beta2) * g2.sum(axis=0)
            v = np.outer(st["r"], st["c"]) / st["r"].sum()
        else:
            st["v"] = opt.beta2 * st["v"] + (1 - opt.beta2) * g2
            v = st["v"]
        u = g / np.sqrt(v)
        rms_u = np.sqrt(np.mean(u * u))
        u /= max(1.0, rms_u / opt.CLIP)
        alpha = lr * max(opt.EPS2, np.sqrt(np.mean(p.data * p.data)))
        p.data = p.data - alpha * u


def adafactor_reference(opt, params, lr):
    """``Adafactor.update`` as one loop over the parameters, the form the
    chunked update replaced: the same arithmetic per parameter, so the
    two agree bit for bit. Reads ``opt``'s constants and rebinds its
    ``state`` entries, so ``opt`` is only ever updated through here."""
    b2 = opt.beta2
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        st = opt.state[name]
        # one fresh buffer per parameter holds g * g, then the step u,
        # then the new params (out= keeps it an array for 0-d params)
        g2 = np.multiply(g, g, out=np.empty_like(p.data))
        if "r" in st:
            rows = g2.sum(axis=1)
            _check_finite(name, g, rows)
            st["r"] = b2 * st["r"] + (1 - b2) * (rows + g.shape[1] * opt.EPS1)
            st["c"] = b2 * st["c"] + (1 - b2) * (g2.sum(axis=0) + g.shape[0] * opt.EPS1)
            u = np.multiply(g, (1.0 / np.sqrt(st["r"] / st["r"].sum()))[:, None], out=g2)
            u *= 1.0 / np.sqrt(st["c"])
        else:
            _check_finite(name, g, g2)
            g2 += opt.EPS1
            st["v"] = b2 * st["v"] + (1 - b2) * g2
            u = np.divide(g, np.sqrt(st["v"]), out=g2)
        flat_u, flat_p = u.reshape(-1), p.data.reshape(-1)
        rms_u = math.sqrt(np.dot(flat_u, flat_u) / flat_u.size)
        rms_p = math.sqrt(np.dot(flat_p, flat_p) / flat_p.size)
        u *= lr * max(opt.EPS2, rms_p) / max(1.0, rms_u / opt.CLIP)
        p.data = np.subtract(p.data, u, out=u)
        p.grad = None


def _check_finite(name, g, reduced):
    """Raise if g holds a NaN or inf. ``reduced`` (g * g or its row
    sums) is non-finite whenever g is, so g is scanned only then."""
    if not np.isfinite(reduced).all() and not np.isfinite(g).all():
        raise TrainingError(f"non-finite gradient in {name!r}")


def layer_norm_reference(x, gain, bias, g, eps=1e-6):
    """``tensor.layer_norm``'s forward and backward as first written, with
    numpy's ``mean`` and ``var``, on arrays: (y, dx, dgain, dbias) for the
    output gradient ``g`` of a 2-D ``x``."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_sigma = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_sigma
    y = xhat * gain + bias
    gy = g * gain
    m1 = gy.mean(axis=-1, keepdims=True)
    m2 = (gy * xhat).mean(axis=-1, keepdims=True)
    return y, inv_sigma * (gy - m1 - xhat * m2), (g * xhat).sum(axis=0), g.sum(axis=0)


def activation(x, name):
    """The activation ``name`` of ``tensor._ACTIVATIONS`` as a graph op,
    as ``tensor`` had it before the FFN became one node."""
    x = T._coerce(x)
    forward, grad = T._ACTIVATIONS[name]
    y, saved = forward(x.data)

    def backward(g):
        T._accum(x, grad(g, x.data, saved))

    return T._make(y, (x,), backward)


def relu(x):
    return activation(x, "relu")


def gelu(x):
    """Exact erf-form GeLU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    return activation(x, "gelu")


def ffn_graph(x, cfg, params, prefix=""):
    """The dense FFN as the graph of ops it was before it became one node,
    the bitwise oracle of ``layers.ffn_forward`` and of each expert of
    ``layers.moe_experts``: ``matmul``s, the activation op and, when
    gated, the ``mul`` by the second stream."""
    act = relu if cfg.activation in (L.ACT_RELU, L.ACT_GATED_RELU) else gelu
    u = T.matmul(x, params[prefix + "w_in"])
    v = T.matmul(x, params[prefix + "w_gate"]) if cfg.activation in L.GATED_ACTIVATIONS else None
    h = act(u) if v is None else T.mul(act(u), v)
    return T.matmul(h, params[prefix + "w_out"])


def moe_oracle(x, cfg, params, prefix=""):
    """The sparse MoE layer as first written, from generic ops only:
    routed by the loop oracles above, each expert's gate column picked by a
    product with a constant one-hot column and gathered by token, its
    weighted output placed into a parent-sized array by a product with a
    constant 0/1 placement matrix, the arrays joined by a chain of adds.
    Products with 0 and 1 and sums with 0 are exact, so it computes the
    same bits as the combine node."""
    n = x.shape[0]
    k = cfg.capacity(n)
    scores = L.gate_scores(x, params[prefix + "wg"])
    if cfg.gating == L.GATE_TOP2:
        assignments, _ = brute_force_top2(scores.data, k)
        aux = L.load_balance_aux_loss(scores)
    else:
        assignments = expert_choice_oracle(scores.data, k)
        aux = Tensor(0.0)
    groups = [[] for _ in range(cfg.n_experts)]
    for tok, exp, _ in assignments:
        groups[exp].append(tok)
    out = None
    expert_cfg = L.FfnConfig(cfg.model_dim, cfg.expert_hidden_dim, cfg.activation)
    for exp, group in enumerate(groups):
        if not group:
            continue
        toks = np.array(group, dtype=np.int64)
        xe = T.take_rows(x, toks)
        ye = ffn_graph(xe, expert_cfg, params, prefix=f"{prefix}expert{exp}.")
        one_hot = np.zeros((cfg.n_experts, 1))
        one_hot[exp, 0] = 1.0
        w = T.take_rows(T.matmul(scores, Tensor(one_hot)), toks)
        placement = np.zeros((n, toks.size))
        placement[toks, np.arange(toks.size)] = 1.0
        contrib = T.matmul(Tensor(placement), T.mul(ye, w))
        out = contrib if out is None else T.add(out, contrib)
    if out is None:
        out = Tensor(np.zeros_like(x.data))
    return out, aux


def combine_rows(triples, gate, n_rows):
    """The MoE combine node the experts node replaced, as it was in
    ``tensor``: for each ``(values, idx, e)`` of a non-empty list, in
    order, out[idx] += values * w, with w = gate[idx, e] as a ``[k, 1]``
    column, repeated rows summed. Its backward gives ``values`` g[idx] * w
    and scatter-adds (g[idx] * values).sum(axis=1) into the gate (the last
    parent) at (idx, e), one ``np.add.at`` per triple."""
    gate = T._coerce(gate)
    triples = [(T._coerce(v), np.asarray(idx, dtype=np.int64), e) for v, idx, e in triples]
    weights = [gate.data[idx, e][:, None] for _, idx, e in triples]
    data = np.zeros((n_rows,) + triples[0][0].data.shape[1:], dtype=np.float64)
    for (values, idx, _), w in zip(triples, weights):
        T._scatter_add_rows(data, idx, values.data * w)

    def backward(g):
        for (values, idx, e), w in zip(triples, weights):
            rows = g[idx]
            if values.requires_grad:
                T._accum(values, rows * w)
            if gate.requires_grad:
                np.add.at(T._grad_of(gate), (idx, e), (rows * values.data).sum(axis=1))

    return T._make(data, [values for values, _, _ in triples] + [gate], backward)


def experts_graph(x, cfg, params, expert_tokens, scores, prefix=""):
    """``layers.moe_experts`` as the graph of ops it replaced, its bitwise
    oracle: per expert with a token, a ``take_rows`` of its rows and an
    ``ffn_graph``, all joined by one ``combine_rows`` node. Patched in for
    ``moe_experts``, it gives ``moe_forward`` its old graph."""
    triples = [(ffn_graph(T.take_rows(x, toks), cfg.expert, params,
                          prefix=f"{prefix}expert{e}."), toks, e)
               for e, toks in enumerate(expert_tokens) if toks.size]
    return combine_rows(triples, scores, x.shape[0])


def perplexity_oracle(model, corpus, split="valid", seq_len=128, max_tokens=None):
    """``evaluate_perplexity`` as first written: one forward (with its
    autodiff graph) per window, each window routed as its own batch."""
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


def serial_perplexity(model, corpus, split="valid", seq_len=128, max_tokens=None):
    """``evaluate_perplexity`` on one thread: its stacked forwards of up to
    ``EVAL_BATCH_TOKENS`` tokens (read at the call) scored in turn and
    summed in window order. Its result is the bitwise reference for the
    two-thread split."""
    windows = list(corpus.windows(seq_len, split=split, max_tokens=max_tokens))
    if not windows:
        raise ValueError(f"no evaluation windows in {split} slice")
    n = windows[0][0].size
    per_forward = max(1, training.EVAL_BATCH_TOKENS // n)
    total_nll = 0.0
    total_tokens = 0
    with T.no_grad():
        for start in range(0, len(windows), per_forward):
            chunk = windows[start:start + per_forward]
            inputs = np.concatenate([w for w, _ in chunk])
            targets = np.concatenate([t for _, t in chunk])
            logits, _ = model.forward(inputs, seq_len=n, group_size=n)
            total_nll += T.cross_entropy(logits, targets).item() * targets.size
            total_tokens += targets.size
    return math.exp(total_nll / total_tokens)
