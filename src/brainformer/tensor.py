"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: N-D arrays, a 2-D matmul, a last-axis softmax and a
row gather. Everything is float64 so finite-difference gradient checks
are meaningful. Causal attention, the dense FFN, an MoE layer's experts
(both with ReLU or GeLU from ``_ACTIVATIONS``) and the MoE load-balance
loss are one node each, in ``layers``.

Writing an op: return ``_node(data, parents, grad)``, where ``grad(g)``
takes the gradient of the output and returns one gradient per parent, in
parent order, each an array or a ``Product``; ``backward`` adds each into
its parent. ``grad`` may capture its parents and plain arrays, but never
the output tensor itself, so a graph has no reference cycles and needs no
help from the cyclic garbage collector.

``backward`` consumes the graph it sweeps: once a node's ``grad`` has run,
the node drops it and its parent links, so each activation and
intermediate gradient is freed by refcount as soon as the sweep has used
it. A tensor the caller still holds keeps its data and ``.grad``. Leaves
(parameters, inputs) are never consumed, so they can feed any number of
graphs; a second ``backward`` that reaches a consumed node raises. The
sweep can report each leaf as soon as its gradient is final, so an
optimizer can apply it before the sweep ends.

Gradient ownership, one rule kept by ``Tensor.backward`` alone: each
gradient ``grad`` returns is a fresh array, ``g`` itself or a ``Product``
of arrays nothing writes after it returns. A parent's first gradient
becomes its ``.grad`` as is when fresh and as a copy when it is ``g``
(``add`` passes ``g`` through), and later ones are added in place, so no
``.grad`` shares memory with another array; a ``Product`` stays one only as
the ``.grad`` of a leaf consumed once, in a sweep that reports leaves. No
op writes a ``.grad``: ``take_rows`` and ``layers.moe_experts`` scatter
into fresh zero arrays and return them like every other op.

Inside ``with no_grad():`` every op computes its output only: it records
no parents and no ``grad``, so no graph keeps an intermediate
alive once the code that made it drops it.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """A node in the (implicit) computation graph.

    ``data`` is always a float64 ndarray. ``grad`` is allocated lazily
    during backward and has the same shape as ``data``. Tensors are
    immutable after construction except for grad accumulation and the
    optimizer, which owns a param's ``data`` and steps it in place.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self, on_leaf=None):
        """Reverse-mode sweep from a scalar loss, consuming its graph.

        Visits each recorded op exactly once (reverse topological order),
        calls its ``grad`` on its output's gradient and adds the gradients
        it returns into the ``.grad`` of each requires_grad parent: the
        one place a gradient is added. Each op node drops its ``grad`` and
        parent links once it has run, so the sweep frees the graph as it
        goes. A graph that reaches a node an earlier sweep consumed raises
        RuntimeError before any gradient is touched.

        ``on_leaf``, if given, is called with each requires_grad leaf that an
        op of the graph consumes, once the gradient of the last such edge has
        been added, so the leaf's ``grad`` is final: a leaf consumed twice (as
        in ``mul(x, x)``) is reported once, after both uses. The graph search
        counts each leaf's consuming edges. A gradient may be a ``Product``,
        ``a @ b`` of arrays nothing writes after ``grad`` returns: with
        ``on_leaf``, a leaf consumed once keeps it as its ``grad``; every
        other is multiplied out at once.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.shape}")
        topo = []
        visited = set()
        uses = {}  # requires_grad leaf -> consuming edges whose gradient is to come
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _consumed:
                _consumed(None)  # raises before any gradient is touched
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p._backward is None and p.requires_grad:
                    uses[p] = uses.get(p, 0) + 1
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            grad = node._backward
            if grad is None:
                continue
            g, parents = node.grad, node._parents
            node._backward, node._parents = _consumed, ()
            for p, dp in zip(parents, grad(g)):
                left = uses.get(p)
                if p.requires_grad:
                    if type(dp) is Product and (on_leaf is None or left != 1 or p.grad is not None):
                        dp = dp.value()
                    if p.grad is None:
                        p.grad = dp if dp is not g else dp.copy()
                    else:
                        p.grad += dp
                if left is not None:
                    uses[p] = left - 1
                    if left == 1 and on_leaf is not None:
                        on_leaf(p)


class Product:
    """A gradient ``a @ b`` held as its factors (see ``Tensor.backward``)."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def value(self, out=None):  # into ``out`` when given
        return np.matmul(self.a, self.b, out=out)


def _consumed(g):
    """The ``grad`` of a node whose graph a sweep has already freed."""
    raise RuntimeError("backward() through a graph an earlier backward() consumed")


_grad_enabled = True  # cleared by no_grad(); read by _recording only


@contextlib.contextmanager
def no_grad():
    """Run the ops inside without recording a graph: their outputs have no
    parents and no backward, whatever the inputs' ``requires_grad``. The
    previous setting is restored on exit, so blocks nest."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _coerce(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(parents):
    """True when an op over ``parents`` records a node: gradients are
    enabled and some parent requires one."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _node(data, parents, grad):
    """The output of an op over ``parents``; when it records a node,
    ``grad(g)`` is its backward, returning one gradient per parent."""
    out = Tensor(data)
    if _recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = grad
    return out


def _scatter_add_rows(dst, idx, values):
    """dst[idx] += values for non-negative row indices, repeats summed in
    order: np.add.at's result, by plain indexed addition when no index
    repeats (several times faster on row blocks)."""
    if idx.size and np.bincount(idx).max() > 1:
        np.add.at(dst, idx, values)
    else:
        dst[idx] += values


def _product(a, b):
    """``a @ b`` on arrays. Every product a forward pass runs goes through
    here (``matmul``, the attention, FFN and experts nodes), so one wrapper
    sees them all."""
    return a @ b


def _unbroadcast(g, shape):
    """Sum gradient g down to the given (broadcast-source) shape; g itself
    when that sums nothing."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = _coerce(a), _coerce(b)
    return _node(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a, b):
    a, b = _coerce(a), _coerce(b)
    return _node(a.data * b.data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)))


def matmul(a, b):
    """Matrix product of 2-D operands."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul expects 2-D operands with matching inner dims, "
                         f"got {a.shape} @ {b.shape}")
    return _node(_product(a.data, b.data), (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def _softmax(a):
    """Numerically stabilized softmax over the last axis of array a, in
    a's buffer: shift by the row max, exponentiate, divide by the row sum."""
    a -= a.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    return a


def _softmax_grad(g, y):
    """The gradient through a last-axis softmax with output y of the output
    gradient g, (g - sum(g * y)) * y, in g's buffer."""
    g -= (g * y).sum(axis=-1, keepdims=True)
    g *= y
    return g


def softmax(x):
    """Numerically stabilized softmax; each last-axis slice sums to 1."""
    x = _coerce(x)
    y = _softmax(x.data.copy())
    return _node(y, (x,), lambda g: (_softmax_grad(g.copy(), y),))


def layer_norm(x, gain, bias, eps=1e-6):
    """Normalize each last-dim slice to zero mean / unit variance, then affine."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    h = x.data.shape[-1]
    if h == 0:
        raise ValueError("layer_norm over an empty last dimension")
    if gain.data.shape != (h,) or bias.data.shape != (h,):
        raise ValueError(f"gain/bias must have shape ({h},)")
    # numpy's mean and var are add.reduce and a divide by the count (var on
    # c * c); written out they skip numpy's Python-level wrappers, and c is
    # computed once. Same float operations, same order.
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / h
    c = x.data - mu
    y = np.multiply(c, c)  # c * c, then the output
    var = np.add.reduce(y, axis=-1, keepdims=True) / h
    inv_sigma = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(c, inv_sigma, out=c)
    np.multiply(xhat, gain.data, out=y)
    y += bias.data

    def grad(g):
        gy = g * gain.data
        dgain = _unbroadcast(g * xhat, gain.data.shape)
        dbias = _unbroadcast(g, bias.data.shape)
        m1 = np.add.reduce(gy, axis=-1, keepdims=True) / h
        t = gy * xhat
        m2 = np.add.reduce(t, axis=-1, keepdims=True) / h
        # dx = inv_sigma * (gy - m1 - xhat * m2), in gy's buffer
        np.subtract(gy, m1, out=gy)
        gy -= np.multiply(xhat, m2, out=t)
        gy *= inv_sigma
        return gy, dgain, dbias

    return _node(y, (x, gain, bias), grad)


def _relu(x):
    """ReLU on an array: (output, mask), the mask its gradient reuses."""
    mask = x > 0
    return x * mask, mask


def _relu_grad(g, x, mask):
    return g * mask


def _gelu(x):
    """Exact erf-form GeLU on an array: (output, phi), with phi = 0.5 * (1 +
    erf(x / sqrt(2))) the normal CDF its gradient reuses. In one buffer:
    each product and sum has the operands of the written formula, and IEEE
    products and sums do not depend on operand order, so the bits are its."""
    phi = np.multiply(x, _INV_SQRT2)
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return x * phi, phi


def _gelu_grad(g, x, phi):
    """g * (phi + x * pdf(x)), pdf(x) = exp((-0.5 * x) * x) / sqrt(2 pi), in
    one buffer (the same bits, as in ``_gelu``)."""
    d = np.multiply(x, -0.5)
    d *= x
    np.exp(d, out=d)
    d *= _INV_SQRT_2PI
    d *= x
    d += phi
    d *= g
    return d


# activation -> (forward on an array, giving (output, saved), and the
# gradient g -> g * act'(x) from (g, x, saved)), run by ``layers._ffn``
_ACTIVATIONS = {"relu": (_relu, _relu_grad), "gelu": (_gelu, _gelu_grad)}


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer targets under row logits."""
    logits = _coerce(logits)
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.data.shape
    if targets.shape != (n,):
        raise ValueError(f"targets must have shape ({n},), got {targets.shape}")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= v:
        raise ValueError(f"target ids must lie in [0, {v})")
    m = logits.data.max(axis=1, keepdims=True)
    z = logits.data - m
    lse = np.log(np.exp(z).sum(axis=1)) + m[:, 0]
    picked = logits.data[np.arange(n), targets]
    loss = (lse - picked).mean()

    def grad(g):
        probs = _softmax(logits.data.copy())
        probs[np.arange(n), targets] -= 1.0
        probs *= float(g) / n
        return (probs,)

    return _node(np.float64(loss), (logits,), grad)


def take_rows(x, idx):
    """Differentiable row gather: out[i] = x[idx[i]]."""
    x = _coerce(x)
    idx = np.asarray(idx, dtype=np.int64)

    def grad(g):
        gx = np.zeros_like(x.data)
        _scatter_add_rows(gx, idx, g)
        return (gx,)

    return _node(x.data[idx], (x,), grad)
