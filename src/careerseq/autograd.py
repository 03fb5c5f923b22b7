"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for the models in this package: broadcasting binary
ops, batched matmul, ``embed_sum`` (a model's input embedding, every lookup
and their sum, in one node), stable softmax family, layer norm, and a few
pointwise nonlinearities. ``causal_attention`` is the attention of both
transformers in one node. ``cross_entropy`` is the one softmax cross-entropy
of every trained head (token LM, career, MNL): the log-probabilities at
integer targets and their gradient, one-hot minus softmax; ``lm_head_nll``
is the token LM's loss node around it.

A graph computes in the dtype of its leaves: :func:`leaves` hands training
the stored (float32) parameters and scoring float64 copies. A tensor keeps
float32 or float64 data as given, a constant operand takes the dtype of the
tensor it meets, and a gradient takes its tensor's dtype, so nothing upcasts
a float32 graph. Leaves created with ``requires_grad=False`` skip closure
construction entirely, so inference reuses the same forward code at
effectively raw-numpy cost.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_NEG = -1e30


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype)  # a copy, in this tensor's dtype
        else:
            self.grad += grad

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def leaves(params: dict[str, np.ndarray], train: bool) -> dict[str, Tensor]:
    """Graph leaves over ``params``: the stored arrays when training, so the
    graph computes in their dtype, and float64 when scoring, so a score is
    the same for any storage dtype of the same values."""
    if train:
        return {k: Tensor(v, requires_grad=True) for k, v in params.items()}
    return {k: Tensor(v.astype(np.float64, copy=False)) for k, v in params.items()}


def _wrap(x, like: Optional[Tensor] = None) -> Tensor:
    """``x`` as a tensor; a constant takes ``like``'s dtype, as a NumPy weak
    scalar would, so a Python float or a float64 mask keeps a float32 graph
    float32."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x if like is None else np.asarray(x, dtype=like.data.dtype))


def _node(data, parents, backward) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires, parents=[p for p in parents if p.requires_grad],
                  backward=backward if requires else None)


def add(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a)
    out_data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a)
    out_data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a)
    out_data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            ga = grad @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ grad
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _node(out_data, (a, b), backward)


def embed_sum(lookups: Sequence[tuple[Tensor, np.ndarray]]) -> Tensor:
    """Sum of ``table.data[indices]`` over ``(table, indices)`` pairs, added in
    order with broadcasting, in one node; a table's gradient scatters onto its rows."""
    lookups = [(table, np.asarray(indices)) for table, indices in lookups]
    out_data = lookups[0][0].data[lookups[0][1]]
    for table, indices in lookups[1:]:
        out_data = out_data + table.data[indices]

    def backward(grad):
        for table, indices in lookups:
            if table.requires_grad:
                g = np.zeros_like(table.data)
                np.add.at(g, indices, _unbroadcast(grad, indices.shape + table.data.shape[1:]))
                table._accumulate(g)

    return _node(out_data, [table for table, _ in lookups], backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        if not a.requires_grad:
            return
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _node(out_data, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """GELU with the tanh approximation (smooth, so finite differences agree)."""
    x = a.data
    inner = _SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))  # x * x * x: NumPy's pow is ~50x slower
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def backward(grad):
        if a.requires_grad:
            dinner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * (x * x))
            da = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            a._accumulate(grad * da)

    return _node(out_data, (a,), backward)


def softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax of a plain array (no graph)."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax of a plain array (no graph)."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def causal_attention(q: Tensor, k: Tensor, v: Tensor, scale: float = 1.0) -> tuple[Tensor, np.ndarray]:
    """Causal multi-head attention, ``softmax(scale * q k^T) v`` with the
    heads merged, in one node.

    ``q`` is (B, H, T, h) and ``k``, ``v`` are (B, H, S, h): the queries are
    the last T of S positions, after a cached prefix of S - T, so query t
    sees keys 0..S - T + t. Returns the (B, T, H*h) output and the
    (B, H, T, S) probabilities. The backward works from the saved
    probabilities (as FlashAttention, Dao et al., arXiv:2205.14135) with the
    unfused composition's matmuls on the same views, so the gradients of
    distinct q, k and v are bit-identical to it.
    """
    b, n_heads, t, h = q.shape
    s = k.shape[2]
    scale_t = np.asarray(scale, dtype=q.data.dtype)
    scores = q.data @ np.swapaxes(k.data, -1, -2)
    scores *= scale_t
    scores += np.triu(np.full((t, s), _NEG, dtype=scores.dtype), k=s - t + 1)
    probs = softmax_np(scores)
    out_data = (probs @ v.data).transpose(0, 2, 1, 3).reshape(b, t, n_heads * h)

    def backward(grad):
        g = grad.reshape(b, t, n_heads, h).transpose(0, 2, 1, 3)
        if v.requires_grad:
            v._accumulate(np.swapaxes(probs, -1, -2) @ g)
        g_probs = g @ np.swapaxes(v.data, -1, -2)
        g_scores = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True))
        g_scores *= scale_t
        if q.requires_grad:
            q._accumulate(g_scores @ k.data)
        if k.requires_grad:
            k._accumulate(np.swapaxes(np.swapaxes(q.data, -1, -2) @ g_scores, -1, -2))

    return _node(out_data, (q, k, v), backward), probs


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    out_data = log_softmax_np(a.data, axis=axis)

    def backward(grad):
        if a.requires_grad:
            soft = np.exp(out_data)
            a._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return _node(out_data, (a,), backward)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-softmax of each row of ``logits`` (n, C) read at integer
    ``targets`` (n,), and its gradient, one-hot minus softmax. A -1e30 logit
    excludes its class. Overwrites ``logits``; the gradient reuses its buffer."""
    at = (np.arange(targets.size), targets)
    logits -= logits.max(axis=-1, keepdims=True)
    picked = logits[at]
    grad = np.exp(logits, out=logits)
    total = grad.sum(axis=-1, keepdims=True)
    grad /= -total
    grad[at] += 1.0
    return picked - np.log(total[:, 0]), grad


def lm_head_nll(final: Tensor, w_out: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean NLL of the rows of ``final`` (B, T, d) where ``mask`` (B, T') is 1,
    projected by ``w_out`` (d, V) and read at ``targets`` (B, T'), in one node;
    no other row builds logits (fused linear cross-entropy, arXiv:2410.10989)."""
    rows = np.nonzero(mask)
    x = final.data[rows]
    lp, g_logits = cross_entropy(x @ w_out.data, targets[rows])

    def backward(grad):
        np.multiply(g_logits, grad * (-1.0 / lp.size), out=g_logits)
        if final.requires_grad:
            g = np.zeros_like(final.data)
            g[rows] = g_logits @ w_out.data.T
            final._accumulate(g)
        if w_out.requires_grad:
            w_out._accumulate(x.T @ g_logits)

    return _node(lp.sum() * (-1.0 / lp.size), (final, w_out), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    out_data = xhat * gain.data + bias.data

    def backward(grad):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(grad * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.data.shape))
        if a.requires_grad:
            dxhat = grad * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            a._accumulate(inv * (dxhat - m1 - xhat * m2))

    return _node(out_data, (a, gain, bias), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)
    orig = a.data.shape

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad.reshape(orig))

    return _node(out_data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    out_data = a.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad.transpose(inverse))

    return _node(out_data, (a,), backward)
