"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for the models in this package: broadcasting binary
ops, batched matmul, gathers for embeddings, stable softmax family, layer
norm, and a few pointwise nonlinearities. Computation runs in float64
regardless of parameter storage dtype; leaves created with
``requires_grad=False`` skip closure construction entirely, so inference
reuses the same forward code at effectively raw-numpy cost.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


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
        self.data = np.asarray(data, dtype=np.float64)
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
            self.grad = grad.copy()
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


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data, parents, backward) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires, parents=[p for p in parents if p.requires_grad],
                  backward=backward if requires else None)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            ga = grad @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ grad
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _node(out_data, (a, b), backward)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Embedding lookup: rows of ``table`` selected by an integer array."""
    indices = np.asarray(indices)
    out_data = table.data[indices]

    def backward(grad):
        if table.requires_grad:
            g = np.zeros_like(table.data)
            np.add.at(g, indices, grad)
            table._accumulate(g)

    return _node(out_data, (table,), backward)


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


def log_sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # stable: log sigma(x) = min(x, 0) - log1p(exp(-|x|))
    out_data = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (1.0 / (1.0 + np.exp(x))))  # sigma(-x)

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


def masked_softmax(a: Tensor, mask: Optional[np.ndarray], axis: int = -1) -> Tensor:
    """Softmax of ``a + mask`` where ``mask`` is a constant additive array
    (e.g. a causal mask); fused to avoid materializing the sum."""
    out_data = softmax_np(a.data if mask is None else a.data + mask, axis=axis)

    def backward(grad):
        if a.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (grad - dot))

    return _node(out_data, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    out_data = log_softmax_np(a.data, axis=axis)

    def backward(grad):
        if a.requires_grad:
            soft = np.exp(out_data)
            a._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return _node(out_data, (a,), backward)


def pick_last(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select ``a[..., indices]`` elementwise along the last axis: for input
    shape (..., V) and integer array of shape (...), returns shape (...)."""
    indices = np.asarray(indices)
    idx = np.ix_(*[np.arange(s) for s in indices.shape])  # type: ignore[arg-type]
    out_data = a.data[idx + (indices,)] if indices.ndim else a.data[..., indices]

    def backward(grad):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            if indices.ndim:
                g[idx + (indices,)] = grad
            else:
                g[..., indices] = grad
            a._accumulate(g)

    return _node(out_data, (a,), backward)


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
