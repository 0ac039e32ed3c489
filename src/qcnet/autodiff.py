"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and records the op that produced it; ``backward()``
walks the tape in reverse topological order and accumulates gradients into
every tensor with ``requires_grad``.  The op set is exactly what the
simplex-attention model needs: broadcasting arithmetic, matmul, concat,
row gather / segment sum (the scatter pair used for message aggregation),
full reductions for the loss, the activations, and ``normalize``.  All
accumulation happens in a fixed order determined by tape construction, so
given identical inputs the gradients are bit-for-bit reproducible.

``normalize`` is the one formula behind batch and layer normalization: a
single node whose pullback carries the gradient through the mean and the
variance along the normalized axis.

An op output joins the tape only when a gradient can reach it: some operand
requires one and recording is on.  Anything else keeps neither its parents
nor its pullback, whose closure would hold the operands and through them every
intermediate array.  Inside ``no_grad()`` nothing records, so a forward-only
pass frees each intermediate as soon as the next op has consumed it.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

# Per thread and per asyncio task, so a forward-only pass in one thread cannot
# switch off recording for a training step running in another.
_RECORDING = contextvars.ContextVar("qcnet_autodiff_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Ops inside the block record no tape; leaves keep their flags.

    Nestable; the previous state comes back however the block exits.
    """
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Logistic function; the tanh form cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def silu_np(x: np.ndarray) -> np.ndarray:
    return x * sigmoid_np(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were added or stretched by broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Node of the tape: value, optional gradient, and a pullback."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_pullback")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), pullback=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._pullback = pullback

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable grad-enabled leaf."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._pullback is not None and node.grad is not None:
                node._pullback(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _ensure(other)

        def pullback(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))
        return _record(self.data + other.data, (self, other), pullback)

    __radd__ = __add__

    def __neg__(self):
        def pullback(g):
            self._accumulate(-g)
        return _record(-self.data, (self,), pullback)

    def __sub__(self, other):
        return self + (-_ensure(other))

    def __rsub__(self, other):
        return _ensure(other) + (-self)

    def __mul__(self, other):
        other = _ensure(other)

        def pullback(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data,
                                               other.data.shape))
        return _record(self.data * other.data, (self, other), pullback)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = _ensure(other)

        def pullback(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)
        return _record(self.data @ other.data, (self, other), pullback)

    # -- elementwise functions ---------------------------------------------

    def square(self):
        return self * self

    def abs(self):
        def pullback(g):
            self._accumulate(g * np.sign(self.data))
        return _record(np.abs(self.data), (self,), pullback)

    def sigmoid(self):
        value = sigmoid_np(self.data)

        def pullback(g):
            self._accumulate(g * value * (1.0 - value))
        return _record(value, (self,), pullback)

    def silu(self):
        sig = sigmoid_np(self.data)

        def pullback(g):
            self._accumulate(g * sig * (1.0 + self.data * (1.0 - sig)))
        return _record(self.data * sig, (self,), pullback)

    # -- reductions ---------------------------------------------------------

    def sum(self):
        def pullback(g):
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())
        return _record(self.data.sum(), (self,), pullback)

    def mean(self):
        return self.sum() * (1.0 / self.data.size)


def _record(value, parents: tuple, pullback) -> Tensor:
    """An op's output, on the tape only if a gradient can reach it.

    A recorded output requires a gradient, so a single-operand pullback can
    accumulate into its operand unconditionally.
    """
    if _RECORDING.get() and any(p.requires_grad for p in parents):
        return Tensor(value, True, parents, pullback)
    return Tensor(value)


def _ensure(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def constant(value) -> Tensor:
    """Wrap an array as a non-differentiable tape leaf."""
    return _ensure(value)


def parameter(value) -> Tensor:
    """Wrap an array as a differentiable leaf (owns its storage)."""
    return Tensor(np.array(value, dtype=np.float64), requires_grad=True)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    tensors = [_ensure(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def pullback(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)
    return _record(np.concatenate([t.data for t in tensors], axis=axis),
                   tuple(tensors), pullback)


def gather_rows(t: Tensor, index: np.ndarray) -> Tensor:
    """Select rows; the pullback scatter-adds back into the source rows."""
    index = np.asarray(index, dtype=np.int64)

    def pullback(g):
        acc = np.zeros_like(t.data)
        np.add.at(acc, index, g)
        t._accumulate(acc)
    return _record(t.data[index], (t,), pullback)


def normalize(t: Tensor, axis: int, eps: float
              ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """``(x - mean) / sqrt(var + eps)`` along ``axis`` as one tape node.

    The variance is the biased one.  Also returns the mean and variance
    arrays, with ``axis`` reduced away.  With ``s = sqrt(var + eps)`` and
    ``n`` entries along ``axis``, d xhat_i / d x_j = (delta_ij - 1/n) / s -
    xhat_i xhat_j / (n s), which the pullback applies without forming it.
    """
    mean = t.data.mean(axis=axis, keepdims=True)
    centered = t.data - mean
    var = np.square(centered).mean(axis=axis, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std

    def pullback(g):
        t._accumulate(inv_std * (
            g - g.mean(axis=axis, keepdims=True)
            - xhat * (g * xhat).mean(axis=axis, keepdims=True)))
    return (_record(xhat, (t,), pullback), np.squeeze(mean, axis),
            np.squeeze(var, axis))


def segment_sum(t: Tensor, segment: np.ndarray, n_segments: int) -> Tensor:
    """Sum rows into n_segments buckets; pullback is a row gather."""
    segment = np.asarray(segment, dtype=np.int64)
    value = np.zeros((n_segments,) + t.data.shape[1:], dtype=np.float64)
    np.add.at(value, segment, t.data)

    def pullback(g):
        t._accumulate(g[segment])
    return _record(value, (t,), pullback)


def segment_mean(t: Tensor, segment: np.ndarray, n_segments: int) -> Tensor:
    """Per-bucket mean of rows; every bucket must be nonempty."""
    segment = np.asarray(segment, dtype=np.int64)
    counts = np.bincount(segment, minlength=n_segments).astype(np.float64)
    if np.any(counts == 0):
        raise ValueError("segment_mean: empty segment")
    return segment_sum(t, segment, n_segments) * (1.0 / counts[:, None])
