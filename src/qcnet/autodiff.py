"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and records the op that produced it; ``backward()``
walks the tape in reverse topological order and accumulates gradients into
every tensor with ``requires_grad``.  The op set is exactly what the
simplex-attention model needs: elementwise arithmetic, matmul, ``affine``,
concat, row gather / segment sum (the scatter pair used for message
aggregation), ``pair_affine_silu`` (an attention key or value: projected
per source row, gathered per pair and activated in one node), full
reductions for the loss, the activations, and ``normalize``.  Every
scatter-add, forward or pullback, is ``scatter_rows``: one ``np.bincount``
that adds each row's contributions in index order.  All accumulation
happens in a fixed order determined by tape construction, so given
identical inputs the gradients are bit-for-bit reproducible.

Gradients are never broadcast.  A constant or scalar operand may broadcast
against a tensor that requires a gradient, but a tensor that requires one
must have the shape of the op's result: a gradient whose shape differs
from its tensor's raises ValueError in ``backward()``.  The first gradient
a tensor receives is copied in; later ones are added in place.  The ops
whose parameters are one row applied to every row carry their own row
sums: ``affine`` is ``x @ w + b`` as one node, and
``normalize`` is the one formula behind batch and layer normalization,
``(x - mean) / sqrt(var + eps) * gamma + beta`` as one node, with the mean
and variance taken along the normalized axis (its pullback carries the
gradient through them) or given as constants.

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
    out = np.tanh(0.5 * x)
    out += 1.0
    out *= 0.5
    return out


def silu_np(x: np.ndarray) -> np.ndarray:
    return x * sigmoid_np(x)


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
        if np.shape(grad) != self.data.shape:
            raise ValueError(
                f"gradient of shape {np.shape(grad)} for a tensor of shape "
                f"{self.data.shape}: gradients are never broadcast")
        if self.grad is None:
            # A copy: one pullback may hand the same array to two operands.
            self.grad = np.array(grad, dtype=np.float64)
        else:
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
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)
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
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)
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
            self._accumulate(np.broadcast_to(g, self.data.shape))
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


def scatter_rows(values: np.ndarray, index: np.ndarray,
                 n_rows: int) -> np.ndarray:
    """``out[index[i]] += values[i]`` into ``n_rows`` zero rows.

    One ``np.bincount`` over the keys ``row * C + column``: each output
    entry sums its contributions in the order of ``index``, so the result
    is bitwise that of an unbuffered in-order scatter-add.
    """
    tail = values.shape[1:]
    width = int(np.prod(tail, dtype=np.int64))
    keys = (np.asarray(index, dtype=np.int64)[:, None] * width
            + np.arange(width, dtype=np.int64))
    out = np.bincount(keys.ravel(), weights=values.ravel(),
                      minlength=n_rows * width)
    return out.reshape((n_rows,) + tail)


def gather_rows(t: Tensor, index: np.ndarray) -> Tensor:
    """Select rows; the pullback scatter-adds back into the source rows."""
    index = np.asarray(index, dtype=np.int64)

    def pullback(g):
        t._accumulate(scatter_rows(g, index, t.data.shape[0]))
    return _record(t.data[index], (t,), pullback)


def pair_affine_silu(h: Tensor, w_face: Tensor, h_cof: Tensor,
                     w_cof: Tensor, w: Tensor, b: Tensor, tau: np.ndarray,
                     coface: np.ndarray) -> Tensor:
    """``silu([h[tau] @ w_face, h_cof[coface] @ w_cof] @ w + b)`` as one
    tape node, one row per (tau, coface) pair.

    The map is linear before the SiLU, so ``w`` splits by rows into the
    half that sees the face and the half that sees the coface, and each
    half is applied once per source row, not once per pair:
    ``(h @ w_face @ w[:H])[tau] + (h_cof @ w_cof @ w[H:])[coface] + b``.
    Only the gather, the sum and the SiLU run per pair; the pullback
    scatters the pair gradient back onto the source rows before any
    matmul.
    """
    tau = np.asarray(tau, dtype=np.int64)
    coface = np.asarray(coface, dtype=np.int64)
    split = w_face.data.shape[1]
    w_top, w_bottom = w.data[:split], w.data[split:]
    u = h.data @ w_face.data
    u_cof = h_cof.data @ w_cof.data
    z = (u @ w_top)[tau]
    z += (u_cof @ w_bottom)[coface]
    z += b.data
    sig = sigmoid_np(z)

    def pullback(g):
        dz = g * sig * (1.0 + z * (1.0 - sig))
        if b.requires_grad:
            b._accumulate(dz.sum(axis=0))
        d_top = scatter_rows(dz, tau, u.shape[0])
        d_bottom = scatter_rows(dz, coface, u_cof.shape[0])
        if w.requires_grad:
            w._accumulate(np.concatenate([u.T @ d_top, u_cof.T @ d_bottom]))
        for x, wx, d, w_half in ((h, w_face, d_top, w_top),
                                 (h_cof, w_cof, d_bottom, w_bottom)):
            if not (x.requires_grad or wx.requires_grad):
                continue
            du = d @ w_half.T
            if wx.requires_grad:
                wx._accumulate(x.data.T @ du)
            if x.requires_grad:
                x._accumulate(du @ wx.data.T)
    return _record(z * sig, (h, w_face, h_cof, w_cof, w, b), pullback)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one tape node; ``b`` is one row, added to every row."""
    def pullback(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))
    return _record(x.data @ w.data + b.data, (x, w, b), pullback)


def normalize(t: Tensor, gamma: Tensor, beta: Tensor, axis: int, eps: float,
              stats: tuple[np.ndarray, np.ndarray] | None = None
              ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """``(x - mean) / sqrt(var + eps) * gamma + beta`` as one tape node.

    ``gamma`` and ``beta`` are one row each, applied to every row.  Without
    ``stats`` the mean and biased variance are taken along ``axis``, and the
    pullback carries the gradient through them: with ``s = sqrt(var + eps)``
    and ``n`` entries along ``axis``, d xhat_i / d x_j = (delta_ij - 1/n) / s
    - xhat_i xhat_j / (n s), applied without forming it.  A given
    ``(mean, var)``, with ``axis`` reduced away, is a constant, so the
    pullback is ``g * gamma / s``.  Also returns the mean and variance used.
    """
    if stats is None:
        mean = t.data.mean(axis=axis, keepdims=True)
        centered = t.data - mean
        var = np.square(centered).mean(axis=axis, keepdims=True)
    else:
        mean, var = (np.expand_dims(a, axis) for a in stats)
        centered = t.data - mean
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered
    xhat *= inv_std

    def pullback(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0))
        if t.requires_grad:
            g = g * gamma.data
            t._accumulate(g * inv_std if stats is not None else inv_std * (
                g - g.mean(axis=axis, keepdims=True)
                - xhat * (g * xhat).mean(axis=axis, keepdims=True)))
    out = xhat * gamma.data
    out += beta.data
    return (_record(out, (t, gamma, beta), pullback),
            np.squeeze(mean, axis), np.squeeze(var, axis))


def segment_sum(t: Tensor, segment: np.ndarray, n_segments: int) -> Tensor:
    """Sum rows into n_segments buckets; pullback is a row gather."""
    segment = np.asarray(segment, dtype=np.int64)

    def pullback(g):
        t._accumulate(g[segment])
    return _record(scatter_rows(t.data, segment, n_segments), (t,), pullback)


def segment_mean(t: Tensor, segment: np.ndarray, n_segments: int) -> Tensor:
    """Per-bucket mean of rows; every bucket must be nonempty."""
    segment = np.asarray(segment, dtype=np.int64)
    counts = np.bincount(segment, minlength=n_segments).astype(np.float64)
    if np.any(counts == 0):
        raise ValueError("segment_mean: empty segment")
    return segment_sum(t, segment, n_segments) * (1.0 / counts[:, None])
