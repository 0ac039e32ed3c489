"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and records the op that produced it; ``backward()``
walks the tape in reverse topological order, accumulates gradients into
every tensor with ``requires_grad`` and releases each node once its pullback
has run.  The op set is what the simplex-attention model needs: elementwise
arithmetic, matmul, ``affine``, concat, the segment mean (the graph
pooling), full reductions for the loss, SiLU, ``normalize``, and the
attention's three fused ops: ``project`` (a key or value map, once per
source row: the face rows, then the coface rows), ``gated_message`` (per
pair, the key, the batch-norm gate on the scaled query and the value) and
``message_sum`` (per pair, the message map, its layer norm and SiLU,
summed per receiver).  Every sum of rows by index, forward or pullback,
is ``scatter_rows``: one ``np.bincount`` that adds each row's
contributions in index order, so no index needs to be sorted.  All
accumulation happens in a fixed order determined by tape construction, so
given identical inputs the gradients are bit-for-bit reproducible.

Gradients are never broadcast.  A constant or scalar operand may broadcast
against a tensor that requires a gradient, but a tensor that requires one
must have the shape of the op's result: a gradient whose shape differs
from its tensor's raises ValueError in ``backward()``.  The first gradient
a tensor receives is copied in; later ones are added in place.  The ops
whose parameters are one row applied to every row carry their own row
sums: ``affine`` is ``x @ w + b`` as one node, ``project`` adds its bias
to the face rows, and ``normalize`` is the one formula behind batch and
layer normalization, ``(x - mean) / sqrt(var + eps) * gamma + beta`` as
one node, with the mean and variance taken along the normalized axis (its
pullback carries the gradient through them) or given as constants.
``gated_message`` and ``message_sum`` carry the same formula inside.

An op output joins the tape only when a gradient can reach it: some operand
requires one and recording is on.  Anything else keeps neither its parents
nor its pullback, whose closure would hold the operands and through them every
intermediate array.  Inside ``no_grad()`` nothing records, so a forward-only
pass frees each intermediate as soon as the next op has consumed it.  The
fused per-pair ops have one kernel each, which asks for every array it
writes by name: unrecorded, it gets the reused buffers of a ``Workspace``;
recorded, a new array per request, so nothing its pullback keeps can be
overwritten.  Both give the same bytes.
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

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable grad-enabled leaf.

        The tape is released as the walk goes: once a node's pullback has
        run, the node drops its gradient, pullback and parents, so each
        intermediate array is freed as soon as nothing upstream needs it.
        """
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
        while topo:
            node = topo.pop()
            if node._pullback is None:  # a leaf keeps its gradient
                continue
            if node.grad is not None:
                node._pullback(node.grad)
            node.grad, node._pullback, node._parents = None, None, ()

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

    def silu(self):
        """``z / (1 + exp(-z))``, the formula of the fused kernels."""
        with np.errstate(over="ignore"):
            den = _exp_neg_plus_one(self.data, np.empty_like(self.data))

        def pullback(g):
            self._accumulate(_silu_grad(g, self.data, 1.0 / den))
        return _record(self.data / den, (self,), pullback)

    # -- reductions ---------------------------------------------------------

    def sum(self):
        def pullback(g):
            self._accumulate(np.broadcast_to(g, self.data.shape))
        return _record(self.data.sum(), (self,), pullback)

    def mean(self):
        return self.sum() * (1.0 / self.data.size)


def _records(parents: tuple) -> bool:
    """Whether a gradient can reach an op's output: some operand requires
    one and recording is on."""
    return _RECORDING.get() and any(p.requires_grad for p in parents)


def _record(value, parents: tuple, pullback) -> Tensor:
    """An op's output, on the tape only if a gradient can reach it.

    A recorded output requires a gradient, so a single-operand pullback can
    accumulate into its operand unconditionally.
    """
    if _records(parents):
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


def project(x: Tensor, x_cof: Tensor, w_face: Tensor, w_cof: Tensor,
            w: Tensor, bias: Tensor) -> Tensor:
    """One attention key or value map, once per source row, as one tape
    node (see ``gated_message``): with ``H`` the rows of ``w_face``, rows
    ``[0, n)`` of the result are ``x @ w_face @ w[:H] + bias`` for the ``n``
    rows of ``x``, and the rows after them ``x_cof @ w_cof @ w[H:]``.

    ``w``'s gradient is the two halves' stacked; ``bias``, one row, is
    added to every face row, so once per source row instead of once per
    pair.
    """
    hidden, n = w_face.shape[1], x.shape[0]
    u, u_cof = x.data @ w_face.data, x_cof.data @ w_cof.data
    w_top, w_bottom = w.data[:hidden], w.data[hidden:]
    out = np.empty((n + x_cof.shape[0], w.shape[1]))
    np.matmul(u, w_top, out=out[:n])
    out[:n] += bias.data
    np.matmul(u_cof, w_bottom, out=out[n:])

    def pullback(g):
        g_face, g_cof = g[:n], g[n:]
        if bias.requires_grad:
            bias._accumulate(g_face.sum(axis=0))
        if w.requires_grad:
            w._accumulate(np.concatenate([u.T @ g_face, u_cof.T @ g_cof]))
        for src, w_in, w_rows, g_half in ((x, w_face, w_top, g_face),
                                          (x_cof, w_cof, w_bottom, g_cof)):
            if src.requires_grad or w_in.requires_grad:
                du = g_half @ w_rows.T
                if w_in.requires_grad:
                    w_in._accumulate(src.data.T @ du)
                if src.requires_grad:
                    src._accumulate(du @ w_in.data.T)
    return _record(out, (x, x_cof, w_face, w_cof, w, bias), pullback)


def _silu_grad(g: np.ndarray, z: np.ndarray, sig: np.ndarray) -> np.ndarray:
    return g * sig * (1.0 + z * (1.0 - sig))


def _exp_neg_plus_one(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``1 + exp(-z)`` into ``out``, the denominator of ``sigmoid(z)`` and
    of SiLU, ``z / (1 + exp(-z))``; where ``exp`` overflows it is inf, so
    the quotient is the limit, a zero."""
    np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    return out


def _gather_sum_(rows: np.ndarray, tau: np.ndarray, coface: np.ndarray,
                 out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """``rows[tau] + rows[coface]`` into ``out``; ``spare`` holds the coface
    rows.  The indices are in range, so ``mode="clip"`` only skips the
    check and the buffering of ``np.take``."""
    np.take(rows, tau, axis=0, out=out, mode="clip")
    out += np.take(rows, coface, axis=0, out=spare, mode="clip")
    return out


class Workspace:
    """Scratch arrays that unrecorded kernels reuse from call to call,
    one per name, grown as needed.  A fresh page of memory costs a fault
    on first touch, so a reused buffer is much cheaper to write than a
    new one.  An array handed out is valid until its name is asked for
    again."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        size = shape[0] * shape[1]
        buf = self._arrays.get(name)
        if buf is None or buf.size < size:
            buf = self._arrays[name] = np.empty(size)
        return buf[:size].reshape(shape)


def _fresh(name: str, shape: tuple[int, int]) -> np.ndarray:
    """A new array per request: a recorded op's buffers, kept by its
    pullback, are its own."""
    return np.empty(shape)


def gated_message(q: Tensor, key: Tensor, val: Tensor, sigma: np.ndarray,
                  tau: np.ndarray, coface: np.ndarray, gamma: Tensor,
                  beta: Tensor, eps: float,
                  stats: tuple[np.ndarray, np.ndarray] | None = None,
                  work: Workspace | None = None
                  ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """One gated message per pair (sigma, tau, coface) as one tape node:

        k     = SiLU(key[tau] + key[coface])
        alpha = [q, q][sigma] * k / sqrt(2H)
        m     = sigmoid(BN(alpha)) * SiLU(val[tau] + val[coface])

    ``q`` is H wide and ``key`` and ``val`` 2H wide; ``tau`` and ``coface``
    index the rows of both (``project``'s face rows, then its coface
    rows).  BN is ``normalize`` over the pairs (axis 0) with ``gamma`` and
    ``beta``: on the batch statistics of these pairs, whose gradient the
    pullback carries, or on a given constant ``(mean, var)``.  Returns the
    messages and the mean and variance used.

    One kernel computes the messages, recorded or not, into pair-sized
    arrays asked for by name: ``a``, ``b`` and ``c`` (which holds the
    result).  The doubling, the 1 / sqrt(2H) and the norm's scale are taken
    on the receiver rows of ``q``, the norm's shift is one subtraction;
    SiLU is ``z / (1 + exp(-z))``, and the gate divides the value by ``1 +
    exp(-y)``.  When nothing records, the names are the three reused
    buffers of ``work`` (a new ``Workspace`` if None).  A recorded call
    gets a new array per request; its pullback keeps the pre-activations
    and the three denominators and recomputes k, alpha and the
    standardized alpha from them.
    """
    parents = (q, key, val, gamma, beta)
    work = _fresh if _records(parents) else work or Workspace()
    sigma = np.asarray(sigma, dtype=np.int64)
    scale = 1.0 / np.sqrt(key.shape[1])
    shape = (len(tau), key.shape[1])
    with np.errstate(over="ignore"):
        k_den = work("b", shape)  # the gather's spare, then 1 + exp(-k_pre)
        k_pre = _gather_sum_(key.data, tau, coface, work("a", shape), k_den)
        _exp_neg_plus_one(k_pre, k_den)
        k = np.divide(k_pre, k_den, out=work("c", shape))
        # The doubling and both scales go onto the block's few receiver
        # rows.
        first, last = (sigma.min(), sigma.max()) if sigma.size else (0, -1)
        scaled = np.tile(q.data[first:last + 1] * scale, 2)
        if stats is None:
            alpha = scaled[sigma - first] * k
            mean = alpha.mean(axis=0)
            var = np.square(alpha - mean).mean(axis=0)
        else:
            mean, var = stats
        norm = gamma.data / np.sqrt(var + eps)
        scaled *= -norm
        y_neg = np.take(scaled, sigma - first, axis=0, out=work("a", shape),
                        mode="clip")
        y_neg *= k
        # -BN(alpha) = alpha * -norm - shift; sigmoid(y) = 1 / (1 + exp(-y)).
        y_neg -= beta.data - mean * norm
        gate_den = np.exp(y_neg, out=y_neg)
        gate_den += 1.0
        v_den = work("c", shape)
        v_pre = _gather_sum_(val.data, tau, coface, work("b", shape), v_den)
        _exp_neg_plus_one(v_pre, v_den)
        out = np.divide(v_pre, v_den, out=work("c", shape))
        out /= gate_den

    def scatter(dz, rows):
        total = scatter_rows(dz, tau, rows.shape[0])
        total += scatter_rows(dz, coface, rows.shape[0])
        rows._accumulate(total)

    def pullback(g):
        gate = 1.0 / gate_den
        if val.requires_grad:
            scatter(_silu_grad(g * gate, v_pre, 1.0 / v_den), val)
        # d/dy sigmoid(y) = gate * (1 - gate), into the gate's array.
        gate *= 1.0 - gate
        gate *= g * (v_pre / v_den)
        qq = np.tile(q.data[sigma] * scale, 2)
        k = k_pre / k_den
        inv_std = 1.0 / np.sqrt(var + eps)
        dalpha = _standardize_pullback(gate, (qq * k - mean) * inv_std,
                                       inv_std, gamma, beta, 0, stats is None)
        del gate  # freed before the scatters, the largest temporaries
        if q.requires_grad:  # the two halves of [q, q] added
            dq = (dalpha * k).reshape(len(sigma), 2, q.shape[1]).sum(axis=1)
            q._accumulate(scatter_rows(dq * scale, sigma, q.shape[0]))
        if key.requires_grad:
            scatter(_silu_grad(dalpha * qq, k_pre, 1.0 / k_den), key)
    return _record(out, parents, pullback), mean, var


def message_sum(m: Tensor, w: Tensor, b: Tensor, gamma: Tensor, beta: Tensor,
                eps: float, segment: np.ndarray, n_rows: int,
                work: Workspace | None = None) -> Tensor:
    """``sum over pairs of receiver r of SiLU(LN(m @ w + b))`` into
    ``n_rows`` rows, as one tape node.

    LN is ``normalize`` over each row's features (axis 1) with ``gamma``
    and ``beta``; ``segment`` gives each pair's receiver row, and
    ``scatter_rows`` adds each receiver's pairs in pair order.  One kernel
    normalizes the rows, recorded or not, in arrays asked for by name,
    ``a`` and ``b`` (the message ``m`` may sit in ``gated_message``'s
    ``c``): the row statistics are two mat-vecs, and the SiLU is ``y / (1
    + exp(-y))``.  As in ``gated_message``, the names are the buffers of
    ``work`` when nothing records and new arrays when something does; the
    pullback keeps the standardized rows and the SiLU's denominator.
    """
    segment = np.asarray(segment, dtype=np.int64)
    parents = (m, w, b, gamma, beta)
    work = _fresh if _records(parents) else work or Workspace()
    shape = (m.shape[0], w.shape[1])
    xhat = np.matmul(m.data, w.data, out=work("a", shape))
    xhat += b.data
    mean_of = np.full(shape[1], 1.0 / shape[1])
    xhat -= (xhat @ mean_of)[:, None]
    den = np.square(xhat, out=work("b", shape))  # then 1 + exp(-y)
    inv_std = (1.0 / np.sqrt(den @ mean_of + eps))[:, None]
    xhat *= inv_std
    y = np.multiply(xhat, gamma.data, out=work("a", shape))
    y += beta.data
    with np.errstate(over="ignore"):
        msg = np.divide(y, _exp_neg_plus_one(y, den), out=y)

    def pullback(g):
        y = xhat * gamma.data + beta.data
        dz = _standardize_pullback(_silu_grad(g[segment], y, 1.0 / den),
                                   xhat, inv_std, gamma, beta, 1, True)
        if b.requires_grad:
            b._accumulate(dz.sum(axis=0))
        if w.requires_grad:
            w._accumulate(m.data.T @ dz)
        if m.requires_grad:
            m._accumulate(dz @ w.data.T)
    return _record(scatter_rows(msg, segment, n_rows), parents, pullback)


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
        xhat = t.data - mean
        var = np.square(xhat).mean(axis=axis, keepdims=True)
    else:
        mean, var = (np.expand_dims(a, axis) for a in stats)
        xhat = t.data - mean
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std

    def pullback(g):
        dx = _standardize_pullback(g, xhat, inv_std, gamma, beta, axis,
                                   stats is None)
        if t.requires_grad:
            t._accumulate(dx)
    out = xhat * gamma.data
    out += beta.data
    return (_record(out, (t, gamma, beta), pullback),
            np.squeeze(mean, axis), np.squeeze(var, axis))


def _standardize_pullback(g, xhat, inv_std, gamma: Tensor, beta: Tensor,
                          axis: int, batch_stats: bool) -> np.ndarray:
    """Accumulate the gradients of ``gamma`` and ``beta`` in ``xhat * gamma
    + beta`` and return the one of x."""
    if gamma.requires_grad:
        gamma._accumulate((g * xhat).sum(axis=0))
    if beta.requires_grad:
        beta._accumulate(g.sum(axis=0))
    g = g * gamma.data
    if not batch_stats:
        return g * inv_std
    return inv_std * (g - g.mean(axis=axis, keepdims=True)
                      - xhat * (g * xhat).mean(axis=axis, keepdims=True))


def segment_mean(t: Tensor, segment: np.ndarray, n_segments: int) -> Tensor:
    """Per-bucket mean of rows as one tape node; every bucket must be
    nonempty.  The pullback hands each row its bucket's gradient over the
    bucket's size."""
    segment = np.asarray(segment, dtype=np.int64)
    counts = np.bincount(segment, minlength=n_segments)
    if np.any(counts == 0):
        raise ValueError("segment_mean: empty segment")
    inv = 1.0 / counts[:, None]

    def pullback(g):
        t._accumulate((g * inv)[segment])
    return _record(scatter_rows(t.data, segment, n_segments) * inv, (t,),
                   pullback)
