"""Attention-based property prediction over quotient complexes.

Features of each simplex tier are embedded to a shared hidden width H, then
refined by attention layers in which a simplex attends over its messaging
pairs: a vertex hears from the sources of its incoming edges (coface: the
edge itself), an edge hears from lower-positioned edges of shared triangles
(coface: the triangle).  One layer computes, per pair (receiver s, sender t,
coface c):

    alpha = [q, q] * SiLU(W_k [k_t, k_c] + b_k) / sqrt(2H)
    m     = Sigmoid(BatchNorm(alpha)) * SiLU(W_v [v_t, v_c] + b_v)
    msg   = SiLU(LayerNorm(W_m m + b_m))            # 2H -> H
    h'_s  = h_s + SiLU(BatchNorm(W_u sum_t msg + b_u))

where q, k, v come from per-tier H x H maps of the hidden states.  The
maps inside both SiLUs are linear, so W_k splits by rows before the
gather, ``W_k [k_t, k_c] = (h W_kface W_k[:H])[t] + (h_cof W_kcof
W_k[H:])[c]``, and W_v the same way.  So every H-wide map runs once per
simplex: q on the receiver tier, gathered to s; the face half of k and v
on the receiver tier, gathered to t; the coface half on the coface tier,
gathered to c.  The key map is one ``autodiff.project`` node whose rows
are the face half, b_k included (so the bias too is added once per
simplex), then the coface half, and the value map is another;
``_layer_blocks`` shifts each coface past the face rows.  Per block of
pairs, two nodes do the rest: ``autodiff.gated_message`` (the gathers and
sums, both SiLUs, [q, q] / sqrt(2H), alpha, its BatchNorm and the gated
value) and ``autodiff.message_sum`` (W_m, its LayerNorm and SiLU, the sum
over receivers).  Only W_m runs once per pair, and a training stage
records five nodes: q, the key and value maps, and those two.  Edge
layers carry most pairs: 88,668 each over the 48 predict benchmark cells
of seed 0, against 6,192 per vertex layer.  With those cells merged into
one batch, on a 2-vCPU Xeon (CPU time, best of 7), a forward-only block
of 256 edge pairs at H = 64 spends ~300 us in ``gated_message`` (the
gathered sums, three ``exp`` and three divides over (pairs, 2H)) and
~210 us in ``message_sum``, ~70 us of it the W_m matmul; the per-simplex
maps take ~20-25% of an edge stage.

Five vertex layers run first, then two blocks of (edge layer, vertex
layer) so triangle information reaches edges before edges refresh the
vertices.  The graph embedding is the concat of vertex-mean and edge-mean
(2H), followed by a two-hidden-layer MLP head to a scalar.

BatchNorm normalizes over the message population of one layer application.
The model carries no mode; the entry point picks the statistics.  The
training step, ``loss_and_gradients``, uses batch statistics and updates
the running statistics; ``predict`` (hence ``forward``) and ``batch_loss``
use the running statistics, so they never change a model and their
predictions are independent of batching.  Every norm is one formula,
gamma and beta included: BatchNorm over the rows (axis 0), with the running
statistics passed in as constants outside the training step, and LayerNorm
over each row's features (axis 1).  The two inside the attention are part of
the fused per-pair nodes; the update's BatchNorm is one
``autodiff.normalize`` node.  Every other biased map is one
``autodiff.affine`` node.  ``_attention_stage`` is the one implementation
of the formula above.  Everything runs in float64 on
the autodiff tape; a layer whose update path is zero-initialized is an
exact identity.  Only ``loss_and_gradients`` records the tape:
``predict`` and ``batch_loss`` run the same ops under ``autodiff.no_grad()``
and keep no intermediates.

Messaging pairs are sorted by receiver.  A forward on running statistics
streams each layer's pairs through blocks of at most ``_EVAL_BLOCK_PAIRS``
pairs, cut only where the receiver changes, in the tiling manner of
FlashAttention (Dao et al., NeurIPS 2022): every per-pair array is one
block's rows, so it stays in cache, and the peak memory of ``predict``
does not grow with the number of structures.  Each block sums into its
own range of receiver rows and the ranges are concatenated, so each
receiver's messages add in the same order as in one block and the pass
stays differentiable.  The training step is one block, cut by the same
``_pair_blocks`` with all the tier's pairs as its limit: its batch
statistics need every pair.  So the one block cutter refuses pairs out of
receiver order on both paths; the sums themselves, ``scatter_rows``, need
no order.  A forward cuts the blocks once per tier
(``_layer_blocks``) and every layer on that tier reuses them.  When
nothing records, each block's two nodes run their kernels on three
pair-sized buffers that one ``autodiff.Workspace`` per layer hands from
block to block, so no per-pair array is allocated anew; a recorded pass
runs the same kernels on arrays of its own, and gives the same bytes.

The model's state is one float64 array, ``state()``, in checkpoint order:
every parameter in ``parameters()`` order, then every BatchNorm's running
mean and variance in ``buffers()`` order (654,337 parameter floats and
3,456 running statistics at H = 64).  Each parameter's ``data`` and each
``run_mean`` and ``run_var`` is a view of it, bound once when the model is
built.  Nothing rebinds a parameter or a buffer afterwards:
``BatchNorm.update`` and ``load_state`` write in place, so writing the
array writes the model.  ``zero_grad`` gives the model a fresh zero array
``grad`` laid out as the parameter part of the state, and each parameter's
``grad`` is a view of it, into which the tape adds.  So AdamW, the best
epoch's snapshot and a checkpoint (its header, then the state's bytes) each
work on one array.  The array is little-endian, the checkpoint's byte
order, so a save writes it as it is and a load reads the file into it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, affine, concat, constant, gated_message, \
    message_sum, parameter, project, segment_mean
from .complexes import MessagingPairs, QuotientComplex, edge_pairs, \
    vertex_pairs
from .features import EDGE_DIM, TRIANGLE_DIM, VERTEX_DIM, FeatureSet
from .structures import decode_json, replace_files

N_NODE_LAYERS = 5
N_EDGE_NODE_LAYERS = 2
BN_EPS = 1e-5
LN_EPS = 1e-5
BN_MOMENTUM = 0.1

CHECKPOINT_MAGIC = b"QCNETCKP"
CHECKPOINT_VERSION = 1


class CheckpointMismatchError(RuntimeError):
    """Checkpoint header disagrees with the expected architecture."""


class EmptyComplexError(ValueError):
    """Forward pass needs at least one vertex."""


class NonFiniteActivationError(ArithmeticError):
    """A layer produced NaN or infinite activations; names the layer."""


@dataclass
class ModelConfig:
    hidden_dim: int = 64
    head_hidden: int = 64

    def __post_init__(self):
        if self.hidden_dim < 1 or self.head_hidden < 1:
            raise ValueError("hidden sizes must be >= 1")


@dataclass
class BatchNorm:
    """Affine batch normalization with running statistics (the buffers)."""

    gamma: Tensor
    beta: Tensor
    run_mean: np.ndarray
    run_var: np.ndarray

    @classmethod
    def init(cls, dim: int) -> "BatchNorm":
        return cls(parameter(np.ones(dim)), parameter(np.zeros(dim)),
                   np.zeros(dim), np.ones(dim))

    def apply(self, x: Tensor, train: bool) -> Tensor:
        """Batch statistics (and a running-stat update) when ``train``,
        else the running statistics."""
        if not train:
            return ad.normalize(x, self.gamma, self.beta, 0, BN_EPS,
                                (self.run_mean, self.run_var))[0]
        out, mean, var = ad.normalize(x, self.gamma, self.beta, 0, BN_EPS)
        self.update(mean, var)
        return out

    def update(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Move the running statistics toward one batch's, in place (in a
        model they are views of its state).  Buffer updates are side
        effects outside the tape; biased variance feeds both normalization
        and the running estimate."""
        for buf, batch in ((self.run_mean, mean), (self.run_var, var)):
            buf *= 1.0 - BN_MOMENTUM
            buf += BN_MOMENTUM * batch


@dataclass
class LayerNorm:
    """Affine per-row normalization."""

    gamma: Tensor
    beta: Tensor

    @classmethod
    def init(cls, dim: int) -> "LayerNorm":
        return cls(parameter(np.ones(dim)), parameter(np.zeros(dim)))


@dataclass
class AttentionLayer:
    """Parameters of one attention layer at hidden width H."""

    q: Tensor
    k_face: Tensor
    k_cof: Tensor
    v_face: Tensor
    v_cof: Tensor
    key_w: Tensor
    key_b: Tensor
    val_w: Tensor
    val_b: Tensor
    attn_bn: BatchNorm
    msg_w: Tensor
    msg_b: Tensor
    msg_ln: LayerNorm
    upd_w: Tensor
    upd_b: Tensor
    upd_bn: BatchNorm

    @classmethod
    def init(cls, hidden: int, rng: np.random.Generator) -> "AttentionLayer":
        h2 = 2 * hidden
        return cls(
            q=_uniform(rng, (hidden, hidden)),
            k_face=_uniform(rng, (hidden, hidden)),
            k_cof=_uniform(rng, (hidden, hidden)),
            v_face=_uniform(rng, (hidden, hidden)),
            v_cof=_uniform(rng, (hidden, hidden)),
            key_w=_uniform(rng, (h2, h2)), key_b=parameter(np.zeros(h2)),
            val_w=_uniform(rng, (h2, h2)), val_b=parameter(np.zeros(h2)),
            attn_bn=BatchNorm.init(h2),
            msg_w=_uniform(rng, (h2, hidden)),
            msg_b=parameter(np.zeros(hidden)),
            msg_ln=LayerNorm.init(hidden),
            upd_w=_uniform(rng, (hidden, hidden)),
            upd_b=parameter(np.zeros(hidden)),
            upd_bn=BatchNorm.init(hidden),
        )


@dataclass
class EdgeNodeBlock:
    """Edge layer (cofaces: triangles) then vertex layer on refreshed edges."""

    edge: AttentionLayer
    node: AttentionLayer


@dataclass
class EmbedLayer:
    w: Tensor
    b: Tensor

    @classmethod
    def init(cls, din: int, hidden: int,
             rng: np.random.Generator) -> "EmbedLayer":
        return cls(_uniform(rng, (din, hidden)), parameter(np.zeros(hidden)))

    def apply(self, x: Tensor) -> Tensor:
        return affine(x, self.w, self.b).silu()


@dataclass
class Head:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor

    @classmethod
    def init(cls, hidden: int, head_hidden: int,
             rng: np.random.Generator) -> "Head":
        return cls(_uniform(rng, (2 * hidden, head_hidden)),
                   parameter(np.zeros(head_hidden)),
                   _uniform(rng, (head_hidden, head_hidden)),
                   parameter(np.zeros(head_hidden)),
                   _uniform(rng, (head_hidden, 1)),
                   parameter(np.zeros(1)))

    def apply(self, x: Tensor) -> Tensor:
        z = affine(x, self.w1, self.b1).silu()
        z = affine(z, self.w2, self.b2).silu()
        return affine(z, self.w3, self.b3)


def _uniform(rng: np.random.Generator, shape: tuple[int, int]) -> Tensor:
    lim = 1.0 / np.sqrt(shape[0])
    return parameter(rng.uniform(-lim, lim, shape))


class SimplexTransformer:
    """Fixed architecture: 3 embeddings, 5 vertex layers, 2 edge-node blocks."""

    def __init__(self, config: ModelConfig, embeds: list[EmbedLayer],
                 node_layers: list[AttentionLayer],
                 edge_node_blocks: list[EdgeNodeBlock], head: Head):
        if len(node_layers) != N_NODE_LAYERS or \
                len(edge_node_blocks) != N_EDGE_NODE_LAYERS:
            raise ValueError("layer counts are fixed at "
                             f"{N_NODE_LAYERS}+{N_EDGE_NODE_LAYERS}")
        self.config = config
        self.embeds = embeds
        self.node_layers = node_layers
        self.edge_node_blocks = edge_node_blocks
        self.head = head
        # From here on every parameter's data and every running statistic
        # is a view of one array in checkpoint order and byte order (so a
        # checkpoint's bytes are the state's); nothing rebinds them.
        arrays = ([t.data for _, t in self.parameters()]
                  + [b for _, b in self.buffers()])
        self._state = np.concatenate([a.ravel() for a in arrays], dtype="<f8")
        views = iter(_views(self._state, arrays))
        for _, t in self.parameters():
            t.data = next(views)
        for _, bn in self.batch_norms():
            bn.run_mean, bn.run_var = next(views), next(views)

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "SimplexTransformer":
        """Seeded init; weights are drawn in declared parameter order."""
        rng = np.random.default_rng(seed)
        h = config.hidden_dim
        embeds = [EmbedLayer.init(d, h, rng)
                  for d in (VERTEX_DIM, EDGE_DIM, TRIANGLE_DIM)]
        node_layers = [AttentionLayer.init(h, rng)
                       for _ in range(N_NODE_LAYERS)]
        blocks = [EdgeNodeBlock(AttentionLayer.init(h, rng),
                                AttentionLayer.init(h, rng))
                  for _ in range(N_EDGE_NODE_LAYERS)]
        head = Head.init(h, config.head_hidden, rng)
        return cls(config, embeds, node_layers, blocks, head)

    # -- parameter bookkeeping ---------------------------------------------

    def _fields(self):
        """(name, value) of every field in declared order: embeds, then the
        layers, then the head; a norm is yielded whole, not descended."""
        items = [(f"embed.{i}", emb) for i, emb in enumerate(self.embeds)]
        items += [(f"node.{i}", layer)
                  for i, layer in enumerate(self.node_layers)]
        for i, block in enumerate(self.edge_node_blocks):
            items += [(f"edge_node.{i}.edge", block.edge),
                      (f"edge_node.{i}.node", block.node)]
        items.append(("head", self.head))
        for prefix, part in items:
            for f in dataclasses.fields(part):
                yield f"{prefix}.{f.name}", getattr(part, f.name)

    def parameters(self) -> list[tuple[str, Tensor]]:
        """(name, tensor) pairs in the declared (checkpoint) order; a norm
        field contributes ``<field>.gamma`` then ``<field>.beta``."""
        items: list[tuple[str, Tensor]] = []
        for name, value in self._fields():
            if isinstance(value, Tensor):
                items.append((name, value))
            else:
                items += [(f"{name}.gamma", value.gamma),
                          (f"{name}.beta", value.beta)]
        return items

    def batch_norms(self) -> list[tuple[str, BatchNorm]]:
        return [(name, value) for name, value in self._fields()
                if isinstance(value, BatchNorm)]

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for name, bn in self.batch_norms():
            out += [(f"{name}.run_mean", bn.run_mean),
                    (f"{name}.run_var", bn.run_var)]
        return out

    def n_parameters(self) -> int:
        return sum(t.data.size for _, t in self.parameters())

    def zero_grad(self) -> None:
        """Set ``grad`` to a fresh zero array laid out as the parameter part
        of ``state()``; every parameter's ``grad`` is a view of it."""
        tensors = [t for _, t in self.parameters()]
        self.grad = np.zeros(self.n_parameters())
        for t, g in zip(tensors, _views(self.grad, [t.data for t in tensors])):
            t.grad = g

    def state(self) -> np.ndarray:
        """The model's one float64 array: parameter data then buffers, in
        the declared (checkpoint) order.  Every parameter and buffer is a
        view of it, so writing it writes the model."""
        return self._state

    def load_state(self, state: np.ndarray) -> None:
        """Copy an array in ``state()`` layout into this model, in place."""
        self._state[...] = state

    def clone(self) -> "SimplexTransformer":
        fresh = SimplexTransformer.init(self.config, seed=0)
        fresh.load_state(self._state)
        return fresh


def _views(flat: np.ndarray, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Views of ``flat`` shaped like ``arrays``, laid end to end."""
    ends = np.cumsum([a.size for a in arrays])
    return [flat[e - a.size:e].reshape(a.shape) for a, e in zip(arrays, ends)]


# -- attention core ---------------------------------------------------------

# Pairs per block of a forward on running statistics.  At hidden 64 a
# (block, 2H) float64 array is 256 KiB, so the three buffers of the unrecorded
# kernels fit a 2 MiB L2 cache.  Forwards of the 48 predict_cells cells of
# seeds 0 and 5 (blocks 0-2, one cell per call, 2-vCPU Xeon, 8 interleaved
# passes, CPU time) took a median 1.28 s and 1.25 s at 128 pairs, 1.18 s
# and 1.14 s at 256, 1.16 s and 1.15 s at 512, and 1.27 s and 1.24 s at
# 1024.  256 and 512 are level; 256 keeps the buffers half as large.
_EVAL_BLOCK_PAIRS = 256


def _pair_blocks(sigma: np.ndarray, n_rows: int, limit: int):
    """Cut receiver-sorted pairs into blocks of at most ``limit`` pairs.

    A cut falls only where the receiver changes; a receiver with more than
    ``limit`` pairs is a block of its own.  Yields ``(lo, hi, first,
    stop)``: pairs ``[lo, hi)`` sum into receiver rows ``[first, stop)``,
    and these row ranges tile ``[0, n_rows)`` in order.
    """
    if np.any(sigma[1:] < sigma[:-1]):
        raise ValueError("messaging pairs must be sorted by receiver")
    # The pair index where each receiver's run ends, the last one included.
    ends = np.append(np.flatnonzero(sigma[1:] != sigma[:-1]) + 1, sigma.size)
    lo = first = 0
    while lo < sigma.size:
        # The furthest run end within the limit, else the next run end.
        i = max(np.searchsorted(ends, lo + limit, side="right") - 1,
                np.searchsorted(ends, lo, side="right"))
        hi = int(ends[i])
        stop = int(sigma[hi]) if hi < sigma.size else n_rows
        yield lo, hi, first, stop
        lo, first = hi, stop


def _layer_blocks(pairs: MessagingPairs, n_rows: int, train: bool
                  ) -> list[tuple]:
    """A tier's pairs as the blocks every layer on that tier runs:
    ``(sigma, tau, coface, segment, n_block_rows)`` per block, where the
    block's pairs sum into receiver rows ``[first, first + n_block_rows)``
    and ``segment`` is ``sigma - first``.  The cofaces are shifted by
    ``n_rows``, the receiver tier's rows, to index the coface rows of a
    ``project``.  Both paths cut with ``_pair_blocks``, which refuses pairs
    out of receiver order: the training step at ``n_pairs``, one block, a
    forward on running statistics at ``_EVAL_BLOCK_PAIRS``."""
    spans = _pair_blocks(pairs.sigma, n_rows,
                         pairs.n_pairs if train else _EVAL_BLOCK_PAIRS)
    coface = pairs.coface + n_rows
    return [(pairs.sigma[lo:hi], pairs.tau[lo:hi], coface[lo:hi],
             pairs.sigma[lo:hi] - first, stop - first)
            for lo, hi, first, stop in spans]


def _attention_stage(h: Tensor, h_cof: Tensor, pairs: MessagingPairs,
                     layer: AttentionLayer, train: bool,
                     blocks: list[tuple] | None = None) -> Tensor:
    """Each receiver's summed messages: (n, H) rows, n the rows of ``h``.

    q and the key and value maps are projected once per simplex, one tape
    node each.  The per-pair work is two nodes per block of
    ``_layer_blocks`` (computed here unless given): ``gated_message``, then
    ``message_sum`` into the block's own range of receiver rows.
    """
    q = h @ layer.q
    key = project(h, h_cof, layer.k_face, layer.k_cof, layer.key_w,
                  layer.key_b)
    val = project(h, h_cof, layer.v_face, layer.v_cof, layer.val_w,
                  layer.val_b)
    bn, ln = layer.attn_bn, layer.msg_ln
    stats = None if train else (bn.run_mean, bn.run_var)
    if blocks is None:
        blocks = _layer_blocks(pairs, h.shape[0], train)
    work = ad.Workspace()
    sums = []
    for sigma, tau, coface, segment, n_rows in blocks:
        m, mean, var = gated_message(q, key, val, sigma, tau, coface,
                                     bn.gamma, bn.beta, BN_EPS, stats, work)
        sums.append(message_sum(m, layer.msg_w, layer.msg_b, ln.gamma,
                                ln.beta, LN_EPS, segment, n_rows, work))
    if train:
        bn.update(mean, var)
    return sums[0] if len(sums) == 1 else concat(sums, axis=0)


def _attention_update(h: Tensor, h_cof: Tensor, pairs: MessagingPairs,
                      layer: AttentionLayer, train: bool,
                      blocks: list[tuple] | None = None) -> Tensor:
    if pairs.n_pairs == 0:
        agg: Tensor = constant(np.zeros(h.shape))
    else:
        agg = _attention_stage(h, h_cof, pairs, layer, train, blocks)
    upd = layer.upd_bn.apply(affine(agg, layer.upd_w, layer.upd_b),
                             train).silu()
    return h + upd


# -- forward ----------------------------------------------------------------

@dataclass
class MergedBatch:
    """Disjoint union of complexes with per-tier graph-id segments.

    ``features`` are the structures' own arrays, concatenated one tier at a
    time as the tier is embedded, so a forward-only pass holds no merged
    copy of the raw features through its attention layers.
    """

    features: list[FeatureSet]
    vp: MessagingPairs
    ep: MessagingPairs
    v_gid: np.ndarray
    e_gid: np.ndarray
    n_graphs: int


def merge_batch(items: list[tuple[QuotientComplex, FeatureSet]]) -> MergedBatch:
    """Concatenate complexes into one forward pass with shifted indices."""
    if not items:
        raise EmptyComplexError("empty batch")
    vp_parts, ep_parts = [], []
    v_gid, e_gid = [], []
    v_off = e_off = t_off = 0
    for gid, (c, fs) in enumerate(items):
        if c.n_vertices == 0:
            raise EmptyComplexError("complex has no vertices")
        if fs.h0_raw.shape[0] != c.n_vertices or \
                fs.h1_raw.shape[0] != c.n_edges or \
                fs.h2_raw.shape[0] != c.n_triangles:
            raise ValueError("feature rows do not match the complex")
        vp = vertex_pairs(c)
        ep = edge_pairs(c)
        vp_parts.append((vp.sigma + v_off, vp.tau + v_off, vp.coface + e_off))
        ep_parts.append((ep.sigma + e_off, ep.tau + e_off, ep.coface + t_off))
        v_gid.append(np.full(c.n_vertices, gid, dtype=np.int64))
        e_gid.append(np.full(c.n_edges, gid, dtype=np.int64))
        v_off += c.n_vertices
        e_off += c.n_edges
        t_off += c.n_triangles
    def _merge(parts):
        return MessagingPairs(*(np.concatenate([p[i] for p in parts])
                                for i in range(3)))
    return MergedBatch(
        features=[fs for _, fs in items],
        vp=_merge(vp_parts), ep=_merge(ep_parts),
        v_gid=np.concatenate(v_gid), e_gid=np.concatenate(e_gid),
        n_graphs=len(items))


def _check_finite(h: Tensor, layer: str) -> None:
    if not np.all(np.isfinite(h.data)):
        raise NonFiniteActivationError(
            f"layer {layer} produced non-finite activations")


def _predict_tensor(model: SimplexTransformer, batch: MergedBatch,
                    train: bool) -> Tensor:
    """Predictions for a merged batch as a (B, 1) tape tensor; ``train``
    picks batch statistics (updating the running ones) over running ones."""
    def embed(tier: int, rows: list[np.ndarray]) -> Tensor:
        # The merged rows are a temporary: only the embedding holds them.
        return model.embeds[tier].apply(constant(np.concatenate(rows)))

    fs = batch.features
    h0 = embed(0, [f.h0_raw for f in fs])
    h1 = embed(1, [f.h1_raw for f in fs])
    h2 = embed(2, [f.h2_raw for f in fs])
    vb = _layer_blocks(batch.vp, h0.shape[0], train)
    eb = _layer_blocks(batch.ep, h1.shape[0], train)
    for i, layer in enumerate(model.node_layers):
        h0 = _attention_update(h0, h1, batch.vp, layer, train, vb)
        _check_finite(h0, f"node.{i}")
    for i, block in enumerate(model.edge_node_blocks):
        h1 = _attention_update(h1, h2, batch.ep, block.edge, train, eb)
        h0 = _attention_update(h0, h1, batch.vp, block.node, train, vb)
        _check_finite(h1, f"edge_node.{i}.edge")
        _check_finite(h0, f"edge_node.{i}.node")
    pooled = concat([segment_mean(h0, batch.v_gid, batch.n_graphs),
                     segment_mean(h1, batch.e_gid, batch.n_graphs)], axis=1)
    pred = model.head.apply(pooled)
    if not train:  # a training step reports its loss with epoch and batch
        _check_finite(pred, "head")
    return pred


def predict(model: SimplexTransformer,
            items: list[tuple[QuotientComplex, FeatureSet]]) -> np.ndarray:
    """Per-structure predictions (B,) from the running statistics; the
    forward records no tape and leaves the model unchanged.  Overflow
    raises NonFiniteActivationError naming the layer, with no numpy
    warning before it."""
    with ad.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        pred = _predict_tensor(model, merge_batch(items), False)
    return pred.data[:, 0].copy()


def forward(model: SimplexTransformer, c: QuotientComplex,
            fs: FeatureSet) -> float:
    """Scalar prediction for a single structure."""
    return float(predict(model, [(c, fs)])[0])


def batch_loss(model: SimplexTransformer,
               items: list[tuple[QuotientComplex, FeatureSet]],
               targets: np.ndarray, loss: str = "mae") -> float:
    """Forward-only loss over a batch (mae or mse) from the running
    statistics; records no tape and leaves the model unchanged.  Overflow
    raises as in ``predict``."""
    with ad.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        pred = _predict_tensor(model, merge_batch(items), False)
        return float(_loss_tensor(pred, targets, loss).item())


def _loss_tensor(pred: Tensor, targets: np.ndarray, loss: str) -> Tensor:
    t = constant(np.asarray(targets, dtype=np.float64).reshape(-1, 1))
    diff = pred - t
    if loss == "mae":
        return diff.abs().mean()
    if loss == "mse":
        return diff.square().mean()
    raise ValueError(f"unknown loss '{loss}'")


def loss_and_gradients(model: SimplexTransformer,
                       items: list[tuple[QuotientComplex, FeatureSet]],
                       targets: np.ndarray, loss: str = "mae"
                       ) -> tuple[float, list[np.ndarray]]:
    """Batch loss plus per-parameter gradients in declared order: one
    training step's forward, on batch statistics, which also moves the
    running statistics."""
    model.zero_grad()
    pred = _predict_tensor(model, merge_batch(items), True)
    out = _loss_tensor(pred, targets, loss)
    out.backward()
    # Views of ``model.grad``; the next step's zero_grad allocates anew.
    return float(out.item()), [t.grad for _, t in model.parameters()]


# -- checkpoints ------------------------------------------------------------

_HEADER = struct.Struct("<8sIIIIIQ")


def _checkpoint_layout(hidden: int, head_hidden: int) -> tuple[int, int]:
    """(tensor count, file size in bytes) of a checkpoint at these widths.

    Closed form of the declared order of ``parameters()`` then
    ``buffers()``, so a reader can check a header before allocating.
    """
    h, hh = hidden, head_hidden
    n_layers = N_NODE_LAYERS + 2 * N_EDGE_NODE_LAYERS
    embeds = (VERTEX_DIM + EDGE_DIM + TRIANGLE_DIM + 3) * h
    # Five HxH maps, key/val 2Hx2H + 2H, msg 2HxH + H, upd HxH + H, the
    # gamma/beta of a 2H batch norm, an H layer norm and an H batch norm.
    layer = 16 * h * h + 14 * h
    running_stats = 6 * h  # run_mean and run_var of the two batch norms
    head = 2 * h * hh + hh * hh + 3 * hh + 1
    n_floats = embeds + n_layers * (layer + running_stats) + head
    n_arrays = 6 + n_layers * (19 + 4) + 6
    return n_arrays, _HEADER.size + 8 * n_floats


def save_checkpoint(model: SimplexTransformer, path: str | os.PathLike,
                    extra: dict | None = None) -> None:
    """Binary header + ``model.state()`` (little-endian float64) + JSON
    sidecar; the header counts the state's tensors and buffers.

    Both files are replaced atomically: an interrupted save leaves the
    previous checkpoint and sidecar intact.
    """
    path = os.fspath(path)
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
        model.config.hidden_dim, model.config.head_hidden, N_NODE_LAYERS,
        N_EDGE_NODE_LAYERS, len(model.parameters()) + len(model.buffers()))
    sidecar = {
        "format": "qcnet-checkpoint",
        "version": CHECKPOINT_VERSION,
        "hidden_dim": model.config.hidden_dim,
        "head_hidden": model.config.head_hidden,
        "n_node_layers": N_NODE_LAYERS,
        "n_edge_node_layers": N_EDGE_NODE_LAYERS,
        "n_parameters": model.n_parameters(),
    }
    if extra:
        sidecar["extra"] = extra
    replace_files([
        (path, [header, model.state()]),
        (path + ".json",
         [(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")
          .encode("utf-8")]),
    ])


def read_sidecar(path: str | os.PathLike) -> dict:
    sidecar = os.fspath(path) + ".json"
    with open(sidecar, "rb") as fh:
        return decode_json(fh.read(), sidecar)


def load_checkpoint(path: str | os.PathLike,
                    config: ModelConfig | None = None) -> SimplexTransformer:
    """Rebuild a model from a checkpoint file.

    With ``config`` given, any architecture disagreement raises
    CheckpointMismatchError naming the offending field.  The header is
    checked against the file size before anything is allocated; the
    state's bytes are then read straight into the new model's state.
    """
    with open(os.fspath(path), "rb") as fh:
        model = SimplexTransformer.init(_read_header(fh, config), seed=0)
        fh.readinto(model.state())
    return model


def _read_header(fh, config: ModelConfig | None) -> ModelConfig:
    """Check the header of an open checkpoint against ``config`` and the
    file's size; the architecture it declares."""
    head = fh.read(_HEADER.size)
    size = os.fstat(fh.fileno()).st_size
    if len(head) < _HEADER.size:
        raise CheckpointMismatchError("file too short for a checkpoint header")
    magic, version, hidden, head_hidden, n_node, n_edge_node, n_arrays = \
        _HEADER.unpack(head)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointMismatchError("magic: not a qcnet checkpoint")
    if version != CHECKPOINT_VERSION:
        raise CheckpointMismatchError(
            f"version: checkpoint has {version}, reader supports "
            f"{CHECKPOINT_VERSION}")
    if n_node != N_NODE_LAYERS or n_edge_node != N_EDGE_NODE_LAYERS:
        raise CheckpointMismatchError(
            f"layer counts: checkpoint has {n_node}+{n_edge_node}, "
            f"architecture is {N_NODE_LAYERS}+{N_EDGE_NODE_LAYERS}")
    if hidden < 1 or head_hidden < 1:
        raise CheckpointMismatchError(
            f"hidden sizes: checkpoint has {hidden} and {head_hidden}")
    if config is not None:
        if config.hidden_dim != hidden:
            raise CheckpointMismatchError(
                f"hidden_dim: checkpoint has {hidden}, "
                f"expected {config.hidden_dim}")
        if config.head_hidden != head_hidden:
            raise CheckpointMismatchError(
                f"head_hidden: checkpoint has {head_hidden}, "
                f"expected {config.head_hidden}")
    expected_arrays, expected_size = _checkpoint_layout(hidden, head_hidden)
    if n_arrays != expected_arrays:
        raise CheckpointMismatchError(
            f"tensor count: checkpoint has {n_arrays}, "
            f"expected {expected_arrays}")
    if size < expected_size:
        raise CheckpointMismatchError(
            f"file truncated: {size} bytes, header implies {expected_size}")
    if size > expected_size:
        raise CheckpointMismatchError(
            f"trailing bytes: {size - expected_size} unread")
    return ModelConfig(hidden_dim=hidden, head_hidden=head_hidden)
