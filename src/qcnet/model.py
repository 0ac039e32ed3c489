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
simplex: [q, q] / sqrt(2H) on the receiver tier, then gathered to s; the
face half of k and v on the receiver tier, gathered to t; the coface half
on the coface tier, gathered to c.  Each half of a key or value path is
one ``autodiff.project`` node; the gathers, the sum and the SiLU are one
``autodiff.pair_silu`` node per block of pairs.  Only W_m runs once per
pair.

Five vertex layers run first, then two blocks of (edge layer, vertex
layer) so triangle information reaches edges before edges refresh the
vertices.  The graph embedding is the concat of vertex-mean and edge-mean
(2H), followed by a two-hidden-layer MLP head to a scalar.

BatchNorm normalizes over the message population of one layer application.
The model carries no mode; the entry point picks the statistics.  The
training step, ``loss_and_gradients``, uses batch statistics and updates
the running statistics; ``predict`` (hence ``forward``) and ``batch_loss``
use the running statistics, so they never change a model and their
predictions are independent of batching.  Every norm, gamma and beta
included, is one ``autodiff.normalize`` node: BatchNorm over the rows
(axis 0), with the running statistics passed in as constants outside the
training step, and LayerNorm over each row's features (axis 1).  Every
biased map is one ``autodiff.affine`` node.  ``_attention_stage`` is the
one implementation of the formula above.  Everything runs in float64 on
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
stays differentiable.  The training step is one block: its batch
statistics need every pair.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, affine, concat, constant, gather_rows, \
    pair_silu, parameter, project, segment_mean, segment_sum
from .complexes import MessagingPairs, QuotientComplex, edge_pairs, \
    vertex_pairs
from .features import EDGE_DIM, TRIANGLE_DIM, VERTEX_DIM, FeatureSet
from .structures import replace_files

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
        # Buffer updates are side effects outside the tape; biased
        # variance feeds both normalization and the running estimate.
        self.run_mean = ((1.0 - BN_MOMENTUM) * self.run_mean
                         + BN_MOMENTUM * mean)
        self.run_var = ((1.0 - BN_MOMENTUM) * self.run_var
                        + BN_MOMENTUM * var)
        return out


@dataclass
class LayerNorm:
    """Affine per-row normalization."""

    gamma: Tensor
    beta: Tensor

    @classmethod
    def init(cls, dim: int) -> "LayerNorm":
        return cls(parameter(np.ones(dim)), parameter(np.zeros(dim)))

    def apply(self, x: Tensor) -> Tensor:
        return ad.normalize(x, self.gamma, self.beta, 1, LN_EPS)[0]


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
        for _, t in self.parameters():
            t.zero_grad()

    def state(self) -> list[np.ndarray]:
        """Parameter data then buffers, in the declared (checkpoint) order."""
        return ([t.data for _, t in self.parameters()]
                + [buf for _, buf in self.buffers()])

    def load_state(self, arrays: list[np.ndarray]) -> None:
        """Copy arrays in ``state()`` order into this model.  Parameters are
        written in place, so optimizers holding them stay valid."""
        it = iter(arrays)
        for _, t in self.parameters():
            t.data[...] = next(it)
        for _, bn in self.batch_norms():
            bn.run_mean = np.array(next(it))
            bn.run_var = np.array(next(it))

    def copy_state_from(self, other: "SimplexTransformer") -> None:
        self.load_state(other.state())

    def clone(self) -> "SimplexTransformer":
        fresh = SimplexTransformer.init(self.config, seed=0)
        fresh.copy_state_from(self)
        return fresh


# -- attention core ---------------------------------------------------------

# Pairs per block of a forward on running statistics.  At hidden 64 a
# (block, 2H) float64 array is 256 KiB, so the few a block keeps alive fit
# a 2 MiB L2 cache.  Forwards of the 48 predict_cells cells of seeds 0 and
# 5 (blocks 0-2, one cell per call, 2-vCPU Xeon, 8 interleaved passes)
# took a median 1.75 s and 1.70 s at 128 pairs, 1.64 s and 1.53 s at 256,
# 1.71 s and 1.65 s at 512, and 1.71 s and 1.65 s at 1024.
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


def _attention_stage(h: Tensor, h_cof: Tensor, pairs: MessagingPairs,
                     layer: AttentionLayer, train: bool) -> Tensor:
    """Each receiver's summed messages: (n, H) rows, n the rows of ``h``.

    q and the face and coface halves of k and v are projected once per
    simplex.  The per-pair work, from the gathers to the message's
    activation, runs one block of ``_EVAL_BLOCK_PAIRS`` pairs at a time,
    and each block sums into its own range of receiver rows.  The training
    step takes all pairs as one block: its batch statistics need them all.
    """
    hidden = h.shape[1]
    top, bottom = slice(0, hidden), slice(hidden, 2 * hidden)
    qq = h @ concat([layer.q, layer.q]) * (1.0 / np.sqrt(2.0 * hidden))
    key_face = project(h, layer.k_face, layer.key_w, top)
    key_cof = project(h_cof, layer.k_cof, layer.key_w, bottom)
    val_face = project(h, layer.v_face, layer.val_w, top)
    val_cof = project(h_cof, layer.v_cof, layer.val_w, bottom)
    blocks = ([(0, pairs.n_pairs, 0, h.shape[0])] if train else
              _pair_blocks(pairs.sigma, h.shape[0], _EVAL_BLOCK_PAIRS))
    sums = []
    for lo, hi, first, stop in blocks:
        sigma = pairs.sigma[lo:hi]
        tau, coface = pairs.tau[lo:hi], pairs.coface[lo:hi]
        k = pair_silu(key_face, tau, key_cof, coface, layer.key_b)
        gate = layer.attn_bn.apply(gather_rows(qq, sigma) * k,
                                   train).sigmoid()
        m = gate * pair_silu(val_face, tau, val_cof, coface, layer.val_b)
        msg = layer.msg_ln.apply(affine(m, layer.msg_w, layer.msg_b)).silu()
        sums.append(segment_sum(msg, sigma - first, stop - first))
    return sums[0] if len(sums) == 1 else concat(sums, axis=0)


def _attention_update(h: Tensor, h_cof: Tensor, pairs: MessagingPairs,
                      layer: AttentionLayer, train: bool) -> Tensor:
    if pairs.n_pairs == 0:
        agg: Tensor = constant(np.zeros(h.shape))
    else:
        agg = _attention_stage(h, h_cof, pairs, layer, train)
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
    for i, layer in enumerate(model.node_layers):
        h0 = _attention_update(h0, h1, batch.vp, layer, train)
        _check_finite(h0, f"node.{i}")
    for i, block in enumerate(model.edge_node_blocks):
        h1 = _attention_update(h1, h2, batch.ep, block.edge, train)
        h0 = _attention_update(h0, h1, batch.vp, block.node, train)
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
    grads = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
             for _, t in model.parameters()]
    return float(out.item()), grads


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
    """Binary header + float64 tensors in declared order + JSON sidecar.

    Both files are replaced atomically: an interrupted save leaves the
    previous checkpoint and sidecar intact.
    """
    path = os.fspath(path)
    arrays = model.state()
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
        model.config.hidden_dim, model.config.head_hidden,
        N_NODE_LAYERS, N_EDGE_NODE_LAYERS, len(arrays))
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
        (path, [header] + [np.ascontiguousarray(arr, dtype="<f8").tobytes("C")
                           for arr in arrays]),
        (path + ".json",
         [(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")
          .encode("utf-8")]),
    ])


def read_sidecar(path: str | os.PathLike) -> dict:
    with open(os.fspath(path) + ".json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_checkpoint(path: str | os.PathLike,
                    config: ModelConfig | None = None) -> SimplexTransformer:
    """Rebuild a model from a checkpoint file.

    With ``config`` given, any architecture disagreement raises
    CheckpointMismatchError naming the offending field.  The header is
    checked against the file size before anything is allocated.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise CheckpointMismatchError("file too short for a checkpoint header")
    magic, version, hidden, head_hidden, n_node, n_edge_node, n_arrays = \
        _HEADER.unpack_from(blob)
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
    if len(blob) < expected_size:
        raise CheckpointMismatchError(
            f"file truncated: {len(blob)} bytes, header implies "
            f"{expected_size}")
    if len(blob) > expected_size:
        raise CheckpointMismatchError(
            f"trailing bytes: {len(blob) - expected_size} unread")
    model = SimplexTransformer.init(
        ModelConfig(hidden_dim=hidden, head_hidden=head_hidden), seed=0)
    arrays = []
    offset = _HEADER.size
    for arr in model.state():
        arrays.append(np.frombuffer(blob, dtype="<f8", count=arr.size,
                                    offset=offset).reshape(arr.shape))
        offset += arr.nbytes
    model.load_state(arrays)
    return model
