"""Span tracer that wraps qcnet's layer entry points from outside the package.

The package imports with ``from .x import y``, so a function is wrapped at
every name a caller looks up (``qcnet.training.neighbor_list`` as well as
``qcnet.periodic.neighbor_list``).  Spans (id, parent, name, start, end)
are kept in memory and written out by the caller at exit.  Per-layer
backward time comes from wrapping the ``_pullback`` of every tape node
created inside that attention layer's forward span; tape nodes are counted
by wrapping ``Tensor.__init__``.

``install`` and ``uninstall`` swap the wrappers in and out, so an untraced
pass runs the package's own functions with nothing in between.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    """Spans plus per-pass accumulators: ``samples`` (span durations by
    name), ``counts`` (exact work counts), ``times`` (pullback seconds by
    layer) and ``peaks`` (tracemalloc MB)."""

    def __init__(self, modules: dict):
        self.m = modules
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.peaks: dict[str, float] = defaultdict(float)
        self.memory = False
        self.layer_index = 0
        self.tape_depth = 0
        self.capture: list | None = None
        self.originals: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> tuple[int, int, str, float]:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent, name, time.perf_counter()

    def end(self, token) -> float:
        stop = time.perf_counter()
        sid, parent, name, start = token
        self.stack.pop()
        self.spans.append((sid, parent, name, start, stop))
        return stop - start

    def reset_pass(self) -> None:
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.samples = defaultdict(list)
        self.peaks = defaultdict(float)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, counter=None, memory_key=None):
        """Span around fn; with ``memory`` set, spans that have a
        ``memory_key`` also run under tracemalloc and record their peak."""
        tracer = self

        def wrapper(*args, **kwargs):
            measure = memory_key and tracer.memory
            if measure:
                tracemalloc.start()
            token = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.samples[name].append(tracer.end(token))
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peaks[memory_key] = max(tracer.peaks[memory_key],
                                                   peak)
            if counter is not None:
                counter(args, out)
            return out
        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self.originals.append((owner, attr, owner.__dict__[attr]
                               if isinstance(owner, type)
                               else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self.originals:
            return
        m = self.m

        def plain(name, owners, counter=None, memory_key=None):
            fn = getattr(owners[0][0], owners[0][1])
            wrapper = self._timed(name, fn, counter, memory_key)
            for owner, attr in owners:
                self._patch(owner, attr, wrapper)

        def count_edges(args, g):
            self.counts["periodic.edges"] += g.n_edges

        def count_triangles(args, c):
            self.counts["complexes.triangles"] += c.n_triangles

        def count_bytes(args, fs):
            self.counts["features.bytes"] += (
                fs.h0_raw.nbytes + fs.h1_raw.nbytes + fs.h2_raw.nbytes)

        def count_pairs(args, batch):
            self.counts["model.pairs"] += batch.vp.n_pairs + batch.ep.n_pairs

        def count_checkpoint(args, _):
            path = os.fspath(args[1])
            self.counts["model.checkpoint_writes"] += 1
            self.counts["model.checkpoint_bytes"] += (
                os.path.getsize(path) + os.path.getsize(path + ".json"))

        def count_step(args, _):
            self.counts["training.steps"] += 1

        def count_rank(args, _):
            rows, n_cols = args[0], args[1]
            self.counts["homology.rank_calls"] += 1
            self.counts["homology.matrix_cells"] += len(rows) * n_cols

        def count_nullspace(args, _):
            self.counts["homology.matrix_cells"] += len(args[0]) * args[1]

        plain("structures.parse", [(m["structures"], "parse_poscar")])
        plain("periodic.neighbor_list",
              [(m["periodic"], "neighbor_list"),
               (m["training"], "neighbor_list")],
              count_edges, "periodic.neighbor_list_peak_mb")
        plain("complexes.build_complex",
              [(m["complexes"], "build_complex"),
               (m["training"], "build_complex")], count_triangles)
        plain("complexes.pairs", [(m["model"], "vertex_pairs")])
        plain("complexes.pairs", [(m["model"], "edge_pairs")])
        plain("features.raw_features",
              [(m["features"], "raw_features"),
               (m["training"], "raw_features")], count_bytes)
        plain("features.edge_features", [(m["features"], "edge_features")])
        plain("features.triangle_features",
              [(m["features"], "triangle_features")])
        plain("model.merge_batch", [(m["model"], "merge_batch")],
              count_pairs)
        plain("model.save_checkpoint",
              [(m["model"], "save_checkpoint"),
               (m["training"], "save_checkpoint")], count_checkpoint)
        plain("model.load_checkpoint",
              [(m["model"], "load_checkpoint"),
               (m["training"], "load_checkpoint")])
        plain("training.prepare_items", [(m["training"], "prepare_items")])
        plain("training.adamw_step", [(m["training"].AdamW, "step")],
              count_step)
        plain("homology.gluing", [(m["homology"], "star_gluing")])
        plain("homology.gluing", [(m["homology"], "pairwise_gluing")])
        plain("homology.betti", [(m["homology"], "betti_numbers")])
        plain("homology.induced_rank",
              [(m["homology"], "inclusion_induced_rank")])
        plain("homology.rank", [(m["homology"], "matrix_rank")], count_rank)
        plain("homology.nullspace", [(m["homology"], "nullspace_basis")],
              count_nullspace)
        plain("model.embed", [(m["model"].EmbedLayer, "apply")])
        plain("model.head", [(m["model"].Head, "apply")])
        plain("autodiff.backward", [(m["autodiff"].Tensor, "backward")])
        self._install_tape()

    def _install_tape(self) -> None:
        """Wrappers that share tracer state: the forward and loss scopes
        (layer index, tape depth), attention layers and tape nodes."""
        m = self.m
        tracer = self
        model_mod, tensor_cls = m["model"], m["autodiff"].Tensor

        def tape_scope(name, fn, memory_key=None):
            inner = self._timed(name, fn, memory_key=memory_key)

            def wrapper(*args, **kwargs):
                tracer.tape_depth += 1
                if name == "model.forward":
                    tracer.layer_index = 0
                    tracer.counts["model.forwards"] += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer.tape_depth -= 1
            return wrapper

        self._patch(model_mod, "_predict_tensor",
                    tape_scope("model.forward", model_mod._predict_tensor,
                               "model.forward_peak_mb"))
        self._patch(m["training"], "loss_and_gradients",
                    tape_scope("training.loss_and_gradients",
                               m["training"].loss_and_gradients))

        update = model_mod._attention_update

        def attention_update(h, h_cof, pairs, *rest, **kwargs):
            k = tracer.layer_index
            tracer.layer_index += 1
            prefix = f"model.attn.L{k}"
            tracer.counts[prefix + ".pairs"] += pairs.n_pairs
            outer, tracer.capture = tracer.capture, []
            token = tracer.begin(prefix)
            try:
                out = update(h, h_cof, pairs, *rest, **kwargs)
            finally:
                tracer.samples[prefix].append(tracer.end(token))
                nodes, tracer.capture = tracer.capture, outer
            for node in nodes:
                if node._pullback is not None:
                    node._pullback = tracer._timed_pullback(
                        node._pullback, prefix + ".bwd")
            return out
        self._patch(model_mod, "_attention_update", attention_update)

        init = tensor_cls.__init__

        def tensor_init(node, *args, **kwargs):
            init(node, *args, **kwargs)
            if tracer.tape_depth:
                tracer.counts["autodiff.nodes"] += 1
            if tracer.capture is not None:
                tracer.capture.append(node)
        self._patch(tensor_cls, "__init__", tensor_init)

    def _timed_pullback(self, pullback, key):
        tracer = self

        def timed(g):
            start = time.perf_counter()
            pullback(g)
            tracer.times[key] += time.perf_counter() - start
        return timed

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)
        self.originals = []


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part its direct children cover."""
    own = {sid: stop - start for sid, _, _, start, stop in spans}
    for sid, parent, _, start, stop in spans:
        if parent in own:
            own[parent] -= stop - start
    return own


def tree_check(spans, root_id: int) -> tuple[float, float, float]:
    """(root wall, sum of self times under root, most negative self time)."""
    children: dict[int, list[int]] = defaultdict(list)
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
        children[span[1]].append(span[0])
    own = self_times(spans)
    total, lowest, todo = 0.0, 0.0, [root_id]
    while todo:
        sid = todo.pop()
        total += own[sid]
        lowest = min(lowest, own[sid])
        todo += children.get(sid, [])
    _, _, _, start, stop = by_id[root_id]
    return stop - start, total, lowest
