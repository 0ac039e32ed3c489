"""One benchmark workload, run in its own single-threaded process.

``run.py`` starts this script with the BLAS/OpenMP thread variables already
set, so numpy loads single-threaded.  Modes:

* ``prep``   writes what set-up needs (the predict workload's checkpoint);
* ``setup``  does the workload's set-up, prints ``ready`` and exits;
* ``run``    does the set-up, prints ``ready``, then measures and checks.

Set-up is the package import, the atom table and the model load; the parent
times it from process start to the ``ready`` line.  Inputs are generated
from ``--seed`` after ``ready`` with the benchmark's own generators
(``inputs.py``), and their sha256 is part of the result.  Every output check
runs outside the timed region.  The last stdout line is a JSON result.

A pass is one unit of work: one ``train()`` call on train_synth, one block
of inputs on the other workloads.  Untraced runs stream blocks: block b is
generated from (seed, b), and every block has the same size mix, so each
input is timed once and a run sees many distinct inputs of a fixed mix.
They stop at the pass boundary nearest to ``--seconds`` once enough latency
samples exist for a 90th percentile with ten samples beyond it.  Throughput
is total work over total op time.  Traced runs repeat one fixed pool (the
first blocks), so work counts can be compared across passes: they alternate
an untraced and a traced pass, after one traced pass that also takes
tracemalloc peaks on the largest inputs, and report per-layer figures per
pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src")]

MIN_TAIL_SAMPLES = 100  # p90 is reported with >= 10 samples beyond it
N_ATTN_LAYERS = 9


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load_package() -> dict:
    """Import qcnet; part of the timed set-up."""
    import qcnet  # noqa: F401
    from qcnet import (autodiff, complexes, features, homology, model,
                       periodic, structures, training)
    return {"autodiff": autodiff, "complexes": complexes,
            "features": features, "homology": homology, "model": model,
            "periodic": periodic, "structures": structures,
            "training": training}


class Op:
    """Outcome of one operation: latency samples, work units, verdict."""

    def __init__(self, latencies, work, wall, ok=True, error=None,
                 output=None):
        self.latencies, self.work, self.wall = latencies, work, wall
        self.ok, self.error, self.output = ok, error, output


# -- workloads -------------------------------------------------------------

class TrainSynth:
    """``train()`` on synthetic cells with the overfit acceptance config."""

    name = "train_synth"
    terms = ("train_samples_per_s", "train_epoch_ms")
    memory_ops = (0,)

    def __init__(self, quick: bool):
        self.n_cells = 8 if quick else 32
        self.epochs = 10 if quick else 20
        self.hidden = 64
        self.min_passes = math.ceil(MIN_TAIL_SAMPLES / self.epochs)
        self.min_traced = self.min_passes  # per-step p90 needs 100 steps

    def make_inputs(self, seed):
        return {"cells": inputs.synthetic_cells(self.n_cells, seed),
                "train_seed": seed}

    def setup(self, m, work):
        self.table = m["features"].AtomFeatureTable.random(0)

    def load(self, m, work, seed, traced):
        data = self.make_inputs(seed)
        self.digests = [inputs.digest(data)]
        S = m["structures"]
        self.records = [
            S.DatasetRecord(structure=S.CrystalStructure(
                c["lattice"], c["species"], c["frac"], id=c["id"]),
                target=c["target"]) for c in data["cells"]]
        self.config = m["training"].TrainConfig(
            epochs=self.epochs, batch_size=64, peak_lr=0.005, loss="mae",
            k_neighbors=4, seed=data["train_seed"],
            hidden_dim=self.hidden, head_hidden=self.hidden,
            checkpoint_path=os.path.join(work, "model.ckpt"))
        self.first_history = None
        if len(self.records) > self.config.batch_size:
            raise ValueError("epoch latency is read from step start times, "
                             "which needs one optimizer step per epoch")

    def next_pass(self, k):
        pass  # every pass is the same train() call

    def warm_up(self, m):
        pass

    def ops(self):
        return [self.train_once]

    def train_once(self, m, stamps):
        """One train() call; ``stamps`` receives each step's start time."""
        start = time.perf_counter()
        del stamps[:]
        result = m["training"].train(self.config, self.records, (),
                                     self.table)
        stop = time.perf_counter()
        marks = stamps + [stop]
        epochs = [b - a for a, b in zip(marks, marks[1:])]
        return Op(epochs, len(self.records) * self.epochs, stop - start,
                  output=result)

    def check_op(self, m, op):
        """Finite loss that at least halves; a history byte-identical to the
        first call's (same seed, same data); the checkpoint on disk
        reproduces the returned parameters and buffers."""
        result, op.output = op.output, None
        losses = [row["train_loss"] for row in result.history]
        if not all(math.isfinite(x) for x in losses):
            return "non-finite train loss"
        if not losses[-1] < 0.5 * losses[0]:
            return f"final loss {losses[-1]:.4f} not under half the first"
        history = json.dumps(result.history, sort_keys=True)
        if self.first_history is None:
            self.first_history = history
        elif history != self.first_history:
            return "history differs from the first same-seed call"
        loaded = m["model"].load_checkpoint(
            self.config.checkpoint_path,
            m["model"].ModelConfig(self.hidden, self.hidden))
        def state(model):
            return ([t.data for _, t in model.parameters()]
                    + [b for _, b in model.buffers()])
        if not all((a == b).all()
                   for a, b in zip(state(result.model), state(loaded))):
            return "checkpoint differs from the returned model"
        return None

    def check_run(self, m, ops):
        pass


class _PoolWorkload:
    """One op per input; latency is that op's wall time.

    Subclasses set ``block_size`` and ``traced_blocks`` and define
    ``make_block(seed, b)``, which returns block b as a dict of ``items``
    (the inputs) and their ``sizes``."""

    min_traced = 1  # the memory pass repeats the counts of a traced pass
    memory_count = 4

    def load(self, m, work, seed, traced):
        self.seed, self.digests = seed, []
        self.first = self.make_block(seed, 0)
        if traced:
            blocks = [self.first] + [self.make_block(seed, b)
                                     for b in range(1, self.traced_blocks)]
            self.use({k: [x for blk in blocks for x in blk[k]]
                      for k in ("items", "sizes")})
            self.digests = [inputs.digest(blk) for blk in blocks]
            self.memory_ops = set(largest(self.sizes, self.memory_count))

    def next_pass(self, k):
        """Make block k the pool (untraced runs)."""
        block = self.first if k == 0 else self.make_block(self.seed, k)
        self.use(block)
        self.digests.append(inputs.digest(block))

    def use(self, block):
        self.pool, self.sizes = block["items"], block["sizes"]

    def warm_up(self, m):
        """One untimed op on block 0's smallest input."""
        self.use(self.first)
        self.compute(m, min(range(len(self.pool)),
                            key=lambda i: self.sizes[i]))

    def ops(self):
        return [lambda m, stamps, i=i: self.op(m, i)
                for i in range(len(self.pool))]

    def op(self, m, i):
        start = time.perf_counter()
        out = self.compute(m, i)
        wall = time.perf_counter() - start
        return Op([wall], 1, wall, output=(i, out))

    def check_run(self, m, ops):
        pass


class FeaturizeCells(_PoolWorkload):
    """parse_poscar -> neighbor_list(k=12) -> build_complex -> raw_features."""

    name = "featurize_cells"
    terms = ("featurize_structs_per_s", "featurize_latency_ms")

    def __init__(self, quick: bool):
        self.block_size, self.lo, self.hi = ((8, 2, 12) if quick
                                             else (32, 2, 200))
        self.traced_blocks = 1 if quick else 3
        self.min_passes = math.ceil(MIN_TAIL_SAMPLES / self.block_size)

    def make_block(self, seed, b):
        sizes, poscars = inputs.random_cells(self.block_size, self.lo,
                                             self.hi, [seed, b])
        return {"items": poscars, "sizes": sizes}

    def setup(self, m, work):
        self.table = m["features"].AtomFeatureTable.random(0)

    def load(self, m, work, seed, traced):
        super().load(m, work, seed, traced)
        # a seeded sample of block 0's small cells; block 0 is in every run
        self.oracle = {self.first["items"][i] for i in
                       inputs.sample(self.first["sizes"], 6, 3, seed)}
        self.oracle_done: set[str] = set()

    def compute(self, m, i):
        s = m["structures"].parse_poscar(self.pool[i])
        c = m["complexes"].build_complex(m["periodic"].neighbor_list(s, k=12))
        return s, c, m["features"].raw_features(c, s.species, self.table)

    def check_op(self, m, op):
        (i, (s, c, fs)), op.output = op.output, None
        error = check_features(m, c, fs)
        poscar = self.pool[i]
        if (error is None and poscar in self.oracle
                and poscar not in self.oracle_done):
            self.oracle_done.add(poscar)
            slow = m["periodic"].brute_force_neighbors(s, k=12)
            key = [(e.src, e.dst, e.offset) for e in slow.edges]
            if key != [(e.src, e.dst, e.offset) for e in c.graph.edges]:
                error = "neighbor_list differs from brute_force_neighbors"
        return error


def largest(sizes: list[int], count: int) -> list[int]:
    """Indices of the ``count`` largest inputs (first index on ties).

    tracemalloc slows a call several-fold, so the memory pass measures peaks
    on these only; the peaks grow with input size."""
    return sorted(sorted(range(len(sizes)), key=lambda i: -sizes[i])[:count])


def check_features(m, c, fs):
    """Widths 92/376/216 with one row per simplex, finite values, and every
    triangle's offsets closing under integer equality."""
    F = m["features"]
    shapes = [(c.n_vertices, F.VERTEX_DIM), (c.n_edges, F.EDGE_DIM),
              (c.n_triangles, F.TRIANGLE_DIM)]
    for arr, shape in zip((fs.h0_raw, fs.h1_raw, fs.h2_raw), shapes):
        if arr.shape != shape:
            return f"feature shape {arr.shape} != {shape}"
        if not bool((abs(arr) < math.inf).all()):
            return "non-finite feature value"
    edges = c.graph.edges
    for t in c.triangles:
        e1, e2, e3 = edges[t.e1], edges[t.e2], edges[t.e3]
        closed = tuple(a + b for a, b in zip(e1.offset, e2.offset))
        if (e1.dst != e2.src or e3.src != e1.src or e3.dst != e2.dst
                or e3.offset != closed):
            return f"triangle {t} does not close"
    return None


class PredictCells(_PoolWorkload):
    """The ``qcnet predict`` path on an eval-mode loaded checkpoint."""

    name = "predict_cells"
    terms = ("predict_requests_per_s", "predict_latency_ms")

    def __init__(self, quick: bool):
        self.block_size, self.lo, self.hi = ((8, 2, 6) if quick
                                             else (16, 2, 32))
        self.traced_blocks = 1 if quick else 3
        self.hidden = 16 if quick else 64
        self.min_passes = math.ceil(MIN_TAIL_SAMPLES / self.block_size)

    def make_block(self, seed, b):
        sizes, poscars = inputs.random_cells(self.block_size, self.lo,
                                             self.hi, [seed, b])
        return {"items": poscars, "sizes": sizes}

    def prep(self, m, work):
        model = m["model"].SimplexTransformer.init(
            m["model"].ModelConfig(self.hidden, self.hidden), seed=11)
        m["model"].save_checkpoint(model, os.path.join(work, "predict.ckpt"))

    def setup(self, m, work):
        self.table = m["features"].AtomFeatureTable.random(0)
        self.model = m["model"].load_checkpoint(
            os.path.join(work, "predict.ckpt"))

    def load(self, m, work, seed, traced):
        super().load(m, work, seed, traced)
        self.batch_sample = [self.first["items"][i] for i in
                             inputs.sample(self.first["sizes"], 8, 3, seed)]

    def featurize(self, m, poscar):
        s = m["structures"].parse_poscar(poscar)
        c = m["complexes"].build_complex(m["periodic"].neighbor_list(s, k=12))
        return c, m["features"].raw_features(c, s.species, self.table)

    def compute(self, m, i):
        c, fs = self.featurize(m, self.pool[i])
        return m["model"].forward(self.model, c, fs)

    def check_op(self, m, op):
        i, value = op.output
        op.output = self.pool[i]
        return None if math.isfinite(value) else "non-finite prediction"

    def check_run(self, m, ops):
        """A single forward equals its row of a batched predict."""
        items = [self.featurize(m, p) for p in self.batch_sample]
        batched = m["model"].predict(self.model, items)
        for row, item, poscar in zip(batched, items, self.batch_sample):
            single = m["model"].forward(self.model, *item)
            if not math.isclose(single, row, rel_tol=1e-9, abs_tol=1e-12):
                for op in ops:
                    if op.output == poscar:
                        op.ok, op.error = False, (
                            f"forward {single!r} != batched row {row!r}")


class HomologyFlag(_PoolWorkload):
    """``qcnet homology --construction pairwise``: pairwise then star."""

    name = "homology_flag"
    terms = ("homology_checks_per_s", "homology_latency_ms")
    memory_count = 0
    min_traced = 2  # counts are compared across traced passes

    def __init__(self, quick: bool):
        self.block_size, self.n_vertices = (8, 7) if quick else (16, 10)
        self.traced_blocks = 1 if quick else 4
        self.min_passes = math.ceil(MIN_TAIL_SAMPLES / self.block_size)

    def make_block(self, seed, b):
        items = inputs.flag_instances(self.block_size, self.n_vertices, 0.5,
                                      [seed, b])
        return {"items": items, "sizes": [len(x[0]) for x in items]}

    def setup(self, m, work):
        pass

    def compute(self, m, i):
        H = m["homology"]
        simplices, classes = self.pool[i]
        K = H.SimplicialComplex(simplices)
        pairwise = H.verify_quotient_homology(K, classes, "pairwise")
        star = H.verify_quotient_homology(K, classes, "star")
        return pairwise, star

    def check_op(self, m, op):
        (_, (_, star)), op.output = op.output, None
        return None if star.all_verified else "star report not all_verified"


WORKLOADS = {w.name: w for w in (TrainSynth, PredictCells, FeaturizeCells,
                                 HomologyFlag)}


# -- measurement -----------------------------------------------------------

def run_pass(w, m, stamps, tracer=None, memory_ops=()):
    """One pass; each op's check runs after its timer stops.  Ops whose
    index is in ``memory_ops`` run with the tracer's peak-memory spans on."""
    ops = []
    for i, fn in enumerate(w.ops()):
        if tracer:
            tracer.memory = i in memory_ops
        token = tracer.begin("bench.op") if tracer else None
        try:
            op = fn(m, stamps)
        except Exception as exc:  # an op that raises counts as failed
            op = Op([], 0, 0.0, ok=False, error=f"{type(exc).__name__}: {exc}")
        finally:
            if token:
                tracer.end(token)
        if op.ok:
            error = w.check_op(m, op)
            if error:
                op.ok, op.error = False, error
        ops.append(op)
    return ops


def done(start: float, pass_start: float, seconds: float) -> bool:
    """Stop at the pass boundary nearest to ``seconds`` after start."""
    now = time.perf_counter()
    return now + 0.5 * (now - pass_start) >= start + seconds


def measure(w, m, seconds):
    """Untraced passes; epoch stamps on train_synth come from a timestamp
    at each loss_and_gradients call, the only hook in an untraced run."""
    stamps: list[float] = []
    if isinstance(w, TrainSynth):
        inner = m["training"].loss_and_gradients

        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            return inner(*args, **kwargs)
        m["training"].loss_and_gradients = stamped
    w.warm_up(m)
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        w.next_pass(len(passes))
        passes.append(run_pass(w, m, stamps))
        if len(passes) >= w.min_passes and done(start, t0, seconds):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = [op for p in passes for op in p]
    w.check_run(m, [op for op in ops if op.ok])
    good = [op for op in ops if op.ok]
    lat = [x * 1e3 for op in ops for x in op.latencies]
    wall = sum(op.wall for op in ops)
    metrics = {"peak_rss_mb": rss_mb,
               "throughput_per_s": sum(op.work for op in ops) / wall}
    if len(lat) >= MIN_TAIL_SAMPLES:
        metrics["latency_ms_p50"] = percentile(lat, 50)
        metrics["latency_ms_p90"] = percentile(lat, 90)
    return {"metrics": metrics, "latency_samples": len(lat),
            "passes": len(passes),
            "pass_s": [sum(op.wall for op in p) for p in passes],
            "attempted": len(ops),
            "failed": len(ops) - len(good),
            "errors": sorted({op.error for op in ops if not op.ok})[:5]}


def traced_pass(w, m, tracer, stamps, memory_ops=()):
    tracer.reset_pass()
    token = tracer.begin("bench.pass")
    ops = run_pass(w, m, stamps, tracer, memory_ops)
    wall = tracer.end(token)
    return ops, wall, token[0]


def snapshot(tracer) -> dict:
    """Per-pass figures taken from the tracer's accumulators."""
    ms = {name: sum(xs) * 1e3 for name, xs in tracer.samples.items()}
    return {"ms": ms, "counts": dict(tracer.counts),
            "times": dict(tracer.times), "peaks": dict(tracer.peaks),
            "steps": list(tracer.samples.get("training.loss_and_gradients",
                                             []))}


def measure_traced(w, m, seconds, tracer, setup_snap):
    from tracer import tree_check
    stamps: list[float] = []
    all_ops, untraced, traced, memory, memory_s = [], [], [], None, 0.0
    tree_errors = []
    start = time.perf_counter()
    if w.memory_ops:
        tracer.install()
        t0 = time.perf_counter()
        ops, _, _ = traced_pass(w, m, tracer, stamps, w.memory_ops)
        memory_s = time.perf_counter() - t0
        tracer.memory = False
        tracer.uninstall()
        memory = snapshot(tracer)
        all_ops += ops
    while True:
        t0 = time.perf_counter()
        ops = run_pass(w, m, stamps)
        untraced.append(time.perf_counter() - t0)
        all_ops += ops
        tracer.install()
        ops, wall, root = traced_pass(w, m, tracer, stamps)
        tracer.uninstall()
        all_ops += ops
        snap = snapshot(tracer)
        snap["wall"] = wall
        total_wall, self_sum, lowest = tree_check(tracer.spans, root)
        snap["self_sum"] = self_sum
        if lowest < -1e-9 or abs(self_sum - total_wall) > 1e-6 * total_wall:
            tree_errors.append(f"self times sum {self_sum} vs wall "
                               f"{total_wall}, lowest {lowest}")
        traced.append(snap)
        if len(traced) >= w.min_traced and done(start, t0, seconds):
            break
    w.check_run(m, [op for op in all_ops if op.ok])
    repeat_errors = []
    reference = traced[0]["counts"]
    for snap in traced[1:] + ([memory] if memory else []):
        if snap["counts"] != reference:
            diff = sorted(k for k in set(snap["counts"]) | set(reference)
                          if snap["counts"].get(k) != reference.get(k))
            repeat_errors.append(f"counts differ across passes: {diff}")
    metrics = per_layer(traced, memory, setup_snap)
    metrics["trace.overhead_pct"] = (
        statistics.median(s["wall"] for s in traced)
        / statistics.median(untraced) - 1.0) * 100.0
    good = [op for op in all_ops if op.ok]
    errors = sorted({op.error for op in all_ops if not op.ok})[:5]
    return {"metrics": metrics, "passes": len(traced),
            "untraced_pass_s": untraced, "memory_pass_s": memory_s,
            "traced_pass_s": [s["wall"] for s in traced],
            "step_samples": sum(len(s["steps"]) for s in traced),
            "attempted": len(all_ops), "failed": len(all_ops) - len(good),
            "errors": errors, "check_errors": tree_errors + repeat_errors}


def per_layer(traced, memory, setup_snap) -> dict:
    def med(fn):
        return statistics.median(fn(s) for s in traced)

    def ms(name):
        return med(lambda s: s["ms"].get(name, 0.0))

    counts = traced[0]["counts"]
    peaks = memory["peaks"] if memory else {}
    out = {
        "structures.parse_ms": ms("structures.parse"),
        "periodic.neighbor_list_ms": ms("periodic.neighbor_list"),
        "periodic.neighbor_list_peak_mb":
            peaks.get("periodic.neighbor_list_peak_mb", 0.0),
        "periodic.edges": counts.get("periodic.edges", 0),
        "complexes.build_complex_ms": ms("complexes.build_complex"),
        "complexes.triangles": counts.get("complexes.triangles", 0),
        "complexes.pairs_ms": ms("complexes.pairs"),
        "features.edge_features_ms": ms("features.edge_features"),
        "features.triangle_features_ms": ms("features.triangle_features"),
        "features.bytes": counts.get("features.bytes", 0),
        "model.merge_batch_ms": ms("model.merge_batch"),
        "model.pairs": counts.get("model.pairs", 0),
        "model.embed.fwd_ms": ms("model.embed"),
    }
    for k in range(N_ATTN_LAYERS):
        p = f"model.attn.L{k}"
        out[p + ".fwd_ms"] = ms(p)
        out[p + ".bwd_ms"] = med(lambda s: s["times"].get(p + ".bwd", 0.0)
                                 * 1e3)
        out[p + ".pairs"] = counts.get(p + ".pairs", 0)
    forwards = counts.get("model.forwards", 0)
    steps = [x * 1e3 for s in traced for x in s["steps"]]
    out.update({
        "model.head.fwd_ms": ms("model.head"),
        "model.forward_peak_mb": peaks.get("model.forward_peak_mb", 0.0),
        "model.save_checkpoint_ms": ms("model.save_checkpoint"),
        "model.checkpoint_writes": counts.get("model.checkpoint_writes", 0),
        "model.checkpoint_mb_written":
            counts.get("model.checkpoint_bytes", 0) / 2**20,
        "model.load_checkpoint_ms":
            setup_snap["ms"].get("model.load_checkpoint", 0.0),
        "autodiff.tape_nodes":
            counts.get("autodiff.nodes", 0) / forwards if forwards else 0.0,
        "autodiff.backward_ms": ms("autodiff.backward"),
        "training.prepare_items_ms": ms("training.prepare_items"),
        "training.loss_and_gradients_ms_p50":
            percentile(steps, 50) if len(steps) >= MIN_TAIL_SAMPLES else 0.0,
        "training.loss_and_gradients_ms_p90":
            percentile(steps, 90) if len(steps) >= MIN_TAIL_SAMPLES else 0.0,
        "training.adamw_step_ms": ms("training.adamw_step"),
        "training.steps": counts.get("training.steps", 0),
        "homology.gluing_ms": ms("homology.gluing"),
        "homology.betti_ms": ms("homology.betti"),
        "homology.induced_rank_ms": ms("homology.induced_rank"),
        "homology.rank_calls": counts.get("homology.rank_calls", 0),
        "homology.matrix_cells": counts.get("homology.matrix_cells", 0),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("prep", "setup", "run"))
    ap.add_argument("--work", required=True, help="scratch directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload](args.quick)
    m = load_package()
    if args.mode == "prep":
        if hasattr(w, "prep"):
            w.prep(m, args.work)
        print("ready", flush=True)
        return 0
    tracer = None
    setup_snap = {"ms": {}}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(m)
        tracer.install()
        token = tracer.begin("bench.setup")
        w.setup(m, args.work)
        tracer.end(token)
        tracer.uninstall()
        setup_snap = snapshot(tracer)
    else:
        w.setup(m, args.work)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    w.load(m, args.work, args.seed, bool(tracer))
    if tracer:
        result = measure_traced(w, m, args.seconds, tracer, setup_snap)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for sid, parent, name, start, stop in tracer.spans:
                    fh.write(json.dumps([sid, parent, name, start, stop])
                             + "\n")
    else:
        result = measure(w, m, args.seconds)
    result["input_blocks"] = len(w.digests)
    result["inputs_sha256"] = inputs.digest(w.digests)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
