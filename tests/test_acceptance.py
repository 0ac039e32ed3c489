"""Release gate: one check per headline guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test prints exactly one PASS/FAIL line for its guarantee and fails
loudly if the guarantee does not hold at the stated tolerance.
"""

import time

import numpy as np
import pytest

from qcnet import autodiff as ad
from qcnet import model as model_mod
from qcnet.complexes import build_complex, edge_pairs, vertex_pairs
from qcnet.autodiff import constant
from qcnet.features import (EDGE_CENTERS, RBF_SIGMAS, TRIANGLE_CENTERS,
                            AtomFeatureTable, raw_features, rbf)
from qcnet.homology import SimplicialComplex, verify_quotient_homology
from qcnet.model import (AttentionLayer, ModelConfig, SimplexTransformer,
                         _attention_update, _loss_tensor, _predict_tensor,
                         forward, loss_and_gradients, merge_batch)
from qcnet.periodic import brute_force_neighbors, neighbor_list
from qcnet.structures import CrystalStructure
from qcnet.training import (TrainConfig, evaluate, metrics_report,
                            synthetic_overfit_dataset, train)

from conftest import random_flag_complex, random_partition, \
    random_rotation, random_structure


def verdict(ok: bool, name: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def catio3_cell() -> CrystalStructure:
    return CrystalStructure(
        lattice=3.84 * np.eye(3),
        species=np.array([20, 22, 8, 8, 8]),
        frac=np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, 0.5, 0.0],
                       [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]),
        id="CaTiO3")


def unit_cube() -> CrystalStructure:
    return CrystalStructure(lattice=np.eye(3), species=np.array([6]),
                            frac=np.zeros((1, 3)))


def test_neighbor_oracle_equivalence():
    """Fast periodic k-NN == brute-force supercell table, 200 cells, <60s."""
    rng = np.random.default_rng(1000)
    t0 = time.time()
    mismatches = 0
    for _ in range(200):
        s = random_structure(rng)  # triclinic, 1..6 atoms
        fast = neighbor_list(s, k=12)
        slow = brute_force_neighbors(s, k=12)
        a = [(e.src, e.dst, e.offset) for e in fast.edges]
        b = [(e.src, e.dst, e.offset) for e in slow.edges]
        if a != b:
            mismatches += 1
    elapsed = time.time() - t0
    verdict(mismatches == 0 and elapsed < 60.0,
            f"neighbor oracle equivalence (200 cells, 0 mismatches "
            f"required, {elapsed:.1f}s < 60s)")


def test_quotient_complex_counts():
    """CaTiO3 k=12: 5 vertices 60 edges; unit cube k=6: 6 loops, 0 triangles."""
    c1 = build_complex(neighbor_list(catio3_cell(), k=12))
    c2 = build_complex(neighbor_list(unit_cube(), k=6))
    offsets = sorted(e.offset for e in c2.graph.edges)
    expected = sorted([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                       (0, 0, 1), (0, 0, -1)])
    ok = (c1.n_vertices == 5 and c1.n_edges == 60
          and c2.n_edges == 6 and offsets == expected
          and all(e.src == 0 and e.dst == 0 for e in c2.graph.edges)
          and c2.n_triangles == 0)
    verdict(ok, "quotient complex counts (CaTiO3 5/60; cube 6 unit-offset "
                "self-loops, 0 triangles)")


def test_triangle_closure_fuzz():
    """All triangles close: o3 = o1 + o2 exactly, over 200 random graphs."""
    rng = np.random.default_rng(1001)
    checked = 0
    bad = 0
    for _ in range(200):
        s = random_structure(rng)
        k = int(rng.integers(2, 13))
        c = build_complex(neighbor_list(s, k=k))
        edges = c.graph.edges
        for t in c.triangles:
            e1, e2, e3 = edges[t.e1], edges[t.e2], edges[t.e3]
            closed = (tuple(a + b for a, b in zip(e1.offset, e2.offset))
                      == e3.offset and e1.dst == e2.src
                      and e3.src == e1.src and e3.dst == e2.dst)
            bad += 0 if closed else 1
            checked += 1
    verdict(bad == 0 and checked > 0,
            f"triangle closure o3 = o1 + o2 ({checked} triangles over 200 "
            f"graphs, {bad} violations)")


def test_feature_dimensions_and_banks():
    """Dims 92/376/216/64; basis response 1.0 at centers; -0.75/0.75 = -1."""
    s = catio3_cell()
    c = build_complex(neighbor_list(s, k=12))
    table = AtomFeatureTable.random(0)
    fs = raw_features(c, s.species, table)
    raws = (fs.h0_raw, fs.h1_raw, fs.h2_raw)
    embeds = SimplexTransformer.init(ModelConfig(hidden_dim=64), seed=0).embeds
    dims_ok = ([x.shape[1] for x in raws] == [92, 376, 216]
               and all(emb.apply(constant(x)).data.shape[1] == 64
                       for emb, x in zip(embeds, raws)))
    peaks_ok = True
    for centers in (EDGE_CENTERS, TRIANGLE_CENTERS):
        out = rbf(centers, centers)
        for si in range(len(RBF_SIGMAS)):
            peaks_ok &= bool(np.all(np.diag(out[:, si, :]) == 1.0))
        peaks_ok &= float(np.max(out)) == 1.0
    transform_ok = (-0.75 / 0.75) == -1.0
    verdict(dims_ok and peaks_ok and transform_ok,
            "feature dimensions 92/376/216/64, rbf peak 1.0 at centers, "
            "d=0.75 -> d'=-1.0")


def test_invariance_suite():
    """Eval predictions invariant to rotation/translation/permutation <=1e-9."""
    rng = np.random.default_rng(1002)
    table = AtomFeatureTable.random(0)
    model = SimplexTransformer.init(ModelConfig(), seed=0)
    worst = 0.0
    for _ in range(20):
        s = random_structure(rng)
        c = build_complex(neighbor_list(s, k=12))
        base = forward(model, c, raw_features(c, s.species, table))
        q = random_rotation(rng)
        shift = rng.uniform(-0.7, 0.7, size=3)
        perm = rng.permutation(s.n_atoms)
        variants = [
            CrystalStructure(lattice=s.lattice @ q, species=s.species,
                             frac=s.frac),
            CrystalStructure(lattice=s.lattice, species=s.species,
                             frac=s.frac + shift),
            CrystalStructure(lattice=s.lattice, species=s.species[perm],
                             frac=s.frac[perm]),
        ]
        for v in variants:
            cv = build_complex(neighbor_list(v, k=12))
            value = forward(model, cv, raw_features(cv, v.species, table))
            worst = max(worst, abs(value - base) / max(abs(base), 1e-12))
    verdict(worst <= 1e-9,
            f"invariance under rotation/translation/permutation "
            f"(worst relative drift {worst:.2e} <= 1e-9, 20 structures)")


def test_gradient_check_twenty_models(monkeypatch):
    """Analytic vs central FD, rtol 1e-4, 20 width-8 models, < 5 min."""
    t0 = time.time()
    rng = np.random.default_rng(1003)
    table = AtomFeatureTable.random(0)
    cube = unit_cube()
    c = build_complex(neighbor_list(cube, k=12))
    items = [(c, raw_features(c, cube.species, table))]
    # Blocks of at most 24 pairs: the running-statistics trials run each
    # edge layer as seven blocks, some of several receivers (the training
    # step is one block whatever the size).
    monkeypatch.setattr(model_mod, "_EVAL_BLOCK_PAIRS", 24)
    sigma = edge_pairs(c).sigma
    blocks = list(model_mod._pair_blocks(sigma, c.n_edges, 24))
    assert len(blocks) == 7
    assert any(sigma[lo] != sigma[hi - 1] for lo, hi, _, _ in blocks)

    def fd_loss(model, targets, train):
        with ad.no_grad():
            pred = _predict_tensor(model, merge_batch(items), train)
            return float(_loss_tensor(pred, targets, "mse").item())

    failures = []
    for trial in range(20):
        model = SimplexTransformer.init(ModelConfig(hidden_dim=8,
                                                    head_hidden=8),
                                        seed=trial)
        # Even trials check the training step (batch statistics), odd
        # trials the loss on running statistics.
        train = trial % 2 == 0
        targets = np.array([float(rng.uniform(-1, 1))])
        if train:
            _, grads = loss_and_gradients(model, items, targets, loss="mse")
        else:
            model.zero_grad()
            _loss_tensor(_predict_tensor(model, merge_batch(items), False),
                         targets, "mse").backward()
            grads = [np.zeros_like(t.data) if t.grad is None else t.grad
                     for _, t in model.parameters()]
        for (name, tensor), grad in zip(model.parameters(), grads):
            fi = int(rng.integers(0, tensor.data.size))
            idx = np.unravel_index(fi, tensor.data.shape)
            orig = tensor.data[idx]
            # Two step sizes: the big one keeps FD roundoff under the
            # absolute tolerance where the gradient is tiny, the small one
            # kills truncation error where curvature is extreme (layer
            # norm rows with near-zero variance).  A wrong analytic
            # gradient fails both.
            ok = False
            for eps in (1e-5, 1e-7):
                tensor.data[idx] = orig + eps
                fp = fd_loss(model, targets, train)
                tensor.data[idx] = orig - eps
                fm = fd_loss(model, targets, train)
                tensor.data[idx] = orig
                num = (fp - fm) / (2 * eps)
                if abs(grad[idx] - num) <= 1e-8 + 1e-4 * abs(num):
                    ok = True
                    break
            if not ok:
                failures.append((trial, train, name, idx,
                                 float(grad[idx]), float(num)))
    elapsed = time.time() - t0
    verdict(not failures and elapsed < 300.0,
            f"gradient check (20 width-8 models, every parameter tensor "
            f"sampled, rtol 1e-4 at either FD step, {elapsed:.0f}s < 300s; "
            f"{len(failures)} mismatches)")


def test_residual_identity():
    """Zeroed update path returns its input bitwise, all tiers, either
    statistics."""
    s = catio3_cell()
    c = build_complex(neighbor_list(s, k=12))
    cube_c = build_complex(neighbor_list(unit_cube(), k=6))
    rng = np.random.default_rng(1004)
    layer = AttentionLayer.init(8, rng)
    layer.upd_w.data[:] = 0.0
    layer.upd_b.data[:] = 0.0
    ok = True
    h_v = rng.standard_normal((c.n_vertices, 8))
    h_e = rng.standard_normal((c.n_edges, 8))
    for train in (True, False):
        out = _attention_update(constant(h_v), constant(h_e), vertex_pairs(c),
                                layer, train).data
        ok &= np.array_equal(out, h_v)
    empty_h = rng.standard_normal((cube_c.n_edges, 8))
    out = _attention_update(constant(empty_h), constant(np.zeros((0, 8))),
                            edge_pairs(cube_c), layer, False).data
    ok &= np.array_equal(out, empty_h)
    verdict(ok, "residual identity: zeroed update path gives h' = h bitwise")


def test_overfit_synthetic():
    """32 synthetic cells, batch 64, lr 0.005, MAE loss: < 0.01 in 500 ep."""
    t0 = time.time()
    records = synthetic_overfit_dataset(n_samples=32, seed=7)
    table = AtomFeatureTable.random(0)
    config = TrainConfig(epochs=500, batch_size=64, peak_lr=0.005,
                         loss="mae", k_neighbors=4, seed=0,
                         hidden_dim=64, head_hidden=64)
    result = train(config, records, (), table)
    mae = evaluate(result.model, records, table, 4).mae
    elapsed = time.time() - t0
    verdict(mae < 0.01 and elapsed < 600.0,
            f"overfit: train MAE {mae:.4f} < 0.01 within 500 epochs "
            f"({elapsed:.0f}s < 600s)")


def test_gluing_theorem_fuzz_and_counterexample():
    """200 flag complexes: star verdicts all hold; 3-path splits the
    constructions (star beta1 = 2, pairwise beta1 = 3)."""
    rng = np.random.default_rng(1005)
    bad = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        K = random_flag_complex(n, float(rng.uniform(0.15, 0.9)), rng,
                                max_dim=3)
        classes = random_partition(K.vertices, rng)
        rep = verify_quotient_homology(K, classes, construction="star")
        bad += 0 if rep.all_verified else 1
    path3 = SimplicialComplex([[0, 1], [1, 2]])
    star = verify_quotient_homology(path3, [[0, 1, 2]], "star")
    pairwise = verify_quotient_homology(path3, [[0, 1, 2]], "pairwise")
    sep = star.betti_glued[1] == 2 and pairwise.betti_glued[1] == 3
    verdict(bad == 0 and sep,
            f"gluing theorem on 200 random flag complexes ({bad} failures) "
            f"+ 3-path counterexample (star b1=2, pairwise b1=3)")


def test_five_path_single_class():
    """Path on 5 vertices, all identified: glued b0 = 1 and b1 = 4."""
    K = SimplicialComplex([[0, 1], [1, 2], [2, 3], [3, 4]])
    rep = verify_quotient_homology(K, [[0, 1, 2, 3, 4]], "star")
    ok = (rep.betti_glued[0] == 1 and rep.betti_glued[1] == 4
          and rep.all_verified)
    verdict(ok, f"5-path single class: glued betti "
                f"{rep.betti_glued[:2]} == [1, 4]")


def test_metrics_identities():
    """Perfect: COD=PCC=1, MAE=0. Mean predictor: COD=0. Hand case: -1."""
    y = np.array([0.3, 1.7, 2.2, 5.0])
    perfect = metrics_report(y, y.copy())
    mean_pred = metrics_report(y, np.full(4, y.mean()))
    hand = metrics_report(np.array([0.0, 1.0, 2.0]),
                          np.array([0.0, 1.0, 4.0]))
    ok = (perfect.cod == 1.0 and perfect.pcc == pytest.approx(1.0)
          and perfect.mae == 0.0
          and mean_pred.cod == pytest.approx(0.0, abs=1e-15)
          and hand.cod == -1.0)
    verdict(ok, "metrics identities (perfect => COD=PCC=1, MAE=0; mean "
                "predictor => COD=0; hand-worked case => COD=-1.0 exactly)")


def test_training_determinism():
    """Seed-matched runs: byte-identical histories and checkpoints."""
    import json
    records = synthetic_overfit_dataset(n_samples=6, seed=7)
    table = AtomFeatureTable.random(0)
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        blobs = []
        for tag in ("a", "b"):
            config = TrainConfig(epochs=3, batch_size=4, peak_lr=0.003,
                                 k_neighbors=4, seed=11, hidden_dim=8,
                                 head_hidden=8,
                                 checkpoint_path=str(tmp / f"{tag}.ckpt"))
            result = train(config, records, records[:2], table)
            history = json.dumps(result.history, sort_keys=True)
            blobs.append((history.encode(),
                          (tmp / f"{tag}.ckpt").read_bytes()))
        ok = blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1]
    verdict(ok, "determinism: seed-matched runs give byte-identical "
                "histories and checkpoints")
