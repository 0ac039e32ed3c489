"""Simplex feature construction: dimensions, banks, and invariances."""

import json

import numpy as np
import pytest

from qcnet.autodiff import constant, silu_np
from qcnet.complexes import build_complex
from qcnet.features import (EDGE_DIM, TRIANGLE_DIM, VERTEX_DIM,
                            AtomFeatureTable, MissingSpeciesError,
                            NonPositiveDistanceError, edge_bank,
                            edge_features, raw_features, save_feature_arrays,
                            triangle_bank, triangle_features, vertex_features)
from qcnet.model import ModelConfig, SimplexTransformer
from qcnet.periodic import PeriodicGraph, neighbor_list
from qcnet.structures import CrystalStructure

from conftest import random_rotation, random_structure


@pytest.fixture(scope="module")
def table():
    return AtomFeatureTable.random(0)


def complex_for(s, k=8):
    return build_complex(neighbor_list(s, k=k))


class TestRbfBanks:
    def test_edge_bank_shape(self):
        bank = edge_bank()
        assert bank.centers.shape == (64,)
        assert bank.centers[0] == -4.0 and bank.centers[-1] == 0.0
        assert bank.dim == 192

    def test_triangle_bank_shape(self):
        bank = triangle_bank()
        assert bank.centers.shape == (8,)
        assert bank.centers[0] == 0.0 and bank.centers[-1] == 5.0
        assert bank.dim == 24

    def test_peak_is_one_at_centers(self):
        for bank in (edge_bank(), triangle_bank()):
            out = bank.expand(bank.centers)
            n = len(bank.centers)
            for s in range(len(bank.sigmas)):
                block = out[:, s * n:(s + 1) * n]
                np.testing.assert_array_equal(np.diag(block),
                                              np.ones(n))
            assert np.max(out) == 1.0

    def test_sigma_major_layout(self):
        bank = triangle_bank()
        x = np.array([1.3])
        out = bank.expand(x)[0]
        for s, sigma in enumerate(bank.sigmas):
            for c, center in enumerate(bank.centers):
                expected = np.exp(-(1.3 - center) ** 2 / sigma)
                assert out[s * 8 + c] == pytest.approx(expected, rel=1e-15)


class TestVertexFeatures:
    def test_shape_and_lookup(self, catio3, table):
        vf = vertex_features(catio3.species, table)
        assert vf.shape == (5, VERTEX_DIM)
        np.testing.assert_array_equal(vf[2], vf[3])  # both oxygen
        assert not np.array_equal(vf[0], vf[1])

    def test_missing_species(self, catio3):
        small = AtomFeatureTable.random(0, max_z=10)
        with pytest.raises(MissingSpeciesError, match="20"):
            vertex_features(catio3.species, small)


class TestEdgeFeatures:
    def test_shape(self, catio3, table):
        g = neighbor_list(catio3, k=12)
        ef = edge_features(g, vertex_features(catio3.species, table))
        assert ef.shape == (60, EDGE_DIM)

    def test_distance_transform_hits_center(self, table):
        # d = 0.75 gives d' = -1.0; the bank response there never exceeds
        # the response at the nearest center and the transform is exact.
        d = 0.75
        assert -0.75 / d == -1.0

    def test_layout_rbf_then_src_then_dst(self, table):
        s = CrystalStructure(lattice=np.diag([10.0, 10, 10]),
                             species=np.array([1, 6]),
                             frac=np.array([[0.0, 0, 0], [0.075, 0, 0]]))
        g = neighbor_list(s, k=1)
        vf = vertex_features(s.species, table)
        ef = edge_features(g, vf)
        e = g.edges[0]
        assert e.dist == pytest.approx(0.75)
        expected_rbf = edge_bank().expand(np.array([-1.0]))[0]
        np.testing.assert_allclose(ef[0, :192], expected_rbf, atol=1e-12)
        np.testing.assert_array_equal(ef[0, 192:284], vf[e.src])
        np.testing.assert_array_equal(ef[0, 284:376], vf[e.dst])

    def test_nonpositive_distance_rejected(self, table):
        g = PeriodicGraph(n_vertices=1, k=1, src=np.zeros(1, np.int64),
                          dst=np.zeros(1, np.int64),
                          offset=np.zeros((1, 3), np.int64),
                          dist=np.zeros(1))
        with pytest.raises(NonPositiveDistanceError,
                           match=r"^edge distance 0\.0 is not positive$"):
            edge_features(g, np.zeros((1, VERTEX_DIM)))

    def test_empty_graph(self, table):
        g = PeriodicGraph(n_vertices=1, k=0, src=np.zeros(0, np.int64),
                          dst=np.zeros(0, np.int64),
                          offset=np.zeros((0, 3), np.int64),
                          dist=np.zeros(0))
        assert edge_features(g, np.zeros((1, VERTEX_DIM))).shape \
            == (0, EDGE_DIM)


class TestTriangleFeatures:
    def test_shape_and_layout(self, catio3):
        c = complex_for(catio3, k=12)
        tf = triangle_features(c)
        assert tf.shape == (c.n_triangles, TRIANGLE_DIM)
        t = c.triangles[0]
        edges = c.graph.edges
        d = [edges[i].dist for i in (t.e1, t.e2, t.e3)]
        scalars = [d[0], d[1], d[2], d[0] * d[1], d[0] * d[2], d[1] * d[2],
                   d[0] ** 2, d[1] ** 2, d[2] ** 2]
        bank = triangle_bank()
        for v, value in enumerate(scalars):
            block = tf[0, v * 24:(v + 1) * 24]
            expected = bank.expand(np.array([value]))[0]
            np.testing.assert_allclose(block, expected, atol=1e-12)

    def test_empty(self, cubic1):
        c = complex_for(cubic1, k=6)
        assert triangle_features(c).shape == (0, TRIANGLE_DIM)


class TestInvariance:
    def test_rotation_and_translation(self, table):
        rng = np.random.default_rng(20)
        for _ in range(6):
            s = random_structure(rng)
            q = random_rotation(rng)
            shift = rng.uniform(-0.5, 0.5, size=3)
            moved = CrystalStructure(lattice=s.lattice @ q,
                                     species=s.species,
                                     frac=s.frac + shift)
            fa = raw_features(complex_for(s), s.species, table)
            fb = raw_features(complex_for(moved), moved.species, table)
            for a, b in ((fa.h0_raw, fb.h0_raw), (fa.h1_raw, fb.h1_raw),
                         (fa.h2_raw, fb.h2_raw)):
                assert a.shape == b.shape
                np.testing.assert_allclose(a, b, atol=1e-9)


class TestAtomTable:
    def test_random_is_deterministic(self):
        a = AtomFeatureTable.random(3)
        b = AtomFeatureTable.random(3)
        for z in (1, 50, 118):
            np.testing.assert_array_equal(a.vectors[z], b.vectors[z])
        c = AtomFeatureTable.random(4)
        assert not np.array_equal(a.vectors[1], c.vectors[1])

    def test_save_load_round_trip(self, tmp_path):
        a = AtomFeatureTable.random(5, max_z=12)
        path = tmp_path / "table.json"
        a.save(path)
        b = AtomFeatureTable.from_json(path)
        assert set(a.vectors) == set(b.vectors)
        for z in a.vectors:
            np.testing.assert_array_equal(a.vectors[z], b.vectors[z])

    def test_validation(self):
        with pytest.raises(ValueError):
            AtomFeatureTable({1: np.zeros(91)})
        with pytest.raises(ValueError):
            AtomFeatureTable({0: np.zeros(VERTEX_DIM)})
        with pytest.raises(ValueError):
            AtomFeatureTable({1: np.full(VERTEX_DIM, np.inf)})

    def test_from_json_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            AtomFeatureTable.from_json(path)


class TestEmbedding:
    """The model's tier embeddings SiLU(x @ w + b) into the hidden width."""

    def test_hidden_dims(self, catio3, table):
        c = complex_for(catio3, k=12)
        fs = raw_features(c, catio3.species, table)
        model = SimplexTransformer.init(ModelConfig(hidden_dim=64), seed=1)
        shapes = [emb.apply(constant(x)).data.shape for emb, x in
                  zip(model.embeds, (fs.h0_raw, fs.h1_raw, fs.h2_raw))]
        assert shapes == [(5, 64), (60, 64), (c.n_triangles, 64)]

    def test_embedding_formula(self, catio3, table):
        c = complex_for(catio3, k=12)
        fs = raw_features(c, catio3.species, table)
        model = SimplexTransformer.init(ModelConfig(hidden_dim=16), seed=2)
        emb = model.embeds[0]
        manual = silu_np(fs.h0_raw @ emb.w.data + emb.b.data)
        np.testing.assert_allclose(emb.apply(constant(fs.h0_raw)).data,
                                   manual, atol=1e-15)

    def test_random_bounds_and_zero_bias(self):
        model = SimplexTransformer.init(ModelConfig(hidden_dim=32), seed=0)
        for emb, din in zip(model.embeds,
                            (VERTEX_DIM, EDGE_DIM, TRIANGLE_DIM)):
            assert emb.w.data.shape == (din, 32)
            assert np.all(np.abs(emb.w.data) <= 1.0 / np.sqrt(din))
            np.testing.assert_array_equal(emb.b.data, 0.0)


class TestFeatureIO:
    def test_save_arrays_round_trip(self, tmp_path, catio3, table):
        c = complex_for(catio3, k=12)
        fs = raw_features(c, catio3.species, table)
        prefix = str(tmp_path / "feats")
        arrays = {"h0_raw": fs.h0_raw, "h1_raw": fs.h1_raw,
                  "h2_raw": fs.h2_raw}
        save_feature_arrays(arrays, prefix)
        header = json.loads((tmp_path / "feats.json").read_text())
        assert header["dtype"] == "<f8"
        for name, arr in arrays.items():
            assert header["arrays"][name] == list(arr.shape)
            data = np.fromfile(f"{prefix}.{name}.bin",
                               dtype="<f8").reshape(arr.shape)
            np.testing.assert_array_equal(data, arr)
