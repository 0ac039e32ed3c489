"""Simplex feature construction: dimensions, basis, and invariances."""

import json

import numpy as np
import pytest

from qcnet.autodiff import constant, silu_np
from qcnet.complexes import QuotientComplex, build_complex
from qcnet.features import (EDGE_CENTERS, EDGE_DIM, RBF_SIGMAS,
                            TRIANGLE_CENTERS, TRIANGLE_DIM, VERTEX_DIM,
                            AtomFeatureTable, MissingSpeciesError,
                            NonPositiveDistanceError, edge_features,
                            raw_features, rbf, save_feature_arrays,
                            triangle_features)
from qcnet.model import ModelConfig, SimplexTransformer
from qcnet.periodic import PeriodicGraph, neighbor_list
from qcnet.structures import MAX_Z, CrystalStructure

from conftest import random_rotation, random_structure


@pytest.fixture(scope="module")
def table():
    return AtomFeatureTable.random(0)


def complex_for(s, k=8):
    return build_complex(neighbor_list(s, k=k))


def reference_rbf(x, centers):
    """The block-by-block expansion: one exp block per width, concatenated
    sigma-major."""
    diff2 = (np.asarray(x, dtype=np.float64)[:, None] - centers[None, :]) ** 2
    return np.concatenate([np.exp(-diff2 / s) for s in (0.01, 0.1, 1.0)],
                          axis=1)


def per_element_draws(seed):
    """The vectors of ``AtomFeatureTable.random(seed)``, one draw per Z."""
    rng = np.random.default_rng(seed)
    return {z: rng.uniform(0.0, 1.0, VERTEX_DIM) for z in range(1, MAX_Z + 1)}


def reference_features(c, species, vectors):
    """(h0, h1, h2) built per atom, per width and per scalar, then
    concatenated."""
    h0 = np.array([vectors[int(z)] for z in species])
    edge = reference_rbf(-0.75 / c.graph.dist, np.linspace(-4.0, 0.0, 64))
    h1 = np.concatenate([edge, h0[c.graph.src], h0[c.graph.dst]], axis=1)
    d1, d2, d3 = c.graph.dist[c.tri.T]
    scalars = [d1, d2, d3, d1 * d2, d1 * d3, d2 * d3,
               d1 * d1, d2 * d2, d3 * d3]
    tri = np.linspace(0.0, 5.0, 8)
    h2 = np.concatenate([reference_rbf(v, tri) for v in scalars], axis=1)
    return h0, h1, h2


def assert_bitwise_reference(c, species, table):
    """``table`` must be ``AtomFeatureTable.random(0)``."""
    fs = raw_features(c, species, table)
    for got, want in zip((fs.h0_raw, fs.h1_raw, fs.h2_raw),
                         reference_features(c, species,
                                            per_element_draws(0))):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestRbfBanks:
    """The edge and triangle banks: ``rbf`` over EDGE_CENTERS and
    TRIANGLE_CENTERS at the three widths."""

    def test_edge_bank_shape(self):
        assert EDGE_CENTERS.shape == (64,)
        assert EDGE_CENTERS[0] == -4.0 and EDGE_CENTERS[-1] == 0.0
        assert rbf(np.zeros(5), EDGE_CENTERS).shape == (5, 3, 64)

    def test_triangle_bank_shape(self):
        assert TRIANGLE_CENTERS.shape == (8,)
        assert TRIANGLE_CENTERS[0] == 0.0 and TRIANGLE_CENTERS[-1] == 5.0
        assert rbf(np.zeros((4, 9)), TRIANGLE_CENTERS).shape == (4, 9, 3, 8)
        assert rbf(np.zeros((0, 9)), TRIANGLE_CENTERS).shape == (0, 9, 3, 8)

    def test_peak_is_one_at_centers(self):
        for centers in (EDGE_CENTERS, TRIANGLE_CENTERS):
            out = rbf(centers, centers)
            for s in range(len(RBF_SIGMAS)):
                np.testing.assert_array_equal(np.diag(out[:, s, :]),
                                              np.ones(len(centers)))
            assert np.max(out) == 1.0

    def test_sigma_major_layout(self):
        out = rbf(1.3, TRIANGLE_CENTERS).reshape(24)
        for s, sigma in enumerate(RBF_SIGMAS):
            for c, center in enumerate(TRIANGLE_CENTERS):
                expected = np.exp(-(1.3 - center) ** 2 / sigma)
                assert out[s * 8 + c] == pytest.approx(expected, rel=1e-15)

    def test_value_major_layout(self):
        x = np.array([[0.4, 1.3, 2.9]])
        out = rbf(x, TRIANGLE_CENTERS).reshape(1, 72)[0]
        for v in range(3):
            np.testing.assert_array_equal(
                out[v * 24:(v + 1) * 24],
                rbf(x[:, v], TRIANGLE_CENTERS).reshape(24))


class TestReferenceIdentity:
    """Features equal, byte for byte, the block-by-block construction."""

    def test_catio3(self, catio3, table):
        assert_bitwise_reference(complex_for(catio3, k=12), catio3.species,
                                 table)

    def test_zero_triangles(self, catio3, table):
        c = complex_for(catio3, k=12)
        empty = QuotientComplex(c.graph, c.tri[:0])
        assert triangle_features(empty).shape == (0, TRIANGLE_DIM)
        assert_bitwise_reference(empty, catio3.species, table)

    @pytest.mark.parametrize("k", [12, 30])
    def test_self_loops(self, cubic1, table, k):
        # Every edge is a self-loop; at k=30 one edge can be both e1 and e2
        # of a triangle, so its responses are gathered twice into one row.
        c = complex_for(cubic1, k=k)
        assert c.n_triangles > 0
        if k == 30:
            assert np.any(c.tri[:, 0] == c.tri[:, 1])
        assert_bitwise_reference(c, cubic1.species, table)

    def test_ties_at_kth_distance(self, table):
        # CsCl type: 8 neighbors at a*sqrt(3)/2, then 6 tied at a, so the
        # 12th pick breaks a tie.
        s = CrystalStructure(lattice=4.1 * np.eye(3),
                             species=np.array([55, 17]),
                             frac=np.array([[0.0, 0.0, 0.0],
                                            [0.5, 0.5, 0.5]]))
        c = complex_for(s, k=12)
        assert c.n_triangles > 0
        assert_bitwise_reference(c, s.species, table)

    def test_random_cells(self, table):
        rng = np.random.default_rng(13)
        triangles = 0
        for i in range(60):
            s = random_structure(rng)
            c = complex_for(s, k=4 + i % 9)
            triangles += c.n_triangles
            assert_bitwise_reference(c, s.species, table)
        assert triangles > 0


class TestVertexFeatures:
    def test_shape_and_lookup(self, catio3, table):
        vf = table.features_for(catio3.species)
        assert vf.shape == (5, VERTEX_DIM)
        np.testing.assert_array_equal(vf[2], vf[3])  # both oxygen
        assert not np.array_equal(vf[0], vf[1])

    def test_missing_species(self, catio3):
        small = AtomFeatureTable.random(0, max_z=10)
        with pytest.raises(MissingSpeciesError, match="20"):
            small.features_for(catio3.species)

    def test_absent_element_named(self):
        vectors = per_element_draws(0)
        del vectors[50]
        with pytest.raises(MissingSpeciesError) as exc:
            AtomFeatureTable(vectors).features_for(np.array([8, 50, 20, 51]))
        assert str(exc.value) == (
            "atom table has no feature vector for element Z=50")

    @pytest.mark.parametrize("species, bad", [
        ([8, 0, 50], 0), ([1, -1, 119], -1), ([118, 119, 0], 119)])
    def test_out_of_range_element_named(self, table, species, bad):
        # -1 must not wrap around to the last row.
        with pytest.raises(MissingSpeciesError) as exc:
            table.features_for(np.array(species))
        assert str(exc.value) == (
            f"atom table has no feature vector for element Z={bad}")


class TestEdgeFeatures:
    def test_shape(self, catio3, table):
        g = neighbor_list(catio3, k=12)
        ef = edge_features(g, table.features_for(catio3.species))
        assert ef.shape == (60, EDGE_DIM)

    def test_distance_transform_hits_center(self, table):
        # d = 0.75 gives d' = -1.0; the basis response there never exceeds
        # the response at the nearest center and the transform is exact.
        d = 0.75
        assert -0.75 / d == -1.0

    def test_layout_rbf_then_src_then_dst(self, table):
        s = CrystalStructure(lattice=np.diag([10.0, 10, 10]),
                             species=np.array([1, 6]),
                             frac=np.array([[0.0, 0, 0], [0.075, 0, 0]]))
        g = neighbor_list(s, k=1)
        vf = table.features_for(s.species)
        ef = edge_features(g, vf)
        e = g.edges[0]
        assert e.dist == pytest.approx(0.75)
        expected_rbf = rbf(-1.0, EDGE_CENTERS).reshape(192)
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
        for v, value in enumerate(scalars):
            block = tf[0, v * 24:(v + 1) * 24]
            expected = rbf(value, TRIANGLE_CENTERS).reshape(24)
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
        z = np.array([1, 50, 118])
        np.testing.assert_array_equal(a.features_for(z), b.features_for(z))
        c = AtomFeatureTable.random(4)
        assert not np.array_equal(a.features_for([1]), c.features_for([1]))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_rows_follow_per_element_draws(self, seed):
        expected = np.array(list(per_element_draws(seed).values()))
        got = AtomFeatureTable.random(seed).features_for(
            np.arange(1, MAX_Z + 1))
        assert got.tobytes() == expected.tobytes()

    def test_save_load_round_trip(self, tmp_path):
        a = AtomFeatureTable.random(5, max_z=12)
        path = tmp_path / "table.json"
        a.save(path)
        assert sorted(json.loads(path.read_text()), key=int) == [
            str(z) for z in range(1, 13)]
        b = AtomFeatureTable.from_json(path)
        z = np.arange(1, 13)
        np.testing.assert_array_equal(a.features_for(z), b.features_for(z))
        with pytest.raises(MissingSpeciesError, match="Z=13"):
            b.features_for([13])

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
