"""Triangle closure, messaging pairs, and complex serialization."""

import json

import numpy as np
import pytest

from qcnet.complexes import (build_complex, complex_json, edge_pairs,
                             triangle_image_points, vertex_pairs)
from qcnet.periodic import neighbor_list
from qcnet.structures import CrystalStructure
from qcnet.training import synthetic_overfit_dataset

from conftest import random_structure


def oracle_triangles(g):
    """Triple loop over edge pairs sharing a middle vertex; set lookup for
    the closing edge.  Independent of the production index structures."""
    edges = g.edges
    key_to_index = {}
    for i, e in enumerate(edges):
        key_to_index[(e.src, e.dst, e.offset)] = i
    out = []
    for i1, e1 in enumerate(edges):
        for i2, e2 in enumerate(edges):
            if e1.dst != e2.src:
                continue
            o3 = tuple(a + b for a, b in zip(e1.offset, e2.offset))
            i3 = key_to_index.get((e1.src, e2.dst, o3))
            if i3 is not None:
                out.append((i1, i2, i3))
    return sorted(out)


class TestTriangleEnumeration:
    def test_matches_oracle_catio3(self, catio3):
        g = neighbor_list(catio3, k=12)
        c = build_complex(g)
        got = [(t.e1, t.e2, t.e3) for t in c.triangles]
        assert got == oracle_triangles(g)

    def test_matches_oracle_random(self):
        # Random 1-6 atom cells at assorted k, plus the 1-2 atom cells of
        # the synthetic overfit set, whose graphs are mostly self-loop
        # chains; rows must match the oracle in order.
        rng = np.random.default_rng(10)
        cells = [(random_structure(rng), int(rng.integers(2, 10)))
                 for _ in range(25)]
        cells += [(random_structure(rng), k) for k in (1, 4, 12)
                  for _ in range(3)]
        cells += [(r.structure, k) for r in synthetic_overfit_dataset(8)
                  for k in (1, 4, 12)]
        for s, k in cells:
            g = neighbor_list(s, k=k)
            c = build_complex(g)
            got = [(t.e1, t.e2, t.e3) for t in c.triangles]
            assert got == oracle_triangles(g)

    def test_single_atom_cubic_k6_has_no_triangles(self, cubic1):
        # Unit offsets never sum to another unit offset.
        c = build_complex(neighbor_list(cubic1, k=6))
        assert c.n_triangles == 0

    def test_offsets_close_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = random_structure(rng)
            c = build_complex(neighbor_list(s, k=8))
            edges = c.graph.edges
            for t in c.triangles:
                e1, e2, e3 = edges[t.e1], edges[t.e2], edges[t.e3]
                assert e1.dst == e2.src
                assert e3.src == e1.src
                assert e3.dst == e2.dst
                assert tuple(a + b for a, b in zip(e1.offset, e2.offset)) \
                    == e3.offset

    def test_sorted_strictly(self, catio3):
        c = build_complex(neighbor_list(catio3, k=12))
        keys = [(t.e1, t.e2, t.e3) for t in c.triangles]
        # The records are a view of the rows of the triangle array.
        assert keys == [tuple(row) for row in c.tri]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestImagePoints:
    def test_edge_lengths_reproduced(self):
        # The three image points must realize the stored edge distances;
        # this pins down the offset convention of the coherent triple.
        rng = np.random.default_rng(12)
        for _ in range(8):
            s = random_structure(rng).canonicalize()
            c = build_complex(neighbor_list(s, k=8))
            edges = c.graph.edges
            for ti, t in enumerate(c.triangles[:50]):
                pa, pb, pc = triangle_image_points(c, ti, s.frac, s.lattice)
                e1, e2, e3 = edges[t.e1], edges[t.e2], edges[t.e3]
                assert np.linalg.norm(pb - pa) == pytest.approx(e1.dist,
                                                                abs=1e-9)
                assert np.linalg.norm(pc - pb) == pytest.approx(e2.dist,
                                                                abs=1e-9)
                assert np.linalg.norm(pc - pa) == pytest.approx(e3.dist,
                                                                abs=1e-9)


class TestMessagingPairs:
    def test_vertex_tier(self, catio3):
        c = build_complex(neighbor_list(catio3, k=12))
        p = vertex_pairs(c)
        assert p.n_pairs == c.n_edges
        for i, e in enumerate(c.graph.edges):
            assert p.sigma[i] == e.dst
            assert p.tau[i] == e.src
            assert p.coface[i] == i

    def test_edge_tier(self, catio3):
        c = build_complex(neighbor_list(catio3, k=12))
        p = edge_pairs(c)
        assert p.n_pairs == 3 * c.n_triangles
        for ti, t in enumerate(c.triangles):
            rows = [(p.sigma[3 * ti + r], p.tau[3 * ti + r],
                     p.coface[3 * ti + r]) for r in range(3)]
            assert rows == [(t.e2, t.e1, ti), (t.e3, t.e1, ti),
                            (t.e3, t.e2, ti)]

    def test_edge_tier_empty(self, cubic1):
        c = build_complex(neighbor_list(cubic1, k=6))
        p = edge_pairs(c)
        assert p.n_pairs == 0
        assert p.sigma.shape == (0,)


class TestRelabeling:
    def test_triangle_geometry_invariant(self):
        rng = np.random.default_rng(13)
        s = random_structure(rng, n_atoms=4)
        perm = rng.permutation(4)
        permuted = CrystalStructure(lattice=s.lattice,
                                    species=s.species[perm],
                                    frac=s.frac[perm])
        def shape_multiset(struct):
            c = build_complex(neighbor_list(struct, k=8))
            edges = c.graph.edges
            out = []
            for t in c.triangles:
                d = sorted(round(edges[i].dist, 9) for i in (t.e1, t.e2, t.e3))
                out.append(tuple(d))
            return sorted(out)
        assert shape_multiset(s) == shape_multiset(permuted)


class TestSerialization:
    def test_json_shape(self, catio3):
        c = build_complex(neighbor_list(catio3, k=12))
        obj = json.loads(complex_json(c))
        assert len(obj["edges"]) == 60
        assert len(obj["triangles"]) == c.n_triangles
        e0 = obj["edges"][0]
        assert set(e0) == {"src", "dst", "offset", "dist"}
        t0 = obj["triangles"][0]
        assert len(t0["e"]) == 3 and len(t0["offsets"]) == 3

    def test_json_deterministic(self, catio3):
        c = build_complex(neighbor_list(catio3, k=12))
        assert complex_json(c) == complex_json(c)
