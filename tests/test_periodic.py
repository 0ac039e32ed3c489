"""Periodic k-NN list against a brute-force supercell oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qcnet.periodic
from qcnet.periodic import (LatticeTooSkewedError, RadiusTooSmallError,
                            brute_force_neighbors, neighbor_list,
                            plane_spacing_min)
from qcnet.structures import CrystalStructure

from conftest import random_rotation, random_structure


def edge_tuples(g):
    return [(e.src, e.dst, e.offset, e.dist) for e in g.edges]


class TestPlaneSpacing:
    def test_identity(self):
        assert plane_spacing_min(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert plane_spacing_min(np.diag([2.0, 3.0, 4.0])) == pytest.approx(2.0)

    def test_lower_bounds_interplane_distance(self):
        # No nonzero lattice translation may be shorter than the spacing.
        rng = np.random.default_rng(0)
        for _ in range(20):
            lattice = random_structure(rng).lattice
            h = plane_spacing_min(lattice)
            offsets = np.array([[i, j, k] for i in range(-2, 3)
                                for j in range(-2, 3) for k in range(-2, 3)
                                if (i, j, k) != (0, 0, 0)])
            shortest = np.min(np.linalg.norm(offsets @ lattice, axis=1))
            assert shortest >= h - 1e-9


class TestKnownCells:
    def test_single_atom_cubic_k6(self, cubic1):
        g = neighbor_list(cubic1, k=6)
        expected = sorted([(0, 0, off, 1.0) for off in
                           [(-1, 0, 0), (0, -1, 0), (0, 0, -1),
                            (0, 0, 1), (0, 1, 0), (1, 0, 0)]],
                          key=lambda t: t[2])
        got = [(s, d, o, round(dist, 12)) for s, d, o, dist in edge_tuples(g)]
        assert got == expected

    def test_single_atom_cubic_k12_tie_order(self, cubic1):
        # Positions 6..11 break the sqrt(2) tie by offset lexicographic order.
        g = neighbor_list(cubic1, k=12)
        tail = [e.offset for e in g.edges[6:]]
        assert tail == [(-1, -1, 0), (-1, 0, -1), (-1, 0, 1),
                        (-1, 1, 0), (0, -1, -1), (0, -1, 1)]
        assert all(abs(e.dist - np.sqrt(2)) < 1e-12 for e in g.edges[6:])

    def test_catio3_edge_count_and_degrees(self, catio3):
        g = neighbor_list(catio3, k=12)
        assert g.n_vertices == 5
        assert g.n_edges == 60
        dsts = np.array([e.dst for e in g.edges])
        for v in range(5):
            assert np.sum(dsts == v) == 12

    def test_catio3_oxygen_nearest_is_titanium(self, catio3):
        g = neighbor_list(catio3, k=12)
        edges = g.edges
        for oxygen in (2, 3, 4):
            first_two = [edges[i] for i in np.flatnonzero(g.dst == oxygen)][:2]
            for e in first_two:
                assert e.src == 1
                assert e.dist == pytest.approx(1.92, abs=1e-9)


class TestEdgeOrdering:
    def test_grouped_by_destination_then_distance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = random_structure(rng)
            g = neighbor_list(s, k=8)
            edges = g.edges
            # The records are a view of the columns, with Python scalars.
            for i, e in enumerate(edges):
                assert (e.src, e.dst, e.offset, e.dist) == (
                    g.src[i], g.dst[i], tuple(g.offset[i]), g.dist[i])
                assert type(e.offset) is tuple and type(e.dist) is float
                assert all(type(x) is int for x in (e.src, e.dst, *e.offset))
            for v in range(s.n_atoms):
                block = [edges[i] for i in np.flatnonzero(g.dst == v)]
                assert all(e.dst == v for e in block)
                dists = [e.dist for e in block]
                # Within a tie group order is by source, so floats may step
                # back by less than the tie tolerance.
                assert all(dists[i + 1] >= dists[i] - 1e-8
                           for i in range(len(dists) - 1))

    def test_in_edges_partition(self):
        # Each target's k in-edges form one contiguous block, in target order.
        rng = np.random.default_rng(2)
        s = random_structure(rng, n_atoms=4)
        g = neighbor_list(s, k=5)
        np.testing.assert_array_equal(g.dst, np.repeat(np.arange(4), 5))

    def test_positive_distances_with_coincident_atoms(self):
        # Two atoms on the same site: their zero-offset pair is excluded.
        s = CrystalStructure(lattice=np.eye(3),
                             species=np.array([1, 1]),
                             frac=np.array([[0.25, 0.25, 0.25],
                                            [0.25, 0.25, 0.25]]))
        g = neighbor_list(s, k=6)
        assert min(e.dist for e in g.edges) > 0.0


class TestOracleEquivalence:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            s = random_structure(rng)
            k = int(rng.integers(1, 15))
            fast = edge_tuples(neighbor_list(s, k=k))
            slow = edge_tuples(brute_force_neighbors(s, k=k))
            assert [t[:3] for t in fast] == [t[:3] for t in slow]
            np.testing.assert_allclose([t[3] for t in fast],
                                       [t[3] for t in slow], rtol=0,
                                       atol=1e-12)

    def test_deterministic_across_runs(self):
        rng1 = np.random.default_rng(4)
        rng2 = np.random.default_rng(4)
        g1 = neighbor_list(random_structure(rng1), k=12)
        g2 = neighbor_list(random_structure(rng2), k=12)
        assert edge_tuples(g1) == edge_tuples(g2)

    def test_supercell_certifies_in_first_window(self, monkeypatch):
        # A jittered 4x4x4 simple-cubic supercell: the first window, half
        # the smallest plane spacing, holds every target's 12 nearest.  It
        # spans two offsets on the thinnest axis and one on the others.
        rng = np.random.default_rng(8)
        sites = np.indices((4, 4, 4)).reshape(3, -1).T
        s = CrystalStructure(
            lattice=np.diag([8.0, 8.1, 8.2]), species=np.full(64, 6),
            frac=(sites + rng.uniform(-0.1, 0.1, sites.shape)) / 4)
        calls = count_tables(monkeypatch)
        fast = edge_tuples(neighbor_list(s, k=12))
        assert [window_spans(c).tolist() for c in calls] == [[2, 1, 1]]
        slow = edge_tuples(brute_force_neighbors(s, k=12, supercell_radius=1))
        assert [t[:3] for t in fast] == [t[:3] for t in slow]
        np.testing.assert_allclose([t[3] for t in fast],
                                   [t[3] for t in slow], rtol=0, atol=1e-12)

    def test_anisotropic_windows_differ_by_axis(self, monkeypatch):
        # Plane spacings 2.6, 2.6 and 13: a search radius that spans
        # several in-plane offsets stays within one layer spacing.
        s = CrystalStructure(
            lattice=np.diag([2.6, 2.6, 13.0]), species=np.array([6, 8, 6]),
            frac=np.array([[0.0, 0.0, 0.0], [0.5, 0.4, 0.1],
                           [0.2, 0.7, 0.55]]))
        for k in (4, 12, 20):
            calls = count_tables(monkeypatch)
            fast = edge_tuples(neighbor_list(s, k=k))
            spans = window_spans(calls[-1])
            assert spans[0] == spans[1] > spans[2]
            reach = max(t[3] for t in fast) / plane_spacing_min(s.lattice)
            slow = edge_tuples(brute_force_neighbors(
                s, k=k, supercell_radius=int(np.ceil(reach)) + 1))
            assert [t[:3] for t in fast] == [t[:3] for t in slow]
            np.testing.assert_allclose([t[3] for t in fast],
                                       [t[3] for t in slow], rtol=0,
                                       atol=1e-12)
            monkeypatch.undo()

    def test_brute_force_certifies_bound(self):
        s = CrystalStructure(lattice=np.eye(3), species=np.array([1]),
                             frac=np.zeros((1, 3)))
        with pytest.raises(RadiusTooSmallError):
            brute_force_neighbors(s, k=6, supercell_radius=0)


# Skewed 1-3 atom cells on a coarse grid (exact ties) with optional
# sub-TIE_TOL jitter (near ties).
GRID = st.integers(0, 3).map(lambda i: i / 4.0)
JITTER = st.sampled_from([0.0, 1e-9, 4e-9])


@st.composite
def tied_cells(draw):
    n = draw(st.integers(1, 3))
    diag = draw(st.lists(st.sampled_from([1.0, 1.5, 2.0, 2.5]),
                         min_size=3, max_size=3))
    shear = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                          min_size=3, max_size=3))
    lattice = np.diag(diag)
    lattice[1, 0], lattice[2, 0], lattice[2, 1] = shear
    lattice[0, 0] += draw(st.sampled_from([0.0, 0.6e-8, 1.2e-8]))
    assume(plane_spacing_min(lattice) > 0.4)
    frac = np.array([[draw(GRID) + draw(JITTER) for _ in range(3)]
                     for _ in range(n)])
    return CrystalStructure(lattice=lattice, species=np.full(n, 6),
                            frac=frac)


class TestTiedCellProperties:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(s=tied_cells(), k=st.integers(1, 12))
    def test_matches_brute_force(self, s, k):
        fast = edge_tuples(neighbor_list(s, k=k))
        reach = max(t[3] for t in fast) / plane_spacing_min(s.lattice)
        slow = edge_tuples(brute_force_neighbors(
            s, k=k, supercell_radius=int(np.ceil(reach)) + 1))
        assert [t[:3] for t in fast] == [t[:3] for t in slow]
        np.testing.assert_allclose([t[3] for t in fast],
                                   [t[3] for t in slow], rtol=0, atol=1e-12)


class TestInvariance:
    def test_rotation_preserves_graph(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            s = random_structure(rng)
            q = random_rotation(rng)
            rotated = CrystalStructure(lattice=s.lattice @ q,
                                       species=s.species, frac=s.frac)
            a = edge_tuples(neighbor_list(s, k=10))
            b = edge_tuples(neighbor_list(rotated, k=10))
            assert [t[:3] for t in a] == [t[:3] for t in b]
            np.testing.assert_allclose([t[3] for t in a], [t[3] for t in b],
                                       atol=1e-9)

    def test_origin_shift_preserves_distances(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            s = random_structure(rng, n_atoms=3)
            shift = rng.uniform(-1, 1, size=3)
            shifted = CrystalStructure(lattice=s.lattice,
                                       species=s.species,
                                       frac=s.frac + shift)
            a = sorted((e.src, e.dst, round(e.dist, 9))
                       for e in neighbor_list(s, k=8).edges)
            b = sorted((e.src, e.dst, round(e.dist, 9))
                       for e in neighbor_list(shifted, k=8).edges)
            assert a == b

    def test_vertex_relabeling_maps_edges(self):
        rng = np.random.default_rng(7)
        s = random_structure(rng, n_atoms=5)
        perm = rng.permutation(5)
        permuted = CrystalStructure(lattice=s.lattice,
                                    species=s.species[perm],
                                    frac=s.frac[perm])
        # New index i holds old atom perm[i], so perm maps labels back.
        a = sorted((int(perm[e.src]), int(perm[e.dst]), round(e.dist, 9))
                   for e in neighbor_list(permuted, k=6).edges)
        b = sorted((e.src, e.dst, round(e.dist, 9))
                   for e in neighbor_list(s, k=6).edges)
        assert a == b

    def test_supercell_preserves_local_distances(self, cubic1):
        doubled = CrystalStructure(lattice=np.diag([2.0, 1.0, 1.0]),
                                   species=np.array([6, 6]),
                                   frac=np.array([[0.0, 0.0, 0.0],
                                                  [0.5, 0.0, 0.0]]))
        base = neighbor_list(cubic1, k=6)
        big = neighbor_list(doubled, k=6)
        base_d = sorted(round(e.dist, 9) for e in base.edges)
        big_edges = big.edges
        for v in range(2):
            got = sorted(round(big_edges[i].dist, 9)
                         for i in np.flatnonzero(big.dst == v))
            assert got == base_d


class TestTieTolerance:
    def test_near_tie_grouped(self):
        # Distances differing by < 1e-8 sit in one tie group and order by
        # source index, regardless of which float is nominally smaller.
        eps = 1e-10
        s = CrystalStructure(
            lattice=np.diag([10.0, 10.0, 10.0]),
            species=np.array([1, 1, 1]),
            frac=np.array([[0.0, 0.0, 0.0],
                           [0.1, 0.0, 0.0],
                           [0.0, 0.1 + eps, 0.0]]))
        g = neighbor_list(s, k=2)
        first_two = [g.edges[i] for i in np.flatnonzero(g.dst == 0)]
        assert [e.src for e in first_two] == [1, 2]

    def test_chained_near_ties_group_by_start(self):
        # Axis lengths 1, 1 + 0.6e-8, 1 + 1.2e-8: each consecutive gap is
        # within TIE_TOL, but z is 1.2e-8 from the group start, so +-z open
        # a second group.  Grouping by consecutive gaps would merge all six
        # and pick (0, 0, -1) third.
        s = CrystalStructure(lattice=np.diag([1.0, 1.0 + 0.6e-8,
                                              1.0 + 1.2e-8]),
                             species=np.array([6]), frac=np.zeros((1, 3)))
        picks = {3: [(-1, 0, 0), (0, -1, 0), (0, 1, 0)],
                 5: [(-1, 0, 0), (0, -1, 0), (0, 1, 0), (1, 0, 0),
                     (0, 0, -1)]}
        for k, offsets in picks.items():
            g = neighbor_list(s, k=k)
            assert [e.offset for e in g.edges] == offsets
            assert edge_tuples(g) == edge_tuples(brute_force_neighbors(s, k=k))

    def test_clear_separation_orders_by_distance(self):
        s = CrystalStructure(
            lattice=np.diag([10.0, 10.0, 10.0]),
            species=np.array([1, 1, 1]),
            frac=np.array([[0.0, 0.0, 0.0],
                           [0.2, 0.0, 0.0],
                           [0.0, 0.1, 0.0]]))
        g = neighbor_list(s, k=2)
        first_two = [g.edges[i] for i in np.flatnonzero(g.dst == 0)]
        assert [e.src for e in first_two] == [2, 1]


class TestShellCap:
    def test_neighbor_list_names_plane_spacing(self, skewed1, monkeypatch):
        monkeypatch.setattr(qcnet.periodic, "_MAX_SHELL", 3)
        calls = count_tables(monkeypatch)
        with pytest.raises(LatticeTooSkewedError, match="plane spacing 0.008"):
            neighbor_list(skewed1, k=12)
        # No window spans more than 3 smallest plane spacings each way.
        assert calls and all(window_spans(c).max() <= 7 for c in calls)


def count_tables(monkeypatch):
    calls = []
    table = qcnet.periodic._candidate_table

    def counting(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(qcnet.periodic, "_candidate_table", counting)
    return calls


def window_spans(call):
    """Offsets per axis of a ``_candidate_table`` call's window."""
    grid = call[3]
    return grid.max(axis=1).astype(int) + 1


class TestBoxSize:
    def test_skewed_lattice_fails_after_two_tables(self, skewed1,
                                                   monkeypatch):
        # The k-th distance in the first window asks for a search radius
        # past the cap; the window at the cap is the last one built.
        calls = count_tables(monkeypatch)
        with pytest.raises(LatticeTooSkewedError, match="plane spacing"):
            neighbor_list(skewed1, k=12)
        assert len(calls) <= 2

    @pytest.mark.parametrize("case,k,offsets", [
        ("cube", 6, 27), ("cube", 14, 27), ("layered", 4, 9)])
    def test_equal_next_window_builds_one_table(self, monkeypatch, case, k,
                                                offsets):
        # The k-th distance equals the first radius, so the pass misses
        # r >= reach + TIE_TOL by TIE_TOL alone, and r = reach + TIE_TOL
        # gives the same windows: the first table stands.
        s = {"cube": CrystalStructure(
                 lattice=3.0 * np.eye(3), species=np.array([6]),
                 frac=np.zeros((1, 3))),
             "layered": CrystalStructure(
                 lattice=np.diag([2.6, 2.6, 13.0]),
                 species=np.array([6, 8, 6]),
                 frac=np.array([[0.0, 0.0, 0.0], [0.5, 0.4, 0.1],
                                [0.2, 0.7, 0.55]]))}[case]
        calls = count_tables(monkeypatch)
        g = neighbor_list(s, k=k)
        assert [c[3].shape[1] for c in calls] == [offsets]
        assert edge_tuples(g) == edge_tuples(
            brute_force_neighbors(s, k=k, supercell_radius=3))

    def test_k_beyond_first_box(self, cubic1):
        # A window of one plane spacing holds 26 images of the lone atom;
        # k=30 needs a wider one and breaks the distance-2 tie by offset.
        g = neighbor_list(cubic1, k=30)
        assert edge_tuples(g) == edge_tuples(brute_force_neighbors(cubic1,
                                                                   k=30))


def columns(g):
    return [a.tobytes() for a in (g.src, g.dst, g.offset, g.dist)]


class TestTableBlocks:
    """Filling the candidate table in blocks of target rows changes no
    bit of the graph."""

    @pytest.mark.parametrize("rows", [1, 3])
    def test_blocks_match_one_block(self, monkeypatch, rows):
        rng = np.random.default_rng(21)
        table = qcnet.periodic._candidate_table
        for n_atoms in (4, 7, 8, 11):  # none a multiple of 3
            s = random_structure(rng, n_atoms)
            windows = []

            def blocked(frac, lattice, lo, grid):
                # One block's (rows, n_grid, n, 3) separations for this
                # window, so every pass fills blocks of ``rows`` rows.
                monkeypatch.setattr(qcnet.periodic, "_TABLE_BLOCK_BYTES",
                                    rows * grid.shape[1] * n_atoms * 3 * 8)
                windows.append(grid.shape[1])
                return table(frac, lattice, lo, grid)

            calls = count_tables(monkeypatch)
            default = columns(neighbor_list(s, k=3))
            monkeypatch.setattr(qcnet.periodic, "_candidate_table", blocked)
            assert columns(neighbor_list(s, k=3)) == default
            # The same windows as the default fill.
            assert windows == [c[3].shape[1] for c in calls]
            monkeypatch.undo()
