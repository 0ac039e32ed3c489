"""Exact simplicial homology and the vertex-gluing theorem checks."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcnet.homology
from qcnet.homology import (SimplicialComplex, SubcomplexError,
                            _boundary_rows, betti_numbers,
                            inclusion_induced_rank, matrix_rank,
                            normalize_partition, nullspace_basis,
                            pairwise_gluing, star_gluing,
                            verify_quotient_homology)

from conftest import random_flag_complex, random_partition


class TestSimplicialComplex:
    def test_face_closure(self):
        K = SimplicialComplex([[0, 1, 2, 3]])
        assert [K.n(q) for q in range(4)] == [4, 6, 4, 1]
        assert K.dim == 3
        assert K.contains(SimplicialComplex([[0, 1, 2]]))

    def test_duplicates_and_order_ignored(self):
        a = SimplicialComplex([[2, 1], [1, 2], [0]])
        b = SimplicialComplex([[1, 2], [0]])
        assert a.simplices(1) == b.simplices(1)
        assert a.n(0) == 3

    def test_vertices_sorted(self):
        K = SimplicialComplex([[5], [1], [3]])
        assert K.vertices == [1, 3, 5]

    def test_contains_negative(self):
        K = SimplicialComplex([[0, 1]])
        assert not K.contains(SimplicialComplex([[0, 2]]))

    @pytest.mark.parametrize("label", [1.5, 2.0, True, "1", None])
    def test_non_integer_label_rejected(self, label):
        with pytest.raises(ValueError, match="not an integer"):
            SimplicialComplex([[0, label], [1, 2]])

    def test_numpy_integer_labels_accepted(self):
        K = SimplicialComplex([[np.int64(0), np.int32(1)]])
        assert K.simplices(1) == [(0, 1)]
        assert all(type(v) is int for v in K.vertices)

    @staticmethod
    def brute_closure(simplices):
        """Every nonempty vertex subset of every input simplex, sorted
        and grouped by dimension."""
        faces = set()
        for simplex in simplices:
            vs = tuple(sorted(int(v) for v in simplex))
            for size in range(1, len(vs) + 1):
                faces.update(itertools.combinations(vs, size))
        by_dim = {}
        for face in sorted(faces):
            by_dim.setdefault(len(face) - 1, []).append(face)
        return by_dim

    @staticmethod
    def random_inputs(rng):
        """Simplex lists in random order, with duplicates, only top
        simplices, or numpy integer labels."""
        labels = [int(x) for x in rng.choice(np.arange(-40, 40), 9,
                                             replace=False)]
        simplices = [list(rng.choice(labels, int(rng.integers(1, 6)),
                                     replace=False))
                     for _ in range(int(rng.integers(0, 12)))]
        kind = int(rng.integers(4))
        if kind == 0:  # faces listed too, the whole list shuffled
            simplices += [s[:-1] for s in simplices if len(s) > 1]
            rng.shuffle(simplices)
        elif kind == 1:  # duplicates, reversed vertex order
            simplices += [s[::-1] for s in simplices[:3]]
        elif kind == 2:  # top simplices only: drop faces of other inputs
            sets = [set(s) for s in simplices]
            simplices = [s for s, a in zip(simplices, sets)
                         if not any(a < b for b in sets)]
        if kind != 3:  # kind 3 keeps numpy integer labels
            simplices = [[int(v) for v in s] for s in simplices]
        return simplices

    def test_closure_matches_brute_force(self):
        rng = np.random.default_rng(89)
        for _ in range(200):
            simplices = self.random_inputs(rng)
            ref = self.brute_closure(simplices)
            K = SimplicialComplex(simplices)
            assert K.by_dim == ref
            assert list(K.by_dim) == list(ref)  # dimensions ascending
            assert K.index == {q: {s: i for i, s in enumerate(lst)}
                               for q, lst in ref.items()}
            assert all(type(v) is int for q in K.by_dim
                       for s in K.simplices(q) for v in s)

    @pytest.mark.parametrize("simplices, message", [
        ([[0, 1], []], "empty simplex"),
        ([[0, 1], [2, 1, 2]], "repeated vertex in simplex (1, 2, 2)"),
        ([[0, 1], [1, True]], "vertex label True is not an integer"),
        ([[0, 1], [1.0, 2]], "vertex label 1.0 is not an integer"),
        ([[0, 1], [np.float64(2.5)]],
         f"vertex label {np.float64(2.5)!r} is not an integer"),
    ], ids=["empty", "repeated", "bool", "float", "numpy-float"])
    def test_invalid_simplex_messages(self, simplices, message):
        with pytest.raises(ValueError) as err:
            SimplicialComplex(simplices)
        assert str(err.value) == message


def integer_row(row):
    """A dense rational row as a {column: int} dict, scaled by the lcm of
    its denominators."""
    exact = [Fraction(x) for x in row]
    scale = math.lcm(*(x.denominator for x in exact))
    return {j: int(x * scale) for j, x in enumerate(exact) if x}


class TestBoundaryOperators:
    def test_single_edge_column(self):
        K = SimplicialComplex([[0, 1]])
        # d(0,1) = (1) - (0): -1 on vertex 0, +1 on vertex 1.
        assert _boundary_rows(K, 1) == [{0: -1, 1: 1}]

    def test_d0_is_zero_map(self):
        K = SimplicialComplex([[0, 1]])
        assert _boundary_rows(K, 0) == [{}, {}]
        assert K.boundary_rank(0) == 0

    def test_dd_zero(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            K = random_flag_complex(6, 0.6, rng)
            for q in range(1, 4):
                lower = _boundary_rows(K, q)
                for row in _boundary_rows(K, q + 1):
                    total = Counter()
                    for face, sign in row.items():
                        for sub, sub_sign in lower[face].items():
                            total[sub] += sign * sub_sign
                    assert not any(total.values())

    def test_tetra_boundary_ranks(self):
        K = SimplicialComplex([[0, 1, 2, 3]])
        assert [K.boundary_rank(q) for q in (1, 2, 3)] == [3, 3, 1]
        assert [matrix_rank(_boundary_rows(K, q), K.n(q - 1))
                for q in (1, 2, 3)] == [3, 3, 1]


def eliminated_d1(K):
    return matrix_rank(_boundary_rows(K, 1), K.n(0))


class TestComponentRank:
    """rank d_1 = n_0 - components, against elimination of d_1."""

    CASES = {
        "two-paths-and-point": [[0, 1], [1, 2], [3, 4], [5]],
        "triangle-and-square": [[0, 1], [1, 2], [0, 2], [10, 11], [11, 12],
                                [12, 13], [10, 13]],
        "negative-labels": [[-5, -1], [-1, 3], [-7, -6], [-9]],
        "huge-labels": [[10 ** 30, -(10 ** 30)], [10 ** 30, 2 ** 70],
                        [2 ** 64, 2 ** 64 + 1], [0]],
        "filled": [[0, 1, 2, 3], [4, 5, 6], [6, 7]],
        "edgeless": [[0], [-3], [10 ** 20]],
        "empty": [],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_elimination(self, case):
        K = SimplicialComplex(self.CASES[case])
        assert K.boundary_rank(1) == eliminated_d1(K)

    def test_random_disconnected_graphs(self):
        rng = np.random.default_rng(85)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            labels = [int(x) for x in
                      rng.choice(np.arange(-10 ** 6, 10 ** 6), n,
                                 replace=False)]
            edges = [[labels[a], labels[b]]
                     for a, b in rng.integers(0, n, size=(n // 2, 2))
                     if a != b]
            K = SimplicialComplex([[v] for v in labels] + edges)
            assert K.boundary_rank(1) == eliminated_d1(K)

    def test_long_path(self):
        K = SimplicialComplex([[i, i + 1] for i in range(4999)])
        assert K.n(0) == 5000
        assert K.boundary_rank(1) == 4999 == eliminated_d1(K)


class TestExactLinearAlgebra:
    def test_rank_against_float_svd(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            a = rng.integers(-3, 4, size=(m, n))
            rows = [{j: int(x) for j, x in enumerate(row) if x} for row in a]
            assert matrix_rank(rows, n) == np.linalg.matrix_rank(a)

    def test_nullspace_vectors_in_kernel(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            a = rng.integers(-2, 3, size=(m, n))
            rows = [[Fraction(int(x)) for x in row] for row in a]
            basis = nullspace_basis(rows, n)
            sparse = [integer_row(row) for row in rows]
            assert len(basis) == n - matrix_rank(sparse, n)
            for vec in basis:
                for row in rows:
                    assert sum(r * v for r, v in zip(row, vec)) == 0

    def test_exactness_with_awkward_fractions(self):
        rows = [[Fraction(1, 3), Fraction(1, 7)],
                [Fraction(2, 3), Fraction(2, 7)]]
        assert matrix_rank([integer_row(row) for row in rows], 2) == 1
        # Equal as floats, independent as ints.
        big = 10 ** 30
        assert matrix_rank([{0: big, 1: 1}, {0: big + 1, 1: 1}], 2) == 2

    @pytest.mark.parametrize("row", [[1, 0], (1, 0), [Fraction(1)]],
                             ids=["list", "tuple", "fractions"])
    def test_dense_row_rejected(self, row):
        with pytest.raises(TypeError, match="dicts"):
            matrix_rank([{0: 1}, row], 2)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="zero entry"):
            matrix_rank([{0: 1}, {0: 0, 1: 1}], 2)

    def test_rows_used_as_given(self):
        rows = [{0: 2, 1: 4}, {0: 3, 2: 1}, {0: 1, 1: 2}]
        before = [dict(row) for row in rows]
        assert matrix_rank(rows, 3) == 2
        assert rows == before


class TestBetti:
    def test_point_and_edge(self):
        assert betti_numbers(SimplicialComplex([[0]])) == [1]
        assert betti_numbers(SimplicialComplex([[0, 1]])) == [1, 0]

    def test_circle(self):
        K = SimplicialComplex([[0, 1], [1, 2], [2, 3], [0, 3]])
        assert betti_numbers(K) == [1, 1]

    def test_two_components(self):
        K = SimplicialComplex([[0, 1], [2, 3]])
        assert betti_numbers(K) == [2, 0]

    def test_solid_tetra_contractible(self):
        K = SimplicialComplex([[0, 1, 2, 3]])
        assert betti_numbers(K, up_to=3) == [1, 0, 0, 0]

    def test_sphere_octahedron(self):
        faces = [[0, 2, 4], [0, 2, 5], [0, 3, 4], [0, 3, 5],
                 [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5]]
        K = SimplicialComplex(faces)
        assert betti_numbers(K) == [1, 0, 1]

    def test_graph_beta1_formula(self):
        # beta1 = E - V + C for any 1-complex; C from an independent
        # union-find pass.
        rng = np.random.default_rng(73)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            edges = set()
            for _ in range(int(rng.integers(0, 12))):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    edges.add((min(a, b), max(a, b)))
            simplices = [[v] for v in range(n)] + [list(e) for e in edges]
            K = SimplicialComplex(simplices)
            parent = list(range(n))
            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x
            for a, b in edges:
                parent[find(int(a))] = find(int(b))
            c = len({find(v) for v in range(n)})
            betti = betti_numbers(K, up_to=1)
            assert betti[0] == c
            assert betti[1] == len(edges) - n + c

    def test_euler_characteristic_identity(self):
        rng = np.random.default_rng(74)
        for _ in range(15):
            K = random_flag_complex(int(rng.integers(3, 8)),
                                    float(rng.uniform(0.2, 0.8)), rng)
            chi_count = sum((-1) ** q * K.n(q) for q in range(K.dim + 1))
            chi_betti = sum((-1) ** q * b
                            for q, b in enumerate(betti_numbers(K)))
            assert chi_count == chi_betti


class TestGluings:
    def test_normalize_partition_validates(self):
        K = SimplicialComplex([[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            normalize_partition(K, [[0, 1], [1, 2]])  # overlap
        with pytest.raises(ValueError):
            normalize_partition(K, [[0, 9]])  # unknown vertex
        out = normalize_partition(K, [[0, 2]])
        assert out == [[0, 2], [1]]

    @pytest.mark.parametrize("label", [2.7, 2.0, False, "2"])
    def test_partition_non_integer_label_rejected(self, label):
        K = SimplicialComplex([[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="not an integer"):
            normalize_partition(K, [[0, label]])

    def test_star_adds_one_apex_per_big_class(self):
        K = SimplicialComplex([[0, 1], [1, 2], [2, 3]])
        glued = star_gluing(K, [[0, 3], [1], [2]])
        assert len(glued.vertices) == 5  # one apex for the pair
        assert glued.n(1) == 3 + 2

    def test_pairwise_adds_one_apex_per_pair(self):
        K = SimplicialComplex([[0, 1], [1, 2]])
        glued = pairwise_gluing(K, [[0, 1, 2]])
        assert len(glued.vertices) == 3 + 3
        assert glued.n(1) == 2 + 6

    @staticmethod
    def reclosed(K, groups):
        """The cone gluing rebuilt from scratch: K's faces plus one edge
        (member, apex) per member, closed again under faces."""
        apex = max(K.vertices, default=-1) + 1
        simplices = [s for q in K.by_dim for s in K.simplices(q)]
        for group in groups:
            simplices += [(v, apex) for v in group]
            apex += 1
        return SimplicialComplex(simplices)

    @staticmethod
    def groups(K, classes, construction):
        partition = normalize_partition(K, classes)
        if construction == "star":
            return [cls for cls in partition if len(cls) >= 2]
        return [pair for cls in partition
                for pair in itertools.combinations(cls, 2)]

    EDGE_CASES = {
        "no-groups": ([[0, 1, 2], [2, 3]], [[1], [3]]),
        "no-edges": ([[0], [1], [2], [5]], [[0, 2, 5]]),
        "empty": ([], []),
    }

    @pytest.mark.parametrize("construction", ["star", "pairwise"])
    def test_gluing_equals_reclosed_reference(self, construction):
        rng = np.random.default_rng(79)
        cases = [(SimplicialComplex(simplices), classes)
                 for simplices, classes in self.EDGE_CASES.values()]
        for _ in range(40):
            K = random_flag_complex(int(rng.integers(2, 10)),
                                    float(rng.uniform(0.2, 0.9)), rng)
            cases.append((K, random_partition(K.vertices, rng)))
        glue = {"star": star_gluing, "pairwise": pairwise_gluing}
        for K, classes in cases:
            glued = glue[construction](K, classes)
            ref = self.reclosed(K, self.groups(K, classes, construction))
            assert glued.by_dim == ref.by_dim, classes
            assert glued.index == ref.index, classes
            assert glued.dim == ref.dim, classes
            for q in range(1, 5):
                assert glued.boundary_rank(q) == matrix_rank(
                    _boundary_rows(ref, q), ref.n(q - 1)), (q, classes)

    def test_gluing_eliminates_nothing(self, monkeypatch):
        calls = []
        rank = qcnet.homology.matrix_rank
        monkeypatch.setattr(qcnet.homology, "matrix_rank",
                            lambda *args: calls.append(args) or rank(*args))
        K = random_flag_complex(8, 0.7, np.random.default_rng(87))
        star = star_gluing(K, [[0, 1, 2], [3, 4]])
        pair = pairwise_gluing(K, [[0, 1, 2], [3, 4]])
        assert calls == []
        # Once K knows its ranks, a gluing's d_q for q >= 2 are K's.
        higher = [K.boundary_rank(q) for q in range(2, 5)]
        # K has no 4-simplices: d_4 is zero with no elimination.
        assert K.n(4) == 0 and higher[2] == 0
        assert len(calls) == 2
        for glued in (star, pair):
            assert [glued.boundary_rank(q) for q in range(2, 5)] == higher
        assert len(calls) == 2

    def test_pairwise_then_star_eliminates_k_once(self, monkeypatch):
        K = random_flag_complex(9, 0.7, np.random.default_rng(88))
        assert K.n(3) > 0
        built = Counter()
        rows = qcnet.homology._boundary_rows

        def recording(L, q, faces=None, simplices=None):
            if faces is None:  # a whole d_q, as boundary_rank builds it
                built["K" if L is K else "glued", q] += 1
            return rows(L, q, faces, simplices)

        monkeypatch.setattr(qcnet.homology, "_boundary_rows", recording)
        classes = [[0, 1, 2], [3, 4], [5, 6, 7, 8]]
        verify_quotient_homology(K, classes, "pairwise")
        verify_quotient_homology(K, classes, "star")
        assert built == {("K", 2): 1, ("K", 3): 1}

    def test_gluing_shares_higher_faces(self):
        K = SimplicialComplex([[0, 1, 2, 3]])
        glued = star_gluing(K, [[0, 3]])
        for q in (2, 3):
            assert glued.by_dim[q] is K.by_dim[q]
            assert glued.index[q] is K.index[q]
        assert K.n(0) == 4 and K.n(1) == 6  # K itself is unchanged

    def test_three_path_counterexample(self):
        # One class holding all three path vertices: the star complex
        # deformation-retracts onto the quotient (a wedge of two circles),
        # the pairwise complex picks up a third loop.
        K = SimplicialComplex([[0, 1], [1, 2]])
        star = verify_quotient_homology(K, [[0, 1, 2]], "star")
        pair = verify_quotient_homology(K, [[0, 1, 2]], "pairwise")
        assert star.betti_glued[1] == 2
        assert pair.betti_glued[1] == 3
        assert star.all_verified

    def test_five_path_single_class(self):
        K = SimplicialComplex([[0, 1], [1, 2], [2, 3], [3, 4]])
        rep = verify_quotient_homology(K, [[0, 1, 2, 3, 4]], "star")
        assert rep.betti_glued[0] == 1
        assert rep.betti_glued[1] == 4
        assert rep.all_verified

    def test_classes_of_two_agree_across_constructions(self):
        rng = np.random.default_rng(75)
        for _ in range(10):
            K = random_flag_complex(6, 0.5, rng)
            verts = K.vertices
            classes = [[verts[0], verts[1]], [verts[2], verts[3]]]
            a = verify_quotient_homology(K, classes, "star")
            b = verify_quotient_homology(K, classes, "pairwise")
            assert a.betti_glued == b.betti_glued


class TestInducedMaps:
    def test_identity_inclusion_has_full_rank(self):
        rng = np.random.default_rng(76)
        for _ in range(5):
            K = random_flag_complex(6, 0.5, rng)
            betti = betti_numbers(K, up_to=2)
            for q in range(3):
                assert inclusion_induced_rank(K, K, q) == betti[q]

    def test_circle_filled_in_bigger_complex(self):
        circle = SimplicialComplex([[0, 1], [1, 2], [0, 2]])
        disk = SimplicialComplex([[0, 1, 2]])
        assert inclusion_induced_rank(circle, disk, 1) == 0
        assert inclusion_induced_rank(circle, disk, 0) == 1

    def test_subcomplex_check(self):
        K = SimplicialComplex([[0, 1]])
        other = SimplicialComplex([[0, 2]])
        with pytest.raises(SubcomplexError):
            inclusion_induced_rank(K, other, 0)

    def test_subcomplex_check_above_the_edges(self):
        # Same vertices and edges; only K has the triangle.
        K = SimplicialComplex([[0, 1, 2]])
        hollow = SimplicialComplex([[0, 1], [1, 2], [0, 2]])
        assert not hollow.contains(K) and K.contains(hollow)
        for q in range(4):
            with pytest.raises(SubcomplexError):
                inclusion_induced_rank(K, hollow, q)

    def test_gluing_eliminates_only_rows_of_new_simplices(self,
                                                          monkeypatch):
        K = random_flag_complex(8, 0.7, np.random.default_rng(90))
        for glue in (star_gluing, pairwise_gluing):
            glued = glue(K, [[0, 1, 2], [3, 4]])
            betti_numbers(K, up_to=4)
            betti_numbers(glued, up_to=4)
            calls = []
            rank = qcnet.homology.matrix_rank
            monkeypatch.setattr(qcnet.homology, "matrix_rank",
                                lambda *a: calls.append(a) or rank(*a))
            theta = [inclusion_induced_rank(K, glued, q) for q in range(4)]
            monkeypatch.undo()
            assert theta == [oracle_theta(K, glued, q) for q in range(4)]
            # Only d_1 restricted to the apexes: one row per cone edge.
            [(rows, n_cols)] = calls
            assert n_cols == glued.n(0) - K.n(0)
            assert len(rows) == glued.n(1) - K.n(1)


class TestTheoremFuzz:
    def test_star_construction_verdicts_hold(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            K = random_flag_complex(n, float(rng.uniform(0.2, 0.9)), rng)
            classes = random_partition(K.vertices, rng)
            rep = verify_quotient_homology(K, classes, "star")
            assert rep.all_verified, (n, classes, rep.to_dict())

    def test_random_partition_covers(self):
        rng = np.random.default_rng(78)
        verts = list(range(7))
        for _ in range(10):
            classes = random_partition(verts, rng)
            flat = sorted(v for cls in classes for v in cls)
            assert flat == verts

    def test_unknown_construction(self):
        K = SimplicialComplex([[0, 1]])
        with pytest.raises(ValueError):
            verify_quotient_homology(K, [[0, 1]], "cone")


# -- independent oracle: dense Fraction Gauss-Jordan, cycle-basis theta ----

def oracle_rref(rows, n_cols):
    """Reduced row echelon form over Fraction: (rank, rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return len(pivots), m, pivots


def oracle_rank(rows, n_cols):
    return oracle_rref(rows, n_cols)[0]


def oracle_boundary(K, q):
    """Dense d_q (rows (q-1)-simplices, columns q-simplices), built here."""
    cols = K.simplices(q)
    if q == 0:
        return [], len(cols)
    where = {f: i for i, f in enumerate(K.simplices(q - 1))}
    rows = [[Fraction(0)] * len(cols) for _ in where]
    for j, s in enumerate(cols):
        for i in range(len(s)):
            rows[where[s[:i] + s[i + 1:]]][j] = Fraction((-1) ** i)
    return rows, len(cols)


def oracle_betti(K, up_to):
    ranks = [oracle_rank(*oracle_boundary(K, q)) for q in range(up_to + 2)]
    return [K.n(q) - ranks[q] - ranks[q + 1] for q in range(up_to + 1)]


def oracle_theta(K, K_big, q):
    """rank([embedded cycle basis of K | boundaries of K_big]) minus the
    rank of the boundaries."""
    rows, n_cols = oracle_boundary(K, q)
    _, m, pivots = oracle_rref(rows, n_cols)
    cycles = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][free]
        cycles.append(vec)
    big = {s: i for i, s in enumerate(K_big.simplices(q))}
    embedded = []
    for vec in cycles:
        col = [Fraction(0)] * len(big)
        for local, value in enumerate(vec):
            col[big[K.simplices(q)[local]]] = value
        embedded.append(col)
    b_rows, b_cols = oracle_boundary(K_big, q + 1)
    stacked = [[col[r] for col in embedded] + b_rows[r]
               for r in range(len(big))]
    return (oracle_rank(stacked, len(embedded) + b_cols)
            - oracle_rank(b_rows, b_cols))


def clique_simplices(n, edges, max_dim=3):
    """Vertex lists of the clique complex of the graph ``edges`` on
    range(n), up to dimension max_dim."""
    return [list(combo) for size in range(1, max_dim + 2)
            for combo in itertools.combinations(range(n), size)
            if all(p in edges for p in itertools.combinations(combo, 2))]


def fuzzed_instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        K = random_flag_complex(n, float(rng.uniform(0.2, 0.9)), rng)
        yield K, random_partition(K.vertices, rng)


GLUINGS = {"star": star_gluing, "pairwise": pairwise_gluing}


class TestAgainstOracle:
    def test_boundary_ranks(self):
        for K, _ in fuzzed_instances(80, 25):
            for q in range(5):
                rank = oracle_rank(*oracle_boundary(K, q))
                assert K.boundary_rank(q) == rank
                assert matrix_rank(_boundary_rows(K, q), K.n(q - 1)) == rank

    def test_betti_numbers(self):
        for K, classes in fuzzed_instances(81, 25):
            for glue in GLUINGS.values():
                for L in (K, glue(K, classes)):
                    assert betti_numbers(L, up_to=3) == oracle_betti(L, 3)

    @pytest.mark.parametrize("construction", sorted(GLUINGS))
    def test_induced_ranks(self, construction):
        for K, classes in fuzzed_instances(82, 25):
            glued = GLUINGS[construction](K, classes)
            for q in range(4):
                assert inclusion_induced_rank(K, glued, q) == \
                    oracle_theta(K, glued, q), (q, classes)

    def test_induced_ranks_of_flag_supercomplexes(self):
        # K_big is the clique complex of a supergraph of K's graph, on
        # more vertices; K keeps a random part of its own clique complex.
        # So K_big adds edges, triangles and tetrahedra, and the rows for
        # q >= 1 come from new simplices.
        rng = np.random.default_rng(91)
        added = Counter()
        for _ in range(40):
            n = int(rng.integers(3, 9))
            pairs = list(itertools.combinations(range(n + 2), 2))
            small = {p for p in pairs if max(p) < n and rng.random() < 0.5}
            big = small | {p for p in pairs if rng.random() < 0.3}
            own = clique_simplices(n, small)
            K = SimplicialComplex([[v] for v in range(n)] + [
                s for s in own if rng.random() < 0.6])
            K_big = SimplicialComplex(clique_simplices(n + 2, big))
            assert K_big.contains(K)
            for q in range(4):
                added[q] += K_big.n(q) - K.n(q)
                assert inclusion_induced_rank(K, K_big, q) == \
                    oracle_theta(K, K_big, q), (q, small, big)
        assert all(added[q] > 0 for q in range(4))

    @pytest.mark.parametrize("construction", sorted(GLUINGS))
    @pytest.mark.parametrize("k_first", [True, False],
                             ids=["K-first", "gluing-first"])
    def test_gluing_betti_either_order(self, construction, k_first):
        for K, classes in fuzzed_instances(92, 25):
            glued = GLUINGS[construction](K, classes)
            first, second = (K, glued) if k_first else (glued, K)
            betti = {id(L): betti_numbers(L, up_to=3)
                     for L in (first, second)}
            assert betti[id(K)] == oracle_betti(K, 3)
            assert betti[id(glued)] == oracle_betti(glued, 3), classes

    def test_induced_ranks_identity_inclusion(self):
        for K, _ in fuzzed_instances(83, 25):
            for q in range(4):
                assert inclusion_induced_rank(K, K, q) == \
                    oracle_theta(K, K, q) == oracle_betti(K, 3)[q]

    @pytest.mark.parametrize("construction", sorted(GLUINGS))
    def test_reports(self, construction):
        for K, classes in fuzzed_instances(84, 25):
            glued = GLUINGS[construction](K, classes)
            base, top = oracle_betti(K, 3), oracle_betti(glued, 3)
            theta = [oracle_theta(K, glued, q) for q in range(4)]
            rep = verify_quotient_homology(K, classes, construction)
            assert rep.betti_base == base
            assert rep.betti_glued == top
            assert rep.theta_rank == theta
            assert rep.h0_onto == (theta[0] == top[0])
            assert rep.h1_injective == (theta[1] == base[1])
            assert rep.h2_isomorphism == (theta[2] == base[2] == top[2])
            assert rep.h3_isomorphism == (theta[3] == base[3] == top[3])


def rational_matrices():
    """(rows, n_cols): rational combinations of a few rational base rows,
    so ranks below full occur; entries have non-unit denominators."""
    entry = st.one_of(st.just(Fraction(0)),
                      st.fractions(-4, 4, max_denominator=9))

    @st.composite
    def build(draw):
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        r = draw(st.integers(0, min(m, n)))
        base = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=r, max_size=r))
        coef = draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                             min_size=m, max_size=m))
        rows = [[sum((c * b[j] for c, b in zip(cs, base)), Fraction(0))
                 for j in range(n)] for cs in coef]
        return rows, n
    return build()


class TestRankProperties:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(mat=rational_matrices(), data=st.data())
    def test_rank_matches_oracle_and_is_invariant(self, mat, data):
        rows, n = mat
        rank = oracle_rank(rows, n)
        ints = [integer_row(row) for row in rows]
        assert matrix_rank(ints, n) == rank
        order = data.draw(st.permutations(range(len(rows))))
        assert matrix_rank([ints[i] for i in order], n) == rank
        scales = data.draw(st.lists(
            st.fractions(-5, 5, max_denominator=7).filter(bool),
            min_size=len(rows), max_size=len(rows)))
        assert matrix_rank([integer_row([s * x for x in row])
                            for s, row in zip(scales, rows)], n) == rank
