"""Exact simplicial homology over the rationals, and vertex-gluing checks.

Complexes are finite abstract simplicial complexes on integer vertices,
stored closed under taking faces: from the top dimension down, each
dimension adds the facets of its simplices to the one below.  Boundary
matrices use the alternating sign convention on sorted vertex tuples
(the boundary of an edge (a, b) is (b) - (a)).  Ranks are exact over Q,
by fraction-free sparse elimination on Python ints.  Rows have one
format, a {column: int} dict: rank d_q = rank d_q^T, so each q-simplex
contributes one row {face index: +-1}.  A row v is reduced at its lowest
index against the stored pivot row p as a*v - b*p, then divided by the
gcd of its entries.  Betti numbers come from those ranks:
beta_q = n_q - rank d_q - rank d_{q+1}.

Of the boundary ranks, only those of d_q with q >= 2 are eliminated, once
per complex, and only when there are q-simplices: d_0 and an empty d_q
are zero.  d_1 is the incidence matrix of the 1-skeleton; its image is
the 0-chains whose coefficients sum to zero on each of the c connected
components, so rank d_1 = n_0 - c over Q, with c an exact union-find
count.  A gluing of K (below) adds only vertices and edges, so its d_q
for q >= 3 is K's matrix and its d_2 is K's with the face columns
renumbered (cone edges bound no triangle).  The ranks are equal, and the
glued complex takes them from K when first asked: checking several
gluings of K eliminates K's d_q once, and the gluings' none.  Its
components are K's joined by the cone edges, so its union-find starts
from K's component representatives and joins only those edges.

Identifying groups of vertices is modeled by attaching a cone: for each
class with at least two members, a fresh apex joined by an edge to every
member (the "star" gluing).  The glued complex deformation-retracts onto
the quotient space, so its homology is the quotient's.  Cone edges add
only vertices and edges, so a gluing reuses K's faces of dimension >= 2
and their positions as they are.  The map induced on homology by the
inclusion of the original complex is onto in degree 0, injective in
degree 1, and an isomorphism above; ``verify_quotient_homology``
machine-checks those statements by computing the rank of the induced map
H_q(K) -> H_q(K') from ranks alone:

    theta_q = n_q(K) - rank d_q(K) - rank d_{q+1}(K')
              + rank(d_{q+1}(K') restricted to q-simplices not in K).

The image is Z_q(K) / (Z_q(K) & B_q(K')), and B_q(K') lies in Z_q(K'), so
Z_q(K) & B_q(K') = C_q(K) & B_q(K'): the kernel of the restriction above.

The restriction is built from what K' adds to K alone.  A (q+1)-simplex
of K has all its faces in K, so its restricted row is empty: only the new
(q+1)-simplices of K' give rows, over the new q-simplices, and an empty
row set needs no elimination.  The new simplices are found once per pair
(K', K), by the rule ``contains`` uses too: K lies in K' when each of its
face lists does.  A list K' shares with K (a gluing's lists above
dimension 1) is contained and adds nothing, by identity; any other list
is scanned once, so a gluing's check costs O(vertices + edges).

An alternative "pairwise" gluing cones every *pair* inside a class instead.
For classes of size >= 3 it is not a deformation retract onto the quotient:
three mutually coned vertices create an extra cycle, so degree-1 homology
over-counts.  It is kept as a documented counterexample generator.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass
from fractions import Fraction


class SubcomplexError(ValueError):
    """Claimed subcomplex has simplices the bigger complex lacks."""


def _vertex(label) -> int:
    """An integral vertex label as an int; bools and non-integers raise."""
    if type(label) is int:
        return label
    if not isinstance(label, bool):
        try:
            return operator.index(label)
        except TypeError:
            pass
    raise ValueError(f"vertex label {label!r} is not an integer")


class SimplicialComplex:
    """Face-closed set of simplices, each a sorted tuple of int vertices."""

    def __init__(self, simplices):
        faces: dict[int, set[tuple[int, ...]]] = {}
        for simplex in simplices:
            vs = tuple(sorted(_vertex(v) for v in simplex))
            if not vs:
                raise ValueError("empty simplex")
            if len(set(vs)) != len(vs):
                raise ValueError(f"repeated vertex in simplex {vs}")
            faces.setdefault(len(vs) - 1, set()).add(vs)
        # Closed top-down: each dimension adds its facets to the one below.
        for q in range(max(faces, default=0), 0, -1):
            faces.setdefault(q - 1, set()).update(
                s[:i] + s[i + 1:] for s in faces[q] for i in range(q + 1))
        self._index_faces({q: sorted(faces[q]) for q in sorted(faces)}, {})

    def _index_faces(self, by_dim: dict[int, list[tuple[int, ...]]],
                     known: dict[int, dict[tuple[int, ...], int]]) -> None:
        """Take sorted face lists by dimension; number every list whose
        positions ``known`` does not already hold."""
        self.by_dim = by_dim
        self.index: dict[int, dict[tuple[int, ...], int]] = {
            q: known[q] if q in known else {s: i for i, s in enumerate(lst)}
            for q, lst in by_dim.items()}
        self._ranks: dict[int, int] = {}
        self._roots: dict[int, int] | None = None
        # The last complex asked about by _added_over, and the answer.
        self._added: tuple[SimplicialComplex, dict | None] | None = None
        # A gluing's K, to which it adds only vertices and cone edges.
        self._base: SimplicialComplex | None = None

    @property
    def dim(self) -> int:
        return max(self.by_dim) if self.by_dim else -1

    @property
    def vertices(self) -> list[int]:
        return [s[0] for s in self.by_dim.get(0, [])]

    def simplices(self, q: int) -> list[tuple[int, ...]]:
        return self.by_dim.get(q, [])

    def n(self, q: int) -> int:
        return len(self.by_dim.get(q, []))

    def contains(self, other: "SimplicialComplex") -> bool:
        return self._added_over(other) is not None

    def _added_over(self, K: "SimplicialComplex"
                    ) -> dict[int, list[tuple[int, ...]]] | None:
        """Our simplices not in K, by dimension, or None when K is not a
        subcomplex.  A face list we share with K (a gluing's lists above
        dimension 1) is contained and adds nothing, by identity; any other
        list is scanned once.  The answer for the last K is kept."""
        if self._added is None or self._added[0] is not K:
            added: dict | None = {}
            for q in self.by_dim.keys() | K.by_dim.keys():
                mine, inside = self.simplices(q), K.index.get(q, {})
                added[q] = [] if mine is K.simplices(q) else [
                    s for s in mine if s not in inside]
                if len(mine) - len(added[q]) != len(inside):
                    added = None
                    break
            self._added = (K, added)
        return self._added[1]

    def boundary_rank(self, q: int) -> int:
        """rank d_q, computed once per complex: d_0 and a d_q with no
        q-simplices are zero, d_1 is n_0 minus the 1-skeleton's components,
        and a gluing takes d_q for q >= 2 from the complex it glues (see the
        module docstring)."""
        if q < 1 or not self.n(q):
            return 0
        if q >= 2 and self._base is not None:
            return self._base.boundary_rank(q)
        if q not in self._ranks:
            self._ranks[q] = (
                self.n(0) - len(set(self._component_roots().values()))
                if q == 1 else
                matrix_rank(_boundary_rows(self, q), self.n(q - 1)))
        return self._ranks[q]

    def _component_roots(self) -> dict[int, int]:
        """Each vertex's representative in its 1-skeleton component, by
        union-find with path halving (iterative, so a long path cannot
        overflow the stack).  A gluing starts from K's representatives and
        joins only its cone edges."""
        if self._roots is None:
            base = self._base
            start, edges = ({}, self.simplices(1)) if base is None else (
                base._component_roots(), self._added_over(base).get(1, []))
            parent = {v: start.get(v, v) for v in self.vertices}

            def root(v: int) -> int:
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            for a, b in edges:
                parent[root(a)] = root(b)
            self._roots = {v: root(v) for v in parent}
        return self._roots


def _boundary_rows(K: SimplicialComplex, q: int,
                   faces: dict[tuple[int, ...], int] | None = None,
                   simplices: list[tuple[int, ...]] | None = None
                   ) -> list[dict[int, int]]:
    """d_q transposed: one {face position: +-1} row per q-simplex.

    ``simplices`` are the q-simplices that give rows (default: all of
    K's).  ``faces`` maps (q-1)-simplices to positions (default: all of
    K's); faces it lacks are dropped, which restricts d_q to those rows.
    """
    if faces is None:
        faces = K.index.get(q - 1, {})
    rows = []
    for simplex in K.simplices(q) if simplices is None else simplices:
        row = {}
        for i in range(len(simplex)):
            pos = faces.get(simplex[:i] + simplex[i + 1:])
            if pos is not None:
                row[pos] = -1 if i % 2 else 1
        rows.append(row)
    return rows


def _rref(rows: list[list[Fraction]],
          n_cols: int) -> tuple[int, list[list[Fraction]], list[int]]:
    m = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return r, m, pivots


def matrix_rank(rows, n_cols: int) -> int:
    """Exact rank over Q of sparse integer rows of width ``n_cols``.

    Each row is a {column: nonzero int} dict, and is used as given: it is
    neither copied nor changed.  A row that is not a dict raises
    TypeError, one with a zero entry ValueError; rational rows must be
    scaled to ints first (by the lcm of their denominators, say).
    Fraction-free elimination: each row is reduced at its lowest column
    against the pivot row stored there as a*v - b*p and divided by the gcd
    of its entries, until it is zero or starts a new pivot.  The rank is
    the number of pivots.  Only nonzero entries are visited, so ``n_cols``
    states the row width but bounds no work.
    """
    pivots: dict[int, dict[int, int]] = {}
    for v in rows:
        if not isinstance(v, dict):
            raise TypeError(f"matrix_rank rows are {{column: int}} dicts, "
                            f"not {type(v).__name__}")
        if 0 in v.values():
            raise ValueError(f"matrix_rank row has a zero entry: {v!r:.60}")
        while v:
            c = min(v)
            p = pivots.get(c)
            if p is None:
                pivots[c] = v
                break
            g = math.gcd(p[c], v[c])
            a, b = p[c] // g, v[c] // g
            v = {j: a * x for j, x in v.items()}
            for j, y in p.items():
                x = v.get(j, 0) - b * y
                if x:
                    v[j] = x
                else:
                    del v[j]
            g = math.gcd(*v.values())
            if g > 1:
                v = {j: x // g for j, x in v.items()}
    return len(pivots)


def nullspace_basis(rows: list[list[Fraction]],
                    n_cols: int) -> list[list[Fraction]]:
    """One basis vector per free column of the reduced form."""
    _, m, pivots = _rref(rows, n_cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r_idx, pc in enumerate(pivots):
            vec[pc] = -m[r_idx][free]
        basis.append(vec)
    return basis


def betti_numbers(K: SimplicialComplex, up_to: int | None = None) -> list[int]:
    """beta_0..beta_up_to (default: the complex dimension)."""
    top = K.dim if up_to is None else up_to
    return [K.n(q) - K.boundary_rank(q) - K.boundary_rank(q + 1)
            for q in range(top + 1)]


# -- vertex identification gluings ------------------------------------------

def normalize_partition(K: SimplicialComplex,
                        classes: list[list[int]]) -> list[list[int]]:
    """Sorted disjoint classes covering every vertex (singletons appended)."""
    seen: set[int] = set()
    verts = set(K.vertices)
    out = []
    for cls in classes:
        cls = sorted(_vertex(v) for v in cls)
        if not cls:
            continue
        for v in cls:
            if v not in verts:
                raise ValueError(f"partition names unknown vertex {v}")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two classes")
            seen.add(v)
        out.append(cls)
    out += [[v] for v in sorted(verts - seen)]
    return out


def _cone_gluing(K: SimplicialComplex,
                 groups: list[list[int]]) -> SimplicialComplex:
    """K plus one fresh apex per group, joined by an edge to each member.

    Cone edges add only vertices and edges, so the glued complex shares
    K's higher face lists and their positions; only the vertex and edge
    lists are rebuilt and numbered.  It also takes rank d_q for q >= 2
    from K, and starts its components from K's, when asked, so no rank is
    computed here.
    """
    by_dim = dict(K.by_dim)
    first = apex = max(K.vertices, default=-1) + 1
    edges = list(K.simplices(1))
    for group in groups:
        edges += [(v, apex) for v in group]  # every member is below apex
        apex += 1
    if apex > first:
        by_dim[0] = K.simplices(0) + [(a,) for a in range(first, apex)]
    if edges:
        by_dim[1] = sorted(edges)
    glued = SimplicialComplex.__new__(SimplicialComplex)
    glued._index_faces(by_dim, {q: K.index[q] for q in by_dim if q > 1})
    glued._base = K
    return glued


def star_gluing(K: SimplicialComplex,
                classes: list[list[int]]) -> SimplicialComplex:
    """Attach one apex per class of size >= 2, coned to all its members."""
    return _cone_gluing(K, [cls for cls in normalize_partition(K, classes)
                            if len(cls) >= 2])


def pairwise_gluing(K: SimplicialComplex,
                    classes: list[list[int]]) -> SimplicialComplex:
    """Attach one apex per *pair* inside each class.

    Not homotopy-equivalent to the quotient for classes of size >= 3: the
    apexes of pairs (a,b), (b,c), (a,c) together with the class members form
    an extra loop, inflating degree-1 homology.
    """
    return _cone_gluing(K, [list(pair)
                            for cls in normalize_partition(K, classes)
                            for pair in itertools.combinations(cls, 2)])


def inclusion_induced_rank(K: SimplicialComplex, K_big: SimplicialComplex,
                           q: int) -> int:
    """Rank of H_q(K) -> H_q(K_big) induced by the inclusion.

    dim Z_q(K) minus dim(C_q(K) & B_q(K_big)), the latter being rank
    d_{q+1}(K_big) minus the rank of d_{q+1}(K_big) restricted to the
    q-simplices of K_big not in K (see the module docstring).
    """
    added = K_big._added_over(K)
    if added is None:
        raise SubcomplexError("first complex is not contained in the second")
    # A (q+1)-simplex of K has all its faces in K: only new ones give rows.
    outside = {s: i for i, s in enumerate(added.get(q, []))}
    rows = _boundary_rows(K_big, q + 1, outside, added.get(q + 1, []))
    restricted = matrix_rank(rows, len(outside)) if outside and rows else 0
    return (K.n(q) - K.boundary_rank(q) - K_big.boundary_rank(q + 1)
            + restricted)


@dataclass
class QuotientHomologyReport:
    """Betti numbers, induced-map ranks, and the per-degree verdicts."""

    construction: str
    betti_base: list[int]
    betti_glued: list[int]
    theta_rank: list[int]
    h0_onto: bool
    h1_injective: bool
    h2_isomorphism: bool
    h3_isomorphism: bool

    @property
    def all_verified(self) -> bool:
        return (self.h0_onto and self.h1_injective
                and self.h2_isomorphism and self.h3_isomorphism)

    def to_dict(self) -> dict:
        return {**asdict(self), "all_verified": self.all_verified}


def verify_quotient_homology(K: SimplicialComplex, classes: list[list[int]],
                             construction: str = "star"
                             ) -> QuotientHomologyReport:
    """Check the induced-map statements degree by degree (up to 3)."""
    if construction == "star":
        glued = star_gluing(K, classes)
    elif construction == "pairwise":
        glued = pairwise_gluing(K, classes)
    else:
        raise ValueError(f"unknown construction '{construction}'")
    betti_base = betti_numbers(K, up_to=3)
    betti_glued = betti_numbers(glued, up_to=3)
    theta = [inclusion_induced_rank(K, glued, q) for q in range(4)]
    return QuotientHomologyReport(
        construction=construction,
        betti_base=betti_base,
        betti_glued=betti_glued,
        theta_rank=theta,
        h0_onto=theta[0] == betti_glued[0],
        h1_injective=theta[1] == betti_base[1],
        h2_isomorphism=(theta[2] == betti_base[2] == betti_glued[2]),
        h3_isomorphism=(theta[3] == betti_base[3] == betti_glued[3]))
