"""Quotient complexes: the k-NN multigraph closed under directed triangles.

A triangle is an ordered triple of existing edges
``e1 = (a -> b, o1)``, ``e2 = (b -> c, o2)``, ``e3 = (a -> c, o3)``
with the offset closure ``o3 = o1 + o2``.  The closure is what makes the
triple a genuine triangle of the infinite crystal graph: placing the images
``a`` at offset ``o1 + o2``, ``b`` at ``o2`` and ``c`` at ``0`` realizes all
three edges simultaneously, with pairwise distances equal to the edge
distances.  Vertices a, b, c need not be distinct in the cell (self-loop
chains close into triangles too); the three image points always are, because
every pair of them spans an edge of positive length.

Positional order within a triangle is e1 < e2 < e3, i.e.
(a,b) < (b,c) < (a,c).  Attention messages between edges flow from
lower-positioned to higher-positioned edges of a shared triangle.

Triangles are stored as the rows (e1, e2, e3) of one int64[t, 3] array of
edge indices; ``QuotientComplex.triangles`` builds ``Triangle`` records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .periodic import PeriodicGraph


@dataclass(frozen=True)
class Triangle:
    """Edge indices in positional order ((a,b), (b,c), (a,c))."""

    e1: int
    e2: int
    e3: int


@dataclass(frozen=True)
class MessagingPairs:
    """Flat (receiver, sender, coface) index triples for one tier.

    ``sigma`` and ``tau`` index the receiving tier's feature rows; ``coface``
    indexes the tier one dimension up.  Rows are sorted by receiver
    (``sigma`` non-decreasing), so each receiver's pairs are contiguous;
    within a receiver they keep the canonical order of the underlying
    edges or triangles.
    """

    sigma: np.ndarray
    tau: np.ndarray
    coface: np.ndarray

    @property
    def n_pairs(self) -> int:
        return int(self.sigma.size)


@dataclass
class QuotientComplex:
    """The k-NN multigraph plus all closed triangles: row i of ``tri``
    (int64[t, 3]) holds triangle i's edge indices (e1, e2, e3)."""

    graph: PeriodicGraph
    tri: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    @property
    def n_triangles(self) -> int:
        return int(self.tri.shape[0])

    @property
    def triangles(self) -> list[Triangle]:
        """The rows of ``tri`` as records, rebuilt on every access."""
        return [Triangle(*row) for row in self.tri.tolist()]


def build_complex(g: PeriodicGraph) -> QuotientComplex:
    """Close the edge multigraph under directed triangles.

    For every path e1 = (a -> b, o1), e2 = (b -> c, o2) the unique candidate
    closing edge is (a -> c, o1 + o2); the triple is a triangle iff that edge
    exists.  The same edge may serve as both e1 and e2 (self-loop chains).
    Triangles come out sorted by (e1, e2, e3).
    """
    # Paths (e1, e2) in sorted order: e1 ascending, then the edges leaving
    # e1's dst in index order (a stable sort by src keeps index order).
    by_src = np.argsort(g.src, kind="stable")
    start = np.searchsorted(g.src[by_src], np.arange(g.n_vertices + 1))
    # Path p of e1 takes edge p - (e1's first path) of those leaving dst(e1).
    n_out = np.diff(start)[g.dst]
    e1 = np.repeat(np.arange(g.n_edges), n_out)
    shift = np.repeat(start[g.dst] - (np.cumsum(n_out) - n_out), n_out)
    e2 = by_src[np.arange(e1.size) + shift]
    # Look up each closing edge (a -> c, o1 + o2) by its (src, dst, offset)
    # key packed into one int64.  |o1 + o2| <= span; offsets below 64
    # shells keep keys of cells up to ~700,000 atoms under 2^63.
    span = 2 * int(np.abs(g.offset).max(initial=0))
    radix = (2 * span + 1) ** np.arange(4)

    def pack(src, dst, offset):
        pair = src * g.n_vertices + dst
        return pair * radix[3] + (offset + span) @ radix[:3]

    keys = pack(g.src, g.dst, g.offset)
    order = np.argsort(keys)
    wanted = pack(g.src[e1], g.dst[e2], g.offset[e1] + g.offset[e2])
    e3 = order[np.minimum(np.searchsorted(keys, wanted, sorter=order),
                          g.n_edges - 1)]
    found = keys[e3] == wanted
    return QuotientComplex(g, np.stack([e1, e2, e3], axis=1)[found])


def triangle_image_points(c: QuotientComplex, t: int, frac: np.ndarray,
                          lattice: np.ndarray) -> np.ndarray:
    """Cartesian coordinates of the three images realizing triangle ``t``.

    Rows are a at offset o1+o2, b at o2, c at offset 0; their pairwise
    distances equal the three edge distances.
    """
    g = c.graph
    e1, e2, _ = c.tri[t]
    o2 = g.offset[e2]
    pts = np.stack([frac[g.src[e1]] + g.offset[e1] + o2,
                    frac[g.src[e2]] + o2,
                    frac[g.dst[e2]]])
    return pts @ lattice


def vertex_pairs(c: QuotientComplex) -> MessagingPairs:
    """One messaging pair per edge: receiver dst, sender src, coface the edge."""
    coface = np.arange(c.n_edges, dtype=np.int64)
    return MessagingPairs(sigma=c.graph.dst, tau=c.graph.src, coface=coface)


def edge_pairs(c: QuotientComplex) -> MessagingPairs:
    """Three pairs per triangle, senders positioned lower than receivers.

    For a triangle (e1, e2, e3): e2 hears from e1, e3 hears from e1 and e2.
    Pairs are stably sorted by receiver, so a receiver's pairs run in
    triangle order, and within one triangle e3 hears from e1 first.
    """
    sigma = c.tri[:, [1, 2, 2]].ravel()
    order = np.argsort(sigma, kind="stable")
    return MessagingPairs(
        sigma=sigma[order], tau=c.tri[:, [0, 0, 1]].ravel()[order],
        coface=np.repeat(np.arange(c.n_triangles, dtype=np.int64), 3)[order])


def complex_json(c: QuotientComplex) -> str:
    """Serialize edges and triangles (with their offsets) deterministically."""
    g = c.graph
    offsets = g.offset.tolist()
    edges = [{"src": s, "dst": d, "offset": o, "dist": x} for s, d, o, x in
             zip(g.src.tolist(), g.dst.tolist(), offsets, g.dist.tolist())]
    triangles = [{"e": row, "offsets": [offsets[i] for i in row]}
                 for row in c.tri.tolist()]
    return json.dumps({"edges": edges, "triangles": triangles},
                      sort_keys=True, separators=(",", ":")) + "\n"
