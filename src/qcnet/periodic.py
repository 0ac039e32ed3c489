"""Periodic k-nearest-neighbor graphs over crystal unit cells.

Every atom of the unit cell is a vertex.  For each vertex v the k nearest
periodic images of cell atoms (excluding v's own untranslated image) become
directed edges image -> v, so every vertex has in-degree exactly k.  An edge
carries the integer lattice offset of the source image, which is what makes
the graph a quotient of the infinite crystal graph rather than a plain
nearest-neighbor list: self-loops (src == dst with nonzero offset) and
parallel edges with different offsets are meaningful and kept.

The graph is stored as edge columns (``src``, ``dst``, ``offset``, ``dist``);
``PeriodicGraph.edges`` builds ``PeriodicEdge`` records from them.

One search loop builds the graph.  For a search radius r, atom u's image
at integer offset o can lie within r of target v only if
|f_u,i + o_i - f_v,i| <= r / h_i on every axis i (f fractional coordinates,
h_i the spacing between adjacent lattice planes of axis i).  So each (v, u)
pair tabulates a window of floor(2 r / h_i) + 1 offsets per axis, starting
at ceil(f_v,i - f_u,i - r / h_i): one offset on any axis wider than 2 r.
Zero-distance images are marked unavailable, and each target's k
candidates are picked in (distance tie group, src, offset) order.

The windows hold every image within r.  With L the lattice row matrix and
c_i the columns of L^-1, any separation vector y.L satisfies
|y_i| <= |y.L| * |c_i| = |y.L| / h_i, so an image within r has
|y_i| <= r / h_i on every axis.  A pass therefore stands when
r >= reach + TIE_TOL, reach being the largest k-th smallest candidate
distance of any target: its windows hold every member of each tie group
that starts at or below a target's k-th smallest distance, so the
untabulated images cannot change the picks.  Otherwise the next pass takes
r = reach + TIE_TOL, which certifies: every candidate at or below reach
lies within the new r, so reach cannot rise.  A pass also stands when that
next r gives the same windows (equal spans and starts): the next pass
would rebuild the same table, with the same reach, and stand.  The first r
is half the smallest plane spacing when the cell has more than k atoms (so
every target already sees k other atoms), else the smallest plane spacing;
a window with fewer than k candidates per target widens by one plane
spacing without a table.  A search that needs r past ``_MAX_SHELL``
smallest plane spacings raises LatticeTooSkewedError.

The table is filled a block of target rows at a time, so the per-block
separation arrays stay cache-sized.  Selection is array code: the near
prefix of every row goes into one padded (n, width) array sorted by
distance, tie groups are built one column of all rows at a time, and one
row-wise lexsort picks each target's k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .structures import CrystalStructure

# Distances closer than this are treated as tied and ordered by the
# deterministic (src, offset) tie-break instead of by floating-point noise.
TIE_TOL = 1e-8

_MAX_SHELL = 64

# Bytes of one block's (rows, n, n_off, 3) separation array in
# ``_candidate_table``; with the block's cartesian vectors and distances it
# stays inside a 2 MiB L2 cache.  The R = 1 tables of the 192
# featurize_cells cells of seeds 0 and 5 (blocks 0-2, 2-vCPU Xeon, 9
# interleaved passes) took a median 575 ms at 128 KiB, 519 ms at 256 KiB,
# 520 ms at 512 KiB, 541 ms at 1 MiB, 585 ms at 2 MiB, 613 ms at 4 MiB and
# 731 ms as one block.
_TABLE_BLOCK_BYTES = 1 << 19


class RadiusTooSmallError(ValueError):
    """The oracle's supercell radius cannot certify k neighbors."""


class LatticeTooSkewedError(ValueError):
    """The offset search reached its shell cap: lattice planes lie too close
    together for the lengths of the lattice vectors."""


@dataclass(frozen=True)
class PeriodicEdge:
    """Directed edge from a periodic image of ``src`` into ``dst``.

    ``dist`` is ``|cart(src) + offset . L - cart(dst)|`` and is always
    positive; the zero-offset self-image is never a candidate.
    """

    src: int
    dst: int
    offset: tuple[int, int, int]
    dist: float


@dataclass
class PeriodicGraph:
    """k-NN multigraph as edge columns in canonical edge order.

    Row i of ``src``, ``dst`` (int64[m]), ``offset`` (int64[m, 3]) and
    ``dist`` (float64[m]) is edge i.  Edges are sorted by (dst, distance
    tie-group, src, offset lexicographic), so edges of one target vertex are
    contiguous and the columns are a deterministic function of the structure.
    """

    n_vertices: int
    k: int
    src: np.ndarray
    dst: np.ndarray
    offset: np.ndarray
    dist: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    @property
    def edges(self) -> list[PeriodicEdge]:
        """The columns as records, rebuilt on every access."""
        return [PeriodicEdge(s, d, tuple(o), x) for s, d, o, x in
                zip(self.src.tolist(), self.dst.tolist(),
                    self.offset.tolist(), self.dist.tolist())]


def _plane_spacings(lattice: np.ndarray) -> np.ndarray:
    """Distance between adjacent lattice planes of each of the three axes."""
    inv = np.linalg.inv(np.asarray(lattice, dtype=np.float64))
    return 1.0 / np.linalg.norm(inv, axis=0)


def plane_spacing_min(lattice: np.ndarray) -> float:
    """Smallest distance between adjacent lattice planes of the three axes."""
    return float(_plane_spacings(lattice).min())


def _candidate_table(frac: np.ndarray, lattice: np.ndarray, lo: np.ndarray,
                     grid: np.ndarray) -> np.ndarray:
    """Row v, column ``g * n + u``: distance from atom u displaced by
    ``lo[:, v, u] + grid[:, g]`` to atom v.

    ``lo`` is (3, n, n) and ``grid`` (3, n_grid), both integer-valued
    floats.  Rows are filled in blocks whose (rows, n_grid, n, 3)
    separation array fits ``_TABLE_BLOCK_BYTES``."""
    n, n_grid = frac.shape[0], grid.shape[1]
    table = np.empty((n, n_grid, n))
    rows = max(1, _TABLE_BLOCK_BYTES // (n_grid * n * 3 * 8))
    sep = np.empty((min(rows, n), n_grid, n, 3))
    for a in range(0, n, rows):
        block = table[a:a + rows]
        part = sep[:len(block)]
        # sep[v, g, u, c] = frac[u, c] + (lo[c, v, u] + grid[c, g])
        # - frac[v, c] in lattice coords, one long pass per coordinate; the
        # offset is summed exactly first, so each separation rounds as
        # frac[u] + offset - frac[v] does
        for c in range(3):
            out = part[..., c]
            np.add(lo[c, a:a + rows, None], grid[c, :, None], out=out)
            out += frac[:, c]
            out -= frac[a:a + rows, c, None, None]
        cart = part.reshape(-1, 3) @ lattice
        np.einsum("ic,ic->i", cart, cart, out=block.reshape(-1))
        np.sqrt(block, out=block)
    return table.reshape(n, n_grid * n)


def neighbor_list(s: CrystalStructure, k: int = 12) -> PeriodicGraph:
    """Build the periodic k-NN multigraph of a structure.

    Each (target, source) pair tabulates the window of offsets whose images
    can lie within the search radius r, ``floor(2 r / h_i) + 1`` offsets on
    axis i of plane spacing h_i.  A pass stands when
    ``r >= reach + TIE_TOL``, where reach is the largest k-th smallest
    candidate distance; otherwise r becomes ``reach + TIE_TOL``, unless
    that radius gives the same windows, whose table would stand.  An image
    outside its window is farther than r, so every member of a tie group
    that starts at or below the k-th smallest distance is tabulated, which
    certifies that no unseen image could enter the k nearest (or perturb a
    tie within ``TIE_TOL``).  LatticeTooSkewedError is raised if r would
    have to pass ``_MAX_SHELL`` smallest plane spacings.

    Each pass's distance table is filled in blocks of target rows; the picks
    of all targets are made at once from one padded array of their sorted
    near candidates.

    Coordinates are canonicalized first; offsets refer to the wrapped cell.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s = s.canonicalize()
    frac, lattice = s.frac, s.lattice
    n = s.n_atoms
    h = _plane_spacings(lattice)
    h_min = h.min()
    cap = _MAX_SHELL * h_min
    ft = frac.T
    r = h_min / 2 if n > k else h_min
    reach, last_span, last_lo = np.inf, None, None
    while True:
        # lo[i, v, u]: the first offset on axis i whose image of u can lie
        # within r of v
        w = r / h
        span = (2 * w).astype(np.int64) + 1
        lo = np.ceil(ft[:, :, None] - ft[:, None] - w[:, None, None])
        # At r = reach + TIE_TOL, windows equal to the last table's would
        # build that table again, with the same reach, and the pass would
        # stand; so the last table stands now.
        if (r == reach + TIE_TOL and np.array_equal(span, last_span)
                and np.array_equal(lo, last_lo)):
            break
        last_span, last_lo, reach = span, lo, np.inf
        # Each target sees n * prod(span) images, one of them its own
        # zero-offset image; a window too small for k candidates widens
        # without a table.
        if n * span.prod() > k:
            # grid: the window's steps in lex order
            grid = np.indices(span, dtype=float).reshape(3, -1)
            dist = _candidate_table(frac, lattice, lo, grid)
            # The zero-offset self image (frac[v] + 0 - frac[v] is exactly 0)
            # and images coincident with the target are never candidates.
            dist[dist == 0.0] = np.inf
            kth_smallest = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
            reach = kth_smallest.max()
            # An untabulated image is farther than r: with d = f_v,i - f_u,i,
            # an offset o_i below ceil(d - w_i) or above
            # ceil(d - w_i) + floor(2 w_i) has |o_i - d| > w_i, so the
            # image's distance exceeds w_i * h_i = r.  That bound is strict,
            # so the rule need not be: r >= reach + TIE_TOL certifies.
            # Rounding of w and d moves a window edge by a few ulps of r,
            # which could drop an image only at exactly TIE_TOL past the
            # farthest target's k-th distance, where float noise decides
            # tie groups in any search.
            if reach + TIE_TOL <= r:
                break
        if r >= cap:
            raise LatticeTooSkewedError(
                f"lattice too skewed: smallest lattice plane spacing "
                f"{h_min:.4g} angstrom; a search radius of {_MAX_SHELL} plane "
                "spacings did not reach the nearest images (reduce the "
                "lattice basis, e.g. to Niggli form)")
        r = min(reach + TIE_TOL if np.isfinite(reach) else r + h_min, cap)
    # Only the prefix d - d_k <= TIE_TOL of a sorted row (d_k its k-th
    # smallest) can decide the picks.  This is exact: d_k lies in a tie
    # group G starting at or below d_k, so every member of the groups up
    # to G (>= k candidates) is in the prefix, and start-anchored grouping
    # scans left to right, so the prefix keeps the row's group numbers
    # and the same first k in (group, src, offset) order.
    v, cols = np.divmod(np.flatnonzero(dist - kth_smallest <= TIE_TOL),
                        dist.shape[1])
    cols = cols[np.lexsort((dist[v, cols], v))]
    # One padded row per target, sorted by distance.  A short row repeats
    # its last candidate with a key past every real one, so the padding
    # joins the row's last tie group after its real members.
    counts = np.bincount(v, minlength=n)
    slot = np.arange(counts.max())
    first = np.cumsum(counts) - counts
    cols = cols[first[:, None] + np.minimum(slot, counts[:, None] - 1)]
    d = np.take_along_axis(dist, cols, axis=1)
    # Column g * n + u as the (src, offset) tie-break key u * n_grid + g.
    n_grid = grid.shape[1]
    key = cols % n * n_grid + cols // n
    key[slot >= counts[:, None]] = n * n_grid
    # Start-anchored tie groups, one column of all rows at a time: a gap
    # > TIE_TOL past the start of the current group starts a new group.
    groups = np.zeros(d.shape, dtype=np.int64)
    start = d[:, 0]
    for j in range(1, d.shape[1]):
        gap = d[:, j] - start > TIE_TOL
        groups[:, j] = groups[:, j - 1] + gap
        start = np.where(gap, d[:, j], start)
    picked = np.lexsort((key, groups), axis=1)[:, :k]
    src, g = np.divmod(np.take_along_axis(key, picked, axis=1).ravel(),
                       n_grid)
    dst = np.repeat(np.arange(n), k)
    offset = (lo[:, dst, src] + grid[:, g]).T.astype(np.int64, order="C")
    return PeriodicGraph(n, k, src, dst, offset,
                         np.take_along_axis(d, picked, axis=1).ravel())


def brute_force_neighbors(s: CrystalStructure, k: int = 12,
                          supercell_radius: int = 4) -> PeriodicGraph:
    """Reference k-NN by plain enumeration of a fixed supercell.

    Independent of neighbor_list: candidates come from the full offset box
    |k_i| <= supercell_radius and selection is pure-python sorting under the
    same declared order (distance tie-group, src, offset lex).  Raises
    RadiusTooSmallError when the box is too small to certify that the true
    k nearest were inside it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s = s.canonicalize()
    frac, lattice = s.frac, s.lattice
    n = s.n_atoms
    bound = supercell_radius * plane_spacing_min(lattice)
    rng = range(-supercell_radius, supercell_radius + 1)
    all_offsets = list(itertools.product(rng, rng, rng))
    rows: list[tuple[int, int, tuple[int, int, int], float]] = []
    for v in range(n):
        cands: list[tuple[float, int, tuple[int, int, int]]] = []
        for u in range(n):
            for off in all_offsets:
                if u == v and off == (0, 0, 0):
                    continue
                sep = (frac[u] + np.array(off, dtype=np.float64)
                       - frac[v]) @ lattice
                d = float(np.sqrt(sep @ sep))
                if d == 0.0:
                    continue
                cands.append((d, u, off))
        cands.sort(key=lambda c: c[0])
        if len(cands) < k:
            raise RadiusTooSmallError(
                f"vertex {v}: only {len(cands)} candidates in supercell")
        group = -1
        start = -np.inf
        grouped = []
        for d, u, off in cands:
            if d - start > TIE_TOL:
                group += 1
                start = d
            grouped.append((group, u, off, d))
        grouped.sort(key=lambda c: (c[0], c[1], c[2]))
        kth = grouped[k - 1][3]
        if kth + TIE_TOL >= bound:
            raise RadiusTooSmallError(
                f"vertex {v}: k-th distance {kth:.6f} too close to the "
                f"supercell bound {bound:.6f}")
        rows.extend((u, v, off, d) for _, u, off, d in grouped[:k])
    return PeriodicGraph(n, k, *map(np.array, zip(*rows)))
