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

One search loop builds the graph: tabulate the distance from every image in
the offset box |k_i| <= R to every target, mark zero-distance images
unavailable, and pick each target's k candidates in (distance tie group, src,
offset) order.  One rule sizes the box: R is the smallest integer with
R * h_min > reach + TIE_TOL, where reach is the largest k-th smallest
candidate distance in the current box.  Starting from R = 1 the box jumps to
the R that reach asks for until the box in hand already satisfies the rule.
Reach only falls as the box grows, since a bigger box only adds candidates.

The table is filled a block of target rows at a time, so the per-block
separation arrays stay cache-sized; the (n, n * (2R + 1)^3) table itself is
whole.  Selection is array code: the near prefix of every row goes into one
padded (n, width) array sorted by distance, tie groups are built one column
of all rows at a time, and one row-wise lexsort picks each target's k.

Correctness of the search depends on a lower bound for images outside an
offset box.  With L the lattice row matrix and c_i the columns of L^-1, any
separation vector y.L satisfies |y_i| <= |y.L| * |c_i|, so an image whose
offset leaves the box |k_i| <= R is farther than R * h_min where
h_min = 1 / max_i |c_i| (the smallest spacing between adjacent lattice
planes).  A box that satisfies the rule therefore holds every image within
reach + TIE_TOL: every member of each tie group that starts at or below a
target's k-th smallest distance d_k, so the unseen images cannot change the
picks.
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


def plane_spacing_min(lattice: np.ndarray) -> float:
    """Smallest distance between adjacent lattice planes of the three axes."""
    inv = np.linalg.inv(np.asarray(lattice, dtype=np.float64))
    return float(1.0 / np.linalg.norm(inv, axis=0).max())


def _box_offsets(radius: int) -> np.ndarray:
    """All integer offsets with max-norm <= radius, lexicographically sorted."""
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    grid = np.meshgrid(rng, rng, rng, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, 3)


def _candidate_table(frac: np.ndarray, lattice: np.ndarray,
                     offsets: np.ndarray) -> np.ndarray:
    """Row v, column ``u * len(offsets) + o``: distance from atom u displaced
    by ``offsets[o]`` to atom v, so columns run in (src, offset) order.

    Rows are filled in blocks whose (rows, n, n_off, 3) separation array
    fits ``_TABLE_BLOCK_BYTES``."""
    n, n_off = frac.shape[0], offsets.shape[0]
    img = frac[:, None, :] + offsets  # img[u, o] = frac[u] + offsets[o]
    table = np.empty((n, n, n_off))
    rows = max(1, _TABLE_BLOCK_BYTES // img.nbytes)
    sep = np.empty((min(rows, n),) + img.shape)
    for lo in range(0, n, rows):
        block = table[lo:lo + rows]
        # sep[v, u, o, :] = frac[u] + offsets[o] - frac[v], in lattice
        # coords, one long pass per coordinate
        part = sep[:len(block)]
        for c in range(3):
            np.subtract(img[..., c], frac[lo:lo + rows, c, None, None],
                        out=part[..., c])
        cart = part @ lattice
        np.einsum("vuoc,vuoc->vuo", cart, cart, out=block)
        np.sqrt(block, out=block)
    return table.reshape(n, n * n_off)


def neighbor_list(s: CrystalStructure, k: int = 12) -> PeriodicGraph:
    """Build the periodic k-NN multigraph of a structure.

    The offset box has the smallest half-width R with
    ``R * h_min > reach + TIE_TOL``, where reach is the largest k-th
    smallest candidate distance in the box; the box grows until it
    satisfies the rule.  Images outside the box are farther than
    ``R * h_min``, so every member of a tie group that starts at or below
    the k-th smallest distance is inside it, which certifies that no unseen
    image could enter the k nearest (or perturb a tie within ``TIE_TOL``).
    LatticeTooSkewedError is raised if the box would have to grow past
    ``_MAX_SHELL``.

    Each box's distance table is filled in blocks of target rows; the picks
    of all targets are made at once from one padded array of their sorted
    near candidates.

    Coordinates are canonicalized first; offsets refer to the wrapped cell.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s = s.canonicalize()
    frac, lattice = s.frac, s.lattice
    n = s.n_atoms
    h_min = plane_spacing_min(lattice)
    shell = 1
    while True:
        offsets = _box_offsets(shell)
        dist = _candidate_table(frac, lattice, offsets)
        # The zero-offset self image (frac[v] + 0 - frac[v] is exactly 0)
        # and images coincident with the target are never candidates.
        dist[dist == 0.0] = np.inf
        if dist.shape[1] < k:  # fewer images than k: pad with unavailable
            dist = np.pad(dist, ((0, 0), (0, k - dist.shape[1])),
                          constant_values=np.inf)
        kth_smallest = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
        reach = kth_smallest.max()
        # The smallest R with R * h_min > reach + TIE_TOL; a box with fewer
        # than k candidates for some target grows by one.
        need = (int((reach + TIE_TOL) // h_min) + 1 if np.isfinite(reach)
                else shell + 1)
        if need <= shell:
            break
        if shell >= _MAX_SHELL:
            raise LatticeTooSkewedError(
                f"lattice too skewed: smallest lattice plane spacing "
                f"{h_min:.4g} angstrom; {_MAX_SHELL} offset shells did not "
                "reach the nearest images (reduce the lattice basis, e.g. to "
                "Niggli form)")
        shell = min(need, _MAX_SHELL)
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
    # its last candidate with a column past every real one, so the padding
    # joins the row's last tie group after its real members.
    counts = np.bincount(v, minlength=n)
    slot = np.arange(counts.max())
    first = np.cumsum(counts) - counts
    cols = cols[first[:, None] + np.minimum(slot, counts[:, None] - 1)]
    d = np.take_along_axis(dist, cols, axis=1)
    cols[slot >= counts[:, None]] = dist.shape[1]
    # Start-anchored tie groups, one column of all rows at a time: a gap
    # > TIE_TOL past the start of the current group starts a new group.
    groups = np.zeros(d.shape, dtype=np.int64)
    start = d[:, 0]
    for j in range(1, d.shape[1]):
        gap = d[:, j] - start > TIE_TOL
        groups[:, j] = groups[:, j - 1] + gap
        start = np.where(gap, d[:, j], start)
    # cols increase in (src, offset) order: the tie-break key.
    picked = np.lexsort((cols, groups), axis=1)[:, :k]
    cols = np.take_along_axis(cols, picked, axis=1).ravel()
    n_off = offsets.shape[0]
    return PeriodicGraph(n, k, cols // n_off, np.repeat(np.arange(n), k),
                         offsets[cols % n_off],
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
