"""Geometric features of simplices as radial-basis expansions.

Vertices carry a 92-dim per-element vector from an atom feature table.
Edges expand the transformed distance d' = -0.75/d over EDGE_CENTERS (64
on [-4, 0]) at three widths (192 values) and append the two endpoint
vectors, giving 376.  Triangles expand nine derived scalars of their edge
lengths {d1, d2, d3, d1*d2, d1*d3, d2*d3, d1^2, d2^2, d3^2} over
TRIANGLE_CENTERS (8 on [0, 5]) at the same three widths, giving 216.

The radial basis is rbf(x, c) = exp(-(x - c)^2 / sigma): sigma divides the
squared distance directly, so the three widths act like variances.  ``rbf``
returns one (values..., widths, centers) array, and a feature row is that
array flattened: sigma-major within a value (all centers of one width
before the next width), and value-major across the nine triangle scalars
(all 24 responses of one scalar before the next scalar).

Six of the nine triangle scalars (d1, d2, d3 and their squares) depend on
one edge, and an edge lies in several triangles, so they are expanded once
per edge and gathered into each triangle's row; only the three products
are expanded per triangle.  The row layout is the same either way.

``rbf`` returns exactly what ``np.exp(-(x - c)**2 / sigma)`` returns, bit
for bit, but keeps ``np.exp``'s vector loop on its fast path.  With numpy
2.4 (AVX-512, one thread, 2 M uniform arguments per row) ``np.exp`` costs:

    arguments                                  ns a value
    >= -707.5                                  ~0.8
    [-708.3, -707.9]                           ~15-18
    [-745, -708.5] (subnormal results)         ~100-165
    [-2000, -745.2] (results round to 0.0)     ~14-16
    -inf                                       ~3-5
    1 argument in 8 at -800, the rest fast     ~15 (whole array)

and about a fifth of the triangle-product arguments lie below -707.  So
``rbf`` raises arguments below EXP_FAST_MIN to it before one vector
``exp``, writes 0.0 where they were below EXP_ZERO_BELOW (``exp`` is
exactly 0.0 there), and recomputes the few in between, about 0.6% of the
product arguments, with ``np.exp`` on a compacted array.  numpy computes
each lane on its own, so a value does not depend on its neighbours.  Every
pass runs over chunks of RBF_CHUNK values, which stay in cache, and
``edge_features`` and ``triangle_features`` fill their rows in place.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .complexes import QuotientComplex
from .periodic import PeriodicGraph
from .structures import MAX_Z, decode_json, replace_files

VERTEX_DIM = 92
EDGE_DIM = 376
TRIANGLE_DIM = 216

RBF_SIGMAS = np.array([0.01, 0.1, 1.0])
EDGE_CENTERS = np.linspace(-4.0, 0.0, 64)
TRIANGLE_CENTERS = np.linspace(0.0, 5.0, 8)

# np.exp's vector loop is fast on arguments >= EXP_FAST_MIN, and exp(x) is
# exactly 0.0 below EXP_ZERO_BELOW (from -745.1332191019412 down).
EXP_FAST_MIN = -707.0
EXP_ZERO_BELOW = -746.0
# Values per chunk of an rbf pass: 512 KiB of arguments plus the mask and
# difference buffers stay in a 2 MiB L2 cache.  Edge plus triangle features
# of the 96 featurize_cells cells of seed 0, blocks 0-2 (2-vCPU Xeon, one
# thread, CPU time, medians of 7 interleaved rounds in two runs) took
# 300-315 ms at 16,384, 286-308 ms at 32,768, 280-293 ms at 65,536,
# 274-285 ms at 131,072 and 284-295 ms at 262,144; the whole-array
# expansion it replaced took 365-376 ms.
RBF_CHUNK = 65536


class MissingSpeciesError(ValueError):
    """Atom table has no vector for a species present in the structure."""


class NonPositiveDistanceError(ValueError):
    """Edge distance must be positive to apply d' = -0.75/d."""


def rbf(x: np.ndarray, centers: np.ndarray,
        out: np.ndarray | None = None) -> np.ndarray:
    """exp(-(x - c)^2 / sigma) as an x.shape + (widths, centers) array; the
    response is exactly 1.0 where x hits a center.  ``out``, if given, may
    be a strided view and is filled in place."""
    x = np.asarray(x, dtype=np.float64)
    n_w, n_c = len(RBF_SIGMAS), len(centers)
    if out is None:
        out = np.empty(x.shape + (n_w, n_c))
    if x.ndim == 0:
        rbf(x[None], centers, out[None])
        return out
    rows = max(1, RBF_CHUNK // math.prod(out.shape[1:]))
    diff = np.empty(min(rows, len(x)) * math.prod(x.shape[1:]) * n_c)
    args = np.empty(diff.size * n_w)
    for i in range(0, len(x), rows):
        xs, o = x[i:i + rows], out[i:i + rows]
        d = diff[:xs.size * n_c].reshape(xs.size, n_c)
        np.subtract(xs.reshape(-1, 1), centers, out=d)
        np.multiply(d, d, out=d)
        np.negative(d, out=d)
        # One contiguous plane per width; the copy into o interleaves them.
        a = args[:d.size * n_w]
        for plane, sigma in zip(a.reshape((n_w,) + d.shape), RBF_SIGMAS):
            np.divide(d, sigma, out=plane)
        _exp_in_place(a)
        o[...] = np.moveaxis(a.reshape((n_w,) + xs.shape + (n_c,)), 0, -2)
    return out


def _exp_in_place(a: np.ndarray) -> None:
    """``np.exp(a, out=a)`` on a contiguous 1-d array, bit for bit, with
    only arguments >= EXP_FAST_MIN in the vector loop."""
    low = a < EXP_FAST_MIN
    band = np.flatnonzero(low & (a >= EXP_ZERO_BELOW))
    band_values = np.exp(a[band])
    np.maximum(a, EXP_FAST_MIN, out=a)
    np.exp(a, out=a)
    np.copyto(a, 0.0, where=low)
    a[band] = band_values


class AtomFeatureTable:
    """Map from atomic number to a 92-dim feature vector.

    ``rows`` is one (MAX_Z + 1, 92) array indexed by Z; the rows of absent
    elements (and row 0) are NaN, which no stored vector can be.
    """

    def __init__(self, vectors: dict[int, np.ndarray]):
        self.rows = np.full((MAX_Z + 1, VERTEX_DIM), np.nan)
        for z, vec in vectors.items():
            z = int(z)
            vec = np.asarray(vec)
            if not 1 <= z <= MAX_Z:
                raise ValueError(f"atomic number {z} outside 1..{MAX_Z}")
            # Strings, bools, nulls, objects and ints beyond float range
            # are refused, not coerced.
            if vec.dtype.kind not in "iuf":
                raise ValueError(f"feature vector for Z={z} is not numeric")
            if vec.shape != (VERTEX_DIM,):
                raise ValueError(
                    f"feature vector for Z={z} has shape {vec.shape}, "
                    f"expected ({VERTEX_DIM},)")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"feature vector for Z={z} is not finite")
            self.rows[z] = vec

    @classmethod
    def from_json(cls, path: str | os.PathLike) -> "AtomFeatureTable":
        """Load ``{"<Z>": [92 floats], ...}``."""
        with open(os.fspath(path), "rb") as fh:
            raw = decode_json(fh.read())
        if not isinstance(raw, dict):
            raise ValueError("atom table must be a JSON object")
        return cls({int(k): v for k, v in raw.items()})

    @classmethod
    def random(cls, seed: int = 0, max_z: int = MAX_Z) -> "AtomFeatureTable":
        """Seeded placeholder table covering every element up to max_z."""
        rng = np.random.default_rng(seed)
        draws = rng.uniform(0.0, 1.0, (max_z, VERTEX_DIM))
        return cls(dict(enumerate(draws, start=1)))

    def features_for(self, species: np.ndarray) -> np.ndarray:
        """(n, 92) per-atom vectors in structure order."""
        z = np.asarray(species, dtype=np.int64).ravel()
        out = self.rows[np.where((z >= 0) & (z <= MAX_Z), z, 0)]
        missing = np.isnan(out[:, 0])
        if missing.any():
            raise MissingSpeciesError(
                "atom table has no feature vector for element "
                f"Z={int(z[missing.argmax()])}")
        return out


def edge_features(g: PeriodicGraph, vfeats: np.ndarray) -> np.ndarray:
    """(m, 376) rows: [rbf(-0.75/d) | src vector | dst vector]."""
    if g.n_edges and g.dist.min() <= 0.0:
        raise NonPositiveDistanceError(
            f"edge distance {float(g.dist.min())} is not positive")
    out = np.empty((g.n_edges, EDGE_DIM))
    rbf(-0.75 / g.dist, EDGE_CENTERS,
        out[:, :192].reshape(g.n_edges, 3, 64))
    out[:, 192:284] = vfeats[g.src]
    out[:, 284:] = vfeats[g.dst]
    return out


def triangle_features(c: QuotientComplex) -> np.ndarray:
    """(t, 216) rows: nine length-derived scalars, each rbf-expanded, in
    the order d1, d2, d3, d1*d2, d1*d3, d2*d3, d1^2, d2^2, d3^2."""
    dist = c.graph.dist
    t = len(c.tri)
    if t == 0:  # no row reads the per-edge expansions
        return np.empty((0, TRIANGLE_DIM))
    lengths = rbf(dist, TRIANGLE_CENTERS).reshape(-1, 24)
    squares = rbf(dist * dist, TRIANGLE_CENTERS).reshape(-1, 24)
    # out[:, kind, i]: kind 0 the lengths, 1 the products, 2 the squares
    out = np.empty((t, 3, 3, 24))
    # A chunk of triangles expands one rbf chunk of products.
    rows = RBF_CHUNK // 72
    for i in range(0, t, rows):
        tri, o = c.tri[i:i + rows], out[i:i + rows]
        o[:, 0] = np.take(lengths, tri, axis=0)
        o[:, 2] = np.take(squares, tri, axis=0)
        d = dist[tri]
        rbf(d[:, [0, 0, 1]] * d[:, [1, 2, 2]], TRIANGLE_CENTERS,
            o[:, 1].reshape(len(tri), 3, 3, 8))
    return out.reshape(t, TRIANGLE_DIM)


@dataclass
class FeatureSet:
    """Raw simplex features of the three tiers (vertex, edge, triangle)."""

    h0_raw: np.ndarray
    h1_raw: np.ndarray
    h2_raw: np.ndarray


def raw_features(c: QuotientComplex, species: np.ndarray,
                 table: AtomFeatureTable) -> FeatureSet:
    """Raw features of every tier of the complex."""
    vf = table.features_for(species)
    return FeatureSet(h0_raw=vf, h1_raw=edge_features(c.graph, vf),
                      h2_raw=triangle_features(c))


def save_feature_arrays(arrays: dict[str, np.ndarray], prefix: str) -> None:
    """Write row-major float64 ``.bin`` files plus a JSON shape header,
    replacing old files only once all are written (the header last)."""
    header = {"dtype": "<f8", "order": "C",
              "arrays": {name: list(arr.shape)
                         for name, arr in sorted(arrays.items())}}
    replace_files(
        [(f"{prefix}.{name}.bin",
          [np.ascontiguousarray(arr, dtype="<f8").tobytes(order="C")])
         for name, arr in sorted(arrays.items())]
        + [(prefix + ".json",
            [(json.dumps(header, sort_keys=True) + "\n").encode("utf-8")])])
