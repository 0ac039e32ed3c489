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
"""

from __future__ import annotations

import json
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


class MissingSpeciesError(ValueError):
    """Atom table has no vector for a species present in the structure."""


class NonPositiveDistanceError(ValueError):
    """Edge distance must be positive to apply d' = -0.75/d."""


def rbf(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """exp(-(x - c)^2 / sigma) as an x.shape + (widths, centers) array; the
    response is exactly 1.0 where x hits a center."""
    diff2 = (np.asarray(x, dtype=np.float64)[..., None] - centers) ** 2
    out = -diff2[..., None, :] / RBF_SIGMAS[:, None]
    return np.exp(out, out=out)


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
    basis = rbf(-0.75 / g.dist, EDGE_CENTERS).reshape(g.n_edges, 192)
    return np.concatenate([basis, vfeats[g.src], vfeats[g.dst]], axis=1)


def triangle_features(c: QuotientComplex) -> np.ndarray:
    """(t, 216) rows: nine length-derived scalars, each rbf-expanded, in
    the order d1, d2, d3, d1*d2, d1*d3, d2*d3, d1^2, d2^2, d3^2."""
    dist = c.graph.dist
    t = len(c.tri)
    # out[:, kind, i]: kind 0 the lengths, 1 the products, 2 the squares
    out = np.empty((t, 3, 3, 24))
    edge = rbf(np.stack([dist, dist * dist]),
               TRIANGLE_CENTERS).reshape(2, len(dist), 24)
    out[:, 0] = edge[0, c.tri]
    out[:, 2] = edge[1, c.tri]
    d = dist[c.tri]
    out[:, 1] = rbf(d[:, [0, 0, 1]] * d[:, [1, 2, 2]],
                    TRIANGLE_CENTERS).reshape(t, 3, 24)
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
