"""Geometric features of simplices as radial-basis expansions.

Vertices carry a 92-dim per-element vector from an atom feature table.
Edges expand the transformed distance d' = -0.75/d over 64 centers on
[-4, 0] at three widths (192 values, laid out sigma-major) and append the
two endpoint vectors, giving 376.  Triangles expand nine derived scalars of
their edge lengths {d1, d2, d3, d1*d2, d1*d3, d2*d3, d1^2, d2^2, d3^2} over
8 centers on [0, 5] at the same three widths, value-major, giving 216.

The radial basis is rbf(x) = exp(-(x - c)^2 / sigma): sigma divides the
squared distance directly, so the three widths act like variances.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .complexes import QuotientComplex
from .periodic import PeriodicGraph
from .structures import MAX_Z, replace_files

VERTEX_DIM = 92
EDGE_DIM = 376
TRIANGLE_DIM = 216

RBF_SIGMAS = (0.01, 0.1, 1.0)


class MissingSpeciesError(ValueError):
    """Atom table has no vector for a species present in the structure."""


class NonPositiveDistanceError(ValueError):
    """Edge distance must be positive to apply d' = -0.75/d."""


@dataclass(frozen=True)
class RbfBank:
    """Fixed centers crossed with widths; output is sigma-major.

    Column s * len(centers) + c holds exp(-(x - centers[c])^2 / sigmas[s]),
    so the response peaks at exactly 1.0 when x hits a center.
    """

    centers: np.ndarray
    sigmas: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.sigmas) * len(self.centers)

    def expand(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        diff2 = (x[:, None] - self.centers[None, :]) ** 2
        blocks = [np.exp(-diff2 / s) for s in self.sigmas]
        return np.concatenate(blocks, axis=1)


def edge_bank() -> RbfBank:
    return RbfBank(np.linspace(-4.0, 0.0, 64), RBF_SIGMAS)


def triangle_bank() -> RbfBank:
    return RbfBank(np.linspace(0.0, 5.0, 8), RBF_SIGMAS)


class AtomFeatureTable:
    """Map from atomic number to a 92-dim feature vector."""

    def __init__(self, vectors: dict[int, np.ndarray]):
        self.vectors = {}
        for z, vec in vectors.items():
            z = int(z)
            vec = np.asarray(vec, dtype=np.float64)
            if not 1 <= z <= MAX_Z:
                raise ValueError(f"atomic number {z} outside 1..{MAX_Z}")
            if vec.shape != (VERTEX_DIM,):
                raise ValueError(
                    f"feature vector for Z={z} has shape {vec.shape}, "
                    f"expected ({VERTEX_DIM},)")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"feature vector for Z={z} is not finite")
            self.vectors[z] = vec

    @classmethod
    def from_json(cls, path: str | os.PathLike) -> "AtomFeatureTable":
        """Load ``{"<Z>": [92 floats], ...}``."""
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("atom table must be a JSON object")
        return cls({int(k): v for k, v in raw.items()})

    @classmethod
    def random(cls, seed: int = 0, max_z: int = MAX_Z) -> "AtomFeatureTable":
        """Seeded placeholder table covering every element up to max_z."""
        rng = np.random.default_rng(seed)
        return cls({z: rng.uniform(0.0, 1.0, VERTEX_DIM)
                    for z in range(1, max_z + 1)})

    def save(self, path: str | os.PathLike) -> None:
        """Write ``{"<Z>": [92 floats], ...}``; the file is replaced
        atomically."""
        obj = {str(z): [float(x) for x in vec]
               for z, vec in sorted(self.vectors.items())}
        replace_files([(os.fspath(path), [
            (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")])])

    def features_for(self, species: np.ndarray) -> np.ndarray:
        rows = []
        for z in np.asarray(species).ravel():
            z = int(z)
            if z not in self.vectors:
                raise MissingSpeciesError(
                    f"atom table has no feature vector for element Z={z}")
            rows.append(self.vectors[z])
        return np.array(rows, dtype=np.float64)


def vertex_features(species: np.ndarray, table: AtomFeatureTable) -> np.ndarray:
    """(n, 92) per-atom vectors in structure order."""
    return table.features_for(species)


def edge_features(g: PeriodicGraph, vfeats: np.ndarray) -> np.ndarray:
    """(m, 376) rows: [rbf(-0.75/d) | src vector | dst vector]."""
    if g.n_edges and g.dist.min() <= 0.0:
        raise NonPositiveDistanceError(
            f"edge distance {float(g.dist.min())} is not positive")
    rbf = edge_bank().expand(-0.75 / g.dist)
    return np.concatenate([rbf, vfeats[g.src], vfeats[g.dst]], axis=1)


def triangle_features(c: QuotientComplex) -> np.ndarray:
    """(t, 216) rows: nine length-derived scalars, each rbf-expanded.

    Scalar order is d1, d2, d3, d1*d2, d1*d3, d2*d3, d1^2, d2^2, d3^2;
    the layout is value-major (all 24 basis responses of one scalar before
    the next scalar).
    """
    bank = triangle_bank()
    d1, d2, d3 = c.graph.dist[c.tri.T]
    scalars = [d1, d2, d3, d1 * d2, d1 * d3, d2 * d3,
               d1 * d1, d2 * d2, d3 * d3]
    return np.concatenate([bank.expand(v) for v in scalars], axis=1)


@dataclass
class FeatureSet:
    """Raw simplex features of the three tiers (vertex, edge, triangle)."""

    h0_raw: np.ndarray
    h1_raw: np.ndarray
    h2_raw: np.ndarray


def raw_features(c: QuotientComplex, species: np.ndarray,
                 table: AtomFeatureTable) -> FeatureSet:
    """Raw features of every tier of the complex."""
    vf = vertex_features(species, table)
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
