"""Seeded input generators for the benchmark workloads.

These are local copies of the recipes the package uses for its own tests and
demos (synthetic overfit cells, random triclinic cells, random flag complexes
and partitions).  The benchmark never calls the package's generators, so an
edit to the package cannot silently change what a workload feeds it.  Every
generator is a pure function of its seed; ``digest`` hashes the generated
inputs so a result records exactly what was measured.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

SYMBOLS = (
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr", "Y", "Zr",
    "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd",
    "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb",
    "Lu", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi",
)

DENSITY = 0.08  # atoms per cubic angstrom


def _nearest_image(frac: np.ndarray, lattice: np.ndarray, i: int, j: int,
                   radius: int = 3) -> float:
    """Distance from atom j to the nearest image of atom i (i == j: nonzero
    lattice translation), by enumeration of the offset box |k| <= radius."""
    rng = range(-radius, radius + 1)
    offsets = np.array(list(itertools.product(rng, rng, rng)), dtype=float)
    sep = (frac[i] + offsets - frac[j]) @ lattice
    d = np.sqrt(np.einsum("oc,oc->o", sep, sep))
    if i == j:
        d = d[d > 0.0]
    return float(d.min())


def synthetic_cells(n_samples: int, seed: int) -> list[dict]:
    """Mildly sheared boxes with edges in [1.8, 3.6] angstroms.

    One atom per cell, every fourth cell two atoms at least 0.9 apart.  The
    target is the mean nearest-neighbor distance, readable from edge
    features, so a model can fit it quickly.
    """
    rng = np.random.default_rng(seed)
    cells = []
    for i in range(n_samples):
        abc = rng.uniform(1.8, 3.6, 3)
        lat = np.diag(abc)
        lat[1, 0] = rng.uniform(-0.15, 0.15) * abc[0]
        lat[2, 0] = rng.uniform(-0.15, 0.15) * abc[0]
        lat[2, 1] = rng.uniform(-0.15, 0.15) * abc[1]
        n_atoms = 2 if i % 4 == 0 else 1
        species = rng.integers(1, 21, n_atoms)
        while True:
            frac = rng.uniform(0.0, 1.0, (n_atoms, 3))
            if n_atoms == 1 or _nearest_image(frac, lat, 0, 1) >= 0.9:
                break
        target = float(np.mean([
            min(_nearest_image(frac, lat, u, v) for u in range(n_atoms))
            for v in range(n_atoms)]))
        cells.append({"lattice": lat, "species": species, "frac": frac,
                      "target": target, "id": f"syn-{i:03d}"})
    return cells


def log_uniform_sizes(count: int, lo: int, hi: int) -> list[int]:
    """Atom counts at the midpoint quantiles of a log-uniform law on
    [lo, hi].  Fixing the size mix (and drawing only geometry and species
    from the seed) keeps the size distribution, which sets the cost, the
    same on every seed."""
    q = (np.arange(count) + 0.5) / count
    return [int(round(lo * (hi / lo) ** x)) for x in q]


def random_cell(n_atoms: int, rng: np.random.Generator) -> dict:
    """Triclinic cell of n atoms at DENSITY with random species 1..83.

    The lattice is a cube of the target volume under a random shear of up to
    20% per entry, rescaled back to that volume.
    """
    volume = n_atoms / DENSITY
    lat = np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3))
    lat *= (volume / abs(np.linalg.det(lat))) ** (1.0 / 3.0)
    return {"lattice": lat,
            "species": rng.integers(1, len(SYMBOLS) + 1, n_atoms),
            "frac": rng.uniform(0.0, 1.0, (n_atoms, 3))}


def poscar_text(cell: dict, comment: str = "bench") -> str:
    """VASP 5 POSCAR, Direct coordinates, one species column per atom run;
    floats written with repr so parsing reproduces them exactly."""
    runs: list[list[int]] = []
    for z in cell["species"]:
        if runs and runs[-1][0] == int(z):
            runs[-1][1] += 1
        else:
            runs.append([int(z), 1])
    lines = [comment, "1.0"]
    lines += [" ".join(repr(float(x)) for x in row) for row in cell["lattice"]]
    lines.append(" ".join(SYMBOLS[z - 1] for z, _ in runs))
    lines.append(" ".join(str(c) for _, c in runs))
    lines.append("Direct")
    lines += [" ".join(repr(float(x)) for x in row) for row in cell["frac"]]
    return "\n".join(lines) + "\n"


def random_cells(count: int, lo: int, hi: int,
                 seed) -> tuple[list[int], list[str]]:
    """(atom counts, POSCAR texts) of ``count`` random cells with sizes
    log-uniform on [lo, hi], in seeded order.  ``seed`` is an int or a
    sequence of ints, such as ``[seed, block]`` for one block of a stream."""
    rng = np.random.default_rng(seed)
    mix = log_uniform_sizes(count, lo, hi)
    sizes = [mix[i] for i in rng.permutation(count)]
    return sizes, [poscar_text(random_cell(n, rng), f"cell-{j:03d}")
                   for j, n in enumerate(sizes)]


def sample(sizes: list[int], max_atoms: int, count: int,
           seed: int) -> list[int]:
    """Seeded choice of up to ``count`` indices of cells with at most
    ``max_atoms`` atoms (small enough for the pure-Python oracle and for a
    batched forward)."""
    small = [i for i, n in enumerate(sizes) if n <= max_atoms]
    rng = np.random.default_rng([seed, 1])
    return sorted(int(i) for i in rng.choice(small, min(count, len(small)),
                                             replace=False))


def binomial_quantiles(count: int, trials: int, prob: float) -> list[int]:
    """Values of Binomial(trials, prob) at the midpoint quantiles
    (i + 0.5) / count, computed exactly from the CDF."""
    cdf, acc = [], 0.0
    for k in range(trials + 1):
        acc += math.comb(trials, k) * prob ** k * (1 - prob) ** (trials - k)
        cdf.append(acc)
    return [next(k for k, c in enumerate(cdf) if c >= (i + 0.5) / count)
            for i in range(count)]


def flag_complex(n_vertices: int, n_edges: int, rng: np.random.Generator,
                 max_dim: int = 3) -> list[list[int]]:
    """Simplices of the clique complex of a uniform random graph with
    exactly ``n_edges`` edges, truncated at max_dim."""
    pairs = list(itertools.combinations(range(n_vertices), 2))
    adj = np.zeros((n_vertices, n_vertices), dtype=bool)
    for p in rng.choice(len(pairs), n_edges, replace=False):
        a, b = pairs[p]
        adj[a, b] = adj[b, a] = True
    simplices = [[v] for v in range(n_vertices)]
    for size in range(2, max_dim + 2):
        for combo in itertools.combinations(range(n_vertices), size):
            if all(adj[a, b] for a, b in itertools.combinations(combo, 2)):
                simplices.append(list(combo))
    return simplices


def partition(vertices: list[int],
              rng: np.random.Generator) -> list[list[int]]:
    """Shuffle vertices and cut them into classes of random size 1..4."""
    order = [int(v) for v in rng.permutation(vertices)]
    classes = []
    i = 0
    while i < len(order):
        size = int(rng.integers(1, 5))
        classes.append(sorted(order[i:i + size]))
        i += size
    return classes


def flag_instances(count: int, n_vertices: int, edge_prob: float,
                   seed) -> list[tuple[list[list[int]], list[list[int]]]]:
    """(simplices, partition) pairs for the homology workload.

    Flag complexes of G(n, p) graphs, with the edge count stratified: the
    counts are the Binomial(n(n-1)/2, p) midpoint quantiles in seeded order,
    and each graph is uniform given its count.  Rank cost grows steeply with
    the edge count, so fixing the mix keeps it the same on every seed.
    ``seed`` is an int or a sequence of ints, as for ``random_cells``.
    """
    rng = np.random.default_rng(seed)
    counts = binomial_quantiles(count, n_vertices * (n_vertices - 1) // 2,
                                edge_prob)
    out = []
    for i in rng.permutation(count):
        simplices = flag_complex(n_vertices, counts[i], rng)
        out.append((simplices, partition(list(range(n_vertices)), rng)))
    return out


def plain(x):
    """JSON-ready copy: arrays as nested lists, numpy scalars as Python."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x


def digest(obj) -> str:
    """sha256 of the canonical JSON rendering of generated inputs."""
    blob = json.dumps(plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
