"""Shared helpers: random structure and complex generators, small fixed
cells, and the plain tape ops the fused ones are checked against."""

import builtins
import errno
import itertools
import pathlib

import numpy as np
import pytest

from qcnet.autodiff import Tensor, _record, scatter_rows
from qcnet.homology import SimplicialComplex
from qcnet.structures import CrystalStructure

DATA_DIR = pathlib.Path(__file__).parent / "data"

SPECIES_POOL = (1, 6, 8, 14, 20, 22, 26)


class DiskFull:
    """File stand-in whose first write stores half the chunk, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def open_failing_at(index: int, opened: list):
    """An ``open`` that appends each file it opens for writing to ``opened``
    and hands back the ``index``-th (from 0) of those wrapped in DiskFull;
    none for None.  Files opened for reading pass through uncounted."""
    real_open = builtins.open

    def flaky_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if not set(mode) & set("wxa+"):
            return fh
        opened.append(file)
        return DiskFull(fh) if len(opened) - 1 == index else fh
    return flaky_open


def random_structure(rng: np.random.Generator,
                     n_atoms: int | None = None) -> CrystalStructure:
    """Mildly sheared triclinic cell with n random atoms (default 1..6)."""
    n = int(n_atoms) if n_atoms is not None else int(rng.integers(1, 7))
    lattice = np.diag(rng.uniform(2.5, 4.5, size=3))
    lattice += rng.uniform(-0.6, 0.6, size=(3, 3)) * (1.0 - np.eye(3))
    frac = rng.uniform(0.0, 1.0, size=(n, 3))
    species = rng.choice(SPECIES_POOL, size=n)
    return CrystalStructure(lattice=lattice, species=species, frac=frac)


def structure_obj(s: CrystalStructure) -> dict:
    """The JSON object of a structure file, for ``json.dumps``."""
    return {"lattice": s.lattice.tolist(), "species": s.species.tolist(),
            "frac": s.frac.tolist(), "id": s.id}


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Proper rotation from the QR of a gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_flag_complex(n_vertices: int, edge_prob: float,
                        rng: np.random.Generator,
                        max_dim: int = 3) -> SimplicialComplex:
    """Clique complex of an Erdos-Renyi graph, truncated at max_dim."""
    adj = np.zeros((n_vertices, n_vertices), dtype=bool)
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            if rng.random() < edge_prob:
                adj[i, j] = adj[j, i] = True
    simplices = [[v] for v in range(n_vertices)]
    for size in range(2, max_dim + 2):
        for combo in itertools.combinations(range(n_vertices), size):
            if all(adj[a, b] for a, b in itertools.combinations(combo, 2)):
                simplices.append(list(combo))
    return SimplicialComplex(simplices)


def random_partition(vertices: list[int],
                     rng: np.random.Generator) -> list[list[int]]:
    """Shuffle vertices and cut into classes of random size 1..4."""
    order = [int(v) for v in rng.permutation(vertices)]
    classes = []
    i = 0
    while i < len(order):
        size = int(rng.integers(1, 5))
        classes.append(sorted(order[i:i + size]))
        i += size
    return classes


# -- the unfused reference chain --------------------------------------------
# The model runs only the fused ops; these plain ones spell out, node by
# node, what ``gated_message`` and ``message_sum`` compute.

def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Logistic function; the tanh form cannot overflow."""
    out = np.tanh(0.5 * x)
    out += 1.0
    out *= 0.5
    return out


def silu_np(x: np.ndarray) -> np.ndarray:
    return x * sigmoid_np(x)


def sigmoid(t: Tensor) -> Tensor:
    """The logistic function as a tape node."""
    value = sigmoid_np(t.data)

    def pullback(g):
        t._accumulate(g * value * (1.0 - value))
    return _record(value, (t,), pullback)


def gather_rows(t: Tensor, index: np.ndarray) -> Tensor:
    """Select rows; the pullback scatter-adds back into the source rows."""
    index = np.asarray(index, dtype=np.int64)

    def pullback(g):
        t._accumulate(scatter_rows(g, index, t.data.shape[0]))
    return _record(t.data[index], (t,), pullback)


def segment_sum(t: Tensor, segment: np.ndarray, n_segments: int) -> Tensor:
    """Sum rows into n_segments buckets; the pullback is a row gather."""
    segment = np.asarray(segment, dtype=np.int64)

    def pullback(g):
        t._accumulate(g[segment])
    return _record(scatter_rows(t.data, segment, n_segments), (t,), pullback)


@pytest.fixture
def catio3() -> CrystalStructure:
    """Cubic perovskite: Ca corner, Ti center, three face-center O."""
    lattice = 3.84 * np.eye(3)
    frac = np.array([[0.0, 0.0, 0.0],
                     [0.5, 0.5, 0.5],
                     [0.5, 0.5, 0.0],
                     [0.5, 0.0, 0.5],
                     [0.0, 0.5, 0.5]])
    species = np.array([20, 22, 8, 8, 8])
    return CrystalStructure(lattice=lattice, species=species, frac=frac,
                            id="CaTiO3")


@pytest.fixture
def cubic1() -> CrystalStructure:
    """One carbon atom in a unit cube."""
    return CrystalStructure(lattice=np.eye(3), species=np.array([6]),
                            frac=np.zeros((1, 3)), id="cube")


@pytest.fixture
def skewed1() -> CrystalStructure:
    """One carbon atom in a cell that passes the degenerate-lattice check
    but whose closest lattice planes are ~0.0086 A apart."""
    lattice = np.array([[3.81, -3.01, -2.40],
                        [-2.23, 2.88, -1.79],
                        [2.28, -3.46, 3.25]])
    return CrystalStructure(lattice=lattice, species=np.array([6]),
                            frac=np.zeros((1, 3)), id="skewed")
