"""Shared helpers: random structure generators and small fixed cells."""

import builtins
import errno
import pathlib

import numpy as np
import pytest

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


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Proper rotation from the QR of a gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


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
