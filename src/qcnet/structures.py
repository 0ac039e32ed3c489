"""Periodic crystal structures and their file formats.

A structure is a parallelepiped unit cell (three lattice row vectors, in
angstroms), a list of atomic numbers, and fractional coordinates.  Two file
formats are read:

* JSON: ``{"lattice": [[..3..]]*3, "species": [..], "frac": [[..3..]]*n,
  "id": optional string}``.
* POSCAR (VASP 5, ``Direct`` coordinates only) for interchange with other
  crystal tools.

Datasets are JSONL files, one record per line:
``{"id", "structure", "target", "split"?}``.  Malformed lines are collected
as diagnostics with line numbers instead of aborting the whole load.
``replace_files`` is the atomic writer every output file goes through.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import secrets
import sys
from dataclasses import dataclass

import numpy as np

ELEMENT_SYMBOLS = (
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr", "Y", "Zr",
    "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd",
    "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb",
    "Lu", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi", "Po", "At", "Rn", "Fr", "Ra", "Ac", "Th",
    "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk", "Cf", "Es", "Fm",
    "Md", "No", "Lr", "Rf", "Db", "Sg", "Bh", "Hs", "Mt", "Ds",
    "Rg", "Cn", "Nh", "Fl", "Mc", "Lv", "Ts", "Og",
)

SYMBOL_TO_Z = {sym: z for z, sym in enumerate(ELEMENT_SYMBOLS, start=1)}

MAX_Z = len(ELEMENT_SYMBOLS)

# Lattices with |det| at or below this are rejected as degenerate.
DET_TOL = 1e-8


class ParseError(ValueError):
    """Malformed input file or record; carries the path and 1-based line."""

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None):
        self.path = path
        self.line = line
        where = []
        if path is not None:
            where.append(str(path))
        if line is not None:
            where.append(f"line {line}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class DegenerateLatticeError(ValueError):
    """Lattice rows do not span three dimensions."""


class UnknownSpeciesError(ValueError):
    """Atomic number outside 1..118."""


@dataclass(frozen=True)
class CrystalStructure:
    """Unit cell, atomic numbers, and fractional coordinates.

    ``lattice`` rows are the three lattice vectors in angstroms; ``frac`` rows
    are coordinates in the lattice basis, so cartesian positions are
    ``frac @ lattice``.
    """

    lattice: np.ndarray
    species: np.ndarray
    frac: np.ndarray
    id: str | None = None

    def __post_init__(self):
        # Copy so freezing the fields never mutates caller-owned arrays.
        lattice = np.array(self.lattice, dtype=np.float64)
        species = np.array(self.species, dtype=np.int64)
        frac = np.array(self.frac, dtype=np.float64)
        if lattice.shape != (3, 3):
            raise ParseError(f"lattice must be 3x3, got {lattice.shape}")
        if species.ndim != 1 or species.size == 0:
            raise ParseError("species must be a non-empty 1-d integer list")
        if frac.shape != (species.size, 3):
            raise ParseError(
                f"frac must be {species.size}x3 to match species, got {frac.shape}")
        if not np.all(np.isfinite(lattice)):
            raise ParseError("lattice contains non-finite values")
        if not np.all(np.isfinite(frac)):
            raise ParseError("frac contains non-finite values")
        bad = species[(species < 1) | (species > MAX_Z)]
        if bad.size:
            raise UnknownSpeciesError(
                f"atomic number {int(bad[0])} outside 1..{MAX_Z}")
        if abs(np.linalg.det(lattice)) <= DET_TOL:
            raise DegenerateLatticeError(
                "lattice rows are (nearly) linearly dependent, "
                f"|det| = {abs(np.linalg.det(lattice)):.3e}")
        for array in (lattice, species, frac):
            array.setflags(write=False)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "frac", frac)

    @property
    def n_atoms(self) -> int:
        return int(self.species.size)

    def canonicalize(self) -> "CrystalStructure":
        """Wrap fractional coordinates into [0, 1).

        ``x - floor(x)`` can round to exactly 1.0 for tiny negative inputs;
        those are mapped back to 0.0 so the result stays in [0, 1) and the
        operation is idempotent.
        """
        wrapped = self.frac - np.floor(self.frac)
        wrapped = np.where(wrapped >= 1.0, 0.0, wrapped)
        return dataclasses.replace(self, frac=wrapped)


def structure_from_dict(obj: dict) -> CrystalStructure:
    """Build a structure from the JSON object schema; errors carry no
    location, the caller that knows the file adds it."""
    if not isinstance(obj, dict):
        raise ParseError("structure must be a JSON object")
    for key in ("lattice", "species", "frac"):
        if key not in obj:
            raise ParseError(f"structure is missing field '{key}'")
    sid = obj.get("id")
    if sid is not None and not isinstance(sid, str):
        raise ParseError("field 'id' must be a string")
    arrays = {}
    for key, dtype in (("lattice", np.float64), ("species", np.int64),
                       ("frac", np.float64)):
        # Every leaf must be a JSON number (an integer for species); quoted
        # numbers, bools and nulls are not coerced.
        kinds = int if dtype is np.int64 else (int, float)
        todo = [obj[key]]
        while todo:
            item = todo.pop()
            if isinstance(item, list):
                todo.extend(reversed(item))
            elif isinstance(item, bool) or not isinstance(item, kinds):
                raise ParseError(f"field '{key}' holds {item!r:.40}, not a "
                                 + ("JSON integer" if kinds is int
                                    else "JSON number"))
        try:
            arrays[key] = np.asarray(obj[key], dtype=dtype)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"field '{key}' is not numeric: {exc}")
    return CrystalStructure(arrays["lattice"], arrays["species"],
                            arrays["frac"], id=sid)


def parse_poscar(text: str, path: str | None = None) -> CrystalStructure:
    """Parse a VASP 5 POSCAR with Direct coordinates.

    The subset accepted: comment, scale (negative means target volume),
    three lattice rows, element symbols, counts, a line starting with
    ``d``/``D``, then one coordinate row per atom.  Cartesian coordinates and
    selective dynamics are rejected explicitly.
    """
    lines = text.splitlines()

    def need(i: int, what: str) -> str:
        if i >= len(lines):
            raise ParseError(f"file ends before {what}", path, i + 1)
        return lines[i]

    def floats(i: int, count: int, what: str) -> list[float]:
        parts = need(i, what).split()
        if len(parts) < count:
            raise ParseError(f"expected {count} numbers for {what}", path, i + 1)
        try:
            values = [float(p) for p in parts[:count]]
        except ValueError:
            raise ParseError(f"non-numeric {what}", path, i + 1)
        if not np.all(np.isfinite(values)):
            raise ParseError(f"non-finite {what}", path, i + 1)
        return values

    need(0, "comment line")
    scale = floats(1, 1, "scale factor")[0]
    lattice = np.array([floats(2 + r, 3, "lattice row") for r in range(3)])
    symbols = need(5, "element symbols").split()
    if not symbols or any(sym[0].isdigit() for sym in symbols):
        raise ParseError("element symbol line required (VASP 5 format)",
                         path, 6)
    for sym in symbols:
        if sym not in SYMBOL_TO_Z:
            raise UnknownSpeciesError(f"unknown element symbol '{sym}'")
    count_parts = need(6, "species counts").split()
    try:
        counts = [int(p) for p in count_parts[:len(symbols)]]
    except ValueError:
        raise ParseError("non-integer species count", path, 7)
    if len(counts) != len(symbols) or any(c < 1 for c in counts):
        raise ParseError("species counts must match the symbol line", path, 7)
    mode = need(7, "coordinate mode").strip()
    if not mode or mode[0] not in "dD":
        raise ParseError(
            f"only Direct coordinates are supported, got '{mode}'", path, 8)
    n = sum(counts)
    try:  # one pass; on a fault the row-by-row parse names the first bad row
        frac = np.array([float(x) for line in lines[8:8 + n]
                         for x in line.split()[:3]]).reshape(n, 3)
        if not np.isfinite(frac).all():
            raise ValueError("non-finite coordinate")
    except ValueError:
        frac = np.array([floats(8 + a, 3, "coordinate row") for a in range(n)])
    if scale <= 0.0:
        if scale == 0.0:
            raise ParseError("scale factor must be nonzero", path, 2)
        # Negative scale is a target cell volume.
        det = abs(np.linalg.det(lattice))
        if det <= DET_TOL:
            raise DegenerateLatticeError("lattice rows are degenerate")
        scale = (-scale / det) ** (1.0 / 3.0)
    species = np.concatenate(
        [np.full(c, SYMBOL_TO_Z[sym], dtype=np.int64)
         for sym, c in zip(symbols, counts)])
    comment = lines[0].strip()
    return CrystalStructure(lattice * scale, species, frac,
                            id=comment or None)


def _sniff_format(text: str) -> str:
    for ch in text:
        if not ch.isspace():
            return "json" if ch in "{[" else "poscar"
    return "json"


def decode_text(data: bytes, path: str | None = None) -> str:
    """UTF-8 text of outside input: a byte sequence that is not UTF-8 is a
    ParseError naming ``path`` (when given) and the byte's offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                         path)


def decode_json(data: str | bytes, path: str | None = None):
    """``json.loads`` for outside input: every failure is a ParseError.

    That covers bad syntax, bytes that are not UTF-8, an integer literal
    longer than Python converts (a plain ValueError) and nesting deeper
    than the decoder recurses (RecursionError).  With ``path`` the error
    names the file and, for bad syntax, the line; without, no location.
    """
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        message = ("nested too deeply" if isinstance(exc, RecursionError)
                   else getattr(exc, "msg", exc))
        raise ParseError(f"invalid JSON: {message}", path,
                         getattr(exc, "lineno", None) if path else None)


def parse_structure(path: str | os.PathLike,
                    fmt: str = "auto") -> CrystalStructure:
    """Read a structure file; ``fmt`` is ``json``, ``poscar``, or ``auto``."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        text = decode_text(fh.read(), path)
    if fmt == "auto":
        fmt = _sniff_format(text)
    if fmt == "json":
        obj = decode_json(text, path)
        try:
            return structure_from_dict(obj)
        except ParseError as exc:
            raise ParseError(str(exc), path)
    if fmt == "poscar":
        return parse_poscar(text, path=path)
    raise ValueError(f"unknown structure format '{fmt}'")


@dataclass(frozen=True)
class DatasetRecord:
    """One labeled example: a structure and its scalar target."""

    structure: CrystalStructure
    target: float
    split_tag: str | None = None

    def __post_init__(self):
        # The last test is false for nan, +-inf and ints beyond float range.
        if not isinstance(self.target, (int, float)) or \
                isinstance(self.target, bool) or \
                not abs(self.target) <= sys.float_info.max:
            raise ParseError(f"target must be a finite number, "
                             f"got {self.target!r:.40}")
        object.__setattr__(self, "target", float(self.target))
        if self.split_tag is not None and \
                self.split_tag not in ("train", "val", "test"):
            raise ParseError(f"split must be train/val/test, "
                             f"got {self.split_tag!r}")


@dataclass
class DatasetLoadResult:
    """Loaded records plus per-line diagnostics for skipped lines."""

    records: list[DatasetRecord]
    errors: list[tuple[int, str]]


def record_from_obj(obj: dict) -> DatasetRecord:
    """Build a record from a dataset line's object; errors carry no
    location."""
    if not isinstance(obj, dict):
        raise ParseError("record must be a JSON object")
    if "structure" not in obj:
        raise ParseError("record is missing field 'structure'")
    if "target" not in obj:
        raise ParseError("record is missing field 'target'")
    structure = structure_from_dict(obj["structure"])
    rid = obj.get("id")
    if rid is not None:
        if not isinstance(rid, str):
            raise ParseError("field 'id' must be a string")
        structure = dataclasses.replace(structure, id=rid)
    # The record checks the target and the split tag itself.
    return DatasetRecord(structure, obj["target"], obj.get("split"))


def load_dataset(path: str | os.PathLike) -> DatasetLoadResult:
    """Read a JSONL dataset; malformed lines become diagnostics, not aborts.

    A diagnostic is (line number, message); the message names neither the
    file nor the line, so a reporter adds each once.
    """
    records: list[DatasetRecord] = []
    errors: list[tuple[int, str]] = []
    with open(os.fspath(path), "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r\n and \r, as text mode
    for lineno, raw in enumerate(lines, start=1):
        try:
            text = decode_text(raw)
            if text.strip():
                records.append(record_from_obj(decode_json(text)))
        except (ParseError, DegenerateLatticeError,
                UnknownSpeciesError) as exc:
            errors.append((lineno, str(exc)))
    return DatasetLoadResult(records, errors)


def replace_files(files: list[tuple[str, list[bytes]]]) -> None:
    """Write each (path, chunks) to a temporary file beside its path, then
    rename them all into place.  A failed write leaves every path as it was;
    a reader never sees a partly written file."""
    temps = []
    try:
        for path, chunks in files:
            temps.append(f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
            with open(temps[-1], "xb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
    except OSError as exc:  # name the target, not its temporary
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
