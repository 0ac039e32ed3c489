"""Structure container, POSCAR/JSON parsing, and dataset IO."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcnet.structures
from qcnet.features import AtomFeatureTable
from qcnet.structures import (MAX_Z, CrystalStructure, DatasetRecord,
                              DegenerateLatticeError, ParseError,
                              UnknownSpeciesError, load_dataset, parse_poscar,
                              parse_structure, record_from_obj, replace_files,
                              structure_from_dict)

from conftest import (DATA_DIR, open_failing_at, random_structure,
                      structure_obj)


class TestCrystalStructure:
    def test_basic_properties(self, catio3):
        assert catio3.n_atoms == 5
        assert catio3.id == "CaTiO3"

    def test_arrays_are_frozen(self, catio3):
        with pytest.raises(ValueError):
            catio3.frac[0, 0] = 0.25
        with pytest.raises(ValueError):
            catio3.lattice[0, 0] = 1.0

    def test_caller_arrays_not_frozen(self):
        frac = np.zeros((1, 3))
        CrystalStructure(lattice=np.eye(3), species=np.array([1]), frac=frac)
        frac[0, 0] = 0.5  # the constructor copies, so this must not raise

    def test_left_handed_lattice_accepted(self):
        # The degeneracy check is on |det|, so a negative det is a cell.
        lattice = np.diag([1.0, 1.0, -1.0])
        s = CrystalStructure(lattice=lattice, species=np.array([1]),
                             frac=np.zeros((1, 3)))
        np.testing.assert_array_equal(s.lattice, lattice)

    def test_degenerate_lattice_rejected(self):
        lattice = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
        with pytest.raises(DegenerateLatticeError):
            CrystalStructure(lattice=lattice, species=np.array([1]),
                             frac=np.zeros((1, 3)))

    def test_species_out_of_range(self):
        for z in (0, 119, -3):
            with pytest.raises(UnknownSpeciesError):
                CrystalStructure(lattice=np.eye(3), species=np.array([z]),
                                 frac=np.zeros((1, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ParseError):
            CrystalStructure(lattice=np.eye(3), species=np.array([1, 1]),
                             frac=np.zeros((1, 3)))

    def test_nonfinite_rejected(self):
        frac = np.array([[np.nan, 0, 0]])
        with pytest.raises(ParseError):
            CrystalStructure(lattice=np.eye(3), species=np.array([1]),
                             frac=frac)

    def test_canonicalize_wraps(self):
        frac = np.array([[1.25, -0.25, 2.0]])
        s = CrystalStructure(lattice=np.eye(3), species=np.array([1]),
                             frac=frac)
        wrapped = s.canonicalize().frac[0]
        np.testing.assert_allclose(wrapped, [0.25, 0.75, 0.0], atol=1e-12)

    def test_canonicalize_tiny_negative_maps_to_zero(self):
        # x - floor(x) rounds to exactly 1.0 here; must come back as 0.0
        frac = np.array([[-1e-18, 0.0, 0.0]])
        s = CrystalStructure(lattice=np.eye(3), species=np.array([1]),
                             frac=frac)
        out = s.canonicalize().frac
        assert np.all(out >= 0.0) and np.all(out < 1.0)


class TestPoscar:
    def test_parse_fixture(self, catio3):
        s = parse_structure(DATA_DIR / "catio3.poscar")
        assert s.n_atoms == 5
        np.testing.assert_array_equal(s.species, catio3.species)
        np.testing.assert_allclose(s.lattice, catio3.lattice, atol=1e-12)
        np.testing.assert_allclose(s.frac, catio3.frac, atol=1e-12)
        assert s.id == "cubic perovskite CaTiO3"

    def test_scale_multiplies_lattice(self):
        text = ("t\n2.0\n1 0 0\n0 1 0\n0 0 1\nH\n1\nDirect\n0 0 0\n")
        s = parse_poscar(text)
        np.testing.assert_array_equal(s.lattice, 2.0 * np.eye(3))

    def test_negative_scale_sets_volume(self):
        text = ("t\n-27.0\n1 0 0\n0 1 0\n0 0 1\nH\n1\nDirect\n0 0 0\n")
        s = parse_poscar(text)
        assert abs(np.linalg.det(s.lattice)) == pytest.approx(27.0)

    def test_cartesian_mode_rejected(self):
        text = ("t\n1.0\n1 0 0\n0 1 0\n0 0 1\nH\n1\nCartesian\n0 0 0\n")
        with pytest.raises(ParseError, match="[Dd]irect"):
            parse_poscar(text)

    def test_unknown_symbol(self):
        text = ("t\n1.0\n1 0 0\n0 1 0\n0 0 1\nXx\n1\nDirect\n0 0 0\n")
        with pytest.raises(UnknownSpeciesError):
            parse_poscar(text)

    def test_counts_line_not_integers(self):
        text = ("t\n1.0\n1 0 0\n0 1 0\n0 0 1\nH\none\nDirect\n0 0 0\n")
        with pytest.raises(ParseError):
            parse_poscar(text)

    def test_too_few_coordinate_lines(self):
        text = ("t\n1.0\n1 0 0\n0 1 0\n0 0 1\nH\n2\nDirect\n0 0 0\n")
        with pytest.raises(ParseError):
            parse_poscar(text)

    def test_symbol_count_mismatch(self):
        text = ("t\n1.0\n1 0 0\n0 1 0\n0 0 1\nH O\n1\nDirect\n0 0 0\n")
        with pytest.raises(ParseError):
            parse_poscar(text)

    def test_error_carries_location(self, tmp_path):
        bad = tmp_path / "bad.poscar"
        bad.write_text("t\n1.0\n1 0 0\n0 1 0\nnot a row\nH\n1\nDirect\n0 0 0\n")
        with pytest.raises(ParseError) as err:
            parse_structure(bad, fmt="poscar")
        assert "line" in str(err.value)
        assert str(bad) in str(err.value)

    @pytest.mark.parametrize("rows, line, message", [
        (["0 0 0", "0.5 0.5"], 10, "expected 3 numbers for coordinate row"),
        (["0 0 0", "0.5 x 0.5", "nan 0 0"], 10, "non-numeric coordinate row"),
        (["0 0 0", "0 0 0", "0.5 inf 0.5"], 11, "non-finite coordinate row"),
        (["0 0 0", "nan 0 0 0"], 10, "non-finite coordinate row"),
        (["0 0 0", "0 0 0"], 11, "file ends before coordinate row"),
    ], ids=["short", "non-numeric", "non-finite", "extra-column", "ends"])
    def test_coordinate_fault_names_first_bad_line(self, rows, line,
                                                   message):
        # Three atoms, so coordinate rows are lines 9-11; the first bad row
        # is named even when a later one is also bad.
        text = "t\n1.0\n1 0 0\n0 1 0\n0 0 1\nH\n3\nDirect\n"
        with pytest.raises(ParseError) as err:
            parse_poscar(text + "\n".join(rows) + "\n", "x.poscar")
        assert err.value.line == line
        assert str(err.value) == f"x.poscar, line {line}: {message}"

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.poscar"
        empty.write_text("")
        with pytest.raises(ParseError):
            parse_structure(empty, fmt="poscar")


class TestJsonFormat:
    def test_dict_round_trip(self, catio3):
        back = structure_from_dict(structure_obj(catio3))
        np.testing.assert_array_equal(back.lattice, catio3.lattice)
        np.testing.assert_array_equal(back.frac, catio3.frac)
        np.testing.assert_array_equal(back.species, catio3.species)
        assert back.id == catio3.id

    def test_symbol_species_rejected(self):
        # JSON species are atomic numbers; element symbols are POSCAR-only
        obj = {"lattice": np.eye(3).tolist(), "species": ["Ca", "O"],
               "frac": [[0, 0, 0], [0.5, 0.5, 0.5]]}
        with pytest.raises(ParseError):
            structure_from_dict(obj)

    @pytest.mark.parametrize("key, value", [
        ("species", ["26"]), ("species", [True]), ("species", [26.0]),
        ("species", [None]), ("species", [10 ** 30]),
        ("lattice", [["3", "0", "0"], [0, 3, 0], [0, 0, 3]]),
        ("lattice", [[3, 0, 0], [0, 3, 0], [0, 0, False]]),
        ("lattice", [[10 ** 400, 0, 0], [0, 3, 0], [0, 0, 3]]),
        ("frac", [[True, 0, 0]]), ("frac", [["0.5", 0, 0]]),
        ("frac", [[0, {}, 0]]),
    ], ids=["species-quoted", "species-bool", "species-float",
            "species-null", "species-huge", "lattice-quoted", "lattice-bool",
            "lattice-huge", "frac-bool", "frac-quoted", "frac-object"])
    def test_non_number_leaf_rejected(self, key, value):
        # Quoted numbers and bools are not coerced; the error names the field.
        obj = {"lattice": (3.0 * np.eye(3)).tolist(), "species": [26],
               "frac": [[0.0, 0.0, 0.0]]}
        obj[key] = value
        with pytest.raises(ParseError, match=f"'{key}'"):
            structure_from_dict(obj)

    def test_missing_key(self):
        with pytest.raises(ParseError, match="frac"):
            structure_from_dict({"lattice": np.eye(3).tolist(),
                                 "species": [1]})

    def test_write_and_sniff(self, tmp_path, catio3):
        jpath = tmp_path / "s.json"
        ppath = tmp_path / "s.poscar"
        jpath.write_text(json.dumps(structure_obj(catio3)))
        ppath.write_text((DATA_DIR / "catio3.poscar").read_text())
        for path in (jpath, ppath):
            back = parse_structure(path)  # format sniffed from content
            np.testing.assert_allclose(back.frac, catio3.frac, atol=1e-12)


@st.composite
def structures(draw):
    """Diagonally dominant cells (never degenerate) with arbitrary float
    coordinates, species runs and ids, including multi-line ones."""
    n = draw(st.integers(1, 6))
    diag = st.floats(1.0, 10.0)
    off = st.floats(-0.45, 0.45)
    lattice = np.array([[draw(diag) if i == j else draw(off)
                         for j in range(3)] for i in range(3)])
    coord = st.floats(-2.0, 2.0, allow_subnormal=True)
    frac = np.array([[draw(coord) for _ in range(3)] for _ in range(n)])
    species = draw(st.lists(st.integers(1, MAX_Z), min_size=n, max_size=n))
    sid = draw(st.none() | st.text(max_size=12)
               | st.sampled_from(["a\nb", "a\r\nb", "x\u2028y", "z\n"]))
    return CrystalStructure(lattice, species, frac, id=sid)


def assert_same_cell(back, s):
    np.testing.assert_array_equal(back.lattice, s.lattice)
    np.testing.assert_array_equal(back.species, s.species)
    np.testing.assert_array_equal(back.frac, s.frac)


class TestRoundTripProperties:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(s=structures())
    def test_json(self, s):
        back = structure_from_dict(json.loads(json.dumps(structure_obj(s))))
        assert_same_cell(back, s)
        assert back.id == s.id


class TestDataset:
    def _record_line(self, s, target, **kw):
        obj = {"structure": structure_obj(s), "target": target}
        obj.update(kw)
        return json.dumps(obj)

    def test_round_trip(self, tmp_path, catio3):
        path = tmp_path / "d.jsonl"
        path.write_text(self._record_line(catio3, 1.5, split="train") + "\n"
                        + self._record_line(catio3, -2.0, split="val") + "\n")
        result = load_dataset(path)
        assert result.errors == []
        assert len(result.records) == 2
        assert result.records[0].target == 1.5
        assert result.records[1].split_tag == "val"

    def test_malformed_lines_reported_not_fatal(self, tmp_path, catio3):
        lines = [self._record_line(catio3, 1.0),
                 "this is not json",
                 self._record_line(catio3, 2.0),
                 json.dumps({"target": 3.0}),  # no structure keys
                 ""]
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        result = load_dataset(path)
        assert len(result.records) == 2
        assert len(result.errors) == 2
        assert [lineno for lineno, _ in result.errors] == [2, 4]

    def test_quoted_numbers_reported_per_line(self, tmp_path, catio3):
        quoted = structure_obj(catio3)
        quoted["lattice"] = [[str(x) for x in row] for row in quoted["lattice"]]
        path = tmp_path / "d.jsonl"
        path.write_text(self._record_line(catio3, 1.0) + "\n"
                        + json.dumps({"structure": quoted, "target": 2.0})
                        + "\n")
        result = load_dataset(path)
        assert len(result.records) == 1
        assert [lineno for lineno, _ in result.errors] == [2]
        assert "'lattice'" in result.errors[0][1]

    def test_invalid_target(self, catio3):
        with pytest.raises(ValueError):
            DatasetRecord(structure=catio3, target=float("nan"))
        with pytest.raises(ValueError):
            record_from_obj({"structure": structure_obj(catio3),
                             "target": "high"})

    def test_huge_integer_target_is_line_diagnostic(self, tmp_path, catio3):
        # 10**400 is a valid JSON number but has no float value.
        with pytest.raises(ParseError, match="finite number"):
            DatasetRecord(structure=catio3, target=10 ** 400)
        path = tmp_path / "d.jsonl"
        path.write_text(self._record_line(catio3, 1.0) + "\n"
                        + self._record_line(catio3, 10 ** 400) + "\n")
        result = load_dataset(path)
        assert [r.target for r in result.records] == [1.0]
        assert [lineno for lineno, _ in result.errors] == [2]
        assert "target must be a finite number" in result.errors[0][1]

    def test_integer_too_long_to_convert_is_line_diagnostic(self, tmp_path,
                                                            catio3):
        # Beyond Python's 4300-digit int conversion limit json.loads raises
        # a plain ValueError, not a JSONDecodeError.
        line = self._record_line(catio3, 0.0).replace(
            '"target": 0.0', '"target": 1' + "0" * 4999)
        path = tmp_path / "d.jsonl"
        path.write_text(self._record_line(catio3, 1.0) + "\n" + line + "\n")
        result = load_dataset(path)
        assert [r.target for r in result.records] == [1.0]
        assert [lineno for lineno, _ in result.errors] == [2]
        assert result.errors[0][1].startswith("invalid JSON: ")

    def test_too_deeply_nested_line_is_line_diagnostic(self, tmp_path,
                                                        catio3):
        path = tmp_path / "d.jsonl"
        path.write_text("[" * 100000 + "]" * 100000 + "\n"
                        + self._record_line(catio3, 1.0) + "\n")
        result = load_dataset(path)
        assert [r.target for r in result.records] == [1.0]
        assert result.errors == [(1, "invalid JSON: nested too deeply")]

    def test_non_utf8_line_is_line_diagnostic(self, tmp_path, catio3):
        path = tmp_path / "d.jsonl"
        good = self._record_line(catio3, 1.0).encode()
        path.write_bytes(good + b"\n\xff\n" + good + b"\r\n")
        result = load_dataset(path)
        assert [r.target for r in result.records] == [1.0, 1.0]
        assert result.errors == [
            (2, "not UTF-8 text: invalid start byte at byte 0")]

    def test_diagnostics_name_no_location(self, tmp_path, catio3):
        no_frac = structure_obj(catio3)
        del no_frac["frac"]
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"structure": no_frac, "target": 1.0})
                        + "\n" + self._record_line(catio3, 1.0, split="x")
                        + "\n")
        assert load_dataset(path).errors == [
            (1, "structure is missing field 'frac'"),
            (2, "split must be train/val/test, got 'x'")]

    def test_invalid_split_tag(self, catio3):
        with pytest.raises(ValueError):
            DatasetRecord(structure=catio3, target=0.0, split_tag="holdout")


class TestInterruptedWrites:
    # The bytes a file of each kind holds, for a structure; every output
    # file goes through replace_files.
    CONTENTS = {
        "structure-json": lambda s: [
            json.dumps(structure_obj(s)).encode()],
        "structure-poscar": lambda s: [
            f"{s.id or 'structure'}\n".encode(),
            (DATA_DIR / "catio3.poscar").read_bytes().split(b"\n", 1)[1]],
        "dataset": lambda s: [
            (json.dumps({"structure": structure_obj(s), "target": t})
             + "\n").encode() for t in (1.0, 2.0)],
        "atom-table": lambda s: [json.dumps(
            {str(z): [float(z)] * 92 for z in s.species}).encode()],
    }
    READERS = {
        "structure-json": lambda path: parse_structure(path).n_atoms,
        "structure-poscar": lambda path: parse_structure(path).n_atoms,
        "dataset": lambda path: len(load_dataset(path).records),
        "atom-table": lambda path: int(np.count_nonzero(
            ~np.isnan(AtomFeatureTable.from_json(path).rows[:, 0]))),
    }

    @pytest.mark.parametrize("writer", sorted(CONTENTS))
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch,
                                              catio3, writer):
        # A disk that fills up mid-write leaves the previous file whole,
        # still readable, and no temporary file behind.
        path = str(tmp_path / "out")
        replace_files([(path, self.CONTENTS[writer](catio3))])
        before = (tmp_path / "out").read_bytes()
        expected = self.READERS[writer](path)
        opened = []
        monkeypatch.setattr(qcnet.structures, "open",
                            open_failing_at(0, opened), raising=False)
        with pytest.raises(OSError, match="No space left"):
            replace_files([(path, self.CONTENTS[writer](
                random_structure(np.random.default_rng(1))))])
        monkeypatch.undo()
        assert len(opened) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert (tmp_path / "out").read_bytes() == before
        assert self.READERS[writer](path) == expected
