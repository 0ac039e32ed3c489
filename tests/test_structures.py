"""Structure container, POSCAR/JSON parsing, and dataset IO."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcnet.structures import (MAX_Z, CrystalStructure, DatasetRecord,
                              DegenerateLatticeError, ParseError,
                              UnknownSpeciesError, load_dataset, parse_poscar,
                              parse_structure, poscar_text, record_from_obj,
                              save_dataset, structure_from_dict,
                              structure_json_text, structure_to_dict,
                              write_structure)

from conftest import DATA_DIR, random_structure


class TestCrystalStructure:
    def test_basic_properties(self, catio3):
        assert catio3.n_atoms == 5
        assert catio3.volume == pytest.approx(3.84 ** 3)
        np.testing.assert_allclose(catio3.cartesian()[1],
                                   [1.92, 1.92, 1.92], atol=1e-12)

    def test_row_vector_convention(self):
        lattice = np.array([[2.0, 0, 0], [0, 3.0, 0], [0, 0, 4.0]])
        s = CrystalStructure(lattice=lattice, species=np.array([1]),
                             frac=np.array([[0.5, 0.5, 0.5]]))
        np.testing.assert_allclose(s.cartesian()[0], [1.0, 1.5, 2.0])

    def test_arrays_are_frozen(self, catio3):
        with pytest.raises(ValueError):
            catio3.frac[0, 0] = 0.25
        with pytest.raises(ValueError):
            catio3.lattice[0, 0] = 1.0

    def test_caller_arrays_not_frozen(self):
        frac = np.zeros((1, 3))
        CrystalStructure(lattice=np.eye(3), species=np.array([1]), frac=frac)
        frac[0, 0] = 0.5  # the constructor copies, so this must not raise

    def test_left_handed_lattice_volume_positive(self):
        lattice = np.diag([1.0, 1.0, -1.0])
        s = CrystalStructure(lattice=lattice, species=np.array([1]),
                             frac=np.zeros((1, 3)))
        assert s.volume == pytest.approx(1.0)

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

    def test_round_trip_exact(self, catio3):
        text = poscar_text(catio3)
        back = parse_poscar(text)
        np.testing.assert_array_equal(back.lattice, catio3.lattice)
        np.testing.assert_array_equal(back.frac, catio3.frac)
        np.testing.assert_array_equal(back.species, catio3.species)

    def test_scale_multiplies_lattice(self):
        text = ("t\n2.0\n1 0 0\n0 1 0\n0 0 1\nH\n1\nDirect\n0 0 0\n")
        s = parse_poscar(text)
        assert s.volume == pytest.approx(8.0)

    def test_negative_scale_sets_volume(self):
        text = ("t\n-27.0\n1 0 0\n0 1 0\n0 0 1\nH\n1\nDirect\n0 0 0\n")
        s = parse_poscar(text)
        assert s.volume == pytest.approx(27.0)

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

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.poscar"
        empty.write_text("")
        with pytest.raises(ParseError):
            parse_structure(empty, fmt="poscar")


class TestJsonFormat:
    def test_dict_round_trip(self, catio3):
        back = structure_from_dict(structure_to_dict(catio3))
        np.testing.assert_array_equal(back.lattice, catio3.lattice)
        np.testing.assert_array_equal(back.frac, catio3.frac)
        np.testing.assert_array_equal(back.species, catio3.species)
        assert back.id == catio3.id

    def test_json_text_deterministic(self, catio3):
        assert structure_json_text(catio3) == structure_json_text(catio3)
        obj = json.loads(structure_json_text(catio3))
        assert set(obj) >= {"lattice", "species", "frac"}

    def test_symbol_species_rejected(self):
        # JSON species are atomic numbers; element symbols are POSCAR-only
        obj = {"lattice": np.eye(3).tolist(), "species": ["Ca", "O"],
               "frac": [[0, 0, 0], [0.5, 0.5, 0.5]]}
        with pytest.raises(ParseError):
            structure_from_dict(obj)

    def test_missing_key(self):
        with pytest.raises(ParseError, match="frac"):
            structure_from_dict({"lattice": np.eye(3).tolist(),
                                 "species": [1]})

    def test_write_and_sniff(self, tmp_path, catio3):
        jpath = tmp_path / "s.json"
        ppath = tmp_path / "s.poscar"
        write_structure(catio3, jpath, fmt="json")
        write_structure(catio3, ppath, fmt="poscar")
        for path in (jpath, ppath):
            back = parse_structure(path)  # format sniffed from content
            np.testing.assert_allclose(back.frac, catio3.frac, atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = random_structure(rng)
            for text, parser in ((poscar_text(s), parse_poscar),
                                 (structure_json_text(s),
                                  lambda t: structure_from_dict(json.loads(t)))):
                back = parser(text)
                np.testing.assert_array_equal(back.lattice, s.lattice)
                np.testing.assert_array_equal(back.frac, s.frac)
                np.testing.assert_array_equal(back.species, s.species)


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
        back = structure_from_dict(json.loads(structure_json_text(s)))
        assert_same_cell(back, s)
        assert back.id == s.id

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(s=structures())
    def test_poscar(self, s):
        if s.id and s.id.splitlines() != [s.id]:
            with pytest.raises(ValueError, match="one-line"):
                poscar_text(s)
            return
        back = parse_poscar(poscar_text(s))
        assert_same_cell(back, s)
        if s.id is None or s.id == s.id.strip():
            assert back.id == (s.id or "qcnet structure")

    def test_multiline_id_rejected(self, catio3):
        s = CrystalStructure(catio3.lattice, catio3.species, catio3.frac,
                             id="a\nb")
        with pytest.raises(ValueError):
            poscar_text(s)


class TestDataset:
    def _record_line(self, s, target, **kw):
        obj = {"structure": structure_to_dict(s), "target": target}
        obj.update(kw)
        return json.dumps(obj)

    def test_round_trip(self, tmp_path, catio3):
        records = [DatasetRecord(structure=catio3, target=1.5,
                                 split_tag="train"),
                   DatasetRecord(structure=catio3, target=-2.0,
                                 split_tag="val")]
        path = tmp_path / "d.jsonl"
        save_dataset(records, path)
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
        assert result.n_skipped == 2
        assert [lineno for lineno, _ in result.errors] == [2, 4]

    def test_invalid_target(self, catio3):
        with pytest.raises(ValueError):
            DatasetRecord(structure=catio3, target=float("nan"))
        with pytest.raises(ValueError):
            record_from_obj({"structure": structure_to_dict(catio3),
                             "target": "high"})

    def test_invalid_split_tag(self, catio3):
        with pytest.raises(ValueError):
            DatasetRecord(structure=catio3, target=0.0, split_tag="holdout")

    def test_save_is_deterministic(self, tmp_path, catio3):
        records = [DatasetRecord(structure=catio3, target=0.25)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(records, p1)
        save_dataset(records, p2)
        assert p1.read_bytes() == p2.read_bytes()
