"""Command line surface: exit codes, outputs, and seed precedence."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qcnet
import qcnet.periodic
import qcnet.structures
from qcnet.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_INPUT, EXIT_NUMERIC,
                       EXIT_OK, build_parser, main)
from qcnet.model import ModelConfig, SimplexTransformer, save_checkpoint
from qcnet.structures import record_to_obj, save_dataset, \
    write_structure
from qcnet.training import synthetic_overfit_dataset

from conftest import DATA_DIR, open_failing_at

POSCAR = str(DATA_DIR / "catio3.poscar")


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "train.jsonl"
    save_dataset(synthetic_overfit_dataset(n_samples=6, seed=7), path)
    return path


@pytest.fixture
def run_config(tmp_path, dataset):
    def make(name="run.ini", **overrides):
        opts = {"epochs": "2", "batch_size": "8", "peak_lr": "0.005",
                "k_neighbors": "4", "seed": "5"}
        opts.update({k: str(v) for k, v in overrides.pop("train", {}).items()})
        out_dir = overrides.pop("out_dir", tmp_path / "out")
        lines = ["[data]", f"train = {dataset}", "atom_table = random:0",
                 "", "[train]"]
        lines += [f"{k} = {v}" for k, v in opts.items()]
        lines += ["", "[model]", "hidden_dim = 4", "head_hidden = 4",
                  "", "[output]", f"dir = {out_dir}"]
        lines += overrides.pop("extra_lines", [])
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path, out_dir
    return make


class TestParser:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for sub in ("build", "featurize", "train", "finetune", "eval",
                    "predict", "homology"):
            assert sub in text

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_parser_is_importable_and_complete(self):
        parser = build_parser()
        assert parser.prog == "qcnet"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_bad_threads(self, capsys):
        assert main(["--threads", "0", "build", POSCAR, "-o", "x"]) \
            == EXIT_CONFIG

    def test_threads_set_before_numpy_loads(self, tmp_path):
        # os.environ assignments raise the os.putenv audit event; record
        # whether numpy was loaded at each thread-variable assignment.
        script = f"""
import os, sys
from qcnet.cli import _THREAD_VARS, main
loaded = []
def hook(event, args):
    if event == "os.putenv" and args[0].decode() in _THREAD_VARS:
        loaded.append("numpy" in sys.modules)
sys.addaudithook(hook)
code = main(["--threads", "2", "build", {POSCAR!r}, "-o",
             {str(tmp_path / "c.json")!r}])
print(code, loaded, "numpy" in sys.modules)
"""
        src_dir = str(pathlib.Path(qcnet.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src_dir))
        assert proc.stdout.splitlines()[-1] == \
            "0 [False, False, False, False] True"

    def test_package_exports_resolve(self):
        assert all(hasattr(qcnet, name) for name in qcnet.__all__)

    FLAGS = {
        "build": ["--out", "--format", "--k", "--radius"],
        "featurize": ["--out-prefix", "--format", "--k", "--atom-table"],
        "train": ["--seed"],
        "finetune": ["--checkpoint", "--seed"],
        "eval": ["--checkpoint", "--dataset", "--atom-table", "--k",
                 "--out"],
        "predict": ["--checkpoint", "--format", "--atom-table", "--k"],
        "homology": ["--construction", "--strict", "--out"],
    }

    @pytest.mark.parametrize("sub", sorted(FLAGS))
    def test_subcommand_help_documents_flags(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in self.FLAGS[sub]:
            assert flag in text


class TestBuild:
    def test_build_poscar(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["build", POSCAR, "-o", str(out)]) == EXIT_OK
        line = capsys.readouterr().out
        assert "vertices=5" in line and "edges=60" in line
        obj = json.loads(out.read_text())
        assert len(obj["edges"]) == 60

    def test_missing_file(self, capsys):
        assert main(["build", "no/such/file", "-o", "x.json"]) == EXIT_INPUT
        assert "not found" in capsys.readouterr().err

    def test_garbage_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.poscar"
        bad.write_text("definitely\nnot a structure\n")
        assert main(["build", str(bad), "-o",
                     str(tmp_path / "x.json")]) == EXIT_INPUT

    def test_quoted_numbers_rejected(self, tmp_path, capsys):
        bad = tmp_path / "quoted.json"
        bad.write_text(json.dumps({"lattice": [["3", "0", "0"],
                                               ["0", "3", "0"],
                                               ["0", "0", "3"]],
                                   "species": ["26"], "frac": [[0, 0, 0]]}))
        out = tmp_path / "x.json"
        assert main(["build", str(bad), "-o", str(out)]) == EXIT_INPUT
        assert "'lattice'" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_too_long_to_convert_exits_input(self, tmp_path,
                                                     capsys):
        # json.loads fails with a plain ValueError past 4300 digits.
        bad = tmp_path / "long.json"
        bad.write_text('{"lattice": [[1' + "0" * 4999 + ', 0, 0], [0, 3, 0], '
                       '[0, 0, 3]], "species": [26], "frac": [[0, 0, 0]]}')
        out = tmp_path / "x.json"
        assert main(["build", str(bad), "-o", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: invalid JSON: ")
        assert not out.exists()

    @pytest.mark.parametrize("line, row", [(4, "0 inf 0"), (10, "nan 0 0")],
                             ids=["lattice-row", "coordinate-row"])
    def test_non_finite_poscar_number_names_line(self, tmp_path, capsys,
                                                 line, row):
        lines = pathlib.Path(POSCAR).read_text().splitlines()
        lines[line - 1] = row
        bad = tmp_path / "bad.poscar"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.json"
        assert main(["build", str(bad), "-o", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"error: {bad}, line {line}: non-finite ")
        assert not out.exists()

    def test_radius_too_small(self, tmp_path, capsys):
        assert main(["build", POSCAR, "--radius", "0.5", "-o",
                     str(tmp_path / "x.json")]) == EXIT_INPUT

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_non_finite_radius_exits_config(self, tmp_path, capsys, radius):
        out = tmp_path / "x.json"
        assert main(["build", POSCAR, "--radius", radius, "-o",
                     str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: radius must be a positive finite number\n")
        assert not out.exists()

    def test_missing_directory_names_target(self, tmp_path, capsys):
        out = tmp_path / "no" / "dir" / "c.json"
        assert main(["build", POSCAR, "-o", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n")

    def test_failed_write_names_target(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(qcnet.structures, "open", open_failing_at(0, []),
                            raising=False)
        out = tmp_path / "c.json"
        assert main(["build", POSCAR, "-o", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: [Errno 28] No space left on device: '{out}'\n")
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["build", POSCAR, "-o", str(a)])
        main(["build", POSCAR, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_skewed_lattice_exits_input(self, tmp_path, monkeypatch, capsys,
                                        skewed1):
        monkeypatch.setattr(qcnet.periodic, "_MAX_SHELL", 3)
        structure = tmp_path / "skewed.json"
        write_structure(skewed1, structure)
        assert main(["build", str(structure), "-o",
                     str(tmp_path / "x.json")]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "plane spacing" in err[0]


class TestFeaturize:
    def test_writes_header_and_arrays(self, tmp_path, capsys):
        prefix = tmp_path / "f"
        assert main(["featurize", POSCAR, "-o", str(prefix),
                     "--k", "12"]) == EXIT_OK
        header = json.loads((tmp_path / "f.json").read_text())
        assert header["arrays"]["h0_raw"] == [5, 92]
        assert header["arrays"]["h1_raw"] == [60, 376]
        data = np.fromfile(tmp_path / "f.h0_raw.bin", dtype="<f8")
        assert data.shape == (5 * 92,)

    def test_bad_atom_table_descriptor(self, tmp_path):
        assert main(["featurize", POSCAR, "-o", str(tmp_path / "f"),
                     "--atom-table", "random:zzz"]) == EXIT_CONFIG

    def test_missing_atom_table_file(self, tmp_path):
        assert main(["featurize", POSCAR, "-o", str(tmp_path / "f"),
                     "--atom-table", str(tmp_path / "no.json")]) == EXIT_DATA


class TestInterruptedWrites:
    @pytest.fixture
    def inputs(self, tmp_path, run_config, dataset):
        cfg, _ = run_config()
        checkpoint = tmp_path / "m.ckpt"
        save_checkpoint(SimplexTransformer.init(ModelConfig(4, 4)),
                        checkpoint, extra={"k_neighbors": 4})
        (tmp_path / "k.json").write_text("[[0,1],[1,2]]")
        (tmp_path / "p.json").write_text("[[0,1,2]]")
        return {"tmp": tmp_path, "poscar": POSCAR, "cfg": cfg,
                "data": dataset, "ckpt": checkpoint}

    # Each row runs argv + first, then argv + second with the failing_file-th
    # open of replace_files failing (counted from the end of the first run's
    # opens when negative).  A train rerun is identical, so its checkpoint
    # bytes match and any change is a half-written history or metrics file.
    @pytest.mark.parametrize("argv, first, second, failing_file", [
        (["build", "{poscar}", "-o", "{tmp}/c.json"],
         ["--k", "4"], ["--k", "6"], 0),
        (["featurize", "{poscar}", "-o", "{tmp}/f"],
         ["--k", "4"], ["--k", "6"], 0),
        (["featurize", "{poscar}", "-o", "{tmp}/f"],
         ["--k", "4"], ["--k", "6"], 3),
        (["train", "{cfg}"], [], [], -2),
        (["train", "{cfg}"], [], [], -1),
        (["eval", "--checkpoint", "{ckpt}", "--dataset", "{data}",
          "-o", "{tmp}/r.json"], ["--k", "4"], ["--k", "6"], 0),
        (["homology", "{tmp}/k.json", "{tmp}/p.json", "-o", "{tmp}/h.json"],
         [], ["--construction", "pairwise"], 0),
    ], ids=["build", "featurize-array", "featurize-header", "train-history",
            "train-metrics", "eval", "homology"])
    def test_failed_write_keeps_previous_outputs(self, inputs, monkeypatch,
                                                 capsys, argv, first, second,
                                                 failing_file):
        argv = [arg.format(**inputs) for arg in argv]

        def outputs():
            return {p: p.read_bytes() for p in inputs["tmp"].rglob("*")
                    if p.is_file()}
        opened = []
        monkeypatch.setattr(qcnet.structures, "open",
                            open_failing_at(None, opened), raising=False)
        assert main(argv + first) == EXIT_OK
        failing_file %= len(opened)
        before = outputs()
        opened = []
        monkeypatch.setattr(qcnet.structures, "open",
                            open_failing_at(failing_file, opened),
                            raising=False)
        assert main(argv + second) == EXIT_INPUT
        monkeypatch.undo()
        assert len(opened) == failing_file + 1
        assert "No space left" in capsys.readouterr().err
        assert outputs() == before


class TestTrain:
    def test_end_to_end(self, run_config, capsys):
        cfg, out_dir = run_config()
        assert main(["train", str(cfg)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "seed: 5" in stdout
        assert (out_dir / "model.ckpt").exists()
        assert (out_dir / "model.ckpt.json").exists()
        history = (out_dir / "history.jsonl").read_text().strip().splitlines()
        assert len(history) == 2
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["seed"] == 5
        assert metrics["n_train"] == 6

    def test_deterministic_reruns(self, run_config, tmp_path):
        cfg1, out1 = run_config("a.ini", out_dir=tmp_path / "o1")
        cfg2, out2 = run_config("b.ini", out_dir=tmp_path / "o2")
        assert main(["train", str(cfg1)]) == EXIT_OK
        assert main(["train", str(cfg2)]) == EXIT_OK
        assert (out1 / "model.ckpt").read_bytes() == \
            (out2 / "model.ckpt").read_bytes()
        assert (out1 / "history.jsonl").read_bytes() == \
            (out2 / "history.jsonl").read_bytes()
        assert (out1 / "metrics.json").read_bytes() == \
            (out2 / "metrics.json").read_bytes()

    def test_missing_config(self, capsys):
        assert main(["train", "no/such.ini"]) == EXIT_CONFIG

    def test_unknown_config_key(self, run_config, capsys):
        cfg, _ = run_config(extra_lines=["", "[extra]", "oops = 1"])
        assert main(["train", str(cfg)]) == EXIT_CONFIG
        assert "extra" in capsys.readouterr().err

    def test_unknown_train_key(self, run_config, capsys):
        cfg, _ = run_config(train={"lr": "0.1"})
        assert main(["train", str(cfg)]) == EXIT_CONFIG
        assert "lr" in capsys.readouterr().err

    def test_missing_dataset(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[data]\ntrain = missing.jsonl\n"
                       "[output]\ndir = out\n")
        assert main(["train", str(cfg)]) == EXIT_DATA

    def test_unrepresentable_target_skipped(self, tmp_path, capsys):
        # A target of 10**400 parses as JSON but has no float value.
        line = json.dumps({**record_to_obj(synthetic_overfit_dataset(
            n_samples=1, seed=7)[0]), "target": 10 ** 400})
        data = tmp_path / "huge.jsonl"
        data.write_text(line + "\n")
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[data]\ntrain = {data}\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["train", str(cfg)]) == EXIT_DATA
        warning, error = capsys.readouterr().err.splitlines()
        # The location is named once, by the CLI.
        assert warning == (f"warning: {data} line 1 skipped: target must be "
                           f"a finite number, got {str(10 ** 400)[:40]}")
        assert error == f"error: no usable records in {data}"

    def test_bad_train_value(self, run_config):
        cfg, _ = run_config(train={"epochs": "-3"})
        assert main(["train", str(cfg)]) == EXIT_CONFIG

    DIVERGING = {"peak_lr": "1e25", "loss": "mse", "epochs": "8",
                 "batch_size": "4"}

    def test_nonfinite_loss_writes_no_checkpoint(self, run_config, capsys):
        cfg, out_dir = run_config(train=self.DIVERGING)
        assert main(["train", str(cfg)]) == EXIT_NUMERIC
        assert "loss became" in capsys.readouterr().err
        assert not (out_dir / "model.ckpt").exists()
        assert not (out_dir / "model.ckpt.json").exists()

    def test_nonfinite_loss_prints_only_the_error_line(self, run_config):
        # In a fresh process numpy's overflow warnings would reach stderr.
        cfg, _ = run_config(train=self.DIVERGING)
        src_dir = str(pathlib.Path(qcnet.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qcnet.cli", "train", str(cfg)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src_dir), timeout=120)
        assert proc.returncode == EXIT_NUMERIC
        assert proc.stderr == "error: loss became inf at epoch 1, batch 0\n"


    @pytest.mark.parametrize("weight_decay", ["nan", "inf"])
    def test_non_finite_weight_decay_exits_config(self, run_config, capsys,
                                                  weight_decay):
        cfg, out_dir = run_config(train={"weight_decay": weight_decay})
        assert main(["train", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: bad training config: weight_decay must be >= 0 and "
            "finite\n")
        assert list(out_dir.iterdir()) == []

    def test_weights_overflowing_on_last_step_write_nothing(self, run_config,
                                                            capsys):
        # The only step is the last, so the loss stays finite and the
        # returned model's weights are not.
        cfg, out_dir = run_config(train={"peak_lr": "1e308", "epochs": "1"})
        assert main(["train", str(cfg)]) == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: layer ") and "non-finite" in err[0]
        assert list(out_dir.iterdir()) == []


class TestSeedPrecedence:
    def _seed_of(self, out_dir):
        return json.loads((out_dir / "metrics.json").read_text())["seed"]

    def test_config_seed_default(self, run_config, monkeypatch):
        monkeypatch.delenv("QCNET_SEED", raising=False)
        cfg, out_dir = run_config()
        main(["train", str(cfg)])
        assert self._seed_of(out_dir) == 5

    def test_env_overrides_config(self, run_config, monkeypatch):
        monkeypatch.setenv("QCNET_SEED", "77")
        cfg, out_dir = run_config()
        main(["train", str(cfg)])
        assert self._seed_of(out_dir) == 77

    def test_flag_overrides_env(self, run_config, monkeypatch):
        monkeypatch.setenv("QCNET_SEED", "77")
        cfg, out_dir = run_config()
        main(["train", str(cfg), "--seed", "123"])
        assert self._seed_of(out_dir) == 123

    def test_invalid_env_seed(self, run_config, monkeypatch, capsys):
        monkeypatch.setenv("QCNET_SEED", "not-a-number")
        cfg, _ = run_config()
        assert main(["train", str(cfg)]) == EXIT_CONFIG
        assert "QCNET_SEED" in capsys.readouterr().err


class TestEvalPredict:
    @pytest.fixture
    def trained(self, run_config, capsys):
        cfg, out_dir = run_config()
        assert main(["train", str(cfg)]) == EXIT_OK
        capsys.readouterr()
        return out_dir

    def test_eval_prints_metrics(self, trained, dataset, capsys):
        assert main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                     "--dataset", str(dataset)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mae:" in out and "cod:" in out

    def test_eval_writes_json(self, trained, dataset, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                     "--dataset", str(dataset), "-o", str(report)]) == EXIT_OK
        obj = json.loads(report.read_text())
        assert obj["n"] == 6
        assert obj["status"] in ("ok", "zero_variance")

    def test_predict_prints_number_and_json(self, trained, capsys):
        assert main(["predict", "--checkpoint",
                     str(trained / "model.ckpt"), POSCAR]) == EXIT_OK
        number, blob = capsys.readouterr().out.strip().split("\n")
        assert len(number.split(".")[-1]) == 6
        obj = json.loads(blob)
        assert obj["prediction"] == pytest.approx(float(number), abs=5e-7)
        assert "id" in obj

    def test_sidecar_defaults_applied(self, trained, capsys):
        # No --k / --atom-table: the values recorded at train time are used,
        # so the prediction matches an explicit invocation.
        args = ["predict", "--checkpoint", str(trained / "model.ckpt"),
                POSCAR]
        assert main(args) == EXIT_OK
        implicit = capsys.readouterr()
        assert implicit.err == ""
        assert main(args + ["--k", "4", "--atom-table",
                            "random:0"]) == EXIT_OK
        explicit = capsys.readouterr().out
        assert implicit.out == explicit

    @pytest.mark.parametrize(
        "sidecar", [None, "missing", "{not json", "[1]", '{"extra": 3}'],
        ids=["no-extra", "missing", "bad-json", "not-object", "extra-int"])
    def test_unrecorded_defaults_warn(self, tmp_path, capsys, sidecar):
        ckpt = tmp_path / "bare.ckpt"
        save_checkpoint(SimplexTransformer.init(ModelConfig(4, 4), seed=0),
                        ckpt)
        side = tmp_path / "bare.ckpt.json"
        if sidecar == "missing":
            side.unlink()
        elif sidecar is not None:
            side.write_text(sidecar)
        args = ["predict", "--checkpoint", str(ckpt), POSCAR]
        assert main(args) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {ckpt}.json records no atom_table; using random:0",
            f"warning: {ckpt}.json records no k_neighbors; using 12"]
        assert main(args + ["--k", "12", "--atom-table",
                            "random:0"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_missing_checkpoint(self, dataset, capsys):
        assert main(["eval", "--checkpoint", "no.ckpt",
                     "--dataset", str(dataset)]) == EXIT_CONFIG

    def test_finetune_mismatched_checkpoint(self, run_config, tmp_path,
                                            capsys):
        wide = SimplexTransformer.init(ModelConfig(8, 8), seed=0)
        save_checkpoint(wide, tmp_path / "wide.ckpt")
        cfg, _ = run_config()
        assert main(["finetune", str(cfg), "--checkpoint",
                     str(tmp_path / "wide.ckpt")]) == EXIT_CONFIG
        assert "hidden_dim" in capsys.readouterr().err


class TestNonFiniteActivations:
    @pytest.fixture
    def nan_checkpoint(self, tmp_path):
        model = SimplexTransformer.init(ModelConfig(4, 4), seed=0)
        dict(model.parameters())["node.0.upd_b"].data[0] = np.nan
        path = tmp_path / "nan.ckpt"
        save_checkpoint(model, path,
                        extra={"k_neighbors": 4, "atom_table": "random:0"})
        return path

    # -O strips assert statements, so the guard must not be one.
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
    def test_predict_exits_numeric(self, nan_checkpoint, flags):
        src_dir = str(pathlib.Path(qcnet.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "qcnet.cli", "predict",
             "--checkpoint", str(nan_checkpoint), POSCAR],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_NUMERIC
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "node.0" in err[0] and "Traceback" not in proc.stderr

    @pytest.fixture(params=["b3-inf", "weights-1e300"])
    def head_checkpoint(self, request, tmp_path):
        model = SimplexTransformer.init(ModelConfig(4, 4), seed=0)
        params = dict(model.parameters())
        if request.param == "b3-inf":
            params["head.b3"].data[0] = np.inf
        else:
            for name in ("head.w1", "head.w2", "head.w3"):
                params[name].data[...] = 1e300
        path = tmp_path / "head.ckpt"
        save_checkpoint(model, path,
                        extra={"k_neighbors": 4, "atom_table": "random:0"})
        return path

    HEAD_ERROR = "error: layer head produced non-finite activations\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_prediction_exits_numeric(self, head_checkpoint,
                                                 capsys):
        assert main(["predict", "--checkpoint", str(head_checkpoint),
                     POSCAR]) == EXIT_NUMERIC
        assert capsys.readouterr() == ("", self.HEAD_ERROR)

    def test_overflow_prints_only_the_error_line(self, tmp_path):
        # In a fresh process numpy's overflow warning would reach stderr.
        model = SimplexTransformer.init(ModelConfig(8, 8), seed=0)
        params = dict(model.parameters())
        for name in ("head.w1", "head.w2", "head.w3"):
            params[name].data[...] = 1e300
        path = tmp_path / "big.ckpt"
        save_checkpoint(model, path)
        src_dir = str(pathlib.Path(qcnet.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qcnet.cli", "predict", "--checkpoint",
             str(path), "--k", "6", "--atom-table", "random:0", POSCAR],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src_dir), timeout=120)
        assert proc.returncode == EXIT_NUMERIC
        assert (proc.stdout, proc.stderr) == ("", self.HEAD_ERROR)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_eval_writes_no_report(self, head_checkpoint, dataset,
                                              tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["eval", "--checkpoint", str(head_checkpoint),
                     "--dataset", str(dataset), "-o",
                     str(report)]) == EXIT_NUMERIC
        assert capsys.readouterr() == ("", self.HEAD_ERROR)
        assert not report.exists()


class TestSidecarValues:
    """A sidecar value of the wrong type is a config error naming the key;
    flags given on the command line still win over the sidecar."""

    BAD = {"atom-table-null": ("atom_table", None),
           "atom-table-int": ("atom_table", 7),
           "k-float": ("k_neighbors", 1.5),
           "k-bool": ("k_neighbors", True),
           "k-zero": ("k_neighbors", 0)}

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_value_exits_config(self, tmp_path, case):
        key, value = self.BAD[case]
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(SimplexTransformer.init(ModelConfig(4, 4), seed=0),
                        ckpt, extra={"atom_table": "random:0",
                                     "k_neighbors": 4, key: value})
        src_dir = str(pathlib.Path(qcnet.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src_dir)

        def predict(*flags):
            return subprocess.run(
                [sys.executable, "-m", "qcnet.cli", "predict",
                 "--checkpoint", str(ckpt), POSCAR, *flags],
                capture_output=True, text=True, env=env, timeout=120)

        proc = predict()
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: {ckpt}.json: {key} must be "
            f"{'a string' if key == 'atom_table' else 'an integer >= 1'}, "
            f"got {value!r}"]
        proc = predict("--atom-table", "random:0", "--k", "4")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""


class TestHomologyCommand:
    @pytest.fixture
    def files(self, tmp_path):
        cplx = tmp_path / "complex.json"
        part = tmp_path / "partition.json"
        cplx.write_text("[[0,1],[1,2]]")
        part.write_text("[[0,1,2]]")
        return cplx, part

    def test_star_output(self, files, capsys):
        cplx, part = files
        assert main(["homology", str(cplx), str(part)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "construction: star" in out
        assert "betti glued: [1, 2, 0, 0]" in out
        assert "H1 injective: True" in out

    def test_pairwise_reports_disagreement(self, files, capsys):
        cplx, part = files
        assert main(["homology", str(cplx), str(part),
                     "--construction", "pairwise"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "betti glued: [1, 3, 0, 0]" in out
        assert "constructions agree: False" in out

    def test_report_file(self, files, tmp_path, capsys):
        cplx, part = files
        report = tmp_path / "report.json"
        assert main(["homology", str(cplx), str(part), "--construction",
                     "pairwise", "-o", str(report)]) == EXIT_OK
        obj = json.loads(report.read_text())
        assert obj["all_verified"] is True
        assert obj["betti_glued"] == [1, 3, 0, 0]
        assert obj["star_betti_glued"] == [1, 2, 0, 0]
        assert obj["constructions_agree"] is False

    def test_strict_fails_on_disagreement(self, files):
        cplx, part = files
        assert main(["homology", str(cplx), str(part), "--construction",
                     "pairwise", "--strict"]) == EXIT_INPUT
        assert main(["homology", str(cplx), str(part), "--construction",
                     "star", "--strict"]) == EXIT_OK

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{{{")
        part = tmp_path / "p.json"
        part.write_text("[[0]]")
        assert main(["homology", str(bad), str(part)]) == EXIT_INPUT

    def test_integer_too_long_to_convert(self, tmp_path, capsys):
        cplx = tmp_path / "c.json"
        part = tmp_path / "p.json"
        cplx.write_text("[[0, 1" + "0" * 4999 + "]]")
        part.write_text("[[0]]")
        assert main(["homology", str(cplx), str(part)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"error: {cplx}: invalid JSON: ")

    @pytest.mark.parametrize("bad_name", ["c.json", "p.json"])
    def test_invalid_json_names_its_file(self, tmp_path, capsys, bad_name):
        cplx = tmp_path / "c.json"
        part = tmp_path / "p.json"
        cplx.write_text("[[0, 1]]")
        part.write_text("[[0, 1]]")
        (tmp_path / bad_name).write_text("[[0")
        assert main(["homology", str(cplx), str(part)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / bad_name}: invalid JSON: ")

    def test_unknown_vertex_in_partition(self, tmp_path):
        cplx = tmp_path / "c.json"
        part = tmp_path / "p.json"
        cplx.write_text("[[0,1]]")
        part.write_text("[[0,9]]")
        assert main(["homology", str(cplx), str(part)]) == EXIT_INPUT

    @pytest.mark.parametrize("cplx_text, part_text", [
        ("[[0, 1.5], [1, 2]]", "[[0, 1]]"),
        ("[[0, true], [1, 2]]", "[[0, 1]]"),
        ('[[0, "1"], [1, 2]]', "[[0, 1]]"),
        ("[[0, 1], [1, 2]]", "[[0, 2.7]]"),
        ("[[0, 1], [1, 2]]", "[[0, true]]"),
        ("[[0, 1], [1, 2]]", '[[0, "2"]]'),
    ], ids=["complex-float", "complex-bool", "complex-str",
            "partition-float", "partition-bool", "partition-str"])
    def test_non_integer_vertex_label(self, tmp_path, capsys, cplx_text,
                                      part_text):
        cplx = tmp_path / "c.json"
        part = tmp_path / "p.json"
        cplx.write_text(cplx_text)
        part.write_text(part_text)
        assert main(["homology", str(cplx), str(part)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "not an integer" in captured.err
        assert captured.out == ""

    def test_wrong_shapes(self, tmp_path):
        cplx = tmp_path / "c.json"
        part = tmp_path / "p.json"
        cplx.write_text("[]")
        part.write_text("[[0]]")
        assert main(["homology", str(cplx), str(part)]) == EXIT_INPUT
