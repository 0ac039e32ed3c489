"""The demos run end to end.  Demo 03 is left out: it trains for ~25 s and
writes a checkpoint into the working directory."""

import os
import pathlib
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("name", ["01_quotient_complex",
                                  "02_simplex_features",
                                  "04_homology_verification"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
