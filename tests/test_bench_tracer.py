"""The benchmark tracer wraps package functions by name from outside the
package; every name it patches must exist and come back on uninstall."""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """``bench/tracer.py`` and ``bench/workloads.py``, imported as the
    benchmark imports them, writing no bytecode beside them; sys.path
    comes back afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads
    return tracer, workloads


def namespaces(modules: dict) -> list:
    """The package modules and the classes they define."""
    spaces = list(modules.values())
    spaces += [value for module in modules.values()
               for value in vars(module).values()
               if isinstance(value, type)
               and value.__module__ == module.__name__]
    return spaces


def test_install_then_uninstall_restores_every_name(bench):
    tracer, workloads = bench
    modules = workloads.load_package()
    before = [(space, dict(vars(space))) for space in namespaces(modules)]
    t = tracer.Tracer(modules)
    t.install()
    patched = list(t.originals)
    t.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    for space, names in before:
        now = dict(vars(space))
        assert now.keys() == names.keys(), space.__name__
        changed = [k for k in names if now[k] is not names[k]]
        assert not changed, (space.__name__, changed)
