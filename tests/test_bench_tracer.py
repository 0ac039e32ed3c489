"""The benchmark tracer wraps package functions by name from outside the
package; every name it patches must exist and come back on uninstall, and
a traced pass must see every attention layer with its pairs."""

import pathlib
import sys

import numpy as np
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


def test_traced_pass_counts_every_layer(bench, catio3):
    tracer, workloads = bench
    modules = workloads.load_package()
    model_mod, training = modules["model"], modules["training"]
    table = modules["features"].AtomFeatureTable.random(0)
    c = modules["complexes"].build_complex(
        modules["periodic"].neighbor_list(catio3, k=12))
    item = (c, modules["features"].raw_features(c, catio3.species, table))
    batch = model_mod.merge_batch([item])
    assert batch.ep.n_pairs > 0  # the edge layers have work
    # Five vertex layers, then two (edge layer, vertex layer) blocks.
    expected = [batch.vp.n_pairs] * 5 + [batch.ep.n_pairs,
                                         batch.vp.n_pairs] * 2
    model = model_mod.SimplexTransformer.init(model_mod.ModelConfig(4, 4))
    t = tracer.Tracer(modules)
    t.install()
    try:
        for run in (lambda: training.loss_and_gradients(model, [item],
                                                         np.array([0.5])),
                    lambda: model_mod.predict(model, [item])):
            t.reset_pass()
            run()
            assert [t.counts[f"model.attn.L{k}.pairs"]
                    for k in range(9)] == expected
            assert t.counts["autodiff.nodes"] > 0
    finally:
        t.uninstall()
