"""Package namespace: the public names of every module, each exported once."""

import importlib

import fracpid

MODULES = ("fractional_map", "lqr_inverse", "numerics", "pole_placement", "simulate", "tuner")


def test_all_is_the_union_of_module_lists():
    names = [name for m in MODULES for name in importlib.import_module(f"fracpid.{m}").__all__]
    assert len(fracpid.__all__) == len(set(fracpid.__all__))
    assert set(fracpid.__all__) == set(names)


def test_every_export_is_the_module_object():
    for m in MODULES:
        module = importlib.import_module(f"fracpid.{m}")
        for name in module.__all__:
            assert getattr(fracpid, name) is getattr(module, name), f"{m}.{name}"


def test_removed_and_added_names():
    assert "ConvergenceFailure" not in fracpid.__all__
    assert fracpid.Q_SWEEP_HIGH == 1.3 and fracpid.Q_SWEEP_LOW == 0.7
