"""The package root exports each module's ``__all__``, and every exported
name exists."""

import importlib
import pkgutil

import shufflegrad

_MODULES = [importlib.import_module(f"shufflegrad.{info.name}")
            for info in pkgutil.iter_modules(shufflegrad.__path__) if info.name != "cli"]


def test_every_exported_name_exists():
    modules = [shufflegrad] + [importlib.import_module(f"shufflegrad.{info.name}")
                               for info in pkgutil.iter_modules(shufflegrad.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert {m.__name__ for m in modules} - {m.__name__ for m in exporting} == {"shufflegrad.cli"}
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_root_exports_the_modules_lists_joined():
    joined = [name for module in _MODULES for name in module.__all__]
    assert len(set(joined)) == len(joined)
    assert sorted(shufflegrad.__all__) == sorted(joined)


def test_root_names_are_the_modules_own_objects():
    owner = {name: module for module in _MODULES for name in module.__all__}
    for name in shufflegrad.__all__:
        assert getattr(shufflegrad, name) is getattr(owner[name], name), name


def test_deleted_helpers_are_not_exported():
    assert "averaged_iterate" not in shufflegrad.__all__
    assert not hasattr(shufflegrad, "averaged_iterate")
    assert not hasattr(shufflegrad.optimize, "averaged_iterate")
    assert not hasattr(shufflegrad.FiniteSumProblem, "max_component_gradient_norm")
    assert not hasattr(shufflegrad.DROProblem, "split")
    assert not hasattr(shufflegrad.RegressionDataset, "dim")
    assert not hasattr(shufflegrad.RegressionDataset, "names")
