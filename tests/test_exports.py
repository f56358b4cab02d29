"""Every name a module exports with ``__all__`` exists."""

import importlib
import pkgutil

import shufflegrad


def test_every_exported_name_exists():
    modules = [shufflegrad] + [importlib.import_module(f"shufflegrad.{info.name}")
                               for info in pkgutil.iter_modules(shufflegrad.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert {m.__name__ for m in modules} - {m.__name__ for m in exporting} == {"shufflegrad.cli"}
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
