"""The public surface: every name a ``repro`` module exports resolves."""

import importlib
import pkgutil

import repro


def exporting_modules():
    """``repro`` and each of its submodules (entry points excluded)."""
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    """A class deleted from a module must not linger in an ``__all__``."""
    modules = list(exporting_modules())
    assert "repro.core" in {module.__name__ for module in modules}
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing
