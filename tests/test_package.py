import importlib
import pkgutil

import durpipe


def test_every_module_imports_and_its_exports_resolve():
    names = sorted(m.name for m in pkgutil.iter_modules(durpipe.__path__))
    assert {"cli", "extraction", "model"} <= set(names)
    for module in [durpipe] + [importlib.import_module(f"durpipe.{name}") for name in names]:
        missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
        assert not missing, f"{module.__name__}.__all__ names what it lacks: {missing}"
