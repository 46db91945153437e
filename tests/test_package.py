import importlib
import pkgutil

import mixzone


def test_every_exported_name_resolves():
    # the package's __all__ and each module's name only attributes that exist
    modules = [mixzone] + [importlib.import_module(f"mixzone.{info.name}")
                           for info in pkgutil.iter_modules(mixzone.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
