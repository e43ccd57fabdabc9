import importlib
import pkgutil

import mixreg


def test_every_all_name_resolves():
    # a stale __all__ entry does not fail a plain import, only a star import
    modules = [mixreg] + [
        importlib.import_module(f"mixreg.{info.name}")
        for info in pkgutil.iter_modules(mixreg.__path__)
    ]
    for module in modules:
        names = getattr(module, "__all__", ())
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
