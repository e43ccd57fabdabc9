import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_heavy_scipy_subpackages():
    # every benchmark workload pays for the package import in its setup time;
    # scipy.linalg is the only scipy subpackage the library needs
    src = str(Path(mixreg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    heavy = ("scipy.spatial", "scipy.optimize", "scipy.sparse")
    code = (
        "import sys, mixreg; "
        f"print(','.join(m for m in {heavy!r} if m in sys.modules))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.strip()
    assert loaded == ""
