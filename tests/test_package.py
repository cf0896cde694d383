import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import semiq

MODULES = sorted(info.name for info in pkgutil.iter_modules(semiq.__path__, "semiq."))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    """Every name a module lists in __all__ exists in it, so that
    `from module import *` works."""
    module = importlib.import_module(name)
    missing = [public for public in getattr(module, "__all__", ()) if not hasattr(module, public)]
    assert missing == []


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency.  A fresh interpreter imports
    every module, since this test process loads scipy as a test oracle."""
    src = str(Path(semiq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = f"import sys; import {', '.join(MODULES)}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_readme_pointers_resolve():
    """Every backticked `module.name` in README.md, private names included,
    names something in semiq, so that a rename cannot leave README stale."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    modules = "|".join(re.escape(name.split(".")[1]) for name in MODULES)
    pointers = re.findall(rf"`((?:semiq\.|(?:{modules})\.)[A-Za-z_][\w.]*)`", readme)
    assert len(pointers) >= 16

    def resolves(pointer):
        parts = pointer.removeprefix("semiq.").split(".")
        try:
            target = importlib.import_module(f"semiq.{parts[0]}")
        except ModuleNotFoundError:
            return False
        for part in parts[1:]:
            if not hasattr(target, part):
                return False
            target = getattr(target, part)
        return True

    assert [pointer for pointer in pointers if not resolves(pointer)] == []
