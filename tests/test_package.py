import importlib
import os
import pkgutil
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
