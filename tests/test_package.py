import importlib
import pkgutil

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
