"""Every name in a module's ``__all__`` is bound in that module.

A stale entry fails only under ``from supertrop.<module> import *``, which
nothing else in the suite runs.
"""

import importlib
import pkgutil

import pytest

import supertrop

MODULES = sorted(info.name for info in pkgutil.iter_modules(supertrop.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_bound(module):
    home = importlib.import_module(f"supertrop.{module}")
    exported = getattr(home, "__all__", ())
    missing = [name for name in exported if not hasattr(home, name)]
    assert not missing, f"supertrop.{module}.__all__ names {missing}, which it does not bind"
