"""Every name a ``plugplay`` module lists in ``__all__`` resolves.

A deletion in ``src/`` that leaves its name in ``__all__`` would break
``from plugplay.<module> import *`` only, which no other test runs.
"""

import importlib
import pkgutil

import pytest

import plugplay

MODULES = sorted(m.name for m in pkgutil.iter_modules(plugplay.__path__))


def test_every_module_is_listed():
    assert {"agent", "analysis", "sim"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"plugplay.{name}")
    exported = getattr(mod, "__all__", None)
    assert exported, f"plugplay.{name} has no __all__"
    assert len(set(exported)) == len(exported), f"plugplay.{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"plugplay.{name}.__all__ names what it does not define: {missing}"
