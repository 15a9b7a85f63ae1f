"""Every name a ``plugplay`` module lists in ``__all__`` resolves, and
every public function and class has a reader in ``src/``.

A deletion in ``src/`` that leaves its name in ``__all__`` would break
``from plugplay.<module> import *`` only, which no other test runs.
Code that only the tests or the benchmark read is either an oracle that
belongs in ``tests/`` or dead; each such name still in ``src/`` is listed
below with what removes it.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


SRC = Path(plugplay.__file__).parent

# module.name -> why it stays in src/ with no reader there
UNREAD = {
    "consensus.dual_flow_derivative": "ROADMAP item 1/10: the tracer's last use goes with the benchmark rework",
    "suites.thread_count": "ROADMAP item 1/10: perfbench/run.py's environment record reads it",
    "analysis.error_coordinates": "ROADMAP item 9/10: V(t) in the run report, or moved into tests/",
    "analysis.lyapunov_value": "ROADMAP item 9/10: V(t) in the run report, or moved into tests/",
    "sim.scenario_to_json": "round-trip partner of scenario_from_json",
}


def unread_names():
    """Public module-level functions and classes of ``src/`` that no code
    there reads: no import of them, no ``module.name`` access through an
    imported module, and no use by name in their own module."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = {
        f"{mod}.{node.name}"
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    reads = set()
    for mod, tree in trees.items():
        modules = {}  # local name -> plugplay module, from ``from . import x``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        reads.add(f"{node.module}.{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.add(f"{mod}.{node.id}")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    reads.add(f"{modules[node.value.id]}.{node.attr}")
    return defined - reads, defined


def test_every_public_name_has_a_reader_or_is_listed():
    unread, defined = unread_names()
    assert "bass.gamma_threshold" in defined
    new = sorted(unread - set(UNREAD))
    assert not new, f"nothing in src/ reads {new}: delete them, move them into tests/, or list them"
    gone = sorted(set(UNREAD) - defined)
    assert not gone, f"listed but no longer defined in src/: {gone}"
    read = sorted((set(UNREAD) & defined) - unread)
    assert not read, f"listed as unread but src/ reads them now: {read}"
