"""``src/`` needs numpy only: scipy is a test dependency, the oracle that
``solve_lyapunov`` and ``expm`` are checked against.

Importing scipy.linalg costs about as much as numpy and the package
together, so one stray import would double every command's start-up.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import plugplay

SRC = Path(plugplay.__file__).parent


def test_importing_the_package_loads_no_scipy():
    code = (
        "import sys\n"
        "import plugplay, plugplay.cli, plugplay.sim\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.strip() == "[]"


def test_no_source_file_imports_scipy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert not found
