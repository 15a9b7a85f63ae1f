"""Every name the benchmark's tracer patches still resolves in plugplay.

``perfbench/`` is outside the tier-1 suite, so a rename or deletion in
``src/`` that breaks the tracer would otherwise go unnoticed until the
benchmark runs.  The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_names", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_every_traced_name_resolves():
    traced = load_traced()
    assert traced
    missing = []
    for metric, (mod_name, attr) in traced.items():
        obj = importlib.import_module(f"plugplay.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                break
        if not callable(obj):
            missing.append(f"{metric}: plugplay.{mod_name}.{attr}")
    assert not missing, "tracer names with no callable in plugplay: " + ", ".join(missing)
