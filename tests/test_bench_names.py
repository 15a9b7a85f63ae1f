"""The names the benchmark's tracer patches still resolve in plugplay, and
the simulator's layers still do their work through them.

``perfbench/`` is outside the tier-1 suite, so a rename or deletion in
``src/`` that breaks the tracer, or a code path that goes round a traced
name, would otherwise go unnoticed until the benchmark runs.  The tracer
is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

from plugplay.sim import build_load_transport_scenario, run_scenario

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_names", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_traced():
    return load_tracer().TRACED


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


def test_simulator_layers_record_work():
    tracer = load_tracer()
    scen = build_load_transport_scenario(t_end=1.0, leave_slot=None, join_slots=())
    tr = tracer.Tracer()
    with tr:
        run_scenario(scen)
    m = tracer.layer_metrics(tr)
    for name in (
        "sim.rk4_step.calls",
        "agent.refresh_gains.calls",
        "agent.phi_update.calls",
        "agent.phi.samples",
        "matlib.singular_values.calls",
    ):
        assert m[name] > 0, f"{name} recorded no work"
    assert m["sim.rhs.calls"] == 4 * m["sim.rk4_step.calls"]
