"""The names the benchmark's tracer patches still resolve in plugplay, and
the simulator's layers still do their work through them.

``perfbench/`` is outside the tier-1 suite, so a rename or deletion in
``src/`` that breaks the tracer, or a code path that goes round a traced
name, would otherwise go unnoticed until the benchmark runs.  The tracer
is loaded by path and only read.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from plugplay import cli, suites
from plugplay.sim import build_load_transport_scenario, run_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


# The module-level names that ``perfbench/test_perfbench.py`` checks the
# tracer patches where they are looked up (agent, bass, consensus and sim
# import them from elsewhere).
LOOKED_UP = (
    ("agent", "inverse"),
    ("agent", "singular_values"),
    ("bass", "solve_lyapunov"),
    ("consensus", "solve_lyapunov"),
    ("sim", "rk4_step"),
    ("sim", "validate_scenario"),
)


def test_every_looked_up_name_resolves():
    missing = [
        f"plugplay.{mod_name}.{attr}"
        for mod_name, attr in LOOKED_UP
        if not callable(getattr(importlib.import_module(f"plugplay.{mod_name}"), attr, None))
    ]
    assert not missing, "names the benchmark's self-test patches are gone: " + ", ".join(missing)


def test_verify_records_flow_derivatives():
    tracer = load_tracer()
    tr = tracer.Tracer()
    with tr:
        suites.suite_appendix(seed=0, bound_count=0)
    assert tracer.layer_metrics(tr)["consensus.flow_derivative.calls"] > 0


def expected_layers(workload: str) -> list[str]:
    """``EXPECTED[workload]`` of the benchmark's self-test, read without
    importing it (it loads the workloads and pins thread counts)."""
    tree = ast.parse((PERFBENCH / "test_perfbench.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["EXPECTED"]:
            return ast.literal_eval(node.value)[workload]
    raise AssertionError("EXPECTED not found in perfbench/test_perfbench.py")


def test_verify_layers_record_work(capsys):
    # every suite at a few instances, and one through the CLI
    tracer = load_tracer()
    tr = tracer.Tracer()
    with tr:
        suites.check_gain_abscissa(count=3)
        suites.check_decay_envelopes(envelopes=2)
        suites.suite_theorem1(count=2)
        suites.suite_appendix(bound_count=3, eq_count=1)
        assert cli.main(["verify", "consensus", "--seed", "0"]) == 0
    capsys.readouterr()
    m = tracer.layer_metrics(tr)
    names = expected_layers("verify")
    assert "analysis.verify_block_bounds.calls" in names
    idle = [name for name in names if not m[name] > 0]
    assert not idle, "verify layers that recorded no work: " + ", ".join(idle)


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
