"""Self-tests of the benchmark's tracer, CPU-speed gauge and workloads.

    python3 -m pytest -q perfbench

The simulation workloads run here on a 1 s horizon without events, so
the tests take about half a minute; ``verify`` and ``certify`` run whole.
"""

from __future__ import annotations

import os
from dataclasses import replace

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PLUGPLAY_THREADS": "1"})

import signal  # noqa: E402

import pytest  # noqa: E402

import gauge  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from plugplay import agent, bass, consensus, sim  # noqa: E402

# Per-layer metrics that must record work, by the workload that does it.
EXPECTED = {
    "demo": [
        "sim.validate_scenario.calls", "sim.run_scenario.calls", "sim.rk4_step.calls",
        "sim.rhs.calls", "sim.write_trace_csv.calls", "sim.write_trace_csv.bytes",
        "agent.refresh_gains.calls", "agent.phi_update.calls", "agent.phi.samples",
        "agent.phi.rejected", "matlib.solve_lyapunov.n_le4.calls", "matlib.singular_values.calls",
        "matlib.inverse.calls", "plant.is_controllable.calls", "bass.bass_solve.calls",
        "bass.dual_bass_solve.calls",
    ],
    "plant8": [
        "sim.run_scenario.calls", "sim.rk4_step.calls", "sim.rhs.calls",
        "agent.refresh_gains.calls", "matlib.solve_lyapunov.n_le8.calls",
    ],
    "verify": [
        "suites.check_decay_envelopes.calls", "suites.check_gain_abscissa.calls",
        "suites.propagate_affine.calls", "suites.random_gain_instance.calls",
        "bass.decay_certificate.calls", "bass.bass_certificate.calls",
        "consensus.bass_rate_params.calls", "consensus.flow_derivative.calls",
        "analysis.closed_loop_matrix.calls", "analysis.verify_block_bounds.calls",
        "matlib.spectral_abscissa.calls", "cli.main.calls",
    ],
    "certify": [
        "matlib.solve_lyapunov.calls", "matlib.solve_lyapunov.n_le16.calls",
        "matlib.solve_lyapunov.n_le32.calls", "matlib.solve_lyapunov.n_gt32.calls",
        "bass.bass_certificate.calls",
        "analysis.closed_loop_matrix.calls", "consensus.bass_rate_params.calls",
    ],
}

# Metrics derived from the counted calls above, and the count of False
# answers from the rank test, which is 0 once that test stops rejecting
# controllable pairs.
DERIVED = {
    "sim.rk4_step.self_s", "sim.step_glue.s", "trace.spans", "trace.overhead_s",
    "plant.is_controllable.false",
}


def short_inputs(name: str):
    """The workload's inputs; simulations cut to 1 s with no events."""
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(0)
    if name in ("demo", "plant8"):
        inputs = replace(inputs, solver=replace(inputs.solver, t_end=1.0), events=())
    return wl, inputs


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Per workload: (untraced outcome, traced outcome, layer metrics)."""
    out = {}
    for name in EXPECTED:
        wl, inputs = short_inputs(name)
        base = tmp_path_factory.mktemp(name)
        plain = wl.run(inputs, base / "plain")
        tr = tracer.Tracer()
        with tr:
            traced = wl.run(inputs, base / "traced")
        out[name] = (plain, traced, tracer.layer_metrics(tr))
    return out


def test_patches_every_module_that_looks_a_name_up():
    originals = {
        (bass, "solve_lyapunov"): bass.solve_lyapunov,
        (consensus, "solve_lyapunov"): consensus.solve_lyapunov,
        (agent, "singular_values"): agent.singular_values,
        (agent, "inverse"): agent.inverse,
        (sim, "rk4_step"): sim.rk4_step,
        (sim, "validate_scenario"): sim.validate_scenario,
    }
    refresh = agent.ControlAgent.refresh_gains
    with tracer.Tracer():
        for (mod, attr), orig in originals.items():
            assert getattr(mod, attr) is not orig, f"{mod.__name__}.{attr} not patched"
        assert agent.ControlAgent.refresh_gains is not refresh
    for (mod, attr), orig in originals.items():
        assert getattr(mod, attr) is orig, f"{mod.__name__}.{attr} not restored"
    assert agent.ControlAgent.refresh_gains is refresh


def test_every_layer_metric_records_work(traced_runs):
    checked = set()
    for name, metrics in EXPECTED.items():
        layers = traced_runs[name][2]
        for metric in metrics:
            assert layers[metric] > 0, f"{metric} recorded no work on {name}"
            checked.add(metric)
    for metric, _ in tracer.per_layer_names():
        if metric in DERIVED:
            continue
        stem = metric.rsplit(".", 1)[0]
        assert metric in checked or f"{stem}.calls" in checked, f"{metric} is never exercised"


def test_layer_times_nest(tmp_path):
    wl, inputs = short_inputs("demo")
    tr = tracer.Tracer()
    with tr:
        wl.run(inputs, tmp_path)
    m = tracer.layer_metrics(tr)
    assert m["sim.rhs.calls"] == 4 * m["sim.rk4_step.calls"]
    assert 0 < m["sim.rk4_step.self_s"] < m["sim.rk4_step.s"]
    assert m["sim.rhs.s"] < m["sim.rk4_step.s"] < m["sim.run_scenario.s"]
    assert m["sim.step_glue.s"] > 0


def test_traced_outputs_equal_untraced_bit_for_bit(traced_runs):
    for name, (plain, traced, _) in traced_runs.items():
        assert plain.digest and plain.digest == traced.digest, name
        assert plain.values.keys() == traced.values.keys(), name


def test_gauge_interrupts_and_restores(tmp_path):
    wl, inputs = short_inputs("demo")
    plain = wl.run(inputs, tmp_path / "plain")
    before = signal.getsignal(signal.SIGALRM)
    with gauge.SpeedGauge(period=0.01) as g:
        gauged = wl.run(inputs, tmp_path / "gauged")
    assert gauged.digest == plain.digest
    assert len(g.samples) > 2, "no kernel pass inside the block"
    assert 0 < g.work_s and g.inside > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_gauge_scales_by_the_reference_time():
    g = gauge.SpeedGauge()
    g.samples = [gauge.REFERENCE_S, 2 * gauge.REFERENCE_S, 3 * gauge.REFERENCE_S]
    assert g.scaled(4.0) == pytest.approx(2.0)
