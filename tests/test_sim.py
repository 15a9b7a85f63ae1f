import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from plugplay import analysis, bass, sim
from plugplay.agent import AgentParams
from plugplay.consensus import INFORMER_ID, bass_rate_params, flow_drift, pi_flow_operator
from plugplay.graph import Graph, lambda2, laplacian
from plugplay.matlib import rk4_propagator, spectral_abscissa
from plugplay.plant import Channel, PlantModel, aggregate, normalize_plant
from plugplay.sim import (
    Event,
    IntegrationError,
    Scenario,
    ScenarioError,
    SolverSettings,
    StaticGains,
    build_load_transport_scenario,
    rk4_step,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)

from parity_pins import PINS


class TestRk4Step:
    def test_zero_field(self):
        y = np.array([1.0, -2.0])
        out = rk4_step(lambda t, y: np.zeros_like(y), y, 0.0, 0.1)
        assert np.array_equal(out, y)

    def test_scalar_decay_truncation(self):
        # RK4 polynomial 1 - h + h^2/2 - h^3/6 + h^4/24 at h = 0.1
        out = rk4_step(lambda t, y: -y, np.array([1.0]), 0.0, 0.1)
        assert np.isclose(out[0], 0.9048375, atol=1e-12)

    def test_linear_system_matches_matrix_exponential(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2)) - np.eye(2)
        y = np.array([1.0, -0.5])
        h = 1e-3
        for k in range(1000):
            y = rk4_step(lambda t, z: a @ z, y, k * h, h)
        assert np.allclose(y, expm(a * 1.0) @ np.array([1.0, -0.5]), atol=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(IntegrationError) as err:
            rk4_step(lambda t, y: y * np.inf, np.array([1.0]), 3.0, 0.1)
        assert err.value.time == 3.0


class TestRk4Propagator:
    def test_equals_repeated_rk4_steps_on_affine_system(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6)) - 2.0 * np.eye(6)
        c = rng.normal(size=6)
        h = 0.01
        t_map, s_map = rk4_propagator(a, h)
        y_rk4 = y_map = rng.normal(size=6)
        for k in range(500):
            y_rk4 = rk4_step(lambda t, y: a @ y + c, y_rk4, k * h, h)
            y_map = t_map @ y_map + s_map @ c
        assert np.abs(y_map - y_rk4).max() <= 1e-13 * np.abs(y_rk4).max()

    def test_stack_equals_each_matrix(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(3, 5, 5))
        t_all, s_all = rk4_propagator(stack, 0.05)
        for k in range(3):
            t_k, s_k = rk4_propagator(stack[k], 0.05)
            assert np.allclose(t_all[k], t_k, rtol=1e-15, atol=1e-15)
            assert np.allclose(s_all[k], s_k, rtol=1e-15, atol=1e-15)


def scalar_two_agent_plant():
    """Well-conditioned scalar plant whose certified threshold is small."""
    chans = (Channel(1, [[1.0]], [[1.0]]), Channel(2, [[1.0]], [[1.0]]))
    return PlantModel(np.array([[1.0]]), chans)


def scalar_static_scenario(gamma=None, t_end=20.0, h=1e-3):
    p = scalar_two_agent_plant()
    b, c = aggregate(p)
    sol = bass.bass_solve(p.A, b, 2.0, widths=[1, 1])
    dual = bass.dual_bass_solve(p.A, c, 2.0, heights=[1, 1])
    g = Graph.from_edges([1, 2], [(1, 2)])
    cert = bass.bass_certificate(p, sol, dual, g)
    if gamma is None:
        gamma = 1.01 * cert.gamma_min
    static = StaticGains(
        gamma=gamma,
        F={1: sol.F_blocks[0], 2: sol.F_blocks[1]},
        L={1: dual.L_blocks[0], 2: dual.L_blocks[1]},
    )
    scen = Scenario(
        plant=p,
        x0=np.array([1.0]),
        initial_agents=(1, 2),
        graph=g,
        solver=SolverSettings(h=h, t_end=t_end, record_every=20),
        params=AgentParams(beta=2.0),
        mode="static_gains",
        static=static,
    )
    return scen, sol, dual, cert


def two_agent_state_feedback_scenario(t_end=2.0):
    """The C9 plant: two full-state channels on the planar double integrator."""
    a = np.zeros((4, 4))
    a[0, 2] = 1.0
    a[1, 3] = 1.0
    chans = []
    for i, k in enumerate((0, 3), start=1):
        ang = 2 * np.pi * k / 9
        b = np.array([[0.0], [0.0], [np.cos(ang)], [np.sin(ang)]])
        chans.append(Channel(i, b, np.eye(4)))
    return Scenario(
        plant=PlantModel(a, tuple(chans)),
        x0=np.array([1.0, -2.0, 0.0, 0.0]),
        initial_agents=(1, 2),
        graph=Graph.from_edges([1, 2], [(1, 2)]),
        solver=SolverSettings(h=1e-3, t_end=t_end, record_every=100),
        params=AgentParams(beta=0.5, k_c=2.0, gamma_c=2.0),
        mode="state_feedback",
    )


def rejoin_scenario():
    """The C10 scenario, then agent 1 leaves and re-joins at one instant."""
    scen = build_load_transport_scenario(t_leave=0.5, t_join=1.0, t_end=1.5)
    events = scen.events + (
        Event(time=1.25, kind="leave", agent_id=1),
        Event(time=1.25, kind="join", agent_id=1, initial_state={"zeta": 1.0},
              add_edges=((1, 4), (1, 6), (1, INFORMER_ID))),
    )
    return replace(scen, events=events)


class TestValidation:
    def test_builder_scenario_validates(self):
        scen = build_load_transport_scenario()
        intervals = validate_scenario(scen)
        assert [iv.actives for iv in intervals] == [(1, 2, 3), (1, 3), (1, 3, 4), (1, 3, 4, 5), (1, 3, 4, 5, 6)]

    def test_single_agent_plant_uncontrollable(self):
        with pytest.raises(ValueError):
            build_load_transport_scenario(initial_slots=(0,), leave_slot=None, join_slots=())

    def test_two_distinct_angles_controllable(self):
        scen = build_load_transport_scenario(
            initial_slots=(0, 3), leave_slot=None, join_slots=(), t_end=1.0
        )
        validate_scenario(scen)

    def test_event_outside_horizon_rejected(self):
        scen = build_load_transport_scenario(t_end=20.0)  # join at t=30 > 20
        with pytest.raises(ScenarioError):
            validate_scenario(scen)

    def test_disconnecting_leave_rejected(self):
        p = scalar_two_agent_plant()
        chans = p.channels + (Channel(3, [[1.0]], [[1.0]]),)
        p3 = PlantModel(p.A, chans)
        g = Graph.from_edges([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
        scen = Scenario(
            plant=p3,
            x0=[1.0],
            initial_agents=(1, 2, 3),
            graph=g,
            solver=SolverSettings(t_end=2.0),
            params=AgentParams(beta=2.0),
            events=(Event(time=1.0, kind="leave", agent_id=2),),
        )
        with pytest.raises(ScenarioError):
            validate_scenario(scen)

    def test_beta_too_small_rejected(self):
        # a Hurwitz plant with leftmost eigenvalue -1 demands beta > 1
        p = PlantModel(np.array([[-1.0]]), (Channel(1, [[1.0]], [[1.0]]),))
        scen = Scenario(
            plant=p,
            x0=[1.0],
            initial_agents=(1,),
            graph=Graph.from_edges([0, 1], [(0, 1)]),
            solver=SolverSettings(t_end=1.0),
            params=AgentParams(beta=0.5),
        )
        with pytest.raises(ScenarioError):
            validate_scenario(scen)

    def test_wrong_x0_rejected(self):
        scen, *_ = scalar_static_scenario(t_end=1.0)
        with pytest.raises(ScenarioError):
            validate_scenario(replace(scen, x0=np.array([1.0, 2.0])))

    @staticmethod
    def _join_with_state(initial_state):
        scen = build_load_transport_scenario(t_leave=0.5, t_join=1.0, t_end=1.5)
        events = tuple(
            replace(e, initial_state=initial_state) if e.agent_id == 4 else e for e in scen.events
        )
        return replace(scen, events=events)

    def test_join_state_unknown_field_rejected(self):
        scen = self._join_with_state({"Q": np.zeros((4, 4))})
        with pytest.raises(ScenarioError, match=r"agent 4: unknown initial state field 'Q'"):
            validate_scenario(scen)

    def test_join_state_wrong_shape_rejected(self):
        scen = self._join_with_state({"X": np.zeros((3, 3))})
        with pytest.raises(ScenarioError, match=r"agent 4: initial state field 'X' has shape \(3, 3\)"):
            validate_scenario(scen)

    def test_static_joiner_without_gains_rejected(self):
        scen, *_ = scalar_static_scenario(t_end=1.0)
        plant = PlantModel(scen.plant.A, scen.plant.channels + (Channel(3, [[1.0]], [[1.0]]),))
        join = Event(time=0.5, kind="join", agent_id=3, add_edges=((3, 2),))
        with pytest.raises(ScenarioError, match="agent 3 has no F"):
            validate_scenario(replace(scen, plant=plant, events=(join,)))

    def test_static_gain_of_wrong_shape_rejected(self):
        scen, *_ = scalar_static_scenario(t_end=1.0)
        static = replace(scen.static, F={**scen.static.F, 1: np.zeros((1, 3))})
        with pytest.raises(ScenarioError, match=r"agent 1 has F of shape \(1, 3\), expected \(1, 1\)"):
            validate_scenario(replace(scen, static=static))


class TestStaticMode:
    def test_decay_above_certified_threshold(self):
        scen, sol, dual, cert = scalar_static_scenario()
        tr = run_scenario(scen)
        # Hurwitz prediction from the assembled matrix
        d = analysis.closed_loop_matrix(
            scen.plant, sol.F_blocks, dual.L_blocks, scen.static.gamma, scen.graph
        )
        assert spectral_abscissa(d.assembled) < 0
        assert np.linalg.norm(tr.x[-1]) < 1e-3 * np.linalg.norm(tr.x[0])

    def test_lyapunov_norm_monotone(self):
        scen, sol, dual, cert = scalar_static_scenario(t_end=10.0)
        tr = run_scenario(scen)
        phi_bar, phi_tilde = analysis.lyapunov_weights(cert, sol.F_blocks, 2)
        rmat = analysis.closed_loop_matrix(
            scen.plant, sol.F_blocks, dual.L_blocks, scen.static.gamma, scen.graph
        ).R
        v_prev = np.inf
        for k in range(tr.times.size):
            xh = np.stack([tr.xhat[a][k] for a in (1, 2)])
            ebar, etilde = analysis.error_coordinates(tr.x[k], xh, rmat)
            v = analysis.lyapunov_value(
                cert.M1, cert.M2, phi_bar, phi_tilde, tr.x[k], ebar, etilde
            )
            assert v <= v_prev * (1 + 1e-12)
            v_prev = v

    def test_rk4_order_on_smooth_interval(self):
        # halving h divides the terminal error by ~16 on the static loop
        scen_h, sol, dual, _ = scalar_static_scenario(gamma=5.0, t_end=2.0, h=1e-3)
        scen_h2, *_ = scalar_static_scenario(gamma=5.0, t_end=2.0, h=5e-4)
        from dataclasses import replace

        scen_h = replace(scen_h, solver=replace(scen_h.solver, record_every=2000))
        scen_h2 = replace(scen_h2, solver=replace(scen_h2.solver, record_every=4000))
        tr1 = run_scenario(scen_h)
        tr2 = run_scenario(scen_h2)
        flat = analysis.flat_closed_loop_matrix(
            scen_h.plant, sol.F_blocks, dual.L_blocks, 5.0, scen_h.graph
        )
        z0 = np.array([1.0, 0.0, 0.0])
        z_exact = expm(flat * 2.0) @ z0
        z1 = np.concatenate([tr1.x[-1], tr1.xhat[1][-1], tr1.xhat[2][-1]])
        z2 = np.concatenate([tr2.x[-1], tr2.xhat[1][-1], tr2.xhat[2][-1]])
        ratio = np.linalg.norm(z1 - z_exact) / np.linalg.norm(z2 - z_exact)
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_integration_failure_reported(self):
        # a coupling gain far beyond the explicit-integrator stability
        # region must fail loudly, not silently produce garbage; the
        # injection gains differ so observer disagreement gets seeded
        scen, sol, dual, _ = scalar_static_scenario(gamma=1e7, t_end=2.0)
        from dataclasses import replace

        lopsided = StaticGains(
            gamma=1e7,
            F=scen.static.F,
            L={1: dual.L_blocks[0], 2: 0.5 * dual.L_blocks[1]},
        )
        with pytest.raises(IntegrationError):
            run_scenario(replace(scen, static=lopsided))


class TestAlgorithm1Mode:
    def test_short_run_and_determinism(self):
        scen = build_load_transport_scenario(t_end=1.0, leave_slot=None, join_slots=())
        tr1 = run_scenario(scen)
        tr2 = run_scenario(scen)
        assert np.array_equal(tr1.x, tr2.x)
        for a in tr1.agent_ids:
            assert np.array_equal(tr1.xhat[a], tr2.xhat[a], equal_nan=True)
            assert np.array_equal(tr1.zeta[a], tr2.zeta[a], equal_nan=True)
            assert np.array_equal(tr1.u[a], tr2.u[a], equal_nan=True)
        assert np.all(np.isfinite(tr1.x))

    def test_events_membership_and_continuity(self):
        scen = build_load_transport_scenario(
            t_leave=0.5, t_join=1.0, t_end=1.5, record_every=10
        )
        tr = run_scenario(scen)
        leaver = 2  # slot 3 is the second initial agent
        k_leave = np.searchsorted(tr.times, 0.5)
        assert np.all(np.isfinite(tr.xhat[leaver][: k_leave]))
        assert np.all(np.isnan(tr.xhat[leaver][k_leave:]))
        joiner = 4
        k_join = np.searchsorted(tr.times, 1.0)
        assert np.all(np.isnan(tr.xhat[joiner][:k_join]))
        assert np.all(np.isfinite(tr.xhat[joiner][k_join:]))
        # survivors keep their integrator states across the event
        surv = 1
        z_before = tr.zeta[surv][k_leave - 1]
        z_after = tr.zeta[surv][k_leave]
        assert abs(z_after - z_before) < 0.05  # continuous, not reset
        assert len(tr.intervals) == 5
        assert tr.informer_zeta.shape == tr.times.shape

    def test_join_event_channel_overrides_plant_channel(self):
        # the plant gives agent 3 one input; its join event supplies two
        p = PlantModel(np.array([[1.0]]), tuple(Channel(i, [[1.0]], [[1.0]]) for i in (1, 2, 3)))
        join = Event(time=0.05, kind="join", agent_id=3, channel=Channel(3, [[1.0, 0.5]], [[1.0]]),
                     add_edges=((3, 2), (3, INFORMER_ID)))
        scen = Scenario(
            plant=p,
            x0=[1.0],
            initial_agents=(1, 2),
            graph=Graph.from_edges([0, 1, 2], [(0, 1), (1, 2)]),
            solver=SolverSettings(t_end=0.1),
            params=AgentParams(beta=2.0),
            events=(join,),
        )
        assert validate_scenario(scen)[1].channels[2].m == 2
        tr = run_scenario(scen)
        assert tr.u[3].shape[1] == 2
        assert np.all(np.isfinite(tr.u[3][-1]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_uncapped_coupling_gain_fails_loudly(self):
        # the default gamma_cap (1e6) puts h * gamma * lambda_max(L) near
        # 3000, far outside RK4's stability interval: the run must stop
        # with IntegrationError early on, not return garbage
        scen = build_load_transport_scenario(params=AgentParams(beta=0.25))
        with pytest.raises(IntegrationError) as err:
            run_scenario(scen)
        assert err.value.time < 0.2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("override, t_fail", [
        ({"k_c": 1e4, "gamma_c": 1e4}, 0.067),  # the gain flow
        ({"k_o": 1e4, "gamma_o": 1e4}, 0.071),  # the dual flow
        ({"k_s": 3e3, "gamma_s": 3e3}, 0.013),  # the size estimator
    ])
    def test_first_nonfinite_step_is_the_error(self, override, t_fail, monkeypatch):
        # flow gains far outside RK4's stability interval: a flow overflows
        # in the middle of a chunk, and the error names the first step whose
        # state is non-finite (times pinned from the step-by-step engine),
        # with default and with one-step chunks
        scen = build_load_transport_scenario(t_end=2.0, leave_slot=None, join_slots=())
        scen = replace(scen, params=replace(scen.params, **override))
        for budget in (sim.CHUNK_BYTES, 1):
            monkeypatch.setattr(sim, "CHUNK_BYTES", budget)
            with pytest.raises(IntegrationError) as err:
                run_scenario(scen)
            assert err.value.time == pytest.approx(t_fail, rel=0, abs=1e-12)

    def test_size_estimate_approaches_count_on_static_interval(self):
        scen = build_load_transport_scenario(
            t_end=25.0, leave_slot=None, join_slots=(), record_every=100
        )
        tr = run_scenario(scen)
        for a in (1, 2, 3):
            assert abs(tr.zeta[a][-1] - 3.0) < 0.01
        assert abs(tr.informer_zeta[-1] - 3.0) < 0.01


class TestStateFeedbackMode:
    def test_two_agent_state_feedback_stabilizes(self):
        # full-state channels, so the observer and the size estimator
        # are unnecessary
        a = np.zeros((4, 4))
        a[0, 2] = 1.0
        a[1, 3] = 1.0
        chans = []
        for i, k in enumerate((0, 3), start=1):
            ang = 2 * np.pi * k / 9
            b = np.array([[0.0], [0.0], [np.cos(ang)], [np.sin(ang)]])
            chans.append(Channel(i, b, np.eye(4)))
        p = PlantModel(a, tuple(chans))
        scen = Scenario(
            plant=p,
            x0=np.array([1.0, -2.0, 0.0, 0.0]),
            initial_agents=(1, 2),
            graph=Graph.from_edges([1, 2], [(1, 2)]),
            solver=SolverSettings(h=1e-3, t_end=30.0, record_every=100),
            params=AgentParams(beta=0.5, k_c=2.0, gamma_c=2.0),
            mode="state_feedback",
        )
        tr = run_scenario(scen)
        assert np.linalg.norm(tr.x[-1]) < 1e-3 * np.linalg.norm(tr.x[0])
        # limiting closed loop A - N sum B_i B_i^T X*^-1 is Hurwitz
        bagg, _ = aggregate(p)
        x_star = bass.bass_solve(a, bagg, 0.5).X_star
        acl = a - 2 * (bagg @ bagg.T @ np.linalg.inv(x_star))
        assert spectral_abscissa(acl) < 0


class TestSerializationAndOutput:
    def test_json_roundtrip_preserves_run(self, tmp_path):
        scen = build_load_transport_scenario(t_end=0.5, leave_slot=None, join_slots=())
        blob = json.dumps(scenario_to_json(scen))
        scen2 = scenario_from_json(json.loads(blob))
        tr1 = run_scenario(scen)
        tr2 = run_scenario(scen2)
        assert np.array_equal(tr1.x, tr2.x)

    def test_csv_and_summary(self, tmp_path):
        scen = build_load_transport_scenario(
            t_leave=0.5, t_join=1.0, t_end=1.5, record_every=50
        )
        tr = run_scenario(scen)
        sim.write_trace_csv(tr, tmp_path / "trace.csv")
        sim.write_events_csv(tr, tmp_path / "events.csv")
        sim.write_summary_json(tr, scen, tmp_path / "summary.json")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert "a1_xhat_1" in header
        assert "a6_err_X" in header
        # absent agent 6 has empty fields in the first row
        first = lines[1].split(",")
        assert first[header.index("a6_zeta")] == ""
        events = (tmp_path / "events.csv").read_text().splitlines()
        assert events[0] == "t,kind,agent_id"
        assert len(events) == 1 + len(scen.events)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mode"] == "algorithm1"
        assert len(summary["intervals"]) == 5
        assert "position_error" in summary
        assert summary["intervals"][0]["n_active"] == 3

    @pytest.mark.parametrize("mode", ["algorithm1", "state_feedback"])
    def test_csv_and_summary_carry_every_error_series(self, tmp_path, mode):
        if mode == "algorithm1":
            scen = build_load_transport_scenario(t_leave=0.5, t_join=1.0, t_end=1.5, record_every=50)
        else:
            scen = two_agent_state_feedback_scenario(t_end=0.5)
        tr = run_scenario(scen)
        sim.write_trace_csv(tr, tmp_path / "trace.csv")
        sim.write_summary_json(tr, scen, tmp_path / "summary.json")
        with open(tmp_path / "trace.csv", newline="") as fh:
            header, *body = list(csv.reader(fh))
        assert len(body) == tr.times.size

        def column(name):
            j = header.index(name)
            return np.array([float(row[j]) if row[j] else np.nan for row in body])

        for a in tr.agent_ids:
            assert header.index(f"a{a}_err_Y") == header.index(f"a{a}_err_X") + 1
            assert np.array_equal(column(f"a{a}_err_Y"), tr.err_y[a], equal_nan=True)
            assert np.array_equal(column(f"a{a}_err_X"), tr.err_x[a], equal_nan=True)
        assert header[-1] == "informer_zeta"
        assert np.array_equal(column("informer_zeta"), tr.informer_zeta, equal_nan=True)
        final = json.loads((tmp_path / "summary.json").read_text())["final_agents"]
        for a in tr.agent_ids:
            want = tr.err_y[a][-1]
            assert final[str(a)]["err_Y"] == (None if np.isnan(want) else float(want))
        if mode == "state_feedback":
            assert np.isnan(tr.informer_zeta).all() and final["1"]["err_Y"] is None

    def test_missing_scenario_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            sim.load_scenario_file(tmp_path / "nope.json")

    def test_malformed_scenario_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"plant\": {}}")
        with pytest.raises(ScenarioError):
            sim.load_scenario_file(bad)


class TestLoadTransportScenario:
    RATE = 0.05  # the certified decay rate the demo's flow gains come from
    RK4_REAL_LIMIT = 2.785  # RK4's stability interval on the negative real axis

    @pytest.mark.parametrize("slots", [
        {},
        {"initial_slots": (0, 3), "leave_slot": None, "join_slots": ()},
        {"leave_slot": None, "join_slots": ()},
        {"mode": "state_feedback"},
    ])
    def test_default_gains_certify_slot_sets_in_use(self, slots):
        build_load_transport_scenario(**slots)

    def test_uncertified_slot_set_refused(self):
        # agent graphs with lambda2 = 2, 1 and 0.586 need gamma/k of 36.6,
        # 73.2 and 124.9; the default literals certify 52.94 (lambda2 >= 1.382)
        with pytest.raises(ValueError, match="lambda2 = 1;"):
            build_load_transport_scenario(initial_slots=(0, 1, 2, 3), leave_slot=3, join_slots=(4, 5, 6, 7, 8))

    def test_packaged_file_matches_builder(self):
        path = Path(__file__).resolve().parents[1] / "scenarios" / "load_transport.json"
        assert json.loads(path.read_text()) == scenario_to_json(build_load_transport_scenario())

    def test_flow_gains_are_rate_certificate(self):
        scen = build_load_transport_scenario()
        p = scen.params
        plant = normalize_plant(scen.plant)
        a = plant.A
        intervals = [iv for iv in validate_scenario(scen) if iv.t_end > iv.t_start]
        g_worst = min((iv.agent_graph for iv in intervals), key=lambda2)
        primal = bass_rate_params(a, p.beta, g_worst, self.RATE)
        dual = bass_rate_params(a.T, p.beta, g_worst, self.RATE)
        assert np.allclose([p.k_c, p.gamma_c], [primal.k, primal.gamma], rtol=1e-12, atol=0)
        assert np.allclose([p.k_o, p.gamma_o], [dual.k, dual.gamma], rtol=1e-12, atol=0)

        for iv in intervals:
            g = iv.agent_graph
            ids = g.nodes
            flows = (
                (p.k_c, p.gamma_c, a, [plant.channel(i).B for i in ids]),
                (p.k_o, p.gamma_o, a.T, [plant.channel(i).C.T for i in ids]),
            )
            for k, gamma, mat, maps in flows:
                # the certificate's gamma/k ratio does not depend on delta;
                # equality holds on the worst graph, up to rounding
                cert = bass_rate_params(mat, p.beta, g, self.RATE)
                assert gamma / k >= cert.gamma / cert.k * (1.0 - 1e-12)
                q = np.stack([2.0 * b @ b.T for b in maps])
                m, _ = pi_flow_operator(flow_drift(mat, p.beta), k, gamma, laplacian(g), q)
                rho = np.max(np.abs(np.linalg.eigvals(m)))
                assert scen.solver.h * rho < self.RK4_REAL_LIMIT


def _pinned_series(tr, name):
    kind, *rest = name.split("/")
    if kind == "x":
        return tr.x
    if kind == "informer_zeta":
        return tr.informer_zeta
    if kind == "final_gains":
        return tr.final_gains[int(rest[0])][rest[1]]
    return getattr(tr, kind)[int(rest[0])]


class TestParityWithPreviousEngine:
    """Every recorded series against values pinned from the previous engine.

    See ``parity_pins`` for how they were recorded.  The linear-step
    engine applies the same discrete map (RK4 with gains frozen over
    each step), so only rounding may differ: each final value must agree
    to 1e-9 of its series' max |value|, and so must that max itself.
    """

    RTOL = 1e-9
    SCENARIOS = {  # pin name -> (mode, scenario)
        "algorithm1": ("algorithm1", lambda: build_load_transport_scenario(t_leave=0.5, t_join=1.0, t_end=1.5)),
        "static_gains": ("static_gains", lambda: scalar_static_scenario()[0]),
        "state_feedback": ("state_feedback", two_agent_state_feedback_scenario),
        "rejoin": ("algorithm1", rejoin_scenario),
    }

    @pytest.mark.parametrize("case", list(SCENARIOS))
    def test_pinned_run(self, case):
        mode, build = self.SCENARIOS[case]
        tr = run_scenario(build())
        assert tr.mode == mode
        pins = PINS[case]
        names = {"x", "informer_zeta"}
        for field in ("xhat", "zeta", "u", "err_obs", "err_x", "err_y"):
            names |= {f"{field}/{a}" for a in tr.agent_ids}
        for a, gains in tr.final_gains.items():
            names |= {f"final_gains/{a}/{key}" for key in gains}
        assert names == set(pins)
        for name, (final_pin, scale_pin) in pins.items():
            series = np.asarray(_pinned_series(tr, name), dtype=float)
            final_pin = np.asarray(final_pin, dtype=float)
            if name.startswith("final_gains"):
                final = series
                scale = np.abs(series).max()
            else:
                final = series[-1]
                scale = np.nanmax(np.abs(series)) if np.isfinite(series).any() else np.nan
            assert final.shape == final_pin.shape, name
            assert np.array_equal(np.isnan(final), np.isnan(final_pin)), name
            if np.isnan(scale_pin):
                assert np.isnan(scale), name
                continue
            assert abs(scale - scale_pin) <= self.RTOL * scale_pin, name
            ok = ~np.isnan(final_pin)
            assert np.all(np.abs(final[ok] - final_pin[ok]) <= self.RTOL * scale_pin), name


def _all_series(tr):
    """Every recorded series and final gain of a trace, by name."""
    out = {"times": tr.times, "x": tr.x, "informer_zeta": tr.informer_zeta}
    for field in ("xhat", "zeta", "u", "err_obs", "err_x", "err_y"):
        out.update({f"{field}/{a}": arr for a, arr in getattr(tr, field).items()})
    for a, gains in tr.final_gains.items():
        out.update({f"final_gains/{a}/{key}": val for key, val in gains.items()})
    return out


class TestChunkInvariance:
    """The chunk length is a memory knob only: traces do not depend on it."""

    SCENARIOS = {
        name: TestParityWithPreviousEngine.SCENARIOS[name][1]
        for name in ("algorithm1", "rejoin", "static_gains", "state_feedback")
    }
    # 1 byte gives one-step chunks; 147 200 gives 25-step chunks on the
    # three-agent intervals of the load-transport scenarios
    BUDGETS = (1, 147_200)

    @pytest.mark.parametrize("case", list(SCENARIOS))
    def test_chunk_length_does_not_change_the_trace(self, case, monkeypatch):
        scen = self.SCENARIOS[case]()
        want = _all_series(run_scenario(scen))
        starts = []
        chunk = sim._Runner._chunk

        def spy(runner, tr, s0, s1):
            starts.append(s0)
            return chunk(runner, tr, s0, s1)

        monkeypatch.setattr(sim._Runner, "_chunk", spy)
        for budget in self.BUDGETS:
            monkeypatch.setattr(sim, "CHUNK_BYTES", budget)
            starts.clear()
            got = _all_series(run_scenario(scen))
            assert got.keys() == want.keys()
            for name, val in want.items():
                assert np.array_equal(got[name], val, equal_nan=True), (budget, name)
            total = int(round(scen.solver.t_end / scen.solver.h)) + 1
            if budget == 1:
                assert starts == list(range(total))
            elif scen.mode == "algorithm1":
                # an event and a filter sample inside an interval each open a chunk
                events = {int(round(e.time / scen.solver.h)) for e in scen.events}
                period = int(round(scen.params.t_phi / scen.solver.h))
                assert events <= set(starts)
                assert any(s % period == 0 and s not in events and s > 0 for s in starts)
                assert len(starts) < total
