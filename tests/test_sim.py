import copy
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from plugplay import analysis, bass, sim
from plugplay.agent import AgentParams, ControlAgent, PhiFilter
from plugplay.consensus import INFORMER_ID, bass_rate_params, flow_drift, pi_flow_operator, size_flow_operator
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
from test_agent import float_gamma
from test_analysis import oracle_lyapunov_weights


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


def wide_joiner_scenario():
    """Agent 3 joins with two inputs where the plant gives it one: F has
    padding rows for agents 1 and 2 after the join."""
    p = PlantModel(np.array([[1.0]]), tuple(Channel(i, [[1.0]], [[1.0]]) for i in (1, 2, 3)))
    join = Event(time=0.05, kind="join", agent_id=3, channel=Channel(3, [[1.0, 0.5]], [[1.0]]),
                 add_edges=((3, 2), (3, INFORMER_ID)))
    return Scenario(
        plant=p,
        x0=[1.0],
        initial_agents=(1, 2),
        graph=Graph.from_edges([0, 1, 2], [(0, 1), (1, 2)]),
        solver=SolverSettings(t_end=0.1),
        params=AgentParams(beta=2.0),
        events=(join,),
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


def seven_agent_scenario(t_end=0.3):
    """A generated n = 8 plant: six agents on a ring with an informer
    star, and agent 7 joining at t_end / 2.  The observer maps (s = 56,
    then 64) outgrow the per-agent stacks, so a map slice is shorter than
    a chunk."""
    rng = np.random.default_rng(8)
    n = 8
    s = rng.normal(size=(n, n))
    chans = tuple(
        Channel(i, rng.normal(size=(n, 1)), rng.normal(size=(int(rng.integers(1, 3)), n)))
        for i in range(1, 8)
    )
    ring = [(i, i % 6 + 1) for i in range(1, 7)]
    star = [(INFORMER_ID, i) for i in range(1, 7)]
    join = Event(t_end / 2, "join", 7, add_edges=((6, 7), (1, 7), (INFORMER_ID, 7)), remove_edges=((1, 6),))
    return Scenario(
        plant=PlantModel((s - s.T) / np.sqrt(2 * n), chans),
        x0=rng.normal(size=n),
        initial_agents=tuple(range(1, 7)),
        graph=Graph.from_edges(range(7), ring + star),
        solver=SolverSettings(h=1e-3, t_end=t_end, record_every=10),
        params=AgentParams(beta=0.25, gamma_cap=200.0),
        events=(join,),
    )


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
    def _edit_event(k, **edges):
        scen = build_load_transport_scenario(t_leave=0.5, t_join=1.0, t_end=1.5)
        events = list(scen.events)
        events[k] = replace(events[k], **edges)
        return replace(scen, events=tuple(events))

    @pytest.mark.parametrize(
        "k, edges, match",
        [
            # the leave of agent 2 "heals" with an edge the graph has
            (0, {"add_edges": ((1, 3),)}, r"event at t=0.5: cannot add edge \(1, 3\): duplicate edges"),
            (1, {"add_edges": ((4, 1), (4, 42))}, r"event at t=1.0: cannot add edge \(4, 42\): .*unknown node"),
            (1, {"add_edges": ((4, 1), (4, 4))}, r"event at t=1.0: cannot add edge \(4, 4\): self-loop"),
            (2, {"add_edges": ((5, 4), (5, 3), (4, 5))}, r"cannot add edge \(4, 5\): duplicate edges"),
            (0, {"remove_edges": ((1, 2),)}, r"event at t=0.5: cannot remove edge \(1, 2\): not in the graph"),
            (3, {"remove_edges": ((6, 5),)}, r"event at t=1.0: cannot remove edge \(6, 5\): not in the graph"),
        ],
        ids=["duplicate_heal", "unknown_node", "self_loop", "repeated_edge", "remove_left_node", "remove_missing"],
    )
    def test_bad_event_edges_rejected(self, k, edges, match):
        with pytest.raises(ScenarioError, match=match):
            validate_scenario(self._edit_event(k, **edges))

    def test_event_edge_removal_applies(self):
        intervals = validate_scenario(self._edit_event(3, remove_edges=((6, 1),)))
        assert (1, 6) not in intervals[-1].graph.edges and (3, 6) in intervals[-1].graph.edges

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
        phi_bar, phi_tilde = cert.phi_bar, cert.phi_tilde
        assert (phi_bar, phi_tilde) == oracle_lyapunov_weights(cert, sol.F_blocks, 2)
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
        scen = wide_joiner_scenario()
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


    def test_only_the_gain_filter_is_sampled(self, monkeypatch):
        # the mode reads F alone: no agent samples Phi(Y) on its zero Y
        made, sampled = [], []
        init, update = ControlAgent.__init__, PhiFilter.update

        def init_spy(ag, *args):
            init(ag, *args)
            made.append(ag)

        def update_spy(filt, x, t):
            sampled.append(filt)
            return update(filt, x, t)

        monkeypatch.setattr(ControlAgent, "__init__", init_spy)
        monkeypatch.setattr(PhiFilter, "update", update_spy)
        run_scenario(two_agent_state_feedback_scenario(t_end=0.5))
        assert len(made) == 2
        for ag in made:
            assert sum(f is ag.phi_x for f in sampled) == 6  # t = 0, 0.1, .., 0.5
            assert not any(f is ag.phi_y for f in sampled)
            assert ag.phi_y.last_sample_index == -1


def oracle_write_trace_csv(tr, path):
    """The row-by-row trace writer: ``repr(float)`` per value through
    ``csv.writer``, an empty field for a non-finite one."""
    n = tr.x.shape[1]
    header = ["t"] + [f"x_{j+1}" for j in range(n)]
    for a in tr.agent_ids:
        m = tr.u[a].shape[1]
        header += [f"a{a}_xhat_{j+1}" for j in range(n)]
        header += [f"a{a}_zeta"]
        header += [f"a{a}_u_{j+1}" for j in range(m)]
        header += [f"a{a}_err_obs", f"a{a}_err_X", f"a{a}_err_Y"]
    header.append("informer_zeta")

    def fmt(val) -> str:
        return "" if not np.isfinite(val) else repr(float(val))

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k, t in enumerate(tr.times):
            row = [repr(float(t))] + [fmt(v) for v in tr.x[k]]
            for a in tr.agent_ids:
                row += [fmt(v) for v in tr.xhat[a][k]]
                row.append(fmt(tr.zeta[a][k]))
                row += [fmt(v) for v in tr.u[a][k]]
                row.append(fmt(tr.err_obs[a][k]))
                row.append(fmt(tr.err_x[a][k]))
                row.append(fmt(tr.err_y[a][k]))
            row.append(fmt(tr.informer_zeta[k]))
            w.writerow(row)


class TestSerializationAndOutput:
    def test_trace_csv_bytes_equal_the_row_writer(self, tmp_path):
        # agent 6 is absent until t = 0.4, and the rows span several blocks
        scen = build_load_transport_scenario(t_leave=0.2, t_join=0.4, t_end=0.6, record_every=2)
        tr = run_scenario(scen)
        assert tr.times.size > 256 and np.isnan(tr.zeta[6][0])
        tr.x[3, 0], tr.x[4, 1], tr.xhat[1][5, 2] = np.inf, -np.inf, np.nan
        tr.zeta[1][6], tr.u[1][7, 0], tr.err_obs[1][8] = -0.0, 0.0, 1e-300
        tr.err_x[2][9], tr.informer_zeta[10], tr.err_y[3][11] = 1.5e20, 2.5e-7, -1e16
        sim.write_trace_csv(tr, tmp_path / "fast.csv")
        oracle_write_trace_csv(tr, tmp_path / "rows.csv")
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "rows.csv").read_bytes()
        for text in (b",-0.0,", b",1e-300,", b",1.5e+20,", b",2.5e-07", b",-1e+16"):
            assert text in fast

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

    @pytest.mark.parametrize("mode", ["algorithm1", "state_feedback"])
    def test_summary_says_the_threshold_and_the_applied_gain(self, tmp_path, mode):
        # the agents' own threshold beside the gain the run applied; None
        # for an agent gone before the end and outside algorithm1
        if mode == "algorithm1":
            scen = build_load_transport_scenario(t_leave=0.5, t_join=1.0, t_end=1.5, record_every=50)
        else:
            scen = two_agent_state_feedback_scenario(t_end=0.5)
        tr = run_scenario(scen)
        sim.write_summary_json(tr, scen, tmp_path / "summary.json")
        with open(tmp_path / "summary.json") as fh:
            final = json.load(fh)["final_agents"]
        assert set(final) == {str(a) for a in tr.agent_ids}
        for a in tr.agent_ids:
            got = (final[str(a)]["gamma"], final[str(a)]["gamma_effective"])
            if a in tr.final_gains:
                want = (tr.final_gains[a]["gamma"], tr.final_gains[a]["gamma_effective"])
                assert got == want and want[1] == min(want[0], scen.params.gamma_cap)
            else:
                assert got == (None, None)
        if mode == "algorithm1":
            assert final["2"]["gamma"] is None  # left at 0.5
            assert final["1"]["gamma"] > 1e6 and final["1"]["gamma_effective"] == 200.0
        else:
            assert not tr.final_gains

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


class TestAppliedGain:
    """The runner applies the gamma that refresh_gains returns, min(threshold,
    gamma_cap), and takes an SVD of Y only where a norm bound cannot prove
    the cap."""

    SCENARIO = staticmethod(TestParityWithPreviousEngine.SCENARIOS["algorithm1"][1])

    def test_applied_gain_is_the_capped_threshold_at_every_step(self, monkeypatch):
        # every chunk of the pinned run against scalar refreshes on a twin
        # agent, at the run's cap (where the bound proves it) and again at
        # a cap of 1e15, above most exact values (where the SVD path runs)
        refresh = ControlAgent.refresh_gains
        high_cap, steps, below = 1e15, [], []

        def spy(ag, t, x, y, zeta):
            high = copy.deepcopy(ag)
            high.params = replace(ag.params, gamma_cap=high_cap)
            twin = copy.deepcopy(high)  # an undefined value is the cap: 1e15
            out = refresh(ag, t, x, y, zeta)
            gamma_high = refresh(high, t, x, y, zeta)[2]
            oracle = []
            for j, t_j in enumerate(t):
                refresh(twin, t_j, x[j], y[j], float(zeta[j]))
                oracle.append(float_gamma(twin, y[j], zeta[j]))
            assert np.array_equal(out[2], np.minimum(oracle, ag.params.gamma_cap))
            assert np.array_equal(gamma_high, np.minimum(oracle, high_cap))
            steps.append(len(t))
            below.append(np.sum(gamma_high < high_cap))
            return out

        monkeypatch.setattr(ControlAgent, "refresh_gains", spy)
        run_scenario(self.SCENARIO())
        assert sum(below) > 0.5 * sum(steps)

    def test_svd_of_y_on_at_most_one_step_per_agent(self, monkeypatch):
        svd, ys, thresholds = np.linalg.svd, [], []

        def spy(a, *args, **kw):
            caller = sys._getframe(1).f_code.co_name
            if caller == "refresh_gains":
                ys.append(len(a))
            elif caller == "threshold":
                thresholds.append(len(a))
            return svd(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "svd", spy)
        tr = run_scenario(self.SCENARIO())
        assert sum(ys) <= len(tr.agent_ids)
        # plus one threshold per agent at the end, for final_gains
        assert len(thresholds) == len(tr.final_gains) == 5


class TestChunkInvariance:
    """The chunk and slice lengths are memory knobs only: traces do not depend on them."""

    SCENARIOS = {
        **{
            name: TestParityWithPreviousEngine.SCENARIOS[name][1]
            for name in ("algorithm1", "rejoin", "static_gains", "state_feedback")
        },
        "seven_agents": seven_agent_scenario,
    }
    # 1 byte gives one-step chunks; 61 440 gives 25-step chunks on the
    # three-agent intervals of the load-transport scenarios, so that a
    # filter sample (every 100 steps) opens a chunk inside an interval
    BUDGETS = (1, 61_440)

    @pytest.mark.parametrize("case", list(SCENARIOS))
    def test_chunk_length_does_not_change_the_trace(self, case, monkeypatch):
        scen = self.SCENARIOS[case]()
        starts, inner_ends = [], []
        chunk, maps = sim._Runner._chunk, sim._Runner._maps

        def spy(runner, tr, s0, s1):
            starts.append(s0)
            return chunk(runner, tr, s0, s1)

        def maps_spy(runner, j0, j1):
            # a slice that ends before the chunk does
            if j1 < runner.f.shape[0]:
                inner_ends.append(j1)
            return maps(runner, j0, j1)

        monkeypatch.setattr(sim._Runner, "_chunk", spy)
        monkeypatch.setattr(sim._Runner, "_maps", maps_spy)
        want = _all_series(run_scenario(scen))
        if case == "seven_agents":
            assert inner_ends
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


class TestChunkBudget:
    """CHUNK_BYTES bounds the per-step stacks that a chunk holds from its
    start to its end together with one map slice: each in half of it."""

    def test_stacks_and_map_slices_stay_within_the_budget(self, monkeypatch):
        scen = seven_agent_scenario()
        maps = sim._Runner._maps
        held_bytes, slice_bytes = [], []

        def maps_spy(runner, j0, j1):
            g = maps(runner, j0, j1)
            # the interval's stacks, which every chunk writes into, and the
            # slice: its maps, the terms they are built from (4 N n^2 floats
            # a step) and the block of rows each flow carries
            n_agents, n = runner.f_shape[0], runner.n
            held_bytes.append(sum(a.nbytes for a in runner.stacks.values()))
            terms = 8 * (j1 - j0) * 4 * n_agents * n * n
            slice_bytes.append(g.nbytes + terms + sum(b.nbytes for b in runner.flow_blocks))
            return g

        monkeypatch.setattr(sim._Runner, "_maps", maps_spy)
        tr = run_scenario(scen)
        assert len(tr.intervals) == 2 and len(tr.intervals[-1].actives) == 7
        assert max(h + s for h, s in zip(held_bytes, slice_bytes)) <= sim.CHUNK_BYTES
        assert max(held_bytes) <= sim.CHUNK_BYTES // 2
        assert max(slice_bytes) <= sim.CHUNK_BYTES // 2
        # and the budget is used: neither length is cut short
        assert max(held_bytes) > sim.CHUNK_BYTES // 4
        assert max(slice_bytes) > sim.CHUNK_BYTES // 4


class TestIntervalStacks:
    """The per-step stacks are allocated once per interval and every chunk
    writes into them: no chunk reads a row that it did not write."""

    SCENARIOS = {**TestChunkInvariance.SCENARIOS, "wide_joiner": wide_joiner_scenario}

    @pytest.mark.parametrize("case", list(SCENARIOS))
    def test_poisoned_stacks_leave_every_series_unchanged(self, case, monkeypatch):
        # every stack starts as NaN instead of whatever memory it gets, so
        # a row (or an F or L padding entry) read before it is written
        # shows up in the trace
        scen = self.SCENARIOS[case]()
        want = _all_series(run_scenario(scen))
        allocate = sim._Runner._allocate

        def poisoned(runner, shapes):
            stacks = allocate(runner, shapes)
            for a in stacks.values():
                a.fill(np.nan)
            return stacks

        monkeypatch.setattr(sim._Runner, "_allocate", poisoned)
        for budget in (sim.CHUNK_BYTES, TestChunkInvariance.BUDGETS[1]):
            monkeypatch.setattr(sim, "CHUNK_BYTES", budget)
            got = _all_series(run_scenario(scen))
            assert got.keys() == want.keys()
            for name, val in want.items():
                assert np.array_equal(got[name], val, equal_nan=True), (budget, name)

    def test_chunks_write_into_the_interval_stacks(self, monkeypatch):
        scen = TestChunkInvariance.SCENARIOS["algorithm1"]()
        enter, allocate, chunk = sim._Runner._enter, sim._Runner._allocate, sim._Runner._chunk
        entered, made, seen = [], [], []

        def enter_spy(runner, iv, *args):
            entered.append(iv)
            enter(runner, iv, *args)

        def allocate_spy(runner, shapes):
            made.append(allocate(runner, shapes))
            return made[-1]

        def chunk_spy(runner, tr, s0, s1):
            chunk(runner, tr, s0, s1)
            stacks = runner.stacks
            assert stacks is made[-1]
            for view, name in ((runner.x_mats, "x"), (runner.y_mats, "y"), (runner.f, "f")):
                assert np.shares_memory(view, stacks[name]), name
            seen.append(len(made))

        monkeypatch.setattr(sim, "CHUNK_BYTES", TestChunkInvariance.BUDGETS[1])
        monkeypatch.setattr(sim._Runner, "_enter", enter_spy)
        monkeypatch.setattr(sim._Runner, "_allocate", allocate_spy)
        monkeypatch.setattr(sim._Runner, "_chunk", chunk_spy)
        run_scenario(scen)
        # one allocation per interval entered, and several chunks in each
        assert len(made) == len(entered) == len(set(seen)) == 3
        assert all(seen.count(i) > 2 for i in set(seen))

    def test_a_second_run_in_one_process_gives_the_same_trace(self):
        scen = seven_agent_scenario()
        want = _all_series(run_scenario(scen))
        got = _all_series(run_scenario(scen))
        assert got.keys() == want.keys()
        for name, val in want.items():
            assert np.array_equal(got[name], val, equal_nan=True), name


def oracle_b_steps(op, c, h, b):
    """b applications of RK4's one-step map ``y + (step y + offset)`` on
    ``ydot = op y + c``: the increment ``D`` with ``(I + step)^b = I + D``
    and the offset ``y_b`` from ``y_0 = 0``, one step at a time."""
    _, s3 = rk4_propagator(op, h)
    step, offset = op @ s3, s3 @ c
    d, y = np.zeros_like(step), np.zeros_like(offset)
    for _ in range(b):
        d = d + (step + step @ d)
        y = y + (step @ y + offset)
    return d, y


def modal_transform(v, m):
    """The orthogonal map from ``(vec Z_1..Z_N, vec X_1..X_N)`` to the
    runner's modal rows ``(vec Z_j, vec X_j)``, mode after mode."""
    n_agents = v.shape[0]
    q = np.kron(np.eye(2), np.kron(v.T, np.eye(m)))  # (Z modes, X modes)
    order = np.arange(2 * n_agents * m).reshape(2, n_agents, m).transpose(1, 0, 2).ravel()
    return q[order]


class TestFlowBlocks:
    """The flows advance FLOW_BLOCK steps per product: ``y_{i+b} = y_i +
    (P y_i + s)``, with ``(P, s)`` built by doubling."""

    B = sim.FLOW_BLOCK

    @pytest.mark.parametrize("seed", range(4))
    def test_block_map_equals_b_one_step_maps_on_random_stable_blocks(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 40))
        op = rng.normal(size=(d, d)) / np.sqrt(d) - (0.5 + rng.random()) * np.eye(d)
        c, y0 = rng.normal(size=d), rng.normal(size=d)
        h = 10.0 ** rng.uniform(-3, -0.5)
        p_t, s, rows = sim._block_map(op, c, h, y0)
        want_p, want_s = oracle_b_steps(op, c, h, self.B)
        assert np.abs(p_t.T - want_p).max() <= 1e-12 * np.abs(want_p).max()
        assert np.abs(s - want_s).max() <= 1e-12 * np.abs(want_s).max()
        # the first block: y0 and its one-step advances
        for i in range(self.B):
            d_i, y_i = oracle_b_steps(op, c, h, i)
            want = y0 + (d_i @ y0 + y_i)
            assert np.abs(rows[i] - want).max() <= 1e-12 * np.abs(want).max()

    def test_block_maps_of_the_demo_first_interval(self):
        # each flow against b one-step maps of its full operator in agent
        # coordinates, taken to the runner's modal coordinates
        scen = build_load_transport_scenario()
        runner = sim._Runner(scen)
        iv, p, n, h = runner.intervals[0], scen.params, runner.n, runner.h
        rows = {a: sim._agent_state_zeros(n) for a in iv.actives}
        runner._enter(iv, scen.x0, rows, (0.0, 0.0))
        lap, q = laplacian(iv.agent_graph), modal_transform(runner.v, n * n)
        flows = [
            (flow_drift(scen.plant.A, p.beta), p.k_c, p.gamma_c, [2.0 * c.B @ c.B.T for c in iv.channels]),
            (flow_drift(scen.plant.A.T, p.beta), p.k_o, p.gamma_o, [2.0 * c.C.T @ c.C for c in iv.channels]),
        ]
        for (drift, k, gamma, forcing), (p_t, s) in zip(flows, runner.flow_maps):
            m_full, c_full = pi_flow_operator(drift, k, gamma, lap, np.stack(forcing))
            want_p, want_s = oracle_b_steps(m_full, c_full, h, self.B)
            want_p, want_s = q @ want_p @ q.T, q @ want_s
            got_p = np.zeros_like(want_p)
            size = p_t.shape[1]
            for j in range(p_t.shape[0]):
                got_p[j * size : (j + 1) * size, j * size : (j + 1) * size] = p_t[j].T
            assert np.abs(got_p - want_p).max() <= 1e-12 * np.abs(want_p).max()
            assert np.abs(s.ravel() - want_s).max() <= 1e-12 * np.abs(want_s).max()
        # the size estimator: one dense block
        ops, drive = size_flow_operator(p.k_s, p.gamma_s, laplacian(iv.graph), 0)
        want_p, want_s = oracle_b_steps(ops, drive, h, self.B)
        p_t, s = runner.flow_maps[2]
        assert np.abs(p_t[0].T - want_p).max() <= 1e-12 * np.abs(want_p).max()
        assert np.abs(s[0] - want_s).max() <= 1e-12 * np.abs(want_s).max()

    SCENARIOS = {
        # the demo's schedule with its leave at step 503, not a multiple
        # of the block, and its joins 4 steps later, an interval shorter
        # than a block
        "demo": lambda: build_load_transport_scenario(t_leave=0.503, t_join=0.507, t_end=0.9),
        "seven_agents": seven_agent_scenario,
    }

    # budgets that split the intervals into several chunks
    @pytest.mark.parametrize("budget", [1 << 20, 73_632])
    @pytest.mark.parametrize("case", list(SCENARIOS))
    def test_history_equals_the_one_step_recursion(self, case, budget, monkeypatch):
        # every kept X, Y and size-estimator row of each interval against
        # the plain recursion y + (step y + offset) of the full operator,
        # from the interval's entry state
        scen = self.SCENARIOS[case]()
        p, h, n = scen.params, scen.solver.h, scen.plant.n
        enter, flows = sim._Runner._enter, sim._Runner._flows
        intervals = []

        def enter_spy(runner, iv, *args):
            enter(runner, iv, *args)
            start = (runner.v @ runner.zx, runner.v @ runner.wy, runner.sz.copy())
            intervals.append((iv, start, []))

        def flows_spy(runner, n_adv):
            failed = flows(runner, n_adv)
            intervals[-1][2].append((runner.x_mats.copy(), runner.y_mats.copy(), runner.sz_steps.copy()))
            return failed

        monkeypatch.setattr(sim, "CHUNK_BYTES", budget)
        monkeypatch.setattr(sim._Runner, "_enter", enter_spy)
        monkeypatch.setattr(sim._Runner, "_flows", flows_spy)
        run_scenario(scen)
        lengths = [sum(len(c[0]) - 1 for c in chunks) for _, _, chunks in intervals]
        if case == "demo":
            # an event off the block grid, and an interval shorter than a block
            assert lengths[0] % self.B and min(lengths) < self.B
        assert any(len(chunks) > 1 for _, _, chunks in intervals)
        for iv, (zx, wy, sz), chunks in intervals:
            n_agents, nn = len(iv.actives), n * n
            lap = laplacian(iv.agent_graph)
            ops = [
                pi_flow_operator(flow_drift(scen.plant.A, p.beta), p.k_c, p.gamma_c, lap,
                                 np.stack([2.0 * c.B @ c.B.T for c in iv.channels])),
                pi_flow_operator(flow_drift(scen.plant.A.T, p.beta), p.k_o, p.gamma_o, lap,
                                 np.stack([2.0 * c.C.T @ c.C for c in iv.channels])),
                size_flow_operator(p.k_s, p.gamma_s, laplacian(iv.graph), 0),
            ]
            starts = [np.concatenate([y[:, :nn].ravel(), y[:, nn:].ravel()]) for y in (zx, wy)] + [sz]
            for f, ((op, c), y) in enumerate(zip(ops, starts)):
                got = np.concatenate([ch[f][:-1] for ch in chunks] + [chunks[-1][f][-1:]])
                _, s3 = rk4_propagator(op, h)
                step, offset = op @ s3, s3 @ c
                want = [y]
                for _ in range(len(got) - 1):
                    want.append(want[-1] + (step @ want[-1] + offset))
                want = np.array(want)
                if f < 2:  # X or Y, agent by agent
                    want = want[:, n_agents * nn :].reshape(got.shape)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (iv.t_start, f)


class TestRecordedNorms:
    def test_symmetric_2_norm_equals_the_svd_norm(self):
        # err_X and err_Y are 2-norms of symmetric matrices, taken from
        # eigvalsh: against np.linalg.norm(., 2), which takes an SVD
        rng = np.random.default_rng(14)
        g = rng.normal(size=(6, 7, 8, 8))
        sym = g + np.swapaxes(g, -1, -2)
        spd = g @ np.swapaxes(g, -1, -2)
        cases = [
            sym,  # indefinite
            spd,  # positive semidefinite
            -spd,  # negative semidefinite
            sym + 1e-14 * g,  # symmetric up to rounding, as the flows keep X and Y
            np.zeros((3, 4, 4)),
            np.einsum("...i,...j->...ij", g[..., 0], g[..., 0]),  # rank one
            1e-200 * sym,
            1e200 * sym,
        ]
        for e in cases:
            want = np.linalg.norm(e, 2, axis=(-2, -1))
            got = sim._sym_norm2(e)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-13 * want.max())
