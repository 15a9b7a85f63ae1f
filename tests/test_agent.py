import math
from dataclasses import replace

import numpy as np
import pytest

from plugplay import agent as agent_module
from plugplay import bass
from plugplay.agent import AgentParams, ControlAgent, PhiFilter
from plugplay.analysis import observer_loop_matrix
from plugplay.graph import Graph, laplacian
from plugplay.matlib import induced_2norm, spectral_abscissa
from plugplay.plant import Channel, aggregate
from plugplay.sim import build_load_transport_scenario, run_scenario

from test_plant import load_transport_plant


def make_agent(channel=None, beta=1.0, **kw):
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    if channel is None:
        channel = Channel(1, [[0.0], [1.0]], [[1.0, 0.0]])
    params = AgentParams(beta=beta, **kw)
    return ControlAgent(a, channel, params)


ZERO = np.zeros((2, 2))  # a fresh agent's X and Y


class TestPhiFilter:
    def test_constant_invertible_input(self):
        f = PhiFilter(0.1, 2)
        out = f.update(2 * np.eye(2), 0.0)
        assert np.allclose(out, 0.5 * np.eye(2))

    def test_singular_input_keeps_initial_hold(self):
        f = PhiFilter(0.1, 2)
        for k in range(30):
            out = f.update(np.zeros((2, 2)), k * 0.1)
        assert np.array_equal(out, np.eye(2))

    def test_piecewise_constant_between_samples(self):
        f = PhiFilter(0.5, 2)
        f.update(2 * np.eye(2), 0.0)
        mid = f.update(5 * np.eye(2), 0.49)  # not a sample instant
        assert np.allclose(mid, 0.5 * np.eye(2))
        after = f.update(5 * np.eye(2), 0.5)
        assert np.allclose(after, 0.2 * np.eye(2))

    def test_limit_tracks_inverse_of_limit(self):
        # X(t) -> X*/N implies the filter output -> N X*^-1
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        x_star = bass.bass_solve(a, b, 1.0).X_star
        f = PhiFilter(0.1, 2)
        n_agents = 3
        for k in range(20):
            xt = x_star / n_agents + np.exp(-k) * np.array([[0.1, 0.0], [0.0, -0.2]])
            out = f.update(xt, 0.1 * k)
        assert np.allclose(out, n_agents * np.linalg.inv(x_star), atol=1e-6)

    def test_time_must_not_decrease(self):
        f = PhiFilter(0.1, 2)
        f.update(np.eye(2), 1.0)
        with pytest.raises(ValueError):
            f.update(np.eye(2), 0.5)

    def test_hold_gathers_the_per_step_values(self):
        rng = np.random.default_rng(3)
        ts = np.arange(5, 40) * 0.01
        xs = rng.normal(size=(ts.size, 2, 2)) + 2 * np.eye(2)
        xs[15] = 0.0  # the sample at t = 0.2 is rejected
        stacked, twin = PhiFilter(0.1, 2), PhiFilter(0.1, 2)
        held, svals, which = stacked.hold(xs, ts)
        assert held.shape[0] == 5 and svals.shape == (5, 2)  # the initial hold, then 4 samples
        for j, t in enumerate(ts):
            assert np.array_equal(held[which[j]], twin.update(xs[j], t))
            assert np.array_equal(svals[which[j]], [twin.sigma_max, twin.sigma_min])
        assert np.array_equal(stacked.value, twin.value)
        assert stacked.last_sample_index == twin.last_sample_index == 3

    def test_hold_without_a_due_sample_calls_no_update(self, monkeypatch):
        rng = np.random.default_rng(4)
        f = PhiFilter(0.1, 3)
        f.update(rng.normal(size=(3, 3)) + 3 * np.eye(3), 0.1)
        held, svals = f.value.copy(), np.array([f.sigma_max, f.sigma_min])
        calls = []
        monkeypatch.setattr(PhiFilter, "update", lambda *args: calls.append(args))
        ts = np.array([0.12, 0.15, 0.2 - 1e-6])  # 0.2 is not reached
        out, out_svals, which = f.hold(rng.normal(size=(3, 3, 3)), ts)
        assert calls == []
        assert out.shape == (1, 3, 3) and np.array_equal(out[0], held)
        assert np.array_equal(out_svals[0, [0, -1]], svals)
        assert np.array_equal(which, [0, 0, 0])
        assert np.array_equal(f.value, held) and f.last_sample_index == 1
        assert f._last_t == 0.2 - 1e-6
        with pytest.raises(ValueError):
            f.hold(np.zeros((1, 3, 3)), np.array([0.15]))

    def test_output_always_finite(self):
        rng = np.random.default_rng(0)
        f = PhiFilter(0.1, 3)
        for k in range(100):
            x = rng.normal(size=(3, 3)) * rng.choice([0.0, 1e-14, 1.0])
            out = f.update(x, 0.1 * k)
            assert np.all(np.isfinite(out))


def converge_agent(ag, n_agents, x_star, y_star, t=0.0):
    """The agent's gains (F, L, gamma) at the converged flow values."""
    return ag.refresh_gains(t, x_star / n_agents, y_star / n_agents, float(n_agents))


class TestGains:
    def test_zeta_clamp(self):
        ag = make_agent()
        # zeta below one: divisor clamps to 1
        f_gain, _, _ = ag.refresh_gains(0.0, 2 * np.eye(2), ZERO, 0.3)
        assert np.allclose(f_gain, -(ag.B.T @ (0.5 * np.eye(2))))

    def test_a_second_call_at_the_same_time_returns_its_own_gains(self):
        # the gains follow the call's inputs, not the time alone
        ag = make_agent()
        x = 2 * np.eye(2)
        f1, _, g1 = ag.refresh_gains(0.0, x, np.eye(2), 1.0)
        assert np.allclose(f1, [[0.0, -0.5]])
        y = 1e-3 * np.eye(2)
        f, l, g = ag.refresh_gains(0.0, x, y, 4.0)
        assert np.allclose(f, [[0.0, -0.125]], rtol=1e-15, atol=0)
        # no new sample is due at the same time: Phi(Y) keeps the hold of I
        assert np.array_equal(ag.phi_y.value, np.eye(2))
        assert np.allclose(l, -ag.C.T / 4.0, rtol=1e-15, atol=0)
        want = oracle_gamma(y, 4.0, ag.phi_x.value, ag.phi_y.value, ag.A, 1.0, ag.params.gamma_cap)
        assert np.isclose(g, want, rtol=1e-12, atol=0)
        assert g > 1000.0 * g1

    def test_converged_feedback_gain(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        sol = bass.bass_solve(a, b, 1.0)
        dual = bass.dual_bass_solve(a, np.array([[1.0, 0.0]]), 1.0)
        ag = make_agent()
        f, _, _ = converge_agent(ag, 1, sol.X_star, dual.Y_star)
        assert np.allclose(f, [[-2.0, -2.0]], atol=1e-9)
        assert np.allclose(f, -b.T @ np.linalg.inv(sol.X_star), atol=1e-9)

    def test_converged_injection_gain_scalar(self):
        params = AgentParams(beta=2.0)
        ag = ControlAgent(np.array([[1.0]]), Channel(1, [[1.0]], [[1.0]]), params)
        sol = bass.bass_solve([[1.0]], [[1.0]], 2.0)
        dual = bass.dual_bass_solve([[1.0]], [[1.0]], 2.0)
        _, l, _ = converge_agent(ag, 1, sol.X_star, dual.Y_star)
        assert np.allclose(l, [[-3.0]], atol=1e-10)

    def test_limit_identities_multi_agent(self):
        p = load_transport_plant((0, 3, 6))
        b, c = aggregate(p)
        beta = 0.25
        sol = bass.bass_solve(p.A, b, beta, widths=[1, 1, 1])
        dual = bass.dual_bass_solve(p.A, c, beta, heights=[2, 2, 2])
        for i, chan in enumerate(p.channels):
            ag = ControlAgent(p.A, chan, AgentParams(beta=beta))
            f, l, _ = converge_agent(ag, 3, sol.X_star, dual.Y_star)
            assert induced_2norm(f - sol.F_blocks[i]) < 1e-9
            assert induced_2norm(l - dual.L_blocks[i]) < 1e-9

    def test_gamma_plugin_value(self):
        # filters at identity, zeta = 1, Y = I: kappa = 1/beta and
        # theta = |A| + 3, all by direct arithmetic
        ag = make_agent(beta=0.5)
        _, _, val = ag.refresh_gains(0.0, ZERO, np.eye(2), 1.0)
        theta = induced_2norm(ag.A) + 1.0 + 2.0
        kappa = 1.0 / 0.5
        expected = 1.0 + 0.25 * (
            theta + theta**2 * kappa + 4 * kappa * np.sqrt(1 + theta**2 * kappa**2)
        )
        assert np.isclose(val, expected)

    def test_gamma_cap_when_undefined(self):
        ag = make_agent(gamma_cap=123.0)
        _, _, val = ag.refresh_gains(0.0, ZERO, ZERO, 0.0)  # fresh agent: Y = 0, denominator vanishes
        assert val == 123.0

    def test_gamma_at_least_one(self):
        rng = np.random.default_rng(1)
        ag = make_agent()
        for k in range(50):
            x, y = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
            zeta = float(rng.uniform(-0.5, 6.0))
            _, _, val = ag.refresh_gains(0.1 * (k + 1), x, y, zeta)
            assert val >= 1.0
            assert np.isfinite(val)

    def test_gamma_matches_converged_formula(self):
        p = load_transport_plant((0, 3, 6))
        b, c = aggregate(p)
        beta = 0.25
        sol = bass.bass_solve(p.A, b, beta, widths=[1, 1, 1])
        dual = bass.dual_bass_solve(p.A, c, beta, heights=[2, 2, 2])
        n_agents = 3
        ag = ControlAgent(p.A, p.channels[0], AgentParams(beta=beta))
        _, _, applied = converge_agent(ag, n_agents, sol.X_star, dual.Y_star)
        got = ag.threshold(dual.Y_star / n_agents, float(n_agents))
        assert applied == min(got, ag.params.gamma_cap)
        x_inv = np.linalg.inv(sol.X_star)
        sx = np.linalg.svd(x_inv, compute_uv=False)
        sy = np.linalg.svd(dual.Y_star, compute_uv=False)
        theta = induced_2norm(p.A) + n_agents * induced_2norm(np.linalg.inv(dual.Y_star)) \
            + 2 * n_agents * induced_2norm(x_inv)
        kappa = max(sx[0], sy[0]) / (beta * min(sx[-1], sy[-1]))
        expected = 1.0 + n_agents**2 / 4.0 * (
            theta
            + theta**2 * kappa
            + 4 * n_agents**2 * induced_2norm(x_inv) ** 2 * kappa * np.sqrt(1 + theta**2 * kappa**2)
        )
        assert np.isclose(got, expected, rtol=1e-9)
        # and it clears the worst-case-connectivity threshold
        cert = bass.bass_certificate(p, sol, dual, use_mohar=True)
        assert got >= cert.gamma_min
        # the same on random plants, for every agent: from its own flows
        # at their limits, each agent's threshold is at least the
        # centralized certificate's at Mohar's connectivity
        from plugplay.suites import random_normalized_plant

        rng = np.random.default_rng(24)
        for _ in range(100):
            p = random_normalized_plant(rng, agents_min=1)
            chans = sorted(p.channels, key=lambda ch: ch.id)
            n_agents = len(chans)
            beta = float(rng.uniform(0.25, 1.0))
            b, c = aggregate(p)
            sol = bass.bass_solve(p.A, b, beta, widths=[ch.m for ch in chans])
            dual = bass.dual_bass_solve(p.A, c, beta, heights=[ch.p for ch in chans])
            gamma_min = bass.bass_certificate(p, sol, dual, use_mohar=True).gamma_min
            for chan in chans:
                ag = ControlAgent(p.A, chan, AgentParams(beta=beta))
                converge_agent(ag, n_agents, sol.X_star, dual.Y_star)
                assert ag.threshold(dual.Y_star / n_agents, float(n_agents)) >= gamma_min

    def test_effective_gamma_capped(self):
        # the agent applies min(gamma, gamma_cap) and gives the certificate
        # uncapped through threshold; the simulator reports both
        ag = make_agent(gamma_cap=50.0)
        y = 1e-12 * np.eye(2)
        applied = ag.refresh_gains(0.0, ZERO, y, 1.0)[2]
        # conditioning pushes the formula sky-high
        assert ag.threshold(y, 1.0) > 50.0
        assert applied == min(ag.threshold(y, 1.0), 50.0)
        scen = build_load_transport_scenario(t_end=0.1, leave_slot=None, join_slots=())
        scen = replace(scen, params=replace(scen.params, gamma_cap=50.0))
        for gains in run_scenario(scen).final_gains.values():
            assert gains["gamma"] > 50.0
            assert gains["gamma_effective"] == 50.0


def frozen_loop(agents, gains, zeta, gamma, lap):
    """The simulator's frozen-gain matrix over (x, xhat_1..N) for these
    agents at their gains ``(F, L, gamma)``."""
    a = agents[0].A
    k0 = np.stack([ag.B @ f for ag, (f, _, _) in zip(agents, gains)])
    jm = np.stack([zeta * l @ ag.C for ag, (_, l, _) in zip(agents, gains)])
    n_agents = len(agents)
    return observer_loop_matrix(a, k0, jm, np.full(n_agents, zeta), np.full(n_agents, gamma), lap)


class TestObserverAndOutputs:
    def test_error_zero_stays_zero(self):
        # converged single agent with xhat = x: the observer follows the
        # closed-loop field, so the observer error stays on the diagonal
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        c = np.array([[1.0, 0.0]])
        sol = bass.bass_solve(a, b, 1.0)
        dual = bass.dual_bass_solve(a, c, 1.0)
        ag = make_agent()
        gains = converge_agent(ag, 1, sol.X_star, dual.Y_star)
        x = np.array([0.7, -0.3])
        d = frozen_loop([ag], [gains], 1.0, 1.0, np.zeros((1, 1))) @ np.concatenate([x, x])
        f_inf = -b.T @ np.linalg.inv(sol.X_star)
        assert np.allclose(d[:2], a @ x + b @ (f_inf @ x), atol=1e-9)
        assert np.allclose(d[2:], d[:2], atol=1e-9)

    def test_no_neighbors_no_coupling(self):
        # identical estimates contribute nothing through the coupling gain
        agents = [make_agent(), make_agent(channel=Channel(2, [[1.0], [0.0]], [[0.0, 1.0]]))]
        gains = [ag.refresh_gains(0.0, ZERO, ZERO, 0.0) for ag in agents]
        lap = laplacian(Graph.from_edges([1, 2], [(1, 2)]))
        z = np.array([0.3, -0.6, 1.0, 2.0, 1.0, 2.0])  # x, then xhat_1 = xhat_2
        d0 = frozen_loop(agents, gains, 2.0, 0.0, lap) @ z
        d1 = frozen_loop(agents, gains, 2.0, 7.0, lap) @ z
        assert np.allclose(d0, d1)

    def test_control_output(self):
        # u_i = F_i(t) xhat_i
        ag = make_agent()
        assert np.allclose(ag.refresh_gains(0.0, ZERO, ZERO, 0.0)[0] @ np.zeros(2), [0.0])
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        sol = bass.bass_solve(a, b, 1.0)
        dual = bass.dual_bass_solve(a, np.array([[1.0, 0.0]]), 1.0)
        # advance past the filter period so the converged state is sampled
        f, _, _ = converge_agent(ag, 1, sol.X_star, dual.Y_star, t=1.0)
        u = f @ np.array([1.0, 0.0])
        assert u.shape == (1,)
        assert np.isclose(u[0], -2.0, atol=1e-9)

    def test_state_feedback_output(self):
        # u_i = -B_i^T Phi(X_i) x: zeta stays 0 and clamps to 1, and
        # without a Y there is no observer gain to compute
        chan = Channel(1, [[0.0], [1.0]], np.eye(2))
        ag = make_agent(channel=chan)
        x = np.array([0.4, -1.2])
        f, l, gamma = ag.refresh_gains(0.0, ZERO, None, 0.0)
        assert l is None and gamma is None
        assert ag.phi_y.last_sample_index == -1
        u = f @ x
        # fresh filter holds the identity
        assert np.array_equal(ag.phi_x.value, np.eye(2))
        assert np.allclose(u, -(ag.B.T @ (ag.phi_x.value @ x)))
        assert np.allclose(u, -(ag.B.T @ x))

    def test_state_feedback_converged_single_agent(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        sol = bass.bass_solve(a, b, 1.0)
        chan = Channel(1, b, np.eye(2))
        ag = make_agent(channel=chan)
        x = np.array([1.0, 1.0])
        u = ag.refresh_gains(0.0, sol.X_star, None, 0.0)[0] @ x
        assert np.allclose(u, sol.F @ x, atol=1e-9)

    def test_state_feedback_two_agent_limit_is_hurwitz(self):
        p = load_transport_plant((0, 3))
        b, _ = aggregate(p)
        beta = 0.25
        sol = bass.bass_solve(p.A, b, beta)
        x_inv = np.linalg.inv(sol.X_star)
        acl = p.A - 2 * (b @ b.T @ x_inv)
        assert spectral_abscissa(acl) < 0


class TestBoundedness:
    def test_gains_finite_through_singular_transients(self):
        rng = np.random.default_rng(2)
        ag = make_agent()
        for k in range(200):
            # interleave singular and regular iterates
            x = rng.normal(size=(2, 2)) * (k % 3 == 0)
            y = rng.normal(size=(2, 2)) * (k % 5 != 1)
            zeta = float(rng.uniform(0, 4))
            f, l, gamma = ag.refresh_gains(0.05 * k, x, y, zeta)
            assert np.all(np.isfinite(f))
            assert np.all(np.isfinite(l))
            assert np.isfinite(gamma)


def oracle_gamma(y, zeta, phi_x, phi_y, a, beta, cap):
    """The coupling-gain formula of ``refresh_gains``' docstring, one agent."""
    zc = max(zeta, 1.0)
    sx = np.linalg.svd(phi_x, compute_uv=False)
    sy = np.linalg.svd(y, compute_uv=False)
    den = beta * min(sx[-1], zc**2 * sy[-1])
    if den <= 0.0:
        return cap
    kappa = max(sx[0], zc**2 * sy[0]) / den
    theta = np.linalg.norm(a, 2) + np.linalg.norm(phi_y, 2) + 2.0 * sx[0]
    with np.errstate(over="ignore", invalid="ignore"):
        g = 1.0 + zc**2 / 4.0 * (
            theta + theta**2 * kappa + 4.0 * sx[0] ** 2 * kappa * np.sqrt(1.0 + theta**2 * kappa**2)
        )
    return float(g) if np.isfinite(g) else cap


class TestGainRefresh:
    """refresh_gains of agents that differ in width, hold and history,
    against oracles built from plain np.linalg.inv and svd."""

    PERIOD = 0.1

    def setup_method(self):
        rng = np.random.default_rng(7)
        n = 3
        self.a = rng.normal(size=(n, n))
        self.params = AgentParams(beta=0.5, t_phi=self.PERIOD)
        widths = [(1, 2), (2, 1), (1, 1)]  # (m, p) per agent
        chans = [
            Channel(i + 1, rng.normal(size=(n, m)), rng.normal(size=(p, n)))
            for i, (m, p) in enumerate(widths)
        ]
        # agents 0 and 1 sample at t = 0.2 and run on; agent 2 joins at
        # t = 0.35, mid-period, holding the identity
        self.agents = [ControlAgent(self.a, ch, self.params) for ch in chans]
        self.prev = [rng.normal(size=(n, n)) + 3 * np.eye(n) for _ in range(2)]
        for ag, x in zip(self.agents, self.prev):
            ag.refresh_gains(0.2, x, x, 0.0)
        good = rng.normal(size=(n, n)) + 2 * np.eye(n)
        singular = np.outer(rng.normal(size=n), rng.normal(size=n))  # rank one
        joiner = rng.normal(size=(n, n)) + 2 * np.eye(n)
        self.x = [good, singular, joiner]
        self.y = self.prev + [np.zeros((n, n))]

    def test_sample_and_hold(self):
        for ag, x, y in zip(self.agents, self.x, self.y):
            ag.refresh_gains(0.35, x, y, 0.0)
        held = [ag.phi_x.value for ag in self.agents]
        assert [ag.phi_x.last_sample_index for ag in self.agents] == [3, 3, 3]
        assert np.allclose(held[0], np.linalg.inv(self.x[0]), rtol=1e-12, atol=1e-12)
        assert np.array_equal(held[1], np.linalg.inv(self.prev[1]))  # rejected: hold kept
        assert np.allclose(held[2], np.linalg.inv(self.x[2]), rtol=1e-12, atol=1e-12)
        for ag in self.agents:
            svals = np.linalg.svd(ag.phi_x.value, compute_uv=False)
            assert np.isclose(ag.phi_x.sigma_max, svals[0], rtol=1e-12)
            assert np.isclose(ag.phi_x.sigma_min, svals[-1], rtol=1e-12)
        # nothing is due again before t = 0.4 (up to the 1e-9 slack)
        ag = self.agents[0]
        ag.refresh_gains(0.4 - 1e-6, self.x[2], self.y[0], 0.0)
        assert ag.phi_x.value is held[0] and ag.phi_x.last_sample_index == 3
        ag.refresh_gains(0.4 - 1e-11, self.x[2], self.y[0], 0.0)
        assert ag.phi_x.last_sample_index == 4
        assert np.allclose(ag.phi_x.value, np.linalg.inv(self.x[2]), rtol=1e-12, atol=1e-12)

    def test_gains_and_threshold_against_oracle(self):
        rng = np.random.default_rng(8)
        zeta = [0.4, 2.5, 3.0]  # agent 0 clamps to 1
        ys = [
            rng.normal(size=(3, 3)) + 2 * np.eye(3),
            np.zeros((3, 3)),  # vanishing denominator: the cap
            np.diag([1.0, 1.0, 1e-200]),  # overflowing value: the cap
        ]
        cap = self.params.gamma_cap
        gammas = []
        for ag, x, y, z in zip(self.agents, self.x, ys, zeta):
            f, l, applied = ag.refresh_gains(0.35, x, y, z)
            gamma = ag.threshold(y, z)
            zc = max(z, 1.0)
            phi_x, phi_y = ag.phi_x.value, ag.phi_y.value
            assert np.allclose(f, -ag.B.T @ phi_x / zc, rtol=1e-13, atol=1e-13)
            assert np.allclose(l, -phi_y @ ag.C.T / zc, rtol=1e-13, atol=1e-13)
            want = oracle_gamma(y, z, phi_x, phi_y, self.a, self.params.beta, cap)
            assert np.isclose(gamma, want, rtol=1e-12, atol=0)
            assert applied == min(gamma, cap)
            gammas.append(gamma)
        # the first agent's Y is sampled now; the other two are rejected and
        # keep their sample from t = 0.2 and the joiner's identity
        assert np.allclose(self.agents[0].phi_y.value, np.linalg.inv(ys[0]), rtol=1e-12, atol=1e-12)
        assert np.array_equal(self.agents[1].phi_y.value, np.linalg.inv(self.prev[1]))
        assert np.array_equal(self.agents[2].phi_y.value, np.eye(3))
        assert gammas[0] < cap
        assert gammas[1] == cap and gammas[2] == cap


def float_gamma(ag, y, zeta):
    """The threshold on Python floats, from the agent's current holds:
    one plus the scalar call of ``bass.gamma_threshold`` at the agent's
    local substitutes.  The formula over a stack must give the same bits."""
    cap = ag.params.gamma_cap
    zc = max(float(zeta), 1.0)
    sx_max, sx_min = ag.phi_x.sigma_max, ag.phi_x.sigma_min
    sy = np.linalg.svd(y, compute_uv=False)
    zc2 = zc * zc
    den = ag.params.beta * min(sx_min, zc2 * float(sy[-1]))
    if den <= 0.0:
        return cap
    kappa = max(sx_max, zc2 * float(sy[0])) / den
    max_f = sx_max / zc
    theta = bass._theta_bound(induced_2norm(ag.A), max_f, ag.phi_y.sigma_max / zc, zc)
    gamma = 1.0 + float(bass.gamma_threshold(theta, kappa, max_f, zc, 4.0 / zc2))
    return gamma if math.isfinite(gamma) else cap


class TestStackedRefresh:
    """One refresh_gains over K times against K scalar calls on a twin agent."""

    PERIOD = 0.1
    N = 3
    # chunk 1: a joiner's first refresh in mid-period; an instant 1e-11
    # short of 0.2 that the slack turns into a sample, 0.2 itself (no
    # new sample), 1e-6 short of 0.3 (none), and 0.3 on the last step.
    # chunk 2: a sample on its first step, a rejected one in mid-chunk
    # (0.5) and one on its last step.  chunk 3: no sample at all, up to
    # 1e-6 short of 0.7.
    CHUNKS = (
        [0.135, 0.15, 0.175, 0.2 - 1e-11, 0.2, 0.25, 0.3 - 1e-6, 0.3],
        [0.4, 0.42, 0.47, 0.5, 0.55, 0.6],
        [0.61, 0.64, 0.68, 0.7 - 1e-6],
    )
    SAMPLED = [0.135, 0.2 - 1e-11, 0.3, 0.4, 0.5, 0.6]

    def inputs(self, rng, ts):
        n, k = self.N, len(ts)
        xs = rng.normal(size=(k, n, n)) + 3 * np.eye(n)
        ys = rng.normal(size=(k, n, n)) + 3 * np.eye(n)
        zeta = rng.uniform(1.5, 4.0, size=k)
        if 0.15 in ts:
            ys[1] = 0.0  # vanishing denominator: the cap
            ys[2] = np.diag([1.0, 1.0, 1e-200])  # overflowing value: the cap
            zeta[[3, 5]] = [0.3, -0.5]  # clamped to 1
        if 0.5 in ts:
            j = ts.index(0.5)
            xs[j] = np.outer(rng.normal(size=n), rng.normal(size=n))  # rank one: rejected
            ys[j] = np.zeros((n, n))
        return xs, ys, zeta

    def test_stack_equals_scalar_calls(self, monkeypatch):
        rng = np.random.default_rng(12)
        n = self.N
        a = rng.normal(size=(n, n))
        chan = Channel(1, rng.normal(size=(n, 2)), rng.normal(size=(2, n)))
        params = AgentParams(beta=0.5, t_phi=self.PERIOD)
        stacked, twin = ControlAgent(a, chan, params), ControlAgent(a, chan, params)
        tags = {id(stacked.phi_x): "sx", id(stacked.phi_y): "sy", id(twin.phi_x): "tx", id(twin.phi_y): "ty"}
        calls = []
        update = PhiFilter.update

        def spy(filt, x, t):
            calls.append((tags[id(filt)], t, np.array(x)))
            return update(filt, x, t)

        monkeypatch.setattr(PhiFilter, "update", spy)
        capped = 0
        for ts in self.CHUNKS:
            xs, ys, zeta = self.inputs(rng, ts)
            f, l, g = stacked.refresh_gains(np.array(ts), xs, ys, zeta)
            assert f.shape == (len(ts), 2, n) and l.shape == (len(ts), n, 2) and g.shape == (len(ts),)
            if ts is self.CHUNKS[0]:
                # the slack makes 0.2 - 1e-11 a sample, and zeta = 0.3 clamps to 1
                want = -(stacked.B.T @ np.linalg.inv(xs[3]))
                assert np.allclose(f[3], want, rtol=1e-12, atol=1e-12)
            for j, t in enumerate(ts):
                f_t, l_t, g_t = twin.refresh_gains(t, xs[j], ys[j], float(zeta[j]))
                assert np.array_equal(f[j], f_t), t
                assert np.array_equal(l[j], l_t), t
                exact = twin.threshold(ys[j], zeta[j])
                assert exact == float_gamma(twin, ys[j], zeta[j]), t
                assert g[j] == g_t == min(exact, params.gamma_cap), t
                capped += exact == params.gamma_cap
            for name in ("phi_x", "phi_y"):
                fs, ft = getattr(stacked, name), getattr(twin, name)
                assert np.array_equal(fs.value, ft.value)
                assert fs.last_sample_index == ft.last_sample_index
                assert (fs.sigma_max, fs.sigma_min) == (ft.sigma_max, ft.sigma_min)
        assert capped == 3  # the two cap paths, and the all-zero Y at 0.5
        assert stacked.phi_x.last_sample_index == 6
        # the filters are updated at the sample instants only, with the
        # same inputs in both agents; 0.5 is rejected and keeps the hold
        for s, t in (("sx", "tx"), ("sy", "ty")):
            got = [(c[1], c[2]) for c in calls if c[0] == s]
            want = [(c[1], c[2]) for c in calls if c[0] == t]
            assert [c[0] for c in got] == [c[0] for c in want] == self.SAMPLED
            assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(got, want))

    def test_scalar_state_stands_for_every_step(self):
        # an (n, n) state and a scalar zeta apply at every time of the array
        ag = make_agent()
        ts = np.array([0.0, 0.05, 0.1])
        f, l, gamma = ag.refresh_gains(ts, 2 * np.eye(2), np.eye(2), 0.5)
        assert f.shape == (3, 1, 2) and l.shape == (3, 2, 1) and gamma.shape == (3,)
        assert np.array_equal(f, np.broadcast_to(-(ag.B.T @ (0.5 * np.eye(2))), f.shape))

    def test_times_must_not_decrease(self):
        ag = make_agent()
        with pytest.raises(ValueError):
            ag.refresh_gains(np.array([0.2, 0.1]), ZERO, ZERO, 0.0)
        ag.refresh_gains(0.3, ZERO, ZERO, 0.0)
        with pytest.raises(ValueError):
            ag.refresh_gains(np.array([0.25, 0.4]), ZERO, ZERO, 0.0)


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def bound_and_exact(ag, ys, zeta):
    """The threshold formula at the agent's holds, per Y of the stack:
    once at the norm bounds that refresh_gains tries first, once at the
    singular values np.linalg.svd computes (the exact path)."""
    k = len(ys)
    zc = np.maximum(np.asarray(zeta, dtype=float), 1.0)
    held = [np.full(k, v) for v in (ag.phi_x.sigma_max, ag.phi_x.sigma_min, ag.phi_y.sigma_max)]
    bound = ag._gamma_formula(zc, *held, *agent_module._singular_value_bounds(ys))
    sy = np.linalg.svd(ys, compute_uv=False)
    return bound, ag._gamma_formula(zc, *held, sy[:, 0], sy[:, -1])


class TestCapBound:
    """The bound may only ever undershoot the exact formula, bit for bit:
    where it reaches the cap, the exact value does too."""

    K = 400

    def families(self, rng, n):
        """(name, Y stack, zeta) of random Y families with n x n matrices."""
        k = self.K
        scale = 10.0 ** rng.uniform(-3, 3, size=(k, 1, 1))
        zeta = rng.uniform(0.5, 6.0, size=k)
        gauss = rng.normal(size=(k, n, n))
        out = [("gaussian", gauss * scale, zeta)]
        # rank deficient: a zero singular value, or a zero column
        svals = np.abs(rng.normal(size=(k, n)))
        svals[:, -1] = 0.0
        u = np.stack([orthogonal(rng, n) for _ in range(k)])
        v = np.stack([orthogonal(rng, n) for _ in range(k)])
        out.append(("rank_deficient", (u * svals[:, None, :]) @ np.swapaxes(v, 1, 2), zeta))
        zero_col = gauss.copy()
        zero_col[:, :, rng.integers(n)] = 0.0
        out.append(("zero_column", zero_col, zeta))
        # sigma_min ~ 1e-17 sigma_max from random orthogonal factors; with
        # V = I a column norm is the smallest singular value itself
        tiny = svals.copy()
        tiny[:, -1] = 1e-17 * tiny[:, 0] * rng.uniform(0.5, 2.0, size=k)
        out.append(("near_singular", (u * tiny[:, None, :]) @ np.swapaxes(v, 1, 2) * scale, zeta))
        out.append(("near_singular_columns", u * tiny[:, None, :] * scale, zeta))
        # a well-separated smallest column, zeta large: Y sets the denominator
        sep = svals.copy()
        sep[:, -1] = rng.uniform(0.05, 0.5, size=k) * sep[:, 0]
        out.append(("small_column", u * sep[:, None, :], rng.uniform(3.0, 30.0, size=k)))
        # every singular value equal: |Y|_F / sqrt(n) is sigma_max itself
        out.append(("scaled_orthogonal", u * (10.0 ** rng.uniform(0, 3, size=(k, 1, 1))), zeta))
        out.append(("zero", np.zeros((k, n, n)), zeta))
        out.append(("clamped_zeta", gauss, rng.uniform(-2.0, 1.0, size=k)))
        # squares that underflow (zeta keeps the value finite) and overflow
        out.append(("tiny_columns", u * tiny[:, None, :] * 1e-160, np.full(k, 1e76)))
        out.append(("tiny", gauss * 1e-160, np.full(k, 1e76)))
        out.append(("large", gauss * 10.0 ** rng.uniform(100, 150, size=(k, 1, 1)), zeta))
        out.append(("overflow", gauss * 10.0 ** rng.uniform(160, 300, size=(k, 1, 1)), zeta))
        return out

    def agents(self, rng):
        """Agents of mixed plant size and channel width, each with holds
        of a different conditioning."""
        out = []
        for n, (m, p), cond in ((2, (1, 1), 1.0), (3, (1, 2), 30.0), (3, (2, 1), 1e4), (5, (2, 3), 300.0)):
            chan = Channel(len(out) + 1, rng.normal(size=(n, m)), rng.normal(size=(p, n)))
            ag = ControlAgent(rng.normal(size=(n, n)), chan, AgentParams(beta=0.25))
            x = orthogonal(rng, n) @ np.diag(np.geomspace(1.0, cond, n)) @ orthogonal(rng, n).T
            ag.refresh_gains(0.0, x, x.T, 1.0)
            out.append(ag)
        return out

    def test_bound_never_exceeds_the_exact_value(self):
        rng = np.random.default_rng(21)
        for ag in self.agents(rng):
            for name, ys, zeta in self.families(rng, ag.n):
                bound, exact = bound_and_exact(ag, ys, zeta)
                # NaN (an overflow) on the exact path is the cap: above any bound
                exact = np.where(np.isnan(exact), np.inf, exact)
                trusted = ~np.isnan(bound)
                assert np.all(bound[trusted] <= exact[trusted]), (ag.n, name)
                if name == "zero":
                    # a vanishing denominator proves the cap
                    assert np.all(bound == np.inf) and np.all(exact == np.inf)
                elif name in ("overflow", "tiny", "tiny_columns"):
                    # norms whose squares overflowed or may have underflowed
                    # prove nothing
                    assert not trusted.any(), name
                elif name != "large":
                    assert trusted.all() and np.isfinite(bound).mean() > 0.9, (ag.n, name)

    def test_nan_bound_proves_nothing(self, monkeypatch):
        # a step whose bound is NaN goes to the SVD, also where the bound
        # would have proved the cap; the gains stay min(exact, cap)
        rng = np.random.default_rng(22)
        n, k = 3, 16
        params = AgentParams(beta=0.5, gamma_cap=1e15)
        chan = Channel(1, rng.normal(size=(n, 1)), rng.normal(size=(2, n)))
        a = rng.normal(size=(n, n))
        ag, twin = ControlAgent(a, chan, params), ControlAgent(a, chan, params)
        ys = rng.normal(size=(k, n, n)) + 3 * np.eye(n)
        ys[::2] *= 1e-9  # ill-scaled: the bound proves the cap
        ys[::4] = 0.0  # a vanishing denominator proves it too
        ts = np.linspace(0.0, 0.05, k)
        proved = bound_and_exact(ag, ys, np.full(k, 2.0))[0] >= params.gamma_cap
        assert np.array_equal(proved, np.arange(k) % 2 == 0)
        nan_steps = np.isin(np.arange(k), [0, 2, 3, 5])
        bounds = agent_module._singular_value_bounds

        def nan_bounds(stack):
            hi, lo = bounds(stack)
            lo[nan_steps] = np.nan
            return hi, lo

        svd, seen = np.linalg.svd, []

        def svd_spy(x, *args, **kw):
            if np.ndim(x) == 3:  # the Y stack; the filters take one matrix
                seen.append(np.array(x))
            return svd(x, *args, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(agent_module, "_singular_value_bounds", nan_bounds)
            patch.setattr(np.linalg, "svd", svd_spy)
            _, _, gamma = ag.refresh_gains(ts, np.eye(n), ys, 2.0)
        assert len(seen) == 1 and np.array_equal(seen[0], ys[nan_steps | ~proved])
        exact = []
        for j, t in enumerate(ts):
            twin.refresh_gains(t, np.eye(n), ys[j], 2.0)
            exact.append(twin.threshold(ys[j], 2.0))
        assert np.array_equal(gamma, np.minimum(exact, params.gamma_cap))
        assert np.array_equal(gamma == params.gamma_cap, proved)

    def test_fallback_gives_the_capped_exact_value(self):
        # with the cap between the exact values, the proved steps and the
        # SVD steps together give min(exact, cap) at every step
        rng = np.random.default_rng(23)
        n, k = 3, 60
        chan = Channel(1, rng.normal(size=(n, 2)), rng.normal(size=(1, n)))
        a = rng.normal(size=(n, n))
        ys = rng.normal(size=(k, n, n)) * 10.0 ** rng.uniform(-4, 1, size=(k, 1, 1))
        ys[7] = 0.0
        xs = rng.normal(size=(k, n, n)) + 3 * np.eye(n)
        zeta = rng.uniform(-1.0, 4.0, size=k)
        ts = np.linspace(0.0, 0.5, k)
        probe = ControlAgent(a, chan, AgentParams(beta=0.5))
        exact = np.array([
            probe.refresh_gains(t, xs[j], ys[j], zeta[j]) and probe.threshold(ys[j], zeta[j])
            for j, t in enumerate(ts)
        ])
        cap = float(np.median(exact))
        params = AgentParams(beta=0.5, gamma_cap=cap)
        ag, twin = ControlAgent(a, chan, params), ControlAgent(a, chan, params)
        _, _, gamma = ag.refresh_gains(ts, xs, ys, zeta)
        oracle = []
        for j, t in enumerate(ts):
            twin.refresh_gains(t, xs[j], ys[j], zeta[j])
            oracle.append(float_gamma(twin, ys[j], zeta[j]))
        assert np.array_equal(gamma, np.minimum(oracle, cap))
        assert 0 < np.sum(gamma < cap) < k
