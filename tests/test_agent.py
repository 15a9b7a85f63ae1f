import math
from dataclasses import replace

import numpy as np
import pytest

from plugplay import bass, sim
from plugplay.agent import AgentParams, ControlAgent, PhiFilter, gain_F, gain_L, gamma_i
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

    def test_output_always_finite(self):
        rng = np.random.default_rng(0)
        f = PhiFilter(0.1, 3)
        for k in range(100):
            x = rng.normal(size=(3, 3)) * rng.choice([0.0, 1e-14, 1.0])
            out = f.update(x, 0.1 * k)
            assert np.all(np.isfinite(out))


def converge_agent(ag, n_agents, x_star, y_star, t=0.0):
    """Plant the converged flow values into an agent and refresh."""
    ag.X = x_star / n_agents
    ag.Y = y_star / n_agents
    ag.zeta = float(n_agents)
    ag.refresh_gains(t)
    return ag


class TestGains:
    def test_zeta_clamp(self):
        ag = make_agent()
        ag.X = 2 * np.eye(2)
        ag.zeta = 0.3  # below one: divisor clamps to 1
        f_gain = gain_F(ag, 0.0)
        assert np.allclose(f_gain, -(ag.B.T @ (0.5 * np.eye(2))))

    def test_converged_feedback_gain(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        sol = bass.bass_solve(a, b, 1.0)
        dual = bass.dual_bass_solve(a, np.array([[1.0, 0.0]]), 1.0)
        ag = make_agent()
        converge_agent(ag, 1, sol.X_star, dual.Y_star)
        assert np.allclose(gain_F(ag, 0.0), [[-2.0, -2.0]], atol=1e-9)
        assert np.allclose(gain_F(ag, 0.0), -b.T @ np.linalg.inv(sol.X_star), atol=1e-9)

    def test_converged_injection_gain_scalar(self):
        params = AgentParams(beta=2.0)
        ag = ControlAgent(np.array([[1.0]]), Channel(1, [[1.0]], [[1.0]]), params)
        sol = bass.bass_solve([[1.0]], [[1.0]], 2.0)
        dual = bass.dual_bass_solve([[1.0]], [[1.0]], 2.0)
        converge_agent(ag, 1, sol.X_star, dual.Y_star)
        assert np.allclose(gain_L(ag, 0.0), [[-3.0]], atol=1e-10)

    def test_limit_identities_multi_agent(self):
        p = load_transport_plant((0, 3, 6))
        b, c = aggregate(p)
        beta = 0.25
        sol = bass.bass_solve(p.A, b, beta, widths=[1, 1, 1])
        dual = bass.dual_bass_solve(p.A, c, beta, heights=[2, 2, 2])
        for i, chan in enumerate(p.channels):
            ag = ControlAgent(p.A, chan, AgentParams(beta=beta))
            converge_agent(ag, 3, sol.X_star, dual.Y_star)
            assert induced_2norm(gain_F(ag, 0.0) - sol.F_blocks[i]) < 1e-9
            assert induced_2norm(gain_L(ag, 0.0) - dual.L_blocks[i]) < 1e-9

    def test_gamma_plugin_value(self):
        # filters at identity, zeta = 1, Y = I: kappa = 1/beta and
        # theta = |A| + 3, all by direct arithmetic
        ag = make_agent(beta=0.5)
        ag.Y = np.eye(2)
        ag.zeta = 1.0
        val = gamma_i(ag, 0.0)
        theta = induced_2norm(ag.A) + 1.0 + 2.0
        kappa = 1.0 / 0.5
        expected = 1.0 + 0.25 * (
            theta + theta**2 * kappa + 4 * kappa * np.sqrt(1 + theta**2 * kappa**2)
        )
        assert np.isclose(val, expected)

    def test_gamma_cap_when_undefined(self):
        ag = make_agent(gamma_cap=123.0)
        val = gamma_i(ag, 0.0)  # fresh agent: Y = 0, denominator vanishes
        assert val == 123.0

    def test_gamma_at_least_one(self):
        rng = np.random.default_rng(1)
        ag = make_agent()
        for k in range(50):
            ag.X = rng.normal(size=(2, 2))
            ag.Y = rng.normal(size=(2, 2))
            ag.zeta = float(rng.uniform(-0.5, 6.0))
            ag._gain_time = None
            val = gamma_i(ag, 0.1 * (k + 1))
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
        converge_agent(ag, n_agents, sol.X_star, dual.Y_star)
        got = gamma_i(ag, 0.0)
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

    def test_effective_gamma_capped(self):
        # the agent reports the certificate uncapped; the simulator applies
        # min(gamma_i, gamma_cap) and reports both
        ag = make_agent(gamma_cap=50.0)
        ag.Y = 1e-12 * np.eye(2)  # conditioning pushes the formula sky-high
        ag.zeta = 1.0
        assert gamma_i(ag, 0.0) > 50.0
        scen = build_load_transport_scenario(t_end=0.1, leave_slot=None, join_slots=())
        scen = replace(scen, params=replace(scen.params, gamma_cap=50.0))
        for gains in run_scenario(scen).final_gains.values():
            assert gains["gamma"] > 50.0
            assert gains["gamma_effective"] == 50.0


def frozen_loop(agents, zeta, gamma, lap, t=0.0):
    """The simulator's frozen-gain matrix over (x, xhat_1..N) for these agents."""
    a = agents[0].A
    k0 = np.stack([ag.B @ gain_F(ag, t) for ag in agents])
    jm = np.stack([zeta * gain_L(ag, t) @ ag.C for ag in agents])
    geff = np.full(len(agents), gamma)
    return sim._observer_map(a, k0, jm, a + zeta * k0 + jm, geff, sim._coupling(lap, a.shape[0]))


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
        converge_agent(ag, 1, sol.X_star, dual.Y_star)
        x = np.array([0.7, -0.3])
        d = frozen_loop([ag], 1.0, 1.0, np.zeros((1, 1))) @ np.concatenate([x, x])
        f_inf = -b.T @ np.linalg.inv(sol.X_star)
        assert np.allclose(d[:2], a @ x + b @ (f_inf @ x), atol=1e-9)
        assert np.allclose(d[2:], d[:2], atol=1e-9)

    def test_no_neighbors_no_coupling(self):
        # identical estimates contribute nothing through the coupling gain
        agents = [make_agent(), make_agent(channel=Channel(2, [[1.0], [0.0]], [[0.0, 1.0]]))]
        lap = laplacian(Graph.from_edges([1, 2], [(1, 2)]))
        z = np.array([0.3, -0.6, 1.0, 2.0, 1.0, 2.0])  # x, then xhat_1 = xhat_2
        d0 = frozen_loop(agents, 2.0, 0.0, lap) @ z
        d1 = frozen_loop(agents, 2.0, 7.0, lap) @ z
        assert np.allclose(d0, d1)

    def test_control_output(self):
        # u_i = F_i(t) xhat_i
        ag = make_agent()
        assert np.allclose(gain_F(ag, 0.0) @ np.zeros(2), [0.0])
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        sol = bass.bass_solve(a, b, 1.0)
        dual = bass.dual_bass_solve(a, np.array([[1.0, 0.0]]), 1.0)
        # advance past the filter period so the converged state is sampled
        converge_agent(ag, 1, sol.X_star, dual.Y_star, t=1.0)
        u = gain_F(ag, 1.0) @ np.array([1.0, 0.0])
        assert u.shape == (1,)
        assert np.isclose(u[0], -2.0, atol=1e-9)

    def test_state_feedback_output(self):
        # u_i = -B_i^T Phi(X_i) x: zeta stays 0 and clamps to 1
        chan = Channel(1, [[0.0], [1.0]], np.eye(2))
        ag = make_agent(channel=chan)
        x = np.array([0.4, -1.2])
        u = gain_F(ag, 0.0) @ x
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
        ag.X = sol.X_star
        x = np.array([1.0, 1.0])
        u = gain_F(ag, 0.0) @ x
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
            ag.X = rng.normal(size=(2, 2)) * (k % 3 == 0)
            ag.Y = rng.normal(size=(2, 2)) * (k % 5 != 1)
            ag.zeta = float(rng.uniform(0, 4))
            ag._gain_time = None
            t = 0.05 * k
            assert np.all(np.isfinite(gain_F(ag, t)))
            assert np.all(np.isfinite(gain_L(ag, t)))
            assert np.isfinite(gamma_i(ag, t))


def oracle_gamma(y, zeta, phi_x, phi_y, a, beta, cap):
    """The coupling-gain formula of ``gamma_i``'s docstring, one agent."""
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
            ag.X = ag.Y = x
            ag.refresh_gains(0.2)
        good = rng.normal(size=(n, n)) + 2 * np.eye(n)
        singular = np.outer(rng.normal(size=n), rng.normal(size=n))  # rank one
        joiner = rng.normal(size=(n, n)) + 2 * np.eye(n)
        self.x = [good, singular, joiner]
        for ag, x in zip(self.agents, self.x):
            ag.X = x

    def test_sample_and_hold(self):
        for ag in self.agents:
            ag.refresh_gains(0.35)
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
        ag.X = self.x[2]
        ag.refresh_gains(0.4 - 1e-6)
        assert ag.phi_x.value is held[0] and ag.phi_x.last_sample_index == 3
        ag.refresh_gains(0.4 - 1e-11)
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
        for ag, y, z in zip(self.agents, ys, zeta):
            ag.Y, ag.zeta = y, z
            ag.refresh_gains(0.35)
            zc = max(z, 1.0)
            phi_x, phi_y = ag.phi_x.value, ag.phi_y.value
            assert np.allclose(gain_F(ag, 0.35), -ag.B.T @ phi_x / zc, rtol=1e-13, atol=1e-13)
            assert np.allclose(gain_L(ag, 0.35), -phi_y @ ag.C.T / zc, rtol=1e-13, atol=1e-13)
            want = oracle_gamma(y, z, phi_x, phi_y, self.a, self.params.beta, cap)
            assert np.isclose(gamma_i(ag, 0.35), want, rtol=1e-12, atol=0)
            gammas.append(gamma_i(ag, 0.35))
        # the first agent's Y is sampled now; the other two are rejected and
        # keep their sample from t = 0.2 and the joiner's identity
        assert np.allclose(self.agents[0].phi_y.value, np.linalg.inv(ys[0]), rtol=1e-12, atol=1e-12)
        assert np.array_equal(self.agents[1].phi_y.value, np.linalg.inv(self.prev[1]))
        assert np.array_equal(self.agents[2].phi_y.value, np.eye(3))
        assert gammas[0] < cap
        assert gammas[1] == cap and gammas[2] == cap


def float_gamma(ag, y, zeta):
    """The threshold formula on Python floats, as the step-by-step engine
    evaluated it, from the agent's current holds; the formula over a
    stack must give the same bits."""
    cap = ag.params.gamma_cap
    zc = max(float(zeta), 1.0)
    sx_max, sx_min = ag.phi_x.sigma_max, ag.phi_x.sigma_min
    sy = np.linalg.svd(y, compute_uv=False)
    zc2 = zc * zc
    den = ag.params.beta * min(sx_min, zc2 * float(sy[-1]))
    if den <= 0.0:
        return cap
    kappa = max(sx_max, zc2 * float(sy[0])) / den
    theta = induced_2norm(ag.A) + ag.phi_y.sigma_max + 2.0 * sx_max
    gamma = 1.0 + (zc2 / 4.0) * (
        theta
        + theta * theta * kappa
        + 4.0 * (sx_max * sx_max) * kappa * math.sqrt(1.0 + (theta * theta) * (kappa * kappa))
    )
    return gamma if math.isfinite(gamma) else cap


class TestStackedRefresh:
    """One refresh_gains over K times against K scalar calls on a twin agent."""

    PERIOD = 0.1
    N = 3
    # chunk 1: a joiner's first refresh in mid-period; an instant 1e-11
    # short of 0.2 that the slack turns into a sample, 0.2 itself (no
    # new sample), 1e-6 short of 0.3 (none), and 0.3 on the last step.
    # chunk 2: a sample on its first step, a rejected one in mid-chunk
    # (0.5) and one on its last step.
    CHUNKS = (
        [0.135, 0.15, 0.175, 0.2 - 1e-11, 0.2, 0.25, 0.3 - 1e-6, 0.3],
        [0.4, 0.42, 0.47, 0.5, 0.55, 0.6],
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
            stacked.X, stacked.Y, stacked.zeta = xs, ys, zeta
            stacked.refresh_gains(np.array(ts))
            f, l, g = gain_F(stacked, np.array(ts)), gain_L(stacked, np.array(ts)), gamma_i(stacked, np.array(ts))
            assert f.shape == (len(ts), 2, n) and l.shape == (len(ts), n, 2) and g.shape == (len(ts),)
            if ts is self.CHUNKS[0]:
                # the slack makes 0.2 - 1e-11 a sample, and zeta = 0.3 clamps to 1
                want = -(stacked.B.T @ np.linalg.inv(xs[3]))
                assert np.allclose(f[3], want, rtol=1e-12, atol=1e-12)
            for j, t in enumerate(ts):
                twin.X, twin.Y, twin.zeta = xs[j], ys[j], float(zeta[j])
                twin.refresh_gains(t)
                assert np.array_equal(f[j], gain_F(twin, t)), t
                assert np.array_equal(l[j], gain_L(twin, t)), t
                assert g[j] == gamma_i(twin, t) == float_gamma(twin, ys[j], zeta[j]), t
                capped += g[j] == params.gamma_cap
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
        ag.X, ag.Y, ag.zeta = 2 * np.eye(2), np.eye(2), 0.5
        ts = np.array([0.0, 0.05, 0.1])
        f = gain_F(ag, ts)
        assert f.shape == (3, 1, 2)
        assert np.array_equal(f, np.broadcast_to(-(ag.B.T @ (0.5 * np.eye(2))), f.shape))

    def test_times_must_not_decrease(self):
        ag = make_agent()
        with pytest.raises(ValueError):
            ag.refresh_gains(np.array([0.2, 0.1]))
        ag.refresh_gains(0.3)
        with pytest.raises(ValueError):
            ag.refresh_gains(np.array([0.25, 0.4]))
