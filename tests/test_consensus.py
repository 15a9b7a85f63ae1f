import numpy as np
import pytest

from plugplay import bass, consensus
from plugplay.analysis import bass_equilibria, size_equilibrium
from plugplay.consensus import (
    BassConsensusState,
    DualConsensusState,
    FlowParams,
    SizeEstState,
    bass_flow_derivative,
    bass_rate_params,
    dual_flow_derivative,
    size_flow_derivative,
    size_rate_params,
)
from plugplay.graph import Graph, lambda2, r_matrix
from plugplay.matlib import unvec
from plugplay.sim import rk4_step

from test_plant import load_transport_plant


def star4():
    # informer 0 in the middle of three agents
    return Graph.from_edges([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])


class TestBassFlow:
    def test_single_agent_reduces_to_local_equation(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        g = Graph.from_edges([1], [])
        params = FlowParams(2.0, 1.0)
        x_star = bass.bass_solve(a, b, 1.0).X_star
        st = BassConsensusState((1,), np.zeros((1, 2, 2)), x_star[None])
        d = bass_flow_derivative(st, a, {1: b}, 1.0, params, g)
        assert np.abs(d.X).max() < 1e-12
        assert np.abs(d.Z).max() < 1e-12

    def test_closed_form_equilibrium_is_fixed_point(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2))
        a = a + (0.1 - np.linalg.eigvals(a).real.min()) * np.eye(2)
        beta = 1.0
        ids = (1, 2, 3)
        g = Graph.from_edges(ids, [(1, 2), (2, 3)])
        maps = {i: rng.normal(size=(2, 1)) for i in ids}
        params = FlowParams(1.3, 0.7)
        nu_t, chi_b = bass_equilibria(a, maps, beta, params, g)
        rmat, _ = r_matrix(g)
        nu_full = np.kron(rmat, np.eye(4)) @ nu_t
        z = np.stack([unvec(nu_full[i * 4 : (i + 1) * 4], 2) for i in range(3)])
        x = np.stack([unvec(chi_b, 2)] * 3)
        d = bass_flow_derivative(BassConsensusState(ids, z, x), a, maps, beta, params, g)
        assert np.abs(d.X).max() < 1e-12
        assert np.abs(d.Z).max() < 1e-12

    def test_symmetric_two_agents_stay_identical(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        g = Graph.from_edges([1, 2], [(1, 2)])
        params = FlowParams(1.0, 1.0)
        st = BassConsensusState.zeros((1, 2), 2)
        flat = st.pack()
        f = lambda t, y: bass_flow_derivative(st.unpack(y), a, {1: b, 2: b}, 1.0, params, g).pack()
        for k in range(200):
            flat = rk4_step(f, flat, k * 1e-2, 1e-2)
        out = st.unpack(flat)
        assert np.allclose(out.X[0], out.X[1], atol=1e-14)
        assert np.abs(out.Z).max() < 1e-14  # coupling never activates

    def test_graph_mismatch_rejected(self):
        st = BassConsensusState.zeros((1, 2), 2)
        g = Graph.from_edges([1, 3], [(1, 3)])
        with pytest.raises(ValueError):
            bass_flow_derivative(st, np.eye(2), {1: np.eye(2), 2: np.eye(2)}, 1.0, FlowParams(1, 1), g)

    def test_conservation_of_integral_state(self):
        # sum_i Zdot_i = 0 along the flow; RK4 drift stays tiny
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2))
        ids = (1, 2, 3, 4)
        g = Graph.from_edges(ids, [(1, 2), (2, 3), (3, 4), (4, 1)])
        maps = {i: rng.normal(size=(2, 1)) for i in ids}
        params = FlowParams(1.0, 2.0)
        beta = 3.0
        st0 = BassConsensusState(ids, rng.normal(size=(4, 2, 2)), rng.normal(size=(4, 2, 2)))
        total0 = st0.Z.sum(axis=0)
        flat = st0.pack()
        f = lambda t, y: bass_flow_derivative(st0.unpack(y), a, maps, beta, params, g).pack()
        h = 1e-3
        for k in range(1000):
            flat = rk4_step(f, flat, k * h, h)
        drift = np.abs(st0.unpack(flat).Z.sum(axis=0) - total0).max()
        assert drift < 1e-9  # over one unit of time


class TestInitializationFree:
    def test_twenty_random_starts_share_one_limit(self):
        from plugplay.suites import propagate_affine

        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 2))
        a = a + (0.2 - np.linalg.eigvals(a).real.min()) * np.eye(2)
        ids = (1, 2, 3)
        g = Graph.from_edges(ids, [(1, 2), (2, 3), (1, 3)])
        maps = {i: rng.normal(size=(2, 1)) for i in ids}
        params = FlowParams(1.0, 1.0)
        bagg = np.hstack([maps[i] for i in ids])
        target = bass.bass_solve(a, bagg, 1.0, check_controllability=False).X_star / 3
        t_grid = np.linspace(0.0, 60.0, 31)
        for _ in range(20):
            proto = BassConsensusState(
                ids, 5 * rng.normal(size=(3, 2, 2)), 5 * rng.normal(size=(3, 2, 2))
            )
            fn = lambda y: bass_flow_derivative(proto.unpack(y), a, maps, 1.0, params, g).pack()
            final = proto.unpack(propagate_affine(fn, proto.pack(), t_grid)[-1])
            for i in range(3):
                assert np.linalg.norm(final.X[i] - target, 2) < 1e-6


class TestDualFlow:
    def test_structural_duality(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3))
        ids = (1, 2)
        g = Graph.from_edges(ids, [(1, 2)])
        cmaps = {i: rng.normal(size=(2, 3)) for i in ids}
        params = FlowParams(0.8, 1.2)
        w = rng.normal(size=(2, 3, 3))
        y = rng.normal(size=(2, 3, 3))
        d_dual = dual_flow_derivative(DualConsensusState(ids, w, y), a, cmaps, 1.5, params, g)
        d_primal = bass_flow_derivative(
            BassConsensusState(ids, w, y), a.T, {i: c.T for i, c in cmaps.items()}, 1.5, params, g
        )
        assert np.array_equal(d_dual.W, d_primal.Z)
        assert np.array_equal(d_dual.Y, d_primal.X)

    def test_single_agent_equilibrium_is_dual_solution(self):
        a = np.array([[1.0]])
        c = np.array([[1.0]])
        y_star = bass.dual_bass_solve(a, c, 2.0).Y_star
        st = DualConsensusState((1,), np.zeros((1, 1, 1)), y_star[None])
        d = dual_flow_derivative(st, a, {1: c}, 2.0, FlowParams(1, 1), Graph.from_edges([1], []))
        assert np.abs(d.Y).max() < 1e-12

    def test_identical_channels_converge_to_common_constant(self):
        # all output maps equal: every Y_i settles at Y*/N
        p = load_transport_plant((0, 3, 6))
        ids = (1, 2, 3)
        g = Graph.from_edges(ids, [(1, 2), (2, 3), (1, 3)])
        cmaps = {i: p.channel(i).C for i in ids}
        cagg = np.vstack([cmaps[i] for i in ids])
        y_star = bass.dual_bass_solve(p.A, cagg, 0.25).Y_star
        st = DualConsensusState(ids, np.zeros((3, 4, 4)), np.stack([y_star / 3] * 3))
        d = dual_flow_derivative(st, p.A, cmaps, 0.25, FlowParams(1, 1), g)
        assert np.abs(d.Y).max() < 1e-10
        assert np.abs(d.W).max() < 1e-10


class TestSizeFlow:
    def test_zero_state_star(self):
        st = SizeEstState.zeros((0, 1, 2, 3))
        d = size_flow_derivative(st, FlowParams(1.5, 1.0), star4())
        assert d.zeta_of(0) == 0.0
        for i in (1, 2, 3):
            assert d.zeta_of(i) == 1.5
        assert np.abs(d.psi).max() == 0.0

    def test_single_agent_blended_equilibrium(self):
        # two-node case: equilibrium zeta = 1 everywhere
        g = Graph.from_edges([0, 1], [(0, 1)])
        params = FlowParams(1.0, 2.0)
        _, psi_t = size_equilibrium(1, params, g)
        rmat, _ = r_matrix(g)
        st = SizeEstState((0, 1), rmat @ psi_t, np.ones(2))
        d = size_flow_derivative(st, params, g)
        assert np.abs(d.pack()).max() < 1e-12
        # hand-computed offset: psi = -+ k/(2 gamma)
        assert np.allclose(rmat @ psi_t, [-0.25, 0.25])

    def test_size_equilibrium_general_topology(self):
        for n_agents, topo_edges in ((3, [(0, 1), (0, 2), (0, 3), (1, 2)]),):
            g = Graph.from_edges(range(n_agents + 1), topo_edges)
            params = FlowParams(2.0, 3.0)
            zeta_star, psi_t = size_equilibrium(n_agents, params, g)
            assert zeta_star == n_agents
            rmat, _ = r_matrix(g)
            st = SizeEstState(g.nodes, rmat @ psi_t, np.full(g.n, float(n_agents)))
            d = size_flow_derivative(st, params, g)
            assert np.abs(d.pack()).max() < 1e-12

    def test_conservation_of_psi(self):
        g = star4()
        params = FlowParams(1.0, 1.0)
        rng = np.random.default_rng(3)
        st0 = SizeEstState(g.nodes, rng.normal(size=4), rng.normal(size=4))
        total0 = st0.psi.sum()
        flat = st0.pack()
        f = lambda t, y: size_flow_derivative(st0.unpack(y), params, g).pack()
        for k in range(1000):
            flat = rk4_step(f, flat, k * 1e-3, 1e-3)
        assert abs(st0.unpack(flat).psi.sum() - total0) < 1e-9

    def test_missing_informer_rejected(self):
        st = SizeEstState.zeros((1, 2))
        g = Graph.from_edges([1, 2], [(1, 2)])
        with pytest.raises(ValueError):
            size_flow_derivative(st, FlowParams(1, 1), g)

    def test_convergence_to_network_size(self):
        # size estimates reach the agent count through the package RK4
        g = star4()
        params = FlowParams(1.0, 1.0)
        st0 = SizeEstState.zeros(g.nodes)
        flat = st0.pack()
        f = lambda t, y: size_flow_derivative(st0.unpack(y), params, g).pack()
        h = 1e-3
        for k in range(120_000):
            flat = rk4_step(f, flat, k * h, h)
        zeta = st0.unpack(flat).zeta
        assert np.abs(zeta - 3.0).max() < 1e-3


class TestRateParams:
    def test_scalar_oracle(self):
        # A = [0], beta = 1: Abar = [-2], P = 1/2, so k = delta/2 and the
        # gamma coefficient is (6 + sqrt(5)) / lambda2
        g = Graph.from_edges([1, 2], [(1, 2)])
        delta = 0.8
        params = bass_rate_params(np.zeros((1, 1)), 1.0, g, delta)
        assert np.isclose(params.k, 0.5 * delta)
        coeff = (6.0 + np.sqrt(5.0)) / lambda2(g)
        assert np.isclose(params.gamma, coeff * params.k)

    def test_zero_delta_defaults(self):
        g = Graph.from_edges([1, 2], [(1, 2)])
        params = bass_rate_params(np.zeros((1, 1)), 1.0, g, 0.0)
        assert params.k == 1.0
        assert params.gamma > 0

    def test_size_rate_oracle(self):
        g = Graph.from_edges([0, 1], [(0, 1)])
        params = size_rate_params(1, g, 1.0)
        expected_k = (54.0 + 2.0 * np.sqrt(5.0)) / (2.0 - np.sqrt(2.0))
        assert np.isclose(params.k, expected_k)
        assert params.gamma > 2 * params.k / lambda2(g)
        assert np.isclose(params.gamma, 2 * params.k / lambda2(g) * (1 + 1e-6))

    def test_size_rate_zero_delta(self):
        g = Graph.from_edges([0, 1], [(0, 1)])
        params = size_rate_params(1, g, 0.0)
        assert params.k == 1.0 and params.gamma > 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            FlowParams(0.0, 1.0)
        with pytest.raises(ValueError):
            FlowParams(1.0, -2.0)


class TestSuiteConsensus:
    def test_loose_horizon_covers_initial_error(self):
        # at this seed the loose-parameter run starts with a flow error of
        # about 11; a horizon sized for a flat 1e8 contraction ended at
        # 1.0996e-6 against the 1e-6 bound
        from plugplay.suites import suite_consensus

        results = suite_consensus(seed=400071)
        assert [r.name for r in results if not r.passed] == []
