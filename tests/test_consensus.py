import numpy as np
import pytest

from plugplay import bass
from plugplay.analysis import bass_equilibria, size_equilibrium
from plugplay.consensus import (
    INFORMER_ID,
    FlowParams,
    bass_flow_derivative,
    bass_rate_params,
    dual_flow_derivative,
    flow_drift,
    gain_flow_operator,
    pi_flow_operator,
    size_flow_derivative,
    size_flow_operator,
    size_rate_params,
)
from plugplay.graph import Graph, lambda2, laplacian, r_matrix
from plugplay.matlib import unvec
from plugplay.sim import rk4_step
from plugplay.suites import informer_topology, propagate_affine, random_connected_graph

from test_plant import load_transport_plant


def star4():
    # informer 0 in the middle of three agents
    return Graph.from_edges([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])


def pack(z, x):
    """The flows' state vector: the first stack, then the second, row-major."""
    return np.concatenate([np.ravel(z), np.ravel(x)])


def unpack(s, n_agents):
    """(Z, X) stacks of a gain-flow state, each (N, n, n)."""
    z, x = np.split(np.asarray(s), 2)
    n = int(round(np.sqrt(z.size // n_agents)))
    return z.reshape(n_agents, n, n), x.reshape(n_agents, n, n)


# Direct-form right-hand sides, written independently of the Kronecker
# operators in ``consensus``: the oracle every operator is checked against.


def oracle_gain_derivative(s, a, maps, beta, params, g):
    """Zdot_i = gamma sum_j L_ij X_j,
    Xdot_i = k [-(A + beta I) X_i - X_i (A + beta I)^T + 2 B_i B_i^T]
    - gamma sum_j L_ij (X_j + Z_j)."""
    z, x = unpack(s, g.n)
    lap = laplacian(g)
    m = a + beta * np.eye(a.shape[0])
    w2 = np.stack([2.0 * maps[i] @ maps[i].T for i in g.nodes])
    lx = np.tensordot(lap, x, axes=(1, 0))
    lz = np.tensordot(lap, z, axes=(1, 0))
    dz = params.gamma * lx
    dx = params.k * (-(m @ x) - x @ m.T + w2) - params.gamma * (lx + lz)
    return pack(dz, dx)


def oracle_dual_derivative(s, a, cmaps, beta, params, g):
    """Wdot_i = gamma sum_j L_ij Y_j,
    Ydot_i = k [-(A + beta I)^T Y_i - Y_i (A + beta I) + 2 C_i^T C_i]
    - gamma sum_j L_ij (Y_j + W_j)."""
    w, y = unpack(s, g.n)
    lap = laplacian(g)
    m = a + beta * np.eye(a.shape[0])
    w2 = np.stack([2.0 * cmaps[i].T @ cmaps[i] for i in g.nodes])
    ly = np.tensordot(lap, y, axes=(1, 0))
    lw = np.tensordot(lap, w, axes=(1, 0))
    dw = params.gamma * ly
    dy = params.k * (-(m.T @ y) - y @ m + w2) - params.gamma * (ly + lw)
    return pack(dw, dy)


def oracle_size_derivative(s, params, g_bar):
    """psidot_i = gamma sum_j L_ij zeta_j; zetadot_i = k (or -k zeta_0 at
    the informer) - gamma sum_j L_ij (zeta_j + psi_j)."""
    psi, zeta = np.split(np.asarray(s), 2)
    lap = laplacian(g_bar)
    idx0 = g_bar.nodes.index(INFORMER_ID)
    lz = lap @ zeta
    lp = lap @ psi
    drive = np.full(zeta.size, params.k)
    drive[idx0] = -params.k * zeta[idx0]
    return pack(params.gamma * lz, drive - params.gamma * lz - params.gamma * lp)


def probed(fn, dim):
    """(M, c) of the affine map ``s -> fn(s)`` on R^dim, probed at 0 and at
    every unit vector."""
    c = fn(np.zeros(dim))
    m = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        m[:, j] = fn(e) - c
    return m, c


def size_operator(params, g_bar):
    return size_flow_operator(params.k, params.gamma, laplacian(g_bar), g_bar.nodes.index(INFORMER_ID))


class TestBassFlow:
    def test_single_agent_reduces_to_local_equation(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        g = Graph.from_edges([1], [])
        params = FlowParams(2.0, 1.0)
        x_star = bass.bass_solve(a, b, 1.0).X_star
        d = bass_flow_derivative(pack(np.zeros(4), x_star), a, {1: b}, 1.0, params, g)
        assert np.abs(d).max() < 1e-12  # Zdot and Xdot

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
        d = bass_flow_derivative(pack(z, x), a, maps, beta, params, g)
        assert np.abs(d).max() < 1e-12

    def test_symmetric_two_agents_stay_identical(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        g = Graph.from_edges([1, 2], [(1, 2)])
        params = FlowParams(1.0, 1.0)
        flat = np.zeros(16)
        f = lambda t, y: bass_flow_derivative(y, a, {1: b, 2: b}, 1.0, params, g)
        for k in range(200):
            flat = rk4_step(f, flat, k * 1e-2, 1e-2)
        z, x = unpack(flat, 2)
        assert np.allclose(x[0], x[1], atol=1e-14)
        assert np.abs(z).max() < 1e-14  # coupling never activates

    def test_graph_mismatch_rejected(self):
        g = Graph.from_edges([1, 3], [(1, 3)])
        maps = {1: np.eye(2), 2: np.eye(2)}
        with pytest.raises(ValueError):
            bass_flow_derivative(np.zeros(16), np.eye(2), maps, 1.0, FlowParams(1, 1), g)
        with pytest.raises(ValueError):
            gain_flow_operator(np.eye(2), maps, 1.0, FlowParams(1, 1), g)

    def test_conservation_of_integral_state(self):
        # sum_i Zdot_i = 0 along the flow; RK4 drift stays tiny
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2))
        ids = (1, 2, 3, 4)
        g = Graph.from_edges(ids, [(1, 2), (2, 3), (3, 4), (4, 1)])
        maps = {i: rng.normal(size=(2, 1)) for i in ids}
        params = FlowParams(1.0, 2.0)
        beta = 3.0
        z0, x0 = rng.normal(size=(4, 2, 2)), rng.normal(size=(4, 2, 2))
        total0 = z0.sum(axis=0)
        flat = pack(z0, x0)
        m, c = gain_flow_operator(a, maps, beta, params, g)
        f = lambda t, y: m @ y + c
        h = 1e-3
        for k in range(1000):
            flat = rk4_step(f, flat, k * h, h)
        drift = np.abs(unpack(flat, 4)[0].sum(axis=0) - total0).max()
        assert drift < 1e-9  # over one unit of time


class TestInitializationFree:
    def test_twenty_random_starts_share_one_limit(self):
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
            s0 = pack(5 * rng.normal(size=(3, 2, 2)), 5 * rng.normal(size=(3, 2, 2)))
            m, c = gain_flow_operator(a, maps, 1.0, params, g)
            _, x = unpack(propagate_affine(m, c, s0, t_grid)[-1], 3)
            for i in range(3):
                assert np.linalg.norm(x[i] - target, 2) < 1e-6


class TestDualFlow:
    def test_structural_duality(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3))
        ids = (1, 2)
        g = Graph.from_edges(ids, [(1, 2)])
        cmaps = {i: rng.normal(size=(2, 3)) for i in ids}
        params = FlowParams(0.8, 1.2)
        s = pack(rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 3, 3)))
        d_dual = dual_flow_derivative(s, a, cmaps, 1.5, params, g)
        d_primal = bass_flow_derivative(s, a.T, {i: c.T for i, c in cmaps.items()}, 1.5, params, g)
        assert np.array_equal(d_dual, d_primal)

    def test_single_agent_equilibrium_is_dual_solution(self):
        a = np.array([[1.0]])
        c = np.array([[1.0]])
        y_star = bass.dual_bass_solve(a, c, 2.0).Y_star
        d = dual_flow_derivative(pack(0.0, y_star), a, {1: c}, 2.0, FlowParams(1, 1), Graph.from_edges([1], []))
        assert np.abs(unpack(d, 1)[1]).max() < 1e-12

    def test_identical_channels_converge_to_common_constant(self):
        # all output maps equal: every Y_i settles at Y*/N
        p = load_transport_plant((0, 3, 6))
        ids = (1, 2, 3)
        g = Graph.from_edges(ids, [(1, 2), (2, 3), (1, 3)])
        cmaps = {i: p.channel(i).C for i in ids}
        cagg = np.vstack([cmaps[i] for i in ids])
        y_star = bass.dual_bass_solve(p.A, cagg, 0.25).Y_star
        s = pack(np.zeros((3, 4, 4)), np.stack([y_star / 3] * 3))
        d = dual_flow_derivative(s, p.A, cmaps, 0.25, FlowParams(1, 1), g)
        assert np.abs(d).max() < 1e-10  # Wdot and Ydot


class TestSizeFlow:
    def test_zero_state_star(self):
        d = size_flow_derivative(np.zeros(8), FlowParams(1.5, 1.0), star4())
        dpsi, dzeta = np.split(d, 2)
        assert dzeta[0] == 0.0
        for i in (1, 2, 3):
            assert dzeta[i] == 1.5
        assert np.abs(dpsi).max() == 0.0

    def test_single_agent_blended_equilibrium(self):
        # two-node case: equilibrium zeta = 1 everywhere
        g = Graph.from_edges([0, 1], [(0, 1)])
        params = FlowParams(1.0, 2.0)
        _, psi_t = size_equilibrium(1, params, g)
        rmat, _ = r_matrix(g)
        d = size_flow_derivative(pack(rmat @ psi_t, np.ones(2)), params, g)
        assert np.abs(d).max() < 1e-12
        # hand-computed offset: psi = -+ k/(2 gamma)
        assert np.allclose(rmat @ psi_t, [-0.25, 0.25])

    def test_size_equilibrium_general_topology(self):
        for n_agents, topo_edges in ((3, [(0, 1), (0, 2), (0, 3), (1, 2)]),):
            g = Graph.from_edges(range(n_agents + 1), topo_edges)
            params = FlowParams(2.0, 3.0)
            zeta_star, psi_t = size_equilibrium(n_agents, params, g)
            assert zeta_star == n_agents
            rmat, _ = r_matrix(g)
            d = size_flow_derivative(pack(rmat @ psi_t, np.full(g.n, float(n_agents))), params, g)
            assert np.abs(d).max() < 1e-12

    def test_conservation_of_psi(self):
        g = star4()
        params = FlowParams(1.0, 1.0)
        rng = np.random.default_rng(3)
        psi0 = rng.normal(size=4)
        flat = pack(psi0, rng.normal(size=4))
        m, c = size_operator(params, g)
        f = lambda t, y: m @ y + c
        for k in range(1000):
            flat = rk4_step(f, flat, k * 1e-3, 1e-3)
        assert abs(flat[:4].sum() - psi0.sum()) < 1e-9

    def test_missing_informer_rejected(self):
        g = Graph.from_edges([1, 2], [(1, 2)])
        with pytest.raises(ValueError):
            size_flow_derivative(np.zeros(4), FlowParams(1, 1), g)

    def test_convergence_to_network_size(self):
        # size estimates reach the agent count through the package RK4
        g = star4()
        params = FlowParams(1.0, 1.0)
        flat = np.zeros(2 * g.n)
        m, c = size_operator(params, g)
        f = lambda t, y: m @ y + c
        h = 1e-3
        for k in range(120_000):
            flat = rk4_step(f, flat, k * h, h)
        zeta = flat[g.n :]
        assert np.abs(zeta - 3.0).max() < 1e-3


class TestSingleOperator:
    """The closed-form operators against the direct-form oracles above."""

    def test_operators_equal_probed_oracle_jacobians(self):
        rng = np.random.default_rng(11)
        for idx in range(24):
            n = int(rng.integers(1, 5))
            n_agents = 1 + idx % 6  # N = 1 included
            ids = tuple(range(1, n_agents + 1))
            g = random_connected_graph(rng, ids)
            a = rng.normal(size=(n, n))
            beta = float(rng.uniform(0.1, 2.0))
            params = FlowParams(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
            # mixed channel widths
            bmaps = {i: rng.normal(size=(n, int(rng.integers(1, 4)))) for i in ids}
            cmaps = {i: rng.normal(size=(int(rng.integers(1, 4)), n)) for i in ids}
            s = pack(rng.normal(size=(n_agents, n, n)), rng.normal(size=(n_agents, n, n)))
            cases = (
                (gain_flow_operator(a, bmaps, beta, params, g),
                 probed(lambda v: oracle_gain_derivative(v, a, bmaps, beta, params, g), s.size),
                 bass_flow_derivative(s, a, bmaps, beta, params, g),
                 oracle_gain_derivative(s, a, bmaps, beta, params, g)),
                (gain_flow_operator(a.T, {i: c.T for i, c in cmaps.items()}, beta, params, g),
                 probed(lambda v: oracle_dual_derivative(v, a, cmaps, beta, params, g), s.size),
                 dual_flow_derivative(s, a, cmaps, beta, params, g),
                 oracle_dual_derivative(s, a, cmaps, beta, params, g)),
            )
            for (m, c), (m_ref, c_ref), d, d_ref in cases:
                scale = np.abs(m_ref).max()
                assert np.abs(m - m_ref).max() <= 1e-14 * scale
                assert np.abs(c - c_ref).max() <= 1e-14 * np.abs(c_ref).max()
                assert np.abs(d - d_ref).max() <= 1e-13 * np.abs(d_ref).max()
        for n_agents in range(1, 9):
            for topo in ("star", "ring", "path"):
                g_bar = informer_topology(topo, n_agents)
                params = size_rate_params(n_agents, g_bar, 0.2)
                s = pack(rng.normal(size=g_bar.n), rng.normal(size=g_bar.n))
                m, c = size_operator(params, g_bar)
                m_ref, c_ref = probed(lambda v: oracle_size_derivative(v, params, g_bar), s.size)
                assert np.abs(m - m_ref).max() <= 1e-14 * np.abs(m_ref).max()
                assert np.array_equal(c, c_ref)
                d = size_flow_derivative(s, params, g_bar)
                d_ref = oracle_size_derivative(s, params, g_bar)
                assert np.abs(d - d_ref).max() <= 1e-13 * np.abs(d_ref).max()

    def test_mode_block_is_eigenbasis_transform_of_full_operator(self):
        rng = np.random.default_rng(12)
        n, n_agents = 3, 5
        nn = n * n
        ids = tuple(range(1, n_agents + 1))
        g = random_connected_graph(rng, ids)
        a = rng.normal(size=(n, n))
        maps = {i: rng.normal(size=(n, 2)) for i in ids}
        params = FlowParams(1.7, 2.3)
        drift = flow_drift(a, 0.8)
        q = np.stack([2.0 * maps[i] @ maps[i].T for i in ids]).reshape(n_agents, nn)
        m, c = pi_flow_operator(drift, params.k, params.gamma, laplacian(g), q)
        lam, v = np.linalg.eigh(laplacian(g))
        # modal coordinates of (Z, X): V^T acting on the agent index of each half
        t = np.kron(np.eye(2), np.kron(v.T, np.eye(nn)))
        m_modal = t @ m @ t.T
        c_modal = t @ c
        q_modal = v.T @ q
        scale = np.abs(m).max()
        for j in range(n_agents):
            rows = np.r_[j * nn : (j + 1) * nn, (n_agents + j) * nn : (n_agents + j + 1) * nn]
            block, offset = pi_flow_operator(drift, params.k, params.gamma, [[lam[j]]], q_modal[j])
            assert np.abs(m_modal[np.ix_(rows, rows)] - block).max() <= 1e-13 * scale
            assert np.abs(c_modal[rows] - offset).max() <= 1e-13 * np.abs(c).max()
            others = np.setdiff1d(np.arange(2 * n_agents * nn), rows)
            assert np.abs(m_modal[np.ix_(rows, others)]).max() <= 1e-13 * scale


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
