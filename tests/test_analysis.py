import numpy as np
import pytest

from plugplay import analysis, bass
from plugplay.consensus import FlowParams
from plugplay.graph import Graph, is_connected, laplacian, r_matrix
from plugplay.matlib import induced_2norm, spectral_abscissa, unvec
from plugplay.plant import Channel, PlantModel, aggregate, normalize_channel
from plugplay.suites import (
    propagate_affine,
    random_connected_graph,
    random_normalized_plant,
)

from test_plant import load_transport_plant


def bass_gains(p, beta=0.25):
    chans = sorted(p.channels, key=lambda c: c.id)
    b, c = aggregate(p)
    sol = bass.bass_solve(p.A, b, beta, widths=[ch.m for ch in chans])
    dual = bass.dual_bass_solve(p.A, c, beta, heights=[ch.p for ch in chans])
    return sol, dual


def oracle_observer_loop(a, chans, f_blocks, l_blocks, zeta, gamma, g):
    """The frozen-gain loop over (x, xhat_1..xhat_N), written out block by
    block: ``xdot = A x + sum_i B_i F_i xhat_i`` and
    ``xhatdot_i = (A + zeta_i (B_i F_i + L_i C_i)) xhat_i
    - zeta_i L_i C_i x - gamma_i sum_j lap_ij xhat_j``."""
    lap = laplacian(g)
    n = a.shape[0]
    n_agents = len(chans)
    bf = [c.B @ f for c, f in zip(chans, f_blocks)]
    lc = [l @ c.C for c, l in zip(chans, l_blocks)]
    dim = n + n_agents * n
    m = np.zeros((dim, dim))
    m[:n, :n] = a
    for i in range(n_agents):
        r = slice(n + i * n, n + (i + 1) * n)
        m[:n, r] = bf[i]
        m[r, :n] = -zeta[i] * lc[i]
        m[r, r] += a + zeta[i] * bf[i] + zeta[i] * lc[i]
        for j in range(n_agents):
            c = slice(n + j * n, n + (j + 1) * n)
            if lap[i, j] != 0.0:
                m[r, c] += -gamma[i] * lap[i, j] * np.eye(n)
    return m


class TestObserverLoop:
    """analysis.observer_loop_matrix, the simulator's assembly, against
    the block-by-block oracle above."""

    @staticmethod
    def instance(rng, n_agents, n=3):
        ids = tuple(range(1, n_agents + 1))
        g = random_connected_graph(rng, ids) if n_agents > 1 else Graph.from_edges(ids, [])
        a = rng.normal(size=(n, n))
        chans, fs, ls = [], [], []
        for i in ids:
            m_i, p_i = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            chans.append(Channel(i, rng.normal(size=(n, m_i)), rng.normal(size=(p_i, n))))
            fs.append(rng.normal(size=(m_i, n)))
            ls.append(rng.normal(size=(n, p_i)))
        return a, chans, fs, ls, g

    @staticmethod
    def assemble(a, chans, fs, ls, zeta, gamma, g):
        k0 = np.stack([c.B @ f for c, f in zip(chans, fs)])
        jm = zeta[:, None, None] * np.stack([l @ c.C for c, l in zip(chans, ls)])
        return analysis.observer_loop_matrix(a, k0, jm, zeta, gamma, laplacian(g))

    @pytest.mark.parametrize("n_agents", range(1, 7))
    def test_equals_the_oracle_at_per_agent_zeta_and_gamma(self, n_agents):
        rng = np.random.default_rng(100 + n_agents)
        a, chans, fs, ls, g = self.instance(rng, n_agents)
        zeta = rng.uniform(0.2, 9.0, size=n_agents)  # none of them N
        gamma = rng.uniform(0.5, 50.0, size=n_agents)
        got = self.assemble(a, chans, fs, ls, zeta, gamma, g)
        want = oracle_observer_loop(a, chans, fs, ls, zeta, gamma, g)
        assert got.shape == want.shape == ((n_agents + 1) * 3,) * 2
        assert np.array_equal(got, want)

    def test_stack_equals_each_matrix(self):
        # the simulator builds a slice of steps in one call
        rng = np.random.default_rng(7)
        a, chans, fs, ls, g = self.instance(rng, 4)
        zetas = rng.uniform(0.2, 9.0, size=(5, 4))
        gammas = rng.uniform(0.5, 50.0, size=(5, 4))
        fss = [[f * rng.uniform(0.5, 2.0) for f in fs] for _ in range(5)]
        k0 = np.stack([np.stack([c.B @ f for c, f in zip(chans, fk)]) for fk in fss])
        lc = np.stack([l @ c.C for c, l in zip(chans, ls)])
        got = analysis.observer_loop_matrix(a, k0, zetas[..., None, None] * lc, zetas, gammas, laplacian(g))
        for k in range(5):
            assert np.array_equal(got[k], oracle_observer_loop(a, chans, fss[k], ls, zetas[k], gammas[k], g))

    def test_flat_form_is_the_loop_at_converged_gains(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_normalized_plant(rng, agents_min=1, agents_max=6)
            chans = sorted(p.channels, key=lambda c: c.id)
            ids = tuple(c.id for c in chans)
            g = random_connected_graph(rng, ids) if len(ids) > 1 else Graph.from_edges(ids, [])
            fs = [rng.normal(size=(c.m, p.n)) for c in chans]
            ls = [rng.normal(size=(p.n, c.p)) for c in chans]
            gamma = float(rng.uniform(0.5, 10.0))
            n_agents = len(chans)
            flat = analysis.flat_closed_loop_matrix(p, fs, ls, gamma, g)
            want = oracle_observer_loop(
                p.A, chans, fs, ls, np.full(n_agents, float(n_agents)), np.full(n_agents, gamma), g
            )
            assert np.array_equal(flat, want)


def oracle_closed_loop(p, f_blocks, l_blocks, gamma, g):
    """One instance at a time, with explicit Kronecker products: the
    error-coordinate loop and its pieces, keyed by the field names of
    ``analysis.ClosedLoopDecomposition``."""
    chans = sorted(p.channels, key=lambda c: c.id)
    n, n_agents = p.n, len(chans)
    bf = [c.B @ f for c, f in zip(chans, f_blocks)]
    lc = [l @ c.C for c, l in zip(chans, l_blocks)]
    a, bfsum, lcsum, eye = p.A, sum(bf), sum(lc), np.eye(n)
    row_bf = np.hstack(bf)
    gmat = np.zeros((n_agents * n, n_agents * n))
    diag_alc = np.zeros((n_agents * n, n_agents * n))
    for i in range(n_agents):
        sl = slice(i * n, (i + 1) * n)
        gmat[sl, sl] = a + n_agents * lc[i] + n_agents * bf[i]
        diag_alc[sl, sl] = a + n_agents * lc[i]
    gmat -= np.tile(row_bf, (n_agents, 1))
    hmat = np.vstack([n_agents * bf[i] - bfsum for i in range(n_agents)])
    if n_agents == 1:
        rmat, lam_plus = np.zeros((1, 0)), np.zeros((0, 0))
    else:
        assert is_connected(g)
        rmat, lam_plus = r_matrix(g)
    r_kron = np.kron(rmat, eye)
    avg = np.tile(eye / n_agents, (1, n_agents))
    ones_kron = np.tile(eye, (n_agents, 1))
    out = {
        "square1": row_bf @ r_kron,
        "square2": avg @ diag_alc @ r_kron,
        "square3": r_kron.T @ hmat,
        "square4": r_kron.T @ gmat @ ones_kron,
        "square5": r_kron.T @ gmat @ r_kron,
        "G": gmat,
        "H": hmat,
        "R": rmat,
        "lambda_plus": lam_plus,
    }
    asm = np.block([
        [a + bfsum, bfsum, out["square1"]],
        [np.zeros((n, n)), a + lcsum, out["square2"]],
        [out["square3"], out["square4"], out["square5"] - gamma * np.kron(lam_plus, eye)],
    ])
    out["assembled"] = asm
    return out


def oracle_block_bounds(blocks, p, f_blocks, l_blocks):
    """The five (name, lhs, rhs) bounds of one instance, from its blocks."""
    for c in p.channels:
        if induced_2norm(c.B) > 1 + 1e-9 or induced_2norm(c.C) > 1 + 1e-9:
            raise ValueError(f"channel {c.id} is not normalized")
    n_agents = len(f_blocks)
    max_f = max(induced_2norm(f) for f in f_blocks)
    max_l = max(induced_2norm(l) for l in l_blocks)
    theta = induced_2norm(p.A) + n_agents * max_l + 2 * n_agents * max_f
    sqrt_n = np.sqrt(n_agents)
    return [
        ("square1_sq", induced_2norm(blocks["square1"]) ** 2, n_agents * max_f**2),
        ("square2", induced_2norm(blocks["square2"]), theta / sqrt_n),
        ("square3_sq", induced_2norm(blocks["square3"]) ** 2, 4 * n_agents**3 * max_f**2),
        ("square4", induced_2norm(blocks["square4"]), sqrt_n * theta),
        ("square5", induced_2norm(blocks["square5"]), theta),
    ]


FIELDS = ("assembled", "square1", "square2", "square3", "square4", "square5", "G", "H", "R", "lambda_plus")


def stack_instance(rng, n, n_agents):
    """A normalized plant, its graph and random gains; widths and heights
    of 1 or 2."""
    ids = tuple(range(1, n_agents + 1))
    g = random_connected_graph(rng, ids) if n_agents > 1 else Graph.from_edges(ids, [])
    chans, fs, ls = [], [], []
    for i in ids:
        m_i, p_i = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        chans.append(normalize_channel(Channel(i, rng.normal(size=(n, m_i)), rng.normal(size=(p_i, n)))))
        fs.append(rng.normal(size=(m_i, n)))
        ls.append(rng.normal(size=(n, p_i)))
    return PlantModel(rng.normal(size=(n, n)), tuple(chans)), fs, ls, g


class TestStackedClosedLoop:
    """The stacked assembly and bound check against the one-instance
    oracles above."""

    SHAPES = ((1, 1), (3, 1), (2, 2), (4, 2), (1, 3), (3, 4), (2, 6), (4, 5))

    def stacks(self, seed, per_shape):
        rng = np.random.default_rng(seed)
        for n, n_agents in self.SHAPES:
            insts = [stack_instance(rng, n, n_agents) for _ in range(per_shape)]
            gammas = rng.uniform(0.5, 50.0, size=per_shape)
            yield [list(x) for x in zip(*insts)], gammas

    def test_stack_equals_the_oracle(self):
        checked = 0
        for (ps, fs, ls, gs), gammas in self.stacks(11, 7):
            decomp = analysis.closed_loop_matrix(ps, fs, ls, gammas, gs)
            reports = analysis.verify_block_bounds(decomp, ps, fs, ls)
            assert len(reports) == len(ps)
            assert np.array_equal(decomp.gamma, gammas)
            for k, (p, f, l, g) in enumerate(zip(ps, fs, ls, gs)):
                want = oracle_closed_loop(p, f, l, gammas[k], g)
                for name in FIELDS:
                    got = getattr(decomp, name)[k]
                    assert got.shape == want[name].shape, name
                    scale = np.abs(want[name]).max(initial=0.0)
                    assert np.abs(got - want[name]).max(initial=0.0) <= 1e-15 * scale, name
                bounds = oracle_block_bounds(want, p, f, l)
                assert reports[k].all_pass == all(lhs <= rhs * (1 + 1e-12) + 1e-12 for _, lhs, rhs in bounds)
                for b, (name, lhs, rhs) in zip(reports[k].bounds, bounds):
                    assert b.name == name
                    assert abs(b.lhs - lhs) <= 1e-15 * abs(lhs) and abs(b.rhs - rhs) <= 1e-15 * abs(rhs)
                checked += 1
        assert checked == 56

    def test_batch_of_one_is_the_instance_bit_for_bit(self):
        for (ps, fs, ls, gs), gammas in self.stacks(12, 1):
            args = (ps[0], fs[0], ls[0])
            one = analysis.closed_loop_matrix([ps[0]], [fs[0]], [ls[0]], gammas, [gs[0]])
            lone = analysis.closed_loop_matrix(*args, gammas[0], gs[0])
            assert lone.gamma == gammas[0] and isinstance(lone.gamma, float)
            for name in FIELDS:
                assert np.array_equal(getattr(one, name)[0], getattr(lone, name)), name
            assert analysis.verify_block_bounds(one, [ps[0]], [fs[0]], [ls[0]]) == [
                analysis.verify_block_bounds(lone, *args)
            ]

    def test_unnormalized_channel_in_a_stack_rejected(self):
        rng = np.random.default_rng(13)
        ps, fs, ls, gs = (list(x) for x in zip(*[stack_instance(rng, 3, 4) for _ in range(3)]))
        c = ps[1].channels[2]
        ps[1] = PlantModel(ps[1].A, ps[1].channels[:2] + (Channel(c.id, 3.0 * c.B, c.C),) + ps[1].channels[3:])
        decomp = analysis.closed_loop_matrix(ps, fs, ls, 1.0, gs)
        with pytest.raises(ValueError, match="^channel 3 is not normalized$"):
            analysis.verify_block_bounds(decomp, ps, fs, ls)

    def test_mixed_shapes_rejected(self):
        rng = np.random.default_rng(14)
        insts = [stack_instance(rng, 3, 2), stack_instance(rng, 3, 3)]
        ps, fs, ls, gs = (list(x) for x in zip(*insts))
        with pytest.raises(ValueError, match="one state size and one agent count"):
            analysis.closed_loop_matrix(ps, fs, ls, 1.0, gs)


class TestClosedLoopMatrix:
    def test_single_agent_separation(self):
        p = PlantModel(np.array([[1.0]]), (Channel(1, [[1.0]], [[1.0]]),))
        sol, dual = bass_gains(p, beta=2.0)
        g = Graph.from_edges([1], [])
        d = analysis.closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, 5.0, g)
        assert d.assembled.shape == (2, 2)
        expected = np.array(
            [[(p.A + p.channels[0].B @ sol.F).item(), (p.channels[0].B @ sol.F).item()],
             [0.0, (p.A + dual.L @ p.channels[0].C).item()]]
        )
        assert np.allclose(d.assembled, expected, atol=1e-12)

    def test_zero_block_structure(self):
        p = load_transport_plant((0, 3, 6))
        sol, dual = bass_gains(p)
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        d = analysis.closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, 2.0, g)
        n = p.n
        assert np.allclose(d.assembled[n : 2 * n, :n], 0.0, atol=1e-12)
        # top-left block is the aggregated state feedback loop
        bmat, cmat = aggregate(p)
        assert np.allclose(d.assembled[:n, :n], p.A + bmat @ sol.F, atol=1e-12)
        assert np.allclose(d.assembled[n : 2 * n, n : 2 * n], p.A + dual.L @ cmat, atol=1e-12)

    def test_spectrum_matches_flat_form(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            p = random_normalized_plant(rng)
            ids = tuple(c.id for c in sorted(p.channels, key=lambda c: c.id))
            g = random_connected_graph(rng, ids)
            sol, dual = bass_gains(p, beta=0.5)
            gamma = float(rng.uniform(0.5, 10.0))
            asm = analysis.closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, gamma, g).assembled
            flat = analysis.flat_closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, gamma, g)
            ev1 = np.sort_complex(np.linalg.eigvals(asm))
            ev2 = np.sort_complex(np.linalg.eigvals(flat))
            assert np.allclose(ev1, ev2, atol=1e-7)

    def test_load_transport_hurwitz_above_threshold(self):
        p = load_transport_plant((0, 3, 6))
        sol, dual = bass_gains(p, beta=0.25)
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        cert = bass.bass_certificate(p, sol, dual, g)
        d = analysis.closed_loop_matrix(
            p, sol.F_blocks, dual.L_blocks, 1.01 * cert.gamma_min, g
        )
        assert spectral_abscissa(d.assembled) < 0

    def test_true_threshold_below_certified_bound(self):
        # bisect the actual stability boundary: conservatism is fine,
        # a bound below the true threshold is not
        p = load_transport_plant((0, 3, 6))
        sol, dual = bass_gains(p, beta=0.25)
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        cert = bass.bass_certificate(p, sol, dual, g)

        def hurwitz(gam):
            d = analysis.closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, gam, g)
            return spectral_abscissa(d.assembled) < 0

        assert hurwitz(cert.gamma_min)
        lo, hi = 0.0, cert.gamma_min
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if hurwitz(mid):
                hi = mid
            else:
                lo = mid
        assert hi <= cert.gamma_min
        # the certified bound is conservative by orders of magnitude here
        assert hi < 1e-3 * cert.gamma_min


class TestBlockBounds:
    def test_zero_gains_trivial(self):
        p = load_transport_plant((0, 3))
        g = Graph.from_edges([1, 2], [(1, 2)])
        f0 = [np.zeros((1, 4)), np.zeros((1, 4))]
        l0 = [np.zeros((4, 2)), np.zeros((4, 2))]
        d = analysis.closed_loop_matrix(p, f0, l0, 1.0, g)
        rep = analysis.verify_block_bounds(d, p, f0, l0)
        assert rep.all_pass
        assert induced_2norm(d.square1) == 0.0
        assert induced_2norm(d.square3) == 0.0

    def test_randomized_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = random_normalized_plant(rng, n_max=4, agents_max=6)
            ids = tuple(c.id for c in sorted(p.channels, key=lambda c: c.id))
            g = random_connected_graph(rng, ids)
            f_blocks = [rng.normal(size=(c.m, p.n)) for c in sorted(p.channels, key=lambda c: c.id)]
            l_blocks = [rng.normal(size=(p.n, c.p)) for c in sorted(p.channels, key=lambda c: c.id)]
            d = analysis.closed_loop_matrix(p, f_blocks, l_blocks, 1.0, g)
            rep = analysis.verify_block_bounds(d, p, f_blocks, l_blocks)
            assert rep.all_pass, [(b.name, b.lhs, b.rhs) for b in rep.bounds]

    def test_load_transport_instance(self):
        p = load_transport_plant((0, 3, 6))
        sol, dual = bass_gains(p)
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        d = analysis.closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, 2.0, g)
        rep = analysis.verify_block_bounds(d, p, sol.F_blocks, dual.L_blocks)
        assert rep.all_pass

    def test_unnormalized_channels_rejected(self):
        p = PlantModel(np.zeros((2, 2)), (Channel(1, [[0.0], [3.0]], [[1.0, 0.0]]),))
        g = Graph.from_edges([1], [])
        f0 = [np.zeros((1, 2))]
        l0 = [np.zeros((2, 1))]
        d = analysis.closed_loop_matrix(p, f0, l0, 1.0, g)
        with pytest.raises(ValueError):
            analysis.verify_block_bounds(d, p, f0, l0)


class TestBassEquilibria:
    def test_identical_channels_no_disagreement(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        ids = (1, 2, 3)
        g = Graph.from_edges(ids, [(1, 2), (2, 3)])
        nu_t, _ = analysis.bass_equilibria(a, {i: b for i in ids}, 1.0, FlowParams(1, 1), g)
        assert np.abs(nu_t).max() < 1e-12

    def test_chi_bar_is_scaled_solution(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            n_agents = int(rng.integers(2, 5))
            a = rng.normal(size=(n, n))
            a = a + (0.1 - np.linalg.eigvals(a).real.min()) * np.eye(n)
            ids = tuple(range(1, n_agents + 1))
            g = random_connected_graph(rng, ids)
            maps = {i: rng.normal(size=(n, 1)) for i in ids}
            _, chi_b = analysis.bass_equilibria(a, maps, 1.0, FlowParams(1, 1), g)
            bagg = np.hstack([maps[i] for i in ids])
            x_star = bass.bass_solve(a, bagg, 1.0, check_controllability=False).X_star
            assert induced_2norm(unvec(chi_b, n) - x_star / n_agents) < 1e-10

    def test_flow_converges_to_equilibria_in_transformed_coordinates(self):
        from plugplay.consensus import gain_flow_operator
        from plugplay.graph import r_matrix

        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2))
        a = a + (0.2 - np.linalg.eigvals(a).real.min()) * np.eye(2)
        ids = (1, 2, 3)
        g = Graph.from_edges(ids, [(1, 2), (2, 3), (1, 3)])
        maps = {i: rng.normal(size=(2, 1)) for i in ids}
        params = FlowParams(1.0, 1.0)
        beta = 1.0
        nu_t_star, chi_b_star = analysis.bass_equilibria(a, maps, beta, params, g)

        s0 = rng.normal(size=24)  # (vec Z_1..Z_3, vec X_1..X_3)
        m, c = gain_flow_operator(a, maps, beta, params, g)
        t_grid = np.linspace(0.0, 60.0, 61)
        series = propagate_affine(m, c, s0, t_grid)
        z_final, x_final = series[-1].reshape(2, 3, 2, 2)
        rmat, _ = r_matrix(g)
        chi = np.stack([m.ravel(order="F") for m in x_final])  # (N, n^2)
        nu = np.stack([m.ravel(order="F") for m in z_final])
        chi_bar = chi.mean(axis=0)
        chi_tilde = (rmat.T @ chi).ravel()
        nu_tilde = (rmat.T @ nu).ravel()
        assert np.linalg.norm(chi_bar - chi_b_star) < 1e-6
        assert np.linalg.norm(chi_tilde) < 1e-6
        assert np.linalg.norm(nu_tilde - nu_t_star) < 1e-6


def oracle_lyapunov_weights(cert, f_blocks, n_agents):
    """(phi_bar, phi_tilde) from one eigensolve of each certificate
    matrix and one norm of each feedback block."""
    delta = max(np.linalg.eigvalsh(cert.M1)[-1], np.linalg.eigvalsh(cert.M2)[-1])
    eps = min(np.linalg.eigvalsh(cert.Q1)[0], np.linalg.eigvalsh(cert.Q2)[0])
    max_f = max(induced_2norm(f) for f in f_blocks)
    theta = cert.theta
    phi_tilde = (delta / (2 * n_agents)) * np.sqrt(1 + theta**2 * delta**2 / eps**2)
    phi_bar = 2 * delta**2 * n_agents**2 * max_f**2 / eps**2 + phi_tilde * n_agents / delta
    return float(phi_bar), float(phi_tilde)


class TestLyapunovWeights:
    def test_composite_function_decreases_above_threshold(self):
        p = load_transport_plant((0, 3))
        sol, dual = bass_gains(p, beta=0.25)
        g = Graph.from_edges([1, 2], [(1, 2)])
        cert = bass.bass_certificate(p, sol, dual, g)
        phi_bar, phi_tilde = cert.phi_bar, cert.phi_tilde
        assert (phi_bar, phi_tilde) == oracle_lyapunov_weights(cert, sol.F_blocks, 2)
        assert phi_bar > 0 and phi_tilde > 0
        gamma = 1.01 * cert.gamma_min
        d = analysis.closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, gamma, g)
        # V must decrease along trajectories of the assembled system
        rng = np.random.default_rng(4)
        n = p.n
        for _ in range(10):
            z = rng.normal(size=d.assembled.shape[0])
            zdot = d.assembled @ z
            x, ebar, etilde = z[:n], z[n : 2 * n], z[2 * n :]
            dx, debar, detilde = zdot[:n], zdot[n : 2 * n], zdot[2 * n :]
            vdot = (
                x @ cert.M1 @ dx
                + phi_bar * (ebar @ cert.M2 @ debar)
                + phi_tilde * (etilde @ detilde)
            )
            assert vdot < 0

    def test_weights_equal_the_per_matrix_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_normalized_plant(rng, agents_min=1)
            ids = tuple(ch.id for ch in sorted(p.channels, key=lambda ch: ch.id))
            sol, dual = bass_gains(p, beta=float(rng.uniform(0.25, 1.0)))
            for use_mohar in (False, True):
                cert = bass.bass_certificate(p, sol, dual, random_connected_graph(rng, ids), use_mohar)
                want = oracle_lyapunov_weights(cert, sol.F_blocks, len(ids))
                assert (cert.phi_bar, cert.phi_tilde) == want

    def test_lyapunov_value_and_error_coordinates(self):
        rng = np.random.default_rng(5)
        rmat = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, 1:]
        x = rng.normal(size=2)
        xhats = rng.normal(size=(3, 2))
        ebar, etilde = analysis.error_coordinates(x, xhats, rmat)
        assert ebar.shape == (2,)
        assert etilde.shape == (4,)
        v = analysis.lyapunov_value(np.eye(2), np.eye(2), 1.0, 1.0, x, ebar, etilde)
        assert v >= 0
