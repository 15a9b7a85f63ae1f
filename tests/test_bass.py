import numpy as np
import pytest
from dataclasses import replace

from plugplay import bass
from plugplay.graph import Graph, lambda2
from plugplay.matlib import SingularMatrixError, induced_2norm, inverse, spectral_abscissa
from plugplay.plant import Channel, PlantModel, aggregate

from test_plant import load_transport_plant


def double_integrator():
    return np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])


class TestBassSolve:
    def test_scalar_closed_form(self):
        # x* = b^2 / (a + beta)
        sol = bass.bass_solve([[1.0]], [[1.0]], beta=2.0)
        assert np.allclose(sol.X_star, [[1.0 / 3.0]])
        assert np.allclose(sol.F, [[-3.0]])
        assert np.isclose(spectral_abscissa([[1.0]] + sol.F), -2.0)

    def test_double_integrator_hand_solve(self):
        a, b = double_integrator()
        sol = bass.bass_solve(a, b, beta=1.0)
        assert np.allclose(sol.X_star, [[0.5, -0.5], [-0.5, 1.0]], atol=1e-10)
        assert np.allclose(sol.F, [[-2.0, -2.0]], atol=1e-10)
        w = np.linalg.eigvals(a + b @ sol.F)
        assert np.allclose(np.sort_complex(w), [-1 - 1j, -1 + 1j], atol=1e-10)

    def test_shift_must_clear_leftmost_eigenvalue(self):
        # for A with min Re eig = -1 the shift must exceed +1, so a
        # Hurwitz A does constrain beta from below
        a = -np.eye(2)
        with pytest.raises(ValueError):
            bass.bass_solve(a, np.eye(2), beta=0.5)
        sol = bass.bass_solve(a, np.eye(2), beta=1.5)
        assert spectral_abscissa(a + np.eye(2) @ sol.F) <= -1.5 + 1e-6

    def test_unstable_a_small_beta_ok(self):
        # min Re eig(A) = 1 > 0, so any positive beta is admissible
        sol = bass.bass_solve([[1.0]], [[1.0]], beta=0.3)
        assert spectral_abscissa(np.array([[1.0]]) + sol.F) <= -0.3 + 1e-6

    def test_uncontrollable_rejected(self):
        a = np.eye(2)
        b = np.array([[1.0], [0.0]])
        with pytest.raises(ValueError):
            bass.bass_solve(a, b, beta=2.0)

    def test_uncontrollable_posthoc_detection(self):
        a = np.eye(2)
        b = np.array([[1.0], [0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            bass.bass_solve(a, b, beta=2.0, check_controllability=False)

    def test_per_channel_blocks_reassemble(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            a = rng.normal(size=(n, n)) + 0.5 * np.eye(n)
            a = a - min(0.0, np.linalg.eigvals(a).real.min()) * np.eye(n)
            b = rng.normal(size=(n, m))
            widths = [1] * m
            sol = bass.bass_solve(a, b, 1.0, widths=widths)
            assert len(sol.F_blocks) == m
            assert np.array_equal(np.vstack(sol.F_blocks), sol.F)
            x_inv = sol.X_star_inv
            for j, blk in enumerate(sol.F_blocks):
                assert np.allclose(blk, -b[:, j : j + 1].T @ x_inv, atol=1e-9)

    def test_stored_inverse_is_the_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, 2))
            sol = bass.bass_solve(a, b, 1.0 + max(0.0, -np.linalg.eigvals(a).real.min()))
            assert np.array_equal(sol.X_star_inv, inverse(sol.X_star))
            assert np.array_equal(sol.F, -b.T @ sol.X_star_inv)

    def test_input_scaling_property(self):
        # B -> cB scales X* by c^2 and F by 1/c
        a, b = double_integrator()
        c = 2.5
        s1 = bass.bass_solve(a, b, 1.0)
        s2 = bass.bass_solve(a, c * b, 1.0)
        assert np.allclose(s2.X_star, c**2 * s1.X_star, atol=1e-9)
        assert np.allclose(s2.F, s1.F / c, atol=1e-9)


class TestDual:
    def test_scalar(self):
        sol = bass.dual_bass_solve([[1.0]], [[1.0]], beta=2.0)
        assert np.allclose(sol.Y_star, [[1.0 / 3.0]])
        assert np.allclose(sol.L, [[-3.0]])

    def test_duality_with_primal(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            a = rng.normal(size=(n, n))
            a = a - min(0.0, np.linalg.eigvals(a).real.min() - 0.1) * np.eye(n)
            c = rng.normal(size=(2, n))
            dual = bass.dual_bass_solve(a, c, 1.0)
            primal = bass.bass_solve(a.T, c.T, 1.0)
            assert np.allclose(dual.Y_star, primal.X_star, atol=1e-10)

    def test_equals_transposed_primal_exactly(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 4))
        a = a - min(0.0, np.linalg.eigvals(a).real.min() - 0.1) * np.eye(4)
        c = rng.normal(size=(3, 4))
        dual = bass.dual_bass_solve(a, c, 1.0, heights=[1, 2])
        primal = bass.bass_solve(a.T, c.T, 1.0, widths=[1, 2])
        assert np.array_equal(dual.Y_star, primal.X_star)
        assert np.array_equal(dual.L, primal.F.T)
        assert len(dual.L_blocks) == 2
        for l_blk, f_blk in zip(dual.L_blocks, primal.F_blocks):
            assert np.array_equal(l_blk, f_blk.T)

    def test_load_transport_observer(self):
        p = load_transport_plant((0, 3, 6))
        _, c = aggregate(p)
        sol = bass.dual_bass_solve(p.A, c, beta=0.25, heights=[2, 2, 2])
        assert spectral_abscissa(p.A + sol.L @ c) <= -0.25 + 1e-6
        y_inv = inverse(sol.Y_star)
        for i, blk in enumerate(sol.L_blocks):
            ci = p.channels[i].C
            assert np.allclose(blk, -y_inv @ ci.T, atol=1e-8)


def _simulate_closed_loop(acl, x0, h=1e-3, horizon=10.0, keep_every=10):
    x = np.asarray(x0, dtype=float)
    xs, ts = [x.copy()], [0.0]
    steps = int(round(horizon / h))
    for k in range(steps):
        k1 = acl @ x
        k2 = acl @ (x + h / 2 * k1)
        k3 = acl @ (x + h / 2 * k2)
        k4 = acl @ (x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (k + 1) % keep_every == 0:
            xs.append(x.copy())
            ts.append((k + 1) * h)
    return np.array(ts), np.array(xs)


class TestDecayCertificate:
    def test_zero_start_trivially_inside(self):
        a, b = double_integrator()
        sol = bass.bass_solve(a, b, 1.0)
        assert bass.decay_certificate(sol, [0.0, 1.0], np.zeros((2, 2)))

    def test_double_integrator_envelope(self):
        a, b = double_integrator()
        sol = bass.bass_solve(a, b, 1.0)
        ts, xs = _simulate_closed_loop(a + b @ sol.F, [1.0, 0.0])
        assert bass.decay_certificate(sol, ts, xs)
        # envelope constant is sqrt(lmax/lmin) of X*^-1 = [[4,2],[2,2]]
        w = np.linalg.eigvalsh(np.array([[4.0, 2.0], [2.0, 2.0]]))
        c = np.sqrt(w[-1] / w[0])
        assert np.all(np.linalg.norm(xs, axis=1) <= c * np.exp(-ts) + 1e-6)

    def test_doubled_rate_violated(self):
        a, b = double_integrator()
        sol = bass.bass_solve(a, b, 1.0)
        ts, xs = _simulate_closed_loop(a + b @ sol.F, [1.0, 0.0])
        stricter = replace(sol, beta=2.0 * sol.beta)
        assert not bass.decay_certificate(stricter, ts, xs)


def scalar_plant():
    return PlantModel(np.array([[1.0]]), (Channel(1, [[1.0]], [[1.0]]),))


class TestThresholdCertificate:
    def test_scalar_single_agent(self):
        p = scalar_plant()
        sol = bass.bass_solve(p.A, p.channels[0].B, 2.0)
        dual = bass.dual_bass_solve(p.A, p.channels[0].C, 2.0)
        cert = bass.bass_certificate(p, sol, dual)
        # theta = |A| + N |L| + 2 N |F| with N = 1
        assert np.isclose(cert.theta, 1.0 + 3.0 + 2 * 3.0)
        assert np.isfinite(cert.gamma_min)
        # closed loop above threshold is Hurwitz (coupling vacuous at N=1)
        from plugplay.analysis import closed_loop_matrix

        g1 = Graph.from_edges([1], [])
        decomp = closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, 1.01 * cert.gamma_min, g1)
        assert spectral_abscissa(decomp.assembled) < 0

    def test_bass_instantiation_kappa(self):
        # kappa = max(smax(X*^-1), smax(Y*)) / (beta min(smin(X*^-1), smin(Y*)))
        p = load_transport_plant((0, 3))
        b, c = aggregate(p)
        beta = 0.25
        sol = bass.bass_solve(p.A, b, beta, widths=[1, 1])
        dual = bass.dual_bass_solve(p.A, c, beta, heights=[2, 2])
        g = Graph.from_edges([1, 2], [(1, 2)])
        cert = bass.bass_certificate(p, sol, dual, g)
        sx = np.linalg.svd(sol.X_star_inv, compute_uv=False)
        sy = np.linalg.svd(dual.Y_star, compute_uv=False)
        expected = max(sx[0], sy[0]) / (beta * min(sx[-1], sy[-1]))
        assert np.isclose(cert.kappa, expected, rtol=1e-9)

    def test_invalid_certificate_rejected(self):
        p = scalar_plant()
        sol = bass.bass_solve(p.A, p.channels[0].B, 2.0)
        dual = bass.dual_bass_solve(p.A, p.channels[0].C, 2.0)
        with pytest.raises(bass.CertificateError):
            bass.threshold_certificate(
                p, sol.F_blocks, dual.L_blocks,
                np.eye(1), np.eye(1), np.eye(1), np.eye(1),
            )

    @pytest.mark.parametrize("slot", range(4))
    def test_non_pd_certificate_refused(self, slot):
        p = scalar_plant()
        sol = bass.bass_solve(p.A, p.channels[0].B, 2.0)
        dual = bass.dual_bass_solve(p.A, p.channels[0].C, 2.0)
        mats = [np.eye(1)] * 4  # M1, Q1, M2, Q2
        mats[slot] = np.array([[-1.0]]) if slot % 2 else np.zeros((1, 1))
        with pytest.raises(SingularMatrixError):
            bass.threshold_certificate(p, sol.F_blocks, dual.L_blocks, *mats)

    @pytest.mark.parametrize("which", ["Q1", "Q2"])
    def test_perturbed_identity_refused(self, which):
        # the Bass instantiation with one Q scaled by 1 + 1e-6
        p = load_transport_plant((0, 3))
        b, c = aggregate(p)
        sol = bass.bass_solve(p.A, b, 0.25, widths=[1, 1])
        dual = bass.dual_bass_solve(p.A, c, 0.25, heights=[2, 2])
        m1 = 0.5 * (sol.X_star_inv + sol.X_star_inv.T)
        m2 = 0.5 * (dual.Y_star + dual.Y_star.T)
        q1, q2 = 0.25 * m1, 0.25 * m2
        g = Graph.from_edges([1, 2], [(1, 2)])
        bass.threshold_certificate(p, sol.F_blocks, dual.L_blocks, m1, q1, m2, q2, g=g)
        if which == "Q1":
            q1 = (1 + 1e-6) * q1
        else:
            q2 = (1 + 1e-6) * q2
        with pytest.raises(bass.CertificateError):
            bass.threshold_certificate(p, sol.F_blocks, dual.L_blocks, m1, q1, m2, q2, g=g)

    def test_values_equal_the_per_matrix_formula(self):
        # theta, kappa and gamma_min as one norm and one eigensolve per
        # matrix give them, on theorem1-style random instances
        from plugplay.suites import random_connected_graph, random_normalized_plant

        rng = np.random.default_rng(11)
        for _ in range(40):
            p = random_normalized_plant(rng, agents_min=1)
            chans = sorted(p.channels, key=lambda ch: ch.id)
            n_agents = len(chans)
            g = random_connected_graph(rng, tuple(ch.id for ch in chans))
            beta = float(rng.uniform(0.25, 1.0))
            b, c = aggregate(p)
            sol = bass.bass_solve(p.A, b, beta, widths=[ch.m for ch in chans])
            dual = bass.dual_bass_solve(p.A, c, beta, heights=[ch.p for ch in chans])
            cert = bass.bass_certificate(p, sol, dual, g)

            m1 = 0.5 * (sol.X_star_inv + sol.X_star_inv.T)
            m2 = 0.5 * (dual.Y_star + dual.Y_star.T)
            q1, q2 = beta * m1, beta * m2
            max_f = max(induced_2norm(f) for f in sol.F_blocks)
            max_l = max(induced_2norm(l) for l in dual.L_blocks)
            theta = induced_2norm(p.A) + n_agents * max_l + 2 * n_agents * max_f
            delta = max(np.linalg.eigvalsh(m1)[-1], np.linalg.eigvalsh(m2)[-1])
            eps = min(np.linalg.eigvalsh(q1)[0], np.linalg.eigvalsh(q2)[0])
            kappa = delta / eps
            lam2 = 4.0 if n_agents == 1 else lambda2(g)
            gamma_min = (
                theta + theta**2 * kappa
                + 4 * n_agents**2 * max_f**2 * kappa * np.sqrt(1 + theta**2 * kappa**2)
            ) / lam2
            assert (cert.theta, cert.kappa, cert.gamma_min, cert.lambda_2) == (
                float(theta), float(kappa), float(gamma_min), float(lam2))

    def test_array_threshold_equals_its_scalar_calls(self):
        # the agents evaluate the formula over stacks, the certificate on
        # scalars: both must give the same bits
        rng = np.random.default_rng(12)
        k = 2000
        theta = 10.0 ** rng.uniform(-3, 6, size=k)
        kappa = 10.0 ** rng.uniform(0, 12, size=k)
        max_f = 10.0 ** rng.uniform(-3, 3, size=k)
        zeta = rng.uniform(1.0, 40.0, size=k)
        lam2 = 4.0 / (zeta * zeta)
        got = bass.gamma_threshold(theta, kappa, max_f, zeta, lam2)
        assert got.shape == (k,)
        columns = (theta, kappa, max_f, zeta, lam2)
        want = [bass.gamma_threshold(*row) for row in zip(*(col.tolist() for col in columns))]
        assert np.array_equal(got, want)
        # an integer agent count, as the certificate passes it
        n_agents = rng.integers(1, 33, size=k)
        got = bass.gamma_threshold(theta, kappa, max_f, n_agents, lam2)
        rows = zip(theta.tolist(), kappa.tolist(), max_f.tolist(), n_agents.tolist(), lam2.tolist())
        assert np.array_equal(got, [bass.gamma_threshold(*row) for row in rows])

    def test_mohar_variant_is_no_less_conservative(self):
        p = load_transport_plant((0, 3, 6))
        b, c = aggregate(p)
        sol = bass.bass_solve(p.A, b, 0.25, widths=[1, 1, 1])
        dual = bass.dual_bass_solve(p.A, c, 0.25, heights=[2, 2, 2])
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        exact = bass.bass_certificate(p, sol, dual, g)
        worst = bass.bass_certificate(p, sol, dual, g, use_mohar=True)
        assert worst.gamma_min >= exact.gamma_min

    def test_abscissa_postcondition_batch(self):
        from plugplay.suites import random_gain_instance

        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, beta, _, _ = random_gain_instance(rng)
            sol = bass.bass_solve(a, b, beta)
            assert spectral_abscissa(a + b @ sol.F) <= -beta + 1e-6
            assert np.linalg.eigvalsh(sol.X_star)[0] > 0
            m_neg = -(a + beta * np.eye(a.shape[0]))
            resid = induced_2norm(m_neg @ sol.X_star + sol.X_star @ m_neg.T + 2 * b @ b.T)
            scale = induced_2norm(m_neg) * induced_2norm(sol.X_star) + induced_2norm(2 * b @ b.T)
            assert resid <= 1e-8 * scale


def lone_or_refusal(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return exc


def assert_same_solution(got, want):
    """A stack member against its lone call: the same bits, or the same refusal."""
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert not isinstance(got, Exception), got
    assert type(got) is type(want)
    for name in got.__dataclass_fields__:
        g, w = getattr(got, name), getattr(want, name)
        if isinstance(w, tuple):
            assert len(g) == len(w) and all(np.array_equal(x, y) for x, y in zip(g, w))
        else:
            assert np.array_equal(g, w), name


class TestStackedSynthesis:
    """Stacks of any shapes give, per member, what the lone call gives."""

    @staticmethod
    def members(seed=3, count=60):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, n + 1))
            a = rng.normal(size=(n, n))
            beta = float(rng.uniform(0.1, 2.0)) + max(0.0, -np.linalg.eigvals(a).real.min())
            out.append((a, rng.normal(size=(n, m)), rng.normal(size=(m, n)), beta))
        return out

    def test_random_stack_equals_lone_calls(self):
        mem = self.members()
        a, b, c, beta = (list(x) for x in zip(*mem))
        widths = [[1] * x.shape[1] for x in b]
        for got, args in zip(bass.bass_solve(a, b, beta, widths), mem):
            assert_same_solution(got, bass.bass_solve(args[0], args[1], args[3], widths=[1] * args[1].shape[1]))
        for got, args in zip(bass.dual_bass_solve(a, c, beta), mem):
            assert_same_solution(got, bass.dual_bass_solve(args[0], args[2], args[3]))
        pairs = bass.bass_solve_pairs(a, b, c, beta, [None] * len(a), [None] * len(a))
        for (sol, dual), (ai, bi, ci, bet) in zip(pairs, mem):
            assert_same_solution(sol, bass.bass_solve(ai, bi, bet))
            assert_same_solution(dual, bass.dual_bass_solve(ai, ci, bet))

    def test_stack_of_one_is_the_lone_call(self):
        a, b, c, beta = self.members(count=1)[0]
        (sol,) = bass.bass_solve([a], [b], beta)
        assert_same_solution(sol, bass.bass_solve(a, b, beta))
        (dual,) = bass.dual_bass_solve(a[None], c[None], [beta])
        assert_same_solution(dual, bass.dual_bass_solve(a, c, beta))

    @pytest.mark.parametrize("check", [True, False])
    def test_mixed_stack_refuses_each_member_alone(self, check, monkeypatch):
        # a shift below the spectrum, an uncontrollable pair (refused by the
        # rank test, or else as a non-PD X*), a solve capped by
        # SIGN_MAX_STEPS and bad widths, among members that are solved
        from plugplay import matlib

        monkeypatch.setattr(matlib, "SIGN_MAX_STEPS", 2)
        a_int, b_int = double_integrator()
        stiff = np.diag([0.0, 40.0])
        members = [
            (a_int, b_int, 1.0, None),
            (-np.eye(2), np.eye(2), 0.5, None),
            (np.eye(2), np.array([[1.0], [0.0]]), 2.0, None),
            (stiff, np.ones((2, 1)), 1.0, None),
            (a_int, b_int, 2.0, [2]),
            (np.array([[1.0]]), np.array([[1.0]]), 2.0, [1]),
            (a_int, b_int, 0.7, [1]),
        ]
        a, b, beta, widths = (list(x) for x in zip(*members))
        stacked = bass.bass_solve(a, b, beta, widths, check_controllability=check)
        lone = [lone_or_refusal(bass.bass_solve, *m[:3], widths=m[3], check_controllability=check) for m in members]
        for got, want in zip(stacked, lone, strict=True):
            assert_same_solution(got, want)
        why = [str(x) if isinstance(x, Exception) else "" for x in lone]
        assert "must exceed" in why[1]
        assert ("not controllable" if check else "not positive definite") in why[2]
        assert "did not converge in 2 steps" in why[3]
        assert "do not sum" in why[4]
        assert [w == "" for w in why] == [True, False, False, False, False, True, True]

    def test_dual_checks_observability_before_the_shift(self):
        # both refusals apply; each call keeps its own order
        a, c = np.eye(2), np.array([[1.0, 0.0]])
        for stacked, lone in [
            (bass.dual_bass_solve([a], [c], 0.5)[0], lone_or_refusal(bass.dual_bass_solve, a, c, 0.5)),
            (bass.bass_solve([a.T], [c.T], -0.5)[0], lone_or_refusal(bass.bass_solve, a.T, c.T, -0.5)),
        ]:
            assert_same_solution(stacked, lone)
        assert "not observable" in str(bass.dual_bass_solve([a], [c], -0.5)[0])
        assert "must exceed" in str(bass.bass_solve([a.T], [c.T], -0.5)[0])

    def test_stacked_certificates_equal_lone_calls(self):
        from plugplay.suites import random_connected_graph, random_normalized_plant

        rng = np.random.default_rng(11)
        plants, sols, duals, graphs = [], [], [], []
        for _ in range(20):
            p = random_normalized_plant(rng, agents_min=1)
            chans = sorted(p.channels, key=lambda ch: ch.id)
            b, c = aggregate(p)
            beta = float(rng.uniform(0.25, 1.0))
            plants.append(p)
            sols.append(bass.bass_solve(p.A, b, beta, widths=[ch.m for ch in chans]))
            duals.append(bass.dual_bass_solve(p.A, c, beta, heights=[ch.p for ch in chans]))
            graphs.append(random_connected_graph(rng, tuple(ch.id for ch in chans)))
        # one member without a graph, one with a broken identity
        graphs[3] = None if len(plants[3].channels) > 1 else graphs[3]
        sols[5] = replace(sols[5], beta=2.0 * sols[5].beta)
        for use_mohar in (False, True):
            stacked = bass.bass_certificate(plants, sols, duals, graphs, use_mohar=use_mohar)
            for got, args in zip(stacked, zip(plants, sols, duals, graphs), strict=True):
                want = lone_or_refusal(bass.bass_certificate, *args, use_mohar=use_mohar)
                assert_same_solution(got, want)
            assert isinstance(stacked[5], bass.CertificateError)
