import numpy as np
import pytest
import scipy.linalg

from plugplay import consensus
from plugplay import matlib as ml
from plugplay.consensus import INFORMER_ID, FlowParams, bass_rate_params
from plugplay.graph import Graph, lambda2, laplacian
from plugplay.suites import informer_topology, random_connected_graph, random_gain_instance


def kron_lyapunov(a, q):
    """Oracle: solve (A (+) A) vec X = -vec Q densely, O(n^6)."""
    a = np.asarray(a, dtype=float)
    return ml.unvec(np.linalg.solve(ml.kron_sum(a, a), -ml.vec(q)), a.shape[0])


class TestKronSum:
    def test_scalars(self):
        assert np.allclose(ml.kron_sum([[2.0]], [[3.0]]), [[5.0]])

    def test_zero(self):
        assert np.array_equal(ml.kron_sum(np.zeros((2, 2)), np.zeros((2, 2))), np.zeros((4, 4)))

    def test_eigenvalue_sums(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2))
            got = np.sort_complex(np.linalg.eigvals(ml.kron_sum(a, b)))
            pairs = np.sort_complex(
                np.array([la + lb for la in np.linalg.eigvals(a) for lb in np.linalg.eigvals(b)])
            )
            assert np.allclose(got, pairs, atol=1e-8)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            ml.kron_sum(np.zeros((2, 3)), np.eye(2))


class TestVec:
    def test_column_stacking(self):
        assert np.array_equal(ml.vec([[1, 3], [2, 4]]), [1, 2, 3, 4])

    def test_zero(self):
        assert np.array_equal(ml.vec(np.zeros((3, 2))), np.zeros(6))

    def test_vec_kron_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
            lhs = ml.vec(a @ b @ c)
            rhs = np.kron(c.T, a) @ ml.vec(b)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_unvec_roundtrip(self):
        m = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(ml.unvec(ml.vec(m), 2, 3), m)


class TestSolveLyapunov:
    def test_scalar(self):
        # -2x + 2 = 0
        assert np.allclose(ml.solve_lyapunov([[-1.0]], [[2.0]]), [[1.0]])

    def test_diagonal(self):
        assert np.allclose(ml.solve_lyapunov(-np.eye(2), 2 * np.eye(2)), np.eye(2))

    def test_hand_solved_2x2(self):
        # M X + X M^T = -Q with M = -[[1,1],[0,1]] reduces to three linear
        # equations in (a, b, c); solving them by hand gives the matrix below.
        m = -np.array([[1.0, 1.0], [0.0, 1.0]])
        q = 2 * np.array([[0.0, 0.0], [0.0, 1.0]])
        x = ml.solve_lyapunov(m, q)
        assert np.allclose(x, [[0.5, -0.5], [-0.5, 1.0]], atol=1e-12)

    def test_against_schur_solver(self):
        rng = np.random.default_rng(3)
        for k in range(30):
            n = rng.integers(2, 7)
            a = rng.normal(size=(n, n))
            a = a - (ml.spectral_abscissa(a) + rng.uniform(0.2, 1.0)) * np.eye(n)
            if k % 2:
                a = -a  # -A is Hurwitz
            q = rng.normal(size=(n, n))
            q = q @ q.T + np.eye(n)
            x = ml.solve_lyapunov(a, q)
            # independent route: Bartels-Stewart via scipy
            x_ref = scipy.linalg.solve_continuous_lyapunov(a, -q)
            assert np.allclose(x, x_ref, atol=1e-8 * max(1, np.linalg.norm(x_ref)))

    def test_residual_and_spd_on_random_stable(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            a = a - (ml.spectral_abscissa(a) + rng.uniform(0.2, 1.0)) * np.eye(n)
            b = rng.normal(size=(n, n))
            q = b @ b.T + 0.1 * np.eye(n)  # SPD, so (A, Q^1/2) controllable
            x = ml.solve_lyapunov(a, q)
            resid = ml.induced_2norm(a @ x + x @ a.T + q)
            scale = ml.induced_2norm(a) * ml.induced_2norm(x) + ml.induced_2norm(q)
            assert resid <= 1e-8 * scale
            assert np.array_equal(x, x.T)
            assert np.linalg.eigvalsh(x)[0] > 0

    def test_failed_residual_check_refused(self, monkeypatch):
        # a sign iteration that returns a perturbed Q-iterate must not pass
        real = ml._sign_newton

        def perturbed(a, q):
            q_inf = real(a, q)
            return q_inf + 1e-6 * np.abs(q_inf).max()

        a = -np.array([[1.0, 0.3], [0.0, 2.0]])
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        ml.solve_lyapunov(a, q)
        monkeypatch.setattr(ml, "_sign_newton", perturbed)
        with pytest.raises(ml.LyapunovError, match="residual"):
            ml.solve_lyapunov(a, q)

    def test_near_imaginary_eigenvalue_refused(self):
        # |A|_2 = 1, so an eigenvalue with |Re| <= 1e-12 counts as on the axis
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        for sign in (-1.0, 1.0):
            with pytest.raises(ml.LyapunovError, match="half-plane"):
                ml.solve_lyapunov(sign * np.diag([1.0, 1e-13]), q)
            x = ml.solve_lyapunov(sign * np.diag([1.0, 1e-11]), q)
            assert np.allclose(x * -sign, [[1.0, 0.5 / 1.00000000001], [0.5 / 1.00000000001, 0.5e11]], rtol=1e-9)

    def test_nonconvergence_refused(self, monkeypatch):
        a = -np.array([[1.0, 0.3], [0.0, 20.0]])
        q = np.eye(2)
        ml.solve_lyapunov(a, q)
        monkeypatch.setattr(ml, "SIGN_MAX_STEPS", 2)
        with pytest.raises(ml.LyapunovError, match="did not converge in 2 steps"):
            ml.solve_lyapunov(a, q)

    def test_against_scipy_on_gain_instances(self):
        # the shifted equation of bass_solve, on the verify suites' pairs
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(2000):
            a, b, beta, *_ = random_gain_instance(rng)
            m = -(a + beta * np.eye(a.shape[0]))
            x = ml.solve_lyapunov(m, 2.0 * b @ b.T)
            x_ref = scipy.linalg.solve_continuous_lyapunov(m, -2.0 * b @ b.T)
            worst = max(worst, np.abs(x - x_ref).max() / np.abs(x_ref).max())
        assert worst <= 1e-12

    def test_against_scipy_on_rate_drift(self):
        # bass_rate_params solves P Abar + Abar^T P = -2 I with Abar n^2 x n^2
        rng = np.random.default_rng(15)
        for _ in range(3):
            a = rng.normal(size=(6, 6)) / np.sqrt(6)
            abar = consensus.flow_drift(a, 0.5 - ml.min_real_part(a))
            p = ml.solve_lyapunov(abar.T, 2.0 * np.eye(36))
            p_ref = scipy.linalg.solve_continuous_lyapunov(abar.T, -2.0 * np.eye(36))
            assert np.abs(p - p_ref).max() <= 1e-12 * np.abs(p_ref).max()

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_symmetry_decision_is_allclose(self, step):
        # |Q|_2 < 1, so Q counts as symmetric when |Q - Q^T| <= 1e-13;
        # an asymmetry just inside, at and just outside that tolerance
        atol = 1e-13
        d = atol if step == 0 else np.nextafter(atol, step * np.inf)
        q = np.array([[0.5, d], [0.0, 0.25]])
        assert ml.induced_2norm(q) < 1.0
        x = ml.solve_lyapunov(-np.array([[1.0, 0.3], [0.0, 2.0]]), q)
        symmetrized = bool(np.array_equal(x, x.T))
        assert symmetrized == np.allclose(q, q.T, rtol=0, atol=atol) == (step <= 0)

    def test_no_unique_solution(self):
        # A has eigenvalues +1 and -1, which sum to zero
        with pytest.raises(ml.LyapunovError):
            ml.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))
        # a pair sum of 1e-14 against 2|A| = 2 is zero to working precision
        with pytest.raises(ml.LyapunovError):
            ml.solve_lyapunov(np.diag([1.0, -1.0 + 1e-14]), np.eye(2))


class TestKroneckerOracle:
    """The production sign-iteration solve against the vectorized system."""

    @staticmethod
    def _agree(a, q):
        x = ml.solve_lyapunov(a, q)
        x_ref = kron_lyapunov(a, q)
        assert np.abs(x - x_ref).max() <= 1e-9 * max(1.0, np.abs(x_ref).max())

    def test_non_normal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            # non-normal: stable diagonal, strictly upper part of the same size
            t = np.diag(-rng.uniform(0.5, 2.0, size=n)) + np.triu(rng.normal(size=(n, n)), 1)
            s, _ = np.linalg.qr(rng.normal(size=(n, n)))
            self._agree(s @ t @ s.T, rng.normal(size=(n, n)))

    def test_mixed_sign_spectrum(self):
        # the equation has a unique solution, but the sign iteration needs
        # the spectrum in one half-plane, so solve_lyapunov refuses it
        rng = np.random.default_rng(12)
        mixed = 0
        for _ in range(20):
            n = int(rng.integers(2, 13))
            # eigenvalues of both signs, every pair sum at least 0.3 from zero
            mags = 0.5 + 0.4 * np.arange(n) + rng.uniform(0.0, 0.1, size=n)
            lam = mags * rng.choice([-1.0, 1.0], size=n)
            v = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
            a = v @ np.diag(lam) @ np.linalg.inv(v)
            w = np.linalg.eigvals(a)
            assert np.abs(w[:, None] + w[None, :]).min() > 0.29
            q = rng.normal(size=(n, n))
            if abs(np.sign(lam).sum()) == n:
                self._agree(a, q + q.T)
                continue
            mixed += 1
            with pytest.raises(ml.LyapunovError, match="half-plane"):
                ml.solve_lyapunov(a, q + q.T)
        assert mixed >= 15

    def test_defective_jordan_block(self):
        for lam in (-1.0, 0.7):
            a = np.array([[lam, 1.0], [0.0, lam]])
            self._agree(a, np.array([[1.0, 0.2], [0.2, 3.0]]))
            self._agree(a, np.array([[0.0, 1.0], [-2.0, 0.5]]))

    def test_large_n_residual_and_spd(self):
        rng = np.random.default_rng(13)
        n = 64
        a = rng.normal(size=(n, n)) / np.sqrt(n)
        a = a - (ml.spectral_abscissa(a) + 0.3) * np.eye(n)
        b = rng.normal(size=(n, n))
        q = b @ b.T + np.eye(n)
        x = ml.solve_lyapunov(a, q)
        resid = ml.induced_2norm(a @ x + x @ a.T + q)
        scale = ml.induced_2norm(a) * ml.induced_2norm(x) + ml.induced_2norm(q)
        assert resid <= 1e-8 * scale
        assert np.linalg.eigvalsh(x)[0] > 0

    @pytest.mark.parametrize("n", [4, 5])
    def test_rate_params_against_kronecker_route(self, n):
        rng = np.random.default_rng(100 + n)
        a = rng.normal(size=(n, n)) / np.sqrt(n)
        beta = 0.5 - ml.min_real_part(a)
        g = Graph.from_edges([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
        delta = 0.5
        # the docstring's formula, with P from the n^4 x n^4 vectorized system
        neg = -(a + beta * np.eye(n))
        abar = ml.kron_sum(neg, neg)
        p = kron_lyapunov(abar.T, 2.0 * np.eye(n * n))
        w = np.linalg.eigvalsh(0.5 * (p + p.T))
        k = w[-1] * delta
        gamma = (6.0 + np.sqrt(4.0 + np.linalg.norm(p, 2) ** 2 * np.linalg.norm(abar, 2) ** 2)) / (
            2.0 * lambda2(g) * w[0]
        ) * k
        params = bass_rate_params(a, beta, g, delta)
        assert np.isclose(params.k, k, rtol=1e-9, atol=0)
        assert np.isclose(params.gamma, gamma, rtol=1e-9, atol=0)

    def test_rate_params_n8_finite(self):
        rng = np.random.default_rng(108)
        a = rng.normal(size=(8, 8)) / np.sqrt(8)
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        params = bass_rate_params(a, 0.5 - ml.min_real_part(a), g, 0.5)
        assert np.isfinite(params.k) and params.k > 0
        assert np.isfinite(params.gamma) and params.gamma > 0


def augmented(m, w, dt):
    """``[[M, w], [0, 0]] dt``, the generator propagate_affine exponentiates."""
    dim = w.size
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = m
    aug[:dim, dim] = w
    return aug * dt


class TestExpm:
    def test_closed_forms(self):
        assert np.allclose(ml.expm(np.zeros((3, 3))), np.eye(3), rtol=0, atol=1e-15)
        assert np.allclose(ml.expm(np.diag([-2.0, 0.5, 30.0])), np.diag(np.exp([-2.0, 0.5, 30.0])), rtol=1e-13, atol=0)
        # nilpotent: exp(N) = I + N + N^2/2 exactly
        n = np.diag([1.0, 2.0, 3.0], 1)
        assert np.allclose(ml.expm(n), np.eye(4) + n + n @ n / 2 + n @ n @ n / 6, rtol=1e-15, atol=1e-15)
        # a rotation generator
        t = 0.7
        assert np.allclose(ml.expm([[0.0, -t], [t, 0.0]]), [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], atol=1e-15)

    def test_against_scipy_on_consensus_operators(self):
        # the augmented generators suite_consensus samples: gain flows at
        # certified and loose parameters, and the size estimator
        rng = np.random.default_rng(16)
        ids = tuple(range(1, 6))
        gens = []
        for _ in range(4):
            n = int(rng.integers(2, 4))
            a = rng.normal(size=(n, n)) / np.sqrt(n)
            a = a + (0.1 - ml.min_real_part(a)) * np.eye(n)
            g = random_connected_graph(rng, ids)
            maps = {i: rng.normal(size=(n, 1)) for i in ids}
            for params in (bass_rate_params(a, 1.0, g, 0.5), FlowParams(*rng.uniform(0.2, 2.0, size=2))):
                m, c = consensus.gain_flow_operator(a, maps, 1.0, params, g)
                gens += [augmented(m, c, dt) for dt in (0.05, 0.19, 1.0)]
        for n_agents in range(1, 9):
            for topo in ("star", "ring", "path"):
                g_bar = informer_topology(topo, n_agents)
                params = consensus.size_rate_params(n_agents, g_bar, 0.2)
                m, c = consensus.size_flow_operator(
                    params.k, params.gamma, laplacian(g_bar), g_bar.nodes.index(INFORMER_ID)
                )
                gens.append(augmented(m, c, np.log(n_agents / 1e-5) / 0.2 / 200))
        for z in gens:
            ref = scipy.linalg.expm(z)
            # squaring carries roundoff of order eps |Z|_1 into the result
            tol = 1e-14 * max(1.0, np.abs(z).sum(axis=0).max())
            assert np.abs(ml.expm(z) - ref).max() <= tol * np.abs(ref).max()

    def test_non_normal_against_scipy(self):
        # |A|_1 is 1e4 here, but |A^6|^(1/6) and |A^8|^(1/8) are ~20
        a = np.array([[-1.0, 1e4], [0.0, -2.0]])
        ref = scipy.linalg.expm(a)
        assert np.abs(ml.expm(a) - ref).max() <= 1e-13 * np.abs(ref).max()


class TestEigen:
    def test_abscissa_and_min_real(self):
        a = np.diag([-1.0, -3.0])
        assert ml.spectral_abscissa(a) == -1.0
        assert ml.min_real_part(a) == -3.0
        assert ml.spectral_abscissa([[0, 1], [0, 0]]) == 0.0
        assert ml.min_real_part([[0, 1], [0, 0]]) == 0.0
        assert np.isclose(ml.spectral_abscissa([[0, 1], [-2, -2]]), -1.0)
        assert np.isclose(ml.min_real_part([[0, 1], [-2, -2]]), -1.0)


class TestNormsInverse:
    def test_identity(self):
        assert ml.induced_2norm(np.eye(3)) == 1.0
        assert np.allclose(ml.singular_values(np.eye(3)), [1, 1, 1])
        assert np.allclose(ml.inverse(np.eye(3)), np.eye(3))

    def test_diag(self):
        a = np.diag([3.0, -4.0])
        assert ml.induced_2norm(a) == 4.0
        assert np.allclose(ml.singular_values(a), [4, 3])

    def test_adjugate_2x2(self):
        # det = 0.25, adjugate by hand
        a = np.array([[0.5, -0.5], [-0.5, 1.0]])
        assert np.allclose(ml.inverse(a), [[4, 2], [2, 2]], atol=1e-12)

    def test_norm_equals_sigma_max(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.normal(size=(4, 3))
            assert abs(ml.induced_2norm(a) - ml.singular_values(a)[0]) <= 1e-10

    def test_norm_equals_numpy_2_norm_exactly(self):
        rng = np.random.default_rng(8)
        shapes = [(n, n) for n in range(1, 9)] + [(1, 5), (5, 1), (1, 1), (3, 7)]
        cases = [np.zeros((3, 3)), np.zeros((1, 4))]
        for shape in shapes:
            a = rng.normal(size=shape)
            cases += [a, 1e200 * a, 1e-200 * a]
        for a in cases:
            assert ml.induced_2norm(a) == np.linalg.norm(a, 2)

    def test_norm_of_empty_is_zero(self):
        assert ml.induced_2norm(np.zeros((0, 0))) == 0.0
        assert ml.induced_2norm(np.zeros((3, 0))) == 0.0
        assert np.array_equal(ml.induced_2norm(np.zeros((4, 3, 0))), np.zeros(4))
        assert ml.induced_2norm(np.zeros((0, 3, 3))).shape == (0,)

    def test_stack_gives_each_matrix_norm_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for shape in [(5, 3, 3), (2, 4, 1, 6), (7, 1, 4), (3, 8, 8)]:
            a = rng.normal(size=shape)
            got = ml.induced_2norm(a)
            assert got.shape == shape[:-2]
            for idx in np.ndindex(*shape[:-2]):
                assert got[idx] == ml.induced_2norm(a[idx])

    def test_norms_of_mixed_shapes_bit_for_bit(self):
        rng = np.random.default_rng(12)
        shapes = [(3, 3), (1, 4), (3, 3), (4, 2), (1, 4), (2, 0), (3, 3), (5, 1)]
        mats = [rng.normal(size=s) for s in shapes]
        got = ml.induced_2norms(mats)
        assert got.shape == (len(mats),)
        for k, m in enumerate(mats):
            assert got[k] == ml.induced_2norm(m)
        # lists are coerced as induced_2norm coerces them
        assert ml.induced_2norms([[[3.0, 4.0]], [1.0, 2.0]]).tolist() == [
            ml.induced_2norm([[3.0, 4.0]]), ml.induced_2norm([1.0, 2.0])]
        assert ml.induced_2norms([]).shape == (0,)
        with pytest.raises(ValueError):
            ml.induced_2norms([np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])])

    def test_stacked_abscissa_gives_each_matrix_abscissa(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(6, 4, 4))
        got = ml.spectral_abscissa(a)
        assert got.shape == (6,)
        assert [float(x) for x in got] == [ml.spectral_abscissa(m) for m in a]
        with pytest.raises(ValueError):
            ml.spectral_abscissa(np.zeros((2, 3, 4)))

    def test_inverse_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(5, 5)) + 3 * np.eye(5)
            inv = ml.inverse(a)
            cond = ml.singular_values(a)[0] / ml.singular_values(a)[-1]
            assert ml.induced_2norm(a @ inv - np.eye(5)) <= 1e-10 * cond

    def test_singular_rejected(self):
        with pytest.raises(ml.SingularMatrixError):
            ml.inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            ml.as_matrix([[np.nan, 0.0]])

    def test_inf_rejected(self):
        for bad in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
                ml.as_matrix([[bad]])
            with pytest.raises(ValueError, match="^A contains non-finite entries$"):
                ml.induced_2norm([[1.0, bad]])
            with pytest.raises(ValueError, match="^A contains non-finite entries$"):
                ml.induced_2norm([[[1.0, 0.0]], [[0.0, bad]]])


def lone_or_refusal(fn, *args):
    try:
        return fn(*args)
    except np.linalg.LinAlgError as exc:
        return exc


def assert_same_member(got, want):
    """One stack member against its lone call: the same bits, or the same refusal."""
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert not isinstance(got, Exception), got
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestStackedSolve:
    """A stack is solved member by member as the lone calls solve them."""

    @staticmethod
    def _by_size(pairs):
        sizes = sorted({a.shape[0] for a, _ in pairs})
        return [[(a, q) for a, q in pairs if a.shape[0] == n] for n in sizes]

    def _agree(self, pairs):
        for group in self._by_size(pairs):
            stacked = ml.solve_lyapunov(np.stack([a for a, _ in group]), np.stack([q for _, q in group]))
            assert len(stacked) == len(group)
            for got, (a, q) in zip(stacked, group):
                assert_same_member(got, lone_or_refusal(ml.solve_lyapunov, a, q))

    def test_gain_instances_against_scipy(self):
        rng = np.random.default_rng(14)
        pairs = []
        for _ in range(300):
            a, b, beta, *_ = random_gain_instance(rng)
            m = -(a + beta * np.eye(a.shape[0]))
            pairs.append((m, 2.0 * b @ b.T))
        self._agree(pairs)
        for group in self._by_size(pairs):
            stacked = ml.solve_lyapunov(np.stack([a for a, _ in group]), np.stack([q for _, q in group]))
            for x, (a, q) in zip(stacked, group):
                x_ref = scipy.linalg.solve_continuous_lyapunov(a, -q)
                assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

    def test_non_normal_against_kronecker(self):
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(40):
            n = int(rng.integers(2, 7))
            t = np.diag(-rng.uniform(0.5, 2.0, size=n)) + np.triu(rng.normal(size=(n, n)), 1)
            s, _ = np.linalg.qr(rng.normal(size=(n, n)))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            pairs.append((sign * (s @ t @ s.T), rng.normal(size=(n, n))))
        self._agree(pairs)
        for a, q in pairs:
            x = ml.solve_lyapunov(a, q)
            assert np.abs(x - kron_lyapunov(a, q)).max() <= 1e-9 * max(1.0, np.abs(x).max())

    def test_mixed_stack_refuses_each_member_alone(self, monkeypatch):
        # a Hurwitz and an anti-Hurwitz member are solved; a mixed spectrum,
        # an eigenvalue on the axis, a member that needs more steps than the
        # cap is refused, each with its lone message
        monkeypatch.setattr(ml, "SIGN_MAX_STEPS", 2)
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        members = [
            -np.eye(2),
            np.array([[1.0, 0.2], [0.0, 1.0]]),
            np.diag([1.0, -1.0]),
            -np.diag([1.0, 1e-13]),
            -np.array([[1.0, 0.3], [0.0, 20.0]]),
            -np.array([[1.0, 0.2], [0.0, 1.0]]),
        ]
        stacked = ml.solve_lyapunov(np.stack(members), np.stack([q] * len(members)))
        lone = [lone_or_refusal(ml.solve_lyapunov, a, q) for a in members]
        for got, want in zip(stacked, lone, strict=True):
            assert_same_member(got, want)
        kinds = ["half-plane" in str(x) if isinstance(x, Exception) else "solved" for x in lone]
        assert kinds.count("solved") == 3 and kinds.count(True) == 2
        assert "did not converge in 2 steps" in str(lone[4])

    def test_stack_of_one_is_the_lone_call(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 6):
            a = rng.normal(size=(n, n)) - 3 * np.eye(n)
            q = rng.normal(size=(n, n))
            (x,) = ml.solve_lyapunov(a[None], q[None])
            assert_same_member(x, ml.solve_lyapunov(a, q))
            (inv,) = ml.inverse(a[None])
            assert_same_member(inv, ml.inverse(a))

    def test_eigenvalues_supplied_by_the_caller(self):
        # the half-plane test reads the supplied real parts instead of
        # solving for them; the solution does not depend on them
        a = -np.array([[1.0, 0.3], [0.0, 2.0]])
        q = np.eye(2)
        assert np.array_equal(ml.solve_lyapunov(a, q, eig_real=[-1.0, -2.0]), ml.solve_lyapunov(a, q))
        with pytest.raises(ml.LyapunovError, match="half-plane"):
            ml.solve_lyapunov(a, q, eig_real=[-1.0, 2.0])

    def test_stacked_inverse_refuses_singular_members(self):
        members = np.array([[[2.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 2)), np.eye(2)])
        for got, a in zip(ml.inverse(members), members, strict=True):
            assert_same_member(got, lone_or_refusal(ml.inverse, a))
        assert [isinstance(x, ml.SingularMatrixError) for x in ml.inverse(members)] == [False, True, True, False]

    def test_non_finite_stacks_refused(self):
        a = np.stack([-np.eye(2)] * 3)
        bad = a.copy()
        bad[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="^A contains non-finite entries$"):
            ml.solve_lyapunov(bad, a)
        bad[1, 0, 1] = np.inf
        with pytest.raises(ValueError, match="^Q contains non-finite entries$"):
            ml.solve_lyapunov(a, bad)
        with pytest.raises(ValueError, match="^A contains non-finite entries$"):
            ml.inverse(bad)
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            ml.as_matrix([[np.inf]])
