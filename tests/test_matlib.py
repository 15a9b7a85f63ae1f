import numpy as np
import pytest
import scipy.linalg

from plugplay import matlib as ml
from plugplay.consensus import bass_rate_params
from plugplay.graph import Graph, lambda2


def kron_lyapunov(a, q):
    """Oracle: solve (A (+) A) vec X = -vec Q densely, O(n^6)."""
    a = np.asarray(a, dtype=float)
    return ml.unvec(np.linalg.solve(ml.kron_sum(a, a), -ml.vec(q)), a.shape[0])


class TestKron:
    def test_identity(self):
        assert np.allclose(ml.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_scalar_scaling(self):
        assert np.allclose(ml.kron([[2.0]], np.eye(2)), 2 * np.eye(2))

    def test_block_expansion(self):
        # expanded by hand: block (i,j) of the result is A[i,j] * B
        out = ml.kron([[0, 1], [0, 0]], [[1], [1]])
        expected = np.array([[0, 1], [0, 1], [0, 0], [0, 0]], dtype=float)
        assert out.shape == (4, 2)
        assert np.array_equal(out, expected)


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
            got = np.sort_complex(ml.eigenvalues(ml.kron_sum(a, b)))
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
            rhs = ml.kron(c.T, a) @ ml.vec(b)
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
        for _ in range(30):
            n = rng.integers(2, 7)
            a = rng.normal(size=(n, n)) - 2 * np.eye(n)
            q = rng.normal(size=(n, n))
            q = q @ q.T + np.eye(n)
            x = ml.solve_lyapunov(a, q)
            # independent route: Bartels-Stewart via scipy
            x_ref = scipy.linalg.solve_lyapunov(a, -q)
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

    def test_no_unique_solution(self):
        # A has eigenvalues +1 and -1, which sum to zero
        with pytest.raises(ml.LyapunovError):
            ml.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))
        # a pair sum of 1e-14 against 2|A| = 2 is zero to working precision
        with pytest.raises(ml.LyapunovError):
            ml.solve_lyapunov(np.diag([1.0, -1.0 + 1e-14]), np.eye(2))


class TestKroneckerOracle:
    """The production Bartels-Stewart solve against the vectorized system."""

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
        rng = np.random.default_rng(12)
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
            self._agree(a, q + q.T)

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


class TestEigen:
    def test_diagonal(self):
        assert np.allclose(ml.eigenvalues(np.diag([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_complex_pair(self):
        # characteristic polynomial l^2 + 2l + 2 by hand
        w = ml.eigenvalues([[0, 1], [-2, -2]])
        assert np.allclose(w, [-1 - 1j, -1 + 1j])

    def test_nilpotent(self):
        assert np.allclose(ml.eigenvalues([[0, 1], [0, 0]]), [0, 0])

    def test_conjugate_pairs_and_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            a = rng.normal(size=(n, n))
            w = ml.eigenvalues(a)
            # conjugate symmetry
            assert np.allclose(np.sort_complex(w), np.sort_complex(w.conj()), atol=1e-8)
            # eigenvalue residual via a unit eigenvector
            _, vecs = np.linalg.eig(a)
            wa = np.linalg.eigvals(a)
            for lam, v in zip(wa, vecs.T):
                assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * max(1.0, ml.induced_2norm(a))

    def test_abscissa_and_min_real(self):
        a = np.diag([-1.0, -3.0])
        assert ml.spectral_abscissa(a) == -1.0
        assert ml.min_real_part(a) == -3.0
        assert ml.spectral_abscissa([[0, 1], [0, 0]]) == 0.0
        assert ml.min_real_part([[0, 1], [0, 0]]) == 0.0
        assert np.isclose(ml.spectral_abscissa([[0, 1], [-2, -2]]), -1.0)
        assert np.isclose(ml.min_real_part([[0, 1], [-2, -2]]), -1.0)


class TestHurwitz:
    def test_negative_identity(self):
        assert ml.is_hurwitz(-np.eye(3))

    def test_nilpotent_not_hurwitz(self):
        assert not ml.is_hurwitz([[0, 1], [0, 0]])

    def test_damped_oscillator(self):
        assert ml.is_hurwitz([[0, 1], [-2, -2]])


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
