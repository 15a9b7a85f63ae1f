"""Dense real linear algebra used by every other module.

Kronecker algebra, continuous-time Lyapunov solves, spectra, singular
values, and the small validation helpers that keep NaN/Inf out of the
numeric pipeline.  Everything is a plain ``numpy.ndarray``; all functions
are pure.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "SingularMatrixError",
    "LyapunovError",
    "as_matrix",
    "kron_sum",
    "vec",
    "unvec",
    "solve_lyapunov",
    "spectral_abscissa",
    "min_real_part",
    "induced_2norm",
    "induced_2norms",
    "singular_values",
    "inverse",
    "rk4_propagator",
]

# Relative threshold below which a singular value counts as zero.
SINGULARITY_RTOL = 1e-12
# Largest relative residual a Lyapunov solution may leave.
LYAPUNOV_RTOL = 1e-8


class SingularMatrixError(np.linalg.LinAlgError):
    """Inversion of a (numerically) singular matrix was requested."""


class LyapunovError(np.linalg.LinAlgError):
    """The Lyapunov equation has no unique solution (eigenvalue sum ~ 0)."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array, rejecting NaN/Inf entries."""
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _stack(a, name: str) -> np.ndarray:
    """A matrix as :func:`as_matrix` gives it, or a finite stack of them."""
    m = np.asarray(a, dtype=float)
    if m.ndim <= 2:
        return as_matrix(m, name)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def kron_sum(a, b) -> np.ndarray:
    """Kronecker sum A (x) I_n + I_m (x) B of square A (m x m), B (n x n)."""
    a = _square(a, "A")
    b = _square(b, "B")
    return np.kron(a, np.eye(b.shape[0])) + np.kron(np.eye(a.shape[0]), b)


def vec(m) -> np.ndarray:
    """Stack the columns of M top-to-bottom into a 1-D vector."""
    return as_matrix(m, "M").ravel(order="F")


def unvec(v, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a vector back into a rows x cols matrix."""
    v = np.asarray(v, dtype=float).ravel()
    if cols is None:
        cols = v.size // rows
    if rows * cols != v.size:
        raise ValueError(f"cannot reshape {v.size} entries into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve the continuous Lyapunov equation A X + X A^T = -Q.

    Bartels-Stewart (1972): one real Schur factorisation A = U T U^T,
    then the quasi-triangular Sylvester equation T Y + Y T^T = -U^T Q U
    (LAPACK ``trsyl``) and X = U Y U^T.  This costs O(n^3), where the
    vectorized form (A (+) A) vec(X) = -vec(Q) costs O(n^6); the
    equation is unique-solvable iff no two eigenvalues of A sum to zero,
    which is read off the same Schur form.  The result is symmetrized
    when Q is symmetric, and the residual is checked against
    ``LYAPUNOV_RTOL``.

    Raises
    ------
    LyapunovError
        If ``min |l_i + l_j|`` over the eigenvalues of A is at most
        ``SINGULARITY_RTOL * 2 |A|_2``, i.e. the equation has no unique
        solution, or if the residual check fails.
    """
    a = _square(a, "A")
    q = _square(q, "Q")
    if a.shape != q.shape:
        raise ValueError(f"A and Q must have equal shapes, got {a.shape} vs {q.shape}")
    norm_a, norm_q = induced_2norms([a, q])
    t, u = scipy.linalg.schur(a, output="real")
    w = np.linalg.eigvals(t)
    if np.abs(w[:, None] + w[None, :]).min() <= SINGULARITY_RTOL * 2.0 * norm_a:
        raise LyapunovError(
            "no unique Lyapunov solution: an eigenvalue pair of A sums to ~0"
        )
    # trsyl returns Y scaled by s <= 1 to avoid overflow; the residual
    # check below catches its perturbed (info == 1) solutions
    y, s, _ = scipy.linalg.lapack.dtrsyl(t, t, -(u.T @ q @ u), tranb="T")
    x = u @ (y / s) @ u.T
    if np.abs(q - q.T).max() <= 1e-13 * max(1.0, norm_q):
        x = 0.5 * (x + x.T)
    resid, norm_x = induced_2norms([a @ x + x @ a.T + q, x])
    scale = norm_a * norm_x + norm_q
    if resid > LYAPUNOV_RTOL * max(scale, 1e-30):
        raise LyapunovError(
            f"Lyapunov residual {resid:.3e} exceeds {LYAPUNOV_RTOL:.1e} * {scale:.3e}"
        )
    return x


def spectral_abscissa(a):
    """Largest real part among the eigenvalues.

    A stack ``(..., n, n)`` gives each matrix's abscissa, as an array of
    shape ``(...)``.
    """
    if np.ndim(a) <= 2:
        return float(np.linalg.eigvals(_square(a)).real.max())
    return np.linalg.eigvals(_stack(a, "matrix")).real.max(axis=-1)


def min_real_part(a) -> float:
    """Smallest real part among the eigenvalues."""
    return float(np.linalg.eigvals(_square(a)).real.min())


def induced_2norm(a):
    """Induced matrix 2-norm (largest singular value).

    A stack ``(..., m, n)`` gives each matrix's norm, as an array of
    shape ``(...)``; numpy's stacked SVD runs the same LAPACK routine on
    each matrix, so every entry equals the norm of that matrix alone.
    """
    m = _stack(a, "A")
    if m.shape[-1] == 0 or m.shape[-2] == 0:
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[:-2])
    top = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(top) if m.ndim == 2 else top


def induced_2norms(mats) -> np.ndarray:
    """:func:`induced_2norm` of each matrix in a sequence of any shapes.

    The matrices are grouped by shape and each group takes one stacked
    SVD, so every entry equals the norm of that matrix alone.
    """
    mats = [m if isinstance(m, np.ndarray) and m.ndim == 2 else as_matrix(m) for m in mats]
    out = np.empty(len(mats))
    for shape in {m.shape for m in mats}:
        ks = [k for k, m in enumerate(mats) if m.shape == shape]
        out[ks] = induced_2norm(np.array([mats[k] for k in ks], dtype=float))
    return out


def singular_values(a) -> np.ndarray:
    """Singular values in descending order."""
    return np.linalg.svd(as_matrix(a, "A"), compute_uv=False)


def inverse(a) -> np.ndarray:
    """Matrix inverse, guarded against near-singularity.

    Raises
    ------
    SingularMatrixError
        If the smallest singular value is at most
        ``SINGULARITY_RTOL`` times the largest.
    """
    a = _square(a, "A")
    sv = singular_values(a)
    if sv[-1] <= SINGULARITY_RTOL * sv[0] or sv[0] == 0.0:
        raise SingularMatrixError(
            f"matrix is singular to working precision (smin={sv[-1]:.3e}, smax={sv[0]:.3e})"
        )
    return np.linalg.inv(a)


def rk4_propagator(a, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The one-step map of classical RK4 on ``ydot = A y + c``.

    One RK4 step of size h on that system is exactly
    ``y <- T y + S c`` with ``T = T4(hA)`` and ``S = h S3(hA)``, where
    ``T4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` and
    ``S3(z) = 1 + z/2 + z^2/6 + z^3/24``, so ``T = I + hA S3(hA)``.
    This is RK4's own polynomial, not the matrix exponential.  A may be
    a stack ``(..., m, m)``; T and S then have the same shape.
    """
    a = np.asarray(a, dtype=float)
    eye = np.eye(a.shape[-1])
    ha = h * a
    s3 = eye + (ha / 2.0) @ (eye + (ha / 3.0) @ (eye + ha / 4.0))
    return eye + ha @ s3, h * s3
