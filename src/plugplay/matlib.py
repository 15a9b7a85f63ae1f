"""Dense real linear algebra used by every other module.

Kronecker algebra, continuous-time Lyapunov solves, the matrix
exponential, spectra, singular values, and the small validation helpers
that keep NaN/Inf out of the numeric pipeline.  Everything is a plain
``numpy.ndarray``; all functions are pure.  The module needs numpy only:
the Lyapunov solve is the matrix-sign Newton iteration and the
exponential a scaled Pade approximant, so no caller pays for importing
a Schur or Sylvester solver.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularMatrixError",
    "LyapunovError",
    "as_matrix",
    "kron_sum",
    "vec",
    "unvec",
    "solve_lyapunov",
    "expm",
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
# Most Newton steps the sign iteration of `solve_lyapunov` may take;
# the equations of `verify all` take 3-7.
SIGN_MAX_STEPS = 50
# The sign iteration scales its steps while |A_k + I|_F exceeds
# _SIGN_SCALED, and takes its last step once it is below _SIGN_LAST:
# convergence is quadratic there, so that step ends near roundoff.
_SIGN_SCALED = 0.1
_SIGN_LAST = 1e-8


class SingularMatrixError(np.linalg.LinAlgError):
    """Inversion of a (numerically) singular matrix was requested."""


class LyapunovError(np.linalg.LinAlgError):
    """A Lyapunov equation this module does not solve, or a failed solve.

    Raised when A's spectrum is not in one open half-plane at a margin
    from the imaginary axis, when the sign iteration does not converge,
    or when the solution fails its residual check.
    """


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


def _sign_newton(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The converged Q-iterate, ``2 X``, of the sign iteration for Hurwitz A.

    Newton's iteration for the sign of ``Z = [[A, Q], [0, -A^T]]`` keeps
    Z block upper triangular, so it runs on the two blocks:
    ``A <- (A/c + c A^-1) / 2`` and ``Q <- (Q/c + c A^-1 Q A^-T) / 2``.
    For Hurwitz A, sign(Z) is ``[[-I, 2X], [0, I]]`` (Roberts 1980).
    Far from -I, the determinant scaling ``c = |det A|^(1/n)`` (Byers
    1987) shortens the start; near it, c = 1 keeps the quadratic rate.
    """
    n = a.shape[0]
    eye = np.eye(n)
    err = np.inf
    for _ in range(SIGN_MAX_STEPS):
        inv = np.linalg.inv(a)
        if err <= _SIGN_LAST:
            return 0.5 * (q + inv @ q @ inv.T)
        c = np.exp(np.linalg.slogdet(a)[1] / n) if err > _SIGN_SCALED else 1.0
        a = (0.5 / c) * a + (0.5 * c) * inv
        q = (0.5 / c) * q + (0.5 * c) * (inv @ q @ inv.T)
        err = np.linalg.norm(a + eye)
    raise LyapunovError(f"sign iteration did not converge in {SIGN_MAX_STEPS} steps")


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve the continuous Lyapunov equation A X + X A^T = -Q.

    The matrix-sign Newton iteration (Roberts 1980) with determinant
    scaling (Byers 1987): O(n^3) per step, a handful of steps, numpy
    only.  It needs A's spectrum in one open half-plane.  Hurwitz A is
    solved as is; when -A is Hurwitz, the same X solves
    ``(-A) X + X (-A)^T = Q``, which is solved instead.  Either way the
    solution is unique.  The result is symmetrized when Q is symmetric,
    and the residual is checked against ``LYAPUNOV_RTOL``.

    Raises
    ------
    LyapunovError
        If A has eigenvalues in both half-planes, or one within
        ``SINGULARITY_RTOL * |A|_2`` of the imaginary axis; if the
        iteration does not converge within ``SIGN_MAX_STEPS`` steps; or
        if the residual check fails.
    """
    a = _square(a, "A")
    q = _square(q, "Q")
    if a.shape != q.shape:
        raise ValueError(f"A and Q must have equal shapes, got {a.shape} vs {q.shape}")
    norm_a, norm_q = induced_2norms([a, q])
    re = np.linalg.eigvals(a).real
    margin = SINGULARITY_RTOL * norm_a
    if re.max() < -margin:
        x = 0.5 * _sign_newton(a, q)
    elif re.min() > margin:
        x = 0.5 * _sign_newton(-a, -q)
    else:
        raise LyapunovError(
            "the sign iteration needs A's spectrum in one open half-plane: "
            f"real parts span [{re.min():.3e}, {re.max():.3e}], margin {margin:.3e}"
        )
    if np.abs(q - q.T).max() <= 1e-13 * max(1.0, norm_q):
        x = 0.5 * (x + x.T)
    resid, norm_x = induced_2norms([a @ x + x @ a.T + q, x])
    scale = norm_a * norm_x + norm_q
    if resid > LYAPUNOV_RTOL * max(scale, 1e-30):
        raise LyapunovError(
            f"Lyapunov residual {resid:.3e} exceeds {LYAPUNOV_RTOL:.1e} * {scale:.3e}"
        )
    return x


# Numerator coefficients b_0..b_13 of the [13/13] Pade approximant to
# exp, and theta_13, the largest norm of the scaled matrix at which its
# backward error stays below the unit roundoff (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham 2005).

    ``exp(A) = r(A / 2^s)^(2^s)`` with r the [13/13] Pade approximant.
    The scaling s is chosen from ``max(|A^6|_1^(1/6), |A^8|_1^(1/8))``
    (Al-Mohy and Higham 2009), which is at most |A|_1 and often far
    smaller for non-normal A: every needless squaring compounds the
    roundoff of the approximant.
    """
    a = _square(a, "A")
    b = _PADE13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    eta = max(np.abs(a6).sum(axis=0).max() ** (1 / 6), np.abs(a4 @ a4).sum(axis=0).max() ** (1 / 8))
    s = max(0, int(np.ceil(np.log2(eta / _THETA13)))) if eta > 0 else 0
    # dividing by powers of two is exact, so these are the powers of A / 2^s
    a, a2, a4, a6 = a / 2.0**s, a2 / 4.0**s, a4 / 16.0**s, a6 / 64.0**s
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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
