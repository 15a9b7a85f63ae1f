"""Dense real linear algebra used by every other module.

Kronecker algebra, continuous-time Lyapunov solves, the matrix
exponential, spectra, singular values, and the small validation helpers
that keep NaN/Inf out of the numeric pipeline.  Everything is a plain
``numpy.ndarray``; all functions are pure.  The Lyapunov solve, the
guarded inverse, the norms and the abscissa also take stacks of
matrices, and answer each member as a lone call does.  The module
needs numpy only: the Lyapunov solve is the matrix-sign Newton
iteration and the exponential a scaled Pade approximant, so no caller
pays for importing a Schur or Sylvester solver.
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


def _squares(a, name: str, check_finite: bool = True) -> np.ndarray:
    """A square matrix as :func:`as_matrix` gives it, or a stack (k, n, n).

    With ``check_finite=False`` the NaN/Inf test is skipped: the caller
    has already checked these entries.
    """
    m = np.asarray(a, dtype=float)
    if check_finite:
        m = _stack(m, name)
    elif m.ndim < 2:
        m = np.atleast_2d(m)
    if m.ndim > 3:
        raise ValueError(f"{name} must be a matrix or a stack of them, got shape {m.shape}")
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def _lone(out: list):
    """The one member of a stack of one: its result, or its refusal raised.

    The refusal leaves the list, and this frame, before it propagates:
    its traceback holds the callers' frames, and an exception that those
    frames still reached would keep them, and every array they hold,
    alive until the cyclic garbage collector runs.
    """
    if not isinstance(out[0], Exception):
        return out[0]
    exc = out.pop()
    try:
        raise exc
    finally:
        del exc


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
    """The converged Q-iterates, ``2 X``, of the sign iteration for a stack
    ``(k, n, n)`` of Hurwitz A.

    Newton's iteration for the sign of ``Z = [[A, Q], [0, -A^T]]`` keeps
    Z block upper triangular, so it runs on the two blocks:
    ``A <- (A/c + c A^-1) / 2`` and ``Q <- (Q/c + c A^-1 Q A^-T) / 2``.
    For Hurwitz A, sign(Z) is ``[[-I, 2X], [0, I]]`` (Roberts 1980).
    Far from -I, the determinant scaling ``c = |det A|^(1/n)`` (Byers
    1987) shortens the start; near it, c = 1 keeps the quadratic rate.

    Each member leaves the stack after its own last step, so it takes
    the steps it takes alone: numpy runs ``inv``, ``slogdet`` and each
    product on every member as a lone call, and ``|A_k + I|_F`` is the
    BLAS dot product ``np.linalg.norm`` takes.  A member still running
    after ``SIGN_MAX_STEPS`` steps comes back as NaN.
    """
    k, n = a.shape[:2]
    out = np.full(a.shape, np.nan)
    live = np.arange(k)
    eye = np.eye(n)
    err = np.full(k, np.inf)
    for _ in range(SIGN_MAX_STEPS):
        inv = np.linalg.inv(a)
        last = err <= _SIGN_LAST
        if last.any():
            il, ql = inv[last], q[last]
            out[live[last]] = 0.5 * (ql + il @ ql @ np.swapaxes(il, 1, 2))
            go = ~last
            live, a, q, inv, err = live[go], a[go], q[go], inv[go], err[go]
            if not live.size:
                break
        scaled = err > _SIGN_SCALED
        if scaled.all():
            c = np.exp(np.linalg.slogdet(a)[1] / n)
        else:
            c = np.ones(live.size)
            if scaled.any():
                c[scaled] = np.exp(np.linalg.slogdet(a[scaled])[1] / n)
        c = c[:, None, None]
        a = (0.5 / c) * a + (0.5 * c) * inv
        q = (0.5 / c) * q + (0.5 * c) * (inv @ q @ np.swapaxes(inv, 1, 2))
        d = (a + eye).reshape(live.size, 1, n * n)
        err = np.sqrt((d @ np.swapaxes(d, 1, 2))[:, 0, 0])
    return out


def solve_lyapunov(a, q, *, eig_real=None, check_finite: bool = True):
    """Solve the continuous Lyapunov equation A X + X A^T = -Q.

    The matrix-sign Newton iteration (Roberts 1980) with determinant
    scaling (Byers 1987): O(n^3) per step, a handful of steps, numpy
    only.  It needs A's spectrum in one open half-plane.  Hurwitz A is
    solved as is; when -A is Hurwitz, the same X solves
    ``(-A) X + X (-A)^T = Q``, which is solved instead.  Either way the
    solution is unique.  The result is symmetrized when Q is symmetric,
    and the residual is checked against ``LYAPUNOV_RTOL``.

    A and Q may also be stacks ``(k, n, n)``.  Every member is then
    solved with stacked calls that run on it as on a lone matrix, and
    the result is a list with, per member, its X or the
    :class:`LyapunovError` its lone call raises.  A lone call is a
    stack of one.  ``eig_real``, the real parts of A's eigenvalues
    (``(n,)``, or ``(k, n)`` for a stack), saves the eigensolve of the
    half-plane test when the caller has them; ``check_finite=False``
    skips the NaN/Inf test of arrays the caller has checked.

    Raises
    ------
    LyapunovError
        If A has eigenvalues in both half-planes, or one within
        ``SINGULARITY_RTOL * |A|_2`` of the imaginary axis; if the
        iteration does not converge within ``SIGN_MAX_STEPS`` steps; or
        if the residual check fails.
    """
    lone = np.ndim(a) <= 2
    a = _squares(a, "A", check_finite)
    q = _squares(q, "Q", check_finite)
    if a.shape != q.shape:
        raise ValueError(f"A and Q must have equal shapes, got {a.shape} vs {q.shape}")
    if not lone:
        return _lyapunov(a, q, eig_real)
    return _lone(_lyapunov(a[None], q[None], None if eig_real is None else np.asarray(eig_real)[None]))


def _lyapunov(a: np.ndarray, q: np.ndarray, re) -> list:
    k = a.shape[0]
    out: list = [None] * k
    if k == 0:
        return out
    norms = np.linalg.svd(np.concatenate([a, q]), compute_uv=False)[:, 0]
    norm_a, norm_q = norms[:k], norms[k:]
    re = np.linalg.eigvals(a).real if re is None else np.asarray(re, dtype=float)
    hi, lo = re.max(axis=1), re.min(axis=1)
    margin = SINGULARITY_RTOL * norm_a
    hurwitz = hi < -margin
    solvable = hurwitz | (lo > margin)
    for i in np.flatnonzero(~solvable):
        out[i] = LyapunovError(
            "the sign iteration needs A's spectrum in one open half-plane: "
            f"real parts span [{lo[i]:.3e}, {hi[i]:.3e}], margin {margin[i]:.3e}"
        )
    idx = np.flatnonzero(solvable)
    if not idx.size:
        return out
    a, q, norm_a, norm_q = a[idx], q[idx], norm_a[idx], norm_q[idx]
    sign = np.where(hurwitz[idx], 1.0, -1.0)[:, None, None]
    x = 0.5 * _sign_newton(sign * a, sign * q)
    sym = np.abs(q - np.swapaxes(q, 1, 2)).max(axis=(1, 2)) <= 1e-13 * np.maximum(1.0, norm_q)
    if sym.all():
        x = 0.5 * (x + np.swapaxes(x, 1, 2))
    elif sym.any():
        x[sym] = 0.5 * (x[sym] + np.swapaxes(x[sym], 1, 2))
    r = a @ x + x @ np.swapaxes(a, 1, 2) + q
    fin = np.isfinite(r).all(axis=(1, 2))
    resid, norm_x = np.full(idx.size, np.inf), np.full(idx.size, np.inf)
    if fin.any():
        top = np.linalg.svd(np.concatenate([r[fin], x[fin]]), compute_uv=False)[:, 0]
        resid[fin], norm_x[fin] = top[: fin.sum()], top[fin.sum() :]
    scale = norm_a * norm_x + norm_q
    unconverged = np.isnan(x).any(axis=(1, 2))
    for j, i in enumerate(idx):
        if unconverged[j]:
            out[i] = LyapunovError(f"sign iteration did not converge in {SIGN_MAX_STEPS} steps")
        elif resid[j] > LYAPUNOV_RTOL * max(scale[j], 1e-30):
            out[i] = LyapunovError(
                f"Lyapunov residual {resid[j]:.3e} exceeds {LYAPUNOV_RTOL:.1e} * {scale[j]:.3e}"
            )
        else:
            out[i] = x[j]
    return out


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


def inverse(a, *, check_finite: bool = True):
    """Matrix inverse, guarded against near-singularity.

    A stack ``(k, n, n)`` gives a list with, per member, its inverse or
    the :class:`SingularMatrixError` its lone call raises.
    ``check_finite=False`` skips the NaN/Inf test of checked arrays.

    Raises
    ------
    SingularMatrixError
        If the smallest singular value is at most
        ``SINGULARITY_RTOL`` times the largest.
    """
    lone = np.ndim(a) <= 2
    a = _squares(a, "A", check_finite)
    m = a[None] if lone else a
    sv = np.linalg.svd(m, compute_uv=False)
    bad = (sv[:, -1] <= SINGULARITY_RTOL * sv[:, 0]) | (sv[:, 0] == 0.0)
    out: list = [None] * len(m)
    for i in np.flatnonzero(bad):
        out[i] = SingularMatrixError(
            f"matrix is singular to working precision (smin={sv[i, -1]:.3e}, smax={sv[i, 0]:.3e})"
        )
    ok = np.flatnonzero(~bad)
    if ok.size:
        for i, inv in zip(ok, np.linalg.inv(m if ok.size == len(m) else m[ok])):
            out[i] = inv
    return _lone(out) if lone else out


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
