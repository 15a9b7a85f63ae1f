"""Stabilizing-gain synthesis from a shifted Lyapunov equation.

Solving ``-(A + beta I) X - X (A + beta I)^T + 2 B B^T = 0`` for the
positive definite ``X*`` and setting ``F = -B^T X*^{-1}`` places every
closed-loop eigenvalue of ``A + B F`` at real part <= -beta.  Each
channel's slice of the gain depends only on that channel's input map,
which is what makes the distributed computation possible.  The dual
construction yields output-injection gains.  This module also evaluates
the coupling-gain threshold certificate for the networked observer
closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matlib
from .graph import Graph, lambda2, mohar_bound
from .matlib import as_matrix, induced_2norms, inverse, solve_lyapunov, spectral_abscissa
from .plant import PlantModel, aggregate, is_controllable, is_observable

__all__ = [
    "CertificateError",
    "BassSolution",
    "DualBassSolution",
    "ThresholdCertificate",
    "bass_solve",
    "dual_bass_solve",
    "decay_certificate",
    "threshold_certificate",
    "bass_certificate",
]

ABSCISSA_TOL = 1e-6
_PD_RTOL = 1e-12
# Relative residual allowed in the certificate's Lyapunov identities.
_IDENTITY_RTOL = 1e-8
# Absolute slack of the decay envelope, scaled by the initial norm.
_ENVELOPE_SLACK = 1e-6


class CertificateError(ValueError):
    """Supplied certificate matrices do not satisfy their Lyapunov identities."""


def _check_beta(a: np.ndarray, beta: float) -> None:
    lo = max(0.0, -matlib.min_real_part(a))
    if beta <= lo:
        raise ValueError(
            f"shift beta={beta} must exceed max(0, -min Re eig(A)) = {lo:.6g}"
        )


def _check_pd(x: np.ndarray, what: str) -> np.ndarray:
    w = np.linalg.eigvalsh(0.5 * (x + x.T))
    if w[0] <= _PD_RTOL * max(1.0, w[-1]):
        raise matlib.SingularMatrixError(
            f"{what} is not positive definite (eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}]); "
            "the pair is likely uncontrollable/unobservable"
        )
    return w


def _split_rows(m: np.ndarray, widths) -> tuple[np.ndarray, ...]:
    if sum(widths) != m.shape[0]:
        raise ValueError(f"widths {tuple(widths)} do not sum to {m.shape[0]} rows")
    out, at = [], 0
    for w in widths:
        out.append(m[at : at + w, :])
        at += w
    return tuple(out)


@dataclass(frozen=True)
class BassSolution:
    """Shift, Lyapunov solution X* and its inverse, gain F and per-channel slices."""

    beta: float
    X_star: np.ndarray
    X_star_inv: np.ndarray
    F: np.ndarray
    F_blocks: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class DualBassSolution:
    """Dual solution: Y*, aggregate injection L and per-channel slices."""

    beta: float
    Y_star: np.ndarray
    L: np.ndarray
    L_blocks: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ThresholdCertificate:
    """Coupling-gain threshold data for the networked observer loop.

    gamma_min is the threshold: any coupling gain strictly above it
    makes the assembled closed loop asymptotically stable (the bound is
    conservative).  phi_bar and phi_tilde weigh the composite Lyapunov
    function ``V = (x^T M1 x + phi_bar ebar^T M2 ebar + phi_tilde
    |etilde|^2) / 2`` that decreases along the loop at such a gain.
    """

    theta: float
    kappa: float
    gamma_min: float
    lambda_2: float
    phi_bar: float
    phi_tilde: float
    M1: np.ndarray
    M2: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray


def bass_solve(a, b, beta: float, widths=None, check_controllability: bool = True) -> BassSolution:
    """Stabilizing state-feedback gains with decay rate beta.

    Parameters
    ----------
    a, b : array_like
        State matrix (n x n) and aggregate input map (n x m).
    beta : float
        Desired decay rate; must exceed ``max(0, -min Re eig(A))`` so
        the shifted equation has a positive definite solution.
    widths : sequence of int, optional
        Column widths of the per-channel input maps inside `b`; the
        per-channel gain slices are split accordingly.
    check_controllability : bool
        Run the Kalman rank pre-check.  When False, uncontrollability
        is still caught post-hoc through a non-PD Lyapunov solution.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    _check_beta(a, beta)
    if check_controllability and not is_controllable(a, b):
        raise ValueError("(A, B) is not controllable")
    m = -(a + beta * np.eye(a.shape[0]))
    x_star = solve_lyapunov(m, 2.0 * b @ b.T)
    _check_pd(x_star, "Lyapunov solution X*")
    x_inv = inverse(x_star)
    f = -b.T @ x_inv
    sol = BassSolution(float(beta), x_star, x_inv, f, _split_rows(f, widths) if widths else (f,))
    closed = spectral_abscissa(a + b @ f)
    if closed > -beta + ABSCISSA_TOL:
        raise matlib.LyapunovError(
            f"closed-loop abscissa {closed:.6g} exceeds -beta = {-beta:.6g}"
        )
    return sol


def dual_bass_solve(a, c, beta: float, heights=None, check_observability: bool = True) -> DualBassSolution:
    """Output-injection gains: :func:`bass_solve` on the dual pair (A^T, C^T).

    Solves ``-(A^T + beta I) Y - Y (A^T + beta I)^T + 2 C^T C = 0`` and
    sets ``L = -Y*^{-1} C^T``, the transpose of the dual pair's state
    feedback; ``A + L C`` then has abscissa <= -beta.  `heights` are the
    per-channel output row counts.
    """
    a = as_matrix(a, "A")
    c = as_matrix(c, "C")
    if check_observability and not is_observable(a, c):
        raise ValueError("(C, A) is not observable")
    sol = bass_solve(a.T, c.T, beta, widths=heights, check_controllability=False)
    return DualBassSolution(sol.beta, sol.X_star, sol.F.T, tuple(f.T for f in sol.F_blocks))


def decay_certificate(sol: BassSolution, times, states) -> bool:
    """Check the closed-loop decay envelope along a sampled trajectory.

    Every sample must satisfy
    ``|x(t)| <= sqrt(lmax(X*^-1)/lmin(X*^-1)) * exp(-beta t) * |x(0)|``
    up to ``_ENVELOPE_SLACK`` (absolute, scaled by the initial norm).
    """
    times = np.asarray(times, dtype=float)
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[0] != times.size:
        raise ValueError("one state row per sample time required")
    w = np.linalg.eigvalsh(0.5 * (sol.X_star + sol.X_star.T))
    cond = w[-1] / w[0]  # = lmax(X*^-1)/lmin(X*^-1)
    norm0 = float(np.linalg.norm(states[0]))
    bound = np.sqrt(cond) * np.exp(-sol.beta * times) * norm0
    lhs = np.linalg.norm(states, axis=1)
    return bool(np.all(lhs <= bound + _ENVELOPE_SLACK * max(norm0, 1.0)))


def _theta_bound(norm_a, max_f, max_l, n_agents: int):
    """theta = |A| + N max|L_i| + 2 N max|F_i|; arrays give one per instance."""
    return norm_a + n_agents * max_l + 2 * n_agents * max_f


def gamma_threshold(theta, kappa, max_f, n_agents, lam2):
    """Right-hand side of Theorem 1's coupling-gain inequality.

    The arguments may be arrays that broadcast.  Squares are products,
    so every operation is one IEEE operation: an array gives, bit for
    bit, its elementwise scalar calls, and the value does not decrease
    in kappa >= 0, also under rounding.
    """
    tt = theta * theta
    return (
        theta
        + tt * kappa
        + 4 * (n_agents * n_agents) * (max_f * max_f) * kappa * np.sqrt(1 + tt * (kappa * kappa))
    ) / lam2


def threshold_certificate(
    p: PlantModel,
    f_blocks,
    l_blocks,
    m1,
    q1,
    m2,
    q2,
    g: Graph | None = None,
    use_mohar: bool = False,
) -> ThresholdCertificate:
    """Verify the Lyapunov certificate pair and evaluate the gain threshold.

    The supplied (M1, Q1) must satisfy ``M1 (A+BF) + (A+BF)^T M1 = -2 Q1``
    and (M2, Q2) the analogue for ``A + LC`` (checked, not assumed, to
    a relative residual of ``_IDENTITY_RTOL``).  kappa = delta / eps reads
    delta = max lmax(M_i) and eps = min lmin(Q_i) off the symmetric parts
    whose eigenvalues the positive-definiteness check computes.  The
    threshold takes the graph's algebraic connectivity, or with
    ``use_mohar`` its worst case 4/N^2 over connected graphs; for a
    single agent the coupling is vacuous and 4/N^2 = 4 is used.
    """
    a = p.A
    bmat, cmat = aggregate(p)
    n_agents = len(p.channels)
    if len(f_blocks) != n_agents or len(l_blocks) != n_agents:
        raise ValueError("one F and one L block per channel required")
    names = ("M1", "M2", "Q1", "Q2")
    m1, m2, q1, q2 = (as_matrix(m, what) for m, what in zip((m1, m2, q1, q2), names))
    w_m1, w_m2, w_q1, w_q2 = (_check_pd(m, what) for m, what in zip((m1, m2, q1, q2), names))
    f = np.vstack(list(f_blocks))
    ell = np.hstack(list(l_blocks))
    abf = a + bmat @ f
    alc = a + ell @ cmat
    resids = (m1 @ abf + abf.T @ m1 + 2 * q1, m2 @ alc + alc.T @ m2 + 2 * q2)
    norms = induced_2norms([*resids, m1, abf, q1, m2, alc, q2, a, *f_blocks, *l_blocks])
    res1, res2, n_m1, n_abf, n_q1, n_m2, n_alc, n_q2, norm_a = norms[:9].tolist()
    scale1 = max(n_m1 * n_abf, n_q1, 1.0)
    scale2 = max(n_m2 * n_alc, n_q2, 1.0)
    if res1 > _IDENTITY_RTOL * scale1 or res2 > _IDENTITY_RTOL * scale2:
        raise CertificateError(f"Lyapunov identities violated (residuals {res1:.3e}, {res2:.3e})")
    max_f = float(norms[9 : 9 + n_agents].max())
    theta = _theta_bound(norm_a, max_f, float(norms[9 + n_agents :].max()), n_agents)
    delta = max(w_m1[-1], w_m2[-1])
    eps = min(w_q1[0], w_q2[0])
    kappa = delta / eps
    if n_agents == 1:
        lam2 = 4.0  # vacuous coupling; 4/N^2 convention keeps the value finite
    elif use_mohar:
        lam2 = mohar_bound(n_agents)
    elif g is None:
        raise ValueError("a graph is required for N > 1 unless use_mohar")
    else:
        lam2 = lambda2(g)
    gamma_min = gamma_threshold(theta, kappa, max_f, n_agents, lam2)
    phi_tilde = (delta / (2 * n_agents)) * np.sqrt(1 + theta**2 * delta**2 / eps**2)
    phi_bar = 2 * delta**2 * n_agents**2 * max_f**2 / eps**2 + phi_tilde * n_agents / delta
    return ThresholdCertificate(
        float(theta), float(kappa), float(gamma_min), float(lam2), float(phi_bar), float(phi_tilde),
        m1, m2, q1, q2,
    )


def bass_certificate(
    p: PlantModel,
    sol: BassSolution,
    dual: DualBassSolution,
    g: Graph | None = None,
    use_mohar: bool = False,
) -> ThresholdCertificate:
    """Threshold certificate instantiated with the synthesis solutions.

    Uses M1 = X*^{-1}, Q1 = beta M1, M2 = Y*, Q2 = beta M2, which satisfy
    the certificate identities by construction.  With ``use_mohar`` the
    threshold is evaluated at the worst-case connectivity 4/N^2 instead
    of the actual graph's.
    """
    m1 = sol.X_star_inv
    m1 = 0.5 * (m1 + m1.T)
    m2 = 0.5 * (dual.Y_star + dual.Y_star.T)
    return threshold_certificate(
        p,
        sol.F_blocks,
        dual.L_blocks,
        m1,
        sol.beta * m1,
        m2,
        sol.beta * m2,
        g=g,
        use_mohar=use_mohar,
    )
