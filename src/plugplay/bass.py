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
from .plant import PlantModel, aggregate, is_controllable

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


def _pd_error(w: np.ndarray, what: str):
    """The refusal of a symmetric matrix with eigenvalues w, or None if it is PD."""
    if w[0] <= _PD_RTOL * max(1.0, w[-1]):
        return matlib.SingularMatrixError(
            f"{what} is not positive definite (eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}]); "
            "the pair is likely uncontrollable/unobservable"
        )
    return None


def _split_rows(m: np.ndarray, widths) -> tuple[np.ndarray, ...]:
    if sum(widths) != m.shape[0]:
        raise ValueError(f"widths {tuple(widths)} do not sum to {m.shape[0]} rows")
    out, at = [], 0
    for w in widths:
        out.append(m[at : at + w, :])
        at += w
    return tuple(out)


def _is_stack(a) -> bool:
    """A 3-D array, or a sequence of 2-D arrays, is a stack of matrices."""
    if isinstance(a, np.ndarray):
        return a.ndim == 3
    return isinstance(a, (list, tuple)) and len(a) > 0 and isinstance(a[0], np.ndarray) and a[0].ndim == 2


def _per_member(value, k: int, scalar: bool = False) -> list:
    """A stack's argument as one entry per member: None, or with
    ``scalar`` a scalar, is shared by all k members."""
    if value is None or (scalar and np.ndim(value) == 0):
        return [value] * k
    if len(value) != k:
        raise ValueError(f"one entry per member required, got {len(value)} for {k} members")
    return list(value)


def _groups(keys, members) -> list[list[int]]:
    """The members, as lists of indices that share a key, in first-seen order."""
    out: dict = {}
    for i in members:
        out.setdefault(keys[i], []).append(i)
    return list(out.values())


def _each(fn, *stacks, **kwargs) -> list:
    """``fn`` over stacked arrays: its per-member list of results or refusals.

    A stack of one makes the lone 2-D call, so a lone solve reaches
    :func:`solve_lyapunov`, :func:`inverse` and :func:`is_controllable`
    as a lone call.  The arrays were validated where they entered.
    """
    if len(stacks[0]) > 1:
        return list(fn(*stacks, check_finite=False, **kwargs))
    try:
        return [fn(*(x[0] for x in stacks), check_finite=False, **{k: v[0] for k, v in kwargs.items()})]
    except np.linalg.LinAlgError as exc:
        return [exc]


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


def bass_solve(a, b, beta, widths=None, check_controllability: bool = True, *, eig_real=None):
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
    eig_real : array_like, optional
        The real parts of A's eigenvalues, if the caller has them: they
        serve the shift check and the Lyapunov solve's half-plane test.

    A stack is a sequence of pairs (or 3-D arrays), with `beta`,
    `widths` and `eig_real` one per member or shared.  The pairs may
    have any shapes; the result is a list with, per member, its
    :class:`BassSolution` or the exception its lone call raises.  A
    lone call is a stack of one.
    """
    lone = not _is_stack(a)
    k = 1 if lone else len(a)
    a, b = ([m] for m in (a, b)) if lone else (a, b)
    a = [as_matrix(m, "A") for m in a]
    b = [as_matrix(m, "B") for m in b]
    rank = "(A, B) is not controllable" if check_controllability else None
    out = _synthesize(
        a, b, _per_member(beta, k, True), [widths] if lone else _per_member(widths, k),
        [eig_real] if lone else _per_member(eig_real, k), [rank] * k, [False] * k,
    )
    return matlib._lone(out) if lone else out


def dual_bass_solve(a, c, beta, heights=None, check_observability: bool = True):
    """Output-injection gains: :func:`bass_solve` on the dual pair (A^T, C^T).

    Solves ``-(A^T + beta I) Y - Y (A^T + beta I)^T + 2 C^T C = 0`` and
    sets ``L = -Y*^{-1} C^T``, the transpose of the dual pair's state
    feedback; ``A + L C`` then has abscissa <= -beta.  `heights` are the
    per-channel output row counts.  Stacks as in :func:`bass_solve`.
    """
    lone = not _is_stack(a)
    k = 1 if lone else len(a)
    a, c = ([m] for m in (a, c)) if lone else (a, c)
    a = [as_matrix(m, "A").T for m in a]
    c = [as_matrix(m, "C").T for m in c]
    rank = "(C, A) is not observable" if check_observability else None
    out = _synthesize(
        a, c, _per_member(beta, k, True), [heights] if lone else _per_member(heights, k),
        [None] * k, [rank] * k, [True] * k,
    )
    out = [sol if isinstance(sol, Exception) else _dual(sol) for sol in out]
    return matlib._lone(out) if lone else out


def bass_solve_pairs(a, b, c, beta, widths, heights) -> list:
    """:func:`bass_solve` and :func:`dual_bass_solve` of a stack of plants.

    Member i is the plant ``(a[i], b[i], c[i])`` at ``beta[i]``, with
    both rank tests.  Its primal and dual equations share the stacks of
    their state size and one eigensolve of A, and each ``(sol, dual)``
    entry is what the lone calls return, or the exception they raise.
    """
    k = len(a)
    a = [as_matrix(m, "A") for m in a]
    b = [as_matrix(m, "B") for m in b]
    c = [as_matrix(m, "C") for m in c]
    beta, spectra = _per_member(beta, k, True), _real_spectra(a)
    out = _synthesize(
        a + [m.T for m in a], b + [m.T for m in c], beta + beta, list(widths) + list(heights),
        spectra + spectra, ["(A, B) is not controllable"] * k + ["(C, A) is not observable"] * k,
        [False] * k + [True] * k,
    )
    return [(sol, dual if isinstance(dual, Exception) else _dual(dual)) for sol, dual in zip(out[:k], out[k:])]


def _real_spectra(a) -> list:
    """The real parts of each matrix's eigenvalues, one eigensolve per size."""
    out: list = [None] * len(a)
    for g in _groups([m.shape[0] for m in a], range(len(a))):
        for i, w in zip(g, np.linalg.eigvals(np.stack([a[i] for i in g]))):
            out[i] = w.real
    return out


def _dual(sol: BassSolution) -> DualBassSolution:
    return DualBassSolution(sol.beta, sol.X_star, sol.F.T, tuple(f.T for f in sol.F_blocks))


def _synthesize(a, b, beta, widths, re, rank, rank_first) -> list:
    """Bass' gains of validated members, in stacks: the n x n work by n,
    the rank test and ``F = -B^T X*^-1`` by (n, m).

    ``rank[i]`` is the refusal of a failed rank test, or None to skip
    it; with ``rank_first[i]`` that test is made before the shift check,
    as :func:`dual_bass_solve` makes it.  Refusals are per member.
    """
    k = len(a)
    n_of = [m.shape[0] for m in a]
    nm = [(m.shape[0], bb.shape[1]) for m, bb in zip(a, b)]
    missing = [i for i in range(k) if re[i] is None]
    re = list(re)
    for i, w in zip(missing, _real_spectra([a[i] for i in missing])):
        re[i] = w
    out: list = [None] * k
    for i in range(k):
        lo = max(0.0, -float(np.min(re[i])))
        if beta[i] <= lo:
            out[i] = ValueError(f"shift beta={beta[i]} must exceed max(0, -min Re eig(A)) = {lo:.6g}")
    def stacked(g, mats):  # the members g of a per-member list, as one array
        return mats[g[0]][None] if len(g) == 1 else np.stack([mats[i] for i in g])

    tested = [i for i in range(k) if rank[i] is not None and (out[i] is None or rank_first[i])]
    for g in _groups(nm, tested):
        for i, ok in zip(g, _each(is_controllable, stacked(g, a), stacked(g, b))):
            if not ok:
                out[i] = ValueError(rank[i])

    q, x = [None] * k, [None] * k
    for g in _groups(nm, [i for i in range(k) if out[i] is None]):
        bs = stacked(g, b)
        for i, qi in zip(g, (2.0 * bs) @ np.swapaxes(bs, 1, 2)):
            q[i] = qi
    for g in _groups(n_of, [i for i in range(k) if out[i] is None]):
        bet = np.array([beta[i] for i in g], dtype=float)
        m = -(stacked(g, a) + bet[:, None, None] * np.eye(n_of[g[0]]))
        shifted = -(np.stack([np.asarray(re[i], dtype=float) for i in g]) + bet[:, None])
        for i, xi in zip(g, _each(solve_lyapunov, m, stacked(g, q), eig_real=shifted)):
            out[i], x[i] = (xi, None) if isinstance(xi, Exception) else (None, xi)
    x_inv = [None] * k
    for g in _groups(n_of, [i for i in range(k) if out[i] is None]):
        xs = stacked(g, x)
        ws = np.linalg.eigvalsh(0.5 * (xs + np.swapaxes(xs, 1, 2)))
        for i, w in zip(g, ws):
            out[i] = _pd_error(w, "Lyapunov solution X*")
        g = [i for i in g if out[i] is None]
        if g:
            for i, inv in zip(g, _each(inverse, stacked(g, x))):
                out[i], x_inv[i] = (inv, None) if isinstance(inv, Exception) else (None, inv)
    sols, closed = [None] * k, [None] * k
    for g in _groups(nm, [i for i in range(k) if out[i] is None]):
        bs = stacked(g, b)
        fs = -np.swapaxes(bs, 1, 2) @ stacked(g, x_inv)
        for i, f, acl in zip(g, fs, stacked(g, a) + bs @ fs):
            try:
                blocks = _split_rows(f, widths[i]) if widths[i] else (f,)
            except ValueError as exc:
                out[i] = exc
                continue
            sols[i] = BassSolution(float(beta[i]), x[i], x_inv[i], f, blocks)
            closed[i] = acl
    for g in _groups(n_of, [i for i in range(k) if sols[i] is not None]):
        absc = spectral_abscissa(closed[g[0]]) if len(g) == 1 else spectral_abscissa(stacked(g, closed))
        for i, ab in zip(g, np.atleast_1d(absc)):
            if ab > -beta[i] + ABSCISSA_TOL:
                out[i] = matlib.LyapunovError(
                    f"closed-loop abscissa {ab:.6g} exceeds -beta = {-beta[i]:.6g}"
                )
            else:
                out[i] = sols[i]
    return out


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

    `p` and the other arguments may also be sequences, one entry per
    member (`g` may stay None).  The result is then a list with, per
    member, its certificate or the exception its lone call raises; the
    eigensolves, norms and connectivities run in stacks of one shape.
    """
    lone = isinstance(p, PlantModel)
    if lone:
        p, f_blocks, l_blocks, m1, q1, m2, q2, g = ([x] for x in (p, f_blocks, l_blocks, m1, q1, m2, q2, g))
    else:
        g = _per_member(g, len(p))
    names = ("M1", "M2", "Q1", "Q2")
    mats = [tuple(as_matrix(m, what) for m, what in zip(ms, names)) for ms in zip(m1, m2, q1, q2)]
    out = _certificates(p, f_blocks, l_blocks, mats, g, use_mohar)
    return matlib._lone(out) if lone else out


def _certificates(plants, f_blocks, l_blocks, mats, graphs, use_mohar: bool) -> list:
    """:func:`threshold_certificate` of each member, with ``mats[i]`` its
    validated (M1, M2, Q1, Q2).  Refusals are per member."""
    k = len(plants)
    out: list = [None] * k
    for i, (p, fb, lb) in enumerate(zip(plants, f_blocks, l_blocks)):
        if len(fb) != len(p.channels) or len(lb) != len(p.channels):
            out[i] = ValueError("one F and one L block per channel required")
    weights = [None] * k
    for grp in _groups([p.n for p in plants], [i for i in range(k) if out[i] is None]):
        ms = np.stack([m for i in grp for m in mats[i]])
        ws = np.linalg.eigvalsh(0.5 * (ms + np.swapaxes(ms, 1, 2))).reshape(len(grp), 4, -1)
        for i, w in zip(grp, ws):
            refused = [e for e in map(_pd_error, w, ("M1", "M2", "Q1", "Q2")) if e]
            out[i] = refused[0] if refused else None
            weights[i] = w
    live = [i for i in range(k) if out[i] is None]
    # graph connectivity, where the threshold reads it
    lam2 = [None] * k
    read = [i for i in live if len(plants[i].channels) > 1 and not use_mohar and graphs[i] is not None]
    for grp in _groups({i: graphs[i].n for i in read}, read):
        for i, w in zip(grp, lambda2([graphs[i] for i in grp])):
            lam2[i] = float(w)
    loops, norm_mats = {}, []
    for i in live:
        p = plants[i]
        bmat, cmat = aggregate(p)
        m1, m2, q1, q2 = mats[i]
        f = np.vstack(list(f_blocks[i]))
        ell = np.hstack(list(l_blocks[i]))
        abf = p.A + bmat @ f
        alc = p.A + ell @ cmat
        resids = (m1 @ abf + abf.T @ m1 + 2 * q1, m2 @ alc + alc.T @ m2 + 2 * q2)
        loops[i] = len(norm_mats)
        norm_mats += [*resids, m1, abf, q1, m2, alc, q2, p.A, *f_blocks[i], *l_blocks[i]]
    all_norms = induced_2norms(norm_mats)
    for i, at in loops.items():
        n_agents = len(plants[i].channels)
        norms = all_norms[at : at + 9 + 2 * n_agents]
        res1, res2, n_m1, n_abf, n_q1, n_m2, n_alc, n_q2, norm_a = norms[:9].tolist()
        scale1 = max(n_m1 * n_abf, n_q1, 1.0)
        scale2 = max(n_m2 * n_alc, n_q2, 1.0)
        if res1 > _IDENTITY_RTOL * scale1 or res2 > _IDENTITY_RTOL * scale2:
            out[i] = CertificateError(f"Lyapunov identities violated (residuals {res1:.3e}, {res2:.3e})")
            continue
        max_f = float(norms[9 : 9 + n_agents].max())
        theta = _theta_bound(norm_a, max_f, float(norms[9 + n_agents :].max()), n_agents)
        if n_agents == 1:
            lam2[i] = 4.0  # vacuous coupling; 4/N^2 convention keeps the value finite
        elif use_mohar:
            lam2[i] = mohar_bound(n_agents)
        elif graphs[i] is None:
            out[i] = ValueError("a graph is required for N > 1 unless use_mohar")
            continue
        w_m1, w_m2, w_q1, w_q2 = weights[i]
        delta = max(w_m1[-1], w_m2[-1])
        eps = min(w_q1[0], w_q2[0])
        kappa = delta / eps
        gamma_min = gamma_threshold(theta, kappa, max_f, n_agents, lam2[i])
        phi_tilde = (delta / (2 * n_agents)) * np.sqrt(1 + theta**2 * delta**2 / eps**2)
        phi_bar = 2 * delta**2 * n_agents**2 * max_f**2 / eps**2 + phi_tilde * n_agents / delta
        m1, m2, q1, q2 = mats[i]
        out[i] = ThresholdCertificate(
            float(theta), float(kappa), float(gamma_min), float(lam2[i]), float(phi_bar), float(phi_tilde),
            m1, m2, q1, q2,
        )
    return out


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

    `p`, `sol`, `dual` and `g` may also be sequences, one entry per
    member (`g` may stay None with ``use_mohar``).  The result is then a
    list with, per member, its certificate or the exception its lone
    call raises.
    """
    lone = isinstance(p, PlantModel)
    sols, duals = ([sol], [dual]) if lone else (sol, dual)
    m1 = [0.5 * (s.X_star_inv + s.X_star_inv.T) for s in sols]
    m2 = [0.5 * (d.Y_star + d.Y_star.T) for d in duals]
    out = threshold_certificate(
        [p] if lone else p,
        [s.F_blocks for s in sols],
        [d.L_blocks for d in duals],
        m1,
        [s.beta * m for s, m in zip(sols, m1)],
        m2,
        [s.beta * m for s, m in zip(sols, m2)],
        g=[g] if lone else g,
        use_mohar=use_mohar,
    )
    return matlib._lone(out) if lone else out
