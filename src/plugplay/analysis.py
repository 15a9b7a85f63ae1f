"""Numerical certificates for the closed loop and the flow equilibria.

:func:`observer_loop_matrix` is the one assembly of plant plus
observers in flat (x, xhat_1..xhat_N) coordinates: the simulator
integrates it at every step, and :func:`flat_closed_loop_matrix` is the
same matrix at converged gains.  The independent check of it is
:func:`closed_loop_matrix`, built in averaged/disagreement error
coordinates (x, ebar, etilde), whose coupling blocks come with their
norm bounds; the two must have one spectrum.  The module also computes
the closed-form equilibria that the PI flows must converge to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bass import ThresholdCertificate, _theta
from .consensus import INFORMER_ID, FlowParams
from .graph import Graph, is_connected, laplacian, r_matrix
from .matlib import as_matrix, induced_2norm, kron_sum, vec
from .plant import PlantModel

__all__ = [
    "ClosedLoopDecomposition",
    "BlockBound",
    "BlockBoundReport",
    "closed_loop_matrix",
    "observer_loop_matrix",
    "flat_closed_loop_matrix",
    "verify_block_bounds",
    "bass_equilibria",
    "size_equilibrium",
    "lyapunov_weights",
    "error_coordinates",
    "lyapunov_value",
]


@dataclass(frozen=True)
class ClosedLoopDecomposition:
    """Closed loop in (x, ebar, etilde) coordinates plus its pieces.

    `assembled` is the full matrix; squares 1..5 are the coupling
    blocks; G and H define the stacked observer-error dynamics
    ``edot = G e + H x - gamma (L (x) I) e`` from which the blocks are
    projected.
    """

    n: int
    n_agents: int
    gamma: float
    assembled: np.ndarray
    square1: np.ndarray
    square2: np.ndarray
    square3: np.ndarray
    square4: np.ndarray
    square5: np.ndarray
    G: np.ndarray
    H: np.ndarray
    R: np.ndarray
    lambda_plus: np.ndarray


def _blocks(p: PlantModel, f_blocks, l_blocks):
    chans = sorted(p.channels, key=lambda c: c.id)
    n_agents = len(chans)
    if len(f_blocks) != n_agents or len(l_blocks) != n_agents:
        raise ValueError("one F and one L block per channel required")
    bf = [np.asarray(c.B) @ np.asarray(f) for c, f in zip(chans, f_blocks)]
    lc = [np.asarray(l) @ np.asarray(c.C) for c, l in zip(chans, l_blocks)]
    return chans, bf, lc


def closed_loop_matrix(
    p: PlantModel, f_blocks, l_blocks, gamma: float, g: Graph
) -> ClosedLoopDecomposition:
    """Assemble the closed loop in (x, ebar, etilde) coordinates.

    States are the plant state, the average observer error, and the
    disagreement coordinates obtained through the Laplacian-diagonalizing
    complement R.  For one agent the disagreement part is empty and the
    matrix reduces to the classical separation form
    ``[[A+BF, BF], [0, A+LC]]``.
    """
    chans, bf, lc = _blocks(p, f_blocks, l_blocks)
    n = p.n
    n_agents = len(chans)
    if tuple(g.nodes) != tuple(c.id for c in chans):
        raise ValueError(f"graph nodes {g.nodes} must be the channel ids")
    a = p.A
    bfsum = sum(bf)
    lcsum = sum(lc)
    eye = np.eye(n)

    row_bf = np.hstack(bf)  # n x Nn
    gmat = np.zeros((n_agents * n, n_agents * n))
    for i in range(n_agents):
        sl = slice(i * n, (i + 1) * n)
        gmat[sl, sl] = a + n_agents * lc[i] + n_agents * bf[i]
    gmat -= np.tile(row_bf, (n_agents, 1))
    hmat = np.vstack([n_agents * bf[i] - bfsum for i in range(n_agents)])

    if n_agents == 1:
        rmat = np.zeros((1, 0))
        lam_plus = np.zeros((0, 0))
    else:
        if not is_connected(g):
            raise ValueError("graph must be connected (R undefined otherwise)")
        rmat, lam_plus = r_matrix(g)
    r_kron = np.kron(rmat, eye)  # Nn x (N-1)n
    avg = np.tile(eye / n_agents, (1, n_agents))  # n x Nn
    ones_kron = np.tile(eye, (n_agents, 1))  # Nn x n

    diag_alc = np.zeros((n_agents * n, n_agents * n))
    for i in range(n_agents):
        sl = slice(i * n, (i + 1) * n)
        diag_alc[sl, sl] = a + n_agents * lc[i]

    s1 = row_bf @ r_kron
    s2 = avg @ diag_alc @ r_kron
    s3 = r_kron.T @ hmat
    s4 = r_kron.T @ gmat @ ones_kron
    s5 = r_kron.T @ gmat @ r_kron

    dim = n + n + (n_agents - 1) * n
    asm = np.zeros((dim, dim))
    asm[:n, :n] = a + bfsum
    asm[:n, n : 2 * n] = bfsum
    asm[:n, 2 * n :] = s1
    asm[n : 2 * n, n : 2 * n] = a + lcsum
    asm[n : 2 * n, 2 * n :] = s2
    asm[2 * n :, :n] = s3
    asm[2 * n :, n : 2 * n] = s4
    asm[2 * n :, 2 * n :] = s5 - gamma * np.kron(lam_plus, eye)

    return ClosedLoopDecomposition(
        n, n_agents, float(gamma), asm, s1, s2, s3, s4, s5, gmat, hmat, rmat, lam_plus
    )


def observer_loop_matrix(a, k0, jm, zeta, gamma, lap) -> np.ndarray:
    """The frozen-gain matrix of plant plus observers over (x, xhat_1..N).

    ``xdot = A x + sum_i K0_i xhat_i`` and
    ``xhatdot_i = Omega_i xhat_i - Jm_i x - gamma_i sum_j lap_ij xhat_j``
    with ``Omega_i = A + zeta_i K0_i + Jm_i``, where ``K0_i = B_i F_i``,
    ``Jm_i = zeta_i L_i C_i`` and ``lap`` is the agent-graph Laplacian.
    ``k0`` and ``jm`` are ``(..., N, n, n)``, ``zeta`` and ``gamma``
    ``(..., N)``: leading axes give a stack of matrices, of shape
    ``(..., (N + 1) n, (N + 1) n)``.  The simulator integrates this
    matrix, and :func:`flat_closed_loop_matrix` is this matrix at the
    converged gains.
    """
    *batch, n_agents, n, _ = k0.shape
    lap = np.asarray(lap, dtype=float)
    omega = a + zeta[..., None, None] * k0 + jm
    m = np.empty((*batch, n_agents + 1, n, n_agents + 1, n))
    m[..., 0, :, 0, :] = a
    m[..., 0, :, 1:, :] = np.swapaxes(k0, -3, -2)
    m[..., 1:, :, 0, :] = -jm
    obs = m[..., 1:, :, 1:, :]
    # lap (x) I_n, laid out as (N, n, N, n)
    coupling = lap[:, None, :, None] * np.eye(n)[None, :, None, :]
    np.multiply(-gamma[..., None, None, None], coupling, out=obs)
    idx = np.arange(n_agents)
    # the diagonal blocks come out agent-first: (N, ..., n, n)
    obs[..., idx, :, idx, :] += np.moveaxis(omega, -3, 0)
    size = (n_agents + 1) * n
    return m.reshape(*batch, size, size)


def flat_closed_loop_matrix(
    p: PlantModel, f_blocks, l_blocks, gamma: float, g: Graph
) -> np.ndarray:
    """Closed loop in (x, xhat_1..xhat_N) coordinates: the simulator's
    :func:`observer_loop_matrix` with every zeta_i = N and gamma_i = gamma.

    Similar to the error-coordinate :func:`closed_loop_matrix`, so the
    two must have identical spectra.
    """
    chans, bf, lc = _blocks(p, f_blocks, l_blocks)
    n_agents = len(chans)
    if tuple(g.nodes) != tuple(c.id for c in chans):
        raise ValueError(f"graph nodes {g.nodes} must be the channel ids")
    return observer_loop_matrix(
        p.A,
        np.stack(bf),
        n_agents * np.stack(lc),
        np.full(n_agents, float(n_agents)),
        np.full(n_agents, float(gamma)),
        laplacian(g),
    )


@dataclass(frozen=True)
class BlockBound:
    name: str
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1 + 1e-12) + 1e-12


@dataclass(frozen=True)
class BlockBoundReport:
    bounds: tuple[BlockBound, ...]
    theta: float

    @property
    def all_pass(self) -> bool:
        return all(b.passed for b in self.bounds)


def verify_block_bounds(
    decomp: ClosedLoopDecomposition, p: PlantModel, f_blocks, l_blocks
) -> BlockBoundReport:
    """Check the coupling-block norm bounds.

    With unit-norm channel maps the five blocks obey
    ``|s1|^2 <= N max|F_i|^2``, ``|s3|^2 <= 4 N^3 max|F_i|^2``,
    ``|s2| <= theta/sqrt(N)``, ``|s4| <= sqrt(N) theta``, ``|s5| <= theta``
    where theta = |A| + N max|L_i| + 2 N max|F_i|.
    """
    for c in p.channels:
        if induced_2norm(c.B) > 1 + 1e-9 or induced_2norm(c.C) > 1 + 1e-9:
            raise ValueError(f"channel {c.id} is not normalized")
    n_agents = decomp.n_agents
    theta, max_f, _ = _theta(p.A, f_blocks, l_blocks)
    sqrt_n = np.sqrt(n_agents)
    bounds = (
        BlockBound("square1_sq", induced_2norm(decomp.square1) ** 2, n_agents * max_f**2),
        BlockBound("square2", induced_2norm(decomp.square2), theta / sqrt_n),
        BlockBound("square3_sq", induced_2norm(decomp.square3) ** 2, 4 * n_agents**3 * max_f**2),
        BlockBound("square4", induced_2norm(decomp.square4), sqrt_n * theta),
        BlockBound("square5", induced_2norm(decomp.square5), theta),
    )
    return BlockBoundReport(bounds, float(theta))


def bass_equilibria(
    a, b_by_id, beta: float, params: FlowParams, g: Graph
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form equilibria of the matrix gain flow in transformed coordinates.

    Returns (nu_tilde_star, chi_bar_star): the disagreement-space offset
    of the integral state and the average of vec(X_i), which equals
    vec(X*/N).
    """
    a = as_matrix(a, "A")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    n = a.shape[0]
    ids = tuple(sorted(b_by_id))
    if ids != g.nodes:
        raise ValueError("graph nodes must equal the agent ids")
    neg = -(a + beta * np.eye(n))
    abar = kron_sum(neg, neg)
    w_cols = []
    for i in ids:
        b = np.asarray(b_by_id[i], dtype=float)
        b = b.reshape(n, -1) if b.ndim == 1 else b
        w_cols.append(vec(2.0 * b @ b.T))
    w = np.concatenate(w_cols)
    mean_w = np.mean(w_cols, axis=0)
    chi_bar = -np.linalg.solve(abar, mean_w)
    if len(ids) == 1:
        return np.zeros(0), chi_bar
    rmat, lam_plus = r_matrix(g)
    lam_inv = np.diag(1.0 / np.diag(lam_plus))
    eye = np.eye(n * n)
    nu_tilde = (params.k / params.gamma) * (
        np.kron(lam_inv, eye) @ (np.kron(rmat.T, eye) @ w)
    )
    return nu_tilde, chi_bar


def size_equilibrium(
    n_agents: int, params: FlowParams, g_bar: Graph
) -> tuple[float, np.ndarray]:
    """Fixed point of the size estimator: zeta_bar* = N and psi offsets.

    Returns (N, psi_tilde_star) where psi_tilde_star lives in the
    disagreement coordinates of the informer-inclusive graph.
    """
    if INFORMER_ID not in g_bar.nodes:
        raise ValueError(f"informer node {INFORMER_ID} missing")
    if not is_connected(g_bar):
        raise ValueError("graph must be connected")
    if g_bar.n != n_agents + 1:
        raise ValueError(f"graph has {g_bar.n} nodes, expected {n_agents + 1}")
    rmat, lam_plus = r_matrix(g_bar)
    idx0 = g_bar.nodes.index(INFORMER_ID)
    w = np.ones(g_bar.n)
    w[idx0] = 0.0
    j1 = np.zeros(g_bar.n)
    j1[idx0] = 1.0
    psi_tilde = (params.k / params.gamma) * (
        np.diag(1.0 / np.diag(lam_plus)) @ (rmat.T @ (w - n_agents * j1))
    )
    return float(n_agents), psi_tilde


def lyapunov_weights(cert: ThresholdCertificate, f_blocks, n_agents: int) -> tuple[float, float]:
    """Weights (phi_bar, phi_tilde) of the certified composite Lyapunov function.

    ``V = (x^T M1 x + phi_bar ebar^T M2 ebar + phi_tilde |etilde|^2) / 2``
    decreases along the closed loop whenever gamma exceeds the threshold.
    """
    delta = max(np.linalg.eigvalsh(cert.M1)[-1], np.linalg.eigvalsh(cert.M2)[-1])
    eps = min(np.linalg.eigvalsh(cert.Q1)[0], np.linalg.eigvalsh(cert.Q2)[0])
    max_f = max(induced_2norm(f) for f in f_blocks)
    theta = cert.theta
    phi_tilde = (delta / (2 * n_agents)) * np.sqrt(1 + theta**2 * delta**2 / eps**2)
    phi_bar = 2 * delta**2 * n_agents**2 * max_f**2 / eps**2 + phi_tilde * n_agents / delta
    return float(phi_bar), float(phi_tilde)


def error_coordinates(x: np.ndarray, xhats: np.ndarray, rmat: np.ndarray):
    """Split stacked observer errors into average and disagreement parts.

    `xhats` is (N, n); returns (ebar, etilde) with etilde of length (N-1)n.
    """
    x = np.asarray(x, dtype=float).ravel()
    xhats = np.atleast_2d(np.asarray(xhats, dtype=float))
    err = xhats - x[None, :]
    ebar = err.mean(axis=0)
    etilde = (rmat.T @ err).ravel()
    return ebar, etilde


def lyapunov_value(
    m1: np.ndarray,
    m2: np.ndarray,
    phi_bar: float,
    phi_tilde: float,
    x: np.ndarray,
    ebar: np.ndarray,
    etilde: np.ndarray,
) -> float:
    """Evaluate the composite Lyapunov function at one sample."""
    x = np.asarray(x, dtype=float).ravel()
    ebar = np.asarray(ebar, dtype=float).ravel()
    etilde = np.asarray(etilde, dtype=float).ravel()
    return float(
        0.5 * (x @ m1 @ x + phi_bar * (ebar @ m2 @ ebar) + phi_tilde * (etilde @ etilde))
    )
