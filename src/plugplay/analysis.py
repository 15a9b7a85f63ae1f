"""Numerical certificates for the closed loop and the flow equilibria.

:func:`observer_loop_matrix` is the one assembly of plant plus
observers in flat (x, xhat_1..xhat_N) coordinates: the simulator
integrates it at every step, and :func:`flat_closed_loop_matrix` is the
same matrix at converged gains.  The independent check of it is
:func:`closed_loop_matrix`, built in averaged/disagreement error
coordinates (x, ebar, etilde), whose coupling blocks come with their
norm bounds (:func:`verify_block_bounds`); the two must have one
spectrum.  Both functions, like :func:`observer_loop_matrix`, take a
stack of instances of one shape and answer it with batched numpy calls,
which run the same BLAS or LAPACK routine on each matrix as a lone
call; a lone instance is a stack of one.  The module also computes the
closed-form equilibria that the PI flows must converge to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bass import _theta_bound
from .consensus import INFORMER_ID, FlowParams, flow_drift
from .graph import Graph, is_connected, laplacian, r_matrix
from .matlib import as_matrix, induced_2norm, induced_2norms, vec
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
    "error_coordinates",
    "lyapunov_value",
]


@dataclass(frozen=True)
class ClosedLoopDecomposition:
    """Closed loop in (x, ebar, etilde) coordinates plus its pieces.

    `assembled` is the full matrix; squares 1..5 are the coupling
    blocks; G and H define the stacked observer-error dynamics
    ``edot = G e + H x - gamma (L (x) I) e`` from which the blocks are
    projected.  For a stack of instances every array has a leading
    instance axis and `gamma` is an array.
    """

    n: int
    n_agents: int
    gamma: float | np.ndarray
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


def _blocks(p: PlantModel, f_blocks, l_blocks, g: Graph):
    chans = sorted(p.channels, key=lambda c: c.id)
    n_agents = len(chans)
    if len(f_blocks) != n_agents or len(l_blocks) != n_agents:
        raise ValueError("one F and one L block per channel required")
    if tuple(g.nodes) != tuple(c.id for c in chans):
        raise ValueError(f"graph nodes {g.nodes} must be the channel ids")
    bf = [np.asarray(c.B) @ np.asarray(f) for c, f in zip(chans, f_blocks)]
    lc = [np.asarray(l) @ np.asarray(c.C) for c, l in zip(chans, l_blocks)]
    return chans, bf, lc


def _instances(p, *per_plant):
    """A lone instance as a stack of one: (single, plants, *per_plant)."""
    if isinstance(p, PlantModel):
        return (True, [p], *([x] for x in per_plant))
    if not p:
        raise ValueError("empty stack of instances")
    return (False, p, *per_plant)


def closed_loop_matrix(
    p: PlantModel, f_blocks, l_blocks, gamma: float, g: Graph
) -> ClosedLoopDecomposition:
    """Assemble the closed loop in (x, ebar, etilde) coordinates.

    States are the plant state, the average observer error, and the
    disagreement coordinates obtained through the Laplacian-diagonalizing
    complement R.  For one agent the disagreement part is empty and the
    matrix reduces to the classical separation form
    ``[[A+BF, BF], [0, A+LC]]``.

    `p` may also be a sequence of plants with one state size and one
    agent count, with `f_blocks`, `l_blocks` and `g` one entry per plant
    and `gamma` a scalar or one value per plant.  The result is then a
    stack (see :class:`ClosedLoopDecomposition`), assembled with batched
    products whose every matrix is the lone instance's.
    """
    single, plants, fs, ls, gs = _instances(p, f_blocks, l_blocks, g)
    n, n_agents = plants[0].n, len(plants[0].channels)
    bfs, lcs = [], []
    for q, f, l, gr in zip(plants, fs, ls, gs, strict=True):
        if q.n != n or len(q.channels) != n_agents:
            raise ValueError("a stack needs one state size and one agent count")
        _, bf, lc = _blocks(q, f, l, gr)
        bfs.append(bf)
        lcs.append(lc)
    batch = len(plants)
    a = np.stack([q.A for q in plants])
    bf, lc = np.array(bfs), np.array(lcs)  # (B, N, n, n)
    if n_agents == 1:
        rmat, lam_plus = np.zeros((batch, 1, 0)), np.zeros((batch, 0, 0))
    else:
        rmat, lam_plus = r_matrix(gs)
    gammas = np.broadcast_to(np.asarray(gamma, dtype=float), (batch,))
    nn = n_agents * n
    eye = np.eye(n)
    idx = np.arange(n_agents)

    def by_rows(blocks):  # (B, N, n, n) -> (B, n, Nn), the blocks side by side
        return np.swapaxes(blocks, 1, 2).reshape(batch, n, nn)

    # sums over agents in agent order, as ``sum(list)`` adds them
    bfsum = sum(np.moveaxis(bf, 1, 0))
    lcsum = sum(np.moveaxis(lc, 1, 0))
    row_bf = by_rows(bf)
    alc = a[:, None] + n_agents * lc
    # G: diagonal blocks A + N L_i C_i + N B_i F_i, less [B_1 F_1 ... B_N F_N]
    # in every block row; built as (B, N, n, N, n), where fancy indexing
    # puts the agent axis first
    gmat = np.zeros((batch, n_agents, n, n_agents, n))
    gmat[:, idx, :, idx, :] = np.moveaxis(alc + n_agents * bf, 1, 0)
    gmat = gmat.reshape(batch, nn, nn)
    gmat.reshape(batch, n_agents, n, nn)[...] -= row_bf[:, None]
    hmat = (n_agents * bf - bfsum[:, None]).reshape(batch, nn, n)

    # R (x) I_n and Lambda_plus (x) I_n, entry by entry as np.kron forms them
    r_kron = (rmat[:, :, None, :, None] * eye[:, None, :]).reshape(batch, nn, nn - n)
    r_kron_t = np.swapaxes(r_kron, 1, 2)
    ones_kron = np.tile(eye, (n_agents, 1))  # Nn x n

    s1 = row_bf @ r_kron
    # the average of the block diagonal diag(A + N L_i C_i): each entry
    # is one product with 1/N, as a product with [I/N ... I/N] gives it
    s2 = ((1.0 / n_agents) * by_rows(alc)) @ r_kron
    s3 = r_kron_t @ hmat
    rg = r_kron_t @ gmat
    s4 = rg @ ones_kron
    s5 = rg @ r_kron
    # at the sizes `certify` reaches each (Nn)^2 array takes megabytes:
    # free what is done, and scale Lambda_plus (x) I_n in place
    del rg

    asm = np.zeros((batch, nn + n, nn + n))
    asm[:, :n, :n] = a + bfsum
    asm[:, :n, n : 2 * n] = bfsum
    asm[:, :n, 2 * n :] = s1
    asm[:, n : 2 * n, n : 2 * n] = a + lcsum
    asm[:, n : 2 * n, 2 * n :] = s2
    asm[:, 2 * n :, :n] = s3
    asm[:, 2 * n :, n : 2 * n] = s4
    lam_kron = (lam_plus[:, :, None, :, None] * eye[:, None, :]).reshape(batch, nn - n, nn - n)
    lam_kron *= gammas[:, None, None]
    np.subtract(s5, lam_kron, out=asm[:, 2 * n :, 2 * n :])

    parts = (asm, s1, s2, s3, s4, s5, gmat, hmat, rmat, lam_plus)
    if single:
        return ClosedLoopDecomposition(n, n_agents, float(gammas[0]), *(x[0] for x in parts))
    return ClosedLoopDecomposition(n, n_agents, gammas.copy(), *parts)


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
    chans, bf, lc = _blocks(p, f_blocks, l_blocks, g)
    n_agents = len(chans)
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

    On a stacked `decomp`, with `p`, `f_blocks` and `l_blocks` as given
    to :func:`closed_loop_matrix`, it returns one report per instance,
    each the report of that instance alone.
    """
    single, plants, fs, ls = _instances(p, f_blocks, l_blocks)
    chans = [c for q in plants for c in q.channels]
    unit = (induced_2norms([m for c in chans for m in (c.B, c.C)]) <= 1 + 1e-9).reshape(-1, 2).all(axis=1)
    if not unit.all():
        raise ValueError(f"channel {chans[int(np.argmin(unit))].id} is not normalized")
    n_agents = decomp.n_agents
    count = len(plants)
    max_f = induced_2norms([f for blocks in fs for f in blocks]).reshape(count, n_agents).max(axis=1)
    max_l = induced_2norms([l for blocks in ls for l in blocks]).reshape(count, n_agents).max(axis=1)
    theta = _theta_bound(induced_2norms([q.A for q in plants]), max_f, max_l, n_agents)
    squares = (decomp.square1, decomp.square2, decomp.square3, decomp.square4, decomp.square5)
    lhs = np.stack([np.atleast_1d(induced_2norm(s)) for s in squares], axis=1)
    sqrt_n = np.sqrt(n_agents)
    reports = []
    for (s1, s2, s3, s4, s5), mf, th in zip(lhs.tolist(), max_f.tolist(), theta.tolist()):
        bounds = (
            BlockBound("square1_sq", s1**2, n_agents * mf**2),
            BlockBound("square2", s2, th / sqrt_n),
            BlockBound("square3_sq", s3**2, 4 * n_agents**3 * mf**2),
            BlockBound("square4", s4, sqrt_n * th),
            BlockBound("square5", s5, th),
        )
        reports.append(BlockBoundReport(bounds, th))
    return reports[0] if single else reports


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
    abar = flow_drift(a, beta)
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
