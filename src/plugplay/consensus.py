"""Distributed PI-coupled flows.

Three flows share one structure: a local drift plus proportional
diffusive coupling plus an integral state whose coupling shifts the
network equilibrium onto the blended one despite heterogeneous drifts.

* matrix gain flow: per-agent (Z_i, X_i) with X_i -> X*/N,
* its dual: (W_i, Y_i) with Y_i -> Y*/N,
* network-size estimator: scalar (psi_i, zeta_i) plus a distinguished
  informer node whose leak term anchors zeta_i -> N.

Every flow is affine, ``sdot = M s + c``, and each is written once, as
its closed-form Kronecker operator (:func:`pi_flow_operator`, assembled
from the agents' input maps by :func:`gain_flow_operator`, and
:func:`size_flow_operator`).  A flow's state is one flat vector in node
id order: ``(vec Z_1..Z_N, vec X_1..X_N)`` with row-major vec for the
gain flows, ``(psi, zeta)`` for the size estimator.  The simulator
builds its per-interval maps from the operators, the suites propagate
them exactly, and the ``*_flow_derivative`` functions evaluate them on a
state.  The agent count is never a parameter of an operator, only its
size, so agents can join or leave without touching the flow code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .graph import Graph, is_connected, lambda2, laplacian
from .matlib import as_matrix, induced_2norms, kron_sum, min_real_part, solve_lyapunov

__all__ = [
    "INFORMER_ID",
    "FlowParams",
    "flow_drift",
    "pi_flow_operator",
    "gain_flow_operator",
    "size_flow_operator",
    "bass_flow_derivative",
    "dual_flow_derivative",
    "size_flow_derivative",
    "bass_rate_params",
    "size_rate_params",
]

# The size estimator's anchor node; always sorts first among node ids.
INFORMER_ID = 0


@dataclass(frozen=True)
class FlowParams:
    """Scaling factor k and coupling gain gamma of one PI flow."""

    k: float
    gamma: float

    def __post_init__(self):
        if self.k <= 0 or self.gamma <= 0:
            raise ValueError(f"flow parameters must be positive, got k={self.k}, gamma={self.gamma}")


def flow_drift(a, beta: float) -> np.ndarray:
    """The gain flow's local drift on row-major vec X.

    ``X -> -(A + beta I) X - X (A + beta I)^T`` is the Kronecker sum
    ``(-(A + beta I)) (+) (-(A + beta I))``; the dual flow's drift is
    ``flow_drift(A^T, beta)``.
    """
    a = as_matrix(a, "A")
    neg = -(a + beta * np.eye(a.shape[0]))
    return kron_sum(neg, neg)


def pi_flow_operator(drift, k: float, gamma: float, lap, q) -> tuple[np.ndarray, np.ndarray]:
    """The PI-coupled flow as ``sdot = M s + c``, returned as ``(M, c)``.

    For N agents over the graph Laplacian ``lap`` (N x N)::

        Zdot_i = gamma sum_j L_ij X_j
        Xdot_i = k (drift X_i + Q_i) - gamma sum_j L_ij (X_j + Z_j)

    with ``q`` the N rows vec Q_i.  The state is ``s = (vec Z_1..Z_N,
    vec X_1..X_N)``, agents in Laplacian row order and each vec
    row-major, so ``drift`` acts on row-major vec (see
    :func:`flow_drift`).  :func:`gain_flow_operator` assembles the gain
    flow, ``Q_i = 2 B_i B_i^T``, and its dual, ``2 C_i^T C_i``.
    Passing the 1 x 1 Laplacian ``[[lam_j]]`` gives the flow's block on
    one Laplacian eigenmode.
    """
    drift = np.asarray(drift, dtype=float)
    lap = np.asarray(lap, dtype=float)
    n_agents, m = lap.shape[0], drift.shape[0]
    q = np.asarray(q, dtype=float).reshape(n_agents, m)
    half = n_agents * m
    coupling = gamma * np.kron(lap, np.eye(m))
    op = np.zeros((2 * half, 2 * half))
    op[:half, half:] = coupling
    op[half:, :half] = -coupling
    op[half:, half:] = k * np.kron(np.eye(n_agents), drift) - coupling
    c = np.zeros(2 * half)
    c[half:] = k * q.ravel()
    return op, c


def size_flow_operator(k: float, gamma: float, lap_b, informer_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The network-size estimator as ``sdot = M s + c``, returned as ``(M, c)``.

    Over ``s = (psi_1..psi_M, zeta_1..zeta_M)`` on the M nodes of the
    Laplacian ``lap_b`` in its row order (informer included, at row
    ``informer_index``): every node runs ``psidot_i =
    gamma sum_j L_ij zeta_j``; ordinary nodes integrate ``zetadot_i = k
    - gamma sum_j L_ij (zeta_j + psi_j)``, and the informer leaks,
    ``zetadot_0 = -k zeta_0 - gamma sum_j L_0j (zeta_j + psi_j)``.
    """
    lap_b = np.asarray(lap_b, dtype=float)
    nb = lap_b.shape[0]
    op = np.zeros((2 * nb, 2 * nb))
    op[:nb, nb:] = gamma * lap_b
    op[nb:, :nb] = -gamma * lap_b
    op[nb:, nb:] = -gamma * lap_b
    op[nb + informer_index, nb + informer_index] -= k
    c = np.zeros(2 * nb)
    c[nb:] = k
    c[nb + informer_index] = 0.0
    return op, c


def gain_flow_operator(
    a, maps: Mapping[int, np.ndarray], beta: float, params: FlowParams, g: Graph
) -> tuple[np.ndarray, np.ndarray]:
    """(M, c) of the gain flow on ``(A, B_i)`` over the nodes of ``g``.

    :func:`pi_flow_operator` with ``Q_i = 2 B_i B_i^T``, agents in
    ``g.nodes`` order.  The dual flow is this call on ``(A^T, C_i^T)``.
    """
    if tuple(sorted(maps)) != g.nodes:
        raise ValueError(f"graph nodes {g.nodes} must equal the agent ids {tuple(sorted(maps))}")
    a = as_matrix(a, "A")
    n = a.shape[0]
    q = []
    for i in g.nodes:
        b = np.asarray(maps[i], dtype=float).reshape(n, -1)
        q.append(2.0 * b @ b.T)
    return pi_flow_operator(flow_drift(a, beta), params.k, params.gamma, laplacian(g), np.stack(q))


def bass_flow_derivative(
    s, a, b_by_id: Mapping[int, np.ndarray], beta: float, params: FlowParams, g: Graph
) -> np.ndarray:
    """Right-hand side of the PI-coupled matrix gain flow at the packed state ``s``.

    For each agent::

        Zdot_i = -gamma * sum_j (X_j - X_i)
        Xdot_i = k * [-(A + beta I) X_i - X_i (A + beta I)^T + 2 B_i B_i^T]
                 + gamma * sum_j (X_j - X_i) + gamma * sum_j (Z_j - Z_i)

    evaluated as :func:`gain_flow_operator` applied to ``s``.
    """
    op, c = gain_flow_operator(a, b_by_id, beta, params, g)
    return op @ s + c


def dual_flow_derivative(
    s, a, c_by_id: Mapping[int, np.ndarray], beta: float, params: FlowParams, g: Graph
) -> np.ndarray:
    """Dual flow at the packed state ``s = (vec W_i, vec Y_i)``: the gain flow on (A^T, C_i^T)."""
    ct = {i: np.asarray(c).T for i, c in c_by_id.items()}
    op, c = gain_flow_operator(as_matrix(a, "A").T, ct, beta, params, g)
    return op @ s + c


def size_flow_derivative(s, params: FlowParams, g_bar: Graph) -> np.ndarray:
    """Right-hand side of the network-size estimator at the packed state ``s``.

    Ordinary nodes integrate ``zetadot_i = k + coupling``; the informer
    (node 0) integrates ``zetadot_0 = -k zeta_0 + coupling``; all nodes
    run ``psidot_i = -gamma * sum_j (zeta_j - zeta_i)``.  Evaluated as
    :func:`size_flow_operator` applied to ``s``.
    """
    if INFORMER_ID not in g_bar.nodes:
        raise ValueError(f"informer node {INFORMER_ID} missing from graph")
    op, c = size_flow_operator(params.k, params.gamma, laplacian(g_bar), g_bar.nodes.index(INFORMER_ID))
    return op @ s + c


def bass_rate_params(a, beta: float, g: Graph, delta: float) -> FlowParams:
    """Smallest (k, gamma) certifying convergence rate `delta` for the gain flow.

    Solves ``P Abar + Abar^T P = -2 I`` with
    ``Abar = (-(A+beta I)) (+) (-(A+beta I))`` and returns::

        k     = lmax(P) * delta
        gamma = (6 + sqrt(4 + |P|^2 |Abar|^2)) / (2 lambda2 lmin(P)) * k

    With ``delta == 0`` any positive pair works; (k=1, gamma at the same
    ratio) is returned.
    """
    a = as_matrix(a, "A")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    lo = max(0.0, -min_real_part(a))
    if beta <= lo:
        raise ValueError(f"shift beta={beta} must exceed {lo:.6g}")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    abar = flow_drift(a, beta)
    p = solve_lyapunov(abar.T, 2.0 * np.eye(abar.shape[0]))
    w = np.linalg.eigvalsh(0.5 * (p + p.T))
    lam2 = lambda2(g) if g.n >= 2 else 4.0
    norm_p, norm_abar = induced_2norms([p, abar]).tolist()
    coeff = (6.0 + np.sqrt(4.0 + norm_p**2 * norm_abar**2)) / (2.0 * lam2 * w[0])
    k = w[-1] * delta if delta > 0 else 1.0
    return FlowParams(float(k), float(coeff * k))


def size_rate_params(n_agents: int, g_bar: Graph, delta: float) -> FlowParams:
    """Smallest (k, gamma) certifying rate `delta` for the size estimator.

    ``k = (24 N + 30 + 2 sqrt 5)/(2 - sqrt 2) * delta`` and gamma just
    above ``(N+1) k / lambda2(Lbar)`` (the inequality is strict, so the
    bound is inflated by a relative 1e-6).
    """
    if n_agents < 1:
        raise ValueError("need at least one agent")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if INFORMER_ID not in g_bar.nodes:
        raise ValueError(f"informer node {INFORMER_ID} missing from graph")
    if not is_connected(g_bar):
        raise ValueError("graph (with informer) must be connected")
    k = (24.0 * n_agents + 30.0 + 2.0 * np.sqrt(5.0)) / (2.0 - np.sqrt(2.0)) * delta
    if delta == 0:
        k = 1.0
    gamma = (n_agents + 1) * k / lambda2(g_bar) * (1.0 + 1e-6)
    return FlowParams(float(k), float(gamma))
