"""The self-organizing control agent.

Each agent owns one plant channel and reads three of its local flow
states: the gain-flow iterate X_i, the dual iterate Y_i and the size
estimate zeta_i.  From those it derives its time-varying feedback gain,
injection gain, and coupling gain; the sample-and-hold inverse filter
keeps the gains bounded while the matrix iterates pass through singular
transients.

An agent never sees another agent's channel maps or the plant state,
only its own measurement and the neighbors' broadcast states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .matlib import as_matrix, induced_2norm, inverse, singular_values
from .plant import Channel, normalize_channel

__all__ = [
    "AgentParams",
    "PhiFilter",
    "ControlAgent",
    "gain_F",
    "gain_L",
    "gamma_i",
]

# Conditioning threshold standing in for the exact det != 0 test.
PHI_SINGULARITY_RTOL = 1e-10


class PhiFilter:
    """Sample-and-hold matrix-inverse filter.

    At each sample instant k*T the filter inverts its input if the input
    is numerically nonsingular and otherwise keeps the previous hold, so
    the output is piecewise-constant, always finite, and converges to
    the inverse of whatever the input converges to.  The initial hold is
    the identity (bounded, invertible, forgotten after the first valid
    sample).
    """

    def __init__(self, period: float, dim: int, initial: np.ndarray | None = None):
        if period <= 0:
            raise ValueError("filter period must be positive")
        self.period = float(period)
        self.held = np.eye(dim) if initial is None else as_matrix(initial, "initial hold")
        self.last_sample_index = -1
        self._last_t = -np.inf
        self._held_svals = singular_values(self.held)

    @property
    def value(self) -> np.ndarray:
        return self.held

    @property
    def sigma_max(self) -> float:
        return float(self._held_svals[0])

    @property
    def sigma_min(self) -> float:
        return float(self._held_svals[-1])

    def update(self, x: np.ndarray, t: float) -> np.ndarray:
        """Advance the sample clock to time t and return the held value.

        The 1e-9 slack in the sample index keeps an instant reached as
        ``step * h`` from rounding down to the previous one.
        """
        if t < self._last_t - 1e-12:
            raise ValueError(f"filter time must be nondecreasing ({t} < {self._last_t})")
        self._last_t = t
        k = math.floor(t / self.period + 1e-9)
        if k > self.last_sample_index:
            self.last_sample_index = k
            sv = singular_values(x)
            if sv.size and sv[-1] > PHI_SINGULARITY_RTOL * max(1.0, sv[0]):
                self.held = inverse(x)
                self._held_svals = sv[::-1].copy() ** -1.0
        return self.held


@dataclass(frozen=True)
class AgentParams:
    """Flow and filter parameters shared by one agent's subsystems.

    gamma_cap bounds the coupling gain actually applied by the observer;
    the certificate formula itself is evaluated exactly (and can be
    astronomically conservative), but an explicit fixed-step integrator
    needs a finite, moderate effective gain.
    """

    beta: float
    k_c: float = 1.0
    gamma_c: float = 1.0
    k_o: float = 1.0
    gamma_o: float = 1.0
    k_s: float = 1.0
    gamma_s: float = 1.0
    t_phi: float = 0.1
    gamma_cap: float = 1e6

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")


class ControlAgent:
    """One agent's states and self-computed gains.

    The caller writes the states (X, Y, zeta) into the agent and calls
    :meth:`refresh_gains`; the gains then read through
    :func:`gain_F`, :func:`gain_L` and :func:`gamma_i` depend on this
    agent's states and channel only.  The simulator drives one agent
    per active channel this way, once per step.
    """

    def __init__(
        self,
        a: np.ndarray,
        channel: Channel,
        params: AgentParams,
    ):
        self.A = as_matrix(a, "A")
        n = self.A.shape[0]
        chan = normalize_channel(channel)
        if chan.B.shape[0] != n or chan.C.shape[1] != n:
            raise ValueError(f"channel {channel.id} dimensions do not match n={n}")
        self.id = chan.id
        self.B = chan.B
        self.C = chan.C
        self.input_scale = chan.input_scale
        self.output_scale = chan.output_scale
        self.params = params
        self.n = n
        self.X = np.zeros((n, n))
        self.Y = np.zeros((n, n))
        self.zeta = 0.0
        self.phi_x = PhiFilter(params.t_phi, n)
        self.phi_y = PhiFilter(params.t_phi, n)
        self._norm_a = induced_2norm(self.A)
        self._gain_time = None
        self._F = None
        self._L = None
        self._gamma = None

    def refresh_gains(self, t: float) -> None:
        """Sample the inverse filters at time t and recompute all gains."""
        phi_x = self.phi_x.update(self.X, t)
        phi_y = self.phi_y.update(self.Y, t)
        zc = max(float(self.zeta), 1.0)
        self._F = -(self.B.T @ phi_x) / zc
        self._L = -(phi_y @ self.C.T) / zc
        self._gamma = self._gamma_formula(zc)
        self._gain_time = t

    def _gamma_formula(self, zc: float) -> float:
        # Python floats: an overflow gives inf or nan here, never an
        # exception, and both take the cap below.
        cap = self.params.gamma_cap
        sx_max, sx_min = self.phi_x.sigma_max, self.phi_x.sigma_min
        sy = np.linalg.svd(self.Y, compute_uv=False)
        zc2 = zc * zc
        den = self.params.beta * min(sx_min, zc2 * float(sy[-1]))
        if den <= 0.0:
            return cap
        kappa = max(sx_max, zc2 * float(sy[0])) / den
        theta = self._norm_a + self.phi_y.sigma_max + 2.0 * sx_max
        gamma = 1.0 + (zc2 / 4.0) * (
            theta
            + theta * theta * kappa
            + 4.0 * (sx_max * sx_max) * kappa * math.sqrt(1.0 + (theta * theta) * (kappa * kappa))
        )
        if not math.isfinite(gamma):
            return cap
        return gamma

    def _ensure(self, t: float) -> None:
        if self._gain_time != t:
            self.refresh_gains(t)


def gain_F(a: ControlAgent, t: float) -> np.ndarray:
    """Time-varying feedback gain -B_i^T Phi(X_i)(t) / max(zeta_i, 1)."""
    a._ensure(t)
    return a._F


def gain_L(a: ControlAgent, t: float) -> np.ndarray:
    """Time-varying injection gain -Phi(Y_i)(t) C_i^T / max(zeta_i, 1)."""
    a._ensure(t)
    return a._L


def gamma_i(a: ControlAgent, t: float) -> float:
    """Self-computed coupling-gain certificate value (>= 1).

    Exact formula; returns params.gamma_cap when the conditioning ratio
    is undefined (fresh agent, zero states) or the value overflows.
    Note the clamp max(zeta, 1) is applied wherever zeta enters squared,
    matching the clamps in the two gain formulas.
    """
    a._ensure(t)
    return a._gamma
