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

    def sample_index(self, t):
        """The index ``floor(t / T + 1e-9)`` of the sample instant due at t.

        t may be an array.  The 1e-9 slack keeps an instant reached as
        ``step * h`` from rounding down to the previous one.
        """
        return np.floor(np.asarray(t, dtype=float) / self.period + 1e-9).astype(np.int64)

    def update(self, x: np.ndarray, t: float) -> np.ndarray:
        """Advance the sample clock to time t and return the held value."""
        if t < self._last_t - 1e-12:
            raise ValueError(f"filter time must be nondecreasing ({t} < {self._last_t})")
        self._last_t = t
        k = int(self.sample_index(t))
        if k > self.last_sample_index:
            self.last_sample_index = k
            sv = singular_values(x)
            if sv.size and sv[-1] > PHI_SINGULARITY_RTOL * max(1.0, sv[0]):
                self.held = inverse(x)
                self._held_svals = sv[::-1].copy() ** -1.0
        return self.held

    def hold(self, xs: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the sample clock over the nondecreasing times ``ts``.

        ``xs[j]`` is the input at ``ts[j]``.  :meth:`update` is called
        only at the steps where a sample falls due, so the holds are the
        ones a call at every step would give.  Returns ``(held, svals,
        which)``: the distinct held values and their singular values
        (descending) as stacks, and per step the index of its hold.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts[0] < self._last_t - 1e-12 or np.any(ts[1:] < ts[:-1])):
            raise ValueError("filter times must be nondecreasing")
        ks = self.sample_index(ts)
        before = np.maximum.accumulate(np.concatenate([[self.last_sample_index], ks[:-1]]))
        due = np.flatnonzero(ks > before)
        held, svals = [self.held], [self._held_svals]
        for j in due:
            self.update(xs[j], float(ts[j]))
            held.append(self.held)
            svals.append(self._held_svals)
        which = np.zeros(ts.size, dtype=np.intp)
        which[due] = 1
        if ts.size:
            self._last_t = max(self._last_t, float(ts[-1]))
        return np.stack(held), np.stack(svals), np.cumsum(which)


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
    per active channel this way, once per chunk of steps, with the
    agent's states at every step of the chunk; for an array of times
    the three readers return stacks over them.
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

    def refresh_gains(self, t) -> None:
        """Sample the inverse filters and recompute all gains at time t.

        t may also be a 1-D array of K nondecreasing times, one call for a
        stretch of steps: X and Y are then ``(K, n, n)`` stacks and zeta a
        length-K array (an ``(n, n)`` matrix or a scalar stands for every
        step), and F, L and gamma come out as stacks over the K times,
        bit for bit what K scalar calls in turn would give.  The filters
        are updated only where a sample instant falls due, and the gains
        of all K times are computed at once.
        """
        times = np.asarray(t, dtype=float)
        ts = times.reshape(-1)
        k, n = ts.size, self.n
        xs = np.broadcast_to(self.X, (k, n, n))
        ys = np.broadcast_to(self.Y, (k, n, n))
        zc = np.maximum(np.broadcast_to(np.asarray(self.zeta, dtype=float), (k,)), 1.0)
        phi_x, sx, ix = self.phi_x.hold(xs, ts)
        phi_y, sy_phi, iy = self.phi_y.hold(ys, ts)
        zs = zc[:, None, None]
        f = (-(self.B.T @ phi_x))[ix] / zs
        l = (-(phi_y @ self.C.T))[iy] / zs
        gamma = self._gamma_formula(zc, sx[ix], sy_phi[iy, 0], np.linalg.svd(ys, compute_uv=False))
        if times.ndim == 0:
            f, l, gamma = f[0], l[0], float(gamma[0])
        self._F, self._L, self._gamma = f, l, gamma
        self._gain_time = times

    def _gamma_formula(self, zc, sx, phi_y_max, sy) -> np.ndarray:
        """The threshold formula at K steps, from the clamped zeta ``zc``,
        the singular values ``sx`` of the held Phi(X) (descending), the
        largest one of the held Phi(Y) and those of Y (descending).  A
        vanishing denominator, an overflow and a NaN all take the cap."""
        cap = self.params.gamma_cap
        sx_max, sx_min = sx[:, 0], sx[:, -1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            zc2 = zc * zc
            den = self.params.beta * np.minimum(sx_min, zc2 * sy[:, -1])
            kappa = np.maximum(sx_max, zc2 * sy[:, 0]) / den
            theta = self._norm_a + phi_y_max + 2.0 * sx_max
            gamma = 1.0 + (zc2 / 4.0) * (
                theta
                + theta * theta * kappa
                + 4.0 * (sx_max * sx_max) * kappa * np.sqrt(1.0 + (theta * theta) * (kappa * kappa))
            )
        return np.where((den <= 0.0) | ~np.isfinite(gamma), cap, gamma)

    def _ensure(self, t) -> None:
        if self._gain_time is None or not np.array_equal(self._gain_time, t):
            self.refresh_gains(t)


def gain_F(a: ControlAgent, t) -> np.ndarray:
    """Time-varying feedback gain -B_i^T Phi(X_i)(t) / max(zeta_i, 1)."""
    a._ensure(t)
    return a._F


def gain_L(a: ControlAgent, t) -> np.ndarray:
    """Time-varying injection gain -Phi(Y_i)(t) C_i^T / max(zeta_i, 1)."""
    a._ensure(t)
    return a._L


def gamma_i(a: ControlAgent, t):
    """Self-computed coupling-gain certificate value (>= 1).

    Exact formula; returns params.gamma_cap when the conditioning ratio
    is undefined (fresh agent, zero states) or the value overflows.
    Note the clamp max(zeta, 1) is applied wherever zeta enters squared,
    matching the clamps in the two gain formulas.
    """
    a._ensure(t)
    return a._gamma
