"""The self-organizing control agent.

Each agent owns one plant channel and reads three of its local flow
states: the gain-flow iterate X_i, the dual iterate Y_i and the size
estimate zeta_i.  :meth:`ControlAgent.refresh_gains` takes those and
returns its time-varying feedback gain, injection gain and coupling
gain; the sample-and-hold inverse filter keeps the gains bounded while
the matrix iterates pass through singular transients.

The coupling gain applied is Theorem 1's threshold capped at
``AgentParams.gamma_cap``; the agent applies the cap itself.  The
formula lives in :func:`bass.gamma_threshold` only.  The agent
evaluates it with local substitutes for what it cannot see: its clamped
size estimate zeta = max(zeta_i, 1) for N, sigma_max(Phi(X_i)) / zeta
and sigma_max(Phi(Y_i)) / zeta as bounds on every agent's |F_j| and
|L_j|, and Mohar's 4 / zeta^2 for the graph's lambda2.  kappa is the
conditioning ratio of the held Phi(X_i) and of zeta^2 Y_i, which at
converged flows are N X*^{-1} and N Y*: the certificate's own kappa.
Where two O(n^2) norm bounds on Y's singular values already prove that
the formula reaches the cap, no SVD of Y is taken, and the gain is the
one the exact formula would give, bit for bit.
:meth:`ControlAgent.threshold` gives the uncapped value.

An agent never sees another agent's channel maps or the plant state,
only its own measurement and the neighbors' broadcast states.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .bass import _theta_bound, gamma_threshold
from .matlib import as_matrix, induced_2norm, inverse, singular_values
from .plant import Channel, normalize_channel

__all__ = [
    "AgentParams",
    "PhiFilter",
    "ControlAgent",
]

# Conditioning threshold standing in for the exact det != 0 test.
PHI_SINGULARITY_RTOL = 1e-10

# Relative slack delta of the norm bounds on Y's singular values that
# prove the coupling-gain cap without an SVD (ControlAgent.refresh_gains).
# It covers the SVD's absolute error of about p(n) eps |Y|.
SIGMA_BOUND_SLACK = 1e-6
# Below this Frobenius norm, sqrt(tiny / eps) = 2^-485, squares that
# underflowed may hide more of a column norm than the slack covers.
_NORM_FLOOR = 2.0**-485


class PhiFilter:
    """Sample-and-hold matrix-inverse filter.

    At each sample instant k*T the filter inverts its input if the input
    is numerically nonsingular and otherwise keeps the previous hold, so
    the output is piecewise-constant, always finite, and converges to
    the inverse of whatever the input converges to.  The initial hold is
    the identity (bounded, invertible, forgotten after the first valid
    sample).
    """

    def __init__(self, period: float, dim: int):
        if period <= 0:
            raise ValueError("filter period must be positive")
        self.period = float(period)
        self.held = np.eye(dim)
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
        if not ts.size or self.sample_index(ts[-1]) <= self.last_sample_index:
            # no sample falls due: every step keeps the current hold
            if ts.size:
                self._last_t = max(self._last_t, float(ts[-1]))
            return self.held[None], self._held_svals[None], np.zeros(ts.size, dtype=np.intp)
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
        self._last_t = max(self._last_t, float(ts[-1]))
        return np.stack(held), np.stack(svals), np.cumsum(which)


@dataclass(frozen=True)
class AgentParams:
    """Flow and filter parameters shared by one agent's subsystems.

    gamma_cap bounds the coupling gain that the agent applies: the
    certificate formula (:meth:`ControlAgent.threshold`) can be
    astronomically conservative, but an explicit fixed-step integrator
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
    """One agent's inverse filters and its self-computed gains.

    :meth:`refresh_gains` maps the agent's own states X_i, Y_i and
    zeta_i at a time t to its gains (F_i, L_i, gamma_i), and
    :meth:`threshold` gives the uncapped gamma_i.  Besides its channel
    and parameters, the only state an agent carries from one call to the
    next is the hold of its two inverse filters, so the times of
    successive calls must not decrease.  The simulator keeps
    one agent per active channel and calls it once per chunk of steps,
    with the agent's states at every step of the chunk.
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
        self.params = params
        self.n = n
        self.phi_x = PhiFilter(params.t_phi, n)
        self.phi_y = PhiFilter(params.t_phi, n)
        self._norm_a = induced_2norm(self.A)

    def refresh_gains(self, t, X, Y, zeta):
        """Sample the inverse filters at time t and return ``(F, L, gamma)``.

        * ``F = -B_i^T Phi(X_i)(t) / max(zeta_i, 1)``, the feedback gain;
        * ``L = -Phi(Y_i)(t) C_i^T / max(zeta_i, 1)``, the injection gain;
        * gamma, the coupling gain as applied: ``min(threshold,
          params.gamma_cap)``, where the threshold is the value
          :meth:`threshold` gives at the same inputs and holds.

        The threshold needs Y's extreme singular values, but the applied
        gain needs them only where the threshold falls below the cap.
        So the formula is first evaluated at two O(n^2) bounds per step,
        ``hi = (|Y|_F / sqrt(n)) (1 - delta) <= sigma_max(Y)`` and ``lo =
        min_j |Y e_j| + delta |Y|_F >= sigma_min(Y)``, with delta =
        ``SIGMA_BOUND_SLACK``.  Y enters the formula through kappa only,
        which does not decrease in sigma_max and does not increase in
        sigma_min, and :func:`bass.gamma_threshold` does not decrease in
        kappa; each of these operations is monotone under rounding.
        delta covers the SVD's absolute error (about p(n) eps |Y|_2,
        Golub and Van Loan, 8.6).
        So where the value at the bounds reaches the cap, or its
        denominator vanishes, the exact value does too, and the gain is
        the cap bit for bit.  A NaN or overflowing value at the bounds
        proves nothing, and neither do norms so small that their squares
        may have underflowed, unless Y is exactly zero.  Only the steps
        left unproven take an SVD of Y and the exact formula.

        t may also be a 1-D array of K nondecreasing times, one call for a
        stretch of steps: X and Y are then ``(K, n, n)`` stacks and zeta a
        length-K array (an ``(n, n)`` matrix or a scalar stands for every
        step), and F, L and gamma come out as stacks over the K times,
        bit for bit what K scalar calls in turn would give.  The filters
        are updated only where a sample instant falls due, and the gains
        of all K times are computed at once.

        With Y None (state feedback: no observer, zeta 0) only Phi(X) is
        sampled, and L and gamma are None.
        """
        times = np.asarray(t, dtype=float)
        ts = times.reshape(-1)
        k, n = ts.size, self.n
        zc = np.maximum(np.broadcast_to(np.asarray(zeta, dtype=float), (k,)), 1.0)
        zs = zc[:, None, None]
        phi_x, sx, ix = self.phi_x.hold(np.broadcast_to(X, (k, n, n)), ts)
        f = (-(self.B.T @ phi_x))[ix] / zs
        if Y is None:
            return (f[0] if times.ndim == 0 else f), None, None
        ys = np.broadcast_to(Y, (k, n, n))
        phi_y, sy_phi, iy = self.phi_y.hold(ys, ts)
        l = (-(phi_y @ self.C.T))[iy] / zs
        held = (sx[ix, 0], sx[ix, -1], sy_phi[iy, 0])
        cap = self.params.gamma_cap
        gamma = np.full(k, cap)
        need = ~(self._gamma_formula(zc, *held, *_singular_value_bounds(ys)) >= cap)
        if need.any():
            sy = np.linalg.svd(ys[need], compute_uv=False)
            exact = self._gamma_formula(zc[need], *(h[need] for h in held), sy[:, 0], sy[:, -1])
            gamma[need] = np.fmin(exact, cap)
        if times.ndim == 0:
            return f[0], l[0], float(gamma[0])
        return f, l, gamma

    def threshold(self, Y, zeta) -> float:
        """The exact threshold formula at Y, zeta and the current filter holds.

        This is the agent's coupling-gain certificate value (>= 1), with
        the clamp max(zeta, 1) wherever zeta enters squared, as in the
        two gains.  It is ``params.gamma_cap`` where the conditioning
        ratio is undefined (zero Y, as in a fresh agent) or the value
        overflows.  It is not capped otherwise: :meth:`refresh_gains`
        applies the cap.  Takes one SVD of Y.
        """
        held = [np.array([v]) for v in (self.phi_x.sigma_max, self.phi_x.sigma_min, self.phi_y.sigma_max)]
        sy = np.linalg.svd(np.asarray(Y, dtype=float)[None], compute_uv=False)
        zc = np.array([max(float(zeta), 1.0)])
        value = float(self._gamma_formula(zc, *held, sy[:, 0], sy[:, -1])[0])
        return value if np.isfinite(value) else self.params.gamma_cap

    def _gamma_formula(self, zc, sx_max, sx_min, phi_y_max, sy_max, sy_min) -> np.ndarray:
        """The threshold at K steps, from the clamped zeta ``zc``, the
        extreme singular values of the held Phi(X), the largest one of
        the held Phi(Y) and the extreme ones of Y: one plus
        :func:`bass.gamma_threshold` at the agent's local substitutes
        (see the module docstring), with kappa from Phi(X) and Y.  It is
        +inf where kappa's denominator vanishes and NaN where the value
        overflows or is NaN."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            zc2 = zc * zc
            den = self.params.beta * np.minimum(sx_min, zc2 * sy_min)
            kappa = np.maximum(sx_max, zc2 * sy_max) / den
            max_f = sx_max / zc
            theta = _theta_bound(self._norm_a, max_f, phi_y_max / zc, zc)
            gamma = 1.0 + gamma_threshold(theta, kappa, max_f, zc, 4.0 / zc2)
        return np.where(den <= 0.0, np.inf, np.where(np.isfinite(gamma), gamma, np.nan))


def _singular_value_bounds(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)`` per matrix of the stack ys, with hi at most and lo at
    least the largest and the smallest singular value np.linalg.svd
    computes; see :meth:`ControlAgent.refresh_gains`.  lo is NaN where
    the norms are too small to trust and the matrix is not zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        cols = np.einsum("kij,kij->kj", ys, ys)  # squared column norms
        fro = np.sqrt(cols.sum(axis=1))
        hi = fro * ((1.0 - SIGMA_BOUND_SLACK) / np.sqrt(ys.shape[-1]))
        lo = np.sqrt(cols.min(axis=1)) + SIGMA_BOUND_SLACK * fro
    small = fro < _NORM_FLOOR
    if small.any():
        lo[small & ys.any(axis=(1, 2))] = np.nan
    return hi, lo
