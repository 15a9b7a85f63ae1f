"""Deterministic fixed-step simulation of the coupled control network.

Integrates the plant, every active agent's observer and flow states,
and the informer with classical RK4 at a fixed step h, applying join
and leave events between steps.  Leaving removes an agent's states and
edges without touching anyone else; joining inserts fresh states
(zeros unless configured); survivors' integral states are never reset.

:func:`validate_scenario` is the one reader of a scenario: it checks
every input and returns the interval table (interval i + 1 is opened by
``events[i]``), which the runner walks once.  An interval whose closing
event snaps to its opening step is folded into the next one.

Gains are frozen over each step at their value at t = step * h, so
within a step the whole system is affine and splits in two:

* The gain flow (Z, X), the dual flow (W, Y) and the size estimator
  (psi, zeta and the informer) are linear time-invariant for a whole
  interval and never read the plant or the observers.  RK4 on
  ``ydot = A y + c`` is exactly ``y <- T4(hA) y + h S3(hA) c``
  (:func:`matlib.rk4_propagator`), so each flow gets its one-step map
  once per interval, from its operator in :mod:`consensus`.  The two
  matrix flows are kept in the eigenbasis of the agent-graph Laplacian,
  where they split into one 2 n^2 system per mode, so their maps take
  O(N n^4) memory.  The size estimator gets one small dense map.
* Plant plus observers, of size n (N + 1), form one matrix per step,
  built from every agent's frozen gains; :func:`rk4_step` advances it.

Since an agent's gains depend on its own X, Y and zeta only, the runner
works in chunks of K steps that never cross an event.  (a) The flows
advance K steps and keep every step's value.  (b) Each active agent, a
:class:`agent.ControlAgent`, gets its X, Y and zeta stacks over the
chunk and refreshes its gains for all K steps in one ``refresh_gains``
call: its inverse filters sample only where a sample instant falls due,
and F, L and gamma are computed over the chunk at once.  (c) The K
frozen-gain observer maps are built in one batched pass, ``rk4_step``
advances plant and observers step by step, and the chunk's samples are
recorded together.  K is set per interval by a fixed byte budget for the
chunk's stacks (``CHUNK_BYTES``); the results do not depend on it.  A
non-finite state raises IntegrationError with the time of the first step
that produced it, whether plant, observers or a flow.  Traces are
bit-reproducible for a given scenario.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bass
from .agent import AgentParams, ControlAgent, gain_F, gain_L, gamma_i
from .consensus import INFORMER_ID, flow_drift, pi_flow_operator, size_flow_operator
from .graph import Graph, is_connected, lambda2, laplacian
from .matlib import min_real_part, rk4_propagator
from .plant import Channel, PlantModel, is_controllable, is_observable, normalize_channel, normalize_plant

__all__ = [
    "IntegrationError",
    "ScenarioError",
    "SolverSettings",
    "StaticGains",
    "Event",
    "Scenario",
    "Interval",
    "Trace",
    "rk4_step",
    "validate_scenario",
    "run_scenario",
    "build_load_transport_scenario",
    "scenario_to_json",
    "scenario_from_json",
    "write_trace_csv",
    "write_events_csv",
    "summary_dict",
]

MODES = ("algorithm1", "static_gains", "state_feedback")

# Bytes of per-step stacks one chunk of steps may hold: a chunk is
# CHUNK_BYTES // (8 * (s^2 + 10 N n^2)) steps long, where s^2 is one
# observer map and 10 n^2 per agent covers its flow values, X, Y, gains
# and observer-map terms.
CHUNK_BYTES = 1 << 20


class IntegrationError(RuntimeError):
    """Non-finite state or derivative during integration."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} at t={time:.6g}")
        self.time = time


class ScenarioError(ValueError):
    """Scenario configuration violates a structural requirement."""


def rk4_step(f, state: np.ndarray, t: float, h: float) -> np.ndarray:
    """One classical 4-stage Runge-Kutta step of xdot = f(t, x)."""
    if h <= 0:
        raise ValueError("step size must be positive")
    k1 = f(t, state)
    k2 = f(t + 0.5 * h, state + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, state + (0.5 * h) * k2)
    k4 = f(t + h, state + h * k3)
    out = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationError("non-finite state after RK4 stage", t)
    return out


@dataclass(frozen=True)
class SolverSettings:
    h: float = 1e-3
    t_end: float = 10.0
    record_every: int = 10

    def __post_init__(self):
        if self.h <= 0 or self.t_end <= 0:
            raise ValueError("h and t_end must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class StaticGains:
    """Fixed observer configuration: one gamma plus per-agent F and L."""

    gamma: float
    F: dict[int, np.ndarray]
    L: dict[int, np.ndarray]


@dataclass(frozen=True)
class Event:
    """One join/leave at `time`; edges are applied atomically with it."""

    time: float
    kind: str
    agent_id: int
    channel: Channel | None = None
    initial_state: dict | None = None
    add_edges: tuple = ()
    remove_edges: tuple = ()

    def __post_init__(self):
        if self.kind not in ("join", "leave"):
            raise ValueError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class Scenario:
    plant: PlantModel
    x0: np.ndarray
    initial_agents: tuple[int, ...]
    graph: Graph
    solver: SolverSettings
    params: AgentParams
    events: tuple[Event, ...] = ()
    mode: str = "algorithm1"
    static: StaticGains | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).ravel())
        object.__setattr__(self, "initial_agents", tuple(sorted(self.initial_agents)))
        object.__setattr__(self, "events", tuple(self.events))


@dataclass(frozen=True)
class Interval:
    """One constant-membership stretch of the run."""

    t_start: float
    t_end: float
    actives: tuple[int, ...]
    channels: tuple[Channel, ...]  # normalized, in ``actives`` order
    graph: Graph            # full graph (informer included when present)
    agent_graph: Graph      # induced subgraph on the agents
    X_star: np.ndarray | None
    Y_star: np.ndarray | None


@dataclass
class Trace:
    """Recorded run: uniform samples, NaN marks an absent agent."""

    times: np.ndarray
    x: np.ndarray
    agent_ids: tuple[int, ...]
    xhat: dict[int, np.ndarray]
    zeta: dict[int, np.ndarray]
    u: dict[int, np.ndarray]
    err_obs: dict[int, np.ndarray]
    err_x: dict[int, np.ndarray]
    err_y: dict[int, np.ndarray]
    informer_zeta: np.ndarray
    events: list
    intervals: list
    mode: str
    # self-organized gains at the final time (algorithm1 mode only):
    # per agent id a dict with F, L, gamma (uncapped certificate value),
    # gamma_effective (as applied), and zeta
    final_gains: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# validation


def validate_scenario(scenario: Scenario) -> list[Interval]:
    """Check every input and return the interval table the runner walks.

    Interval i + 1 is opened by ``events[i]``.  Join states and static
    gains are checked here too, so a run never stops on a bad input.
    """
    s = scenario
    if s.mode not in MODES:
        raise ScenarioError(f"unknown controller mode {s.mode!r}")
    if s.mode == "static_gains" and s.static is None:
        raise ScenarioError("static_gains mode requires gains")
    n = s.plant.n
    if s.x0.size != n:
        raise ScenarioError(f"x0 has length {s.x0.size}, plant state dimension is {n}")
    if not s.initial_agents:
        raise ScenarioError("at least one initial agent required")
    if any(a <= 0 for a in s.initial_agents):
        raise ScenarioError("agent ids must be positive (0 is the informer)")
    if not np.all(np.isfinite(s.x0)):
        raise ScenarioError("x0 contains non-finite entries")
    lo = max(0.0, -min_real_part(s.plant.A))
    if s.params.beta <= lo:
        raise ScenarioError(f"beta={s.params.beta} must exceed max(0, -min Re eig(A)) = {lo:.6g}")
    h, t_end = s.solver.h, s.solver.t_end
    times = [e.time for e in s.events]
    if times != sorted(times):
        raise ScenarioError("events must be sorted by time")
    for e in s.events:
        if not (0.0 < e.time < t_end):
            raise ScenarioError(f"event time {e.time} outside (0, {t_end})")
        if e.kind == "join" and e.agent_id <= 0:
            raise ScenarioError("joining agent id must be positive")

    informer_needed = s.mode == "algorithm1"
    expected_nodes = set(s.initial_agents) | ({INFORMER_ID} if informer_needed else set())
    if set(s.graph.nodes) != expected_nodes:
        raise ScenarioError(
            f"graph nodes {s.graph.nodes} must be the initial agents"
            + (" plus the informer 0" if informer_needed else "")
        )

    channels: dict[int, Channel] = {c.id: c for c in normalize_plant(s.plant).channels}
    missing = [a for a in s.initial_agents if a not in channels]
    if missing:
        raise ScenarioError(f"initial agents {missing} have no channel in the plant")

    def check_static(chans: tuple[Channel, ...]):
        for ch in chans:
            for name, gains, shape in (("F", s.static.F, (ch.m, n)), ("L", s.static.L, (n, ch.p))):
                if ch.id not in gains:
                    raise ScenarioError(f"static gains: agent {ch.id} has no {name}")
                got = np.shape(gains[ch.id])
                if got != shape:
                    raise ScenarioError(
                        f"static gains: agent {ch.id} has {name} of shape {got}, expected {shape}"
                    )

    def interval(t_start: float, t_stop: float, g: Graph, actives: tuple[int, ...]) -> Interval:
        chans = tuple(channels[a] for a in actives)
        if s.mode == "static_gains":
            check_static(chans)
        b = np.hstack([c.B for c in chans])
        c = np.vstack([c.C for c in chans])
        if not is_controllable(s.plant.A, b):
            raise ScenarioError(f"plant not controllable with agents {actives}")
        if not is_observable(s.plant.A, c):
            raise ScenarioError(f"plant not observable with agents {actives}")
        x_star = bass.bass_solve(s.plant.A, b, s.params.beta, check_controllability=False).X_star
        y_star = bass.dual_bass_solve(s.plant.A, c, s.params.beta, check_observability=False).Y_star
        return Interval(t_start, t_stop, actives, chans, g, g.subgraph(actives), x_star, y_star)

    def check_graph(g: Graph, actives: tuple[int, ...], when: str):
        ga = g.subgraph(actives)
        if not is_connected(ga):
            raise ScenarioError(f"agent graph disconnected {when}")
        if informer_needed and not is_connected(g):
            raise ScenarioError(f"full graph (with informer) disconnected {when}")

    intervals: list[Interval] = []
    g = s.graph
    actives = tuple(sorted(s.initial_agents))
    check_graph(g, actives, "initially")
    t_prev = 0.0
    for e in s.events:
        intervals.append(interval(t_prev, e.time, g, actives))
        if e.kind == "join":
            if e.agent_id in actives:
                raise ScenarioError(f"agent {e.agent_id} already active at t={e.time}")
            if e.channel is None and e.agent_id not in s.plant.ids:
                raise ScenarioError(f"agent {e.agent_id} has no channel in the plant and none supplied")
            chan = e.channel if e.channel is not None else s.plant.channel(e.agent_id)
            if chan.id != e.agent_id:
                raise ScenarioError(f"event channel id {chan.id} != agent id {e.agent_id}")
            channels[e.agent_id] = normalize_channel(chan)
            _coerce_initial_state(n, e.initial_state, e.agent_id)
            g = g.with_node(e.agent_id, e.add_edges)
            if e.remove_edges:
                g = g.without_edges(e.remove_edges)
            actives = tuple(sorted(actives + (e.agent_id,)))
        else:
            if e.agent_id not in actives:
                raise ScenarioError(f"agent {e.agent_id} not active at t={e.time}")
            g = g.without_node(e.agent_id)
            if e.add_edges:
                g = g.with_edges(e.add_edges)
            if e.remove_edges:
                g = g.without_edges(e.remove_edges)
            actives = tuple(a for a in actives if a != e.agent_id)
            if not actives:
                raise ScenarioError(f"no agents left after t={e.time}")
        check_graph(g, actives, f"after event at t={e.time}")
        t_prev = e.time
    intervals.append(interval(t_prev, t_end, g, actives))
    return intervals


# ---------------------------------------------------------------------------
# the runner


def _agent_state_zeros(n: int) -> dict:
    return {
        "xhat": np.zeros(n),
        "Z": np.zeros((n, n)),
        "X": np.zeros((n, n)),
        "W": np.zeros((n, n)),
        "Y": np.zeros((n, n)),
        "psi": 0.0,
        "zeta": 0.0,
    }


def _coerce_initial_state(n: int, init: dict | None, aid: int) -> dict:
    """Agent ``aid``'s state at its join: zeros, overridden by ``init``."""
    st = _agent_state_zeros(n)
    for key, val in (init or {}).items():
        if key not in st:
            raise ScenarioError(
                f"agent {aid}: unknown initial state field {key!r}, expected one of {sorted(st)}"
            )
        try:
            arr = np.asarray(val, dtype=float)
        except (TypeError, ValueError):
            raise ScenarioError(f"agent {aid}: initial state field {key!r} is not numeric") from None
        if arr.shape != np.shape(st[key]):
            raise ScenarioError(
                f"agent {aid}: initial state field {key!r} has shape {arr.shape}, expected {np.shape(st[key])}"
            )
        st[key] = float(arr) if key in ("psi", "zeta") else arr
    return st


def _pi_flow_map(drift, k, gamma, lam, forcing, h):
    """Per-step RK4 map of one PI flow in the agent-Laplacian eigenbasis.

    With Laplacian eigenvalues ``lam`` the flow splits into one system
    per mode j over ``y_j = (vec Z_j, vec X_j)``, whose operator is
    :func:`consensus.pi_flow_operator` on the 1 x 1 Laplacian
    ``[[lam_j]]``; ``forcing`` holds the modal forcing rows vec Q_j.

    Returns ``(step, offset)``: ``step`` is the stack of
    ``T4(h B_j) - I = B_j h S3(h B_j)`` and one RK4 step is
    ``y + (step y + offset)``.  The increment is formed without the
    identity: rounding T4 itself, which is within O(h) of I, would move
    the fixed point of the map by about ``eps / (h * rate)`` of |y|.
    """
    m = drift.shape[0]
    step = np.empty((lam.size, 2 * m, 2 * m))
    offset = np.empty((lam.size, 2 * m))
    # one mode at a time keeps the temporaries at a single block's size
    for j, lam_j in enumerate(lam):
        block, c = pi_flow_operator(drift, k, gamma, [[lam_j]], forcing[j])
        _, s = rk4_propagator(block, h)
        step[j] = block @ s
        offset[j] = s @ c
    return step, offset


def _coupling(lap: np.ndarray, n: int) -> np.ndarray:
    """``L (x) I_n`` laid out as ``(N, n, N, n)``."""
    return lap[:, None, :, None] * np.eye(n)[None, :, None, :]


def _observer_map(a, k0, jm, omega, geff, coupling):
    """The frozen-gain matrix of plant plus observers over (x, xhat_1..N).

    ``xdot = A x + sum_i K0_i xhat_i`` and
    ``xhatdot_i = Omega_i xhat_i - Jm_i x - geff_i sum_j L_ij xhat_j``,
    with ``coupling`` from :func:`_coupling`.  ``k0``, ``jm``, ``omega``
    are ``(..., N, n, n)`` and ``geff`` is ``(..., N)``: leading axes give
    a stack of maps.
    """
    *batch, n_agents, n, _ = k0.shape
    g = np.empty((*batch, n_agents + 1, n, n_agents + 1, n))
    g[..., 0, :, 0, :] = a
    g[..., 0, :, 1:, :] = np.swapaxes(k0, -3, -2)
    g[..., 1:, :, 0, :] = -jm
    obs = g[..., 1:, :, 1:, :]
    np.multiply(-geff[..., None, None, None], coupling, out=obs)
    idx = np.arange(n_agents)
    # the diagonal blocks come out agent-first: (N, ..., n, n)
    obs[..., idx, :, idx, :] += np.moveaxis(omega, -3, 0)
    size = (n_agents + 1) * n
    return g.reshape(*batch, size, size)


class _Runner:
    """Chunked fixed-step integration of one scenario; see the module docstring.

    Inside an interval the run state is: ``state`` = (x, xhat_1..N) (x
    alone in state_feedback mode), the gain and dual flows ``zx``,
    ``wy`` as ``(N, 2 n^2)`` rows of modal coordinates, the size
    estimator ``sz`` = (psi, zeta) over informer and agents.  Each
    active agent's :class:`ControlAgent` holds its inverse filters and
    gains and lives from its join to its leave.  :meth:`_chunk` runs
    ``chunk`` steps at a time, keeping per-step stacks of the flows
    (``*_steps``), X and Y in agent coordinates (``x_mats``, ``y_mats``),
    the gains (``f``, ``l``, ``gamma``) and the observer maps (``g``).
    At an event the state leaves the interval as one row per agent id
    (:meth:`_export`) and the next interval stacks the rows of its
    members (:meth:`_enter`).
    """

    def __init__(self, scenario: Scenario):
        self.s = scenario
        self.intervals = validate_scenario(scenario)
        self.mode = scenario.mode
        self.n = scenario.plant.n
        self.A = scenario.plant.A
        self.h = scenario.solver.h
        self.total_steps = int(round(scenario.solver.t_end / self.h))
        self.record_every = scenario.solver.record_every
        beta = scenario.params.beta
        self.drift_x = flow_drift(self.A, beta)
        self.drift_y = flow_drift(self.A.T, beta)
        self.agents: dict[int, ControlAgent] = {}

    # -- per-interval set-up ---------------------------------------------

    def _enter(self, iv: Interval, x: np.ndarray, rows: dict, informer) -> None:
        """Build the interval's maps and load the members' rows into them.

        A member without a :class:`ControlAgent` (a joiner) gets a fresh one.
        """
        p = self.s.params
        n, h, mode = self.n, self.h, self.mode
        actives = iv.actives
        n_agents = len(actives)
        self.actives = actives
        self.iv = iv
        lap = np.asarray(laplacian(iv.agent_graph), dtype=float)
        self.coupling = _coupling(lap, n)
        chans = iv.channels
        self.scale = [c.input_scale for c in chans]
        self.widths = [(c.m, c.p) for c in chans]
        m_max = max(c.m for c in chans)
        p_max = max(c.p for c in chans)
        self.b = np.zeros((n_agents, n, m_max))
        self.c = np.zeros((n_agents, p_max, n))
        for i, (a, ch) in enumerate(zip(actives, chans)):
            self.b[i, :, : ch.m] = ch.B
            self.c[i, : ch.p, :] = ch.C
            if a not in self.agents:
                self.agents[a] = ControlAgent(self.A, ch, p)
        self.members = [self.agents[a] for a in actives]
        self.f_shape = (n_agents, m_max, n)
        self.l_shape = (n_agents, n, p_max)

        def stack(key):
            return np.array([rows[a][key] for a in actives])

        if mode == "state_feedback":
            self.state = x.copy()
        else:
            self.state = np.concatenate([x, stack("xhat").ravel()])
        size = self.state.size
        self.chunk = max(1, CHUNK_BYTES // (8 * (size * size + 10 * n_agents * n * n)))

        if mode == "static_gains":
            sg = self.s.static
            f = np.zeros(self.f_shape)
            for i, a in enumerate(actives):
                f[i, : chans[i].m] = np.asarray(sg.F[a], dtype=float)
            jm = np.stack(
                [n_agents * np.asarray(sg.L[a], dtype=float) @ chans[i].C for i, a in enumerate(actives)]
            )
            k0 = self.b @ f
            g = _observer_map(
                self.A, k0, jm, self.A + n_agents * k0 + jm, np.full(n_agents, sg.gamma), self.coupling
            )
            self.static_maps = (f, g)
            return

        # gain flow (and, in algorithm1, dual flow and size estimator)
        self.prop_zx = self.prop_wy = None  # free the last interval's maps first
        lam, v = np.linalg.eigh(lap)
        self.v = v
        nn = n * n
        self.zx = v.T @ np.concatenate(
            [stack("Z").reshape(n_agents, nn), stack("X").reshape(n_agents, nn)], axis=1
        )
        bbt = 2.0 * self.b @ np.swapaxes(self.b, 1, 2)
        self.prop_zx = _pi_flow_map(
            self.drift_x, p.k_c, p.gamma_c, lam, v.T @ bbt.reshape(n_agents, nn), h
        )
        if mode != "algorithm1":
            return
        self.wy = v.T @ np.concatenate(
            [stack("W").reshape(n_agents, nn), stack("Y").reshape(n_agents, nn)], axis=1
        )
        ctc = 2.0 * np.swapaxes(self.c, 1, 2) @ self.c
        self.prop_wy = _pi_flow_map(
            self.drift_y, p.k_o, p.gamma_o, lam, v.T @ ctc.reshape(n_agents, nn), h
        )
        # size estimator over (psi, zeta) of informer 0 (first in id
        # order) and the agents
        ops, drive = size_flow_operator(p.k_s, p.gamma_s, laplacian(iv.graph), 0)
        t_sz, s_sz = rk4_propagator(ops, h)
        self.prop_sz = (t_sz, s_sz @ drive)
        self.sz = np.concatenate([[informer[0]], stack("psi"), [informer[1]], stack("zeta")])

    def _export(self) -> tuple[np.ndarray, dict, tuple[float, float]]:
        """The state in agent coordinates: x, one row per agent id, informer."""
        n, nn, mode = self.n, self.n * self.n, self.mode
        cols = {}
        if mode != "state_feedback":
            cols["xhat"] = self.state[n:].reshape(-1, n)
        if mode != "static_gains":
            zx = self.v @ self.zx
            cols["Z"], cols["X"] = zx[:, :nn].reshape(-1, n, n), zx[:, nn:].reshape(-1, n, n)
        informer = (0.0, 0.0)
        if mode == "algorithm1":
            wy = self.v @ self.wy
            cols["W"], cols["Y"] = wy[:, :nn].reshape(-1, n, n), wy[:, nn:].reshape(-1, n, n)
            nb = len(self.actives) + 1
            cols["psi"], cols["zeta"] = self.sz[1:nb], self.sz[nb + 1 :]
            informer = (float(self.sz[0]), float(self.sz[nb]))
        rows = {a: _agent_state_zeros(n) for a in self.actives}
        for key, col in cols.items():
            for a, val in zip(self.actives, col):
                rows[a][key] = val
        return self.state[:n].copy(), rows, informer

    # -- one chunk -----------------------------------------------------------

    def _chunk(self, tr: Trace, s0: int, s1: int) -> None:
        """Steps s0 .. s1 - 1 of the current interval: flows, gains, plant.

        A flow step that turns non-finite cuts the chunk after it; once
        the plant has taken that step too, IntegrationError reports its
        time, as after any other non-finite step.
        """
        h = self.h
        n_adv = min(s1, self.total_steps) - s0  # the final step records only
        failed = None
        if self.mode != "static_gains":
            failed = self._flows(n_adv)
            if failed is not None:
                s1 = s0 + failed + 1
                n_adv = s1 - s0
        steps = np.arange(s0, s1)
        if self.mode == "static_gains":
            f, g = self.static_maps
            self.f = np.broadcast_to(f, (steps.size,) + f.shape)
            self.g = np.broadcast_to(g, (steps.size,) + g.shape)
        else:
            self._gains(steps * h)
        states = np.empty((steps.size, self.state.size))
        state = self.state
        for j in range(steps.size):
            states[j] = state
            if j < n_adv:
                state = rk4_step(lambda _t, y, g=self.g[j]: g @ y, state, (s0 + j) * h, h)
        self.state = state
        rec = np.flatnonzero(steps % self.record_every == 0)
        if rec.size:
            self._record(tr, steps[rec] // self.record_every, rec, states[rec])
        if failed is not None:
            raise IntegrationError("non-finite state after RK4 stage", (s0 + failed) * h)

    def _flows(self, n_adv: int) -> int | None:
        """Advance the flows n_adv steps, keeping each step's value.

        ``self.zx_steps[j]`` (likewise ``wy``, ``sz``) is the value at the
        chunk's step j; the last advance leaves the current value.
        Returns the first j whose advance gave a non-finite value, or
        None; the kept values then stop at step j.
        """
        algorithm1 = self.mode == "algorithm1"
        current = [self.zx] + ([self.wy, self.sz] if algorithm1 else [])
        hists = [np.empty((n_adv + 1,) + y.shape) for y in current]
        for hist, y in zip(hists, current):
            hist[0] = y
        zx = hists[0]
        step_x, off_x = self.prop_zx
        if algorithm1:
            wy, sz = hists[1:]
            step_y, off_y = self.prop_wy
            t_sz, d_sz = self.prop_sz
        # a step that overflows is found below and reported as
        # IntegrationError; the steps after it need no warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n_adv):
                y = zx[j]
                zx[j + 1] = y + ((step_x @ y[..., None])[..., 0] + off_x)
                if algorithm1:
                    y = wy[j]
                    wy[j + 1] = y + ((step_y @ y[..., None])[..., 0] + off_y)
                    sz[j + 1] = t_sz @ sz[j] + d_sz
        bad = np.zeros(n_adv, dtype=bool)
        for hist in hists:
            bad |= ~np.isfinite(hist[1:].reshape(n_adv, hist[0].size)).all(axis=1)
        failed = int(np.argmax(bad)) if bad.any() else None
        last = n_adv if failed is None else failed
        self.zx_steps, self.zx = zx[: last + 1], zx[last].copy()
        if algorithm1:
            self.wy_steps, self.wy = wy[: last + 1], wy[last].copy()
            self.sz_steps, self.sz = sz[: last + 1], sz[last].copy()
        return failed

    def _gains(self, ts: np.ndarray) -> None:
        """Every agent's gains at the times ts, then the K observer maps.

        Each agent refreshes once over the whole chunk from its own X, Y
        and zeta stacks; ``self.f``, ``self.l``, ``self.gamma`` and
        ``self.g`` are stacks over the chunk's steps.
        """
        n, n_agents, k = self.n, len(self.actives), ts.size
        nn = n * n
        self.x_mats = (self.v @ self.zx_steps[:k, :, nn:]).reshape(k, n_agents, n, n)
        self.f = np.zeros((k,) + self.f_shape)
        if self.mode == "state_feedback":
            # Y and zeta stay 0: the zeta clamp makes F_i = -B_i^T Phi(X_i)
            for i, ag in enumerate(self.members):
                ag.X = self.x_mats[:, i]
                ag.refresh_gains(ts)
                self.f[:, i, : self.widths[i][0]] = gain_F(ag, ts)
            self.g = self.A + (self.b @ self.f).sum(axis=1)
            return
        self.y_mats = (self.v @ self.wy_steps[:k, :, nn:]).reshape(k, n_agents, n, n)
        zeta = self.sz_steps[:k, n_agents + 2 :]
        self.l = np.zeros((k,) + self.l_shape)
        self.gamma = np.zeros((k, n_agents))
        for i, ag in enumerate(self.members):
            ag.X, ag.Y, ag.zeta = self.x_mats[:, i], self.y_mats[:, i], zeta[:, i]
            ag.refresh_gains(ts)
            m_i, p_i = self.widths[i]
            self.f[:, i, :m_i] = gain_F(ag, ts)
            self.l[:, i, :, :p_i] = gain_L(ag, ts)
            self.gamma[:, i] = gamma_i(ag, ts)
        zs = zeta[..., None, None]
        k0 = self.b @ self.f
        jm = zs * (self.l @ self.c)
        geff = np.minimum(self.gamma, self.s.params.gamma_cap)
        self.g = _observer_map(self.A, k0, jm, self.A + zs * k0 + jm, geff, self.coupling)

    # -- the loop ----------------------------------------------------------

    def run(self) -> Trace:
        s = self.s
        h = self.h
        n = self.n
        re_every = self.record_every
        widths = {a: c.m for iv in self.intervals for a, c in zip(iv.actives, iv.channels)}
        all_ids = sorted(widths)
        n_samples = self.total_steps // re_every + 1
        times = np.array([i * re_every * h for i in range(n_samples)])
        tr = Trace(
            times=times,
            x=np.full((n_samples, n), np.nan),
            agent_ids=tuple(all_ids),
            xhat={a: np.full((n_samples, n), np.nan) for a in all_ids},
            zeta={a: np.full(n_samples, np.nan) for a in all_ids},
            u={a: np.full((n_samples, widths[a]), np.nan) for a in all_ids},
            err_obs={a: np.full(n_samples, np.nan) for a in all_ids},
            err_x={a: np.full(n_samples, np.nan) for a in all_ids},
            err_y={a: np.full(n_samples, np.nan) for a in all_ids},
            informer_zeta=np.full(n_samples, np.nan),
            events=[(e.time, e.kind, e.agent_id) for e in s.events],
            intervals=self.intervals,
            mode=self.mode,
        )

        # interval i owns steps first[i] .. last[i] - 1; events snap to
        # step boundaries, and the last interval also owns the final
        # sample, which records without stepping
        first = [0] + [int(round(e.time / h)) for e in s.events]
        last = first[1:] + [self.total_steps + 1]
        x, informer = s.x0, (0.0, 0.0)
        rows = {a: _agent_state_zeros(n) for a in s.initial_agents}
        for i, iv in enumerate(self.intervals):
            if i:
                e = s.events[i - 1]
                if e.kind == "join":
                    rows[e.agent_id] = _coerce_initial_state(n, e.initial_state, e.agent_id)
                else:
                    del rows[e.agent_id]
                    self.agents.pop(e.agent_id, None)  # none if it joined at this step
            if first[i] == last[i]:
                continue  # no step of its own: the next event fires at the same step
            self._enter(iv, x, rows, informer)
            for s0 in range(first[i], last[i], self.chunk):
                self._chunk(tr, s0, min(s0 + self.chunk, last[i]))
            x, rows, informer = self._export()

        if self.mode == "algorithm1":
            cap = s.params.gamma_cap
            for i, aid in enumerate(self.actives):
                m_i, p_i = self.widths[i]
                gamma = float(self.gamma[-1, i])
                tr.final_gains[aid] = {
                    "F": self.f[-1, i, :m_i].copy(),
                    "L": self.l[-1, i, :, :p_i].copy(),
                    "gamma": gamma,
                    "gamma_effective": min(gamma, cap),
                    "zeta": float(self.sz[len(self.actives) + 2 + i]),
                }
        return tr

    def _record(self, tr: Trace, ks: np.ndarray, rec: np.ndarray, states: np.ndarray) -> None:
        """Write the samples ``ks``, taken at the chunk's steps ``rec``."""
        n, mode, iv = self.n, self.mode, self.iv
        actives = self.actives
        n_agents = len(actives)
        x = states[:, :n]
        tr.x[ks] = x
        f = self.f[rec]
        if mode == "state_feedback":
            u = (f @ x[:, None, :, None])[..., 0]
        else:
            xhat = states[:, n:].reshape(-1, n_agents, n)
            u = (f @ xhat[..., None])[..., 0]
            err_obs = np.linalg.norm(xhat - x[:, None, :], axis=-1)
        if mode != "static_gains":
            err_x = np.linalg.norm(self.x_mats[rec] - iv.X_star / n_agents, 2, axis=(-2, -1))
        if mode == "algorithm1":
            err_y = np.linalg.norm(self.y_mats[rec] - iv.Y_star / n_agents, 2, axis=(-2, -1))
            nb = n_agents + 1
            zeta = self.sz_steps[rec, nb + 1 :]
            tr.informer_zeta[ks] = self.sz_steps[rec, nb]
        for i, aid in enumerate(actives):
            if mode != "state_feedback":
                tr.xhat[aid][ks] = xhat[:, i]
                tr.err_obs[aid][ks] = err_obs[:, i]
            if mode == "algorithm1":
                tr.zeta[aid][ks] = zeta[:, i]
                tr.err_y[aid][ks] = err_y[:, i]
            if mode != "static_gains":
                tr.err_x[aid][ks] = err_x[:, i]
            tr.u[aid][ks] = u[:, i, : self.widths[i][0]] / self.scale[i]


def run_scenario(scenario: Scenario) -> Trace:
    """Validate and integrate a scenario; see the module docstring."""
    return _Runner(scenario).run()


# ---------------------------------------------------------------------------
# the cooperative load-transport scenario


def build_load_transport_scenario(
    initial_slots: tuple[int, ...] = (0, 3, 6),
    leave_slot: int | None = 3,
    join_slots: tuple[int, ...] = (1, 4, 7),
    t_leave: float = 15.0,
    t_join: float = 30.0,
    t_end: float = 60.0,
    h: float = 1e-3,
    record_every: int = 10,
    params: AgentParams | None = None,
    mode: str = "algorithm1",
    theta0: float = 0.0,
    mass: float = 1.0,
    p_desired: tuple[float, float] = (100.0, 150.0),
    p_start: tuple[float, float] = (0.0, 0.0),
) -> Scenario:
    """Planar load transport by pushing/pulling robots on a nonagon load.

    The plant is a planar double integrator (positions relative to the
    goal plus velocities); robot k attached at nonagon edge slot k
    pushes along the edge normal at angle ``2 pi k / 9 + theta0``; every
    robot measures the relative position only.  One robot per slot.  The
    default schedule starts three robots, drops one, then adds three.

    The communication topology is a reconstruction (the reference
    layout is pictorial): the informer rides the load and links to every
    attached robot, and robots link in a ring ordered by slot.
    """
    slots = list(initial_slots) + list(join_slots)
    if len(set(slots)) != len(slots):
        raise ValueError("duplicate nonagon edge slots")
    if any(not 0 <= k <= 8 for k in slots):
        raise ValueError("slots must be nonagon edges 0..8")
    if not 2 <= len(initial_slots) <= 9:
        raise ValueError("need 2..9 initial agents")

    a = np.zeros((4, 4))
    a[0, 2] = 1.0
    a[1, 3] = 1.0
    c_map = np.hstack([np.eye(2), np.zeros((2, 2))])

    def chan(aid: int, slot: int) -> Channel:
        ang = 2.0 * np.pi * slot / 9.0 + theta0
        b = (1.0 / mass) * np.array([[0.0], [0.0], [np.cos(ang)], [np.sin(ang)]])
        return Channel(aid, b, c_map)

    ids = {}
    chans = []
    for i, slot in enumerate(slots):
        aid = i + 1
        ids[slot] = aid
        chans.append(chan(aid, slot))
    plant = PlantModel(a, tuple(chans))

    init_ids = tuple(ids[k] for k in initial_slots)
    default_params = params is None
    if default_params:
        # gamma_cap keeps the effective coupling inside the explicit
        # integrator's stability region; the certificate value itself is
        # reported uncapped.  The gain and dual flows run at the rate
        # certificate for delta = 0.05 on the default schedule's worst
        # agent graph (the final five-agent ring, lambda2 = 1.38):
        #   bass_rate_params(A, 0.25, ring5, 0.05)    -> (k_c, gamma_c)
        #   bass_rate_params(A.T, 0.25, ring5, 0.05)  -> (k_o, gamma_o)
        # The two agree to 1e-15 on this plant.  Stored as literals so the
        # build does no Lyapunov solves; the schedule is checked against
        # them below.
        params = AgentParams(
            beta=0.25,
            k_c=3.27319985097194,
            gamma_c=173.273224318008,
            k_o=3.27319985097194,
            gamma_o=173.273224318008,
            gamma_cap=200.0,
        )

    def ring_edges(members_slots):
        members = sorted(members_slots)
        if len(members) < 2:
            return []
        if len(members) == 2:
            return [(ids[members[0]], ids[members[1]])]
        return [
            (ids[members[i]], ids[members[(i + 1) % len(members)]])
            for i in range(len(members))
        ]

    edges = ring_edges(initial_slots)
    if mode == "algorithm1":
        edges += [(INFORMER_ID, ids[k]) for k in initial_slots]
        nodes = (INFORMER_ID,) + init_ids
    else:
        nodes = init_ids
    g = Graph.from_edges(nodes, edges)

    events = []
    active_slots = set(initial_slots)
    # the agent graph after each event, for the check of the default gains
    agent_graph = g.subgraph(init_ids)
    stages = [(0.0, agent_graph)]
    if leave_slot is not None:
        if leave_slot not in initial_slots:
            raise ValueError("leave_slot must be one of the initial slots")
        events.append(Event(time=t_leave, kind="leave", agent_id=ids[leave_slot]))
        active_slots.discard(leave_slot)
        agent_graph = agent_graph.without_node(ids[leave_slot])
        stages.append((t_leave, agent_graph))

    final_ring = sorted(active_slots | set(join_slots))
    for slot in join_slots:
        pos = final_ring.index(slot)
        ring_nbrs = {final_ring[pos - 1], final_ring[(pos + 1) % len(final_ring)]}
        present = set(active_slots)
        ring = [(ids[slot], ids[s]) for s in sorted(ring_nbrs & present)]
        new_edges = ring + ([(ids[slot], INFORMER_ID)] if mode == "algorithm1" else [])
        events.append(
            Event(time=t_join, kind="join", agent_id=ids[slot], add_edges=tuple(new_edges))
        )
        active_slots.add(slot)
        agent_graph = agent_graph.with_node(ids[slot], ring)
        stages.append((t_join, agent_graph))

    if default_params:
        # the certified gamma/k ratio scales as 1 / lambda2 and k does not
        # depend on the graph, so the literals hold for lambda2 >= ring5's
        ring5 = 2.0 - 2.0 * np.cos(2.0 * np.pi / 5.0)
        ends = [t for t, _ in stages[1:]] + [t_end]
        for (t0, ga), t1 in zip(stages, ends):
            if t1 > t0 and ga.n >= 2 and lambda2(ga) < ring5 * (1.0 - 1e-12):
                raise ValueError(
                    f"the default flow gains certify agent graphs with lambda2 >= {ring5:.4g}, "
                    f"but the graph on [{t0:g}, {t1:g}) has lambda2 = {lambda2(ga):.4g}; "
                    "pass params certified for it (consensus.bass_rate_params)"
                )

    pd = np.asarray(p_desired, dtype=float)
    p0 = np.asarray(p_start, dtype=float)
    x0 = np.concatenate([p0 - pd, np.zeros(2)])

    return Scenario(
        plant=plant,
        x0=x0,
        initial_agents=init_ids,
        graph=g,
        solver=SolverSettings(h=h, t_end=t_end, record_every=record_every),
        params=params,
        events=tuple(events),
        mode=mode,
        metadata={
            "kind": "load_transport",
            "p_desired": [float(pd[0]), float(pd[1])],
            "slots": {str(ids[k]): int(k) for k in slots},
        },
    )


# ---------------------------------------------------------------------------
# serialization


def _mat(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def scenario_to_json(s: Scenario) -> dict:
    d = {
        "plant": {
            "A": _mat(s.plant.A),
            "channels": [
                {"id": c.id, "B": _mat(c.B), "C": _mat(c.C)} for c in s.plant.channels
            ],
        },
        "x0": _mat(s.x0),
        "initial_agents": list(s.initial_agents),
        "graph": {"edges": [list(e) for e in s.graph.edges]},
        "events": [],
        "solver": asdict(s.solver),
        "params": asdict(s.params),
        "mode": s.mode,
        "metadata": s.metadata,
    }
    for e in s.events:
        ed = {"time": e.time, "kind": e.kind, "agent_id": e.agent_id}
        if e.channel is not None:
            ed["channel"] = {"id": e.channel.id, "B": _mat(e.channel.B), "C": _mat(e.channel.C)}
        if e.initial_state:
            ed["initial_state"] = {k: _mat(v) for k, v in e.initial_state.items()}
        if e.add_edges:
            ed["add_edges"] = [list(x) for x in e.add_edges]
        if e.remove_edges:
            ed["remove_edges"] = [list(x) for x in e.remove_edges]
        d["events"].append(ed)
    if s.static is not None:
        d["static_gains"] = {
            "gamma": s.static.gamma,
            "F": {str(k): _mat(v) for k, v in s.static.F.items()},
            "L": {str(k): _mat(v) for k, v in s.static.L.items()},
        }
    return d


def scenario_from_json(d: dict) -> Scenario:
    try:
        chans = tuple(
            Channel(int(c["id"]), np.asarray(c["B"], float), np.asarray(c["C"], float))
            for c in d["plant"]["channels"]
        )
        plant = PlantModel(np.asarray(d["plant"]["A"], float), chans)
        events = []
        for ed in d.get("events", []):
            chan = None
            if "channel" in ed:
                cd = ed["channel"]
                chan = Channel(int(cd["id"]), np.asarray(cd["B"], float), np.asarray(cd["C"], float))
            events.append(
                Event(
                    time=float(ed["time"]),
                    kind=str(ed["kind"]),
                    agent_id=int(ed["agent_id"]),
                    channel=chan,
                    initial_state=ed.get("initial_state"),
                    add_edges=tuple(tuple(x) for x in ed.get("add_edges", [])),
                    remove_edges=tuple(tuple(x) for x in ed.get("remove_edges", [])),
                )
            )
        static = None
        if "static_gains" in d:
            sg = d["static_gains"]
            static = StaticGains(
                gamma=float(sg["gamma"]),
                F={int(k): np.asarray(v, float) for k, v in sg["F"].items()},
                L={int(k): np.asarray(v, float) for k, v in sg["L"].items()},
            )
        nodes = set(int(a) for a in d["initial_agents"])
        mode = d.get("mode", "algorithm1")
        if mode == "algorithm1":
            nodes.add(INFORMER_ID)
        for e in d["graph"]["edges"]:
            nodes.update(int(x) for x in e)
        return Scenario(
            plant=plant,
            x0=np.asarray(d["x0"], float),
            initial_agents=tuple(int(a) for a in d["initial_agents"]),
            graph=Graph.from_edges(sorted(nodes), [tuple(e) for e in d["graph"]["edges"]]),
            solver=SolverSettings(**d.get("solver", {})),
            params=AgentParams(**d["params"]),
            events=tuple(events),
            mode=mode,
            static=static,
            metadata=d.get("metadata", {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


# ---------------------------------------------------------------------------
# trace output


def write_trace_csv(tr: Trace, path) -> None:
    """Uniform trace CSV; absent agents and unrecorded series emit empty fields."""
    n = tr.x.shape[1]
    header = ["t"] + [f"x_{j+1}" for j in range(n)]
    for a in tr.agent_ids:
        m = tr.u[a].shape[1]
        header += [f"a{a}_xhat_{j+1}" for j in range(n)]
        header += [f"a{a}_zeta"]
        header += [f"a{a}_u_{j+1}" for j in range(m)]
        header += [f"a{a}_err_obs", f"a{a}_err_X", f"a{a}_err_Y"]
    header.append("informer_zeta")

    def fmt(val) -> str:
        return "" if not np.isfinite(val) else repr(float(val))

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k, t in enumerate(tr.times):
            row = [repr(float(t))] + [fmt(v) for v in tr.x[k]]
            for a in tr.agent_ids:
                row += [fmt(v) for v in tr.xhat[a][k]]
                row.append(fmt(tr.zeta[a][k]))
                row += [fmt(v) for v in tr.u[a][k]]
                row.append(fmt(tr.err_obs[a][k]))
                row.append(fmt(tr.err_x[a][k]))
                row.append(fmt(tr.err_y[a][k]))
            row.append(fmt(tr.informer_zeta[k]))
            w.writerow(row)


def write_events_csv(tr: Trace, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "kind", "agent_id"])
        for t, kind, aid in tr.events:
            w.writerow([repr(float(t)), kind, aid])


def summary_dict(tr: Trace, scenario: Scenario) -> dict:
    """Machine-readable run summary (references, final errors, events)."""
    last = -1
    intervals = []
    for iv in tr.intervals:
        n_act = len(iv.actives)
        intervals.append(
            {
                "t_start": iv.t_start,
                "t_end": iv.t_end,
                "agents": list(iv.actives),
                "n_active": n_act,
                "X_star_over_N": _mat(iv.X_star / n_act) if iv.X_star is not None else None,
                "Y_star_over_N": _mat(iv.Y_star / n_act) if iv.Y_star is not None else None,
            }
        )
    final_agents = {}
    for a in tr.agent_ids:
        final_agents[str(a)] = {
            "zeta": None if not np.isfinite(tr.zeta[a][last]) else float(tr.zeta[a][last]),
            "err_obs": None if not np.isfinite(tr.err_obs[a][last]) else float(tr.err_obs[a][last]),
            "err_X": None if not np.isfinite(tr.err_x[a][last]) else float(tr.err_x[a][last]),
            "err_Y": None if not np.isfinite(tr.err_y[a][last]) else float(tr.err_y[a][last]),
        }
    out = {
        "mode": tr.mode,
        "t_end": float(tr.times[last]),
        "final_x": _mat(tr.x[last]),
        "final_x_norm": float(np.linalg.norm(tr.x[last])),
        "intervals": intervals,
        "final_agents": final_agents,
        "events": [{"t": t, "kind": k, "agent_id": a} for t, k, a in tr.events],
        "metadata": scenario.metadata,
    }
    if scenario.metadata.get("kind") == "load_transport":
        out["position_error"] = float(np.linalg.norm(tr.x[last][:2]))
    return out


def write_summary_json(tr: Trace, scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary_dict(tr, scenario), fh, indent=2)
        fh.write("\n")


def load_scenario_file(path) -> Scenario:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"scenario not found: {path}")
    with open(p) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_json(data)
