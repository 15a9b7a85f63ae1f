"""Deterministic fixed-step simulation of the coupled control network.

Integrates the plant, every active agent's observer and flow states,
and the informer with classical RK4 at a fixed step h, applying join
and leave events between steps.  Leaving removes an agent's states and
edges without touching anyone else; joining inserts fresh states
(zeros unless configured); survivors' integral states are never reset.

Gains are refreshed once per step, at t = step * h, and held constant
across the four stages, so within a step the whole system is affine
and splits in two:

* The gain flow (Z, X), the dual flow (W, Y) and the size estimator
  (psi, zeta and the informer) are linear time-invariant for a whole
  interval and never read the plant or the observers.  RK4 on
  ``ydot = A y + c`` is exactly ``y <- T4(hA) y + h S3(hA) c``
  (:func:`matlib.rk4_propagator`), so each flow gets its one-step map
  once per interval.  The two matrix flows are kept in the eigenbasis
  of the agent-graph Laplacian, where they split into one 2 n^2 system
  per mode, so their maps take O(N n^4) memory.  The size estimator
  gets one small dense map.
* Plant plus observers, of size n (N + 1), form one matrix per step,
  built from every agent's frozen gains; :func:`rk4_step` advances it.

Each active agent is a :class:`agent.ControlAgent`: once per step the
runner writes the agent's X, Y and zeta into it and calls
``refresh_gains``, which samples the agent's inverse filters and
recomputes its gains from its own states only.  After every step a
non-finite state raises IntegrationError with the step's time.  Traces
are bit-reproducible for a given scenario.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bass
from .agent import AgentParams, ControlAgent, gain_F, gain_L, gamma_i
from .consensus import INFORMER_ID
from .graph import Graph, is_connected, laplacian
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


def _channel_for(scenario: Scenario, aid: int, event: Event | None = None) -> Channel:
    if event is not None and event.channel is not None:
        return event.channel
    try:
        return scenario.plant.channel(aid)
    except KeyError:
        raise ScenarioError(f"agent {aid} has no channel in the plant and none supplied") from None


def validate_scenario(scenario: Scenario) -> list[Interval]:
    """Check every structural invariant and return the interval table."""
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

    plant_norm = normalize_plant(s.plant)
    channels: dict[int, Channel] = {c.id: c for c in plant_norm.channels}

    def refs(actives: tuple[int, ...]):
        chans = [channels[a] for a in actives]
        b = np.hstack([c.B for c in chans])
        c = np.vstack([c.C for c in chans])
        if not is_controllable(s.plant.A, b):
            raise ScenarioError(f"plant not controllable with agents {actives}")
        if not is_observable(s.plant.A, c):
            raise ScenarioError(f"plant not observable with agents {actives}")
        x_star = bass.bass_solve(s.plant.A, b, s.params.beta, check_controllability=False).X_star
        y_star = bass.dual_bass_solve(s.plant.A, c, s.params.beta, check_observability=False).Y_star
        return x_star, y_star

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
        x_star, y_star = refs(actives)
        intervals.append(
            Interval(t_prev, e.time, actives, g, g.subgraph(actives), x_star, y_star)
        )
        if e.kind == "join":
            if e.agent_id in actives:
                raise ScenarioError(f"agent {e.agent_id} already active at t={e.time}")
            chan = _channel_for(s, e.agent_id, e)
            if chan.id != e.agent_id:
                raise ScenarioError(f"event channel id {chan.id} != agent id {e.agent_id}")
            channels[e.agent_id] = normalize_channel(chan)
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
    x_star, y_star = refs(actives)
    intervals.append(Interval(t_prev, t_end, actives, g, g.subgraph(actives), x_star, y_star))
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


def _coerce_initial_state(n: int, init: dict | None) -> dict:
    st = _agent_state_zeros(n)
    if init:
        for key, val in init.items():
            if key not in st:
                raise ScenarioError(f"unknown agent state field {key!r}")
            arr = np.asarray(val, dtype=float)
            if np.shape(st[key]) != arr.shape and not (key in ("psi", "zeta") and arr.shape == ()):
                raise ScenarioError(f"agent state field {key!r} has wrong shape {arr.shape}")
            st[key] = float(arr) if key in ("psi", "zeta") else arr
    return st


def _pi_flow_map(drift, k, gamma, lam, forcing, h):
    """Per-step RK4 map of one PI flow in the agent-Laplacian eigenbasis.

    With Laplacian eigenvalues ``lam`` the flow ``Zdot_i = gamma sum_j
    L_ij X_j``, ``Xdot_i = k (drift X_i + Q_i) - gamma sum_j L_ij (X_j +
    Z_j)`` splits into one system per mode j over ``y_j = (vec Z_j,
    vec X_j)`` (row-major vec), with drift ``B_j = [[0, g_j I],
    [-g_j I, k drift - g_j I]]``, ``g_j = gamma lam_j``, and forcing
    ``(0, k Q_j)``; ``forcing`` holds the rows vec Q_j.

    Returns ``(step, offset)``: ``step`` is the stack of
    ``T4(h B_j) - I = B_j h S3(h B_j)`` and one RK4 step is
    ``y + (step y + offset)``.  The increment is formed without the
    identity: rounding T4 itself, which is within O(h) of I, would move
    the fixed point of the map by about ``eps / (h * rate)`` of |y|.
    """
    m = drift.shape[0]
    eye = np.eye(m)
    step = np.empty((lam.size, 2 * m, 2 * m))
    offset = np.empty((lam.size, 2 * m))
    # one mode at a time keeps the temporaries at a single block's size
    for j, g in enumerate(gamma * lam):
        block = np.zeros((2 * m, 2 * m))
        block[:m, m:] = g * eye
        block[m:, :m] = -g * eye
        block[m:, m:] = k * drift - g * eye
        _, s = rk4_propagator(block, h)
        step[j] = block @ s
        offset[j] = s[:, m:] @ (k * forcing[j])
    return step, offset


def _coupling(lap: np.ndarray, n: int) -> np.ndarray:
    """``L (x) I_n`` laid out as ``(N, n, N, n)``."""
    return lap[:, None, :, None] * np.eye(n)[None, :, None, :]


def _observer_map(a, k0, jm, omega, geff, coupling):
    """The frozen-gain matrix of plant plus observers over (x, xhat_1..N).

    ``xdot = A x + sum_i K0_i xhat_i`` and
    ``xhatdot_i = Omega_i xhat_i - Jm_i x - geff_i sum_j L_ij xhat_j``,
    with ``coupling`` from :func:`_coupling`.
    """
    n_agents, n = k0.shape[0], a.shape[0]
    g = np.empty((n_agents + 1, n, n_agents + 1, n))
    g[0, :, 0, :] = a
    g[0, :, 1:, :] = k0.transpose(1, 0, 2)
    g[1:, :, 0, :] = -jm
    obs = g[1:, :, 1:, :]
    np.multiply(-geff[:, None, None, None], coupling, out=obs)
    idx = np.arange(n_agents)
    obs[idx, :, idx, :] += omega
    size = (n_agents + 1) * n
    return g.reshape(size, size)


class _Runner:
    """Fixed-step integration of one scenario; see the module docstring.

    Inside an interval the run state is: ``state`` = (x, xhat_1..N) (x
    alone in state_feedback mode), the gain and dual flows ``zx``,
    ``wy`` as ``(N, 2 n^2)`` rows of modal coordinates, the size
    estimator ``sz`` = (psi, zeta) over informer and agents.  Each
    active agent's :class:`ControlAgent` holds its inverse filters and
    gains and lives from its join to its leave.  At an event the
    per-agent rows are taken back to agent coordinates and restacked.
    """

    def __init__(self, scenario: Scenario):
        self.s = scenario
        self.intervals = validate_scenario(scenario)
        self.mode = scenario.mode
        self.plant = normalize_plant(scenario.plant)
        self.n = self.plant.n
        self.A = self.plant.A
        self.h = scenario.solver.h
        self.total_steps = int(round(scenario.solver.t_end / self.h))
        self.record_every = scenario.solver.record_every
        self.channels: dict[int, Channel] = {c.id: c for c in self.plant.channels}
        p = scenario.params
        n = self.n
        m_mat = self.A + p.beta * np.eye(n)
        eye = np.eye(n)
        # -(M X + X M^T) and -(M^T Y + Y M) on row-major vec
        self.drift_x = -(np.kron(m_mat, eye) + np.kron(eye, m_mat))
        self.drift_y = -(np.kron(m_mat.T, eye) + np.kron(eye, m_mat.T))
        self.agents: dict[int, ControlAgent] = {}

    def _ensure_channel(self, aid: int, event: Event | None):
        if aid not in self.channels:
            chan = _channel_for(self.s, aid, event)
            self.channels[aid] = normalize_channel(chan)

    def _make_agent(self, aid: int) -> ControlAgent:
        mode = "state_feedback" if self.mode == "state_feedback" else "observer"
        return ControlAgent(self.A, self.channels[aid], self.s.params, mode=mode)

    # -- per-interval set-up ---------------------------------------------

    def _enter(self, iv: Interval, x: np.ndarray, agents: dict, informer) -> None:
        """Build the interval's maps and load the state into them."""
        p = self.s.params
        n, h, mode = self.n, self.h, self.mode
        actives = iv.actives
        n_agents = len(actives)
        self.actives = actives
        self.iv = iv
        lap = np.asarray(laplacian(iv.agent_graph), dtype=float)
        self.coupling = _coupling(lap, n)
        chans = [self.channels[a] for a in actives]
        self.scale = [c.input_scale for c in chans]
        self.widths = [(c.m, c.p) for c in chans]
        m_max = max(c.m for c in chans)
        p_max = max(c.p for c in chans)
        self.b = np.zeros((n_agents, n, m_max))
        self.c = np.zeros((n_agents, p_max, n))
        for i, ch in enumerate(chans):
            self.b[i, :, : ch.m] = ch.B
            self.c[i, : ch.p, :] = ch.C
        self.members = [self.agents[a] for a in actives]
        self.f = np.zeros((n_agents, m_max, n))
        self.l = np.zeros((n_agents, n, p_max))
        self.gamma = np.zeros(n_agents)

        xhat = agents["xhat"]
        if mode == "state_feedback":
            self.state = x.copy()
        else:
            self.state = np.concatenate([x, xhat.ravel()])

        if mode == "static_gains":
            sg = self.s.static
            for a in actives:
                if a not in sg.F or a not in sg.L:
                    raise ScenarioError(f"static gains missing for agent {a}")
            f = self.f
            for i, a in enumerate(actives):
                f[i, : chans[i].m] = np.asarray(sg.F[a], dtype=float)
            jm = np.stack(
                [n_agents * np.asarray(sg.L[a], dtype=float) @ chans[i].C for i, a in enumerate(actives)]
            )
            k0 = self.b @ f
            self.g = _observer_map(
                self.A, k0, jm, self.A + n_agents * k0 + jm, np.full(n_agents, sg.gamma), self.coupling
            )
            return

        # gain flow (and, in algorithm1, dual flow and size estimator)
        self.prop_zx = self.prop_wy = None  # free the last interval's maps first
        lam, v = np.linalg.eigh(lap)
        self.v = v
        nn = n * n
        self.zx = v.T @ np.concatenate(
            [agents["Z"].reshape(n_agents, nn), agents["X"].reshape(n_agents, nn)], axis=1
        )
        bbt = 2.0 * self.b @ np.swapaxes(self.b, 1, 2)
        self.prop_zx = _pi_flow_map(
            self.drift_x, p.k_c, p.gamma_c, lam, v.T @ bbt.reshape(n_agents, nn), h
        )
        if mode != "algorithm1":
            return
        self.wy = v.T @ np.concatenate(
            [agents["W"].reshape(n_agents, nn), agents["Y"].reshape(n_agents, nn)], axis=1
        )
        ctc = 2.0 * np.swapaxes(self.c, 1, 2) @ self.c
        self.prop_wy = _pi_flow_map(
            self.drift_y, p.k_o, p.gamma_o, lam, v.T @ ctc.reshape(n_agents, nn), h
        )
        # size estimator over (psi, zeta) of informer 0 and the agents:
        # psidot = gs Lb zeta, zetadot = ks (1 - e0) - ks e0 zeta_0 - gs Lb (zeta + psi)
        lap_b = np.asarray(laplacian(iv.graph), dtype=float)
        k_s, g_s = p.k_s, p.gamma_s
        nb = n_agents + 1
        ops = np.zeros((2 * nb, 2 * nb))
        ops[:nb, nb:] = g_s * lap_b
        ops[nb:, :nb] = -g_s * lap_b
        ops[nb:, nb:] = -g_s * lap_b
        ops[nb, nb] -= k_s
        drive = np.full(2 * nb, k_s)
        drive[: nb + 1] = 0.0
        t_sz, s_sz = rk4_propagator(ops, h)
        self.prop_sz = (t_sz, s_sz @ drive)
        self.sz = np.concatenate([[informer[0]], agents["psi"], [informer[1]], agents["zeta"]])

    def _export(self) -> tuple[np.ndarray, dict, tuple[float, float]]:
        """The state in agent coordinates: x, per-agent stacks, informer."""
        n, n_agents = self.n, len(self.actives)
        mode = self.mode
        x = self.state[:n].copy()
        zeros = np.zeros((n_agents, n, n))
        agents = {"Z": zeros, "X": zeros, "W": zeros, "Y": zeros,
                  "psi": np.zeros(n_agents), "zeta": np.zeros(n_agents)}
        if mode == "state_feedback":
            agents["xhat"] = np.zeros((n_agents, n))
        else:
            agents["xhat"] = self.state[n:].reshape(n_agents, n).copy()
        informer = (0.0, 0.0)
        if mode != "static_gains":
            zx = self.v @ self.zx
            agents["Z"] = zx[:, : n * n].reshape(n_agents, n, n)
            agents["X"] = zx[:, n * n :].reshape(n_agents, n, n)
        if mode == "algorithm1":
            wy = self.v @ self.wy
            agents["W"] = wy[:, : n * n].reshape(n_agents, n, n)
            agents["Y"] = wy[:, n * n :].reshape(n_agents, n, n)
            nb = n_agents + 1
            agents["psi"] = self.sz[1:nb].copy()
            agents["zeta"] = self.sz[nb + 1 :].copy()
            informer = (float(self.sz[0]), float(self.sz[nb]))
        return x, agents, informer

    # -- one step ------------------------------------------------------------

    def _refresh_gains(self, t: float) -> None:
        """Freeze every agent's gains at time t for the coming step."""
        n, n_agents = self.n, len(self.actives)
        nn = n * n
        self.x_mats = (self.v @ self.zx[:, nn:]).reshape(n_agents, n, n)
        if self.mode == "state_feedback":
            for i, ag in enumerate(self.members):
                ag.X = self.x_mats[i]
                ag.refresh_gains(t)
                self.f[i, : self.widths[i][0]] = -(ag.B.T @ ag.phi_x.value)
            self.g = self.A + (self.b @ self.f).sum(axis=0)
            return
        self.y_mats = (self.v @ self.wy[:, nn:]).reshape(n_agents, n, n)
        zeta = self.sz[n_agents + 2 :]
        for i, ag in enumerate(self.members):
            ag.X, ag.Y, ag.zeta = self.x_mats[i], self.y_mats[i], float(zeta[i])
            ag.refresh_gains(t)
            m_i, p_i = self.widths[i]
            self.f[i, :m_i] = gain_F(ag, t)
            self.l[i, :, :p_i] = gain_L(ag, t)
            self.gamma[i] = gamma_i(ag, t)
        zs = zeta[:, None, None]
        k0 = self.b @ self.f
        jm = zs * (self.l @ self.c)
        geff = np.minimum(self.gamma, self.s.params.gamma_cap)
        self.g = _observer_map(self.A, k0, jm, self.A + zs * k0 + jm, geff, self.coupling)

    def _advance(self, t: float) -> None:
        g = self.g
        self.state = rk4_step(lambda _t, y: g @ y, self.state, t, self.h)
        if self.mode == "static_gains":
            return
        step, offset = self.prop_zx
        self.zx = self.zx + ((step @ self.zx[..., None])[..., 0] + offset)
        flows = [self.zx]
        if self.mode == "algorithm1":
            step, offset = self.prop_wy
            self.wy = self.wy + ((step @ self.wy[..., None])[..., 0] + offset)
            t_sz, d_sz = self.prop_sz
            self.sz = t_sz @ self.sz + d_sz
            flows += [self.wy, self.sz]
        for arr in flows:
            if not np.isfinite(arr).all():
                raise IntegrationError("non-finite state after RK4 stage", t)

    # -- the loop ----------------------------------------------------------

    def run(self) -> Trace:
        s = self.s
        h = self.h
        n = self.n
        re_every = self.record_every
        all_ids = sorted(
            set(s.initial_agents) | {e.agent_id for e in s.events if e.kind == "join"}
        )
        n_samples = self.total_steps // re_every + 1
        times = np.array([i * re_every * h for i in range(n_samples)])
        tr = Trace(
            times=times,
            x=np.full((n_samples, n), np.nan),
            agent_ids=tuple(all_ids),
            xhat={a: np.full((n_samples, n), np.nan) for a in all_ids},
            zeta={a: np.full(n_samples, np.nan) for a in all_ids},
            u={},
            err_obs={a: np.full(n_samples, np.nan) for a in all_ids},
            err_x={a: np.full(n_samples, np.nan) for a in all_ids},
            err_y={a: np.full(n_samples, np.nan) for a in all_ids},
            informer_zeta=np.full(n_samples, np.nan),
            events=[(e.time, e.kind, e.agent_id) for e in s.events],
            intervals=self.intervals,
            mode=self.mode,
        )

        # events snapped to step boundaries
        pending = [(int(round(e.time / h)), e) for e in s.events]
        for e in s.events:
            if e.kind == "join":
                self._ensure_channel(e.agent_id, e)
        for a in all_ids:
            tr.u[a] = np.full((n_samples, self.channels[a].m), np.nan)

        actives = tuple(sorted(s.initial_agents))
        fresh = [_coerce_initial_state(n, None) for _ in actives]
        agents = {key: np.array([st[key] for st in fresh]) for key in fresh[0]}
        self.agents = {a: self._make_agent(a) for a in actives}
        iv_idx = 0
        self._enter(self.intervals[iv_idx], s.x0, agents, (0.0, 0.0))

        step = 0
        while True:
            t = step * h
            # apply events scheduled at this boundary
            fired = [pe for pe in pending if pe[0] == step]
            if fired:
                x_now, agents, informer = self._export()
                rows = {a: {key: arr[i] for key, arr in agents.items()} for i, a in enumerate(actives)}
                for _, e in fired:
                    if e.kind == "join":
                        rows[e.agent_id] = _coerce_initial_state(n, e.initial_state)
                        self.agents[e.agent_id] = self._make_agent(e.agent_id)
                        actives = tuple(sorted(actives + (e.agent_id,)))
                    else:
                        del rows[e.agent_id]
                        del self.agents[e.agent_id]
                        actives = tuple(a for a in actives if a != e.agent_id)
                pending = [pe for pe in pending if pe[0] != step]
                iv_idx += len(fired)
                iv = self.intervals[iv_idx]
                if iv.actives != actives:
                    raise ScenarioError("interval table out of sync with events")
                if not is_connected(iv.agent_graph):
                    raise ScenarioError(f"agent graph disconnected at t={t}")
                agents = {key: np.array([rows[a][key] for a in actives]) for key in agents}
                self._enter(iv, x_now, agents, informer)

            record = step % re_every == 0
            if self.mode != "static_gains":
                self._refresh_gains(t)
            if record:
                self._record(tr, step // re_every)
            if step >= self.total_steps:
                break
            self._advance(t)
            step += 1

        if self.mode == "algorithm1":
            cap = s.params.gamma_cap
            for i, aid in enumerate(self.actives):
                m_i, p_i = self.widths[i]
                gamma = float(self.gamma[i])
                tr.final_gains[aid] = {
                    "F": self.f[i, :m_i].copy(),
                    "L": self.l[i, :, :p_i].copy(),
                    "gamma": gamma,
                    "gamma_effective": min(gamma, cap),
                    "zeta": float(self.sz[len(self.actives) + 2 + i]),
                }
        return tr

    def _record(self, tr: Trace, k: int) -> None:
        n, mode, iv = self.n, self.mode, self.iv
        actives = self.actives
        n_agents = len(actives)
        x = self.state[:n]
        tr.x[k] = x
        if mode == "state_feedback":
            u = self.f @ x
        else:
            xhat = self.state[n:].reshape(n_agents, n)
            u = (self.f @ xhat[..., None])[..., 0]
            err_obs = np.linalg.norm(xhat - x, axis=1)
        if mode != "static_gains":
            err_x = np.linalg.norm(self.x_mats - iv.X_star / n_agents, 2, axis=(1, 2))
        if mode == "algorithm1":
            err_y = np.linalg.norm(self.y_mats - iv.Y_star / n_agents, 2, axis=(1, 2))
            nb = n_agents + 1
            zeta = self.sz[nb + 1 :]
            tr.informer_zeta[k] = self.sz[nb]
        for i, aid in enumerate(actives):
            if mode != "state_feedback":
                tr.xhat[aid][k] = xhat[i]
                tr.err_obs[aid][k] = err_obs[i]
            if mode == "algorithm1":
                tr.zeta[aid][k] = zeta[i]
                tr.err_y[aid][k] = err_y[i]
            if mode != "static_gains":
                tr.err_x[aid][k] = err_x[i]
            tr.u[aid][k] = u[i, : self.widths[i][0]] / self.scale[i]


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
    if params is None:
        # gamma_cap keeps the effective coupling inside the explicit
        # integrator's stability region; the certificate value itself is
        # reported uncapped.  The gain and dual flows run at the rate
        # certificate for delta = 0.05 on the default schedule's worst
        # agent graph (the final five-agent ring, lambda2 = 1.38):
        #   bass_rate_params(A, 0.25, ring5, 0.05)    -> (k_c, gamma_c)
        #   bass_rate_params(A.T, 0.25, ring5, 0.05)  -> (k_o, gamma_o)
        # The two agree to 1e-15 on this plant.  Stored as literals so the
        # build does no Lyapunov solves.
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
    if leave_slot is not None:
        if leave_slot not in initial_slots:
            raise ValueError("leave_slot must be one of the initial slots")
        events.append(Event(time=t_leave, kind="leave", agent_id=ids[leave_slot]))
        active_slots.discard(leave_slot)

    final_ring = sorted(active_slots | set(join_slots))
    for slot in join_slots:
        pos = final_ring.index(slot)
        ring_nbrs = {final_ring[pos - 1], final_ring[(pos + 1) % len(final_ring)]}
        present = set(active_slots)
        new_edges = [(ids[slot], ids[s]) for s in sorted(ring_nbrs & present)]
        if mode == "algorithm1":
            new_edges.append((ids[slot], INFORMER_ID))
        events.append(
            Event(time=t_join, kind="join", agent_id=ids[slot], add_edges=tuple(new_edges))
        )
        active_slots.add(slot)

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
        "solver": {
            "h": s.solver.h,
            "t_end": s.solver.t_end,
            "record_every": s.solver.record_every,
        },
        "params": {
            "beta": s.params.beta,
            "k_c": s.params.k_c,
            "gamma_c": s.params.gamma_c,
            "k_o": s.params.k_o,
            "gamma_o": s.params.gamma_o,
            "k_s": s.params.k_s,
            "gamma_s": s.params.gamma_s,
            "t_phi": s.params.t_phi,
            "gamma_cap": s.params.gamma_cap,
        },
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
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


# ---------------------------------------------------------------------------
# trace output


def write_trace_csv(tr: Trace, path) -> None:
    """Uniform trace CSV; absent agents emit empty fields."""
    n = tr.x.shape[1]
    header = ["t"] + [f"x_{j+1}" for j in range(n)]
    for a in tr.agent_ids:
        m = tr.u[a].shape[1]
        header += [f"a{a}_xhat_{j+1}" for j in range(n)]
        header += [f"a{a}_zeta"]
        header += [f"a{a}_u_{j+1}" for j in range(m)]
        header += [f"a{a}_err_obs", f"a{a}_err_X"]

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
