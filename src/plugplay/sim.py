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
  (:func:`matlib.rk4_propagator`), so b = ``FLOW_BLOCK`` steps are
  exactly ``y <- y + (P y + s)`` with ``P = T4(hA)^b - I``: each flow
  gets this block map once per interval, from its operator in
  :mod:`consensus`, and advances b rows at a time, one matrix product
  of the b rows before them.  The blocks are aligned to the interval's
  start: the first holds the entry state and b - 1 steps of the
  one-step map, and every later block is computed whole, so a trace
  does not depend on where chunks end.  The two matrix flows are kept in the eigenbasis of the
  agent-graph Laplacian, where they split into one 2 n^2 system per
  mode, so their maps take O(N n^4) memory.  The size estimator gets
  one small dense map.
* Plant plus observers, of size n (N + 1), form one matrix per step,
  built from every agent's frozen gains by
  :func:`analysis.observer_loop_matrix`, the assembly that
  ``verify theorem1`` checks at converged gains; :func:`rk4_step`
  advances it.

Since an agent's gains depend on its own X, Y and zeta only, the runner
works in chunks of K steps that never cross an event.  (a) The flows
advance K steps, and each block of rows is written as it is made into
per-step stacks of X and Y, in agent coordinates, and of the size
estimator; only each flow's current block is kept in modal
coordinates, and carried into the next chunk.  (b) Each
active agent, a :class:`agent.ControlAgent`, gets its X, Y and zeta
stacks over the chunk in one ``refresh_gains`` call, which returns its
F, L and gamma stacks, gamma as applied (capped at ``gamma_cap`` by the
agent): its inverse filters sample only where a sample instant falls
due, and the gains are computed over the chunk at once.  The exact threshold, which
needs an SVD of Y, is computed only at the steps where a norm bound
cannot prove the cap, and once per agent at the end of the run for
``Trace.final_gains``.  (c) The chunk is walked in slices: each
slice's frozen-gain observer maps are built in one batched pass from
the gain stacks, ``rk4_step`` advances plant and observers through the
slice step by step, and the states at the chunk's record steps are
recorded together at its end.

One byte budget, ``CHUNK_BYTES``, sets both lengths per interval, and
bounds what a chunk holds from its start to its end together with one
slice.  The per-step stacks of the flows (X and Y, ``2 N n^2`` floats
a step), the gains and the recorded states are allocated once per
interval, K steps long, in half the budget, and every chunk writes into
them.  A slice holds one ``s x s`` map per step, s = n (N + 1), and the
terms the maps are built from in the other half, next to the block of
rows each flow carries from chunk to chunk; the maps, quadratic in N, do
not shorten the chunks.  The flows' block maps are per-interval state,
outside the budget.  The results depend on neither length.

A non-finite state raises IntegrationError with the time of the first
step that produced it, whether plant, observers or a flow.  Traces are
bit-reproducible for a given scenario.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bass
from .agent import AgentParams, ControlAgent
from .analysis import observer_loop_matrix
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

# Bytes that one chunk's per-step stacks and one observer-map slice may
# hold together, half each.  From its first step to its last a chunk
# holds X and Y in agent coordinates (2 N n^2 floats a step, with one row
# more than it has steps), the size-estimator rows, F, L and gamma, and
# the plant-observer state at its record steps; these stacks are
# allocated once per interval and each chunk writes into them.  A slice
# holds one observer map (s^2 floats, s = n (N + 1)) per step and the
# terms the maps are built from, fewer than 4 N n^2 floats a step; its
# half also holds the FLOW_BLOCK rows that each flow carries from chunk
# to chunk.  The flows' block maps are per-interval state, outside the
# budget.  See _Runner._enter.
CHUNK_BYTES = 9 << 17  # 1.125 MiB

# Steps per block of the flow recursion (a power of two): each block of
# rows is one matrix product of the block before it.
FLOW_BLOCK = 8


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
    if not np.isfinite(out).all():
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
    # per agent id a dict with F, L, gamma (the uncapped threshold of
    # ControlAgent.threshold), gamma_effective (as applied), and zeta
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

    def edit_edges(g: Graph, e: Event) -> Graph:
        """g with the event's edges added, then its listed edges removed."""
        for i, j in e.add_edges:
            try:
                g = g.with_edges([(i, j)])
            except ValueError as exc:
                raise ScenarioError(f"event at t={e.time}: cannot add edge ({i}, {j}): {exc}") from None
        for i, j in e.remove_edges:
            if (min(i, j), max(i, j)) not in g.edges:
                raise ScenarioError(f"event at t={e.time}: cannot remove edge ({i}, {j}): not in the graph")
        return g.without_edges(e.remove_edges) if e.remove_edges else g

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
            g = edit_edges(g.with_node(e.agent_id), e)
            actives = tuple(sorted(actives + (e.agent_id,)))
        else:
            if e.agent_id not in actives:
                raise ScenarioError(f"agent {e.agent_id} not active at t={e.time}")
            g = edit_edges(g.without_node(e.agent_id), e)
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


def _block_map(op, c, h, y0):
    """The ``FLOW_BLOCK``-step RK4 map of ``ydot = op y + c``, and its first rows.

    One RK4 step is ``y + (step y + offset)`` with ``step = T4(h op) - I =
    op h S3(h op)`` and ``offset = h S3(h op) c`` (:func:`matlib.rk4_propagator`);
    the increment is formed without the identity: rounding T4 itself,
    which is within O(h) of I, would move the fixed point of the map by
    about ``eps / (h * rate)`` of |y|.  It follows exactly that b steps are
    ``y + (P y + s)`` with ``P = (I + step)^b - I`` and ``s = (I + (I +
    step) + ... + (I + step)^(b-1)) offset``, built here in the same
    increment form by doubling: ``P_2i = 2 P_i + P_i^2`` and ``s_2i = 2
    s_i + P_i s_i``.

    Returns ``(P^T, s, rows)``: ``rows`` are y0 and the b - 1 one-step
    advances from it, the first block of the recursion.
    """
    _, s3 = rk4_propagator(op, h)
    p, s = op @ s3, s3 @ c
    rows = np.empty((FLOW_BLOCK, y0.size))
    rows[0] = y0
    # a flow that overflows is reported by _Runner._flows at its first
    # non-finite step
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, FLOW_BLOCK):
            rows[i] = rows[i - 1] + (p @ rows[i - 1] + s)
        for _ in range(FLOW_BLOCK.bit_length() - 1):
            p, s = 2.0 * p + p @ p, 2.0 * s + p @ s
    return p.T.copy(), s, rows


def _pi_flow_map(drift, k, gamma, lam, forcing, h, y0):
    """Block map of one PI flow in the agent-Laplacian eigenbasis.

    With Laplacian eigenvalues ``lam`` the flow splits into one system
    per mode j over ``y_j = (vec Z_j, vec X_j)``, whose operator is
    :func:`consensus.pi_flow_operator` on the 1 x 1 Laplacian
    ``[[lam_j]]``; ``forcing`` holds the modal forcing rows vec Q_j and
    ``y0`` the modal state at the interval's start.

    Returns ``((P^T, s), rows)`` stacked over the modes, as
    :func:`_block_map` gives them per mode: ``P^T`` is ``(N, 2 n^2, 2
    n^2)`` and ``rows`` is ``(N, FLOW_BLOCK, 2 n^2)``, each mode's block
    contiguous, so that the product of a block of rows by ``P^T`` runs
    through BLAS without a copy.
    """
    m = drift.shape[0]
    p_t = np.empty((lam.size, 2 * m, 2 * m))
    s = np.empty((lam.size, 2 * m))
    rows = np.empty((lam.size, FLOW_BLOCK, 2 * m))
    # one mode at a time keeps the temporaries at a single block's size
    for j, lam_j in enumerate(lam):
        block, c = pi_flow_operator(drift, k, gamma, [[lam_j]], forcing[j])
        p_t[j], s[j], rows[j] = _block_map(block, c, h, y0[j])
    return (p_t, s), rows


class _Runner:
    """Chunked fixed-step integration of one scenario; see the module docstring.

    Inside an interval the run state is: ``state`` = (x, xhat_1..N) (x
    alone in state_feedback mode), the gain and dual flows ``zx``,
    ``wy`` as ``(N, 2 n^2)`` rows of modal coordinates, the size
    estimator ``sz`` = (psi, zeta) over informer and agents.  Each
    active agent's :class:`ControlAgent` holds its inverse filters and
    lives from its join to its leave.  Each flow has its block map in
    ``flow_maps`` and its current block of ``FLOW_BLOCK`` rows in
    ``flow_blocks``, ``(modes, FLOW_BLOCK, size)``, with the current
    step at row ``pos``: ``zx``, ``wy`` and ``sz`` are those rows.
    :meth:`_enter` allocates the interval's per-step stacks, ``stacks``,
    and :meth:`_chunk` runs ``chunk`` steps at a time through views of
    them: the flows (X and Y in agent coordinates, ``x_mats`` and
    ``y_mats``, and the size estimator ``sz_steps``), the gains (``f``,
    ``l``, ``gamma``, ``zeta``) and the states at the record steps;
    :meth:`_maps` builds the observer maps ``slice`` steps at a time.  At
    an event the state leaves the interval as one row per agent id
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
        self.lap = lap = np.asarray(laplacian(iv.agent_graph), dtype=float)
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
        size, nn = self.state.size, n * n
        # free the last interval's maps and stacks, and the chunk's views of them
        self.flow_maps = self.flow_blocks = self.stacks = self.zx = self.wy = self.sz = None
        self.x_mats = self.y_mats = self.sz_steps = self.f = self.l = self.gamma = self.zeta = None

        # the stacks a chunk holds from its start to its end, by the shape of
        # one step: the flows' values at its steps and after the last, the
        # gains at its steps and the plant-observer state at its record steps
        flows, gains = {}, {}
        flow_row = 0  # floats of one modal row of every flow
        if mode != "static_gains":
            flows["x"], gains["f"] = (n_agents, n, n), self.f_shape
            flow_row += 2 * n_agents * nn
        if mode == "algorithm1":
            flows["y"], flows["sz"] = (n_agents, n, n), (2 * (n_agents + 1),)
            gains["l"], gains["gamma"] = self.l_shape, (n_agents,)
            flow_row += 2 * n_agents * nn + 2 * (n_agents + 1)
        flow_floats = sum(math.prod(s) for s in flows.values())
        per_step = flow_floats + sum(math.prod(s) for s in gains.values())
        every = self.record_every
        # a chunk of k steps holds k per_step + flow_floats + (k // every +
        # 1) size floats, in half the budget ...
        half = CHUNK_BYTES // 16 - flow_floats - size
        self.chunk = max(1, half * every // (per_step * every + size))
        # ... and a slice one map per step and the terms it is built from
        # (analysis.observer_loop_matrix), s^2 + 4 N n^2 floats a step, in
        # the other half, next to the FLOW_BLOCK rows each flow carries
        slice_step = 8 * (size * size + 4 * n_agents * nn)
        self.slice = max(1, (CHUNK_BYTES // 2 - 8 * FLOW_BLOCK * flow_row) // slice_step)
        shapes = {name: (self.chunk + 1,) + s for name, s in flows.items()}
        shapes.update({name: (self.chunk,) + s for name, s in gains.items()})
        shapes["states"] = (self.chunk // every + 1, size)
        self.stacks = self._allocate(shapes)
        for name in ("f", "l"):
            if name in self.stacks:
                # b @ f and l @ c read the padding of narrower channels
                self.stacks[name].fill(0.0)

        if mode == "static_gains":
            sg = self.s.static
            f = np.zeros(self.f_shape)
            for i, a in enumerate(actives):
                f[i, : chans[i].m] = np.asarray(sg.F[a], dtype=float)
            jm = np.stack(
                [n_agents * np.asarray(sg.L[a], dtype=float) @ chans[i].C for i, a in enumerate(actives)]
            )
            g = observer_loop_matrix(
                self.A, self.b @ f, jm, np.full(n_agents, float(n_agents)), np.full(n_agents, sg.gamma), lap
            )
            self.static_maps = (f, g)
            return

        # gain flow (and, in algorithm1, dual flow and size estimator):
        # each flow's block map and its first block of rows
        self.pos = 0
        lam, v = np.linalg.eigh(lap)
        self.v = v
        self.zx = v.T @ np.concatenate(
            [stack("Z").reshape(n_agents, nn), stack("X").reshape(n_agents, nn)], axis=1
        )
        bbt = 2.0 * self.b @ np.swapaxes(self.b, 1, 2)
        maps, block = _pi_flow_map(
            self.drift_x, p.k_c, p.gamma_c, lam, v.T @ bbt.reshape(n_agents, nn), h, self.zx
        )
        self.flow_maps, self.flow_blocks = [maps], [block]
        if mode != "algorithm1":
            return
        self.wy = v.T @ np.concatenate(
            [stack("W").reshape(n_agents, nn), stack("Y").reshape(n_agents, nn)], axis=1
        )
        ctc = 2.0 * np.swapaxes(self.c, 1, 2) @ self.c
        maps, block = _pi_flow_map(
            self.drift_y, p.k_o, p.gamma_o, lam, v.T @ ctc.reshape(n_agents, nn), h, self.wy
        )
        self.flow_maps.append(maps)
        self.flow_blocks.append(block)
        # size estimator over (psi, zeta) of informer 0 (first in id
        # order) and the agents, as a single mode
        self.sz = np.concatenate([[informer[0]], stack("psi"), [informer[1]], stack("zeta")])
        ops, drive = size_flow_operator(p.k_s, p.gamma_s, laplacian(iv.graph), 0)
        p_t, s, block = _block_map(ops, drive, h, self.sz)
        self.flow_maps.append((p_t[None], s[None]))
        self.flow_blocks.append(block[None])

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

    def _allocate(self, shapes: dict) -> dict:
        """The interval's per-step stacks, uninitialised, by name."""
        return {name: np.empty(shape) for name, shape in shapes.items()}

    # -- one chunk -----------------------------------------------------------

    def _chunk(self, tr: Trace, s0: int, s1: int) -> None:
        """Steps s0 .. s1 - 1 of the current interval: flows, gains, plant.

        A flow step that turns non-finite cuts the chunk after it; once
        the plant has taken that step too, IntegrationError reports its
        time, as after any other non-finite step.
        """
        h, every = self.h, self.record_every
        n_adv = min(s1, self.total_steps) - s0  # the final step records only
        failed = None
        if self.mode != "static_gains":
            failed = self._flows(n_adv)
            if failed is not None:
                s1 = s0 + failed + 1
                n_adv = s1 - s0
        k = s1 - s0
        if self.mode == "static_gains":
            self.f = np.broadcast_to(self.static_maps[0], (k,) + self.f_shape)
        else:
            self._gains(np.arange(s0, s1) * h)
        # the chunk's step j is a record step when j % every == phase, and
        # its state is then row j // every of the kept states
        phase = -s0 % every
        kept = self.stacks["states"]
        state = self.state
        for j0 in range(0, k, self.slice):
            for j, g_j in enumerate(self._maps(j0, min(j0 + self.slice, k)), j0):
                if j % every == phase:
                    kept[j // every] = state
                if j < n_adv:
                    state = rk4_step(lambda _t, y, g=g_j: g @ y, state, (s0 + j) * h, h)
        self.state = state
        rec = np.arange(phase, k, every)
        if rec.size:
            self._record(tr, (s0 + rec) // every, rec, kept[: rec.size])
        if failed is not None:
            raise IntegrationError("non-finite state after RK4 stage", (s0 + failed) * h)

    def _flows(self, n_adv: int) -> int | None:
        """Advance the flows n_adv steps, writing each step's X, Y and size
        estimator into the interval's stacks.

        ``self.x_mats[j]``, ``self.y_mats[j]`` (agent coordinates, ``(N,
        n, n)``) and ``self.sz_steps[j]`` are the values at the chunk's
        step j; the last advance leaves the current value, which is also
        the row ``pos`` of each flow's block (``zx``, ``wy``, ``sz``).
        Each flow's rows come from its current block and the whole blocks
        after it, the last of which is carried into the next chunk.
        Returns the first j whose advance gave a non-finite value, or
        None; the kept values then stop at step j.
        """
        nn, pos = self.n * self.n, self.pos
        v, stacks = self.v, self.stacks
        outs = [stacks["x"].reshape(self.chunk + 1, -1, nn)]
        if self.mode == "algorithm1":
            outs += [stacks["y"].reshape(self.chunk + 1, -1, nn), stacks["sz"]]
        failed = n_adv
        # a step that overflows is found below and reported as
        # IntegrationError; the steps after it need no warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for i, ((p_t, s), block, out) in enumerate(zip(self.flow_maps, self.flow_blocks, outs)):
                r, lo = 0, pos
                while True:
                    rows = block[:, lo : lo + min(FLOW_BLOCK - lo, n_adv + 1 - r)]
                    cnt = rows.shape[1]
                    if i < 2:
                        # X or Y in agent coordinates, one batched product
                        np.matmul(v, rows[:, :, nn:].transpose(1, 0, 2), out=out[r : r + cnt])
                    else:
                        out[r : r + cnt] = rows[0]
                    # row r + j comes from the advance of step r + j - 1; the
                    # chunk's first row was checked when it was made
                    ok = np.isfinite(rows).all(axis=(0, 2))
                    ok[0] |= r == 0
                    if not ok.all():
                        failed = min(failed, r + int(np.argmin(ok)) - 1)
                    r += cnt
                    if r > n_adv:
                        break
                    # the next block, y + (P y + s) for each of its rows,
                    # from one product per mode
                    nxt = np.matmul(block, p_t)
                    nxt += s[:, None]
                    nxt += block
                    block, lo = nxt, 0
                self.flow_blocks[i] = block
        self.pos = (pos + n_adv) % FLOW_BLOCK
        cur = [block[:, self.pos] for block in self.flow_blocks]
        rows = failed + 1
        self.zx, self.x_mats = cur[0], stacks["x"][:rows]
        if self.mode == "algorithm1":
            self.wy, self.y_mats = cur[1], stacks["y"][:rows]
            self.sz, self.sz_steps = cur[2][0], stacks["sz"][:rows]
        return failed if failed < n_adv else None

    def _gains(self, ts: np.ndarray) -> None:
        """Every agent's gains at the times ts.

        Each agent refreshes once over the whole chunk from its own X, Y
        and zeta stacks; ``self.f``, ``self.l``, ``self.gamma`` and
        ``self.zeta`` are the interval's stacks over the chunk's steps.
        """
        n_agents, k = len(self.actives), ts.size
        self.f = f = self.stacks["f"][:k]
        if self.mode == "state_feedback":
            # no observer and zeta 0: the zeta clamp makes F_i = -B_i^T Phi(X_i)
            for i, ag in enumerate(self.members):
                f[:, i, : self.widths[i][0]] = ag.refresh_gains(ts, self.x_mats[:k, i], None, 0.0)[0]
            return
        self.zeta = zeta = self.sz_steps[:k, n_agents + 2 :]
        self.l, self.gamma = l, gamma = self.stacks["l"][:k], self.stacks["gamma"][:k]
        for i, ag in enumerate(self.members):
            m_i, p_i = self.widths[i]
            f[:, i, :m_i], l[:, i, :, :p_i], gamma[:, i] = ag.refresh_gains(
                ts, self.x_mats[:k, i], self.y_mats[:k, i], zeta[:, i]
            )

    def _maps(self, j0: int, j1: int) -> np.ndarray:
        """The frozen-gain maps of plant and observers at the chunk's steps
        j0 .. j1 - 1, from the gain stacks of :meth:`_gains`."""
        if self.mode == "static_gains":
            g = self.static_maps[1]
            return np.broadcast_to(g, (j1 - j0,) + g.shape)
        k0 = self.b @ self.f[j0:j1]
        if self.mode == "state_feedback":
            return self.A + k0.sum(axis=1)
        zeta = self.zeta[j0:j1]
        jm = zeta[..., None, None] * (self.l[j0:j1] @ self.c)
        return observer_loop_matrix(self.A, k0, jm, zeta, self.gamma[j0:j1], self.lap)

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
            # the exact threshold at the last step, where the run applied
            # the capped gain
            cap = s.params.gamma_cap
            last = self.zeta.shape[0] - 1
            for i, (aid, ag) in enumerate(zip(self.actives, self.members)):
                m_i, p_i = self.widths[i]
                gamma = ag.threshold(self.y_mats[last, i], self.zeta[last, i])
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
            err_x = _sym_norm2(self.x_mats[rec] - iv.X_star / n_agents)
        if mode == "algorithm1":
            err_y = _sym_norm2(self.y_mats[rec] - iv.Y_star / n_agents)
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


def _sym_norm2(e: np.ndarray) -> np.ndarray:
    """The 2-norms of a stack of symmetric matrices: the largest |eigenvalue|.

    The flows keep X and Y symmetric up to rounding only, so the
    symmetric part is taken first.
    """
    lam = np.linalg.eigvalsh(0.5 * (e + np.swapaxes(e, -2, -1)))
    return np.maximum(-lam[..., 0], lam[..., -1])


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
    """Uniform trace CSV; absent agents and unrecorded series emit empty fields.

    Every value prints as ``repr(float)`` and a non-finite one as an
    empty field, with CRLF line ends as ``csv.writer`` writes them.
    """
    n = tr.x.shape[1]
    header = ["t"] + [f"x_{j+1}" for j in range(n)]
    cols = [tr.times, tr.x]
    for a in tr.agent_ids:
        m = tr.u[a].shape[1]
        header += [f"a{a}_xhat_{j+1}" for j in range(n)]
        header += [f"a{a}_zeta"]
        header += [f"a{a}_u_{j+1}" for j in range(m)]
        header += [f"a{a}_err_obs", f"a{a}_err_X", f"a{a}_err_Y"]
        cols += [tr.xhat[a], tr.zeta[a], tr.u[a], tr.err_obs[a], tr.err_x[a], tr.err_y[a]]
    header.append("informer_zeta")
    cols.append(tr.informer_zeta)

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        # blocks of rows bound the table, its Python floats and strings
        for k in range(0, tr.times.size, 64):
            block = np.column_stack([c[k : k + 64] for c in cols])
            block[~np.isfinite(block)] = np.nan  # repr gives "nan", which prints as ""
            lines = "\r\n".join(",".join(map(repr, row)) for row in block.tolist())
            fh.write(lines.replace("nan", "") + "\r\n")


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
        gains = tr.final_gains.get(a, {})  # algorithm1 only, agents active at the end
        final_agents[str(a)] = {
            "gamma": gains.get("gamma"),
            "gamma_effective": gains.get("gamma_effective"),
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
