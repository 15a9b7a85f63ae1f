"""The benchmark's workloads: inputs from a seed, one operation, checks.

Each workload has ``build(seed)``, which makes the inputs (and counts as
set-up), and ``run(inputs, outdir)``, one operation of the workload.
``cpu_bound`` says whether the operation's time follows the speed of the
CPU, so that ``run.py`` scales it by the CPU-speed gauge (``gauge.py``).  An
operation returns an :class:`Outcome`: how many units of work it
attempted, which of them were refused or answered wrongly, a digest of
everything it computed (for the bit-identical rerun check) and the
values it reports.

The program is imported from ``src/`` of the checkout the benchmark
runs in, so the benchmark measures the source tree next to it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from plugplay import analysis, bass, cli, consensus, matlib, sim  # noqa: E402
from plugplay.agent import AgentParams  # noqa: E402
from plugplay.consensus import INFORMER_ID  # noqa: E402
from plugplay.graph import Graph  # noqa: E402
from plugplay.plant import Channel, PlantModel, aggregate  # noqa: E402

# The packaged demo runs 60 s of simulated time (about 45 s of wall time
# on a 2-vCPU VM), more than one benchmark run can hold.  31 s keeps both events
# (leave at 15 s, join at 30 s) and both complete 15 s intervals.
DEMO_HORIZON = 31.0
DEMO_SIZES = [3, 2, 5]
PLANT8_HORIZON = 20.0
PLANT8_SIZES = [6, 5, 7]
CERTIFY_N = (4, 8, 16, 32)
CERTIFY_AGENTS = (2, 8, 32)
CERTIFY_RATE_N = (4, 5, 6)
CERTIFY_BETA = 0.5
CERTIFY_BASE_SEED = 0
ABSCISSA_TOL = 1e-6
SUITE_NAMES = ("bass", "consensus", "theorem1", "appendix")


@dataclass
class Outcome:
    """What one operation did: work attempted, failures, digest, values."""

    attempted: int = 0
    refused: list = field(default_factory=list)  # raised instead of answering
    wrong: list = field(default_factory=list)  # answered, but a check failed
    digest: str = ""
    values: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def _hash(h, arr) -> None:
    h.update(np.ascontiguousarray(np.asarray(arr, dtype=float)).tobytes())


# ---------------------------------------------------------------------------
# simulation workloads


def demo_scenario(seed: int) -> sim.Scenario:
    """The packaged load-transport scenario, cut at DEMO_HORIZON.

    Seed 0 is the packaged scenario; other seeds turn the load
    (``theta0``) and move the goal (``p_desired``).
    """
    if seed == 0:
        theta0, goal = 0.0, (100.0, 150.0)
    else:
        rng = np.random.default_rng(seed)
        theta0 = float(rng.uniform(0.0, 2.0 * np.pi / 9.0))
        goal = (float(rng.uniform(50.0, 150.0)), float(rng.uniform(100.0, 200.0)))
    s = sim.build_load_transport_scenario(theta0=theta0, p_desired=goal)
    return replace(s, solver=replace(s.solver, t_end=DEMO_HORIZON))


def plant8_scenario(seed: int) -> sim.Scenario:
    """A generated n=8 plant with eight SISO-input channels.

    A = (S - S^T)/sqrt(2n) has an imaginary spectrum, so beta=0.25 is
    admissible.  Six agents start on a ring plus an informer star; agent
    2 leaves at T/4 and the ring is healed with (1, 3); agents 7 and 8
    join at T/2 and close the ring 1-3-4-5-6-7-8.
    """
    rng = np.random.default_rng(seed)
    n = 8
    s = rng.normal(size=(n, n))
    a = (s - s.T) / np.sqrt(2 * n)
    chans = tuple(
        Channel(i, rng.normal(size=(n, 1)), rng.normal(size=(int(rng.integers(1, 3)), n)))
        for i in range(1, 9)
    )
    ring = [(i, i % 6 + 1) for i in range(1, 7)]
    star = [(INFORMER_ID, i) for i in range(1, 7)]
    t = PLANT8_HORIZON
    events = (
        sim.Event(t / 4, "leave", 2, add_edges=((1, 3),)),
        sim.Event(t / 2, "join", 7, add_edges=((6, 7), (INFORMER_ID, 7))),
        sim.Event(t / 2, "join", 8, add_edges=((7, 8), (1, 8), (INFORMER_ID, 8)),
                  remove_edges=((1, 6),)),
    )
    return sim.Scenario(
        plant=PlantModel(a, chans),
        x0=rng.normal(size=n),
        initial_agents=tuple(range(1, 7)),
        graph=Graph.from_edges(range(0, 7), ring + star),
        solver=sim.SolverSettings(h=1e-3, t_end=t, record_every=10),
        params=AgentParams(beta=0.25, gamma_cap=200.0, t_phi=2.0),
        events=events,
        metadata={"kind": "plant8", "seed": seed},
    )


def trace_digest(tr: sim.Trace) -> str:
    """sha256 over every recorded series and the final gains."""
    h = hashlib.sha256()
    for arr in (tr.times, tr.x, tr.informer_zeta):
        _hash(h, arr)
    for a in tr.agent_ids:
        for series in (tr.xhat, tr.zeta, tr.u, tr.err_obs, tr.err_x, tr.err_y):
            _hash(h, series[a])
    for a in sorted(tr.final_gains):
        g = tr.final_gains[a]
        for key in ("F", "L", "gamma", "gamma_effective", "zeta"):
            _hash(h, g[key])
    return h.hexdigest()


def interval_end_errors(tr: sim.Trace):
    """Per positive-length interval: (interval, max |zeta-N|, max X err, max Y err)."""
    rows = []
    for iv in tr.intervals:
        if iv.t_end <= iv.t_start:
            continue
        k = int(np.searchsorted(tr.times, iv.t_end)) - 1
        n_act = len(iv.actives)
        rows.append((
            iv,
            max(abs(tr.zeta[a][k] - n_act) for a in iv.actives),
            max(tr.err_x[a][k] for a in iv.actives),
            max(tr.err_y[a][k] for a in iv.actives),
        ))
    return rows


def _validated(scenario: sim.Scenario) -> sim.Scenario:
    sim.validate_scenario(scenario)
    return scenario


def _run_sim(scenario: sim.Scenario, outdir: Path, out: Outcome, sizes: list[int]):
    """Run and write the scenario the way ``plugplay run -o DIR`` does.

    Checks a finite trace and the agent counts of the intervals, and
    returns the interval-end errors.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = perf_counter()
    tr = sim.run_scenario(scenario)
    t1 = perf_counter()
    sim.write_trace_csv(tr, outdir / "trace.csv")
    sim.write_events_csv(tr, outdir / "events.csv")
    sim.write_summary_json(tr, scenario, outdir / "summary.json")
    t2 = perf_counter()
    steps = int(round(scenario.solver.t_end / scenario.solver.h))
    out.attempted += 1
    out.digest = trace_digest(tr)
    last = tr.intervals[-1]
    x_ratio = float(np.linalg.norm(tr.x[-1]) / np.linalg.norm(tr.x[0]))
    out.values.update({
        "run_s": t1 - t0,
        "steps_per_s": steps / (t1 - t0),
        "output_s": t2 - t1,
        "state_err_ratio": x_ratio,
        "flow_err_end": float(max(tr.err_x[a][-1] for a in last.actives)),
    })
    if not np.all(np.isfinite(tr.x)):
        out.wrong.append("trace has non-finite plant states")
    rows = interval_end_errors(tr)
    got = [len(iv.actives) for iv, *_ in rows]
    if got != sizes:
        out.wrong.append(f"interval sizes {got} != {sizes}")
    return rows


class Demo:
    name = "demo"
    cpu_bound = True

    def build(self, seed: int):
        return _validated(demo_scenario(seed))

    def run(self, scenario, outdir: Path) -> Outcome:
        out = Outcome()
        rows = _run_sim(scenario, outdir, out, DEMO_SIZES)
        # C8a at the ends of the two intervals the horizon holds whole
        full = [r for r in rows if r[0].t_end < DEMO_HORIZON]
        zeta_err = max(z for _, z, _, _ in full)
        if not zeta_err < 0.1:
            out.wrong.append(f"C8a: max |zeta - N| at interval ends {zeta_err:.3g} >= 0.1")
        # C8b-short is a documented known failure: reported, never counted
        out.values["C8a_zeta_err"] = float(zeta_err)
        out.values["C8b_short_X_err"] = float(max(x for *_, x, _ in full))
        out.values["C8b_short_Y_err"] = float(max(y for *_, y in full))
        out.notes.append(
            "C8b-short (known failure, not counted): |X_i - X*/N| = "
            f"{out.values['C8b_short_X_err']:.3g}, |Y_i - Y*/N| = {out.values['C8b_short_Y_err']:.3g}"
        )
        out.notes.append(
            f"C8b-final and C8c need the 60 s horizon and are not checked at {DEMO_HORIZON:g} s"
        )
        return out


class Plant8:
    name = "plant8"
    cpu_bound = True

    def build(self, seed: int):
        return _validated(plant8_scenario(seed))

    def run(self, scenario, outdir: Path) -> Outcome:
        out = Outcome()
        _run_sim(scenario, outdir, out, PLANT8_SIZES)
        if not out.values["state_err_ratio"] < 0.1:
            out.wrong.append(f"|x(T)|/|x0| = {out.values['state_err_ratio']:.3g} >= 0.1")
        return out


# ---------------------------------------------------------------------------
# certificate workloads


class Verify:
    """``plugplay verify <suite> --seed S --json FILE`` for every suite."""

    name = "verify"
    cpu_bound = True

    def build(self, seed: int):
        return seed

    def run(self, seed, outdir: Path) -> Outcome:
        out = Outcome()
        outdir.mkdir(parents=True, exist_ok=True)
        h = hashlib.sha256()
        for suite in SUITE_NAMES:
            report = outdir / f"{suite}.json"
            argv = ["verify", suite, "--seed", str(seed), "--json", str(report)]
            t0 = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            out.values[f"suite.{suite}_s"] = perf_counter() - t0
            text = report.read_text()
            h.update(text.encode())
            checks = json.loads(text)["checks"]
            out.attempted += len(checks)
            out.wrong += [f"{suite}: {c['name']} failed" for c in checks if not c["passed"]]
            if code != 0 and all(c["passed"] for c in checks):
                out.wrong.append(f"{suite}: exit code {code} with every check passing")
        out.digest = h.hexdigest()
        return out


def _ring(n_agents: int) -> Graph:
    ids = list(range(1, n_agents + 1))
    if n_agents == 2:
        return Graph.from_edges(ids, [(1, 2)])
    return Graph.from_edges(ids, [(ids[i], ids[(i + 1) % n_agents]) for i in range(n_agents)])


def _skew(rng, n: int) -> np.ndarray:
    s = rng.normal(size=(n, n))
    return (s - s.T) / np.sqrt(2 * n)


def _rotation(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class CertifyInputs:
    plants: tuple  # (n, N, PlantModel, ring graph)
    rate_plants: tuple  # (n, A)


class Certify:
    """Design-time certificate path at plant sizes ``verify`` never reaches.

    The instance set is drawn once from a fixed base seed; the run seed
    applies a random orthogonal change of state coordinates (seed 0 is
    the base set itself).  Every seed thus has the same spectra, the
    same conditioning and the same rank-test outcomes, so the cost of an
    operation does not depend on the seed.
    """

    name = "certify"
    # Most of an operation is LAPACK solves on 1024 x 1024 Kronecker
    # matrices, which wait on memory more than on the CPU: over 40
    # operations the log of their time moved 0.16 times the log of the
    # gauge's kernel time (correlation 0.42), and scaling by the gauge
    # more than doubled their spread.  Their wall time is reported as is.
    cpu_bound = False

    def build(self, seed: int) -> CertifyInputs:
        base = np.random.default_rng(CERTIFY_BASE_SEED)
        rot_rng = np.random.default_rng(seed)
        sizes = sorted(set(CERTIFY_N) | set(CERTIFY_RATE_N))
        rot = {n: (np.eye(n) if seed == 0 else _rotation(rot_rng, n)) for n in sizes}
        plants = []
        for n in CERTIFY_N:
            q = rot[n]
            for n_agents in CERTIFY_AGENTS:
                a = q @ _skew(base, n) @ q.T
                chans = tuple(
                    Channel(i, q @ base.normal(size=(n, 1)), base.normal(size=(1, n)) @ q.T)
                    for i in range(1, n_agents + 1)
                )
                plants.append((n, n_agents, PlantModel(a, chans), _ring(n_agents)))
        rate_plants = tuple((n, rot[n] @ _skew(base, n) @ rot[n].T) for n in CERTIFY_RATE_N)
        return CertifyInputs(tuple(plants), rate_plants)

    def run(self, inputs: CertifyInputs, outdir: Path) -> Outcome:
        out = Outcome()
        h = hashlib.sha256()
        beta = CERTIFY_BETA
        for n, n_agents, p, g in inputs.plants:
            out.attempted += 1
            tag = f"n={n} N={n_agents}"
            b, c = aggregate(p)
            try:
                sol = bass.bass_solve(p.A, b, beta, widths=[1] * n_agents)
                dual = bass.dual_bass_solve(p.A, c, beta, heights=[1] * n_agents)
                cert = bass.bass_certificate(p, sol, dual, g)
                decomp = analysis.closed_loop_matrix(
                    p, sol.F_blocks, dual.L_blocks, 1.01 * cert.gamma_min, g
                )
                loop_abscissa = matlib.spectral_abscissa(decomp.assembled)
            except (ValueError, np.linalg.LinAlgError) as exc:
                out.refused.append(f"{tag}: {type(exc).__name__}: {exc}")
                h.update(f"{tag} refused {exc}".encode())
                continue
            gain = matlib.spectral_abscissa(p.A + b @ sol.F)
            inj = matlib.spectral_abscissa(p.A + dual.L @ c)
            x_min = float(np.linalg.eigvalsh(sol.X_star)[0])
            y_min = float(np.linalg.eigvalsh(dual.Y_star)[0])
            if gain > -beta + ABSCISSA_TOL or inj > -beta + ABSCISSA_TOL or x_min <= 0 or y_min <= 0:
                out.wrong.append(
                    f"{tag}: abscissa(A+BF)={gain:.3g} abscissa(A+LC)={inj:.3g} "
                    f"lmin(X*)={x_min:.3g} lmin(Y*)={y_min:.3g}"
                )
            for arr in (sol.X_star, sol.F, dual.Y_star, dual.L, cert.gamma_min, loop_abscissa):
                _hash(h, arr)
        for n, a in inputs.rate_plants:
            out.attempted += 1
            fp = consensus.bass_rate_params(a, beta, _ring(8), 0.5)
            if not (np.isfinite(fp.k) and np.isfinite(fp.gamma)):
                out.wrong.append(f"bass_rate_params n={n}: k={fp.k} gamma={fp.gamma}")
            _hash(h, [fp.k, fp.gamma])
        out.digest = h.hexdigest()
        return out


WORKLOADS = {w.name: w for w in (Demo(), Plant8(), Verify(), Certify())}

