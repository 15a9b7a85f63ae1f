"""Randomized certificate suites behind the `verify` CLI command.

Each suite draws seeded random instances, runs one of the numerical
certificates, and reports pass/fail per check.  Failing checks carry a
JSON-serializable reproduction blob.  All randomness flows through one
`numpy` Generator per suite, so a seed pins the whole instance set.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import analysis, bass, consensus
from .consensus import INFORMER_ID, FlowParams
from .graph import Graph, laplacian, r_matrix
from .matlib import induced_2norm, min_real_part, rk4_propagator, spectral_abscissa, unvec
from .plant import Channel, PlantModel, aggregate, normalize_channel

__all__ = [
    "CheckResult",
    "suite_bass",
    "suite_consensus",
    "suite_theorem1",
    "suite_appendix",
    "run_suites",
    "SUITES",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    repro: dict = field(default_factory=dict)


def thread_count() -> int:
    """Worker cap from PLUGPLAY_THREADS (0 or unset = automatic).

    The suites run single-threaded; the benchmark's environment record
    (``perfbench/run.py``) is this function's only reader, and the
    function goes once that record stops calling it.
    """
    raw = os.environ.get("PLUGPLAY_THREADS", "0")
    try:
        val = int(raw)
    except ValueError:
        val = 0
    if val <= 0:
        return min(8, os.cpu_count() or 1)
    return val


# ---------------------------------------------------------------------------
# instance generators


def random_connected_graph(rng: np.random.Generator, ids) -> Graph:
    """Random spanning tree plus a few extra edges over the given ids."""
    ids = list(ids)
    edges = set()
    order = list(rng.permutation(len(ids)))
    for k in range(1, len(ids)):
        j = order[int(rng.integers(0, k))]
        i = order[k]
        a, b = ids[min(i, j)], ids[max(i, j)]
        edges.add((min(a, b), max(a, b)))
    extra = int(rng.integers(0, len(ids)))
    for _ in range(extra):
        i, j = rng.choice(len(ids), size=2, replace=False)
        a, b = ids[int(i)], ids[int(j)]
        edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(ids, sorted(edges))


def random_gain_instance(rng: np.random.Generator, n_max: int = 6, m_max: int = 4):
    """(A, B, beta, widths): controllable pair with a valid shift in [0.1, 2].

    A is shifted so its leftmost eigenvalue has nonnegative real part,
    which makes every beta > 0 admissible.  Pairs whose shifted Gramian
    is conditioned worse than ~1e9 are resampled: past that point the
    certified tolerances stop being meaningful in double precision for
    any implementation.
    """
    from .matlib import solve_lyapunov

    for _ in range(50):
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(1, min(m_max, n) + 1))
        a = rng.normal(size=(n, n)) / np.sqrt(n)
        a = a + (float(rng.uniform(0.0, 0.5)) - min_real_part(a)) * np.eye(n)
        b = rng.normal(size=(n, m))
        beta = float(rng.uniform(0.1, 2.0))
        x = solve_lyapunov(-(a + beta * np.eye(n)), 2.0 * b @ b.T)
        w = np.linalg.eigvalsh(x)
        if w[0] > 1e-9 * w[-1]:
            break
    widths = []
    left = m
    while left > 0:
        w_i = int(rng.integers(1, left + 1))
        widths.append(w_i)
        left -= w_i
    beta = float(beta)
    return a, b, beta, tuple(widths)


def random_normalized_plant(
    rng: np.random.Generator, n_max: int = 4, agents_max: int = 5, n_min: int = 2, agents_min: int = 2
) -> PlantModel:
    """Random plant with one single-input/single-output-block channel per agent."""
    n = int(rng.integers(n_min, n_max + 1))
    n_agents = int(rng.integers(agents_min, agents_max + 1))
    a = rng.normal(size=(n, n)) / np.sqrt(n)
    a = a + (float(rng.uniform(0.0, 0.3)) - min_real_part(a)) * np.eye(n)
    chans = []
    for i in range(1, n_agents + 1):
        b = rng.normal(size=(n, 1))
        p_i = int(rng.integers(1, 3))
        c = rng.normal(size=(p_i, n))
        chans.append(normalize_channel(Channel(i, b, c)))
    return PlantModel(a, tuple(chans))


def propagate_affine(m: np.ndarray, w: np.ndarray, s0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Exact sampling of ``sdot = M s + w`` on a uniform time grid."""
    dim = s0.size
    dt = float(t_grid[1] - t_grid[0])
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = m
    aug[:dim, dim] = w
    prop = expm(aug * dt)
    out = np.empty((t_grid.size, dim))
    s = np.concatenate([s0, [1.0]])
    out[0] = s0
    for k in range(1, t_grid.size):
        s = prop @ s
        out[k] = s[:dim]
    return out


def fit_decay_rate(t: np.ndarray, err: np.ndarray, floor_rel: float = 1e-12) -> float:
    """Least-squares decay rate of log(err) over the tail half of the
    decaying portion of the series (samples at the numerical floor are
    excluded so a fast transient to roundoff does not flatten the fit)."""
    err = np.maximum(np.asarray(err, dtype=float), 1e-300)
    floor = floor_rel * max(float(err[0]), 1e-30)
    above = np.nonzero(err > floor)[0]
    last = int(above[-1]) if above.size else err.size - 1
    lo = max(1, last // 2)
    tt, ee = t[lo : last + 1], err[lo : last + 1]
    if tt.size < 3:
        return np.inf
    coef = np.polyfit(tt, np.log(ee), 1)
    return float(-coef[0])


# ---------------------------------------------------------------------------
# suite: gain synthesis (closed-loop abscissa + decay envelopes)


def check_gain_abscissa(seed: int = 0, count: int = 200) -> CheckResult:
    rng = np.random.default_rng(seed)
    bad = []
    for idx in range(count):
        a, b, beta, widths = random_gain_instance(rng)
        try:
            sol = bass.bass_solve(a, b, beta, widths=widths)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            bad.append((idx, f"solve failed: {exc}", a, b, beta))
            continue
        absc = spectral_abscissa(a + b @ sol.F)
        lam_min = float(np.linalg.eigvalsh(sol.X_star)[0])
        m = -(a + beta * np.eye(a.shape[0]))
        resid = induced_2norm(m @ sol.X_star + sol.X_star @ m.T + 2 * b @ b.T)
        scale = induced_2norm(m) * induced_2norm(sol.X_star) + induced_2norm(2 * b @ b.T)
        recon = np.vstack(sol.F_blocks)
        if absc > -beta + 1e-6 or lam_min <= 0 or resid > 1e-8 * scale or not np.array_equal(recon, sol.F):
            bad.append((idx, f"abscissa={absc:.3e} lam_min={lam_min:.3e} resid={resid:.3e}", a, b, beta))
    return CheckResult(
        "gain_synthesis_abscissa",
        not bad,
        f"{count - len(bad)}/{count} instances ok",
        {} if not bad else {"index": bad[0][0], "why": bad[0][1], "A": bad[0][2].tolist(), "B": bad[0][3].tolist(), "beta": bad[0][4]},
    )


def check_decay_envelopes(seed: int = 0, envelopes: int = 50) -> CheckResult:
    rng = np.random.default_rng(seed + 1)
    h, horizon = 1e-3, 10.0
    steps = int(round(horizon / h))
    keep = max(1, steps // 100)
    sols, props, x0s = [], [], []
    for _ in range(envelopes):
        a, b, beta, widths = random_gain_instance(rng, n_max=4, m_max=2)
        sols.append(bass.bass_solve(a, b, beta, widths=widths))
        props.append(rk4_propagator(a + b @ sols[-1].F, h)[0])
        x0s.append(rng.normal(size=a.shape[0]))
    # RK4 with step h on xdot = Acl x: one batched product per step
    # advances all trajectories of one state dimension.  Stacks are not
    # zero-padded to a common size, because BLAS rounds a padded product
    # differently; each row is the trajectory a lone x <- prop @ x gives.
    runs = [None] * envelopes
    for n in {x0.size for x0 in x0s}:
        group = [idx for idx, x0 in enumerate(x0s) if x0.size == n]
        prop = np.stack([props[idx] for idx in group])
        x = np.stack([x0s[idx] for idx in group])[..., None]
        xs = [x]
        for k in range(steps):
            x = prop @ x
            if (k + 1) % keep == 0:
                xs.append(x)
        xs = np.stack(xs)[..., 0]
        for j, idx in enumerate(group):
            runs[idx] = xs[:, j]
    ts = h * np.arange(0, steps + 1, keep)
    fails = [idx for idx, sol in enumerate(sols) if not bass.decay_certificate(sol, ts, runs[idx])]
    return CheckResult(
        "decay_envelope",
        not fails,
        f"{envelopes - len(fails)}/{envelopes} trajectories inside the envelope",
        {} if not fails else {"index": fails[0], "seed": seed},
    )


def suite_bass(seed: int = 0, count: int = 200, envelopes: int = 50) -> list[CheckResult]:
    return [check_gain_abscissa(seed, count), check_decay_envelopes(seed, envelopes)]


# ---------------------------------------------------------------------------
# suite: distributed flows


def _gain_flow_operator(a, maps, beta, params, g, dual):
    """(M, c) of the gain flow over ``pack()`` order, or of its dual on (A^T, C_i^T)."""
    if dual:
        a = a.T
        maps = {i: c.T for i, c in maps.items()}
    q = np.stack([2.0 * maps[i] @ maps[i].T for i in sorted(maps)])
    return consensus.pi_flow_operator(
        consensus.flow_drift(a, beta), params.k, params.gamma, laplacian(g), q
    )


def _flow_error_series(a, maps, beta, params, g, target, t_grid, rng, dual=False):
    n_agents, n = len(maps), a.shape[0]
    seed_z = rng.normal(size=(n_agents, n, n))
    seed_x = rng.normal(size=(n_agents, n, n))
    m, c = _gain_flow_operator(a, maps, beta, params, g, dual)
    series = propagate_affine(m, c, np.concatenate([seed_z.ravel(), seed_x.ravel()]), t_grid)
    x = series[:, seed_z.size :].reshape(t_grid.size, n_agents, n, n)
    return np.linalg.norm(x - target, 2, axis=(2, 3)).max(axis=1)


def _loose_horizon(a, maps, beta, params, g, dual, contraction) -> float:
    """Horizon long enough for the slowest decaying mode to contract by ``contraction``."""
    m, _ = _gain_flow_operator(a, maps, beta, params, g, dual)
    w = np.linalg.eigvals(m)
    decaying = w.real[w.real < -1e-9]
    slow = float(-decaying.max())
    return float(np.log(contraction) / slow)


def suite_consensus(seed: int = 0, graphs: int = 3) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    delta = 0.5

    for dual in (False, True):
        ok = True
        detail = []
        repro = {}
        for gi in range(graphs):
            n = int(rng.integers(2, 4))
            n_agents = 5
            a = rng.normal(size=(n, n)) / np.sqrt(n)
            a = a + (0.1 - min_real_part(a)) * np.eye(n)
            beta = 1.0
            ids = tuple(range(1, n_agents + 1))
            g = random_connected_graph(rng, ids)
            if dual:
                maps = {i: rng.normal(size=(1, n)) for i in ids}
                cagg = np.vstack([maps[i] for i in ids])
                target = bass.dual_bass_solve(a, cagg, beta, check_observability=False).Y_star / n_agents
            else:
                maps = {i: rng.normal(size=(n, 1)) for i in ids}
                bagg = np.hstack([maps[i] for i in ids])
                target = bass.bass_solve(a, bagg, beta, check_controllability=False).X_star / n_agents
            params = consensus.bass_rate_params(a, beta, g, delta)
            # the initial flow error is ~err0_scale per agent; both runs
            # below contract it past 1e-8 at their slowest rate
            err0_scale = 10.0
            budget = err0_scale * n_agents / 1e-8
            t_final = float(np.log(budget) / delta)
            t_grid = np.linspace(0.0, t_final, 241)
            errs = _flow_error_series(a, maps, beta, params, g, target, t_grid, rng, dual=dual)
            rate = fit_decay_rate(t_grid, errs)
            if errs[-1] >= 1e-6 or rate < 0.95 * delta:
                ok = False
                repro = {"graph_index": gi, "seed": seed, "dual": dual,
                         "final_err": float(errs[-1]), "rate": float(rate)}
            detail.append(f"err(T)={errs[-1]:.2e} rate={rate:.3f}")
            # arbitrary positive parameters converge too, at their own
            # (uncertified) rate: read the slow mode off the lifted
            # operator and size the horizon with it
            loose = FlowParams(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
            t2 = _loose_horizon(a, maps, beta, loose, g, dual, budget)
            t_grid2 = np.linspace(0.0, t2, 201)
            errs2 = _flow_error_series(a, maps, beta, loose, g, target, t_grid2, rng, dual=dual)
            if errs2[-1] >= 1e-6:
                ok = False
                repro = {"graph_index": gi, "seed": seed, "dual": dual,
                         "loose_final_err": float(errs2[-1]), "horizon": t2}
        results.append(
            CheckResult(
                ("dual_gain_flow_convergence" if dual else "gain_flow_convergence"),
                ok,
                "; ".join(detail),
                repro,
            )
        )

    # network size estimator: N sweep over three informer topologies
    delta_s = 0.2
    fails = []
    details = []
    for n_agents in range(1, 9):
        for topo in ("star", "ring", "path"):
            g_bar = informer_topology(topo, n_agents)
            params = consensus.size_rate_params(n_agents, g_bar, delta_s)
            t_final = float(np.log(max(n_agents, 1) / 1e-5) / delta_s)
            t_grid = np.linspace(0.0, t_final, 201)
            m, c = consensus.size_flow_operator(
                params.k, params.gamma, laplacian(g_bar), g_bar.nodes.index(INFORMER_ID)
            )
            series = propagate_affine(m, c, np.zeros(2 * g_bar.n), t_grid)
            zeta_final = series[-1][g_bar.n :]
            err = float(np.abs(zeta_final - n_agents).max())
            if err >= 1e-3:
                fails.append({"N": n_agents, "topology": topo, "err": err})
            if n_agents == 3 and topo == "star":
                errs = np.abs(series[:, g_bar.n :] - n_agents).max(axis=1)
                rate = fit_decay_rate(t_grid, errs)
                details.append(f"rate(N=3,star)={rate:.3f}")
                if rate < 0.19:
                    fails.append({"N": n_agents, "topology": topo, "rate": rate})
    results.append(
        CheckResult(
            "size_estimator_convergence",
            not fails,
            "zeta within 1e-3 of N for N=1..8 x {star,ring,path}; " + "; ".join(details),
            {} if not fails else fails[0],
        )
    )
    return results


def informer_topology(kind: str, n_agents: int) -> Graph:
    """Informer-plus-agents test graphs: star, ring, or path."""
    ids = [INFORMER_ID] + list(range(1, n_agents + 1))
    if kind == "star":
        edges = [(INFORMER_ID, i) for i in range(1, n_agents + 1)]
    elif kind == "ring":
        edges = [(i, i + 1) for i in range(0, n_agents)]
        if n_agents >= 2:
            edges.append((INFORMER_ID, n_agents))
    elif kind == "path":
        edges = [(i, i + 1) for i in range(0, n_agents)]
    else:
        raise ValueError(f"unknown topology {kind!r}")
    return Graph.from_edges(ids, edges)


# ---------------------------------------------------------------------------
# suite: coupling-gain threshold


def _eig_propagate(m: np.ndarray, x0: np.ndarray, t: float) -> np.ndarray:
    """x(t) of xdot = M x via eigendecomposition (fine for huge stable modes)."""
    w, v = np.linalg.eig(m)
    coef = np.linalg.solve(v, x0.astype(complex))
    with np.errstate(over="ignore", under="ignore"):
        grow = np.exp(w * t)
        grow[w.real * t < -700] = 0.0
    return (v @ (grow * coef)).real


def suite_theorem1(seed: int = 0, count: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    hurwitz_fail = []
    decay_fail = []
    bounds_fail = []
    spectrum_fail = []

    for idx in range(count):
        # resample until the certified threshold stays below ~1e8: past
        # that, eigensolver backward error (|M| * eps) swamps the O(1)
        # real parts and a Hurwitz check cannot certify either way
        for _ in range(60):
            p = random_normalized_plant(rng)
            n_agents = len(p.channels)
            ids = tuple(c.id for c in sorted(p.channels, key=lambda c: c.id))
            g = random_connected_graph(rng, ids)
            beta = float(rng.uniform(0.25, 1.0))
            bmat, cmat = aggregate(p)
            sol = bass.bass_solve(p.A, bmat, beta, widths=[c.m for c in sorted(p.channels, key=lambda c: c.id)])
            dual = bass.dual_bass_solve(p.A, cmat, beta, heights=[c.p for c in sorted(p.channels, key=lambda c: c.id)])
            cert = bass.bass_certificate(p, sol, dual, g)
            if cert.gamma_min <= 1e8:
                break
        gamma = 1.01 * cert.gamma_min
        decomp = analysis.closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, gamma, g)
        absc = spectral_abscissa(decomp.assembled)
        if absc >= 0:
            hurwitz_fail.append({"index": idx, "abscissa": absc, "gamma": gamma})
            continue
        # block-norm bounds hold on every instance
        rep = analysis.verify_block_bounds(decomp, p, sol.F_blocks, dual.L_blocks)
        if not rep.all_pass:
            bounds_fail.append({"index": idx, "bounds": [(b.name, b.lhs, b.rhs) for b in rep.bounds]})
        # simulated decay of the plant state over 20/beta
        flat = analysis.flat_closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, gamma, g)
        x0 = rng.normal(size=flat.shape[0])
        xt = _eig_propagate(flat, x0, 20.0 / beta)
        n = p.n
        lhs = np.linalg.norm(xt[:n])
        rhs = 1e-2 * np.linalg.norm(x0[:n])
        if lhs >= rhs:
            decay_fail.append({"index": idx, "ratio": float(lhs / max(np.linalg.norm(x0[:n]), 1e-300))})
        # spectrum equivalence at a moderate gain
        gamma_mod = float(rng.uniform(0.5, 20.0))
        asm = analysis.closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, gamma_mod, g).assembled
        flat_mod = analysis.flat_closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, gamma_mod, g)
        ev1 = np.sort_complex(np.linalg.eigvals(asm))
        ev2 = np.sort_complex(np.linalg.eigvals(flat_mod))
        if not _greedy_match(ev1, ev2, 1e-7):
            spectrum_fail.append({"index": idx})

    out = [
        CheckResult(
            "threshold_hurwitz",
            not hurwitz_fail,
            f"{count - len(hurwitz_fail)}/{count} assembled matrices Hurwitz at 1.01x threshold",
            hurwitz_fail[0] if hurwitz_fail else {},
        ),
        CheckResult(
            "closed_loop_decay",
            not decay_fail,
            f"plant state contracts below 1e-2 within 20/beta on all instances",
            decay_fail[0] if decay_fail else {},
        ),
        CheckResult(
            "block_bounds_synthesized_gains",
            not bounds_fail,
            "all five block bounds hold on every instance",
            bounds_fail[0] if bounds_fail else {},
        ),
        CheckResult(
            "spectrum_equivalence",
            not spectrum_fail,
            "assembled and flat closed loops have matching spectra (1e-7)",
            spectrum_fail[0] if spectrum_fail else {},
        ),
    ]
    return out


def _greedy_match(ev1: np.ndarray, ev2: np.ndarray, tol: float) -> bool:
    if ev1.size != ev2.size:
        return False
    left = list(ev2)
    for lam in ev1:
        dist = [abs(lam - mu) for mu in left]
        j = int(np.argmin(dist))
        if dist[j] > tol * max(1.0, abs(lam)):
            return False
        left.pop(j)
    return True


# ---------------------------------------------------------------------------
# suite: block bounds and flow equilibria


def suite_appendix(seed: int = 0, bound_count: int = 500, eq_count: int = 25) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    fails = []
    for idx in range(bound_count):
        p = random_normalized_plant(rng, n_max=4, agents_max=6)
        ids = tuple(c.id for c in sorted(p.channels, key=lambda c: c.id))
        g = random_connected_graph(rng, ids)
        f_blocks = [rng.normal(size=(c.m, p.n)) for c in sorted(p.channels, key=lambda c: c.id)]
        l_blocks = [rng.normal(size=(p.n, c.p)) for c in sorted(p.channels, key=lambda c: c.id)]
        decomp = analysis.closed_loop_matrix(p, f_blocks, l_blocks, 1.0, g)
        rep = analysis.verify_block_bounds(decomp, p, f_blocks, l_blocks)
        if not rep.all_pass:
            fails.append({"index": idx, "bounds": [(b.name, b.lhs, b.rhs) for b in rep.bounds]})
    results.append(
        CheckResult(
            "block_bounds_random_gains",
            not fails,
            f"{bound_count - len(fails)}/{bound_count} randomized instances satisfy all five bounds",
            fails[0] if fails else {},
        )
    )

    eq_fails = []
    for idx in range(eq_count):
        n = int(rng.integers(2, 4))
        n_agents = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n)) / np.sqrt(n)
        a = a + (0.1 - min_real_part(a)) * np.eye(n)
        beta = 1.0
        ids = tuple(range(1, n_agents + 1))
        g = random_connected_graph(rng, ids)
        maps = {i: rng.normal(size=(n, 1)) for i in ids}
        params = FlowParams(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
        nu_t, chi_b = analysis.bass_equilibria(a, maps, beta, params, g)
        bagg = np.hstack([maps[i] for i in ids])
        x_star = bass.bass_solve(a, bagg, beta, check_controllability=False).X_star
        err_chi = induced_2norm(unvec(chi_b, n) - x_star / n_agents)
        # reconstruct a full fixed point and evaluate the flow on it
        rmat, _ = r_matrix(g)
        eye = np.eye(n * n)
        nu_full = np.kron(rmat, eye) @ nu_t
        z_stack = np.stack([unvec(nu_full[i * n * n : (i + 1) * n * n], n) for i in range(n_agents)])
        x_stack = np.stack([unvec(chi_b, n)] * n_agents)
        st = consensus.BassConsensusState(ids, z_stack, x_stack)
        d = consensus.bass_flow_derivative(st, a, maps, beta, params, g)
        resid = max(float(np.abs(d.Z).max()), float(np.abs(d.X).max()))
        if err_chi > 1e-10 or resid > 1e-12 * max(1.0, induced_2norm(x_star)):
            eq_fails.append({"index": idx, "err_chi": float(err_chi), "residual": float(resid)})
    results.append(
        CheckResult(
            "gain_flow_equilibria",
            not eq_fails,
            "chi_bar* = vec(X*/N) to 1e-10 and the reconstructed state is a flow fixed point",
            eq_fails[0] if eq_fails else {},
        )
    )

    size_fails = []
    for n_agents in (1, 2, 4, 6):
        g_bar = informer_topology("star", n_agents)
        params = FlowParams(1.0, 1.5)
        zeta_star, psi_tilde = analysis.size_equilibrium(n_agents, params, g_bar)
        rmat, _ = r_matrix(g_bar)
        st = consensus.SizeEstState(
            g_bar.nodes, rmat @ psi_tilde, np.full(g_bar.n, zeta_star)
        )
        d = consensus.size_flow_derivative(st, params, g_bar)
        resid = max(float(np.abs(d.psi).max()), float(np.abs(d.zeta).max()))
        if resid > 1e-12 * max(1.0, n_agents):
            size_fails.append({"N": n_agents, "residual": resid})
    results.append(
        CheckResult(
            "size_estimator_equilibrium",
            not size_fails,
            "size-estimator equilibrium is a fixed point to 1e-12",
            size_fails[0] if size_fails else {},
        )
    )
    return results


SUITES = {
    "bass": suite_bass,
    "consensus": suite_consensus,
    "theorem1": suite_theorem1,
    "appendix": suite_appendix,
}


def run_suites(which: str = "all", seed: int = 0) -> list[CheckResult]:
    names = list(SUITES) if which == "all" else [which]
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r} (choose from {', '.join(SUITES)} or all)")
        results.extend(SUITES[name](seed=seed))
    return results
