"""Randomized certificate suites behind the `verify` CLI command.

Each suite draws seeded random instances, runs one of the numerical
certificates, and reports pass/fail per check.  Failing checks carry a
JSON-serializable reproduction blob.  A seed pins the whole instance
set: the gain and threshold checks give each instance slot its own
`numpy` Generator, spawned from the seed, and draw the slots in rounds
(see :func:`random_gain_instance`); the other checks draw from one
Generator per suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis, bass, consensus
from .consensus import INFORMER_ID, FlowParams
from .graph import Graph, laplacian, r_matrix
from .matlib import expm, induced_2norm, induced_2norms, min_real_part, rk4_propagator, solve_lyapunov, spectral_abscissa, unvec
from .plant import PlantModel, _normalized, aggregate

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
    """One check's verdict; `resampled` counts the candidates its rounds
    drew and rejected before they accepted its instances."""

    name: str
    passed: bool
    detail: str = ""
    repro: dict = field(default_factory=dict)
    resampled: int = 0


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


def _slots(seed: int, count: int) -> list[np.random.Generator]:
    """One generator per instance slot, spawned from the seed, so what a
    slot draws does not depend on what the other slots draw."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(count)]


def random_gain_instance(rng, n_max: int = 6, m_max: int = 4):
    """(A, B, beta, widths, sol): controllable pair with a valid shift in [0.1, 2].

    A is shifted so its leftmost eigenvalue has nonnegative real part,
    which makes every beta > 0 admissible.  Pairs whose shifted Gramian
    is conditioned worse than ~1e9 are resampled, up to 50 draws: past
    that point the certified tolerances stop being meaningful in double
    precision for any implementation.  The Gramian is the X* of
    ``bass.bass_solve(A, B, beta)``, and sol is that solution with its
    gain split by the widths, or the exception that call raised.  A's
    one eigensolve serves the shift and the solve.

    `rng` may also be a sequence of generators, one per instance slot.
    The slots are then drawn in rounds: each round draws one candidate
    from every open slot, solves them all with one stacked
    ``bass.bass_solve``, and accepts or rejects each.  A slot ends with
    the instance a lone call on its generator gives, and the result is
    ``(instances, rejected)``, with the count of rejected candidates.
    """
    lone = isinstance(rng, np.random.Generator)
    rngs = [rng] if lone else list(rng)
    found: list = [None] * len(rngs)
    waiting = list(range(len(rngs)))
    rejected = 0
    for attempt in range(1, 51):
        drawn = []
        for i in waiting:
            r = rngs[i]
            n = int(r.integers(2, n_max + 1))
            m = int(r.integers(1, min(m_max, n) + 1))
            a = r.normal(size=(n, n)) / np.sqrt(n)
            up = float(r.uniform(0.0, 0.5))
            drawn.append((i, a, up, r.normal(size=(n, m)), float(r.uniform(0.1, 2.0))))
        aa, res = [], []
        for (_, a, up, _, _), re in zip(drawn, bass._real_spectra([d[1] for d in drawn])):
            shift = up - float(re.min())
            aa.append(a + shift * np.eye(a.shape[0]))
            res.append(re + shift)
        bb, betas = [d[3] for d in drawn], [d[4] for d in drawn]
        sols = bass.bass_solve(aa, bb, betas, eig_real=res)
        grams = [
            sol.X_star if not isinstance(sol, Exception)
            else solve_lyapunov(-(a + beta * np.eye(a.shape[0])), 2.0 * b @ b.T)
            for a, b, beta, sol in zip(aa, bb, betas, sols)
        ]
        conds = [None] * len(drawn)
        for grp in bass._groups([x.shape[0] for x in grams], range(len(drawn))):
            for j, w in zip(grp, np.linalg.eigvalsh(np.stack([grams[j] for j in grp]))):
                conds[j] = w[0] > 1e-9 * w[-1]
        waiting = []
        for (i, *_), a, b, beta, sol, ok in zip(drawn, aa, bb, betas, sols, conds):
            if ok or attempt == 50:
                found[i] = (a, b, beta, sol)
            else:
                waiting.append(i)
                rejected += 1
        if not waiting:
            break
    out = []
    for r, (a, b, beta, sol) in zip(rngs, found):
        widths = []
        left = b.shape[1]
        while left > 0:
            w_i = int(r.integers(1, left + 1))
            widths.append(w_i)
            left -= w_i
        if not isinstance(sol, Exception):
            sol = replace(sol, F_blocks=bass._split_rows(sol.F, widths))
        out.append((a, b, beta, tuple(widths), sol))
    return out[0] if lone else (out, rejected)


def random_normalized_plant(
    rng: np.random.Generator, n_max: int = 4, agents_max: int = 5, agents_min: int = 2
) -> PlantModel:
    """Random plant with one single-input/single-output-block channel per agent."""
    n = int(rng.integers(2, n_max + 1))
    n_agents = int(rng.integers(agents_min, agents_max + 1))
    a = rng.normal(size=(n, n)) / np.sqrt(n)
    a = a + (float(rng.uniform(0.0, 0.3)) - min_real_part(a)) * np.eye(n)
    maps = []
    for i in range(1, n_agents + 1):
        b = rng.normal(size=(n, 1))
        p_i = int(rng.integers(1, 3))
        maps.append((i, b, rng.normal(size=(p_i, n)), 1.0, 1.0))
    return PlantModel(a, _normalized(maps))


def propagate_affine(m: np.ndarray, w: np.ndarray, s0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Exact sampling of ``sdot = M s + w`` on a uniform time grid.

    One step is ``s <- P s + q``, read off the exponential of the
    augmented generator ``[[M, w], [0, 0]] dt``, which is
    ``[[P, q], [0, 1]]``; the constant coordinate is never stepped, so
    it cannot drift from 1.
    """
    dim = s0.size
    dt = float(t_grid[1] - t_grid[0])
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = m
    aug[:dim, dim] = w
    prop = expm(aug * dt)
    p, q = prop[:dim, :dim], prop[:dim, dim]
    out = np.empty((t_grid.size, dim))
    out[0] = s = s0
    for k in range(1, t_grid.size):
        out[k] = s = p @ s + q
    return out


def fit_decay_rate(t: np.ndarray, err: np.ndarray) -> float:
    """Least-squares decay rate of log(err) over the tail half of the
    decaying portion of the series (samples at the numerical floor, 1e-12
    of the first, are excluded so a fast transient to roundoff does not
    flatten the fit)."""
    err = np.maximum(np.asarray(err, dtype=float), 1e-300)
    floor = 1e-12 * max(float(err[0]), 1e-30)
    above = np.nonzero(err > floor)[0]
    last = int(above[-1]) if above.size else err.size - 1
    lo = max(1, last // 2)
    tt, ee = t[lo : last + 1], err[lo : last + 1]
    if tt.size < 3:
        return np.inf
    coef = np.polyfit(tt, np.log(ee), 1)
    return float(-coef[0])


# Most instances a suite holds between drawing and checking them.  The
# bound keeps batching from raising the process's peak memory.
HELD = 32


def _batches(instances, shape):
    """Group a stream of instances by shape, for batched checks.

    Yields lists of instances of one shape, in any order.  Once `HELD`
    instances wait, the largest group is yielded.  The suites check each
    batch with stacked calls: numpy's stacked products, SVDs and
    eigensolvers run the same BLAS or LAPACK routine on each matrix as a
    call on that matrix alone, so an instance's verdict does not depend
    on its batch.  Stacks are never zero-padded to a common shape, since
    a padded matrix rounds differently.
    """
    waiting: dict = {}
    held = 0
    for inst in instances:
        waiting.setdefault(shape(inst), []).append(inst)
        held += 1
        if held == HELD:
            batch = waiting.pop(max(waiting, key=lambda k: len(waiting[k])))
            held -= len(batch)
            yield batch
    yield from waiting.values()


# ---------------------------------------------------------------------------
# suite: gain synthesis (closed-loop abscissa + decay envelopes)


def check_gain_abscissa(seed: int = 0, count: int = 200) -> CheckResult:
    instances, resampled = random_gain_instance(_slots(seed, count))
    bad = []

    def solved():
        for idx, (a, b, beta, _, sol) in enumerate(instances):
            if isinstance(sol, Exception):
                bad.append((idx, f"solve failed: {sol}", a, b, beta))
                continue
            yield idx, a, b, beta, sol

    for batch in _batches(solved(), lambda inst: inst[1].shape[0]):
        idxs, aa, bb, betas, sols = zip(*batch)
        n = aa[0].shape[0]
        absc = spectral_abscissa(np.stack([a + b @ sol.F for a, b, sol in zip(aa, bb, sols)]))
        x = np.stack([sol.X_star for sol in sols])
        lam_min = np.linalg.eigvalsh(x)[:, 0]
        m = -(np.stack(aa) + np.array(betas)[:, None, None] * np.eye(n))
        q = np.stack([2 * b @ b.T for b in bb])
        resid, norm_m, norm_x, norm_q = induced_2norms([*(m @ x + x @ np.swapaxes(m, 1, 2) + q), *m, *x, *q]).reshape(4, -1)
        scale = norm_m * norm_x + norm_q
        for k, (idx, a, b, beta, sol) in enumerate(zip(idxs, aa, bb, betas, sols)):
            recon = np.vstack(sol.F_blocks)
            if absc[k] > -beta + 1e-6 or lam_min[k] <= 0 or resid[k] > 1e-8 * scale[k] or not np.array_equal(recon, sol.F):
                bad.append((idx, f"abscissa={absc[k]:.3e} lam_min={lam_min[k]:.3e} resid={resid[k]:.3e}", a, b, beta))
    bad.sort(key=lambda item: item[0])
    return CheckResult(
        "gain_synthesis_abscissa",
        not bad,
        f"{count - len(bad)}/{count} instances ok",
        {} if not bad else {"index": bad[0][0], "why": bad[0][1], "A": bad[0][2].tolist(), "B": bad[0][3].tolist(), "beta": bad[0][4]},
        resampled,
    )


def check_decay_envelopes(seed: int = 0, envelopes: int = 50) -> CheckResult:
    rngs = _slots(seed + 1, envelopes)
    instances, resampled = random_gain_instance(rngs, n_max=4, m_max=2)
    h, horizon = 1e-3, 10.0
    steps = int(round(horizon / h))
    keep = max(1, steps // 100)
    sols, props, x0s = [], [], []
    for r, (a, b, _, _, sol) in zip(rngs, instances):
        if isinstance(sol, Exception):
            raise sol
        sols.append(sol)
        props.append(rk4_propagator(a + b @ sol.F, h)[0])
        x0s.append(r.normal(size=a.shape[0]))
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
        resampled,
    )


def suite_bass(seed: int = 0, count: int = 200, envelopes: int = 50) -> list[CheckResult]:
    return [check_gain_abscissa(seed, count), check_decay_envelopes(seed, envelopes)]


# ---------------------------------------------------------------------------
# suite: distributed flows


def _flow_error_series(a, maps, beta, params, g, target, t_grid, rng):
    n_agents, n = len(maps), a.shape[0]
    seed_z = rng.normal(size=(n_agents, n, n))
    seed_x = rng.normal(size=(n_agents, n, n))
    m, c = consensus.gain_flow_operator(a, maps, beta, params, g)
    series = propagate_affine(m, c, np.concatenate([seed_z.ravel(), seed_x.ravel()]), t_grid)
    x = series[:, seed_z.size :].reshape(t_grid.size, n_agents, n, n)
    return np.linalg.norm(x - target, 2, axis=(2, 3)).max(axis=1)


def _loose_horizon(a, maps, beta, params, g, contraction) -> float:
    """Horizon long enough for the slowest decaying mode to contract by ``contraction``."""
    m, _ = consensus.gain_flow_operator(a, maps, beta, params, g)
    w = np.linalg.eigvals(m)
    decaying = w.real[w.real < -1e-9]
    slow = float(-decaying.max())
    return float(np.log(contraction) / slow)


def suite_consensus(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    delta = 0.5

    for dual in (False, True):
        ok = True
        detail = []
        repro = {}
        for gi in range(3):
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
                # the dual flow is the gain flow on (A^T, C_i^T)
                flow_a, flow_maps = a.T, {i: c.T for i, c in maps.items()}
            else:
                maps = {i: rng.normal(size=(n, 1)) for i in ids}
                bagg = np.hstack([maps[i] for i in ids])
                target = bass.bass_solve(a, bagg, beta, check_controllability=False).X_star / n_agents
                flow_a, flow_maps = a, maps
            params = consensus.bass_rate_params(flow_a, beta, g, delta)
            # the initial flow error is ~err0_scale per agent; both runs
            # below contract it past 1e-8 at their slowest rate
            err0_scale = 10.0
            budget = err0_scale * n_agents / 1e-8
            t_final = float(np.log(budget) / delta)
            t_grid = np.linspace(0.0, t_final, 241)
            errs = _flow_error_series(flow_a, flow_maps, beta, params, g, target, t_grid, rng)
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
            t2 = _loose_horizon(flow_a, flow_maps, beta, loose, g, budget)
            t_grid2 = np.linspace(0.0, t2, 201)
            errs2 = _flow_error_series(flow_a, flow_maps, beta, loose, g, target, t_grid2, rng)
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


def _eig_propagate(m: np.ndarray, x0: np.ndarray, t) -> np.ndarray:
    """x(t) of xdot = M x via eigendecomposition (fine for huge stable modes).

    A stack of M ``(..., d, d)`` takes x0 ``(..., d)`` and t ``(...)``.
    """
    w, v = np.linalg.eig(m)
    coef = np.linalg.solve(v, x0.astype(complex)[..., None])
    wt = w * np.asarray(t)[..., None]
    with np.errstate(over="ignore", under="ignore"):
        grow = np.exp(wt)
        grow[wt.real < -700] = 0.0
    return (v @ (grow[..., None] * coef))[..., 0].real


def _threshold_instances(seed: int, count: int):
    """suite_theorem1's instances, drawn in rounds over one generator per slot.

    A slot resamples until the certified threshold stays below ~1e8, up
    to 60 draws: past that, eigensolver backward error (|M| * eps)
    swamps the O(1) real parts and a Hurwitz check cannot certify
    either way.  Each round solves its candidates' primal and dual
    equations, certificates, closed loops at 1.01x threshold and their
    Hurwitz tests in stacked calls.  A slot that passes draws its
    initial state and its moderate gain next.  Returns the instances
    that pass, the Hurwitz failures and the count of rejected candidates.
    """
    rngs = _slots(seed, count)
    waiting = list(range(count))
    passed, hurwitz_fail = [], []
    rejected = 0
    for attempt in range(1, 61):
        drawn = []
        for i in waiting:
            r = rngs[i]
            p = random_normalized_plant(r)
            chans = sorted(p.channels, key=lambda c: c.id)
            g = random_connected_graph(r, tuple(c.id for c in chans))
            drawn.append((i, p, chans, g, float(r.uniform(0.25, 1.0))))
        maps = [aggregate(p) for _, p, *_ in drawn]
        pairs = bass.bass_solve_pairs(
            [p.A for _, p, *_ in drawn], [b for b, _ in maps], [c for _, c in maps],
            [beta for *_, beta in drawn],
            [[c.m for c in chans] for _, _, chans, _, _ in drawn],
            [[c.p for c in chans] for _, _, chans, _, _ in drawn],
        )
        for sol, dual in pairs:
            for got in (sol, dual):
                if isinstance(got, Exception):
                    raise got
        certs = bass.bass_certificate(
            [p for _, p, *_ in drawn], [s for s, _ in pairs], [d for _, d in pairs], [d[3] for d in drawn]
        )
        for cert in certs:
            if isinstance(cert, Exception):
                raise cert
        waiting, accepted = [], []
        for (i, p, _, g, beta), (sol, dual), cert in zip(drawn, pairs, certs):
            if cert.gamma_min <= 1e8 or attempt == 60:
                accepted.append((i, p, sol.F_blocks, dual.L_blocks, g, beta, 1.01 * cert.gamma_min))
            else:
                waiting.append(i)
                rejected += 1
        for grp in bass._groups([(inst[1].n, len(inst[1].channels)) for inst in accepted], range(len(accepted))):
            _, ps, fs, ls, gs, _, gammas = zip(*(accepted[j] for j in grp))
            decomp = analysis.closed_loop_matrix(list(ps), list(fs), list(ls), np.array(gammas), list(gs))
            for j, absc in zip(grp, spectral_abscissa(decomp.assembled)):
                idx, p, *_, gamma = accepted[j]
                if absc >= 0:
                    hurwitz_fail.append({"index": idx, "abscissa": float(absc), "gamma": gamma})
                    continue
                # initial state of the flat loop over (x, xhat_1..xhat_N)
                x0 = rngs[idx].normal(size=(len(p.channels) + 1) * p.n)
                passed.append((*accepted[j], x0, float(rngs[idx].uniform(0.5, 20.0))))
        if not waiting:
            break
    passed.sort(key=lambda inst: inst[0])
    hurwitz_fail.sort(key=lambda item: item["index"])
    return passed, hurwitz_fail, rejected


def suite_theorem1(seed: int = 0, count: int = 100) -> list[CheckResult]:
    passed, hurwitz_fail, resampled = _threshold_instances(seed, count)
    decay_fail = []
    bounds_fail = []
    spectrum_fail = []

    for batch in _batches(iter(passed), lambda inst: (inst[1].n, len(inst[1].channels))):
        idxs, ps, fs, ls, gs, betas, gammas, x0s, gamma_mods = zip(*batch)
        n = ps[0].n
        # s1..s5 do not depend on gamma, so the loop at gamma_mod serves
        # both the block-norm bounds and the spectrum check
        decomp = analysis.closed_loop_matrix(ps, fs, ls, np.array(gamma_mods), gs)
        reports = analysis.verify_block_bounds(decomp, ps, fs, ls)
        # simulated decay of the plant state over 20/beta
        flat = np.stack([analysis.flat_closed_loop_matrix(*inst) for inst in zip(ps, fs, ls, gammas, gs)])
        xts = _eig_propagate(flat, np.stack(x0s), 20.0 / np.array(betas))
        # spectrum equivalence at a moderate gain
        flat_mod = np.stack([analysis.flat_closed_loop_matrix(*inst) for inst in zip(ps, fs, ls, gamma_mods, gs)])
        ev1 = np.sort_complex(np.linalg.eigvals(decomp.assembled))
        ev2 = np.sort_complex(np.linalg.eigvals(flat_mod))
        for k, idx in enumerate(idxs):
            if not reports[k].all_pass:
                bounds_fail.append({"index": idx, "bounds": [(b.name, b.lhs, b.rhs) for b in reports[k].bounds]})
            lhs = np.linalg.norm(xts[k, :n])
            rhs = 1e-2 * np.linalg.norm(x0s[k][:n])
            if lhs >= rhs:
                decay_fail.append({"index": idx, "ratio": float(lhs / max(np.linalg.norm(x0s[k][:n]), 1e-300))})
            if not _greedy_match(ev1[k], ev2[k], 1e-7):
                spectrum_fail.append({"index": idx})
    for fails in (decay_fail, bounds_fail, spectrum_fail):
        fails.sort(key=lambda item: item["index"])

    out = [
        CheckResult(
            "threshold_hurwitz",
            not hurwitz_fail,
            f"{count - len(hurwitz_fail)}/{count} assembled matrices Hurwitz at 1.01x threshold",
            hurwitz_fail[0] if hurwitz_fail else {},
            resampled,
        ),
        CheckResult(
            "closed_loop_decay",
            not decay_fail,
            f"plant state contracts below 1e-2 within 20/beta on all instances",
            decay_fail[0] if decay_fail else {},
            resampled,
        ),
        CheckResult(
            "block_bounds_synthesized_gains",
            not bounds_fail,
            "all five block bounds hold on every instance",
            bounds_fail[0] if bounds_fail else {},
            resampled,
        ),
        CheckResult(
            "spectrum_equivalence",
            not spectrum_fail,
            "assembled and flat closed loops have matching spectra (1e-7)",
            spectrum_fail[0] if spectrum_fail else {},
            resampled,
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

    def drawn():
        for idx in range(bound_count):
            p = random_normalized_plant(rng, n_max=4, agents_max=6)
            chans = sorted(p.channels, key=lambda c: c.id)
            g = random_connected_graph(rng, tuple(c.id for c in chans))
            f_blocks = [rng.normal(size=(c.m, p.n)) for c in chans]
            l_blocks = [rng.normal(size=(p.n, c.p)) for c in chans]
            yield idx, p, f_blocks, l_blocks, g

    fails = []
    for batch in _batches(drawn(), lambda inst: (inst[1].n, len(inst[1].channels))):
        idxs, ps, fs, ls, gs = zip(*batch)
        decomp = analysis.closed_loop_matrix(ps, fs, ls, 1.0, gs)
        for idx, rep in zip(idxs, analysis.verify_block_bounds(decomp, ps, fs, ls)):
            if not rep.all_pass:
                fails.append({"index": idx, "bounds": [(b.name, b.lhs, b.rhs) for b in rep.bounds]})
    fails.sort(key=lambda item: item["index"])
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
        s = np.concatenate([z_stack.ravel(), x_stack.ravel()])
        resid = float(np.abs(consensus.bass_flow_derivative(s, a, maps, beta, params, g)).max())
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
        s = np.concatenate([rmat @ psi_tilde, np.full(g_bar.n, zeta_star)])
        resid = float(np.abs(consensus.size_flow_derivative(s, params, g_bar)).max())
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
