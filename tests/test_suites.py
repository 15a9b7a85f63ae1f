import importlib
import pkgutil
from dataclasses import replace

import numpy as np
import pytest

import plugplay
from plugplay import analysis, bass, consensus, matlib, suites
from plugplay.consensus import INFORMER_ID, FlowParams
from plugplay.graph import laplacian, r_matrix
from plugplay.matlib import rk4_propagator
from plugplay.plant import Channel, PlantModel, aggregate


def oracle_gain_instance(rng, n_max=6, m_max=4):
    """The per-instance loop: draw, solve alone and resample, then draw
    the widths.  Returns the instance and the count of its draws."""
    for draws in range(1, 51):
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(1, min(m_max, n) + 1))
        a = rng.normal(size=(n, n)) / np.sqrt(n)
        a = a + (float(rng.uniform(0.0, 0.5)) - matlib.min_real_part(a)) * np.eye(n)
        b = rng.normal(size=(n, m))
        beta = float(rng.uniform(0.1, 2.0))
        try:
            sol = bass.bass_solve(a, b, beta)
            x = sol.X_star
        except (ValueError, np.linalg.LinAlgError) as exc:
            sol = exc
            x = matlib.solve_lyapunov(-(a + beta * np.eye(n)), 2.0 * b @ b.T)
        w = np.linalg.eigvalsh(x)
        if w[0] > 1e-9 * w[-1]:
            break
    widths = []
    left = m
    while left > 0:
        w_i = int(rng.integers(1, left + 1))
        widths.append(w_i)
        left -= w_i
    if not isinstance(sol, Exception):
        sol = replace(sol, F_blocks=bass._split_rows(sol.F, widths))
    return (a, b, beta, tuple(widths), sol), draws


def oracle_envelopes(seed: int, envelopes: int = 50):
    """The per-trajectory loop: one matrix-vector product per RK4 step.

    Draws each slot's instance alone, from the slot's generator, and
    returns, per instance, ``(n, ts, xs, verdict)``.
    """
    h, horizon = 1e-3, 10.0
    steps = int(round(horizon / h))
    keep = max(1, steps // 100)
    out = []
    for rng in suites._slots(seed + 1, envelopes):
        (a, b, beta, widths, _), _ = oracle_gain_instance(rng, n_max=4, m_max=2)
        sol = bass.bass_solve(a, b, beta, widths=widths)
        x = rng.normal(size=a.shape[0])
        prop, _ = rk4_propagator(a + b @ sol.F, h)
        xs, ts = [x.copy()], [0.0]
        for k in range(steps):
            x = prop @ x
            if (k + 1) % keep == 0:
                xs.append(x.copy())
                ts.append((k + 1) * h)
        ts, xs = np.array(ts), np.array(xs)
        out.append((a.shape[0], ts, xs, bass.decay_certificate(sol, ts, xs)))
    return out


def assert_same_instance(got, want):
    a, b, beta, widths, sol = got
    a_ref, b_ref, beta_ref, widths_ref, sol_ref = want
    assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
    assert (beta, widths) == (beta_ref, widths_ref)
    if isinstance(sol_ref, Exception):
        assert (type(sol), str(sol)) == (type(sol_ref), str(sol_ref))
        return
    assert sol.beta == sol_ref.beta
    for x, y in [(sol.X_star, sol_ref.X_star), (sol.X_star_inv, sol_ref.X_star_inv), (sol.F, sol_ref.F),
                 *zip(sol.F_blocks, sol_ref.F_blocks, strict=True)]:
        assert np.array_equal(x, y)


@pytest.mark.parametrize("seed", [0, 4])
def test_rounds_draw_each_slot_as_the_lone_loop(seed):
    """A slot's instance is the one the per-instance loop draws alone from
    the slot's generator, bit for bit, and the rounds reject as many
    candidates as the loops do."""
    count = 120
    instances, rejected = suites.random_gain_instance(suites._slots(seed, count))
    oracle = [oracle_gain_instance(rng) for rng in suites._slots(seed, count)]
    assert len(instances) == count
    for got, (want, _) in zip(instances, oracle):
        assert_same_instance(got, want)
    assert rejected == sum(draws - 1 for _, draws in oracle)
    result = suites.check_gain_abscissa(seed, count)
    assert result.resampled == rejected
    # a lone generator is a stack of one
    for rng, ref in zip(suites._slots(seed, 5), suites._slots(seed, 5)):
        assert_same_instance(suites.random_gain_instance(rng), oracle_gain_instance(ref)[0])
        assert rng.random() == ref.random()


def oracle_threshold_instance(rng):
    """suite_theorem1's per-instance loop for one slot: resample until the
    threshold is at most 1e8 (60 draws at most), then the Hurwitz test
    and, if it passes, the initial state and the moderate gain."""
    for draws in range(1, 61):
        p = suites.random_normalized_plant(rng)
        chans = sorted(p.channels, key=lambda c: c.id)
        g = suites.random_connected_graph(rng, tuple(c.id for c in chans))
        beta = float(rng.uniform(0.25, 1.0))
        bmat, cmat = aggregate(p)
        sol = bass.bass_solve(p.A, bmat, beta, widths=[c.m for c in chans])
        dual = bass.dual_bass_solve(p.A, cmat, beta, heights=[c.p for c in chans])
        cert = bass.bass_certificate(p, sol, dual, g)
        if cert.gamma_min <= 1e8:
            break
    gamma = 1.01 * cert.gamma_min
    absc = matlib.spectral_abscissa(analysis.closed_loop_matrix(p, sol.F_blocks, dual.L_blocks, gamma, g).assembled)
    if absc >= 0:
        return (p, sol, dual, g, beta, gamma, absc, None, None), draws
    x0 = rng.normal(size=(len(chans) + 1) * p.n)
    return (p, sol, dual, g, beta, gamma, absc, x0, float(rng.uniform(0.5, 20.0))), draws


@pytest.mark.parametrize("seed", [0, 3])
def test_threshold_rounds_draw_each_slot_as_the_lone_loop(seed):
    count = 40
    passed, hurwitz_fail, rejected = suites._threshold_instances(seed, count)
    oracle = [oracle_threshold_instance(rng) for rng in suites._slots(seed, count)]
    assert rejected == sum(draws - 1 for _, draws in oracle)
    assert [f["index"] for f in hurwitz_fail] == [k for k, (o, _) in enumerate(oracle) if o[-1] is None]
    assert [inst[0] for inst in passed] == [k for k, (o, _) in enumerate(oracle) if o[-1] is not None]
    for (idx, p, f_blocks, l_blocks, g, beta, gamma, x0, gamma_mod) in passed:
        (p_ref, sol, dual, g_ref, beta_ref, gamma_ref, _, x0_ref, mod_ref), _ = oracle[idx]
        assert np.array_equal(p.A, p_ref.A) and g == g_ref
        assert (beta, gamma, gamma_mod) == (beta_ref, gamma_ref, mod_ref)
        assert np.array_equal(x0, x0_ref)
        for got, want in [*zip(f_blocks, sol.F_blocks, strict=True), *zip(l_blocks, dual.L_blocks, strict=True)]:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stacked_envelopes_equal_the_per_trajectory_loop(seed, monkeypatch):
    calls = []
    real = bass.decay_certificate

    def spy(sol, ts, xs, *args, **kwargs):
        ok = real(sol, ts, xs, *args, **kwargs)
        calls.append((sol, np.array(ts), np.array(xs), ok))
        return ok

    monkeypatch.setattr(bass, "decay_certificate", spy)
    result = suites.check_decay_envelopes(seed)
    monkeypatch.undo()
    oracle = oracle_envelopes(seed)

    assert len(calls) == len(oracle) == 50
    assert {n for n, *_ in oracle} == {2, 3, 4}
    for (sol, ts, xs, ok), (n, ts_ref, xs_ref, ok_ref) in zip(calls, oracle):
        assert sol.X_star.shape == (n, n)
        assert ts.dtype == ts_ref.dtype and np.array_equal(ts, ts_ref)
        # stacked by state dimension, each row rounds as the lone product
        assert xs.dtype == xs_ref.dtype and np.array_equal(xs, xs_ref)
        assert ok == ok_ref
    fails = [idx for idx, (*_, ok_ref) in enumerate(oracle) if not ok_ref]
    assert result.passed == (not fails)
    assert result.detail == f"{50 - len(fails)}/50 trajectories inside the envelope"


def test_gain_instance_carries_the_bass_solution():
    """The instance's solution is the one a fresh bass_solve gives, bit for bit."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b, beta, widths, sol = suites.random_gain_instance(rng)
        fresh = bass.bass_solve(a, b, beta, widths=widths)
        assert sol.beta == fresh.beta
        for got, want in [(sol.X_star, fresh.X_star), (sol.X_star_inv, fresh.X_star_inv), (sol.F, fresh.F),
                          *zip(sol.F_blocks, fresh.F_blocks)]:
            assert np.array_equal(got, want)
        assert len(sol.F_blocks) == len(fresh.F_blocks) == len(widths)


def refusing(real_solve, n_refused):
    """A stacked bass_solve that refuses every member of state size n_refused."""

    def solve(a, b, beta, **kwargs):
        out = real_solve(a, b, beta, **kwargs)
        return [ValueError("refused") if m.shape[0] == n_refused else s for m, s in zip(a, out, strict=True)]

    return solve


def test_refused_gain_instance_is_reported(monkeypatch):
    """When bass_solve refuses a drawn pair, the draw still resamples on
    the Gramian alone, so the instances stay the same, and the check
    reports each refusal."""
    real_solve, real_draw = bass.bass_solve, suites.random_gain_instance
    drawn = []

    def draw(rngs, *args, **kwargs):
        instances, rejected = real_draw(rngs, *args, **kwargs)
        drawn.extend(inst[0] for inst in instances)
        return instances, rejected

    monkeypatch.setattr(suites, "random_gain_instance", draw)
    suites.check_gain_abscissa(seed=3, count=12)
    accepted, drawn = drawn, []
    monkeypatch.setattr(bass, "bass_solve", refusing(real_solve, 2))
    result = suites.check_gain_abscissa(seed=3, count=12)
    assert all(np.array_equal(a, b) for a, b in zip(drawn, accepted, strict=True))
    sizes = [a.shape[0] for a in drawn]
    assert 0 < sizes.count(2) < 12
    assert result.detail == f"{12 - sizes.count(2)}/12 instances ok"
    assert (result.repro["index"], result.repro["why"]) == (sizes.index(2), "solve failed: refused")


@pytest.mark.parametrize("n_agents", [1, 2, 4, 6])
def test_propagate_affine_holds_the_size_fixed_point(n_agents):
    """Started at the size estimator's equilibrium, 200 exact steps stay
    there: the constant coordinate of the affine flow is never stepped."""
    g_bar = suites.informer_topology("star", n_agents)
    params = FlowParams(1.0, 1.5)
    zeta_star, psi_tilde = analysis.size_equilibrium(n_agents, params, g_bar)
    rmat, _ = r_matrix(g_bar)
    s_star = np.concatenate([rmat @ psi_tilde, np.full(g_bar.n, zeta_star)])
    m, c = consensus.size_flow_operator(params.k, params.gamma, laplacian(g_bar), g_bar.nodes.index(INFORMER_ID))
    series = suites.propagate_affine(m, c, s_star, 0.5 * np.arange(201))
    assert np.abs(series - s_star).max() <= 1e-12 * max(1, n_agents)


def test_batching_changes_no_verdict(monkeypatch):
    """Instances reach the stacked checks in batches of one shape; the
    batch an instance lands in must not change its verdict, nor the
    index reported for the first failure.  Stricter checks make some
    instances of every kind fail."""
    real_solve, real_abscissa, real_match = bass.bass_solve, suites.spectral_abscissa, suites._greedy_match
    solve = refusing(real_solve, 6)

    def abscissa(a):
        # the batched gain check reads a stack: fail its n = 3 members
        out = real_abscissa(a)
        return out + 10.0 * (np.shape(a)[-1] == 3) if np.ndim(a) > 2 else out

    monkeypatch.setattr(bass, "bass_solve", solve)
    monkeypatch.setattr(suites, "spectral_abscissa", abscissa)
    monkeypatch.setattr(suites, "_greedy_match", lambda ev1, ev2, tol: ev1.size % 5 and real_match(ev1, ev2, tol))
    monkeypatch.setattr(analysis.BlockBound, "passed", property(lambda b: b.lhs <= 0.45 * b.rhs))

    def run():
        return [
            suites.check_gain_abscissa(seed=6, count=16),
            *suites.suite_theorem1(seed=6, count=10),
            suites.suite_appendix(seed=6, bound_count=40, eq_count=0)[0],
        ]

    whole = run()
    monkeypatch.setattr(suites, "HELD", 2)
    assert run() == whole
    failed = {r.name: r.repro for r in whole if not r.passed}
    assert {"gain_synthesis_abscissa", "block_bounds_synthesized_gains", "spectrum_equivalence",
            "block_bounds_random_gains"} <= failed.keys()
    assert all(r["index"] > 0 for r in failed.values())


def oracle_normalized_plant(rng, n_max=4, agents_max=5, agents_min=2):
    """The per-channel loop: each channel drawn, then normalized alone
    with one SVD per map."""
    n = int(rng.integers(2, n_max + 1))
    n_agents = int(rng.integers(agents_min, agents_max + 1))
    a = rng.normal(size=(n, n)) / np.sqrt(n)
    a = a + (float(rng.uniform(0.0, 0.3)) - np.linalg.eigvals(a).real.min()) * np.eye(n)
    chans = []
    for i in range(1, n_agents + 1):
        b = rng.normal(size=(n, 1))
        p_i = int(rng.integers(1, 3))
        c = rng.normal(size=(p_i, n))
        nb, nc = (float(np.linalg.svd(m, compute_uv=False)[0]) for m in (b, c))
        chans.append(Channel(i, b / nb, c / nc, nb, nc))
    return PlantModel(a, tuple(chans))


@pytest.mark.parametrize("seed", range(20))
def test_random_plant_draws_the_per_channel_plant(seed):
    for kwargs in ({}, {"n_max": 4, "agents_max": 6}):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got, want = suites.random_normalized_plant(rng, **kwargs), oracle_normalized_plant(ref, **kwargs)
            assert np.array_equal(got.A, want.A)
            assert [c.id for c in got.channels] == [c.id for c in want.channels]
            for g, w in zip(got.channels, want.channels):
                assert np.array_equal(g.B, w.B) and np.array_equal(g.C, w.C)
                assert (g.input_scale, g.output_scale) == (w.input_scale, w.output_scale)
        # the generator is left where the loop leaves it
        assert rng.random() == ref.random()


def test_stacked_norms_change_no_report(monkeypatch):
    """With ``matlib.induced_2norms`` replaced by one ``np.linalg.svd``
    per matrix, wherever a module looks it up, no report changes."""

    def run():
        return [
            suites.check_gain_abscissa(count=10),
            *suites.suite_theorem1(count=5),
            *suites.suite_appendix(bound_count=20, eq_count=2),
        ]

    stacked = run()
    calls = []

    def one_svd_per_matrix(mats):
        calls.append(len(mats))
        return np.array([
            np.linalg.svd(m, compute_uv=False)[0] if m.size else 0.0
            for m in (np.atleast_2d(np.asarray(m, dtype=float)) for m in mats)
        ])

    for info in pkgutil.iter_modules(plugplay.__path__):
        mod = importlib.import_module(f"plugplay.{info.name}")
        if getattr(mod, "induced_2norms", None) is matlib.induced_2norms:
            monkeypatch.setattr(mod, "induced_2norms", one_svd_per_matrix)
    alone = run()
    assert calls
    assert alone == stacked
