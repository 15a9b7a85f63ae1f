import importlib
import pkgutil

import numpy as np
import pytest

import plugplay
from plugplay import analysis, bass, consensus, matlib, suites
from plugplay.consensus import INFORMER_ID, FlowParams
from plugplay.graph import laplacian, r_matrix
from plugplay.matlib import rk4_propagator
from plugplay.plant import Channel, PlantModel


def oracle_envelopes(seed: int, envelopes: int = 50):
    """The per-trajectory loop: one matrix-vector product per RK4 step.

    Draws the instances in the suite's order and returns, per instance,
    ``(n, ts, xs, verdict)``.
    """
    rng = np.random.default_rng(seed + 1)
    h, horizon = 1e-3, 10.0
    steps = int(round(horizon / h))
    keep = max(1, steps // 100)
    out = []
    for _ in range(envelopes):
        a, b, beta, widths, _ = suites.random_gain_instance(rng, n_max=4, m_max=2)
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


def test_refused_gain_instance_is_reported(monkeypatch):
    """When bass_solve refuses a drawn pair, the draw still resamples on
    the Gramian alone, so the instances stay the same, and the check
    reports each refusal."""
    real_solve, real_draw = bass.bass_solve, suites.random_gain_instance
    drawn = []

    def draw(rng, *args, **kwargs):
        inst = real_draw(rng, *args, **kwargs)
        drawn.append(inst[0])
        return inst

    def solve(a, b, beta, **kwargs):
        if a.shape[0] == 2:
            raise ValueError("refused")
        return real_solve(a, b, beta, **kwargs)

    monkeypatch.setattr(suites, "random_gain_instance", draw)
    suites.check_gain_abscissa(seed=3, count=12)
    accepted, drawn = drawn, []
    monkeypatch.setattr(bass, "bass_solve", solve)
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

    def solve(a, b, beta, **kwargs):
        if a.shape[0] == 6:
            raise ValueError("refused")
        return real_solve(a, b, beta, **kwargs)

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
            suites.check_gain_abscissa(seed=5, count=16),
            *suites.suite_theorem1(seed=5, count=10),
            suites.suite_appendix(seed=5, bound_count=40, eq_count=0)[0],
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
