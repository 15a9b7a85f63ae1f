"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[C<n>] PASS/FAIL` line with the measured numbers
before asserting, so a red criterion still reports its evidence.  Run
with `pytest tests/test_acceptance.py -v -s` for the full listing.
"""

import time

import numpy as np
import pytest

from plugplay import analysis, bass, cli, suites
from plugplay.agent import AgentParams
from plugplay.consensus import FlowParams
from plugplay.graph import Graph
from plugplay.matlib import induced_2norm, spectral_abscissa
from plugplay.plant import Channel, PlantModel, aggregate, normalize_plant
from plugplay.sim import (
    Scenario,
    SolverSettings,
    build_load_transport_scenario,
    run_scenario,
)

SEED = 1


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# --------------------------------------------------------------------------- 1


def test_c1_bass_abscissa_200_instances():
    t0 = time.perf_counter()
    res = suites.check_gain_abscissa(seed=SEED, count=200)
    wall = time.perf_counter() - t0
    ok = res.passed and wall < 5.0
    assert report("C1", ok, f"{res.detail}; runtime {wall:.2f}s (< 5s)")


# --------------------------------------------------------------------------- 2


def test_c2_decay_envelopes_50_loops():
    t0 = time.perf_counter()
    res = suites.check_decay_envelopes(seed=SEED, envelopes=50)
    wall = time.perf_counter() - t0
    ok = res.passed and wall < 10.0
    assert report("C2", ok, f"{res.detail}; runtime {wall:.2f}s (< 10s)")


# --------------------------------------------------------------------------- 3


def test_c3_distributed_gain_flow_convergence_and_rate():
    results = suites.suite_consensus(seed=SEED)
    by_name = {r.name: r for r in results}
    primal = by_name["gain_flow_convergence"]
    dual = by_name["dual_gain_flow_convergence"]
    ok = primal.passed and dual.passed
    assert report(
        "C3", ok,
        f"primal[{primal.detail}] dual[{dual.detail}] (thresholds: err<1e-6, rate>=0.475)",
    )


# --------------------------------------------------------------------------- 4


def test_c4_gain_flow_equilibria():
    res = [r for r in suites.suite_appendix(seed=SEED, bound_count=0) if r.name == "gain_flow_equilibria"][0]

    # simulated convergence to the closed-form equilibria in transformed
    # coordinates, on one representative instance
    from plugplay.consensus import gain_flow_operator
    from plugplay.graph import r_matrix

    rng = np.random.default_rng(SEED)
    a = rng.normal(size=(2, 2))
    a = a + (0.2 - np.linalg.eigvals(a).real.min()) * np.eye(2)
    ids = (1, 2, 3)
    g = Graph.from_edges(ids, [(1, 2), (2, 3), (1, 3)])
    maps = {i: rng.normal(size=(2, 1)) for i in ids}
    params = FlowParams(1.0, 1.0)
    nu_star, chi_star = analysis.bass_equilibria(a, maps, 1.0, params, g)
    s0 = rng.normal(size=24)  # (vec Z_1..Z_3, vec X_1..X_3)
    m, c = gain_flow_operator(a, maps, 1.0, params, g)
    series = suites.propagate_affine(m, c, s0, np.linspace(0.0, 60.0, 61))
    z_final, x_final = series[-1].reshape(2, 3, 2, 2)
    rmat, _ = r_matrix(g)
    chi = np.stack([m.ravel(order="F") for m in x_final])
    nu = np.stack([m.ravel(order="F") for m in z_final])
    sim_err = max(
        float(np.linalg.norm(chi.mean(axis=0) - chi_star)),
        float(np.linalg.norm((rmat.T @ chi).ravel())),
        float(np.linalg.norm((rmat.T @ nu).ravel() - nu_star)),
    )
    ok = res.passed and sim_err < 1e-6
    assert report("C4", ok, f"{res.detail}; simulated convergence err={sim_err:.2e} (< 1e-6)")


# --------------------------------------------------------------------------- 5


def test_c5_network_size_estimator():
    results = suites.suite_consensus(seed=SEED)
    size_res = [r for r in results if r.name == "size_estimator_convergence"][0]
    appc = [r for r in suites.suite_appendix(seed=SEED, bound_count=0, eq_count=0)
            if r.name == "size_estimator_equilibrium"][0]
    ok = size_res.passed and appc.passed
    assert report("C5", ok, f"{size_res.detail}; {appc.detail}")


# --------------------------------------------------------------------------- 6


def test_c6_threshold_certificate_100_instances():
    results = suites.suite_theorem1(seed=SEED, count=100)
    by_name = {r.name: r for r in results}
    hur = by_name["threshold_hurwitz"]
    dec = by_name["closed_loop_decay"]
    bnd = by_name["block_bounds_synthesized_gains"]
    ok = hur.passed and dec.passed and bnd.passed
    assert report("C6", ok, f"{hur.detail}; {dec.detail}; {bnd.detail}")


# --------------------------------------------------------------------------- 7


@pytest.fixture(scope="module")
def static_three_agent_run():
    scen = build_load_transport_scenario(
        leave_slot=None, join_slots=(), t_end=41.0, record_every=100
    )
    trace = run_scenario(scen)
    return scen, trace


def test_c7_self_organized_gain_limits(static_three_agent_run):
    scen, trace = static_three_agent_run
    p = normalize_plant(scen.plant)
    chans = sorted(p.channels, key=lambda c: c.id)
    b, c = aggregate(p)
    beta = scen.params.beta
    sol = bass.bass_solve(p.A, b, beta, widths=[ch.m for ch in chans])
    dual = bass.dual_bass_solve(p.A, c, beta, heights=[ch.p for ch in chans])
    x_inv = np.linalg.inv(sol.X_star)
    y_inv = np.linalg.inv(dual.Y_star)
    cert = bass.bass_certificate(p, sol, dual, use_mohar=True)

    worst_f = worst_l = worst_z = 0.0
    gamma_ok = True
    for i, ch in enumerate(chans):
        fin = trace.final_gains[ch.id]
        worst_f = max(worst_f, induced_2norm(fin["F"] + ch.B.T @ x_inv))
        worst_l = max(worst_l, induced_2norm(fin["L"] + y_inv @ ch.C.T))
        worst_z = max(worst_z, abs(fin["zeta"] - 3.0))
        gamma_ok = gamma_ok and fin["gamma"] >= cert.gamma_min
    ok = worst_f < 1e-4 and worst_l < 1e-4 and worst_z < 1e-4 and gamma_ok
    assert report(
        "C7", ok,
        f"t=41: |F_i - F_i(inf)|={worst_f:.2e}, |L_i - L_i(inf)|={worst_l:.2e}, "
        f"|zeta-3|={worst_z:.2e} (all < 1e-4); gamma_i >= Mohar threshold: {gamma_ok} "
        f"(gamma={trace.final_gains[1]['gamma']:.3e} vs {cert.gamma_min:.3e})",
    )


# --------------------------------------------------------------------------- 8


@pytest.fixture(scope="module")
def load_transport_run():
    scen = build_load_transport_scenario()
    t0 = time.perf_counter()
    trace = run_scenario(scen)
    wall = time.perf_counter() - t0
    return scen, trace, wall


def _interval_end_errors(trace):
    """Per positive-length interval: (interval, max zeta err, max X err, max Y err)."""
    out = []
    for iv in trace.intervals:
        if iv.t_end <= iv.t_start:
            continue
        k = np.searchsorted(trace.times, iv.t_end) - 1
        n_act = len(iv.actives)
        ze = max(abs(trace.zeta[a][k] - n_act) for a in iv.actives)
        xe = max(trace.err_x[a][k] for a in iv.actives)
        ye = max(trace.err_y[a][k] for a in iv.actives)
        out.append((iv, ze, xe, ye))
    return out


def test_c8a_size_estimates_settle(load_transport_run):
    _, trace, _ = load_transport_run
    rows = _interval_end_errors(trace)
    sizes = [len(iv.actives) for iv, *_ in rows]
    worst = max(ze for _, ze, _, _ in rows)
    ok = sizes == [3, 2, 5] and worst < 0.1
    assert report(
        "C8a", ok,
        f"interval sizes {sizes}; max |zeta - N| at interval ends = {worst:.3f} (< 0.1)",
    )


def test_c8b_gain_flows_settle_final_interval(load_transport_run):
    _, trace, _ = load_transport_run
    iv, _, xe, ye = _interval_end_errors(trace)[-1]
    ok = xe < 1e-2 and ye < 1e-2
    assert report(
        "C8b-final", ok,
        f"final interval (30s): |X_i - X*/5|={xe:.2e}, |Y_i - Y*/5|={ye:.2e} (< 1e-2)",
    )


def test_c8b_gain_flows_settle_short_intervals(load_transport_run):
    # The first two intervals last 15s.  The slowest flow mode
    # contracts at rate 2*beta*k with a defective (polynomial-in-t)
    # transient.  The demo's flow gains are the rate certificate for
    # delta = 0.05 on the schedule's worst graph (k = 3.27, so
    # 2*beta*k = 1.64); at k = gamma = 1 the same check needs roughly
    # 30s per interval.  See README, known limitations.
    _, trace, _ = load_transport_run
    rows = _interval_end_errors(trace)[:-1]
    worst_x = max(xe for _, _, xe, _ in rows)
    worst_y = max(ye for _, _, _, ye in rows)
    ok = worst_x < 1e-2 and worst_y < 1e-2
    assert report(
        "C8b-short", ok,
        f"15s intervals: |X_i - X*/N|={worst_x:.2e}, |Y_i - Y*/N|={worst_y:.2e} (< 1e-2; "
        "flow gains certified for rate 0.05, see README known limitations)",
    )


def test_c8c_position_reached_and_final_loop_hurwitz(load_transport_run):
    scen, trace, wall = load_transport_run
    p_err_final = np.linalg.norm(trace.x[-1][:2])
    p_err_start = np.linalg.norm(trace.x[0][:2])
    ratio = p_err_final / p_err_start

    final_iv = trace.intervals[-1]
    norm_plant = normalize_plant(scen.plant)
    chans = tuple(norm_plant.channel(a) for a in final_iv.actives)
    p_active = PlantModel(norm_plant.A, chans)
    f_blocks = [trace.final_gains[a]["F"] for a in final_iv.actives]
    l_blocks = [trace.final_gains[a]["L"] for a in final_iv.actives]
    gamma_eff = min(trace.final_gains[a]["gamma_effective"] for a in final_iv.actives)
    decomp = analysis.closed_loop_matrix(
        p_active, f_blocks, l_blocks, gamma_eff, final_iv.agent_graph
    )
    absc = spectral_abscissa(decomp.assembled)
    ok = ratio < 0.1 and absc < 0 and wall < 60.0
    assert report(
        "C8c", ok,
        f"|p(60)-p_d| = {p_err_final:.3f} = {100*ratio:.2f}% of start (< 10%); "
        f"converged-loop abscissa {absc:.4f} (< 0); runtime {wall:.1f}s (< 60s)",
    )


def test_plug_and_play_recovery_after_last_event(load_transport_run):
    # not a numbered criterion: after the final join, observer errors,
    # size estimates, and gain iterates all recover to below 1e-2 of
    # their post-event peaks before the horizon ends
    _, trace, _ = load_transport_run
    k0 = np.searchsorted(trace.times, 30.0)
    final_iv = trace.intervals[-1]
    worst = 0.0
    for a in final_iv.actives:
        for series, ref in (
            (trace.err_obs[a][k0:], 0.0),
            (np.abs(trace.zeta[a][k0:] - len(final_iv.actives)), 0.0),
            (trace.err_x[a][k0:], 0.0),
        ):
            peak = np.nanmax(series)
            if peak > 0:
                worst = max(worst, float(series[-1] / peak))
    ok = worst < 1e-2
    assert report("recovery", ok, f"max final/peak ratio after last join = {worst:.2e} (< 1e-2)")


# --------------------------------------------------------------------------- 9


def test_c9_state_feedback_two_agents():
    a = np.zeros((4, 4))
    a[0, 2] = 1.0
    a[1, 3] = 1.0
    chans = []
    for i, k in enumerate((0, 3), start=1):
        ang = 2 * np.pi * k / 9
        bmap = np.array([[0.0], [0.0], [np.cos(ang)], [np.sin(ang)]])
        chans.append(Channel(i, bmap, np.eye(4)))
    p = PlantModel(a, tuple(chans))
    scen = Scenario(
        plant=p,
        x0=np.array([2.0, -1.0, 0.0, 0.0]),
        initial_agents=(1, 2),
        graph=Graph.from_edges([1, 2], [(1, 2)]),
        solver=SolverSettings(h=1e-3, t_end=30.0, record_every=100),
        params=AgentParams(beta=0.5, k_c=2.0, gamma_c=2.0),
        mode="state_feedback",
    )
    trace = run_scenario(scen)
    ratio = np.linalg.norm(trace.x[-1]) / np.linalg.norm(trace.x[0])
    bagg, _ = aggregate(p)
    x_star = bass.bass_solve(a, bagg, 0.5).X_star
    acl = a - 2 * (bagg @ bagg.T @ np.linalg.inv(x_star))
    absc = spectral_abscissa(acl)
    ok = ratio < 1e-3 and absc < 0
    assert report(
        "C9", ok,
        f"|x(30)|/|x(0)| = {ratio:.2e} (< 1e-3); limiting closed-loop abscissa {absc:.3f} (< 0)",
    )


# -------------------------------------------------------------------------- 10


def test_c10_determinism_and_rk4_order_and_verify_all():
    # bit-identical repeated runs of an eventful self-organizing scenario
    scen = build_load_transport_scenario(t_leave=0.5, t_join=1.0, t_end=1.5)
    tr1 = run_scenario(scen)
    tr2 = run_scenario(scen)
    identical = np.array_equal(tr1.x, tr2.x) and all(
        np.array_equal(tr1.xhat[a], tr2.xhat[a], equal_nan=True)
        and np.array_equal(tr1.zeta[a], tr2.zeta[a], equal_nan=True)
        for a in tr1.agent_ids
    )

    # RK4 order: halving h divides the error by ~16 on a smooth interval
    from dataclasses import replace
    from scipy.linalg import expm
    from test_sim import scalar_static_scenario

    scen_h, sol, dual, _ = scalar_static_scenario(gamma=5.0, t_end=2.0, h=1e-3)
    scen_h2, *_ = scalar_static_scenario(gamma=5.0, t_end=2.0, h=5e-4)
    scen_h = replace(scen_h, solver=replace(scen_h.solver, record_every=2000))
    scen_h2 = replace(scen_h2, solver=replace(scen_h2.solver, record_every=4000))
    tr_h = run_scenario(scen_h)
    tr_h2 = run_scenario(scen_h2)
    flat = analysis.flat_closed_loop_matrix(
        scen_h.plant, sol.F_blocks, dual.L_blocks, 5.0, scen_h.graph
    )
    z_exact = expm(flat * 2.0) @ np.array([1.0, 0.0, 0.0])
    z1 = np.concatenate([tr_h.x[-1], tr_h.xhat[1][-1], tr_h.xhat[2][-1]])
    z2 = np.concatenate([tr_h2.x[-1], tr_h2.xhat[1][-1], tr_h2.xhat[2][-1]])
    ratio = np.linalg.norm(z1 - z_exact) / np.linalg.norm(z2 - z_exact)
    order_ok = 16.0 * 0.8 <= ratio <= 16.0 * 1.2

    # `verify all` exits 0 well inside the budget
    t0 = time.perf_counter()
    code = cli.main(["verify", "all"])
    wall = time.perf_counter() - t0
    verify_ok = code == 0 and wall < 180.0

    ok = identical and order_ok and verify_ok
    assert report(
        "C10", ok,
        f"bit-identical reruns: {identical}; RK4 error ratio {ratio:.2f} (in [12.8, 19.2]); "
        f"verify all exit={code} in {wall:.1f}s (< 180s)",
    )
