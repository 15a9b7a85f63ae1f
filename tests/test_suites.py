import numpy as np
import pytest

from plugplay import bass, suites
from plugplay.matlib import rk4_propagator


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
        a, b, beta, widths = suites.random_gain_instance(rng, n_max=4, m_max=2)
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
