import numpy as np
import pytest

from plugplay.matlib import induced_2norm
from plugplay.plant import (
    Channel,
    PlantModel,
    aggregate,
    is_controllable,
    is_observable,
    normalize_channel,
    normalize_plant,
)


def load_transport_plant(slots=(0, 3, 6)):
    a = np.zeros((4, 4))
    a[0, 2] = 1.0
    a[1, 3] = 1.0
    chans = []
    for i, k in enumerate(slots, start=1):
        ang = 2 * np.pi * k / 9
        b = np.array([[0.0], [0.0], [np.cos(ang)], [np.sin(ang)]])
        c = np.hstack([np.eye(2), np.zeros((2, 2))])
        chans.append(Channel(i, b, c))
    return PlantModel(a, tuple(chans))


class TestNormalization:
    def test_simple_rescale(self):
        c = normalize_channel(Channel(1, [[0.0], [2.0]], [[1.0, 0.0]]))
        assert np.allclose(c.B, [[0.0], [1.0]])
        assert c.input_scale == 2.0
        assert c.output_scale == 1.0

    def test_already_unit(self):
        c = normalize_channel(Channel(1, [[0.0], [1.0]], [[1.0, 0.0]]))
        assert np.allclose(c.B, [[0.0], [1.0]])
        assert c.input_scale == 1.0

    def test_load_transport_channel_already_normalized(self):
        # unit mass: the force direction vector has unit norm
        p = load_transport_plant()
        c = normalize_channel(p.channels[0])
        assert np.isclose(induced_2norm(c.B), 1.0)
        assert np.allclose(c.B, p.channels[0].B)
        assert c.input_scale == 1.0

    def test_zero_map_passthrough(self):
        c = normalize_channel(Channel(1, np.zeros((2, 1)), [[1.0, 0.0]]))
        assert np.array_equal(c.B, np.zeros((2, 1)))
        assert c.input_scale == 1.0

    def test_unit_norms_after(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = normalize_channel(Channel(1, rng.normal(size=(3, 2)), rng.normal(size=(2, 3))))
            assert induced_2norm(c.B) <= 1 + 1e-12
            assert induced_2norm(c.C) <= 1 + 1e-12

    def test_plant_equals_each_channel_bit_for_bit(self):
        # one stacked norm call per plant must give each channel exactly
        # what it gets alone, and what one SVD per map gives
        def one_svd_per_map(c):
            nb, nc = (float(np.linalg.svd(m, compute_uv=False)[0]) for m in (c.B, c.C))
            b, sb = (c.B / nb, c.input_scale * nb) if nb > 0 else (c.B, c.input_scale)
            cc, sc = (c.C / nc, c.output_scale * nc) if nc > 0 else (c.C, c.output_scale)
            return Channel(c.id, b, cc, sb, sc)

        rng = np.random.default_rng(7)
        n = 4
        chans = (
            Channel(1, rng.normal(size=(n, 1)), rng.normal(size=(1, n))),
            Channel(2, rng.normal(size=(n, 3)), rng.normal(size=(2, n)), input_scale=2.5),
            Channel(3, np.zeros((n, 2)), rng.normal(size=(3, n))),
            Channel(4, rng.normal(size=(n, 1)), np.zeros((2, n)), output_scale=1.0),
            Channel(5, rng.normal(size=(n, 3)), rng.normal(size=(1, n)), 0.5, 3.0),
            Channel(6, rng.normal(size=(n, 1)), rng.normal(size=(2, n))),
        )
        plant = PlantModel(rng.normal(size=(n, n)), chans)
        got = normalize_plant(plant)
        assert np.array_equal(got.A, plant.A)
        assert len(got.channels) == len(chans)
        for g, c in zip(got.channels, chans):
            for want in (normalize_channel(c), one_svd_per_map(c)):
                assert g.id == want.id
                assert np.array_equal(g.B, want.B) and np.array_equal(g.C, want.C)
                assert g.input_scale == want.input_scale and g.output_scale == want.output_scale
        zero_b, zero_c = got.channel(3), got.channel(4)
        assert np.array_equal(zero_b.B, np.zeros((n, 2))) and zero_b.input_scale == 1.0
        assert np.array_equal(zero_c.C, np.zeros((2, n))) and zero_c.output_scale == 1.0
        assert zero_b.output_scale != 1.0 and zero_c.input_scale != 1.0


class TestAggregate:
    def test_single_channel(self):
        p = load_transport_plant((0,))
        b, c = aggregate(p)
        assert np.array_equal(b, p.channels[0].B)
        assert np.array_equal(c, p.channels[0].C)

    def test_two_columns(self):
        p = load_transport_plant((0, 3))
        b, c = aggregate(p)
        assert b.shape == (4, 2)
        assert c.shape == (4, 4)

    def test_load_transport_dimensions(self):
        b, c = aggregate(load_transport_plant((0, 3, 6)))
        assert b.shape == (4, 3)
        assert c.shape == (6, 4)

    def test_order_is_by_id(self):
        p = load_transport_plant((0, 3, 6))
        b, _ = aggregate(p, [3, 1])
        assert np.array_equal(b[:, 0], p.channel(1).B[:, 0])
        assert np.array_equal(b[:, 1], p.channel(3).B[:, 0])

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            aggregate(load_transport_plant(), [9])

    def test_matches_blockwise_on_random_subsets(self):
        rng = np.random.default_rng(1)
        p = load_transport_plant((0, 2, 3, 5, 6))
        for _ in range(20):
            k = int(rng.integers(1, 6))
            active = sorted(rng.choice(p.ids, size=k, replace=False))
            b, c = aggregate(p, active)
            assert np.array_equal(b, np.hstack([p.channel(i).B for i in active]))
            assert np.array_equal(c, np.vstack([p.channel(i).C for i in active]))


class TestRankTests:
    def test_double_integrator(self):
        assert is_controllable([[0, 1], [0, 0]], [[0], [1]])

    def test_decoupled_state(self):
        assert not is_controllable(np.eye(2), [[1], [0]])

    def test_load_transport_single_vs_pairs(self):
        p = load_transport_plant((0, 3, 6))
        a = p.A
        for c in p.channels:
            assert not is_controllable(a, c.B)
            assert is_observable(a, c.C)  # position measured, state observable
        for i in p.ids:
            for j in p.ids:
                if i < j:
                    b, cc = aggregate(p, [i, j])
                    assert is_controllable(a, b)
                    assert is_observable(a, cc)

    def test_observability_duality(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            c = rng.normal(size=(1, 3))
            assert is_observable(a, c) == is_controllable(a.T, c.T)

    def test_monotone_in_channels(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n))
            cols = [rng.normal(size=(n, 1)) for _ in range(k)]
            ctrl = False
            for j in range(1, k + 1):
                now = is_controllable(a, np.hstack(cols[:j]))
                assert now or not ctrl  # never flips true -> false
                ctrl = now


class TestPlantModel:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PlantModel(np.eye(3), (Channel(1, np.zeros((2, 1)), np.zeros((1, 3))),))

    def test_duplicate_ids(self):
        c = Channel(1, np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            PlantModel(np.eye(2), (c, c))

    def test_normalize_roundtrip_response(self):
        # simulating the normalized plant with rescaled signals reproduces
        # the original trajectory: xdot = A x + B u with u(t) held constant
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3))
        b_raw = 3.7 * rng.normal(size=(3, 1))
        c_raw = 0.4 * rng.normal(size=(2, 3))
        chan = Channel(1, b_raw, c_raw)
        norm = normalize_channel(chan)
        h, steps = 1e-3, 400
        u_ext = np.array([0.8])

        def rk4(bmat, u, x):
            f = lambda x_: a @ x_ + bmat @ u
            for _ in range(steps):
                k1 = f(x)
                k2 = f(x + h / 2 * k1)
                k3 = f(x + h / 2 * k2)
                k4 = f(x + h * k3)
                x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            return x

        x_orig = rk4(chan.B, u_ext, np.zeros(3))
        # normalized plant consumes the prescaled input |B| * u
        x_norm = rk4(norm.B, norm.input_scale * u_ext, np.zeros(3))
        assert np.allclose(x_orig, x_norm, atol=1e-10)
        # outputs rescale the other way: y_norm = y / |C|
        assert np.allclose(c_raw @ x_orig / norm.output_scale, norm.C @ x_norm, atol=1e-10)

    def test_normalize_plant(self):
        p = normalize_plant(load_transport_plant())
        for c in p.channels:
            assert induced_2norm(c.B) <= 1 + 1e-12
            assert induced_2norm(c.C) <= 1 + 1e-12
