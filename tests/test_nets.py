import math

import numpy as np
import pytest

from phaseseek.errors import PhaseseekError
from phaseseek.nets import (
    FC1_UNITS,
    LstmLayer,
    QNetwork,
    adam_init,
    adam_step,
    backward,
    backward_batch,
    clone_params,
    forward,
    forward_batch,
    huber_loss,
    init_qnetwork,
    load_checkpoint,
    param_list,
    save_checkpoint,
    zero_qnetwork,
)


def finite_difference_grads(net, x, dq, h=1e-5):
    """Central differences of sum(dq * q) over every parameter."""
    grads = []
    for p in param_list(net):
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + h
            up = float(forward_batch(net, x, need_cache=False)[0] @ dq)
            p[ix] = orig - h
            down = float(forward_batch(net, x, need_cache=False)[0] @ dq)
            p[ix] = orig
            g[ix] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = zero_qnetwork(input_dim=4, hidden_dim=5, num_layers=2)
        q, _ = forward(net, np.random.default_rng(0).normal(size=(6, 4)))
        np.testing.assert_array_equal(q, [0.0, 0.0])

    def test_deterministic(self):
        net = init_qnetwork(3, 8, 2, seed=9)
        x = np.random.default_rng(1).normal(size=(4, 3))
        q1, _ = forward(net, x)
        q2, _ = forward(net, x)
        np.testing.assert_array_equal(q1, q2)

    def test_matches_hand_unrolled_lstm(self):
        # 1 layer, hidden size 1, two steps, scalar weights; gate columns
        # are (input, forget, output, cell).
        net = QNetwork(input_dim=1, hidden_dim=1, num_layers=1)
        net.layers = [LstmLayer(
            w_in=np.array([[0.5, -0.3, 0.2, 0.8]]),
            w_rec=np.array([[0.1, 0.4, 0.3, -0.2]]),
            bias=np.array([0.05, -0.1, 0.0, 0.2]),
        )]
        net.fc1_w = np.full((1, FC1_UNITS), 0.02)
        net.fc1_b = np.zeros(FC1_UNITS)
        net.fc2_w = np.full((FC1_UNITS, 2), 0.03)
        net.fc2_b = np.array([0.1, -0.2])

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h = c = 0.0
        for x in (0.7, -1.2):
            i = sig(0.5 * x + 0.1 * h + 0.05)
            f = sig(-0.3 * x + 0.4 * h - 0.1)
            o = sig(0.2 * x + 0.3 * h + 0.0)
            g = math.tanh(0.8 * x - 0.2 * h + 0.2)
            c = f * c + i * g
            h = o * math.tanh(c)
        head = FC1_UNITS * 0.03 * math.tanh(0.02 * h)
        expected = np.array([0.1 + head, -0.2 + head])

        q, _ = forward(net, np.array([[0.7], [-1.2]]))
        np.testing.assert_allclose(q, expected, rtol=1e-12)

    def test_recompute_yields_identical_qvalues(self):
        net = init_qnetwork(4, 6, 2, seed=3)
        x = np.random.default_rng(4).normal(size=(5, 4))
        q1, cache = forward(net, x)
        q2, _ = forward_batch(net, x, need_cache=False)
        np.testing.assert_array_equal(q1, q2)

    def test_dimension_mismatch_rejected(self):
        net = init_qnetwork(4, 6, 1, seed=0)
        with pytest.raises(PhaseseekError):
            forward(net, np.zeros((3, 5)))

    def test_scratch_path_is_bit_identical(self):
        net = init_qnetwork(5, 7, 2, seed=8)
        x = np.random.default_rng(5).normal(size=(3, 6, 5))
        dq = np.random.default_rng(6).normal(size=(3, 2))
        q_plain, cache_plain = forward_batch(net, x)
        g_plain = backward_batch(net, cache_plain, dq)
        scratch = {}
        q_s, cache_s = forward_batch(net, x, scratch=scratch)
        g_s = backward_batch(net, cache_s, dq, scratch=scratch)
        np.testing.assert_array_equal(q_plain, q_s)
        for a, b in zip(g_plain, g_s):
            np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        net = init_qnetwork(3, 4, 2, seed=1)
        q, cache = forward(net, np.random.default_rng(0).normal(size=(4, 3)))
        for g in backward(net, cache, np.zeros(2)):
            assert not g.any()

    def test_fc2_bias_gradient_is_upstream(self):
        net = init_qnetwork(3, 4, 1, seed=2)
        q, cache = forward(net, np.random.default_rng(1).normal(size=(4, 3)))
        dq = np.array([0.3, -0.7])
        np.testing.assert_allclose(backward(net, cache, dq)[-1], dq)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = init_qnetwork(2, 3, 2, seed=13)
        x = rng.normal(size=(4, 2))
        dq = rng.normal(size=2)
        q, cache = forward(net, x)
        analytic = backward(net, cache, dq)
        numeric = finite_difference_grads(net, x, dq)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_stale_cache_rejected(self):
        net_a = init_qnetwork(3, 4, 1, seed=1)
        net_b = init_qnetwork(3, 4, 1, seed=2)
        _, cache = forward(net_a, np.zeros((2, 3)))
        with pytest.raises(PhaseseekError):
            backward(net_b, cache, np.ones(2))


class TestHuberLoss:
    def test_quadratic_branch(self):
        loss, grad = huber_loss(0.0, 0.5)
        assert loss == pytest.approx(0.125)
        assert grad == pytest.approx(-0.5)

    def test_linear_branch(self):
        loss, grad = huber_loss(0.0, 2.0)
        assert loss == pytest.approx(1.5)
        assert grad == pytest.approx(-1.0)

    def test_zero_at_match(self):
        assert huber_loss(1.3, 1.3) == (0.0, 0.0)

    def test_continuous_at_delta(self):
        eps = 1e-9
        below = huber_loss(1.0 - eps, 0.0)
        above = huber_loss(1.0 + eps, 0.0)
        assert abs(below[0] - above[0]) < 1e-8
        assert abs(below[1] - above[1]) < 1e-8

    def test_vectorized(self):
        loss, grad = huber_loss(np.array([0.0, 0.0]), np.array([0.5, 2.0]))
        np.testing.assert_allclose(loss, [0.125, 1.5])
        np.testing.assert_allclose(grad, [-0.5, -1.0])


class TestAdam:
    def test_first_step_hand_computed(self):
        p = np.array([0.0])
        state = adam_init([p], lr=0.001)
        adam_step([p], [np.array([1.0])], state)
        assert p[0] == pytest.approx(-0.001 * (1.0 / (1.0 + 1e-8)))
        assert state.t == 1

    def test_zero_gradient_keeps_params(self):
        p = np.arange(6.0).reshape(2, 3)
        state = adam_init([p])
        adam_step([p], [np.zeros((2, 3))], state)
        np.testing.assert_array_equal(p, np.arange(6.0).reshape(2, 3))

    def test_constant_gradient_decreases_param(self):
        p = np.array([0.5])
        state = adam_init([p], lr=0.01)
        previous = p[0]
        for _ in range(5):
            adam_step([p], [np.array([2.0])], state)
            assert p[0] < previous
            previous = p[0]

    def test_shape_mismatch_rejected(self):
        p = np.zeros(3)
        state = adam_init([p])
        with pytest.raises(ValueError):
            adam_step([p], [np.zeros(4)], state)


class TestCloneAndCheckpoints:
    def test_clone_is_independent(self):
        net = init_qnetwork(3, 4, 2, seed=5)
        copy = clone_params(net)
        net.layers[0].w_in[0, 0] += 1.0
        net.fc2_b[0] += 1.0
        assert copy.layers[0].w_in[0, 0] != net.layers[0].w_in[0, 0]
        assert copy.fc2_b[0] != net.fc2_b[0]

    def test_clone_of_zero_net_is_zero(self):
        copy = clone_params(zero_qnetwork(2, 3, 1))
        assert not any(p.any() for p in param_list(copy))

    def test_clone_forward_equal(self):
        net = init_qnetwork(3, 4, 2, seed=6)
        copy = clone_params(net)
        x = np.random.default_rng(7).normal(size=(5, 3))
        np.testing.assert_array_equal(forward(net, x)[0], forward(copy, x)[0])

    def test_checkpoint_round_trip(self, tmp_path):
        net = init_qnetwork(3, 4, 2, seed=8)
        path = tmp_path / "net.qnet"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert (loaded.input_dim, loaded.hidden_dim, loaded.num_layers) == (3, 4, 2)
        for a, b in zip(param_list(net), param_list(loaded)):
            np.testing.assert_array_equal(a, b)

    def test_checkpoint_truncation_rejected(self, tmp_path):
        net = init_qnetwork(3, 4, 1, seed=8)
        path = tmp_path / "net.qnet"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(PhaseseekError):
            load_checkpoint(path)

    def test_checkpoint_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "net.qnet"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(PhaseseekError):
            load_checkpoint(path)


class TestInit:
    def test_seeded_init_reproducible(self):
        a = init_qnetwork(4, 5, 2, seed=21)
        b = init_qnetwork(4, 5, 2, seed=21)
        for pa, pb in zip(param_list(a), param_list(b)):
            np.testing.assert_array_equal(pa, pb)

    def test_fan_in_bound(self):
        net = init_qnetwork(16, 8, 1, seed=0)
        assert np.abs(net.layers[0].w_in).max() <= 1 / 4.0
        assert np.abs(net.layers[0].w_rec).max() <= 1 / np.sqrt(8)
