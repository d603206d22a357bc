import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseseek import features
from phaseseek.errors import PhaseseekError
from phaseseek.nets import (
    FC1_UNITS,
    adam_init,
    adam_step,
    backward,
    backward_stack,
    clone_params,
    forward,
    forward_stack,
    huber_loss,
    init_qnetwork,
    load_checkpoint,
    param_list,
    save_checkpoint,
    stack_networks,
    zero_qnetwork,
)
from reference_kernel import (
    RowLayer,
    RowNetwork,
    backward_batch,
    forward_batch,
    init_row_network,
    kernel_layout,
    kernel_network,
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
            up = float(forward(net, x)[0] @ dq)
            p[ix] = orig - h
            down = float(forward(net, x)[0] @ dq)
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
        net = kernel_network(RowNetwork(
            input_dim=1, hidden_dim=1,
            layers=[RowLayer(
                w_in=np.array([[0.5, -0.3, 0.2, 0.8]]),
                w_rec=np.array([[0.1, 0.4, 0.3, -0.2]]),
                bias=np.array([0.05, -0.1, 0.0, 0.2]),
            )],
            fc1_w=np.full((1, FC1_UNITS), 0.02),
            fc1_b=np.zeros(FC1_UNITS),
            fc2_w=np.full((FC1_UNITS, 2), 0.03),
            fc2_b=np.array([0.1, -0.2]),
        ))

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
        q2 = forward_stack(net, x[None, None])[0, 0]
        np.testing.assert_array_equal(q1, q2)

    def test_dimension_mismatch_rejected(self):
        net = init_qnetwork(4, 6, 1, seed=0)
        with pytest.raises(PhaseseekError):
            forward(net, np.zeros((3, 5)))

    def test_wrappers_match_reference_kernel(self):
        net = init_qnetwork(5, 7, 2, seed=8)
        row = init_row_network(5, 7, 2, seed=8)
        x = np.random.default_rng(5).normal(size=(4, 6, 5))
        dq = np.random.default_rng(6).normal(size=(4, 2))
        q_ref, cache_ref = forward_batch(row, x)
        g_ref = kernel_layout(backward_batch(row, cache_ref, dq), 2)
        for _ in range(2):
            q, cache = forward(net, x)
            assert q.tobytes() == q_ref.tobytes()
            for a, b in zip(g_ref, backward(net, cache, dq), strict=True):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()


class TestForwardStack:
    @settings(max_examples=40, deadline=None)
    @given(
        geometry=st.sampled_from([(16, 64, 2), (3, 8, 1)]),
        count=st.integers(1, 6),
        batch=st.integers(1, 16).map(lambda k: 4 * k),
        steps=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_reference_kernel(self, geometry, count, batch, steps, seed):
        dim, hidden, layers = geometry
        nets = [init_qnetwork(dim, hidden, layers, seed=seed + i) for i in range(count)]
        rows = [init_row_network(dim, hidden, layers, seed=seed + i) for i in range(count)]
        x = np.random.default_rng(seed).normal(size=(count, batch, steps, dim))
        q = forward_stack(stack_networks(nets), x)
        assert q.shape == (count, batch, 2)
        for row, xi, qi in zip(rows, x, q):
            assert qi.tobytes() == forward_batch(row, xi, need_cache=False)[0].tobytes()

    def test_slice_is_the_sliced_networks(self):
        nets = [init_qnetwork(3, 8, 2, seed=i) for i in range(4)]
        x = np.random.default_rng(1).normal(size=(2, 8, 5, 3))
        np.testing.assert_array_equal(forward_stack(stack_networks(nets)[1:3], x),
                                      forward_stack(stack_networks(nets[1:3]), x))

    def test_stack_is_a_copy(self):
        net = init_qnetwork(3, 8, 1, seed=2)
        stack = stack_networks([net])
        x = np.random.default_rng(3).normal(size=(1, 4, 6, 3))
        before = forward_stack(stack, x)
        for p in param_list(net):
            p += 1.0
        np.testing.assert_array_equal(forward_stack(stack, x), before)

    def test_mixed_geometry_rejected(self):
        with pytest.raises(ValueError):
            stack_networks([init_qnetwork(3, 8, 1), init_qnetwork(3, 8, 2)])
        with pytest.raises(ValueError):
            stack_networks([])

    @pytest.mark.parametrize("shape", [(2, 4, 6, 3), (1, 4, 6, 4), (4, 6, 3)])
    def test_bad_batch_shape_rejected(self, shape):
        with pytest.raises(PhaseseekError):
            forward_stack(stack_networks([init_qnetwork(3, 8, 1)]), np.zeros(shape))


class TestBackwardStack:
    @settings(max_examples=40, deadline=None)
    @given(
        geometry=st.sampled_from([(16, 64, 2), (3, 8, 1), (5, 7, 2)]),
        batch=st.one_of(st.just(128), st.integers(1, 64).map(lambda k: 4 * k)),
        steps=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_reference_kernel(self, geometry, batch, steps, seed):
        # Q-values and every gradient, byte for byte, against the row-major
        # reference kernel.
        dim, hidden, layers = geometry
        net = init_qnetwork(dim, hidden, layers, seed=seed)
        row = init_row_network(dim, hidden, layers, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, steps, dim))
        dq = rng.normal(size=(batch, 2))
        q_ref, cache_ref = forward_batch(row, x)
        q, cache = forward_stack(net, x[None], cache=True)
        assert q[0].tobytes() == q_ref.tobytes()
        grads = backward_stack(net, cache, dq[None])
        g_refs = kernel_layout(backward_batch(row, cache_ref, dq), layers)
        for g_ref, g in zip(g_refs, grads, strict=True):
            assert g.shape == g_ref.shape
            assert g.tobytes() == g_ref.tobytes()

    def test_stacked_networks_get_their_own_gradients(self):
        nets = [init_qnetwork(3, 8, 2, seed=i) for i in range(3)]
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 8, 4, 3))
        dq = rng.normal(size=(3, 8, 2))
        stack = stack_networks(nets)
        _, cache = forward_stack(stack, x, cache=True)
        grads = backward_stack(stack, cache, dq)
        for i in range(len(nets)):
            row = init_row_network(3, 8, 2, seed=i)
            _, cache_ref = forward_batch(row, x[i])
            for g_ref, g in zip(kernel_layout(backward_batch(row, cache_ref, dq[i]), 2), grads):
                np.testing.assert_array_equal(g[i], g_ref[0])

    def test_foreign_cache_and_bad_dq_rejected(self):
        stack = stack_networks([init_qnetwork(3, 8, 1, seed=1)])
        x = np.random.default_rng(3).normal(size=(1, 4, 5, 3))
        _, cache = forward_stack(stack, x, cache=True)
        with pytest.raises(PhaseseekError):
            backward_stack(stack_networks([init_qnetwork(3, 8, 1, seed=1)]), cache,
                           np.ones((1, 4, 2)))
        with pytest.raises(PhaseseekError):
            backward_stack(stack, cache, np.ones((1, 3, 2)))


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
        np.testing.assert_allclose(backward(net, cache, dq)[-1][0, 0], dq)

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


    def test_huge_difference_raises_no_warning(self):
        # Only the linear branch's value is kept, so nothing may overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = huber_loss(1e200, 0.0)
        assert (loss, grad) == (1e200 - 0.5, 1.0)


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
    def test_failed_write_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "net.qnet"
        save_checkpoint(init_qnetwork(3, 4, 1, seed=1), path)
        before = path.read_bytes()
        real_open = open

        class HalfWrite:  # writes half the bytes, then fails like a full disk
            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(features, "open", HalfWrite, raising=False)
        with pytest.raises(OSError):
            save_checkpoint(init_qnetwork(3, 4, 1, seed=2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.qnet"]

    def test_clone_is_independent(self):
        net = init_qnetwork(3, 4, 2, seed=5)
        copy = clone_params(net)
        net.layers[0].w_in[0, 0, 0, 0] += 1.0
        net.fc2_b[0, 0, 0] += 1.0
        assert copy.layers[0].w_in[0, 0, 0, 0] != net.layers[0].w_in[0, 0, 0, 0]
        assert copy.fc2_b[0, 0, 0] != net.fc2_b[0, 0, 0]

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


    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        # A 36-byte file whose header declares H=4000 (over 1 GB of weights).
        path = tmp_path / "huge.qnet"
        path.write_bytes(struct.pack("<4sIIIIII", b"QNET", 1, 16, 4000, 2, FC1_UNITS, 2)
                         + bytes(8))
        tracemalloc.start()
        try:
            with pytest.raises(PhaseseekError, match="truncated"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("dims", [(0, 4, 1), (3, 0, 1), (3, 4, 0)])
    def test_zero_dim_header_rejected(self, tmp_path, dims):
        path = tmp_path / "zero.qnet"
        path.write_bytes(struct.pack("<4sIIIIII", b"QNET", 1, *dims, FC1_UNITS, 2))
        with pytest.raises(PhaseseekError, match="zero dimension"):
            load_checkpoint(path)

    def test_checkpoint_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "net.qnet"
        save_checkpoint(init_qnetwork(3, 4, 1, seed=8), path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(PhaseseekError, match="trailing"):
            load_checkpoint(path)


    def test_init_payload_is_the_row_draws(self, tmp_path):
        # The file layout is init_qnetwork's draws as drawn, in param_list order.
        path = tmp_path / "net.qnet"
        save_checkpoint(init_qnetwork(5, 6, 2, seed=3), path)
        row = init_row_network(5, 6, 2, seed=3)
        payload = path.read_bytes()[struct.calcsize("<4sIIIIII"):]
        assert payload == b"".join(p.astype("<f8").tobytes() for p in row.params())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_not_saved(self, tmp_path, bad):
        net = init_qnetwork(3, 4, 1, seed=1)
        net.fc2_b[0, 0, 1] = bad
        path = tmp_path / "net.qnet"
        with pytest.raises(PhaseseekError, match="non-finite"):
            save_checkpoint(net, path)
        assert not path.exists()

    def test_stacked_networks_not_saved(self, tmp_path):
        nets = stack_networks([init_qnetwork(3, 4, 1, seed=i) for i in range(2)])
        with pytest.raises(ValueError):
            save_checkpoint(nets, tmp_path / "net.qnet")


class TestInit:
    def test_kernel_layout_of_the_row_draws(self):
        # Gate-major blocks with the sigmoid gates negated, checked against
        # the test-local conversion.
        net = init_qnetwork(4, 5, 2, seed=7)
        expected = kernel_layout(init_row_network(4, 5, 2, seed=7).params(), 2)
        for a, b in zip(param_list(net), expected, strict=True):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_seeded_init_reproducible(self):
        a = init_qnetwork(4, 5, 2, seed=21)
        b = init_qnetwork(4, 5, 2, seed=21)
        for pa, pb in zip(param_list(a), param_list(b)):
            np.testing.assert_array_equal(pa, pb)

    def test_fan_in_bound(self):
        net = init_qnetwork(16, 8, 1, seed=0)
        assert np.abs(net.layers[0].w_in).max() <= 1 / 4.0
        assert np.abs(net.layers[0].w_rec).max() <= 1 / np.sqrt(8)
