import dataclasses
import os
import signal
import tracemalloc

import numpy as np
import pytest

from phaseseek import inference, nets, procs, training
from phaseseek.errors import PhaseseekError
from phaseseek.features import (
    MAX_VALUES,
    FeatureSequence,
    SynthConfig,
    TransitionSet,
    labels_to_transitions,
    synth_dataset,
)
from phaseseek.inference import FixedInit
from phaseseek.nets import (
    adam_init,
    adam_step,
    clone_params,
    copy_params_into,
    forward,
    huber_loss,
    init_qnetwork,
    param_list,
    zero_qnetwork,
)
from phaseseek.training import (
    ACTION_LEFT,
    ACTION_RIGHT,
    ROLE_BEGIN,
    ROLE_END,
    ReplayMemory,
    SearchPolicy,
    TrainConfig,
    apply_action,
    compute_reward,
    dqn_update,
    pad_videos,
    select_action,
    train,
    window_rows,
    zero_padded,
)
from reference_kernel import backward_batch, forward_batch, init_row_network, kernel_layout


_PADDED_ROWS = 40


def _record(rng, action=ACTION_RIGHT, reward=1, window=2):
    # (state, next_state, action, reward), the arguments of ReplayMemory.push:
    # each state is a vector of 2L window rows into a padded feature matrix
    s = rng.integers(0, _PADDED_ROWS, size=2 * window)
    s2 = rng.integers(0, _PADDED_ROWS, size=2 * window)
    return s, s2, action, reward


def _padded(rng):
    # A 3-dim feature matrix for _record's window rows to index.
    return rng.normal(size=(_PADDED_ROWS, 3))


def _agent(dim, cfg):
    # A fresh online network with its target, Adam state and replay memory.
    net = init_qnetwork(dim, cfg.hidden_dim, cfg.num_layers, seed=cfg.seed)
    return net, clone_params(net), adam_init(param_list(net), lr=cfg.lr), \
        ReplayMemory(cfg.memory_capacity)


def _net_with_head_bias(q_right, q_left, dim=3):
    net = zero_qnetwork(input_dim=dim, hidden_dim=4, num_layers=1)
    net.fc2_b[:] = [q_right, q_left]
    return net


def _state(seq, pos_begin, pos_end, window_len):
    # The (2L, D) state of one video's begin and end windows, gathered the
    # way training and rollout gather states.
    padded, (base,) = pad_videos([seq], window_len // 2)
    return padded[window_rows(base + np.array([pos_begin, pos_end]), window_len)]


class TestBuildState:
    def test_window_contents(self):
        feats = np.arange(10.0)[:, None] * np.ones(2)
        seq = FeatureSequence(feats)
        state = _state(seq, 1, 8, window_len=3)
        assert state.shape == (6, 2)
        np.testing.assert_array_equal(state[:, 0], [0, 1, 2, 7, 8, 9])

    def test_zero_padding_at_left_edge(self):
        seq = FeatureSequence(np.ones((10, 2)))
        state = _state(seq, 0, 8, window_len=3)
        np.testing.assert_array_equal(state[0], [0, 0])
        np.testing.assert_array_equal(state[1:], np.ones((5, 2)))

    def test_degenerate_window(self):
        feats = np.arange(5.0)[:, None]
        state = _state(FeatureSequence(feats), 2, 4, window_len=1)
        np.testing.assert_array_equal(state, [[2.0], [4.0]])

    @pytest.mark.parametrize("window_len", [1, 2, 3, 4, 5, 7])
    def test_padded_windows_read_only_their_video(self, window_len):
        # Every (begin, end) state gathered from one matrix of several
        # videos equals the state built clip by clip from its own video.
        rng = np.random.default_rng(window_len)
        videos = [FeatureSequence(rng.normal(size=(t, 2))) for t in (1, 4, 9)]
        padded, base = pad_videos(videos, window_len // 2)
        lo = window_len // 2
        for v, seq in enumerate(videos):
            t = seq.num_clips
            for b in range(t):
                for e in range(b, t):
                    expected = np.zeros((2 * window_len, 2))
                    for k, c in enumerate([*range(b - lo, b - lo + window_len),
                                           *range(e - lo, e - lo + window_len)]):
                        if 0 <= c < t:
                            expected[k] = seq.features[c]
                    rows = window_rows(base[v] + np.array([b, e]), window_len)
                    np.testing.assert_array_equal(padded[rows], expected)
                    np.testing.assert_array_equal(_state(seq, b, e, window_len), expected)


class TestPadVideos:
    def _loaded(self, pad):
        # Videos of 3 and 5 clips loaded as rows of one zero-padded matrix.
        padded, base = zero_padded([3, 5], 2, pad)
        rng = np.random.default_rng(pad)
        videos = []
        for b, t in zip(base.tolist(), (3, 5)):
            padded[b: b + t] = rng.normal(size=(t, 2))
            videos.append(FeatureSequence(padded[b: b + t]))
        return padded, base, videos

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_rows_of_a_padded_matrix_are_used_in_place(self, pad):
        padded, base, videos = self._loaded(2)
        out, out_base = pad_videos(videos, pad)
        assert out is padded
        np.testing.assert_array_equal(out_base, base)

    @pytest.mark.parametrize("change", ["wider", "dirty", "foreign", "columns"])
    def test_anything_else_is_copied(self, change):
        padded, _, videos = self._loaded(2)
        pad = 3 if change == "wider" else 2
        if change == "dirty":
            padded[0, 1] = 1.0
        if change == "foreign":
            videos[1] = FeatureSequence(videos[1].features.copy())
        if change == "columns":
            videos = [FeatureSequence(v.features[:, :1]) for v in videos]
        out, base = pad_videos(videos, pad)
        assert not np.shares_memory(out, padded)
        copies = [FeatureSequence(v.features.copy()) for v in videos]
        expected, expected_base = pad_videos(copies, pad)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(base, expected_base)

    def test_padding_bound_checked_before_allocating(self):
        with pytest.raises(ValueError, match="window_len 5"):
            zero_padded([4] * 3, MAX_VALUES // 8 + 1, 2)


class TestApplyAction:
    def test_step_right(self):
        assert apply_action(5, ACTION_RIGHT, 100, partner=99, role=ROLE_BEGIN) == 6

    def test_clamped_at_left_edge(self):
        assert apply_action(0, ACTION_LEFT, 100, partner=50, role=ROLE_BEGIN) == 0

    def test_begin_cannot_pass_end(self):
        assert apply_action(7, ACTION_RIGHT, 100, partner=7, role=ROLE_BEGIN) == 7

    def test_end_cannot_pass_begin(self):
        assert apply_action(7, ACTION_LEFT, 100, partner=7, role=ROLE_END) == 7

    def test_clamped_at_right_edge(self):
        assert apply_action(99, ACTION_RIGHT, 100, partner=0, role=ROLE_END) == 99

    def test_pair_order_invariant_under_random_play(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = int(rng.integers(2, 30))
            p_b = int(rng.integers(t))
            p_e = int(rng.integers(p_b, t))
            for _ in range(50):
                a_b, a_e = int(rng.integers(2)), int(rng.integers(2))
                p_b = apply_action(p_b, a_b, t, partner=p_e, role=ROLE_BEGIN)
                p_e = apply_action(p_e, a_e, t, partner=p_b, role=ROLE_END)
                assert 0 <= p_b <= p_e < t


class TestReward:
    def test_towards_target(self):
        assert compute_reward(8, 9, 10) == 1

    def test_away_from_exact_target(self):
        assert compute_reward(10, 11, 10) == -1

    def test_clamped_non_move(self):
        assert compute_reward(4, 4, 10) == -1


class TestSelectAction:
    def test_pure_exploration_is_uniform(self):
        rng = np.random.default_rng(123)
        net = _net_with_head_bias(5.0, 0.0)  # would always pick Right greedily
        state = np.zeros((4, 3))
        draws = [select_action(net, state, 1.0, rng) for _ in range(10_000)]
        freq = np.mean(np.array(draws) == ACTION_RIGHT)
        assert abs(freq - 0.5) < 0.02

    def test_greedy_argmax(self):
        net = _net_with_head_bias(2.0, 1.0)
        assert select_action(net, np.zeros((4, 3)), 0.0, None) == ACTION_RIGHT
        net = _net_with_head_bias(1.0, 2.0)
        assert select_action(net, np.zeros((4, 3)), 0.0, None) == ACTION_LEFT

    def test_tie_breaks_right(self):
        net = _net_with_head_bias(1.0, 1.0)
        assert select_action(net, np.zeros((4, 3)), 0.0, None) == ACTION_RIGHT


class TestReplayMemory:
    def test_capacity_and_eviction(self):
        rng = np.random.default_rng(1)
        mem = ReplayMemory(capacity=3)
        records = [_record(rng, reward=1 if i % 2 == 0 else -1) for i in range(5)]
        for r in records:
            mem.push(*r)
        assert len(mem) == 3
        states, _, _, rewards = mem.sample(3, np.random.default_rng(0))
        # only the last three records remain
        kept = {tuple(state) for state, _, _, _ in records[2:]}
        got = {tuple(s) for s in states}
        assert got == kept

    def test_sample_too_large_rejected(self):
        mem = ReplayMemory(capacity=5)
        mem.push(*_record(np.random.default_rng(2)))
        with pytest.raises(PhaseseekError):
            mem.sample(2, np.random.default_rng(0))

    def test_reward_validation(self):
        rng = np.random.default_rng(3)
        mem = ReplayMemory(capacity=5)
        with pytest.raises(ValueError):
            mem.push(*_record(rng, reward=0))
        with pytest.raises(ValueError):
            mem.push(*_record(rng, action=7))
        assert len(mem) == 0


class TestDqnUpdate:
    def test_no_update_when_memory_small(self):
        rng = np.random.default_rng(4)
        cfg = TrainConfig(window_len=3, hidden_dim=4, num_layers=1, batch=128)
        net, target, adam, memory = _agent(3, cfg)
        for _ in range(10):
            memory.push(*_record(rng, window=3))
        before = [p.copy() for p in param_list(net)]
        loss = dqn_update(net, target, memory, _padded(rng), 128, 0.9, adam, rng)
        assert loss is None
        for a, b in zip(before, param_list(net)):
            np.testing.assert_array_equal(a, b)

    def test_zero_target_net_bellman_value(self):
        # all-zero online and target nets, r = -1 everywhere: the Bellman
        # target is exactly -1, so the batch loss is huber(0, -1) = 0.5.
        rng = np.random.default_rng(5)
        cfg = TrainConfig(window_len=2, hidden_dim=4, num_layers=1, batch=8, gamma=0.9)
        net, target, adam, memory = _agent(3, cfg)
        for p in param_list(net):
            p[...] = 0.0
        for p in param_list(target):
            p[...] = 0.0
        for _ in range(8):
            memory.push(*_record(rng, reward=-1))
        loss = dqn_update(net, target, memory, _padded(rng), 8, 0.9, adam, rng)
        assert loss == pytest.approx(0.5)

    def test_converges_to_reward_with_zero_gamma(self):
        rng = np.random.default_rng(6)
        cfg = TrainConfig(window_len=2, hidden_dim=4, num_layers=1, batch=8,
                          gamma=0.0, lr=1e-2)
        net, target, adam, memory = _agent(3, cfg)
        record = _record(rng, action=ACTION_RIGHT, reward=1)
        padded = _padded(rng)
        for _ in range(8):
            memory.push(*record)
        for _ in range(400):
            loss = dqn_update(net, target, memory, padded, 8, 0.0, adam, rng)
        q, _ = forward(net, padded[record[0]])
        assert q[ACTION_RIGHT] == pytest.approx(1.0, abs=0.05)
        assert loss < 1e-3


    @pytest.mark.parametrize("gamma", [0.0, 0.9])
    def test_update_holds_one_pass_block(self, gamma):
        # One B=128 update at 2L=10, D=16, H=64 and 2 layers: the cached
        # pass block (8.9 MiB) also holds the backward's gate and hidden
        # gradients.  With separate room for them the traced heap peak read
        # 13.68 MiB.
        rng = np.random.default_rng(3)
        padded = rng.normal(size=(200, 16))
        cfg = TrainConfig(window_len=5, batch=128, gamma=gamma)
        net, target, adam, memory = _agent(16, cfg)
        for _ in range(200):
            memory.push(rng.integers(0, 200, size=10), rng.integers(0, 200, size=10),
                        int(rng.integers(2)), 1)
        dqn_update(net, target, memory, padded, cfg.batch, gamma, adam, rng)
        tracemalloc.start()
        try:
            assert dqn_update(net, target, memory, padded, cfg.batch, gamma, adam, rng) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11.5 * 2**20


def _row_dqn_update(row, row_target, memory, padded, batch, gamma, adam, rng):
    # dqn_update on row-layout weights, through the row-major reference kernel.
    states, next_states, actions, rewards = memory.sample(batch, rng)
    q, cache = forward_batch(row, padded[states])
    q_next = forward_batch(row_target, padded[next_states], need_cache=False)[0]
    rows = np.arange(batch)
    losses, dpred = huber_loss(q[rows, actions], rewards + gamma * q_next.max(axis=1))
    dq = np.zeros((batch, 2))
    dq[rows, actions] = dpred / batch
    adam_step(row.params(), backward_batch(row, cache, dq), adam)
    return float(losses.mean())


class TestRowLayoutOracle:
    def test_updates_match_row_layout_bit_for_bit(self):
        # The same seed and batches through dqn_update and through the
        # reference kernel with Adam on row-layout weights, target syncs
        # included: every loss and every final weight agree bit for bit.
        rng = np.random.default_rng(8)
        padded = _padded(rng)
        cfg = TrainConfig(window_len=2, hidden_dim=5, num_layers=2, batch=8, gamma=0.9, lr=1e-2)
        net, target, adam, memory = _agent(3, cfg)
        row = init_row_network(3, 5, 2, seed=cfg.seed)
        row_target = init_row_network(3, 5, 2, seed=cfg.seed)
        row_adam = adam_init(row.params(), lr=cfg.lr)
        for _ in range(40):
            memory.push(*_record(rng, action=int(rng.integers(2)), reward=int(rng.choice([-1, 1]))))
        rng_net, rng_row = np.random.default_rng(9), np.random.default_rng(9)
        for k in range(12):
            loss = dqn_update(net, target, memory, padded, cfg.batch, cfg.gamma, adam, rng_net)
            row_loss = _row_dqn_update(row, row_target, memory, padded, cfg.batch, cfg.gamma,
                                       row_adam, rng_row)
            assert loss == row_loss
            if k % 4 == 3:
                copy_params_into(net, target)
                for dst, src in zip(row_target.params(), row.params()):
                    dst[...] = src
        for a, b in zip(param_list(net), kernel_layout(row.params(), 2), strict=True):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def _tiny_dataset(num_videos=3, t=30, dim=4, seed=0):
    cfg = SynthConfig(num_phases=2, min_len=t // 2, max_len=t // 2, dim=dim,
                      noise_sigma=0.02)
    return [(seq, labels_to_transitions(lab))
            for seq, lab in synth_dataset(cfg, num_videos, seed=seed)]


def _tiny_config(**kw):
    base = dict(episodes_max=1, max_steps_per_video=20, batch=16, lr=1e-3,
                gamma=0.0, eps_start=0.5, eps_min=0.05, eps_decay=0.9,
                target_sync_period=50, seed=17, window_len=3, hidden_dim=8,
                num_layers=1, memory_capacity=200)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture
def pushes(monkeypatch):
    # Every ReplayMemory.push made during a test, as (memory, action, reward).
    seen = []
    push = ReplayMemory.push

    def spy(memory, state, next_state, action, reward):
        seen.append((memory, action, reward))
        push(memory, state, next_state, action, reward)

    monkeypatch.setattr(ReplayMemory, "push", spy)
    return seen


class TestTrain:
    def test_zero_episodes_returns_fresh_pair(self, pushes):
        dataset = _tiny_dataset()
        cfg = _tiny_config(episodes_max=0)
        policy = train(dataset, 1, cfg, FixedInit(0.4, 0.9))
        assert isinstance(policy, SearchPolicy)
        assert policy.window_len == cfg.window_len
        seeds = np.random.default_rng(cfg.seed).integers(2**63, size=2)
        for net, seed in ((policy.begin_net, seeds[0]), (policy.end_net, seeds[1])):
            fresh = init_qnetwork(dataset[0][0].dim, cfg.hidden_dim, cfg.num_layers,
                                  seed=int(seed))
            for a, b in zip(param_list(net), param_list(fresh)):
                np.testing.assert_array_equal(a, b)
        assert pushes == []

    def test_deterministic_given_seed(self):
        dataset = _tiny_dataset()
        init = FixedInit(0.4, 0.9)
        pair_a = train(dataset, 1, _tiny_config(), init)
        pair_b = train(dataset, 1, _tiny_config(), init)
        for a, b in zip(param_list(pair_a.begin_net), param_list(pair_b.begin_net)):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(param_list(pair_a.end_net), param_list(pair_b.end_net)):
            np.testing.assert_array_equal(a, b)

    def test_one_record_per_step_and_log_rows(self, pushes):
        dataset = _tiny_dataset()
        cfg = _tiny_config(episodes_max=2)
        logs = []
        train(dataset, 1, cfg, FixedInit(0.4, 0.9), on_video=logs.append)
        steps = cfg.episodes_max * len(dataset) * cfg.max_steps_per_video
        memories = list(dict.fromkeys(memory for memory, _, _ in pushes))
        assert len(memories) == 2
        assert [memory for memory, _, _ in pushes] == memories * steps
        assert len(memories[0]) == min(steps, cfg.memory_capacity)
        assert len(logs) == cfg.episodes_max * len(dataset)
        assert [(r.episode, r.video) for r in logs] == [
            (e, v) for e in range(2) for v in range(3)
        ]

    def test_videos_missing_phase_are_skipped(self, caplog):
        dataset = _tiny_dataset()
        # second video has no phase-1 entry
        seq1, _ = dataset[1]
        dataset[1] = (seq1, TransitionSet(2, {0: (0, seq1.num_clips - 1)}))
        logs = []
        with caplog.at_level("WARNING"):
            train(dataset, 1, _tiny_config(), FixedInit(0.4, 0.9), on_video=logs.append)
        assert any("skipped" in m for m in caplog.messages)
        assert {r.video for r in logs} == {0, 2}

    def test_phase_absent_everywhere_rejected(self):
        dataset = _tiny_dataset()
        dataset = [(seq, TransitionSet(3, dict(ts.pairs))) for seq, ts in dataset]
        with pytest.raises(PhaseseekError):
            train(dataset, 2, _tiny_config(), FixedInit(0.1, 0.2))

    def test_empty_dataset_rejected(self):
        with pytest.raises(PhaseseekError):
            train([], 0, _tiny_config(), FixedInit(0.1, 0.2))

    def test_rewards_in_memory_are_plus_minus_one(self, pushes):
        dataset = _tiny_dataset()
        train(dataset, 1, _tiny_config(), FixedInit(0.4, 0.9))
        begin_memory = pushes[0][0]  # the begin agent pushes first each step
        n = len(begin_memory)
        assert n > 0
        assert set(np.unique(begin_memory._rewards[:n])) <= {-1, 1}

    def test_no_target_network_at_zero_gamma(self, monkeypatch):
        # At gamma 0 a Bellman target is the reward alone: no target network
        # is cloned or synced, and the trained weights equal those of a run
        # that holds and syncs one.
        clones, syncs = [], []
        real_clone, real_copy = training.clone_params, training.copy_params_into
        monkeypatch.setattr(training, "clone_params",
                            lambda net: clones.append(net) or real_clone(net))
        monkeypatch.setattr(training, "copy_params_into",
                            lambda src, dst: syncs.append(dst) or real_copy(src, dst))
        dataset, init = _tiny_dataset(), FixedInit(0.4, 0.9)
        cfg = _tiny_config(target_sync_period=5)
        lean = train(dataset, 1, cfg, init)
        assert clones == [] and syncs == []
        fresh = training._AgentSlot.fresh.__func__
        monkeypatch.setattr(training._AgentSlot, "fresh", classmethod(
            lambda cls, dim, cfg, seed, capacity:
                fresh(cls, dim, dataclasses.replace(cfg, gamma=0.5), seed, capacity)))
        held = train(dataset, 1, cfg, init)
        assert len(clones) == 2 and syncs
        for net_a, net_b in ((lean.begin_net, held.begin_net), (lean.end_net, held.end_net)):
            for a, b in zip(param_list(net_a), param_list(net_b), strict=True):
                assert a.tobytes() == b.tobytes()

    def test_no_network_is_restacked(self, monkeypatch):
        # Training evaluates and updates each network where it lies: no
        # step copies a network into a stack.
        calls = []
        for module in (nets, training, inference):
            real = getattr(module, "stack_networks", None)
            if real is not None:
                monkeypatch.setattr(module, "stack_networks",
                                    lambda group, real=real: calls.append(len(group)) or real(group))
        logs = []
        train(_tiny_dataset(), 1, _tiny_config(gamma=0.9), FixedInit(0.4, 0.9), on_video=logs.append)
        assert all(np.isfinite(r.begin_loss) for r in logs[1:])  # updates ran
        assert calls == []

    @pytest.mark.parametrize("field, value", [("window_len", 2**21 + 1), ("batch", 2**21),
                                              ("hidden_dim", 2**20)])
    def test_oversized_update_rejected_before_allocating(self, field, value):
        # One update's cached kernel pass is 2L x batch x (D + 7 H layers)
        # values; above MAX_VALUES the run is refused, naming its fields.
        cfg = _tiny_config(**{field: value})
        with pytest.raises(ValueError, match=f"batch.*window_len.*hidden_dim.*num_layers"):
            train(_tiny_dataset(), 1, cfg, FixedInit(0.4, 0.9))

    def test_zero_updates_warn(self, caplog):
        dataset = _tiny_dataset()
        cfg = _tiny_config()
        steps = cfg.episodes_max * len(dataset) * cfg.max_steps_per_video
        with caplog.at_level("WARNING", logger="phaseseek.training"):
            train(dataset, 1, _tiny_config(batch=steps + 1), FixedInit(0.4, 0.9))
        assert caplog.messages == [f"phase 1: no Bellman update ran: {steps} record(s) pushed "
                                   f"per agent, memory holds {steps}, batch needs {steps + 1}"]

    def test_mixed_feature_dims_refused(self):
        # A dim-1 video among dim-4 ones was broadcast across all 4 columns.
        wide, narrow = _tiny_dataset(2), _tiny_dataset(1, dim=1)
        with pytest.raises(PhaseseekError, match="video 1: feature dim 1 does not match "
                                                 "feature dim 4 of video 0"):
            train([wide[0], narrow[0], wide[1]], 1, _tiny_config(), FixedInit(0.4, 0.9))


@pytest.fixture
def helpers(monkeypatch):
    # Two CPUs faked through the one procs.usable_cpus, and one BLAS
    # thread, and every row helper train forks, recorded; skips where two
    # row parts of _tiny_config's geometry (dim 4, hidden 8, 1 layer,
    # 2L = 6, batch 8) do not reproduce one with the BLAS in use.
    if not nets.splits_exactly(init_qnetwork(4, 8, 1), 8, 6, 2):
        pytest.skip("two row parts round differently from one with the BLAS in use")
    monkeypatch.setattr(procs, "usable_cpus", lambda: 2)
    monkeypatch.setattr(training, "_blas_threads", lambda: 1)
    made, real = [], training._RowHelper.__init__
    monkeypatch.setattr(training._RowHelper, "__init__",
                        lambda helper, *args: made.append(helper) or real(helper, *args))
    return made


class TestRowHelper:
    @pytest.mark.parametrize("gamma", [0.0, 0.9])
    def test_every_update_is_one_call_here(self, monkeypatch, helpers, assert_no_children,
                                           gamma):
        # perfbench's UpdateCounter wraps training.dqn_update in the calling
        # process: with the helper forked, it still sees every update.
        calls, real = [], training.dqn_update

        def counted(*args, **kwargs):
            loss = real(*args, **kwargs)
            if loss is not None:
                calls.append(os.getpid())
            return loss

        monkeypatch.setattr(training, "dqn_update", counted)
        dataset, cfg = _tiny_dataset(), _tiny_config(batch=8, gamma=gamma, target_sync_period=3)
        train(dataset, 1, cfg, FixedInit(0.4, 0.9))
        pushes = cfg.episodes_max * len(dataset) * cfg.max_steps_per_video
        assert len(helpers) == 1
        assert calls == [os.getpid()] * (2 * (pushes - cfg.batch + 1))
        assert_no_children()

    @pytest.mark.parametrize("step", ["_update_rows", "recurrent_gradients"])
    def test_helper_error_comes_back(self, monkeypatch, helpers, assert_no_children, step):
        # The helper's rows fail, or its share of the batch sums.
        parent, real = os.getpid(), getattr(training, step)

        def failing(*args):
            if os.getpid() != parent:
                raise ArithmeticError("part 1 failed")
            return real(*args)

        monkeypatch.setattr(training, step, failing)
        with pytest.raises(ArithmeticError, match="part 1 failed"):
            train(_tiny_dataset(), 1, _tiny_config(batch=8), FixedInit(0.4, 0.9))
        assert len(helpers) == 1
        assert_no_children()

    def test_error_here_reaps_helper(self, monkeypatch, helpers, assert_no_children):
        # This process's part fails while the helper runs its own.
        parent, real = os.getpid(), training._update_rows

        def update_rows(*args):
            if os.getpid() == parent:
                raise LookupError("part 0 failed")
            return real(*args)

        monkeypatch.setattr(training, "_update_rows", update_rows)
        with pytest.raises(LookupError, match="part 0 failed"):
            train(_tiny_dataset(), 1, _tiny_config(batch=8), FixedInit(0.4, 0.9))
        assert len(helpers) == 1
        assert_no_children()

    def test_helper_killed_between_updates(self, helpers, assert_no_children):
        # The helper dies while it waits for a request, so the next update's
        # request meets a closed pipe.
        def kill(log):
            if log.video == 0:
                os.kill(helpers[0].pid, signal.SIGKILL)
                os.waitid(os.P_PID, helpers[0].pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped

        with pytest.raises(ChildProcessError, match=f"exit code {-signal.SIGKILL}"):
            train(_tiny_dataset(), 1, _tiny_config(batch=8), FixedInit(0.4, 0.9), on_video=kill)
        assert len(helpers) == 1
        assert_no_children()

    def test_no_helper_without_an_update(self, helpers):
        cfg = _tiny_config(batch=8, memory_capacity=7)  # a memory never holds a batch
        train(_tiny_dataset(), 1, cfg, FixedInit(0.4, 0.9))
        assert helpers == []
