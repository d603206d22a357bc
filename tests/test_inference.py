import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseseek.inference as inference
import phaseseek.nets as nets
import phaseseek.procs as procs
from phaseseek.errors import PhaseseekError
from phaseseek.features import FeatureSequence, TransitionSet
from phaseseek.inference import (
    FixedInit,
    PredictionInit,
    SearchPolicy,
    coverage_rate,
    fit_fi,
    rollout,
    rollout_many,
    train_clip_classifier,
)
from phaseseek.nets import forward_stack, init_qnetwork, q_values, stack_networks, zero_qnetwork
from phaseseek.training import (
    ACTION_LEFT,
    ACTION_RIGHT,
    ROLE_BEGIN,
    ROLE_END,
    apply_action,
    greedy,
)


class TestFitFi:
    def test_mean_relative_positions(self):
        training = [
            (100, TransitionSet(2, {0: (20, 30)})),
            (100, TransitionSet(2, {0: (30, 40)})),
            (100, TransitionSet(2, {0: (40, 50)})),
        ]
        fi = fit_fi(training, 0)
        assert fi.rho_begin == pytest.approx(0.3)
        assert fi.rho_end == pytest.approx(0.4)

    def test_single_video(self):
        fi = fit_fi([(100, TransitionSet(1, {0: (50, 80)}))], 0)
        assert fi.rho_begin == pytest.approx(0.5)

    def test_videos_missing_phase_excluded(self):
        training = [
            (100, TransitionSet(2, {1: (20, 40)})),
            (100, TransitionSet(2, {})),
            (50, TransitionSet(2, {1: (20, 30)})),
        ]
        fi = fit_fi(training, 1)
        assert fi.rho_begin == pytest.approx((0.2 + 0.4) / 2)

    def test_phase_absent_everywhere(self):
        with pytest.raises(PhaseseekError):
            fit_fi([(10, TransitionSet(2, {0: (1, 2)}))], 1)


def _video(t=100, dim=2):
    return FeatureSequence(np.zeros((t, dim)))


class TestInitPositions:
    def test_fixed_round(self):
        assert FixedInit(0.3, 0.6).initial_positions(_video(100), 0) == (30, 60)

    def test_fixed_rounds_half_up_and_clamps(self):
        assert FixedInit(0.35, 0.99).initial_positions(_video(10), 0) == (4, 9)
        assert FixedInit(1.0, 1.0).initial_positions(_video(10), 0) == (9, 9)

    def test_fixed_identical_for_equal_length_videos(self):
        fi = FixedInit(0.21, 0.68)
        a = fi.initial_positions(_video(137), 0)
        b = fi.initial_positions(FeatureSequence(np.ones((137, 5))), 0)
        assert a == b

    def test_prediction_candidate_means(self):
        predictions = np.array([0, 1, 1, 0, 1, 1, 0])
        init = PredictionInit(lambda video: predictions, fallback=FixedInit(0.0, 1.0))
        assert init.initial_positions(_video(7), 1) == (3, 4)

    def test_prediction_without_phase_falls_back(self):
        init = PredictionInit(lambda video: np.zeros(10, dtype=int), fallback=FixedInit(0.2, 0.5))
        assert init.initial_positions(_video(10), 1) == (2, 5)

    def test_prediction_carries_own_fallback(self):
        init = PredictionInit(lambda video: np.zeros(10, dtype=int),
                              fallback=FixedInit(0.1, 0.4))
        assert init.initial_positions(_video(10), 1) == (1, 4)

    def test_prediction_without_any_fallback_rejected(self):
        init = PredictionInit(lambda video: np.zeros(10, dtype=int))
        with pytest.raises(PhaseseekError):
            init.initial_positions(_video(10), 1)


class TestClipClassifier:
    def test_separable_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(200, 4)) * 0.1 + np.array([1, 0, 0, 0])
        b = rng.normal(size=(200, 4)) * 0.1 + np.array([0, 1, 0, 0])
        x = np.concatenate([a, b])
        y = np.array([0] * 200 + [1] * 200)
        clf = train_clip_classifier(x, y, epochs=200, lr=0.5, seed=1)
        assert np.mean(clf.predict(x) == y) >= 0.99

    def test_zero_epochs_returns_initial(self):
        x = np.zeros((4, 3))
        y = np.array([0, 1, 0, 1])
        a = train_clip_classifier(x, y, epochs=0, seed=5)
        b = train_clip_classifier(x, y, epochs=0, seed=5)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias.tolist() == [0.0, 0.0]

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, size=50)
        a = train_clip_classifier(x, y, epochs=30, seed=9)
        b = train_clip_classifier(x, y, epochs=30, seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_single_class_trains(self):
        x = np.random.default_rng(3).normal(size=(10, 2))
        clf = train_clip_classifier(x, np.zeros(10, dtype=int), num_phases=2, epochs=5)
        assert np.isfinite(clf.weights).all()

    def test_generalizes_across_synthetic_videos(self):
        from phaseseek.features import SynthConfig, synth_dataset

        cfg = SynthConfig(num_phases=3, min_len=20, max_len=40, dim=16,
                          noise_sigma=0.05, blend_width=2)
        videos = synth_dataset(cfg, 8, seed=31)
        clf = train_clip_classifier(
            np.concatenate([s.features for s, _ in videos[:4]]),
            np.concatenate([l.labels for _, l in videos[:4]]),
            num_phases=3, seed=0,
        )
        test_x = np.concatenate([s.features for s, _ in videos[4:]])
        test_y = np.concatenate([l.labels for _, l in videos[4:]])
        assert np.mean(clf.predict(test_x) == test_y) >= 0.95


def _pair(dim=1, window=1):
    return SearchPolicy(init_qnetwork(dim, 4, 1, seed=0), init_qnetwork(dim, 4, 1, seed=1), window)


def _scripted_actions(begin_rule, end_rule, monkeypatch):
    # Replace greedy action selection with position-based scripts; with
    # window_len 1 and one-dimensional position features, each state's
    # rows are [[pos_begin], [pos_end]].  A scripted test runs one search,
    # whose begin and end networks are stack rows 0 and 1; the fake gives
    # the scripted action the higher Q-value.
    def fake(stack, which, states):
        actions = [begin_rule(int(rows[0, 0])) if net == 0 else end_rule(int(rows[1, 0]))
                   for net, rows in zip(which, states)]
        q = np.zeros((len(actions), 2))
        q[np.arange(len(actions)), actions] = 1.0
        return q

    monkeypatch.setattr(inference, "q_values", fake)


def _position_video(t):
    return FeatureSequence(np.arange(float(t))[:, None])


class TestRollout:
    def test_two_cycle_reports_lower_position(self, monkeypatch):
        pair = _pair()
        # begin oscillates: Right below 5, Left at or above 5 -> cycle (4, 5)
        _scripted_actions(lambda p: ACTION_RIGHT if p < 5 else ACTION_LEFT,
                          lambda p: ACTION_LEFT if p > 8 else ACTION_RIGHT, monkeypatch)
        result = rollout(pair, _position_video(10), (2, 9))
        assert result.converged
        assert result.begin == 4
        assert result.end == 8

    def test_double_clamp_fixed_point(self, monkeypatch):
        pair = _pair()
        _scripted_actions(lambda p: ACTION_LEFT, lambda p: ACTION_LEFT, monkeypatch)
        result = rollout(pair, _position_video(20), (0, 0))
        assert result.converged
        assert (result.begin, result.end) == (0, 0)
        assert result.steps_taken == 2

    def test_always_right_settles_at_last_clip(self, monkeypatch):
        pair = _pair()
        _scripted_actions(lambda p: ACTION_RIGHT, lambda p: ACTION_RIGHT, monkeypatch)
        result = rollout(pair, _position_video(50), (10, 20), max_steps=200)
        assert result.end == 49
        assert result.steps_taken <= 200

    def test_step_cap_reports_unconverged(self, monkeypatch):
        pair = _pair()
        _scripted_actions(lambda p: ACTION_RIGHT, lambda p: ACTION_RIGHT, monkeypatch)
        result = rollout(pair, _position_video(500), (0, 5), max_steps=10)
        assert not result.converged
        assert result.steps_taken == 10
        assert result.end == 15

    def test_visited_matches_instrumented_feature_reads(self, monkeypatch):
        # Rollout states are gathered from one padded feature matrix; record
        # every video clip whose row an integer index reads from it.
        read_log: set[int] = set()
        video = _position_video(60)
        t = video.num_clips
        pad_videos = inference.pad_videos

        def recording_pad_videos(videos, pad):
            assert len(videos) == 1 and videos[0] is video
            padded, (base,) = pad_videos(videos, pad)

            class RecordingArray(np.ndarray):
                def __getitem__(self, key):
                    if isinstance(key, np.ndarray) and key.dtype.kind in "iu":
                        clips = key.ravel() - base
                        read_log.update(int(c) for c in clips[(clips >= 0) & (clips < t)])
                    return super().__getitem__(key)

            return padded.view(RecordingArray), np.array([base])

        monkeypatch.setattr(inference, "pad_videos", recording_pad_videos)
        pair = _pair(window=3)
        _scripted_actions(lambda p: ACTION_RIGHT if p < 30 else ACTION_LEFT,
                          lambda p: ACTION_LEFT if p > 40 else ACTION_RIGHT, monkeypatch)
        result = rollout(pair, video, (20, 50))
        assert result.converged
        assert result.visited == read_log

    def test_order_kept_when_begin_chases_end(self, monkeypatch):
        pair = _pair()
        _scripted_actions(lambda p: ACTION_RIGHT, lambda p: ACTION_LEFT, monkeypatch)
        result = rollout(pair, _position_video(30), (5, 25))
        assert result.begin <= result.end


class _AgentTracker:
    # Follows one agent's position history and settles it once the history
    # tail forms (p, p', p) with |p - p'| <= 1: either a genuine left/right
    # oscillation or a double-clamped fixed point.  The settled position is
    # min(p, p').
    def __init__(self, pos: int):
        self.history = [pos]
        self.settled = False

    @property
    def pos(self) -> int:
        return self.history[-1]

    def record(self, pos: int) -> None:
        self.history.append(pos)
        h = self.history
        if len(h) >= 3 and h[-1] == h[-3] and abs(h[-1] - h[-2]) <= 1:
            self.history.append(min(h[-1], h[-2]))
            self.settled = True


def _reference_rollout(policy, video, init_pos, max_steps):
    # The one-search-at-a-time loop that rollout_many batches, with one
    # state per forward pass: a window centered at clip c is rows c to
    # c + L - 1 of the video zero-padded by L // 2 rows at each end, and a
    # state is evaluated in a 4-row batch, zero-padded by hand.
    t = video.num_clips
    padded = np.pad(video.features, [(policy.window_len // 2,) * 2, (0, 0)])
    p_b = min(max(init_pos[0], 0), t - 1)
    p_e = min(max(init_pos[1], 0), t - 1)
    begin = _AgentTracker(min(p_b, p_e))
    end = _AgentTracker(max(p_b, p_e))
    visited = set()

    def visit(center):
        lo = center - policy.window_len // 2
        visited.update(i for i in range(lo, lo + policy.window_len) if 0 <= i < t)

    def state():
        return np.concatenate([padded[c: c + policy.window_len] for c in (begin.pos, end.pos)])

    def greedy_action(net, rows):
        x = np.zeros((1, 4) + rows.shape)
        x[0, 0] = rows
        q = forward_stack(net, x)[0, 0]
        return ACTION_RIGHT if q[ACTION_RIGHT] >= q[ACTION_LEFT] else ACTION_LEFT

    visit(begin.pos)
    visit(end.pos)
    steps = 0
    rows = state()
    while steps < max_steps and not (begin.settled and end.settled):
        if not begin.settled:
            act = greedy_action(policy.begin_net, rows)
            begin.record(apply_action(begin.pos, act, t, partner=end.pos, role=ROLE_BEGIN))
            visit(begin.pos)
        if not end.settled:
            act = greedy_action(policy.end_net, rows)
            end.record(apply_action(end.pos, act, t, partner=begin.pos, role=ROLE_END))
            visit(end.pos)
        rows = state()
        steps += 1
    return (begin.pos, max(begin.pos, end.pos), steps, visited, begin.settled and end.settled)


def _fields(result):
    return (result.begin, result.end, result.steps_taken, result.visited, result.converged)


@st.composite
def _search_sets(draw):
    dim = draw(st.integers(1, 3))
    policies = [
        SearchPolicy(
            init_qnetwork(dim, hidden_dim=3, num_layers=layers, seed=seed),
            init_qnetwork(dim, hidden_dim=3, num_layers=layers, seed=seed + 1),
            window,
        )
        for seed, layers, window in draw(st.lists(
            st.tuples(st.integers(0, 2**16), st.integers(1, 2), st.sampled_from([1, 3, 5, 7])),
            min_size=1, max_size=3))
    ]
    videos = [
        FeatureSequence(np.random.default_rng(seed).normal(size=(t, dim)))
        for t, seed in draw(st.lists(st.tuples(st.integers(1, 120), st.integers(0, 2**16)),
                                     min_size=1, max_size=3))
    ]
    searches = []
    for _ in range(draw(st.integers(1, 6))):
        video = draw(st.sampled_from(videos))
        t = video.num_clips
        # Starts past any int64, too: rollout clamps them before its arrays.
        starts = st.one_of(st.integers(-2, t + 2), st.integers(-10**20, 10**20))
        searches.append((draw(st.sampled_from(policies)), video, (draw(starts), draw(starts))))
    return searches, draw(st.integers(0, 80))


class TestRolloutMany:
    @settings(max_examples=100, deadline=None)
    @given(_search_sets())
    def test_batch_matches_each_search_alone(self, case):
        searches, max_steps = case
        together = rollout_many(searches, max_steps)
        assert len(together) == len(searches)
        for search, result in zip(searches, together):
            alone = rollout_many([search], max_steps)[0]
            assert _fields(result) == _fields(alone)
            assert _fields(result) == _reference_rollout(*search, max_steps)
            assert result.begin <= result.end
            assert result.steps_taken <= max(max_steps, 0)
            t = search[1].num_clips
            assert result.visited and all(0 <= i < t for i in result.visited)

    def test_one_forward_stack_per_group_per_round(self, monkeypatch):
        calls = []
        real = nets.forward_stack

        def counting(stack, x):
            calls.append(x.shape[:3])
            return real(stack, x)

        monkeypatch.setattr(nets, "forward_stack", counting)
        narrow = SearchPolicy(zero_qnetwork(1, 4, 1), zero_qnetwork(1, 4, 1), 1)
        # Same networks as narrow but read through another window length,
        # so they form a second group; a third policy shares a network.
        wide = SearchPolicy(narrow.begin_net, narrow.end_net, 3)
        shared = SearchPolicy(narrow.begin_net, zero_qnetwork(1, 4, 1), 1)
        videos = [_position_video(t) for t in (10, 20, 30)]
        searches = [(narrow, v, (2, 5)) for v in videos]
        searches += [(wide, videos[0], (2, 5)), (shared, videos[1], (2, 5))]
        results = rollout_many(searches, max_steps=3)
        # zero networks tie, so both agents walk Right: no search settles early
        assert [r.steps_taken for r in results] == [3] * 5
        # Per round: the window-1 group stacks three networks (the shared
        # begin network sees 4 states, the others 3 and 1, padded to 4
        # rows); the window-3 group stacks two networks with one state each.
        assert calls == [(3, 4, 2), (2, 4, 6)] * 3

    def test_two_geometries_match_each_alone(self):
        small = SearchPolicy(init_qnetwork(2, 5, 1, seed=3), init_qnetwork(2, 5, 1, seed=4), 3)
        deep = SearchPolicy(init_qnetwork(3, 4, 2, seed=5), init_qnetwork(3, 4, 2, seed=6), 1)
        wide = SearchPolicy(small.begin_net, small.end_net, 5)
        rng = np.random.default_rng(8)
        searches = []
        for policy, dim in ((small, 2), (deep, 3), (wide, 2), (deep, 3), (small, 2)):
            t = int(rng.integers(8, 40))
            video = FeatureSequence(rng.normal(size=(t, dim)))
            searches.append((policy, video, (int(rng.integers(0, t)), int(rng.integers(0, t)))))
        together = rollout_many(searches, max_steps=25)
        for search, result in zip(searches, together):
            assert _fields(result) == _fields(rollout_many([search], max_steps=25)[0])
            assert _fields(result) == _reference_rollout(*search, 25)

    def test_shards_match_one_call(self, monkeypatch, assert_no_children):
        # Three policies over two processes: policies 0 and 2 here, policy
        # 1 in a worker whose results outgrow a 64 KiB pipe buffer (the
        # zero networks walk Right for 200 rounds, reading 200+ clips).
        monkeypatch.setattr(procs, "usable_cpus", lambda: 2)
        policies = [SearchPolicy(init_qnetwork(2, 3, 1, seed=4), init_qnetwork(2, 3, 1, seed=5), 3),
                    SearchPolicy(zero_qnetwork(2, 3, 1), zero_qnetwork(2, 3, 1), 3),
                    SearchPolicy(init_qnetwork(2, 3, 1, seed=6), init_qnetwork(2, 3, 1, seed=7), 5)]
        rng = np.random.default_rng(9)
        videos = [FeatureSequence(rng.normal(size=(t, 2))) for t in rng.integers(300, 600, 120)]
        searches = [(policy, video, tuple(rng.integers(0, video.num_clips, 2).tolist()))
                    for video in videos for policy in policies]
        expected = rollout_many(searches, 200)
        worker = [r for (policy, _, _), r in zip(searches, expected) if policy is policies[1]]
        assert len(pickle.dumps((True, worker))) > 1 << 16
        together = inference.rollout_sharded(searches, 200)
        assert list(map(_fields, together)) == list(map(_fields, expected))
        assert_no_children()

    def test_dim_mismatch_rejected(self):
        policy = SearchPolicy(zero_qnetwork(2, 4, 1), zero_qnetwork(2, 4, 1), 1)
        with pytest.raises(PhaseseekError):
            rollout_many([(policy, _position_video(10), (0, 5))])

    @pytest.mark.parametrize("dims", [(16, 64, 2, 5), (2, 3, 1, 1)])
    def test_q_values_do_not_depend_on_batch_companions(self, dims):
        # A state's Q-values are the same alone and among random companion
        # states, interleaved, for its own network and for the other
        # network asked; stack row 1 is never asked, so the call's rows
        # have a gap.  700 states of one network take three passes.
        dim, hidden, layers, window = dims
        stack = stack_networks([init_qnetwork(dim, hidden, layers, seed=seed)
                                for seed in (4, 7, 9)])
        rng = np.random.default_rng(5)
        states = rng.normal(size=(64, 2 * window, dim))
        alone = {net: np.concatenate([q_values(stack, [net], [s]) for s in states])
                 for net in (0, 2)}
        for size in (1, 2, 3, 5, 8, 13, 64, 300, 700):
            idx = {0: rng.integers(0, 64, size), 2: rng.integers(0, 64, int(rng.integers(0, 300)))}
            which = np.repeat([0, 2], [len(idx[0]), len(idx[2])])
            order = rng.permutation(len(which))
            q = q_values(stack, which[order], states[np.concatenate([idx[0], idx[2]])][order])
            expected = np.concatenate([alone[0][idx[0]], alone[2][idx[2]]])[order]
            np.testing.assert_array_equal(q, expected)

    def test_single_state_ties_go_right(self):
        q = q_values(zero_qnetwork(3, 4, 1), [0], np.zeros((1, 4, 3)))
        assert list(greedy(q)) == [ACTION_RIGHT]


class TestCoverageRate:
    def test_full(self):
        assert coverage_rate([set(range(10))], 10) == 1.0

    def test_union(self):
        assert coverage_rate([set(range(0, 10)), set(range(5, 15))], 100) == pytest.approx(0.15)

    def test_zero_clips_rejected(self):
        with pytest.raises(PhaseseekError):
            coverage_rate([set()], 0)
