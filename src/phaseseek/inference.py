"""Window initialization, greedy rollout to convergence, and coverage.

Two initialization strategies are provided.  Fixed initialization places
the windows at the phase's mean relative (begin, end) positions observed in
training data; it needs no features, so rollouts typically touch only part
of the video.  Prediction-based initialization averages transition-candidate
indices in a per-clip label prediction (from the built-in linear classifier
or any external source); producing those predictions reads every clip, so
coverage is total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PhaseseekError
from .features import FeatureSequence, PhaseLabels, TransitionSet
from .nets import QNetwork, q_values, stack_networks
from .training import (
    ROLE_BEGIN,
    ROLE_END,
    SearchPolicy,
    apply_action,
    greedy,
    pad_videos,
    window_rows,
)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass
class FixedInit:
    """Mean relative (begin, end) positions of one phase across training videos."""

    rho_begin: float
    rho_end: float

    def __post_init__(self):
        if not 0.0 <= self.rho_begin <= self.rho_end <= 1.0:
            raise ValueError("need 0 <= rho_begin <= rho_end <= 1")

    def initial_positions(self, video: FeatureSequence, phase: int) -> tuple[int, int]:
        t = video.num_clips
        p_b = min(max(_round_half_up(self.rho_begin * t), 0), t - 1)
        p_e = min(max(_round_half_up(self.rho_end * t), 0), t - 1)
        return min(p_b, p_e), max(p_b, p_e)


@dataclass
class PredictionInit:
    """Initial positions from per-clip predicted labels.

    ``predict`` maps a video to a length-T label vector.  Begin candidates
    are clips where a run of the target phase starts, end candidates where
    one stops; each endpoint is the rounded mean of its candidate list, and
    an empty list falls back to ``fallback`` for that endpoint.
    """

    predict: Callable[[FeatureSequence], np.ndarray]
    fallback: FixedInit | None = None

    def initial_positions(self, video: FeatureSequence, phase: int) -> tuple[int, int]:
        labels = np.asarray(self.predict(video), dtype=np.int64)
        if labels.shape != (video.num_clips,):
            raise PhaseseekError("prediction length does not match video")
        t = video.num_clips
        is_phase = labels == phase
        prev = np.concatenate(([False], is_phase[:-1]))
        nxt = np.concatenate((is_phase[1:], [False]))
        begin_candidates = np.flatnonzero(is_phase & ~prev)
        end_candidates = np.flatnonzero(is_phase & ~nxt)

        if (not len(begin_candidates) or not len(end_candidates)) and self.fallback is None:
            raise PhaseseekError(f"no predicted clips of phase {phase} and no fallback")
        fb = self.fallback.initial_positions(video, phase) if self.fallback is not None else None
        p_b = _round_half_up(float(begin_candidates.mean())) if len(begin_candidates) else fb[0]
        p_e = _round_half_up(float(end_candidates.mean())) if len(end_candidates) else fb[1]
        p_b = min(max(p_b, 0), t - 1)
        p_e = min(max(p_e, 0), t - 1)
        return min(p_b, p_e), max(p_b, p_e)


def fit_fi(training: list[tuple[int, TransitionSet]], phase: int) -> FixedInit:
    """Average relative transition positions over videos containing ``phase``.

    ``training`` holds (num_clips, transitions) per video; videos missing
    the phase are excluded from the mean.
    """
    rel_b, rel_e = [], []
    for num_clips, ts in training:
        pair = ts.get(phase)
        if pair is None:
            continue
        rel_b.append(pair[0] / num_clips)
        rel_e.append(pair[1] / num_clips)
    if not rel_b:
        raise PhaseseekError(f"phase {phase} absent from every training video")
    return FixedInit(float(np.mean(rel_b)), float(np.mean(rel_e)))


# ---------------------------------------------------------------------------
# Built-in per-clip classifier (prediction source for window initialization)
# ---------------------------------------------------------------------------

@dataclass
class LinearClipClassifier:
    """Softmax-linear classifier over clip feature vectors."""

    weights: np.ndarray  # (D, N)
    bias: np.ndarray     # (N,)

    def predict(self, features: FeatureSequence | np.ndarray) -> np.ndarray:
        x = features.features if isinstance(features, FeatureSequence) else np.asarray(features)
        return np.argmax(x @ self.weights + self.bias, axis=1)


def train_clip_classifier(
    features: np.ndarray,
    labels: np.ndarray | PhaseLabels,
    num_phases: int | None = None,
    epochs: int = 200,
    lr: float = 0.5,
    seed: int = 0,
) -> LinearClipClassifier:
    """Fit the classifier by full-batch softmax cross-entropy gradient descent.

    Deterministic for a fixed seed; single-class data trains without error.
    """
    x = np.asarray(features, dtype=np.float64)
    if isinstance(labels, PhaseLabels):
        y = labels.labels
        num_phases = num_phases or labels.num_phases
    else:
        y = np.asarray(labels, dtype=np.int64)
        num_phases = num_phases or int(y.max()) + 1
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features and labels must align")
    if epochs < 0 or lr <= 0:
        raise ValueError("need epochs >= 0 and lr > 0")

    n, d = x.shape
    rng = np.random.default_rng(seed)
    w = 0.01 * rng.normal(size=(d, num_phases))
    b = np.zeros(num_phases)
    onehot = np.zeros((n, num_phases))
    onehot[np.arange(n), y] = 1.0
    for _ in range(epochs):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        err = (p - onehot) / n
        w -= lr * (x.T @ err)
        b -= lr * err.sum(axis=0)
    return LinearClipClassifier(w, b)


# ---------------------------------------------------------------------------
# Rollout
# ---------------------------------------------------------------------------

@dataclass
class RolloutResult:
    """One phase's retrieved transition pair and the search's footprint."""

    begin: int
    end: int
    steps_taken: int
    visited: set[int]
    converged: bool

    def __post_init__(self):
        if self.begin > self.end:
            raise ValueError("begin must not exceed end")


class _StackGroup:
    # Networks of one geometry that read windows of one length, stacked for
    # q_values, and the videos they search in one padded feature matrix,
    # which their states are gathered from.
    def __init__(self, nets: list[QNetwork], videos: list[FeatureSequence], window_len: int):
        self.stack = stack_networks(nets)
        self.padded, base = pad_videos(videos, window_len // 2)
        self.base = dict(zip(map(id, videos), base.tolist()))
        self.window_len = window_len


def rollout_many(
    searches: list[tuple[SearchPolicy, FeatureSequence, tuple[int, int]]],
    max_steps: int = 200,
) -> list[RolloutResult]:
    """Run every ``(policy, video, init_pos)`` search greedily, in lockstep.

    Each round, the networks of one geometry and window length evaluate
    the states of all their unsettled agents together: one index gathers
    the states from the group's padded feature matrix (see
    :func:`~phaseseek.training.pad_videos`), and one
    :func:`~phaseseek.nets.q_values` call evaluates them (one pass unless a
    network has more than 256 states).  Both agents
    of a search decide on the pre-move state; begin moves first and end is
    clamped against begin's new position.  An agent settles at min(p, p')
    once its last three positions are (p, p', p) with |p - p'| <= 1: a
    left/right oscillation or a double-clamped fixed point.  A settled
    agent's window still feeds the shared state.  A search leaves the batch
    once both agents settle or after ``max_steps`` rounds; then
    ``converged`` is False and the current positions are reported.
    ``visited`` holds the clips of every window either agent occupied, which
    includes every clip whose features enter a state.  Results come back in
    input order and equal those of rolling out each search alone.
    """
    # Per group key: each network's (stack row, network) and each video.
    members: dict[tuple, tuple[dict, dict]] = {}
    slots, starts = [], []  # (group key, stack row, video) per agent; starts per search
    for policy, video, init_pos in searches:
        for net in (policy.begin_net, policy.end_net):
            if net.input_dim != video.dim:
                raise PhaseseekError(f"video feature dim {video.dim} does not match "
                                     f"network input dim {net.input_dim}")
            key = (net.input_dim, net.hidden_dim, net.num_layers, policy.window_len)
            nets, videos = members.setdefault(key, ({}, {}))
            row = nets.setdefault(id(net), (len(nets), net))[0]
            videos[id(video)] = video
            slots.append((key, row, id(video)))
        starts.append(sorted(min(max(p, 0), video.num_clips - 1) for p in init_pos))
    groups = {key: _StackGroup([net for _, net in nets.values()], list(videos.values()), key[-1])
              for key, (nets, videos) in members.items()}

    # Per agent, shape (searches, 2) with begin in column 0: its stack
    # group, stack row and video base row, its position and previous
    # position, whether it settled, and the range of positions it reached.
    n = len(searches)
    index = {key: g for g, key in enumerate(groups)}
    group_of, row_of, base = np.array(
        [(index[key], row, groups[key].base[video]) for key, row, video in slots],
        dtype=np.int64).reshape(n, 2, 3).transpose(2, 0, 1)
    num_clips = np.array([video.num_clips for _, video, _ in searches], dtype=np.int64)
    pos = np.array(starts, dtype=np.int64).reshape(n, 2)
    prev = np.full((n, 2), -2)  # no position equals -2
    settled = np.zeros((n, 2), dtype=bool)
    low, high = pos.copy(), pos.copy()
    steps = np.zeros(n, dtype=np.int64)
    for _ in range(max_steps):
        active = ~settled.all(axis=1)
        if not active.any():
            break
        steps += active
        # Movers in role-major, then search order: every unsettled agent,
        # as a search whose agents both settled is no longer active.
        role, who = np.nonzero(~settled.T)
        actions = np.empty(len(who), dtype=np.int64)
        for g, group in enumerate(groups.values()):
            mine = np.flatnonzero(group_of[who, role] == g)
            if not len(mine):
                continue
            s, r = who[mine], role[mine]
            states = group.padded[window_rows(base[s, r][:, None] + pos[s], group.window_len)]
            actions[mine] = greedy(q_values(group.stack, row_of[s, r], states))
        # All begin moves precede all end moves, so end is clamped against
        # begin's new (or settled) position.
        for r, agent in enumerate((ROLE_BEGIN, ROLE_END)):
            s = who[role == r]
            new = apply_action(pos[s, r], actions[role == r], num_clips[s], pos[s, 1 - r], agent)
            # A move is at most one clip, so |p - p'| <= 1 always holds.
            settled[s, r] = settle = new == prev[s, r]
            prev[s, r], pos[s, r] = pos[s, r], np.where(settle, np.minimum(new, pos[s, r]), new)
            low[s, r] = np.minimum(low[s, r], new)
            high[s, r] = np.maximum(high[s, r], new)

    # An agent moves at most one clip per round and settles at one of its
    # last two positions, so it occupied every position in [low, high].
    results = []
    for (policy, video, _), (p_b, p_e), lo, hi, taken, done in zip(
            searches, pos.tolist(), low.tolist(), high.tolist(), steps.tolist(),
            settled.all(axis=1).tolist()):
        before, after = policy.window_len // 2, (policy.window_len + 1) // 2  # around center
        visited = {c for a, b in zip(lo, hi)
                   for c in range(max(a - before, 0), min(b + after, video.num_clips))}
        results.append(RolloutResult(p_b, max(p_b, p_e), taken, visited, done))
    return results


def rollout(
    agents: SearchPolicy,
    video: FeatureSequence,
    init_pos: tuple[int, int],
    max_steps: int = 200,
) -> RolloutResult:
    """Roll out one search; see :func:`rollout_many` for the rules."""
    return rollout_many([(agents, video, init_pos)], max_steps)[0]


def coverage_rate(visited_sets: list[set[int]], num_clips: int) -> float:
    """Fraction of the video's clips read across all phases' rollouts."""
    if num_clips <= 0:
        raise PhaseseekError("num_clips must be positive")
    return len(set().union(*visited_sets)) / num_clips
