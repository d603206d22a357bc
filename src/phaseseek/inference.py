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
from .nets import NUM_ACTIONS, QNetwork, forward_batch
from .training import (
    ACTION_LEFT,
    ACTION_RIGHT,
    ROLE_BEGIN,
    ROLE_END,
    apply_action,
    build_state,
    window_indices,
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

    def initial_positions(
        self, video: FeatureSequence, phase: int, fallback: FixedInit | None = None
    ) -> tuple[int, int]:
        fallback = fallback or self.fallback
        labels = np.asarray(self.predict(video), dtype=np.int64)
        if labels.shape != (video.num_clips,):
            raise PhaseseekError("prediction length does not match video")
        t = video.num_clips
        is_phase = labels == phase
        prev = np.concatenate(([False], is_phase[:-1]))
        nxt = np.concatenate((is_phase[1:], [False]))
        begin_candidates = np.flatnonzero(is_phase & ~prev)
        end_candidates = np.flatnonzero(is_phase & ~nxt)

        if (not len(begin_candidates) or not len(end_candidates)) and fallback is None:
            raise PhaseseekError(f"no predicted clips of phase {phase} and no fallback")
        fb = fallback.initial_positions(video, phase) if fallback is not None else None
        p_b = _round_half_up(float(begin_candidates.mean())) if len(begin_candidates) else fb[0]
        p_e = _round_half_up(float(end_candidates.mean())) if len(end_candidates) else fb[1]
        p_b = min(max(p_b, 0), t - 1)
        p_e = min(max(p_e, 0), t - 1)
        return min(p_b, p_e), max(p_b, p_e)


Initializer = FixedInit | PredictionInit


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


def init_positions(
    init: Initializer,
    video: FeatureSequence,
    phase: int,
    fallback: FixedInit | None = None,
) -> tuple[int, int]:
    """Initial (begin, end) window positions for one video and phase."""
    if isinstance(init, PredictionInit):
        return init.initial_positions(video, phase, fallback)
    return init.initial_positions(video, phase)


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

@dataclass(frozen=True)
class SearchPolicy:
    """A phase's frozen begin/end networks and their window length.

    Rollouts read only these three attributes, so the trainer's
    ``AgentPair`` can be passed wherever a policy is expected.
    """

    begin_net: QNetwork
    end_net: QNetwork
    window_len: int


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


# Batch geometry of every rollout forward pass.  OpenBLAS's x86-64 dgemm
# rounds a product row differently when the row falls in a remainder
# block of fewer than four rows (its micro-kernel height), and the 64x50
# head product changes path again from about 1000 rows.  Blocks of at
# most 256 states, padded with zero states to a multiple of four, keep
# each state's Q-values bit-identical whatever other states share its
# batch; tests/test_inference.py checks this on the host BLAS.
_ROW_MULTIPLE = 4
_MAX_ROWS = 256


def _q_values(net: QNetwork, states: np.ndarray) -> np.ndarray:
    # Q-values of a (B, 2L, D) batch, evaluated in padded blocks (see above).
    q = np.empty((len(states), NUM_ACTIONS))
    for lo in range(0, len(states), _MAX_ROWS):
        block = states[lo: lo + _MAX_ROWS]
        pad = np.zeros((-len(block) % _ROW_MULTIPLE,) + block.shape[1:])
        q_block, _ = forward_batch(net, np.concatenate((block, pad)), need_cache=False)
        q[lo: lo + len(block)] = q_block[: len(block)]
    return q


def greedy_actions(net: QNetwork, states: np.ndarray) -> np.ndarray:
    """Greedy action for each state of a ``(B, 2L, D)`` batch; ties go Right.

    A state's action does not depend on which other states share its batch.
    """
    q = _q_values(net, states)
    return np.where(q[:, ACTION_RIGHT] >= q[:, ACTION_LEFT], ACTION_RIGHT, ACTION_LEFT)


class _Search:
    # One (policy, video) search in flight inside rollout_many.
    def __init__(self, policy: SearchPolicy, video: FeatureSequence, init_pos):
        t = video.num_clips
        p_b = min(max(init_pos[0], 0), t - 1)
        p_e = min(max(init_pos[1], 0), t - 1)
        self.policy = policy
        self.video = video
        self.begin = _AgentTracker(min(p_b, p_e))
        self.end = _AgentTracker(max(p_b, p_e))
        self.visited: set[int] = set()
        self.steps = 0
        self.visit(self.begin.pos)
        self.visit(self.end.pos)
        self.observe()

    def visit(self, center: int) -> None:
        idx, ok = window_indices(center, self.policy.window_len, self.video.num_clips)
        self.visited.update(int(i) for i in idx[ok])

    def observe(self) -> None:
        self.state = build_state(self.video, self.begin.pos, self.end.pos,
                                 self.policy.window_len).rows

    def move(self, role: str, action: int) -> None:
        agent, partner = (self.begin, self.end) if role == ROLE_BEGIN else (self.end, self.begin)
        agent.record(apply_action(agent.pos, action, self.video.num_clips,
                                  partner=partner.pos, role=role))
        self.visit(agent.pos)

    @property
    def settled(self) -> bool:
        return self.begin.settled and self.end.settled

    def result(self) -> RolloutResult:
        return RolloutResult(
            begin=self.begin.pos,
            end=max(self.begin.pos, self.end.pos),
            steps_taken=self.steps,
            visited=self.visited,
            converged=self.settled,
        )


def _decide(nets: list[QNetwork], states: list[np.ndarray]) -> np.ndarray:
    # Greedy action per (network, state) pair, one batch per distinct
    # network and state shape (policies may share a network across windows).
    groups: dict[tuple, list[int]] = {}
    for i, net in enumerate(nets):
        groups.setdefault((id(net), states[i].shape), []).append(i)
    actions = np.empty(len(nets), dtype=np.int64)
    for rows in groups.values():
        actions[rows] = greedy_actions(nets[rows[0]], np.stack([states[i] for i in rows]))
    return actions


def rollout_many(
    searches: list[tuple[SearchPolicy, FeatureSequence, tuple[int, int]]],
    max_steps: int = 200,
) -> list[RolloutResult]:
    """Run every ``(policy, video, init_pos)`` search greedily, in lockstep.

    Each round, every network with unsettled agents evaluates all of their
    states in one batch.  Both agents of a search decide on the pre-move
    state; begin moves first and end is clamped against begin's new
    position.  A settled agent stops moving but its window still feeds the
    shared state.  A search leaves the batch once both agents settle or
    after ``max_steps`` rounds; then ``converged`` is False and the current
    positions are reported.  Every clip whose features enter a state is
    added to that search's ``visited``.  Results come back in input order
    and equal those of rolling out each search alone.
    """
    runs = [_Search(policy, video, init_pos) for policy, video, init_pos in searches]
    active = runs
    while active := [s for s in active if s.steps < max_steps and not s.settled]:
        # All begin moves precede all end moves, so within one search end
        # is clamped against begin's new position.
        movers = [(s, ROLE_BEGIN) for s in active if not s.begin.settled]
        movers += [(s, ROLE_END) for s in active if not s.end.settled]
        nets = [s.policy.begin_net if role == ROLE_BEGIN else s.policy.end_net
                for s, role in movers]
        actions = _decide(nets, [s.state for s, _ in movers])
        for (s, role), action in zip(movers, actions):
            s.move(role, action)
        for s in active:
            s.observe()
            s.steps += 1
    return [s.result() for s in runs]


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
    union: set[int] = set()
    for s in visited_sets:
        union |= s
    return len(union) / num_clips
