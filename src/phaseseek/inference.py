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

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PhaseseekError
from .features import FeatureSequence, PhaseLabels, TransitionSet
from .nets import pass_width, q_values, uncached_pass_values
from .procs import Worker, processes
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


def _groups(policies: list[SearchPolicy]) -> np.ndarray:
    """Per policy, its group of :func:`rollout_many`: the policies whose
    networks are rows of one stack and read windows of one length,
    numbered in order of first appearance."""
    number: dict[tuple[int, int], int] = {}
    return np.array([number.setdefault((id(policy.stack), policy.window_len), len(number))
                     for policy in policies], dtype=np.int64)


def round_values(policies: list[SearchPolicy], videos: int) -> list[int]:
    """Per policy, the values the largest array of :func:`rollout_many`'s
    first round holds in the policy's group, when every policy searches
    each of ``videos`` videos once.

    The first round moves every agent, so each stack row of a group
    evaluates one state per search of each policy it serves.
    :func:`~phaseseek.nets.q_values` gathers one pass at a time, and a pass
    gives every row from the group's lowest to its highest a batch of
    :func:`~phaseseek.nets.pass_width` rows of the busiest row's states;
    that gathered pass, with one step's working set (see
    :func:`~phaseseek.nets.uncached_pass_values`), is counted, or the
    round's window rows, 2L per moving agent, when those are more.
    """
    group_of, values = _groups(policies), []
    rows = np.array([policy.row for policy in policies], dtype=np.int64)
    for g, first in enumerate(np.unique(group_of, return_index=True)[1]):
        stack, window = policies[first].stack, policies[first].window_len
        mine = rows[group_of == g]
        states = videos * np.bincount(np.concatenate((mine, mine + 1)) - mine.min())
        values.append(max(len(states) * uncached_pass_values(
            stack.input_dim, stack.hidden_dim, stack.num_layers, 2 * window,
            pass_width(int(states.max()))), 2 * window * int(states.sum())))
    return [values[g] for g in group_of]


def rollout_many(
    searches: list[tuple[SearchPolicy, FeatureSequence, tuple[int, int]]],
    max_steps: int = 200,
    layout: tuple[np.ndarray, list[int]] | None = None,
) -> list[RolloutResult]:
    """Run every ``(policy, video, init_pos)`` search greedily, in lockstep.

    The videos must share one feature dim, that of every policy's stack,
    or the call raises ``PhaseseekError``.  Each round, the policies of one
    stack that read windows of one length evaluate the states of all their
    unsettled agents in one :func:`~phaseseek.nets.q_values` call on the
    stack's rows in place (one pass unless a row has more than 256
    states), each state given as its window rows of one padded feature
    matrix.  With ``layout=(padded,
    bases)``, clip ``c`` of search ``i``'s video is row ``bases[i] + c`` of
    ``padded``, with at least ``L // 2`` zero rows around the video for the
    search's window length ``L``, and every video has the matrix's feature
    dim; without it, the videos are copied into one matrix padded for the
    widest window (see :func:`~phaseseek.training.pad_videos`).  Both
    agents of a search decide on the pre-move state; begin moves first and
    end is clamped against begin's new position.  An agent settles at
    min(p, p') once its last three positions are (p, p', p) with
    |p - p'| <= 1: a left/right oscillation or a double-clamped fixed
    point.  A settled agent's window still feeds the shared state.  A
    search leaves the batch once both agents settle or after ``max_steps``
    rounds; then ``converged`` is False and the current positions are
    reported.  ``visited`` holds the clips of every window either agent
    occupied, which includes every clip whose features enter a state.
    Results come back in input order and equal those of rolling out each
    search alone.
    """
    if not searches:
        return []
    dims = sorted({video.dim for _, video, _ in searches})
    if len(dims) > 1:
        raise PhaseseekError(f"one search call reads videos of one feature dim, got dims "
                             f"{', '.join(map(str, dims))}")
    policies = [policy for policy, _, _ in searches]
    group_of = _groups(policies)
    # Per group, its first policy.
    heads = [policies[i] for i in np.unique(group_of, return_index=True)[1]]
    for head in heads:
        if head.stack.input_dim != dims[0]:
            raise PhaseseekError(f"video feature dim {dims[0]} does not match network "
                                 f"input dim {head.stack.input_dim}")
    if layout is None:
        videos = {id(video): video for _, video, _ in searches}
        padded, base = pad_videos(list(videos.values()), max(p.window_len for p in policies) // 2)
        base_of = dict(zip(videos, base.tolist()))
        layout = padded, [base_of[id(video)] for _, video, _ in searches]
    padded, bases = layout

    # Per search: its group, its agents' stack rows, its video's base row;
    # per agent, shape (searches, 2) with begin in column 0: its position
    # and previous position, whether it settled, and the range of
    # positions it reached.
    n = len(searches)
    row_of = np.array([policy.row for policy in policies], dtype=np.int64)[:, None] + [0, 1]
    base = np.array(bases, dtype=np.int64).reshape(n, 1)
    num_clips = np.array([video.num_clips for _, video, _ in searches], dtype=np.int64)
    pos = np.array([sorted(min(max(p, 0), video.num_clips - 1) for p in init_pos)
                    for _, video, init_pos in searches], dtype=np.int64).reshape(n, 2)
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
        for g, head in enumerate(heads):
            mine = np.flatnonzero(group_of[who] == g)
            if not len(mine):
                continue
            s, r = who[mine], role[mine]
            rows = window_rows(base[s] + pos[s], head.window_len)
            actions[mine] = greedy(q_values(head.stack, row_of[s, r], padded, rows))
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


def shards(policies: list) -> list[list]:
    """``policies``, in the order their searches first appear, dealt
    round-robin into the shards :func:`rollout_sharded` runs in one process
    each, as many as :func:`~phaseseek.procs.processes` allows."""
    count = processes(len(policies))
    return [policies[i::count] for i in range(count)]


def rollout_sharded(
    searches: list[tuple[SearchPolicy, FeatureSequence, tuple[int, int]]],
    max_steps: int = 200,
    layout: tuple[np.ndarray, list[int]] | None = None,
) -> list[RolloutResult]:
    """:func:`rollout_many`'s results, with each policy's searches run in
    one of up to one process per usable CPU.

    The searches split by policy into the :func:`shards` of their policies.
    Searches of different policies never share a network, and a state's
    Q-values do not depend on its batch companions, so each shard's
    :func:`rollout_many` gives every search the result it gets in one call.
    Each shard after the first runs in a forked
    :class:`~phaseseek.procs.Worker`, whose one answer is its results; this
    process runs the first shard and merges the results back into input
    order.  Each shard gets its searches' slice of ``layout``'s base rows,
    and a worker reads the matrix this process holds.  An exception a
    worker raised is raised here again, with its type and message; when
    anything raises, every worker is killed and reaped.  With one shard,
    this is one :func:`rollout_many` call.
    """
    dealt = shards(list(dict.fromkeys(id(policy) for policy, _, _ in searches)))
    if len(dealt) <= 1:
        return rollout_many(searches, max_steps, layout)
    shard_of = {policy: i for i, shard in enumerate(dealt) for policy in shard}
    parts: list[list[int]] = [[] for _ in dealt]
    for i, (policy, _, _) in enumerate(searches):
        parts[shard_of[id(policy)]].append(i)

    def run(part):
        mine = None if layout is None else (layout[0], [layout[1][i] for i in part])
        return rollout_many([searches[i] for i in part], max_steps, mine)

    with ExitStack() as stack:
        workers = [stack.enter_context(Worker("search worker", lambda _, part=part: run(part)))
                   for part in parts[1:]]
        for worker in workers:
            worker.send(0)
        outcomes = [run(parts[0])] + [worker.result() for worker in workers]
    results: list = [None] * len(searches)
    for part, value in zip(parts, outcomes):
        for i, result in zip(part, value):
            results[i] = result
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
