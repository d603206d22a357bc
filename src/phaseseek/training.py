"""Paired-agent Q-learning over a video's clip timeline.

Two agents jointly search for one phase's (begin, end) clip pair.  Each
agent owns a search window of ``window_len`` clips centered on its current
position; both agents observe the same state (the stacked contents of both
windows) and move their window one clip left or right per step.  A move is
rewarded +1 when it brings the window center closer to that video's true
transition and -1 otherwise.  Updates follow the usual pattern: experiences
go to a per-agent ring buffer, batches are regressed onto Bellman targets
from a periodically synchronized target network.

Position updates keep ``begin <= end`` at all times: moves are clamped to
the video bounds and against the partner position (begin first, then end
against the fresh begin position).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import PhaseseekError
from .features import MAX_VALUES, FeatureSequence, TransitionSet
from .nets import (
    AdamState,
    QNetwork,
    adam_init,
    adam_step,
    backward_stack,
    clone_params,
    copy_params_into,
    forward_stack,
    huber_loss,
    init_qnetwork,
    param_list,
    q_values,
)

logger = logging.getLogger(__name__)

ACTION_RIGHT = 0
ACTION_LEFT = 1
ROLE_BEGIN = "begin"
ROLE_END = "end"


class ReplayMemory:
    """Fixed-capacity ring buffer of experiences, oldest evicted first.

    A state is stored as its integer window rows into a padded feature
    matrix (see :func:`pad_videos`); a batch sample is one gather per field.
    """

    def __init__(self, capacity: int = 10000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rows = None  # (capacity, 2, 2L): state and next-state window rows
        self._actions = np.empty(capacity, dtype=np.int64)
        self._rewards = np.empty(capacity, dtype=np.int64)
        self._head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, state: np.ndarray, next_state: np.ndarray, action: int, reward: int) -> None:
        """Store one transition: both states' window rows, the agent's action and reward."""
        if action not in (ACTION_RIGHT, ACTION_LEFT):
            raise ValueError(f"unknown action {action}")
        if reward not in (1, -1):
            raise ValueError(f"reward must be +1 or -1, got {reward}")
        if self._rows is None:
            self._rows = np.empty((self.capacity, 2) + np.shape(state), dtype=np.int64)
        self._rows[self._head] = state, next_state
        self._actions[self._head] = action
        self._rewards[self._head] = reward
        self._head = (self._head + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator):
        """Uniform sample without replacement: (state rows, next-state rows, actions, rewards)."""
        if batch > self._size:
            raise PhaseseekError(f"cannot sample {batch} from memory of size {self._size}")
        idx = rng.choice(self._size, size=batch, replace=False)
        rows = self._rows[idx]
        return rows[:, 0], rows[:, 1], self._actions[idx], self._rewards[idx]


@dataclass
class TrainConfig:
    episodes_max: int = 10
    max_steps_per_video: int = 200
    batch: int = 128
    lr: float = 3e-4
    gamma: float = 0.9
    eps_start: float = 0.9
    eps_min: float = 0.05
    eps_decay: float = 0.995
    target_sync_period: int = 100
    seed: int = 0
    window_len: int = 5
    hidden_dim: int = 64
    num_layers: int = 2
    memory_capacity: int = 10000

    def __post_init__(self):
        # Each message names its field, which the CLI maps to the flag.
        if self.episodes_max < 0:
            raise ValueError("episodes_max must be >= 0")
        for name in ("max_steps_per_video", "batch", "target_sync_period", "window_len",
                     "hidden_dim", "num_layers", "memory_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be finite and positive")
        if not 0 < self.eps_decay <= 1:  # above 1, eps_decay ** episode can overflow
            raise ValueError("eps_decay must lie in (0, 1]")
        for name in ("eps_start", "eps_min"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must lie in [0, 1)")

    def epsilon_at(self, episode: int) -> float:
        return max(self.eps_min, self.eps_start * self.eps_decay ** episode)


@dataclass(frozen=True)
class SearchPolicy:
    """A phase's frozen begin/end networks and their window length.

    ``train`` returns one; rollouts read only these three attributes.
    """

    begin_net: QNetwork
    end_net: QNetwork
    window_len: int


# ---------------------------------------------------------------------------
# Environment primitives
# ---------------------------------------------------------------------------

def pad_videos(videos: list[FeatureSequence], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """The videos' clip features in one float64 matrix with ``pad`` zero rows
    around each video, and each video's base row: clip ``c`` of video ``v``
    is row ``base[v] + c``.  Windows of up to ``2 * pad + 1`` clips centered
    on a clip then read only that video's clips and zero rows.  Refuses
    zero padding of more than ``MAX_VALUES`` values before allocating."""
    zeros = (len(videos) + 1) * pad * videos[-1].dim
    if zeros > MAX_VALUES:
        raise ValueError(f"windows of window_len {2 * pad + 1} need {zeros} zero padding "
                         f"values around {len(videos)} video(s) of dim {videos[-1].dim}, "
                         f"above the limit of {MAX_VALUES}")
    base = np.cumsum([pad] + [v.num_clips + pad for v in videos[:-1]])
    padded = np.zeros((base[-1] + videos[-1].num_clips + pad, videos[-1].dim))
    for b, v in zip(base, videos):
        padded[b: b + v.num_clips] = v.features
    return padded, base


def window_rows(centers, window_len: int) -> np.ndarray:
    """Rows ``(..., k * window_len)`` of the windows centered at ``(..., k)`` rows;
    for (begin, end) centers, ``padded[window_rows(centers, L)]`` is ``(..., 2L, D)`` states."""
    centers = np.asarray(centers)
    rows = centers[..., None] + (np.arange(window_len) - window_len // 2)
    return rows.reshape(centers.shape[:-1] + (-1,))


def apply_action(pos, action, num_clips, partner, role: str):
    """Move one clip left/right, clamped to the video and to the pair order.

    The begin agent never moves right past its partner; the end agent never
    moves left past its partner.  Clamping absorbs the move, it never fails.
    Every argument but ``role`` may be an array, to move many agents at once.
    """
    new = np.clip(pos + np.where(action == ACTION_RIGHT, 1, -1), 0, num_clips - 1)
    if role == ROLE_BEGIN:
        return np.minimum(new, partner)
    if role == ROLE_END:
        return np.maximum(new, partner)
    raise ValueError(f"unknown role {role!r}")


def compute_reward(old_center: int, new_center: int, gt: int) -> int:
    """+1 when the window center moved strictly closer to ``gt``, else -1."""
    return 1 if abs(new_center - gt) < abs(old_center - gt) else -1


def greedy(q: np.ndarray) -> np.ndarray:
    """Greedy actions for (M, NUM_ACTIONS) Q-values; ties go Right."""
    return np.where(q[:, ACTION_RIGHT] >= q[:, ACTION_LEFT], ACTION_RIGHT, ACTION_LEFT)


def select_action(
    net: QNetwork, state: np.ndarray, epsilon: float, rng: np.random.Generator | None
) -> int:
    """Epsilon-greedy action on a ``(2L, D)`` state (see :func:`greedy`)."""
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(2))
    return int(greedy(q_values(net, [0], state[None]))[0])


def dqn_update(
    net: QNetwork,
    target_net: QNetwork,
    memory: ReplayMemory,
    padded: np.ndarray,
    batch: int,
    gamma: float,
    adam: AdamState,
    rng: np.random.Generator,
) -> float | None:
    """One Bellman regression step; returns batch loss, or None when the
    memory holds fewer than ``batch`` records (no update performed).

    The sampled window rows are gathered from ``padded``.  The online
    network runs one cached kernel pass and its backward; the target network
    runs one uncached pass, only when ``gamma`` is not zero.
    """
    if len(memory) < batch:
        return None
    states, next_states, actions, rewards = memory.sample(batch, rng)
    (q,), cache = forward_stack(net, padded[states][None], cache=True)
    if gamma != 0.0:
        q_next = forward_stack(target_net, padded[next_states][None])[0]
        targets = rewards + gamma * q_next.max(axis=1)
    else:
        targets = rewards.astype(np.float64)
    rows = np.arange(batch)
    losses, dpred = huber_loss(q[rows, actions], targets)
    dq = np.zeros((batch, q.shape[1]))
    dq[rows, actions] = dpred / batch
    adam_step(param_list(net), backward_stack(net, cache, dq[None]), adam)
    return float(losses.mean())


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainVideoLog:
    """Per-(episode, video) training telemetry."""

    episode: int
    video: int
    begin_loss: float
    end_loss: float
    begin_error: int
    end_error: int


@dataclass
class _AgentSlot:
    # One agent's mutable training state: network, target, optimizer, memory.
    net: QNetwork
    target: QNetwork
    adam: AdamState
    memory: ReplayMemory
    gt: int = 0
    updates: int = 0
    loss_sum: float = 0.0
    loss_count: int = 0
    pos: int = 0

    @classmethod
    def fresh(cls, input_dim: int, cfg: TrainConfig, seed: int, capacity: int) -> _AgentSlot:
        net = init_qnetwork(input_dim, cfg.hidden_dim, cfg.num_layers, seed=seed)
        return cls(net, clone_params(net), adam_init(param_list(net), lr=cfg.lr),
                   ReplayMemory(capacity))


def train(
    dataset: list[tuple[FeatureSequence, TransitionSet]],
    phase: int,
    cfg: TrainConfig,
    init,
    on_video=None,
) -> SearchPolicy:
    """Train one phase's agent pair over the dataset; return its frozen policy.

    Runs ``episodes_max`` episodes; within an episode every usable video is
    played for exactly ``max_steps_per_video`` steps (no early stopping).
    Every step, both agents act epsilon-greedily on the shared state, store
    one experience each, and receive one Bellman update each (skipped while
    a memory holds fewer than ``batch`` records).  Videos that do not
    contain ``phase`` are skipped with a warning; a run whose memories never
    reached ``batch`` records, so no update ran, also logs a warning.
    ``init`` provides the initial window positions per video (see the
    inference module); its ``initial_positions(video, phase)`` hook is used
    exactly as at inference time.  ``on_video`` receives a
    :class:`TrainVideoLog` after each video.  Deterministic for a fixed
    (dataset, cfg, init).
    """
    if not dataset:
        raise PhaseseekError("empty training dataset")
    usable = []
    for vid, (seq, ts) in enumerate(dataset):
        pair = ts.get(phase)
        if pair is None:
            logger.warning("video %d does not contain phase %d; skipped", vid, phase)
            continue
        usable.append((vid, seq, pair))
    if not usable:
        raise PhaseseekError(f"phase {phase} absent from every training video")

    rng = np.random.default_rng(cfg.seed)
    seeds = np.random.default_rng(cfg.seed).integers(2**63, size=2)
    # A memory holds at most the records the run pushes, so it wraps exactly
    # when one of the configured capacity would.
    pushes = cfg.episodes_max * len(usable) * cfg.max_steps_per_video
    capacity = max(1, min(cfg.memory_capacity, pushes))
    begin, end = (_AgentSlot.fresh(usable[0][1].dim, cfg, int(s), capacity) for s in seeds)
    starts = [init.initial_positions(seq, phase) for _, seq, _ in usable]
    padded, bases = pad_videos([seq for _, seq, _ in usable], cfg.window_len // 2)

    for episode in range(cfg.episodes_max):
        eps = cfg.epsilon_at(episode)
        for (vid, seq, (gt_b, gt_e)), (p0_b, p0_e), base in zip(usable, starts, bases):
            begin.gt, end.gt = gt_b, gt_e
            begin.pos, end.pos = p0_b, p0_e
            for slot in (begin, end):
                slot.loss_sum, slot.loss_count = 0.0, 0
            t = seq.num_clips
            rows = window_rows(base + np.array([begin.pos, end.pos]), cfg.window_len)
            for _ in range(cfg.max_steps_per_video):
                state = padded[rows]
                act_b = select_action(begin.net, state, eps, rng)
                act_e = select_action(end.net, state, eps, rng)
                new_b = apply_action(begin.pos, act_b, t, partner=end.pos, role=ROLE_BEGIN)
                new_e = apply_action(end.pos, act_e, t, partner=new_b, role=ROLE_END)
                next_rows = window_rows(base + np.array([new_b, new_e]), cfg.window_len)
                for slot, action, new_pos in ((begin, act_b, new_b), (end, act_e, new_e)):
                    reward = compute_reward(slot.pos, new_pos, slot.gt)
                    slot.memory.push(rows, next_rows, action, reward)
                    loss = dqn_update(slot.net, slot.target, slot.memory, padded,
                                      cfg.batch, cfg.gamma, slot.adam, rng)
                    if loss is not None:
                        slot.loss_sum += loss
                        slot.loss_count += 1
                        slot.updates += 1
                        if slot.updates % cfg.target_sync_period == 0:
                            copy_params_into(slot.net, slot.target)
                    slot.pos = new_pos
                rows = next_rows
            if on_video is not None:
                on_video(TrainVideoLog(
                    episode=episode,
                    video=vid,
                    begin_loss=begin.loss_sum / begin.loss_count if begin.loss_count else float("nan"),
                    end_loss=end.loss_sum / end.loss_count if end.loss_count else float("nan"),
                    begin_error=abs(begin.pos - gt_b),
                    end_error=abs(end.pos - gt_e),
                ))

    if begin.updates == 0:
        # Both agents push and update in step, so one check covers the pair.
        logger.warning("phase %d: no Bellman update ran: %d record(s) pushed per agent, "
                       "memory holds %d, batch needs %d", phase, pushes,
                       len(begin.memory), cfg.batch)
    return SearchPolicy(begin.net, end.net, cfg.window_len)
