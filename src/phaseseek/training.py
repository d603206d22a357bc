"""Paired-agent Q-learning over a video's clip timeline.

Two agents jointly search for one phase's (begin, end) clip pair.  Each
agent owns a search window of ``window_len`` clips centered on its current
position; both agents observe the same state (the stacked contents of both
windows) and move their window one clip left or right per step.  A move is
rewarded +1 when it brings the window center closer to that video's true
transition and -1 otherwise.  Updates follow the usual pattern: experiences
go to a per-agent ring buffer, batches are regressed onto Bellman targets
from a periodically synchronized target network.  At ``gamma`` 0 a target
is the reward alone, and no target network exists.  Where two CPUs and
one BLAS thread allow it, a forked helper computes the end agent's loss
and gradients while this process computes the begin agent's; both Adam
steps and every target sync run here, and every output byte is that of
one process.

Position updates keep ``begin <= end`` at all times: moves are clamped to
the video bounds and against the partner position (begin first, then end
against the fresh begin position).
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import PhaseseekError
from .features import FeatureSequence, TransitionSet, check_values
from .nets import (
    AdamState,
    QNetwork,
    adam_init,
    adam_step,
    backward_stack,
    cached_pass_values,
    clone_params,
    copy_network,
    copy_params_into,
    forward_stack,
    huber_loss,
    init_qnetwork,
    param_list,
    q_values,
    stack_networks,
)
from .procs import Worker, processes

logger = logging.getLogger(__name__)

ACTION_RIGHT = 0
ACTION_LEFT = 1
ROLE_BEGIN = "begin"
ROLE_END = "end"


class ReplayMemory:
    """Fixed-capacity ring buffer of experiences, oldest evicted first.

    A state is stored as its integer window rows into a padded feature
    matrix (see :func:`zero_padded`); a batch sample is one gather per field.
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

    def draw(self, batch: int, rng: np.random.Generator):
        """A :meth:`sample` of ``batch`` records, or None (drawing nothing)
        while the memory holds fewer."""
        return self.sample(batch, rng) if self._size >= batch else None


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
        if not 0 < self.lr <= 1:
            raise ValueError("lr must lie in (0, 1]")
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
    """A phase's frozen begin/end networks, rows ``row`` and ``row + 1`` of
    ``stack``, which rollouts evaluate in place, and their window length.
    :meth:`pair` makes one of two loose networks, as ``train`` returns."""

    stack: QNetwork
    row: int
    window_len: int

    @classmethod
    def pair(cls, begin_net: QNetwork, end_net: QNetwork, window_len: int) -> SearchPolicy:
        """The policy of two networks of one geometry, copied into a new stack."""
        return cls(stack_networks([begin_net, end_net]), 0, window_len)

    @property
    def begin_net(self) -> QNetwork:
        return self.stack[self.row: self.row + 1]

    @property
    def end_net(self) -> QNetwork:
        return self.stack[self.row + 1: self.row + 2]


# ---------------------------------------------------------------------------
# Environment primitives
# ---------------------------------------------------------------------------

def zero_padded(lengths: list[int], dim: int, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """A zero float64 matrix with room for videos of ``lengths`` clips and
    ``dim`` features, ``pad`` zero rows around each, and each video's base
    row: clip ``c`` of video ``v`` goes to row ``base[v] + c``.  Windows of
    up to ``2 * pad + 1`` clips centered on a clip then read only that
    video's clips and zero rows.  Refuses zero padding of more than
    ``MAX_VALUES`` values before allocating."""
    check_values((len(lengths) + 1) * pad * dim,
                 f"the zero padding of windows of window_len {2 * pad + 1} around "
                 f"{len(lengths)} video(s) of dim {dim}")
    base = np.cumsum([pad] + [t + pad for t in lengths[:-1]])
    return np.zeros((base[-1] + lengths[-1] + pad, dim)), base


def pad_videos(videos: list[FeatureSequence], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """The videos' clip features copied into one :func:`zero_padded`
    matrix, and each video's base row."""
    padded, base = zero_padded([v.num_clips for v in videos], videos[-1].dim, pad)
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
    net: QNetwork, padded: np.ndarray, rows: np.ndarray, epsilon: float,
    rng: np.random.Generator | None,
) -> int:
    """Epsilon-greedy action on the state ``padded[rows]``, ``rows`` being
    its 2L window rows (see :func:`greedy`)."""
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(2))
    return int(greedy(q_values(net, [0], padded, rows[None]))[0])


def dqn_update(
    net: QNetwork,
    target_net: QNetwork | None,
    sample,
    padded: np.ndarray,
    gamma: float,
    adam: AdamState,
    helper: _EndHelper | None = None,
) -> float | None:
    """One Bellman regression step on a drawn ``sample`` (see
    :meth:`ReplayMemory.sample`); returns the batch loss, or None when the
    sample is None (no update performed).

    The sampled window rows are gathered from ``padded``.  The online
    network runs one cached kernel pass and its backward; the target network
    runs one uncached pass, only when ``gamma`` is not zero (at zero it may
    be None).  With a ``helper`` started on this sample (see
    :class:`_EndHelper`), the loss and gradients are the helper's, computed
    in its process the same way; the Adam step runs here either way.
    """
    if sample is None:
        return None
    if helper is None:
        loss, grads = _gradients(net, target_net, sample, padded, gamma)
    else:
        loss, grads = helper.gradients()
    adam_step(param_list(net), grads, adam)
    return loss


def _gradients(net, target_net, sample, padded, gamma: float):
    # One update's batch loss and weight gradients: the cached pass, the
    # Bellman targets, and the backward from each row's loss gradient.
    states, next_states, actions, rewards = sample
    q, cache = forward_stack(net, padded[states][None], cache=True)
    if gamma != 0.0:
        q_next = forward_stack(target_net, padded[next_states][None])[0]
        targets = rewards + gamma * q_next.max(axis=1)
    else:
        targets = rewards.astype(np.float64)
    taken = 0, np.arange(len(actions)), actions
    losses, dpred = huber_loss(q[taken], targets)
    dq = np.zeros_like(q)
    dq[taken] = dpred / len(losses)
    return float(losses.mean()), backward_stack(net, cache, dq)


# ---------------------------------------------------------------------------
# Forked processes
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Threads OpenBLAS runs one product on in this process, read from the
    library numpy loaded; None where no OpenBLAS library is mapped."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


class _Shared:
    # Arrays carved in order from one anonymous shared mapping of ``values``
    # 8-byte values, which forked children share.
    def __init__(self, values: int):
        self._map, self._used = mmap.mmap(-1, 8 * values), 0

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        out = np.frombuffer(self._map, dtype, size, 8 * self._used).reshape(shape)
        self._used += size
        return out


class _EndHelper(Worker):
    """A :class:`~phaseseek.procs.Worker` that computes the end agent's loss
    and gradients while this process computes the begin agent's.

    :meth:`fork` makes one before the pair's first update.  The end agent's
    network (and target) then move into shared memory, beside one update's
    sample and gradients, so this process's Adam steps and target syncs
    reach the helper, which only reads the weights.  Per step,
    :meth:`start` writes end's drawn sample and sends one request;
    :meth:`gradients` awaits the helper's loss, its gradients being in
    shared memory.  The helper runs the code one process runs, on the same
    shapes, so its loss and gradients are those of one process exactly.
    """

    @classmethod
    def fork(cls, end: _AgentSlot, padded: np.ndarray, cfg: TrainConfig):
        """A helper for ``end``'s updates, or a ``nullcontext`` when they
        run in this process.  It forks when an update will run (a memory can
        hold a batch), :func:`~phaseseek.procs.processes` allows two, and
        OpenBLAS runs one thread per product (with more, the two processes'
        BLAS threads fight over the CPUs: an update took twice as long)."""
        if not (end.memory.capacity >= cfg.batch and processes(2) == 2
                and _blas_threads() == 1):
            return contextlib.nullcontext()
        return cls(end, padded, cfg)

    def __init__(self, end: _AgentSlot, padded: np.ndarray, cfg: TrainConfig):
        batch, steps = cfg.batch, 2 * cfg.window_len
        weights = sum(p.size for p in param_list(end.net))
        # The network, its target, the gradients and the sample.
        room = _Shared((3 if end.target is not None else 2) * weights + batch * (2 * steps + 2))
        end.net = copy_network(end.net, room.take)
        if end.target is not None:
            end.target = copy_network(end.target, room.take)
        net, target = end.net, end.target
        self._grads = [room.take(p.shape) for p in param_list(net)]
        self._sample = [room.take((batch, steps), np.int64), room.take((batch, steps), np.int64),
                        room.take((batch,), np.int64), room.take((batch,), np.int64)]

        def serve(_request: int) -> float:  # in the helper
            loss, grads = _gradients(net, target, self._sample, padded, cfg.gamma)
            for out, grad in zip(self._grads, grads):
                out[...] = grad
            return loss

        super().__init__("training helper", serve)

    def start(self, sample) -> None:
        """Write end's drawn ``sample`` and request its loss and gradients."""
        for out, values in zip(self._sample, sample):
            out[...] = values
        self.send(0)

    def gradients(self) -> tuple[float, list[np.ndarray]]:
        """The started update's loss and weight gradients, once the helper
        has computed them."""
        return self.result(), self._grads


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
    # One agent's mutable training state: network, target (None at gamma
    # 0, which reads no target), optimizer, memory.
    net: QNetwork
    target: QNetwork | None
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
        target = clone_params(net) if cfg.gamma != 0.0 else None
        return cls(net, target, adam_init(param_list(net), lr=cfg.lr), ReplayMemory(capacity))


def check_update_size(cfg: TrainConfig, dim: int) -> None:
    """Raise ``ValueError`` when one update's cached kernel pass over a batch
    of states of ``dim`` features (see
    :func:`~phaseseek.nets.cached_pass_values`), the largest array of a run,
    would exceed ``MAX_VALUES`` values; a greedy step pads its one state to
    4 rows."""
    check_values(cached_pass_values(dim, cfg.hidden_dim, cfg.num_layers, 2 * cfg.window_len,
                                    max(cfg.batch, 4)),
                 f"one cached kernel pass over a batch of {cfg.batch} states of 2 x window_len "
                 f"{cfg.window_len} rows of dim {dim} at hidden_dim {cfg.hidden_dim} and "
                 f"num_layers {cfg.num_layers}")


def train(
    dataset: list[tuple[FeatureSequence, TransitionSet]],
    phase: int,
    cfg: TrainConfig,
    init,
    on_video=None,
    layout: tuple[np.ndarray, np.ndarray] | None = None,
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
    (dataset, cfg, init).  Raises, before allocating, ``PhaseseekError``
    when a video's feature dim is not the first video's, and ``ValueError``
    when one update's cached kernel pass (see :func:`check_update_size`) or the
    window padding would exceed ``MAX_VALUES`` values.  With ``layout=(padded,
    bases)``, clip ``c`` of ``dataset[i]``'s video is row ``bases[i] + c`` of
    ``padded``, with at least ``window_len // 2`` zero rows around each
    video (see :func:`zero_padded`), and training reads that matrix in
    place; without it, the videos are copied into one (see
    :func:`pad_videos`).
    """
    if not dataset:
        raise PhaseseekError("empty training dataset")
    dim = dataset[0][0].dim
    usable = []
    for vid, (seq, ts) in enumerate(dataset):
        if seq.dim != dim:
            raise PhaseseekError(f"video {vid}: feature dim {seq.dim} does not match "
                                 f"feature dim {dim} of video 0")
        pair = ts.get(phase)
        if pair is None:
            logger.warning("video %d does not contain phase %d; skipped", vid, phase)
            continue
        usable.append((vid, seq, pair))
    if not usable:
        raise PhaseseekError(f"phase {phase} absent from every training video")

    check_update_size(cfg, dim)
    rng = np.random.default_rng(cfg.seed)
    seeds = np.random.default_rng(cfg.seed).integers(2**63, size=2)
    # A memory holds at most the records the run pushes, so it wraps exactly
    # when one of the configured capacity would.
    pushes = cfg.episodes_max * len(usable) * cfg.max_steps_per_video
    capacity = max(1, min(cfg.memory_capacity, pushes))
    begin, end = (_AgentSlot.fresh(dim, cfg, int(s), capacity) for s in seeds)
    starts = [init.initial_positions(seq, phase) for _, seq, _ in usable]
    if layout is None:
        padded, bases = pad_videos([seq for _, seq, _ in usable], cfg.window_len // 2)
    else:
        padded, bases = layout[0], [layout[1][vid] for vid, _, _ in usable]

    with _EndHelper.fork(end, padded, cfg) as helper:
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
                    act_b = select_action(begin.net, padded, rows, eps, rng)
                    act_e = select_action(end.net, padded, rows, eps, rng)
                    new_b = apply_action(begin.pos, act_b, t, partner=end.pos, role=ROLE_BEGIN)
                    new_e = apply_action(end.pos, act_e, t, partner=new_b, role=ROLE_END)
                    next_rows = window_rows(base + np.array([new_b, new_e]), cfg.window_len)
                    for slot, action, new_pos in ((begin, act_b, new_b), (end, act_e, new_e)):
                        reward = compute_reward(slot.pos, new_pos, slot.gt)
                        slot.memory.push(rows, next_rows, action, reward)
                        slot.pos = new_pos
                    # Begin's sample is drawn before end's, so the rng stream
                    # is the same whether end's update runs here or in the
                    # helper.
                    samples = [slot.memory.draw(cfg.batch, rng) for slot in (begin, end)]
                    if helper is not None and samples[1] is not None:
                        helper.start(samples[1])
                    for slot, sample, by in ((begin, samples[0], None), (end, samples[1], helper)):
                        loss = dqn_update(slot.net, slot.target, sample, padded, cfg.gamma,
                                          slot.adam, by)
                        if loss is not None:
                            slot.loss_sum += loss
                            slot.loss_count += 1
                            slot.updates += 1
                            if slot.target is not None and slot.updates % cfg.target_sync_period == 0:
                                copy_params_into(slot.net, slot.target)
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
    return SearchPolicy.pair(begin.net, end.net, cfg.window_len)
