"""Temporal feature sequences, phase annotations, and their file formats.

A video enters the pipeline as a ``T x D`` matrix of clip-level feature
vectors (one row per clip of ``clip_len_frames`` frames).  This module owns
the container types, the binary ``.trnf`` feature-file format and the label
CSV format, clip averaging, the mapping between per-clip labels and per-phase
(begin, end) transition pairs, and a seeded synthetic-video generator used
for desk-scale experiments and tests.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    BadVersionError,
    FeatureFileError,
    LabelsFileError,
    NonContiguousPhaseError,
    NonFiniteError,
    TruncatedError,
)

TRNF_MAGIC = b"TRNF"
TRNF_VERSION = 1
_HEADER = struct.Struct("<4sIIIIf")  # magic, version, T, D, K, fps

# numpy's Gaussian draws lie within +-14 (its ziggurat's tail from 53-bit
# uniforms), and a synthetic feature is a unit-norm blend plus sigma times a
# draw, so at this bound every feature stays below 1.4e38 < float32 max.
MAX_NOISE_SIGMA = 1e37

# Most values one array sized by a flag or an input file may hold: 2**27,
# 1 GiB of float64.  Synthetic videos, window padding, networks and ribbon
# images are checked against it before anything is allocated.
MAX_VALUES = 2**27


def check_values(values: int, what: str) -> None:
    """Raise ``ValueError`` when ``what`` holds more than ``MAX_VALUES`` values."""
    if values > MAX_VALUES:
        raise ValueError(f"{what}: {values} values, above the limit of {MAX_VALUES}")


@dataclass
class FeatureSequence:
    """A ``T x D`` matrix of clip features plus sampling metadata.

    ``clip_len_frames`` is the number of source frames averaged into each
    row; ``fps`` is the source frame rate (metadata only, never used in
    computation).  Entries must be finite.  Treat instances as immutable
    once constructed.
    """

    features: np.ndarray
    clip_len_frames: int = 16
    fps: float = 2.4

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(f"features must be a T x D matrix with T,D >= 1, got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise NonFiniteError("feature matrix contains NaN or Inf")
        if self.clip_len_frames < 1:
            raise ValueError("clip_len_frames must be >= 1")
        if not self.fps > 0:
            raise ValueError("fps must be positive")
        self.features = feats

    @property
    def num_clips(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class PhaseLabels:
    """Per-clip phase ids in ``{0 .. num_phases-1}``.

    The reserved id ``num_phases`` marks clips not covered by any phase;
    it appears only in partial label sequences produced from transition
    pairs, never in groundtruth.
    """

    labels: np.ndarray
    num_phases: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] < 1:
            raise ValueError("labels must be a non-empty 1-D vector")
        if self.num_phases < 1:
            raise ValueError("num_phases must be >= 1")
        if labels.min() < 0 or labels.max() > self.num_phases:
            raise ValueError(
                f"labels must lie in [0, {self.num_phases}] "
                f"(the top id is the uncovered-clip sentinel)"
            )
        self.labels = labels

    @property
    def num_clips(self) -> int:
        return self.labels.shape[0]

    @property
    def sentinel(self) -> int:
        """Reserved label for clips not covered by any phase."""
        return self.num_phases


@dataclass
class TransitionSet:
    """Per-phase (begin, end) clip indices; phases may be absent.

    ``pairs`` maps phase id to an inclusive ``(begin, end)`` pair with
    ``0 <= begin <= end``.  Absent phases simply have no entry.
    """

    num_phases: int
    pairs: dict[int, tuple[int, int]]

    def __post_init__(self):
        if self.num_phases < 1:
            raise ValueError("num_phases must be >= 1")
        clean = {}
        for phase, (begin, end) in sorted(self.pairs.items()):
            if not 0 <= phase < self.num_phases:
                raise ValueError(f"phase id {phase} out of range [0, {self.num_phases})")
            if not 0 <= begin <= end:
                raise ValueError(f"phase {phase}: need 0 <= begin <= end, got ({begin}, {end})")
            clean[int(phase)] = (int(begin), int(end))
        self.pairs = clean

    def get(self, phase: int) -> tuple[int, int] | None:
        return self.pairs.get(phase)

    @property
    def present_phases(self) -> list[int]:
        return sorted(self.pairs)


@dataclass
class SynthConfig:
    """Layout and noise parameters for synthetic videos.

    Phases are laid out as contiguous blocks in id order; each block length
    is drawn uniformly from ``[min_len, max_len]`` clips.  Every phase has a
    unit-norm prototype vector; clip features are the prototype plus
    Gaussian noise, with a linear blend of adjacent prototypes within
    ``blend_width`` clips of each block boundary.  ``dropout_prob`` is the
    per-phase probability of omitting that phase from a video entirely.
    ``noise_sigma`` is at most ``MAX_NOISE_SIGMA``, so every feature fits a
    float32 in the .trnf file.  One video's ``num_phases x max_len x dim``
    feature values are at most ``MAX_VALUES``.
    """

    num_phases: int
    min_len: int
    max_len: int
    dim: int = 16
    noise_sigma: float = 0.0
    blend_width: int = 0
    dropout_prob: float = 0.0
    clip_len_frames: int = 16
    fps: float = 2.4

    def __post_init__(self):
        if self.num_phases < 1:
            raise ValueError("num_phases must be >= 1")
        if self.min_len < 1 or self.max_len < self.min_len:
            raise ValueError("need 1 <= min_len <= max_len")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        check_values(self.num_phases * self.max_len * self.dim,
                     f"one video's features at num_phases {self.num_phases}, "
                     f"max_len {self.max_len} and dim {self.dim}")
        if not 0 <= self.noise_sigma <= MAX_NOISE_SIGMA:
            raise ValueError(f"noise_sigma must lie in [0, {MAX_NOISE_SIGMA:g}]")
        if self.blend_width < 0:
            raise ValueError("blend_width must be >= 0")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must lie in [0, 1)")
        # Both are stored in the .trnf header, as a uint32 and a float32.
        if not 1 <= self.clip_len_frames < 2**32:
            raise ValueError("clip_len_frames must lie in [1, 2**32)")
        f32 = np.finfo(np.float32)
        if not float(f32.tiny) <= self.fps <= float(f32.max):
            raise ValueError("fps must be a finite positive float32 value")


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same
    directory and ``os.replace``: a reader sees the old file or the new one,
    never part of either, and a failed write leaves no temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Binary feature files (.trnf)
# ---------------------------------------------------------------------------

def save_features(seq: FeatureSequence, path) -> None:
    """Write ``seq`` to ``path`` in the .trnf binary format.

    Layout: 4-byte magic ``TRNF``, then little-endian u32 version, T, D, K,
    an IEEE-754 f32 fps, then T*D f32 feature values in row-major order.
    """
    feats = np.asarray(seq.features, dtype=np.float64)
    with np.errstate(over="ignore"):  # overflow is caught on the cast values
        payload = feats.astype("<f4")
    if not np.isfinite(payload).all():
        raise NonFiniteError("refusing to save features that are not finite as float32")
    t, d = feats.shape
    header = _HEADER.pack(TRNF_MAGIC, TRNF_VERSION, t, d, seq.clip_len_frames, seq.fps)
    Path(path).write_bytes(header + payload.tobytes(order="C"))


def _checked_header(path, head: bytes, size: int) -> tuple[int, int, int, float]:
    # (T, D, K, fps) from a .trnf file's first bytes, checked against the
    # file's size in bytes.
    if len(head) < 4 or head[:4] != TRNF_MAGIC:
        raise BadMagicError(f"{path}: not a .trnf file (bad magic)")
    if len(head) < _HEADER.size:
        raise TruncatedError(f"{path}: header truncated")
    _, version, t, d, k, fps = _HEADER.unpack_from(head)
    if version != TRNF_VERSION:
        raise BadVersionError(f"{path}: unsupported version {version}")
    if t < 1 or d < 1 or k < 1:
        raise TruncatedError(f"{path}: invalid header dims T={t} D={d} K={k}")
    if not fps > 0:
        raise FeatureFileError(f"{path}: invalid fps {fps}")
    expected = _HEADER.size + 4 * t * d
    if size < expected:
        raise TruncatedError(f"{path}: expected {expected} bytes, got {size}")
    if size > expected:
        raise FeatureFileError(f"{path}: {size - expected} trailing byte(s) after the payload")
    return t, d, k, float(fps)


def read_features_header(path) -> tuple[int, int, int, float]:
    """``(T, D, K, fps)`` of a .trnf file, checked as :func:`load_features`
    checks it, the payload length included; reads only the header."""
    with open(path, "rb") as fh:
        return _checked_header(path, fh.read(_HEADER.size), os.fstat(fh.fileno()).st_size)


def load_features(path, out: np.ndarray | None = None) -> FeatureSequence:
    """Read a .trnf file written by :func:`save_features`.

    With ``out``, a ``(T, D)`` float64 array such as rows of a padded
    matrix (see :func:`~phaseseek.training.zero_padded`), the payload is
    decoded into it and the sequence's features are ``out`` itself.
    """
    raw = Path(path).read_bytes()
    t, d, k, fps = _checked_header(path, raw[:_HEADER.size], len(raw))
    if out is None:
        out = np.empty((t, d))
    elif out.shape != (t, d):
        raise FeatureFileError(f"{path}: holds {t} x {d} features, expected {out.shape}")
    out[...] = np.frombuffer(raw, dtype="<f4", count=t * d, offset=_HEADER.size).reshape(t, d)
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{path}: payload contains NaN or Inf")
    return FeatureSequence(out, clip_len_frames=k, fps=fps)


# ---------------------------------------------------------------------------
# Label CSV files
# ---------------------------------------------------------------------------

def save_labels(labels: PhaseLabels, path) -> None:
    """Write one ``clip_index,phase`` row per clip, sorted by clip index,
    in the bytes of :mod:`csv`'s default writer (``\\r\\n`` line ends)."""
    n = labels.num_clips
    cells = np.column_stack((np.arange(n), labels.labels)).ravel().tolist()
    text = "clip_index,phase\r\n" + "%d,%d\r\n" * n % tuple(cells)
    Path(path).write_text(text, encoding="utf-8", newline="")


# Every byte but the two separators of a label CSV's body.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")


def load_labels(path, num_phases: int | None = None) -> PhaseLabels:
    """Read a label CSV, checking it covers clips ``0..T-1`` exactly once.

    Lines end in ``\\r\\n``, ``\\n`` or ``\\r``; blank lines are skipped,
    and each cell is an integer with optional ASCII whitespace around it.
    When ``num_phases`` is omitted it is inferred as ``max(label) + 1``.
    """
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LabelsFileError(f"{path}: unreadable label CSV ({exc})") from exc
    header, *rows = raw.splitlines() or [b""]
    if [h.strip() for h in header.split(b",")] != [b"clip_index", b"phase"]:
        raise LabelsFileError(f"{path}: expected header 'clip_index,phase'")
    rows = [row for row in rows if row]
    if not rows:
        raise LabelsFileError(f"{path}: no label rows")
    body = b"\n".join(rows)
    if body.translate(None, _NOT_SEPARATORS) != b",\n" * (len(rows) - 1) + b",":
        row = next(row for row in rows if row.count(b",") != 1)
        raise LabelsFileError(f"{path}: malformed row {row!r}")
    try:
        cells = list(map(int, body.replace(b"\n", b",").split(b",")))
        table = np.array(cells, dtype=np.int64).reshape(-1, 2)
    except (ValueError, OverflowError) as exc:
        raise LabelsFileError(f"{path}: a row is not two int64 integers ({exc})") from exc
    if (table[:, 0] != np.arange(len(table))).any():
        raise LabelsFileError(f"{path}: rows must cover clip indices 0..T-1 in order")
    phases = table[:, 1].copy()
    if phases.min() < 0:
        raise LabelsFileError(f"{path}: negative phase id")
    if num_phases is None:
        num_phases = int(phases.max()) + 1
    try:
        return PhaseLabels(phases, num_phases=num_phases)
    except ValueError as exc:
        raise LabelsFileError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Clip averaging and label/transition mappings
# ---------------------------------------------------------------------------

def average_clips(frame_feats: FeatureSequence, clip_len: int) -> FeatureSequence:
    """Average consecutive groups of ``clip_len`` rows into single clips.

    A trailing remainder of fewer than ``clip_len`` rows becomes one final
    clip averaged over its actual length.
    """
    if clip_len < 1:
        raise ValueError("clip_len must be >= 1")
    feats = frame_feats.features
    t = feats.shape[0]
    full = t // clip_len
    rows = []
    if full:
        rows.append(feats[: full * clip_len].reshape(full, clip_len, -1).mean(axis=1))
    if t % clip_len:
        rows.append(feats[full * clip_len:].mean(axis=0, keepdims=True))
    out = np.concatenate(rows, axis=0)
    return FeatureSequence(out, clip_len_frames=clip_len, fps=frame_feats.fps)


def labels_to_transitions(labels: PhaseLabels) -> TransitionSet:
    """Extract each phase's (first, last) clip index.

    Requires every phase to occupy at most one contiguous run; the sentinel
    id is ignored.
    """
    arr = labels.labels
    pairs: dict[int, tuple[int, int]] = {}
    start = 0
    for i in range(1, len(arr) + 1):
        if i == len(arr) or arr[i] != arr[start]:
            phase = int(arr[start])
            if phase != labels.sentinel:
                if phase in pairs:
                    raise NonContiguousPhaseError(
                        f"phase {phase} occurs in disjoint runs at clips "
                        f"{pairs[phase]} and ({start}, {i - 1})"
                    )
                pairs[phase] = (start, i - 1)
            start = i
    return TransitionSet(num_phases=labels.num_phases, pairs=pairs)


def transitions_to_labels(ts: TransitionSet, num_clips: int) -> PhaseLabels:
    """Paint transition pairs back onto a clip timeline.

    Clips inside ``[begin, end]`` get that phase; where pairs overlap the
    lowest phase id wins; uncovered clips get the sentinel id.
    """
    if num_clips < 1:
        raise ValueError("num_clips must be >= 1")
    out = np.full(num_clips, ts.num_phases, dtype=np.int64)
    for phase in sorted(ts.pairs, reverse=True):  # low ids painted last, so they win
        begin, end = ts.pairs[phase]
        out[max(begin, 0): min(end, num_clips - 1) + 1] = phase
    return PhaseLabels(out, num_phases=ts.num_phases)


# ---------------------------------------------------------------------------
# Synthetic videos
# ---------------------------------------------------------------------------

def phase_prototypes(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw one unit-norm prototype vector per phase."""
    protos = rng.normal(size=(cfg.num_phases, cfg.dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    return protos


def synth_generate(cfg: SynthConfig, seed: int) -> tuple[FeatureSequence, PhaseLabels]:
    """Generate one synthetic video, bit-reproducible from ``(cfg, seed)``."""
    rng = np.random.default_rng(seed)
    protos = phase_prototypes(cfg, rng)
    return _generate_video(cfg, protos, rng)


def synth_dataset(
    cfg: SynthConfig, count: int, seed: int
) -> list[tuple[FeatureSequence, PhaseLabels]]:
    """Generate ``count`` videos sharing one prototype set.

    All videos drawn from a single seed use the same phase prototypes, so
    classifiers and agents trained on some of them generalize to the rest.
    """
    rng = np.random.default_rng(seed)
    protos = phase_prototypes(cfg, rng)
    streams = rng.spawn(count)
    return [_generate_video(cfg, protos, streams[i]) for i in range(count)]


def _generate_video(
    cfg: SynthConfig, protos: np.ndarray, rng: np.random.Generator
) -> tuple[FeatureSequence, PhaseLabels]:
    keep = np.ones(cfg.num_phases, dtype=bool)
    if cfg.dropout_prob > 0:
        keep = rng.random(cfg.num_phases) >= cfg.dropout_prob
        if not keep.any():
            keep[rng.integers(cfg.num_phases)] = True
    present = np.flatnonzero(keep)
    lengths = rng.integers(cfg.min_len, cfg.max_len + 1, size=len(present))

    labels = np.concatenate(
        [np.full(n, phase, dtype=np.int64) for phase, n in zip(present, lengths)]
    )
    base = protos[labels].copy()

    # Linear cross-fade of the two adjacent prototypes around each block
    # boundary (the boundary between clips e-1 and e sits at e - 0.5).
    b = cfg.blend_width
    if b > 0:
        edges = np.cumsum(lengths)[:-1].tolist()  # Python ints: e + b cannot overflow
        for block, e in enumerate(edges):
            left, right = protos[present[block]], protos[present[block + 1]]
            j = np.arange(max(e - b, 0), min(e + b, len(labels)))
            w = ((j - e + 0.5 + b) / (2.0 * b))[:, None]
            base[j] = (1.0 - w) * left + w * right

    if cfg.noise_sigma > 0:
        base += cfg.noise_sigma * rng.normal(size=base.shape)

    seq = FeatureSequence(base, clip_len_frames=cfg.clip_len_frames, fps=cfg.fps)
    return seq, PhaseLabels(labels, num_phases=cfg.num_phases)
