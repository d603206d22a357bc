"""Inputs, timed operations and correctness gates of the three workloads.

Every workload shares one set-up: a single ``phaseseek synth`` call with the
policy fixture's seed, split into the fixture's training videos (checked
against the pins) and a held-out pool from which ``--seed`` picks videos.
One operation drives the CLI in-process:

* ``train``: one ``phaseseek train`` call for one phase on two pool videos.
* ``infer_fi`` / ``infer_rmi``: ``phaseseek infer`` on one chunk of held-out
  videos with the fixture policy, then ``phaseseek eval`` of its output.

An operation that fails a gate is reported as failed and its time is dropped.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import policy_fixture as fixture
from envinfo import REPO_ROOT
from policy_fixture import PHASES, POLICY_DIR, TRAIN_FLAGS, TRAIN_VIDEOS


@dataclass(frozen=True)
class Sizes:
    pool: int = 512            # held-out pool drawn by the fixture's synth call
    heldout: int = 256         # videos --seed picks from the pool
    chunk: int = 32            # videos per infer call
    train_videos: int = 2      # videos per train call
    train_steps: int = 100     # --max-steps per video
    train_sets: int = 16       # distinct train-call inputs per run
    guard_chunks: int = 4      # held-out chunks scored after the train workload
    batch: int = 128           # train --batch, --hidden and --memory (the CLI defaults)
    hidden: int = 64
    memory: int = 10000

    def train_flags(self, memory: int | None = None) -> list:
        return [*TRAIN_FLAGS, "--batch", self.batch, "--hidden", self.hidden,
                "--memory", self.memory if memory is None else memory]


FULL = Sizes()
TINY = Sizes(pool=16, heldout=8, chunk=4, train_videos=1, train_steps=20, train_sets=2,
             guard_chunks=1, batch=8, hidden=8, memory=64)

# Acceptance thresholds, checked per infer call.
MIN_ACCURACY = 0.90
MAX_TRANSITION_ERROR = 3.0
MAX_FI_CLIPS_READ = 0.70


def run_cli(argv: list[str]) -> int:
    """``phaseseek.cli.main`` in-process, its per-video chatter discarded."""
    from phaseseek import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    root: Path
    train_dir: Path              # the fixture policy's training videos
    chunks: list[Path]           # held-out videos, one directory per infer call
    train_sets: list[Path]       # one directory per train call


def _move_video(src: Path, dst: Path, index: int, copy: bool = False) -> None:
    dst.mkdir(parents=True, exist_ok=True)
    for ext in (".trnf", ".csv"):
        name = f"video_{index:03d}{ext}"
        (shutil.copyfile if copy else os.replace)(src / name, dst / name)


def setup(root: Path, seed: int, sizes: Sizes) -> Inputs:
    """Generate the run's inputs under ``root`` from ``seed``.

    ``synth`` runs in a child process so that the corpus it holds in memory
    does not count towards the benchmark process's peak RSS.
    """
    pins = fixture.verify_policy()
    shutil.rmtree(root, ignore_errors=True)
    corpus = root / "corpus"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "phaseseek.cli",
                    *fixture.synth_argv(corpus, TRAIN_VIDEOS + sizes.pool)],
                   env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
    train_dir = root / "fixture_train"
    for i in range(TRAIN_VIDEOS):
        _move_video(corpus, train_dir, i)
    fixture.verify_corpus(train_dir, pins)

    picks = random.Random(seed).sample(range(TRAIN_VIDEOS, TRAIN_VIDEOS + sizes.pool),
                                       sizes.heldout)
    chunks = []
    for k in range(0, sizes.heldout, sizes.chunk):
        chunks.append(root / "heldout" / f"chunk_{k // sizes.chunk:02d}")
        for i in picks[k: k + sizes.chunk]:
            _move_video(corpus, chunks[-1], i)
    train_sets = []
    for k in range(sizes.train_sets):
        train_sets.append(root / "trainsets" / f"set_{k:02d}")
        for j in range(sizes.train_videos):
            p = (k * sizes.train_videos + j) % len(picks)
            _move_video(chunks[p // sizes.chunk], train_sets[-1], picks[p], copy=True)
    shutil.rmtree(corpus)
    return Inputs(root, train_dir, chunks, train_sets)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    seconds: float
    videos: int
    steps: int
    failures: list[str] = field(default_factory=list)
    videos_scored: list[dict] = field(default_factory=list)  # infer only
    digest: str = ""


def _read_labels(path: Path) -> list[int]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["clip_index", "phase"]:
        raise ValueError(f"{path}: bad header {rows[0]}")
    if [int(r[0]) for r in rows[1:]] != list(range(len(rows) - 1)):
        raise ValueError(f"{path}: clip indices are not 0..T-1")
    return [int(r[1]) for r in rows[1:]]


def _transitions(labels: list[int]) -> dict[int, tuple[int, int]]:
    out: dict[int, tuple[int, int]] = {}
    for i, phase in enumerate(labels):
        first, _ = out.get(phase, (i, i))
        out[phase] = (first, i)
    return out


class UpdateCounter:
    """Counts Bellman updates performed (``dqn_update`` calls that return a loss)."""

    def __init__(self):
        self.count = 0
        self._orig = None

    def install(self) -> None:
        from phaseseek import training

        self._orig = orig = training.dqn_update

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            loss = orig(*args, **kwargs)
            if loss is not None:
                self.count += 1
            return loss

        training.dqn_update = counted

    def uninstall(self) -> None:
        from phaseseek import training

        training.dqn_update = self._orig


class TrainWorkload:
    def __init__(self, inputs: Inputs, seed: int, sizes: Sizes):
        self.inputs, self.seed, self.sizes = inputs, seed, sizes
        self.digests: dict[int, str] = {}
        self.counter = UpdateCounter()
        self.counter.install()

    def close(self) -> None:
        self.counter.uninstall()

    def covered(self, ops: int) -> bool:
        return ops >= 1

    def op(self, k: int) -> OpResult:
        import numpy as np
        from phaseseek.nets import load_checkpoint, param_list

        s = self.sizes
        data = self.inputs.train_sets[k % len(self.inputs.train_sets)]
        phase = k % PHASES
        ckpt = self.inputs.root / "train_out"
        shutil.rmtree(ckpt, ignore_errors=True)
        updates_before = self.counter.count
        t0 = perf_counter()
        rc = run_cli(["train", "--phase", phase, "--phases", PHASES, "--features-dir", data,
                      "--labels-dir", data, "--checkpoints-dir", ckpt, "--seed", self.seed + k,
                      "--max-steps", s.train_steps, *s.train_flags()])
        seconds = perf_counter() - t0
        steps = s.train_videos * s.train_steps
        res = OpResult(seconds, s.train_videos, steps)
        if rc != 0:
            res.failures.append(f"train exited {rc}")
            return res
        digest = hashlib.sha256()
        for role in ("begin", "end"):
            path = ckpt / f"phase{phase}_{role}.qnet"
            digest.update(path.read_bytes())
            if not all(np.isfinite(p).all() for p in param_list(load_checkpoint(path))):
                res.failures.append(f"{path.name}: non-finite weights")
        res.digest = digest.hexdigest()
        if self.digests.setdefault(k, res.digest) != res.digest:
            res.failures.append(f"train call {k}: checkpoints differ from the first run")
        with open(ckpt / f"phase{phase}_train_log.csv", newline="", encoding="utf-8") as fh:
            log = list(csv.DictReader(fh))
        if len(log) != s.train_videos:
            res.failures.append(f"train log has {len(log)} rows, expected {s.train_videos}")
        for j, row in enumerate(log):
            filled = (j + 1) * s.train_steps >= s.batch  # replay full enough to update
            for key in ("begin_loss", "end_loss"):
                loss = float(row[key])
                if filled and not (math.isfinite(loss) and loss >= 0):
                    res.failures.append(f"video {j}: {key} {row[key]} after the replay fill")
        expected = 2 * max(0, steps - s.batch + 1)
        if self.counter.count - updates_before != expected:
            res.failures.append(f"{self.counter.count - updates_before} updates, "
                                f"expected {expected}")
        return res


class InferWorkload:
    def __init__(self, inputs: Inputs, init: str):
        self.inputs, self.init = inputs, init
        self.digests: dict[int, str] = {}

    def close(self) -> None:
        pass

    def covered(self, ops: int) -> bool:
        return ops >= len(self.inputs.chunks)

    def op(self, k: int) -> OpResult:
        c = k % len(self.inputs.chunks)
        chunk = self.inputs.chunks[c]
        pred = self.inputs.root / f"pred_{self.init}" / chunk.name
        report = pred.parent / f"{chunk.name}.report.json"
        shutil.rmtree(pred, ignore_errors=True)
        argv = ["infer", "--phases", PHASES, "--init", self.init, "--features-dir", chunk,
                "--checkpoints-dir", POLICY_DIR, "--out-dir", pred]
        if self.init == "rmi":
            argv += ["--train-features-dir", self.inputs.train_dir,
                     "--train-labels-dir", self.inputs.train_dir]
        t0 = perf_counter()
        rc = run_cli(argv)
        rc_eval = run_cli(["eval", "--pred-dir", pred, "--gt-dir", chunk, "--report", report])
        seconds = perf_counter() - t0
        stems = sorted(p.stem for p in chunk.glob("*.trnf"))
        res = OpResult(seconds, len(stems), 0)
        if rc != 0 or rc_eval != 0:
            res.failures.append(f"infer exited {rc}, eval exited {rc_eval}")
            return res
        try:
            self._check(chunk, pred, report, stems, res)
        except (OSError, ValueError, KeyError) as exc:
            res.failures.append(f"{chunk.name}: unreadable output: {exc}")
        if res.digest and self.digests.setdefault(c, res.digest) != res.digest:
            res.failures.append(f"{chunk.name}: predictions differ from the first pass")
        return res

    def _check(self, chunk: Path, pred: Path, report: Path, stems: list[str],
               res: OpResult) -> None:
        digest = hashlib.sha256()
        reported = {v["video"]: v for v in json.loads(report.read_text())["videos"]}
        for stem in stems:
            gt = _read_labels(chunk / f"{stem}.csv")
            labels = _read_labels(pred / f"{stem}.csv")
            digest.update((pred / f"{stem}.csv").read_bytes())
            if len(labels) != len(gt) or not all(0 <= p < PHASES for p in labels):
                res.failures.append(f"{stem}: not every clip carries a phase label")
                continue
            payload = json.loads((pred / f"{stem}.transitions.json").read_text())
            coverage = payload["coverage"]
            if not 0.0 <= coverage <= 1.0 or (self.init == "rmi" and coverage != 1.0):
                res.failures.append(f"{stem}: coverage {coverage}")
            truth = _transitions(gt)
            errors, converged = [], []
            for phase, (gt_b, gt_e) in truth.items():
                found = payload["phases"][str(phase)]
                if not 0 <= found["begin"] <= found["end"] < len(gt):
                    res.failures.append(f"{stem}: phase {phase} pair {found['begin']}, "
                                        f"{found['end']}")
                errors += [abs(found["begin"] - gt_b), abs(found["end"] - gt_e)]
                converged.append(bool(found["converged"]))
                res.steps += int(found["steps"])
            accuracy = sum(p == g for p, g in zip(labels, gt)) / len(gt)
            if abs(accuracy - reported[stem]["accuracy"]) > 1e-9:
                res.failures.append(f"{stem}: eval accuracy {reported[stem]['accuracy']} "
                                    f"differs from {accuracy}")
            res.videos_scored.append({
                "accuracy": accuracy, "errors": errors, "converged": converged,
                "coverage": coverage, "ward_correct": reported[stem]["ward_correct"],
                "events_gt": reported[stem]["events_gt"],
            })
        res.digest = digest.hexdigest()
        q = quality(res.videos_scored)
        if q["accuracy"] < MIN_ACCURACY:
            res.failures.append(f"{chunk.name}: accuracy {q['accuracy']:.3f} < {MIN_ACCURACY}")
        if q["transition_error_clips"] > MAX_TRANSITION_ERROR:
            res.failures.append(f"{chunk.name}: transition error "
                                f"{q['transition_error_clips']:.2f} > {MAX_TRANSITION_ERROR}")
        if self.init == "fi" and q["clips_read_frac"] > MAX_FI_CLIPS_READ:
            res.failures.append(f"{chunk.name}: FI read {q['clips_read_frac']:.3f} of the clips")


def quality(videos: list[dict]) -> dict[str, float]:
    """Search quality over scored videos, aggregated as ``phaseseek eval`` does."""
    if not videos:
        return {}
    errors = [e for v in videos for e in v["errors"]]
    converged = [c for v in videos for c in v["converged"]]
    return {
        "accuracy": sum(v["accuracy"] for v in videos) / len(videos),
        "ward_event_ratio": (sum(v["ward_correct"] for v in videos)
                             / sum(v["events_gt"] for v in videos)),
        "transition_error_clips": sum(errors) / len(errors),
        "clips_read_frac": sum(v["coverage"] for v in videos) / len(videos),
        "converged_frac": sum(converged) / len(converged),
    }


def replay_alloc_mb(inputs: Inputs, sizes: Sizes) -> float:
    """Bytes a train call allocates for its replay memories, by tracemalloc.

    The peak of a two-step train call at the workload's ``--memory`` minus
    the peak of the same call at ``--memory 1``.
    """
    import tracemalloc

    peaks = []
    for memory in (sizes.memory, 1):
        out = inputs.root / "alloc_out"
        shutil.rmtree(out, ignore_errors=True)
        data = inputs.train_sets[0]
        tracemalloc.start()
        try:
            rc = run_cli(["train", "--phase", 0, "--phases", PHASES, "--features-dir", data,
                          "--labels-dir", data, "--checkpoints-dir", out, "--max-steps", 1,
                          *sizes.train_flags(memory)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if rc != 0:
            raise RuntimeError(f"train exited {rc} in the allocation pass")
    return (peaks[0] - peaks[1]) / 2**20


def make_workload(name: str, inputs: Inputs, seed: int, sizes: Sizes):
    if name == "train":
        return TrainWorkload(inputs, seed, sizes)
    return InferWorkload(inputs, name.split("_", 1)[1])
