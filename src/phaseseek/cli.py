"""Command-line pipeline: synth, train, infer, eval, ribbon.

Every command is deterministic for a fixed (config, seed).  Options can be
preloaded from a flat ``key=value`` config file via ``--config``; explicit
command-line flags win.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np

from .compose import gaussian_compose
from .errors import PhaseseekError
from .features import (
    PhaseLabels,
    SynthConfig,
    TransitionSet,
    check_values,
    labels_to_transitions,
    load_features,
    load_labels,
    read_features_header,
    save_features,
    save_labels,
    synth_dataset,
    write_atomic,
)
from .inference import (
    FixedInit,
    PredictionInit,
    coverage_rate,
    fit_fi,
    rollout_sharded,
    round_values,
    shards,
    train_clip_classifier,
)
from .metrics import evaluate_video, write_report
from .nets import load_checkpoints, save_checkpoint
from .training import SearchPolicy, TrainConfig, check_update_size, train, zero_padded

TRANSITIONS_SCHEMA_VERSION = 1

# One distinct color per phase id (cycled); the last entry is reused for
# the uncovered-clip sentinel when it appears.
PALETTE = [
    (230, 64, 52), (46, 134, 222), (38, 166, 91), (244, 179, 80),
    (142, 68, 173), (0, 184, 184), (255, 121, 180), (128, 128, 64),
    (70, 70, 200), (200, 120, 40),
]
GRAY = (160, 160, 160)


class UsageError(Exception):
    """Bad arguments or option combinations (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config_file(path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: config file is not UTF-8 text ({exc})") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _iter_parsers(parser: argparse.ArgumentParser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            seen = set()
            for sub in action.choices.values():
                if id(sub) not in seen:  # aliases share a parser
                    seen.add(id(sub))
                    yield from _iter_parsers(sub)


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    # --config seeds parser defaults so explicit flags still override.
    # Defaults must land on the subparsers: they parse into a fresh
    # namespace, ignoring defaults registered on the root parser.
    probe = _Parser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    values = _load_config_file(known.config)
    actions: dict[str, argparse.Action] = {}
    for sub in _iter_parsers(parser):
        for action in sub._actions:
            if action.dest != "help":
                actions.setdefault(action.dest, action)
    unknown = [k for k in values if k not in actions]
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    defaults = {}
    for key, value in values.items():
        action = actions[key]
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError as exc:
                raise UsageError(f"config key {key}: {value!r} is not a valid value") from exc
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"config key {key}: {value!r} not in {sorted(action.choices)}")
        defaults[key] = value
    for sub in _iter_parsers(parser):
        known_dests = {a.dest for a in sub._actions}
        subset = {k: v for k, v in defaults.items() if k in known_dests}
        if subset:
            sub.set_defaults(**subset)


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--phases", type=int, default=3, help="number of phases N")
    parser.add_argument("--init", choices=["fi", "rmi"], default="fi")


# The flag (parser dest) that sets each config field.
_SYNTH_FLAGS = {"num_phases": "phases", "min_len": "min_len", "max_len": "max_len",
                "dim": "dim", "noise_sigma": "noise", "blend_width": "blend",
                "dropout_prob": "dropout", "clip_len_frames": "clip_len", "fps": "fps"}
_TRAIN_FLAGS = {"episodes_max": "episodes", "max_steps_per_video": "max_steps",
                "batch": "batch", "lr": "lr", "gamma": "gamma", "eps_start": "eps_start",
                "eps_min": "eps_min", "eps_decay": "eps_decay",
                "target_sync_period": "target_sync", "window_len": "window",
                "hidden_dim": "hidden", "num_layers": "layers", "memory_capacity": "memory"}


def _flag_error(exc: ValueError, flags: dict[str, str]) -> UsageError:
    """A usage error that names the flags of the config fields ``exc`` names."""
    words = set(re.findall(r"\w+", str(exc)))
    named = [f"--{dest.replace('_', '-')}" for field, dest in flags.items() if field in words]
    return UsageError(f"{', '.join(named)}: {exc}" if named else str(exc))


def _config(cls, flags: dict[str, str], args, **fixed):
    """``cls`` with each field read from its flag; a ``ValueError`` becomes a
    usage error that names its fields' flags."""
    try:
        return cls(**fixed, **{field: getattr(args, dest) for field, dest in flags.items()})
    except ValueError as exc:
        raise _flag_error(exc, flags) from exc


def _validate_common(args) -> None:
    if args.phases < 1:
        raise UsageError("--phases must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")


def _video_stems(features_dir: Path) -> list[str]:
    stems = sorted(p.stem for p in features_dir.glob("*.trnf"))
    if not stems:
        raise PhaseseekError(f"no .trnf files in {features_dir}")
    return stems


def _read_headers(features_dir: Path, check) -> tuple[list[str], list[Path], list[int]]:
    """(stems, feature paths, clip counts) of every feature file, in stem
    order.  Each file's header is read, then ``check(stem, clips, dim)``
    raises if the file does not fit, before the next file is read.  No
    feature payload is read yet (see :func:`_load_rows`)."""
    stems = _video_stems(features_dir)
    paths = [features_dir / f"{stem}.trnf" for stem in stems]
    lengths = []
    for stem, path in zip(stems, paths):
        t, d, _, _ = read_features_header(path)
        check(stem, t, d)
        lengths.append(t)
    return stems, paths, lengths


def _read_dataset(features_dir: Path, labels_dir: Path, num_phases: int):
    """(stems, feature paths, [PhaseLabels], feature dim) for every feature
    file (see :func:`_read_headers`): each file's labels are checked against
    its header, and every file must have the first file's feature dim."""
    labeled, first = [], []  # first: the first file's (stem, dim)

    def check(stem, t, d):
        label_path = labels_dir / f"{stem}.csv"
        if not label_path.exists():
            raise PhaseseekError(f"missing labels for video {stem}")
        labels = load_labels(label_path, num_phases)
        if labels.num_clips != t:
            raise PhaseseekError(f"{stem}: labels cover {labels.num_clips} clips, features {t}")
        if not first:
            first.extend((stem, d))
        if d != first[1]:
            raise PhaseseekError(f"{stem}: feature dim {d} does not match "
                                 f"feature dim {first[1]} of {first[0]}")
        labeled.append(labels)

    stems, paths, _ = _read_headers(features_dir, check)
    return stems, paths, labeled, first[1]


def _load_rows(paths: list[Path], lengths: list[int], dim: int, pad: int):
    """Each feature file decoded into its rows of one
    :func:`~phaseseek.training.zero_padded` matrix, ``pad`` zero rows around
    each video: one ``FeatureSequence`` per file, viewing its rows, and the
    layout ``(matrix, base rows)`` that training and searches read in
    place.  Raises ``ValueError``, before allocating, when the padding
    would exceed ``MAX_VALUES``."""
    padded, bases = zero_padded(lengths, dim, pad)
    return [load_features(path, out=padded[base: base + t])
            for path, base, t in zip(paths, bases.tolist(), lengths)], (padded, bases)


def _fit_clip_classifier(labeled, args):
    """The built-in clip classifier fitted on every clip of a loaded dataset."""
    return train_clip_classifier(
        np.concatenate([seq.features for seq, _ in labeled]),
        np.concatenate([labels.labels for _, labels in labeled]),
        num_phases=args.phases,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    _validate_common(args)
    if args.count < 0:
        raise UsageError("--count must be >= 0")
    cfg = _config(SynthConfig, _SYNTH_FLAGS, args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (seq, labels) in enumerate(synth_dataset(cfg, args.count, args.seed)):
        save_features(seq, out_dir / f"video_{i:03d}.trnf")
        save_labels(labels, out_dir / f"video_{i:03d}.csv")
    print(f"wrote {args.count} video(s) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _meta_path(ckpt_dir: Path, phase: int) -> Path:
    return ckpt_dir / f"phase{phase}_meta.json"


def cmd_train(args) -> int:
    _validate_common(args)
    if args.window < 1 or args.window % 2 == 0:
        raise UsageError("--window must be a positive odd number")
    if not 0 <= args.phase < args.phases:
        raise UsageError(f"--phase must lie in [0, {args.phases})")
    cfg = _config(TrainConfig, _TRAIN_FLAGS, args, seed=args.seed + args.phase)
    features_dir, labels_dir = Path(args.features_dir), Path(args.labels_dir)
    stems, paths, labels, dim = _read_dataset(features_dir, labels_dir, args.phases)
    try:  # one update's kernel pass or the window padding above MAX_VALUES
        check_update_size(cfg, dim)
        seqs, layout = _load_rows(paths, [lab.num_clips for lab in labels], dim,
                                  cfg.window_len // 2)
    except ValueError as exc:
        raise _flag_error(exc, _TRAIN_FLAGS) from exc
    labeled = list(zip(seqs, labels))
    dataset = [(seq, labels_to_transitions(lab)) for seq, lab in labeled]
    fi = fit_fi([(seq.num_clips, ts) for seq, ts in dataset], args.phase)
    init = fi
    if args.init == "rmi":
        init = PredictionInit(_fit_clip_classifier(labeled, args).predict, fallback=fi)

    log_rows: list = []
    try:
        policy = train(dataset, args.phase, cfg, init, on_video=log_rows.append, layout=layout)
    except ValueError as exc:  # networks above MAX_VALUES
        raise _flag_error(exc, _TRAIN_FLAGS) from exc

    ckpt_dir = Path(args.checkpoints_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(policy.begin_net, ckpt_dir / f"phase{args.phase}_begin.qnet")
    save_checkpoint(policy.end_net, ckpt_dir / f"phase{args.phase}_end.qnet")
    meta = {
        "phase": args.phase,
        "window": args.window,
        "rho_begin": fi.rho_begin,
        "rho_end": fi.rho_end,
        "input_dim": dataset[0][0].dim,
        "hidden": args.hidden,
        "layers": args.layers,
        "seed": args.seed,
    }
    write_atomic(_meta_path(ckpt_dir, args.phase),
                 (json.dumps(meta, indent=2) + "\n").encode("utf-8"))
    log = io.StringIO(newline="")
    writer = csv.writer(log)
    writer.writerow(["episode", "video", "begin_loss", "end_loss", "begin_error", "end_error"])
    for row in log_rows:
        writer.writerow([row.episode, stems[row.video], f"{row.begin_loss:.6f}",
                         f"{row.end_loss:.6f}", row.begin_error, row.end_error])
    write_atomic(ckpt_dir / f"phase{args.phase}_train_log.csv", log.getvalue().encode("utf-8"))
    print(f"phase {args.phase}: trained on {len(dataset)} video(s), "
          f"checkpoints in {ckpt_dir}")
    return 0


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise PhaseseekError(f"{path}: not a JSON document: {exc}") from exc


def _read_meta(ckpt_dir: Path, phase: int) -> tuple[int, tuple[int, int, int], FixedInit]:
    """One phase's window length, network geometry (input dim, hidden dim,
    layers) and fixed initialization, from its meta JSON."""
    meta_path = _meta_path(ckpt_dir, phase)
    if not meta_path.exists():
        raise PhaseseekError(f"missing checkpoint metadata for phase {phase}: {meta_path}")
    meta = _read_json(meta_path)
    if not isinstance(meta, dict):
        raise PhaseseekError(f"{meta_path}: expected a JSON object")

    def field(key, kind, ok=lambda value: True):
        value = meta.get(key)
        if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
            raise PhaseseekError(f"{meta_path}: {key} is missing or invalid: {value!r}")
        return value

    window = field("window", int, lambda w: w >= 1 and w % 2 == 1)
    geometry = tuple(field(key, int, lambda n: n >= 1)
                     for key in ("input_dim", "hidden", "layers"))
    rho = [field(key, (int, float)) for key in ("rho_begin", "rho_end")]
    try:
        return window, geometry, FixedInit(*rho)
    except ValueError as exc:
        raise PhaseseekError(f"{meta_path}: {exc}") from exc


def _load_policies(ckpt_dir: Path, phases) -> tuple[dict[int, SearchPolicy], dict[int, FixedInit]]:
    """Each phase's frozen policy and fixed initialization, checked against its meta JSON.

    Every network loads into one stack per geometry, and each policy is
    its begin and end rows there, which the search evaluates in place.
    Both of a phase's checkpoints must have its meta's input dim, hidden
    dim and layers, so they load into consecutive rows of one stack.  The
    phases load shard by shard as ``rollout_sharded`` deals them (see
    :func:`~phaseseek.inference.shards`) and by window length within a
    shard, so the rows that each shard's ``rollout_many`` evaluates
    together are consecutive, and no pass runs an idle row.
    """
    metas = {phase: _read_meta(ckpt_dir, phase) for phase in phases}
    order = [phase for shard in shards(list(phases))
             for phase in sorted(shard, key=lambda phase: metas[phase][0])]
    paths = [ckpt_dir / f"phase{phase}_{role}.qnet"
             for phase in order for role in ("begin", "end")]
    placed = load_checkpoints(paths)
    policies = {}
    for i, phase in enumerate(order):
        window, geometry, _ = metas[phase]
        for path, (stack, _) in zip(paths[2 * i: 2 * i + 2], placed[2 * i: 2 * i + 2]):
            found = stack.input_dim, stack.hidden_dim, stack.num_layers
            if found != geometry:
                raise PhaseseekError(f"{_meta_path(ckpt_dir, phase)}: input_dim, hidden, layers "
                                     f"{geometry} do not match {path.name}'s {found}")
        policies[phase] = SearchPolicy(*placed[2 * i], window)
    return policies, {phase: fi for phase, (_, _, fi) in metas.items()}


def cmd_infer(args) -> int:
    _validate_common(args)
    single_phase = args.phase is not None
    if single_phase and not 0 <= args.phase < args.phases:
        raise UsageError(f"--phase must lie in [0, {args.phases})")
    if args.max_steps < 0:
        raise UsageError("--max-steps must be >= 0")
    phases = [args.phase] if single_phase else range(args.phases)

    ckpt_dir = Path(args.checkpoints_dir)
    policies, fis = _load_policies(ckpt_dir, phases)

    predictions_dir = None
    classifier = None
    if args.init == "rmi":
        if args.rmi_predictions_dir:
            predictions_dir = Path(args.rmi_predictions_dir)
        elif args.train_features_dir and args.train_labels_dir:
            _, train_paths, train_labels, train_dim = _read_dataset(
                Path(args.train_features_dir), Path(args.train_labels_dir), args.phases)
            train_seqs, _ = _load_rows(train_paths, [lab.num_clips for lab in train_labels],
                                       train_dim, 0)
            classifier = _fit_clip_classifier(list(zip(train_seqs, train_labels)), args)
        else:
            raise UsageError("rmi initialization needs --rmi-predictions-dir, or "
                             "--train-features-dir and --train-labels-dir")

    # Every (video, phase) search runs in one lockstep batch per process,
    # so every video's header is checked before anything is allocated or
    # written.  The videos then load into one zero-padded matrix, padded
    # for the widest window, which the searches read in place.
    def check(stem, t, d):
        for phase in phases:
            expected = policies[phase].stack.input_dim
            if d != expected:
                raise PhaseseekError(f"{stem}: feature dim {d} does not match "
                                     f"input dim {expected} of the phase {phase} policy")

    stems, paths, lengths = _read_headers(Path(args.features_dir), check)
    dim = policies[phases[0]].stack.input_dim
    # A window group's first search round, every network on one state per
    # video, is its largest: bound it before anything is allocated.
    for phase, values in zip(phases, round_values([policies[p] for p in phases], len(lengths))):
        try:
            check_values(values, f"one search round over the states of {len(lengths)} video(s), "
                                 f"2 x window {policies[phase].window_len} rows of dim {dim} each")
        except ValueError as exc:
            raise PhaseseekError(f"{_meta_path(ckpt_dir, phase)}: {exc}") from exc
    # Every phase searches every video, so the widest window's padding is the largest.
    widest = max(phases, key=lambda phase: policies[phase].window_len)
    try:
        seqs, (padded, bases) = _load_rows(paths, lengths, dim, policies[widest].window_len // 2)
    except ValueError as exc:
        raise PhaseseekError(f"{_meta_path(ckpt_dir, widest)}: {exc}") from exc
    videos, searches = [], []
    for stem, seq in zip(stems, seqs):
        # One per-clip label vector per video, shared by all its phases.
        predicted = None
        if predictions_dir is not None:
            pred_path = predictions_dir / f"{stem}.csv"
            if not pred_path.exists():
                raise PhaseseekError(f"missing prediction labels for video {stem}")
            predicted = load_labels(pred_path, args.phases).labels
        elif classifier is not None:
            predicted = classifier.predict(seq)
        rmi = predicted is not None
        for phase in phases:
            init = fis[phase]
            if rmi:
                init = PredictionInit(lambda video, labels=predicted: labels, fallback=init)
            searches.append((policies[phase], seq, init.initial_positions(seq, phase)))
        videos.append((stem, seq, rmi))
    # Each video's searches, one per phase, read its rows of the matrix.
    layout = padded, np.repeat(bases, len(phases))
    results = iter(rollout_sharded(searches, max_steps=args.max_steps, layout=layout))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, seq, rmi in videos:
        pair_results = {phase: next(results) for phase in phases}
        # prediction-based starts imply every clip was read upstream
        coverage = 1.0 if rmi else coverage_rate(
            [r.visited for r in pair_results.values()], seq.num_clips)
        if single_phase:
            res = pair_results[phases[0]]
            labels = np.zeros(seq.num_clips, dtype=np.int64)
            labels[res.begin: res.end + 1] = 1
            pred = PhaseLabels(labels, num_phases=2)
        else:
            ts = TransitionSet(
                num_phases=args.phases,
                pairs={ph: (r.begin, r.end) for ph, r in pair_results.items()},
            )
            pred = gaussian_compose(ts, seq.num_clips)
        save_labels(pred, out_dir / f"{stem}.csv")
        payload = {
            "schema_version": TRANSITIONS_SCHEMA_VERSION,
            "video": stem,
            "num_clips": seq.num_clips,
            "init": args.init,
            "single_phase": phases[0] if single_phase else None,
            "coverage": coverage,
            "phases": {
                str(ph): {
                    "begin": r.begin,
                    "end": r.end,
                    "steps": r.steps_taken,
                    "converged": r.converged,
                }
                for ph, r in pair_results.items()
            },
        }
        (out_dir / f"{stem}.transitions.json").write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"{stem}: coverage {coverage:.3f}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _read_coverage(path: Path) -> float:
    """The ``coverage`` an ``infer`` transitions JSON records: a number in [0, 1]."""
    doc = _read_json(path)
    value = doc.get("coverage") if isinstance(doc, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise PhaseseekError(f"{path}: coverage is missing or not a number in [0, 1]: {value!r}")
    return float(value)


def cmd_eval(args) -> int:
    pred_dir, gt_dir = Path(args.pred_dir), Path(args.gt_dir)
    gt_files = sorted(gt_dir.glob("*.csv"))
    if not gt_files:
        raise PhaseseekError(f"no groundtruth label files in {gt_dir}")
    missing = [p.stem for p in gt_files if not (pred_dir / p.name).exists()]
    if missing:
        raise PhaseseekError(f"missing prediction files for: {', '.join(missing)}")
    reports = []
    for gt_path in gt_files:
        gt = load_labels(gt_path)
        pred = load_labels(pred_dir / gt_path.name)
        coverage = None
        trans_path = pred_dir / f"{gt_path.stem}.transitions.json"
        if trans_path.exists():
            coverage = _read_coverage(trans_path)
        reports.append(evaluate_video(pred.labels, gt.labels, video=gt_path.stem,
                                      coverage=coverage))
    report_path = Path(args.report)
    payload = write_report(reports, report_path, report_path.with_suffix(".csv"))
    agg = payload["aggregate"]
    print(f"{len(reports)} video(s): accuracy {agg['accuracy']['mean']:.3f} "
          f"± {agg['accuracy']['std']:.3f}, F1 {agg['f1']['mean']:.3f}, "
          f"event ratio {agg['event_ratio']:.3f}, ward {agg['ward_event_ratio']:.3f}, "
          f"coverage {agg['coverage']:.3f}")
    return 0


# ---------------------------------------------------------------------------
# ribbon
# ---------------------------------------------------------------------------

def _label_color(label: int) -> tuple[int, int, int]:
    if label < 0:
        return GRAY
    return PALETTE[label % len(PALETTE)]


def cmd_ribbon(args) -> int:
    if args.band_height < 1:
        raise UsageError("--band-height must be >= 1")
    if not args.labels:
        raise UsageError("ribbon needs at least one label CSV")
    sequences = [load_labels(path).labels for path in args.labels]
    width = max(len(s) for s in sequences)
    height = args.band_height * len(sequences)
    try:
        check_values(width * height, f"the pixels of a {width}x{height} ribbon")
    except ValueError as exc:
        raise UsageError(f"--band-height: {exc}") from exc
    # One band's row text at a time, written --band-height times.
    with open(args.out, "wb") as fh:
        fh.write(f"P3\n{width} {height}\n255\n".encode())
        for seq in sequences:
            colors = [_label_color(label) for label in seq.tolist()]
            colors += [(255, 255, 255)] * (width - len(seq))
            row = "".join(f"{r} {g} {b}\n" for r, g, b in colors).encode()
            fh.writelines(itertools.repeat(row, args.band_height))
    print(f"wrote {width}x{height} ribbon to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phaseseek", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate synthetic videos")
    _add_shared(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--min-len", type=int, default=67)
    p.add_argument("--max-len", type=int, default=133)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--blend", type=int, default=2)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--clip-len", type=int, default=16)
    p.add_argument("--fps", type=float, default=2.4)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one phase's agent pair")
    _add_shared(p)
    p.add_argument("--phase", type=int, required=True)
    p.add_argument("--window", type=int, default=5, help="search window length L (odd)")
    p.add_argument("--features-dir", required=True)
    p.add_argument("--labels-dir", required=True)
    p.add_argument("--checkpoints-dir", required=True)
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--max-steps", type=int, default=200)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--lr", type=float, default=3e-4)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--eps-start", type=float, default=0.9)
    p.add_argument("--eps-min", type=float, default=0.05)
    p.add_argument("--eps-decay", type=float, default=0.995)
    p.add_argument("--target-sync", type=int, default=100)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--memory", type=int, default=10000)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="retrieve transitions and labels")
    _add_shared(p)
    p.add_argument("--features-dir", required=True)
    p.add_argument("--checkpoints-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--phase", type=int, default=None,
                   help="single-phase mode: binary labels, no composition")
    p.add_argument("--max-steps", type=int, default=200)
    p.add_argument("--train-features-dir", help="training split features (rmi)")
    p.add_argument("--train-labels-dir", help="training split labels (rmi)")
    p.add_argument("--rmi-predictions-dir",
                   help="per-clip label CSVs from an external classifier (rmi)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against groundtruth")
    _add_shared(p)
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--report", required=True, help="output JSON path (CSV written alongside)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ribbon", help="render label CSVs as a color ribbon")
    p.add_argument("labels", nargs="*", help="label CSV files, one band each")
    p.add_argument("--out", required=True)
    p.add_argument("--band-height", type=int, default=16)
    p.set_defaults(func=cmd_ribbon)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_defaults(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exit paths (--help, bad flags)
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PhaseseekError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
