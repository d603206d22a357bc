"""Per-layer metrics of a traced run.

Span names are ``<layer>.<function>`` (see ``tracer.py``); the harness's own
span is ``bench.op``, one per traced operation.  A span's self time is its
duration minus its children's, so the ``layer.*.self_s`` values add up to
the traced operations' wall time, ``trace.wall_s``.  ``trace.overhead_frac``
is the median, over operations run both ways on the same input, of traced
over untraced time, minus 1.  Rows with no matching spans report 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import LAYERS

# FLOP count of the network geometry the train workload uses (CLI defaults).
FEATURE_DIM = 16
WINDOW = 5
NUM_LAYERS = 2
FC1 = 50
ACTIONS = 2

PER_LAYER = [  # (name, unit, better)
    ("nets.forward_batch.b128.calls", "count", "higher"),
    ("nets.forward_batch.b128.ms_p50", "ms", "lower"),
    ("nets.forward_batch.b128.self_s", "s", "lower"),
    ("nets.backward_batch.calls", "count", "higher"),
    ("nets.backward_batch.ms_p50", "ms", "lower"),
    ("nets.backward_batch.self_s", "s", "lower"),
    ("nets.adam_step.calls", "count", "higher"),
    ("nets.adam_step.ms_p50", "ms", "lower"),
    ("nets.fwd_bwd_b128.gflops", "GFLOP/s", "higher"),
    ("nets.forward_batch.b1.calls", "count", "higher"),
    ("nets.forward_batch.b1.ms_p50", "ms", "lower"),
    ("nets.forward_batch.b1.self_s", "s", "lower"),
    ("nets.load_checkpoint.ms_p50", "ms", "lower"),
    ("training.select_action.calls", "count", "higher"),
    ("training.select_action.greedy_frac", "frac", "higher"),
    ("training.dqn_update.calls", "count", "higher"),
    ("training.dqn_update.ms_p50", "ms", "lower"),
    ("training.dqn_update.ms_p99", "ms", "lower"),
    ("training.dqn_update.self_s", "s", "lower"),
    ("training.dqn_update.useful_frac", "frac", "higher"),
    ("training.ReplayMemory.push.us_p50", "us", "lower"),
    ("training.ReplayMemory.sample.us_p50", "us", "lower"),
    ("training.replay_alloc_mb", "MB", "lower"),
    ("training.build_state.calls", "count", "higher"),
    ("training.build_state.us_p50", "us", "lower"),
    ("training.train.self_s", "s", "lower"),
    ("training.train.fwd_bwd_frac", "frac", "lower"),
    ("inference.rollout.calls", "count", "higher"),
    ("inference.rollout.ms_p50", "ms", "lower"),
    ("inference.rollout.self_s", "s", "lower"),
    ("inference.rollout.steps_p50", "steps", "lower"),
    ("inference.rollout.steps_p90", "steps", "lower"),
    ("inference.select_action_per_search", "count", "lower"),
    ("inference.init_positions.ms_p50", "ms", "lower"),
    ("inference.train_clip_classifier.s", "s", "lower"),
    ("inference.LinearClipClassifier.predict.ms_p50", "ms", "lower"),
    ("compose.gaussian_compose.us_p50", "us", "lower"),
    ("metrics.evaluate_video.ms_p50", "ms", "lower"),
    ("features.load_features.ms_p50", "ms", "lower"),
    ("features.load_labels.ms_p50", "ms", "lower"),
    ("features.save_labels.ms_p50", "ms", "lower"),
    ("cli.train.self_s", "s", "lower"),
    ("cli.infer.self_s", "s", "lower"),
    ("cli.eval.self_s", "s", "lower"),
    *[(f"layer.{layer}.self_s", "s", "lower") for layer in (*LAYERS, "bench")],
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


def fwd_bwd_flops(batch: int, hidden: int) -> tuple[float, float]:
    """Matrix-multiply FLOPs of one forward_batch and one backward_batch."""
    t, h, b = 2 * WINDOW, hidden, batch
    fwd = 2 * b * (h * FC1 + FC1 * ACTIONS)
    bwd = 2 * b * (2 * FC1 * ACTIONS + 2 * h * FC1)
    for layer in range(NUM_LAYERS):
        din = FEATURE_DIM if layer == 0 else h
        fwd += 2 * t * b * (din + h) * 4 * h
        bwd += 2 * b * 4 * h * (t * h + (t - 1) * h + t * din)  # dh_rec, dW_rec, dW_in
        if layer > 0:
            bwd += 2 * t * b * 4 * h * h  # gradient into the layer below
    return float(fwd), float(bwd)


class _Spans:
    def __init__(self, tracer):
        self.cols = tracer.arrays()
        self.ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(self, name: str) -> np.ndarray:
        return self.cols["name_id"] == self.ids.get(name, -1)

    def pct(self, mask: np.ndarray, key: str, q: float, scale: float = 1.0) -> float:
        vals = self.cols[key][mask]
        return float(np.percentile(vals, q)) * scale if len(vals) else 0.0

    def children_of(self, parent_mask: np.ndarray, child: str) -> np.ndarray:
        """Spans selected by ``parent_mask`` that have a ``child`` span."""
        parents = self.cols["parent"][self.mask(child)]
        out = np.zeros_like(parent_mask)
        out[parents[parents >= 0]] = True
        return out & parent_mask


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def _overhead(untraced, traced) -> float:
    ratios = [t.seconds / u.seconds for u, t in zip(untraced, traced)
              if not (u.failures or t.failures) and u.seconds > 0]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def per_layer(tracer, untraced, traced, sizes, replay_alloc_mb: float) -> dict:
    s = _Spans(tracer)
    dur, self_t, attr = s.cols["dur"], s.cols["self"], s.cols["attr"]
    v: dict[str, float] = {}

    def timing(prefix: str, mask: np.ndarray, unit: str = "ms", self_s=True):
        v[f"{prefix}.calls"] = float(mask.sum())
        v[f"{prefix}.{unit}_p50"] = s.pct(mask, "dur", 50, 1e3 if unit == "ms" else 1e6)
        if self_s:
            v[f"{prefix}.self_s"] = float(self_t[mask].sum())

    fwd = s.mask("nets.forward_batch")
    fwd_train = fwd & (attr == sizes.batch)
    bwd = s.mask("nets.backward_batch")
    timing("nets.forward_batch.b128", fwd_train)
    timing("nets.forward_batch.b1", fwd & (attr == 1))
    timing("nets.backward_batch", bwd)
    timing("nets.adam_step", s.mask("nets.adam_step"), self_s=False)
    f_flops, b_flops = fwd_bwd_flops(sizes.batch, sizes.hidden)
    v["nets.fwd_bwd_b128.gflops"] = _frac(
        (f_flops * fwd_train.sum() + b_flops * bwd.sum()) / 1e9,
        dur[fwd_train].sum() + dur[bwd].sum())
    v["nets.load_checkpoint.ms_p50"] = s.pct(s.mask("nets.load_checkpoint"), "dur", 50, 1e3)

    select = s.mask("training.select_action")
    v["training.select_action.calls"] = float(select.sum())
    v["training.select_action.greedy_frac"] = _frac(
        s.children_of(select, "nets.forward_batch").sum(), select.sum())
    upd = s.mask("training.dqn_update")
    done = upd & (attr == 1)
    v["training.dqn_update.calls"] = float(upd.sum())
    v["training.dqn_update.ms_p50"] = s.pct(done, "dur", 50, 1e3)
    v["training.dqn_update.ms_p99"] = s.pct(done, "dur", 99, 1e3)
    v["training.dqn_update.self_s"] = float(self_t[upd].sum())
    v["training.dqn_update.useful_frac"] = _frac(done.sum(), upd.sum())
    for meth in ("push", "sample"):
        v[f"training.ReplayMemory.{meth}.us_p50"] = s.pct(
            s.mask(f"training.ReplayMemory.{meth}"), "dur", 50, 1e6)
    v["training.replay_alloc_mb"] = replay_alloc_mb
    timing("training.build_state", s.mask("training.build_state"), "us", self_s=False)
    train = s.mask("training.train")
    v["training.train.self_s"] = float(self_t[train].sum())
    v["training.train.fwd_bwd_frac"] = _frac(dur[fwd].sum() + dur[bwd].sum(), dur[train].sum())

    roll = s.mask("inference.rollout")
    timing("inference.rollout", roll)
    v["inference.rollout.steps_p50"] = s.pct(roll, "attr", 50)
    v["inference.rollout.steps_p90"] = s.pct(roll, "attr", 90)
    in_search = select & np.isin(s.cols["parent"], np.flatnonzero(roll))
    v["inference.select_action_per_search"] = _frac(in_search.sum(), roll.sum())
    v["inference.init_positions.ms_p50"] = s.pct(s.mask("inference.init_positions"), "dur", 50, 1e3)
    v["inference.train_clip_classifier.s"] = s.pct(
        s.mask("inference.train_clip_classifier"), "dur", 50)
    v["inference.LinearClipClassifier.predict.ms_p50"] = s.pct(
        s.mask("inference.LinearClipClassifier.predict"), "dur", 50, 1e3)
    v["compose.gaussian_compose.us_p50"] = s.pct(s.mask("compose.gaussian_compose"), "dur", 50, 1e6)
    v["metrics.evaluate_video.ms_p50"] = s.pct(s.mask("metrics.evaluate_video"), "dur", 50, 1e3)
    for fn in ("load_features", "load_labels", "save_labels"):
        v[f"features.{fn}.ms_p50"] = s.pct(s.mask(f"features.{fn}"), "dur", 50, 1e3)
    for cmd in ("train", "infer", "eval"):
        v[f"cli.{cmd}.self_s"] = float(self_t[s.mask(f"cli.{cmd}")].sum())

    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names])[s.cols["name_id"]]
    for layer in (*LAYERS, "bench"):
        v[f"layer.{layer}.self_s"] = float(self_t[layer_of == layer].sum())
    wall = float(dur[s.mask("bench.op")].sum())
    v["trace.wall_s"] = wall
    v["trace.self_sum_frac"] = _frac(float(self_t.sum()), wall)
    v["trace.overhead_frac"] = _overhead(untraced, traced)

    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": float(v[name]), "unit": units[name]} for name, *_ in PER_LAYER}
