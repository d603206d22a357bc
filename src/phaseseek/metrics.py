"""Frame-based and event-based scoring of clip labelings.

Frame metrics are micro accuracy plus macro (per phase, over phases present
in the groundtruth) precision and recall, with F1 computed from the macro
pair.  Event metrics compare maximal same-label runs: the event ratio is
the groundtruth event count over the detected event count, and the Ward
tally assigns every event to a category by same-label temporal overlap:

* a groundtruth event is Correct (matched 1:1), a Deletion (no overlap),
  Fragmented (several detected parts), Merged (its single partner covers
  other groundtruth events too), or both (FM);
* a detected event is an Insertion (no overlap), a fragment part (F'), a
  merge part (M'), both (FM'), or the detected half of a Correct match.

The Ward event ratio is Correct over the groundtruth event count.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import PhaseseekError
from .features import PhaseLabels

REPORT_SCHEMA_VERSION = 1


@dataclass
class FrameMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass
class Event:
    """Maximal run of one label: inclusive [start, end] clip span."""

    label: int
    start: int
    end: int


@dataclass
class WardTally:
    correct: int = 0                  # C: 1:1 matches
    deletions: int = 0                # D: groundtruth events with no detection
    fragmentations: int = 0           # F: groundtruth events split into parts
    merges: int = 0                   # M: groundtruth events absorbed by one detection
    fragmented_merges: int = 0        # FM: both at once
    insertions: int = 0               # I': detections overlapping nothing
    fragment_parts: int = 0           # F': detections that are pieces of one fragmented event
    merge_parts: int = 0              # M': detections covering several groundtruth events
    fragmented_merge_parts: int = 0   # FM': both at once

    @property
    def groundtruth_total(self) -> int:
        return (self.correct + self.deletions + self.fragmentations
                + self.merges + self.fragmented_merges)


def _as_label_array(labels) -> np.ndarray:
    if isinstance(labels, PhaseLabels):
        return labels.labels
    arr = np.asarray(labels, dtype=np.int64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise PhaseseekError("labels must be a non-empty 1-D vector")
    return arr


def frame_metrics(pred, gt) -> FrameMetrics:
    """Micro accuracy and macro precision/recall/F1 over phases present in gt.

    A phase predicted nowhere contributes precision 0; F1 is the harmonic
    mean of the macro precision and recall.
    """
    p = _as_label_array(pred)
    g = _as_label_array(gt)
    if p.shape != g.shape:
        raise PhaseseekError(f"length mismatch: pred {p.shape[0]} vs gt {g.shape[0]}")
    accuracy = float(np.mean(p == g))
    precisions, recalls = [], []
    for phase in np.unique(g):
        pred_hits = p == phase
        gt_hits = g == phase
        tp = float(np.sum(pred_hits & gt_hits))
        precisions.append(tp / pred_hits.sum() if pred_hits.any() else 0.0)
        recalls.append(tp / gt_hits.sum())
    precision = float(np.mean(precisions))
    recall = float(np.mean(recalls))
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return FrameMetrics(accuracy, precision, recall, float(f1))


def extract_events(labels) -> list[Event]:
    """Maximal same-label runs, in temporal order."""
    arr = _as_label_array(labels)
    boundaries = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries - 1, [len(arr) - 1]))
    return [Event(int(arr[s]), int(s), int(e)) for s, e in zip(starts, ends)]


def event_ratio(gt_labels, pred_labels) -> float:
    """Groundtruth event count over detected event count."""
    gt_events = extract_events(gt_labels)
    det_events = extract_events(pred_labels)
    g = _as_label_array(gt_labels)
    p = _as_label_array(pred_labels)
    if g.shape != p.shape:
        raise PhaseseekError("label sequences must have equal length")
    return len(gt_events) / len(det_events)


def ward_categorize(gt_events: list[Event], det_events: list[Event]) -> WardTally:
    """Assign every event to its Ward category by same-label overlap."""
    overlaps_of_gt = [[] for _ in gt_events]   # detected indices overlapping each gt event
    overlaps_of_det = [[] for _ in det_events]
    for i, g in enumerate(gt_events):
        for j, d in enumerate(det_events):
            if g.label == d.label and g.start <= d.end and d.start <= g.end:
                overlaps_of_gt[i].append(j)
                overlaps_of_det[j].append(i)

    fragmented = [len(parts) > 1 for parts in overlaps_of_gt]
    merging = [len(parts) > 1 for parts in overlaps_of_det]

    tally = WardTally()
    for i in range(len(gt_events)):
        parts = overlaps_of_gt[i]
        if not parts:
            tally.deletions += 1
        elif len(parts) == 1:
            if merging[parts[0]]:
                tally.merges += 1
            else:
                tally.correct += 1
        elif any(merging[j] for j in parts):
            tally.fragmented_merges += 1
        else:
            tally.fragmentations += 1
    for j in range(len(det_events)):
        sources = overlaps_of_det[j]
        if not sources:
            tally.insertions += 1
        elif len(sources) == 1:
            if fragmented[sources[0]]:
                tally.fragment_parts += 1
            # else: the detected half of a correct/merged match, not tallied
        elif any(fragmented[i] for i in sources):
            tally.fragmented_merge_parts += 1
        else:
            tally.merge_parts += 1
    return tally


def ward_event_ratio(gt_labels, pred_labels) -> float:
    """Correct events over groundtruth events."""
    tally = ward_categorize(extract_events(gt_labels), extract_events(pred_labels))
    return tally.correct / tally.groundtruth_total


# ---------------------------------------------------------------------------
# Per-video reports and dataset aggregation
# ---------------------------------------------------------------------------

@dataclass
class VideoReport:
    video: str
    num_clips: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    events_gt: int
    events_det: int
    event_ratio: float
    ward_correct: int
    ward_event_ratio: float
    coverage: float
    ward: WardTally = field(repr=False, default_factory=WardTally)


def evaluate_video(
    pred, gt, visited: set[int] | None = None, video: str = "",
    coverage: float | None = None,
) -> VideoReport:
    """Score one video: all frame and event metrics plus coverage.

    Coverage comes from ``visited`` (the clip indices read during
    inference) or from an explicit ``coverage`` value; with neither, the
    whole video counts as read.
    """
    p = _as_label_array(pred)
    g = _as_label_array(gt)
    if p.shape != g.shape:
        raise PhaseseekError(f"{video or 'video'}: prediction/groundtruth length mismatch")
    frames = frame_metrics(p, g)
    gt_events = extract_events(g)
    det_events = extract_events(p)
    tally = ward_categorize(gt_events, det_events)
    num_clips = int(p.shape[0])
    if coverage is None:
        coverage = 1.0 if visited is None else len(
            {i for i in visited if 0 <= i < num_clips}) / num_clips
    return VideoReport(
        video=video,
        num_clips=num_clips,
        accuracy=frames.accuracy,
        precision=frames.precision,
        recall=frames.recall,
        f1=frames.f1,
        events_gt=len(gt_events),
        events_det=len(det_events),
        event_ratio=len(gt_events) / len(det_events),
        ward_correct=tally.correct,
        ward_event_ratio=tally.correct / tally.groundtruth_total,
        coverage=coverage,
        ward=tally,
    )


def aggregate_reports(reports: list[VideoReport]) -> dict:
    """Dataset summary: frame metrics averaged per video (mean and population
    std), event counts summed before taking ratios, coverage averaged."""
    if not reports:
        raise PhaseseekError("nothing to aggregate")
    summary: dict = {"num_videos": len(reports)}
    for name in ("accuracy", "precision", "recall", "f1"):
        values = np.array([getattr(r, name) for r in reports])
        summary[name] = {"mean": float(values.mean()), "std": float(values.std())}
    total_gt = sum(r.events_gt for r in reports)
    total_det = sum(r.events_det for r in reports)
    total_correct = sum(r.ward_correct for r in reports)
    summary["event_ratio"] = total_gt / total_det
    summary["ward_event_ratio"] = total_correct / total_gt
    summary["coverage"] = float(np.mean([r.coverage for r in reports]))
    return summary


# VideoReport's fields before ``ward``, in declaration order: the CSV
# columns, and the keys of each JSON record before its ``ward`` tally.
_CSV_FIELDS = [
    "video", "num_clips", "accuracy", "precision", "recall", "f1",
    "events_gt", "events_det", "event_ratio", "ward_correct",
    "ward_event_ratio", "coverage",
]


def report_payload(reports: list[VideoReport]) -> dict:
    """JSON-ready payload: per-video records plus the aggregate block.

    Each record holds the report's fields in declaration order, ``ward``
    as a dict of the tally's fields, as ``dataclasses.asdict`` gives them.
    """
    videos = [{**{name: getattr(r, name) for name in _CSV_FIELDS}, "ward": dict(vars(r.ward))}
              for r in reports]
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "videos": videos,
        "aggregate": aggregate_reports(reports),
    }


def write_report(reports: list[VideoReport], json_path, csv_path=None) -> dict:
    """Write the JSON report (and optionally the flat per-video CSV)."""
    payload = report_payload(reports)
    Path(json_path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS, extrasaction="ignore")
            writer.writeheader()
            for rec in payload["videos"]:
                writer.writerow(rec)
    return payload
