import csv
import io
import json
from dataclasses import asdict

import numpy as np
import pytest

from phaseseek.errors import PhaseseekError
from phaseseek.metrics import (
    Event,
    WardTally,
    aggregate_reports,
    evaluate_video,
    event_ratio,
    extract_events,
    frame_metrics,
    ward_categorize,
    ward_event_ratio,
    write_report,
)


def random_label_pair(rng):
    t = int(rng.integers(1, 51))
    phases = int(rng.integers(1, 5))
    return rng.integers(0, phases, size=t), rng.integers(0, phases, size=t)


class TestFrameMetrics:
    def test_perfect_prediction(self):
        m = frame_metrics([0, 1, 2, 2], [0, 1, 2, 2])
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_computed_confusion(self):
        m = frame_metrics([0, 1, 1, 1], [0, 0, 1, 1])
        assert m.accuracy == pytest.approx(0.75)
        assert m.precision == pytest.approx(5 / 6)
        assert m.recall == pytest.approx(0.75)
        expected_f1 = 2 * (5 / 6) * (3 / 4) / (5 / 6 + 3 / 4)
        assert m.f1 == pytest.approx(expected_f1)

    def test_unpredicted_phase_contributes_zero_precision(self):
        # phase 2 exists in gt but never in pred: P = (1/2 + 1/2 + 0) / 3
        m = frame_metrics([0, 0, 1, 1], [0, 2, 1, 2])
        assert m.precision == pytest.approx((0.5 + 0.5 + 0.0) / 3)

    def test_relabeling_invariance_of_accuracy(self):
        rng = np.random.default_rng(1)
        gt = rng.integers(0, 3, size=40)
        pred = rng.integers(0, 3, size=40)
        perm = np.array([2, 0, 1])
        base = frame_metrics(pred, gt).accuracy
        assert frame_metrics(perm[pred], perm[gt]).accuracy == base

    def test_length_mismatch_rejected(self):
        with pytest.raises(PhaseseekError):
            frame_metrics([0, 1], [0, 1, 2])


class TestEvents:
    def test_two_runs(self):
        assert extract_events([0, 0, 1, 1, 1]) == [Event(0, 0, 1), Event(1, 2, 4)]

    def test_alternating(self):
        assert len(extract_events([0, 1, 0, 1])) == 4

    def test_constant(self):
        assert extract_events([3, 3, 3]) == [Event(3, 0, 2)]

    def test_concatenation_reproduces_labels(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            labels, _ = random_label_pair(rng)
            rebuilt = np.concatenate([
                np.full(e.end - e.start + 1, e.label) for e in extract_events(labels)
            ])
            np.testing.assert_array_equal(rebuilt, labels)


class TestEventRatio:
    def test_fragmented_prediction(self):
        assert event_ratio([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.5)

    def test_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            labels, _ = random_label_pair(rng)
            assert event_ratio(labels, labels) == 1.0

    def test_count_based_only(self):
        # same event counts, different boundaries -> ratio 1
        gt = [0, 0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2, 0]
        pred = [0, 0, 1, 1, 1, 2, 0, 0, 1, 1, 2, 2, 0, 0]
        assert len(extract_events(gt)) == len(extract_events(pred)) == 7
        assert event_ratio(gt, pred) == 1.0


class TestWard:
    def test_exact_match_all_correct(self):
        gt = [0, 0, 1, 1, 2]
        tally = ward_categorize(extract_events(gt), extract_events(gt))
        assert tally.correct == 3
        assert tally.groundtruth_total == 3
        assert ward_event_ratio(gt, gt) == 1.0

    def test_fragmentation(self):
        gt = [1] * 10
        pred = [1, 1, 1, 1, 0, 0, 1, 1, 1, 1]
        tally = ward_categorize(extract_events(gt), extract_events(pred))
        assert tally.fragmentations == 1
        assert tally.fragment_parts == 2
        assert tally.insertions == 1  # the phase-0 run matches nothing
        assert tally.correct == 0

    def test_merge(self):
        gt = [1, 1, 0, 1, 1]
        pred = [1, 1, 1, 1, 1]
        tally = ward_categorize(extract_events(gt), extract_events(pred))
        assert tally.merges == 2
        assert tally.deletions == 1  # the gt phase-0 event
        assert tally.merge_parts == 1

    def test_insertion_of_unknown_phase(self):
        gt = [0, 0, 1, 1]
        pred = [0, 2, 1, 1]
        tally = ward_categorize(extract_events(gt), extract_events(pred))
        assert tally.insertions == 1

    def test_partition_identity_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            gt, pred = random_label_pair(rng)
            gt_events = extract_events(gt)
            tally = ward_categorize(gt_events, extract_events(pred))
            assert tally.groundtruth_total == len(gt_events)

    def test_detected_partition_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            gt, pred = random_label_pair(rng)
            det_events = extract_events(pred)
            tally = ward_categorize(extract_events(gt), det_events)
            assert (tally.correct + tally.insertions + tally.fragment_parts
                    + tally.merge_parts + tally.fragmented_merge_parts) == len(det_events)


class TestReports:
    def test_perfect_video(self):
        report = evaluate_video([0, 0, 1, 1], [0, 0, 1, 1], visited=set(range(4)))
        assert report.accuracy == 1.0
        assert report.event_ratio == 1.0
        assert report.ward_event_ratio == 1.0
        assert report.coverage == 1.0

    def test_partial_coverage(self):
        report = evaluate_video([0, 0], [0, 0], visited={0})
        assert report.coverage == 0.5

    def test_explicit_coverage_wins(self):
        report = evaluate_video([0, 0], [0, 0], coverage=0.25)
        assert report.coverage == 0.25

    def test_aggregate_mean_and_population_std(self):
        a = evaluate_video([0, 0, 1, 1, 1], [0, 0, 1, 1, 0], video="a")
        b = evaluate_video([0, 0, 1, 1, 0, 0, 1, 1, 0, 0],
                           [0, 0, 1, 1, 0, 0, 1, 1, 0, 1], video="b")
        assert a.accuracy == pytest.approx(0.8)
        assert b.accuracy == pytest.approx(0.9)
        agg = aggregate_reports([a, b])
        assert agg["accuracy"]["mean"] == pytest.approx(0.85)
        assert agg["accuracy"]["std"] == pytest.approx(0.05)

    def test_aggregate_sums_event_counts_before_ratio(self):
        a = evaluate_video([0, 1, 0, 1], [0, 0, 1, 1], video="a")   # 2 gt / 4 det
        b = evaluate_video([0, 0, 1, 1], [0, 0, 1, 1], video="b")   # 2 gt / 2 det
        agg = aggregate_reports([a, b])
        assert agg["event_ratio"] == pytest.approx(4 / 6)

    def test_report_files(self, tmp_path):
        reports = [evaluate_video([0, 1], [0, 1], video="v0"),
                   evaluate_video([1, 1], [0, 1], video="v1")]
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        payload = write_report(reports, json_path, csv_path)
        loaded = json.loads(json_path.read_text())
        assert loaded["schema_version"] == 1
        assert len(loaded["videos"]) == 2
        assert loaded["aggregate"] == payload["aggregate"]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("video,num_clips,accuracy")
        assert len(lines) == 3

    def test_report_bytes_match_asdict(self, tmp_path):
        # The records are built field by field; the files must hold the
        # bytes that dataclasses.asdict records give.
        reports = [evaluate_video([1, 1, 1, 1, 0, 0, 1, 1, 1, 1], [1] * 10, video="frag",
                                  coverage=0.4),
                   evaluate_video([1, 1, 1, 1, 1], [1, 1, 0, 1, 1], video="merge")]
        assert reports[0].ward.fragmentations and reports[1].ward.merges
        json_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
        write_report(reports, json_path, csv_path)
        records = [asdict(r) for r in reports]
        expected = {"schema_version": 1, "videos": records,
                    "aggregate": aggregate_reports(reports)}
        assert json_path.read_text() == json.dumps(expected, indent=2) + "\n"
        text = io.StringIO(newline="")
        writer = csv.DictWriter(text, fieldnames=list(records[0])[:-1], extrasaction="ignore")
        writer.writeheader()
        writer.writerows(records)
        assert csv_path.read_bytes() == text.getvalue().encode("utf-8")

    def test_ward_tally_dataclass_defaults(self):
        assert WardTally().groundtruth_total == 0
