"""End-to-end acceptance checks.

Each test prints one ``[acceptance] <name>: PASS/FAIL`` line.  The expensive
fixture (synthetic corpus, three trained agent pairs, both inference modes)
is shared by the criteria that score the held-out videos.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np
import pytest

from phaseseek.compose import gaussian_compose
from phaseseek.features import (
    SynthConfig,
    TransitionSet,
    labels_to_transitions,
    synth_dataset,
)
from phaseseek.inference import (
    PredictionInit,
    fit_fi,
    rollout,
    train_clip_classifier,
)
from phaseseek.metrics import (
    extract_events,
    frame_metrics,
    ward_categorize,
)
from phaseseek.nets import backward, forward, init_qnetwork, param_list
from phaseseek.training import TrainConfig, train

NUM_PHASES = 3
SEED = 20240601


def _check(name: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


@dataclass
class Pipeline:
    train_videos: list
    test_videos: list
    fis: dict
    pairs: dict
    fi_results: list      # per test video: {phase: RolloutResult}
    rmi_results: list
    fi_composed: list     # per test video: PhaseLabels
    fi_coverage: list
    rmi_coverage: list
    train_seconds: float
    train_warnings: list  # messages phaseseek.training logged while training


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.fixture(scope="module")
def pipeline():
    cfg = SynthConfig(num_phases=NUM_PHASES, min_len=67, max_len=133, dim=16,
                      noise_sigma=0.05, blend_width=2)
    videos = [(seq, lab, labels_to_transitions(lab))
              for seq, lab in synth_dataset(cfg, 25, seed=SEED)]
    train_videos, test_videos = videos[:20], videos[20:]
    train_ts = [(seq, ts) for seq, _, ts in train_videos]

    fis, pairs = {}, {}
    warnings = _Messages()
    logging.getLogger("phaseseek.training").addHandler(warnings)
    t0 = time.time()
    try:
        for phase in range(NUM_PHASES):
            fis[phase] = fit_fi([(seq.num_clips, ts) for seq, ts in train_ts], phase)
            tc = TrainConfig(episodes_max=1, batch=128, lr=3e-4, gamma=0.0,
                             eps_start=0.5, eps_min=0.05, eps_decay=0.995,
                             target_sync_period=100, seed=100 + phase,
                             window_len=5, hidden_dim=64, num_layers=2)
            pairs[phase] = train(train_ts, phase, tc, fis[phase])
            print(f"[acceptance] trained phase {phase} pair "
                  f"({time.time() - t0:.0f}s elapsed)")
    finally:
        logging.getLogger("phaseseek.training").removeHandler(warnings)
    train_seconds = time.time() - t0

    classifier = train_clip_classifier(
        np.concatenate([seq.features for seq, _, _ in train_videos]),
        np.concatenate([lab.labels for _, lab, _ in train_videos]),
        num_phases=NUM_PHASES, seed=SEED,
    )

    fi_results, rmi_results, fi_composed = [], [], []
    fi_coverage, rmi_coverage = [], []
    for seq, lab, ts in test_videos:
        by_phase, visited = {}, []
        for phase in range(NUM_PHASES):
            start = fis[phase].initial_positions(seq, phase)
            result = rollout(pairs[phase], seq, start)
            by_phase[phase] = result
            visited.append(result.visited)
        fi_results.append(by_phase)
        fi_coverage.append(len(set().union(*visited)) / seq.num_clips)
        predicted = TransitionSet(
            NUM_PHASES, {p: (r.begin, r.end) for p, r in by_phase.items()})
        fi_composed.append(gaussian_compose(predicted, seq.num_clips))

        rmi_by_phase = {}
        for phase in range(NUM_PHASES):
            rmi_init = PredictionInit(classifier.predict, fallback=fis[phase])
            start = rmi_init.initial_positions(seq, phase)
            rmi_by_phase[phase] = rollout(pairs[phase], seq, start)
        rmi_results.append(rmi_by_phase)
        # producing per-clip predictions reads the entire video
        rmi_coverage.append(1.0)

    return Pipeline(train_videos, test_videos, fis, pairs, fi_results,
                    rmi_results, fi_composed, fi_coverage, rmi_coverage,
                    train_seconds, warnings.messages)


class TestCriterion1SyntheticConvergence:
    def test_transition_error_and_accuracy(self, pipeline):
        errors = []
        for (seq, lab, ts), by_phase in zip(pipeline.test_videos, pipeline.fi_results):
            for phase, result in by_phase.items():
                gt_b, gt_e = ts.get(phase)
                errors += [abs(result.begin - gt_b), abs(result.end - gt_e)]
        mean_error = float(np.mean(errors))
        accs = [frame_metrics(pred.labels, lab.labels).accuracy
                for (seq, lab, ts), pred in zip(pipeline.test_videos, pipeline.fi_composed)]
        accuracy = float(np.mean(accs))
        _check(
            "1 synthetic convergence",
            mean_error <= 3.0 and accuracy >= 0.90,
            f"mean |error| {mean_error:.2f} clips (<=3), composed accuracy "
            f"{accuracy:.3f} (>=0.90), training {pipeline.train_seconds:.0f}s",
        )


class TestCriterion2EventStructure:
    def test_event_ratios(self, pipeline):
        total_gt = total_det = total_correct = 0
        for (seq, lab, ts), pred in zip(pipeline.test_videos, pipeline.fi_composed):
            gt_events = extract_events(lab.labels)
            det_events = extract_events(pred.labels)
            tally = ward_categorize(gt_events, det_events)
            total_gt += len(gt_events)
            total_det += len(det_events)
            total_correct += tally.correct
        event_ratio = total_gt / total_det
        ward_ratio = total_correct / total_gt
        _check(
            "2 event structure",
            event_ratio >= 0.9 and ward_ratio >= 0.9,
            f"event ratio {event_ratio:.3f} (>=0.9), ward ratio {ward_ratio:.3f} (>=0.9)",
        )


class TestCriterion3Coverage:
    def test_fi_partial_rmi_full(self, pipeline):
        fi_mean = float(np.mean(pipeline.fi_coverage))
        rmi_min = min(pipeline.rmi_coverage)
        _check(
            "3 coverage",
            fi_mean <= 0.70 and rmi_min == 1.0,
            f"FI coverage {fi_mean:.3f} (<=0.70), RMI coverage {rmi_min:.0%}",
        )


class TestCriterion4Gradients:
    def test_twenty_random_tiny_networks(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for trial in range(20):
            net = init_qnetwork(2, 3, 2, seed=1000 + trial)
            x = rng.normal(size=(4, 2))
            upstream = rng.normal(size=2)
            _, cache = forward(net, x)
            analytic = backward(net, cache, upstream)
            for p, g in zip(param_list(net), analytic):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = p[ix]
                    p[ix] = orig + 1e-5
                    up = float(forward(net, x)[0] @ upstream)
                    p[ix] = orig - 1e-5
                    down = float(forward(net, x)[0] @ upstream)
                    p[ix] = orig
                    fd = (up - down) / 2e-5
                    rel = abs(fd - g[ix]) / max(abs(fd), abs(g[ix]), 1e-3)
                    worst = max(worst, rel)
        _check("4 gradient correctness", worst <= 1e-4,
               f"max relative error {worst:.2e} (<=1e-4) over 20 networks")


class TestCriterion5CompositionOracle:
    def test_thousand_random_sets(self):
        from test_compose import oracle_compose, random_transition_set

        rng = np.random.default_rng(5)
        mismatches = 0
        for _ in range(1000):
            ts, t = random_transition_set(rng)
            if not np.array_equal(gaussian_compose(ts, t).labels, oracle_compose(ts, t)):
                mismatches += 1
        _check("5 composition oracle", mismatches == 0,
               f"{mismatches} mismatches in 1000 random transition sets")


class TestCriterion6MetricFixtures:
    def test_hand_computed_values_and_ward_partition(self):
        m = frame_metrics([0, 1, 1, 1], [0, 0, 1, 1])
        fixtures_ok = (
            abs(m.accuracy - 0.75) < 1e-12
            and abs(m.precision - 5 / 6) < 1e-12
            and abs(m.recall - 0.75) < 1e-12
            and abs(m.f1 - 2 * (5 / 6) * 0.75 / (5 / 6 + 0.75)) < 1e-12
        )
        er = len(extract_events([0, 0, 1, 1])) / len(extract_events([0, 1, 0, 1]))
        fixtures_ok = fixtures_ok and er == 0.5
        frag = ward_categorize(extract_events([1] * 10),
                               extract_events([1, 1, 1, 1, 0, 0, 1, 1, 1, 1]))
        fixtures_ok = fixtures_ok and frag.fragmentations == 1 and frag.correct == 0

        rng = np.random.default_rng(6)
        partition_failures = 0
        for _ in range(1000):
            t = int(rng.integers(1, 51))
            phases = int(rng.integers(1, 5))
            gt = rng.integers(0, phases, size=t)
            pred = rng.integers(0, phases, size=t)
            gt_events = extract_events(gt)
            tally = ward_categorize(gt_events, extract_events(pred))
            if tally.groundtruth_total != len(gt_events):
                partition_failures += 1
        _check("6 metric fixtures", fixtures_ok and partition_failures == 0,
               f"hand-computed fixtures ok={fixtures_ok}, "
               f"{partition_failures} Ward partition failures in 1000 pairs")


class TestCriterion7Determinism:
    def test_pipeline_runs_byte_identical(self, tmp_path):
        from phaseseek.cli import main

        outputs = []
        for run in ("a", "b"):
            root = tmp_path / run
            data, ckpt, pred = root / "data", root / "ckpt", root / "pred"
            assert main(["synth", "--out-dir", str(data), "--count", "3",
                         "--phases", "2", "--dim", "6", "--min-len", "15",
                         "--max-len", "20", "--noise", "0.02", "--blend", "1",
                         "--seed", "99"]) == 0
            assert main(["train", "--phase", "0", "--phases", "2",
                         "--features-dir", str(data), "--labels-dir", str(data),
                         "--checkpoints-dir", str(ckpt), "--seed", "99",
                         "--window", "3", "--episodes", "1", "--max-steps", "30",
                         "--batch", "16", "--hidden", "8", "--layers", "1"]) == 0
            assert main(["train", "--phase", "1", "--phases", "2",
                         "--features-dir", str(data), "--labels-dir", str(data),
                         "--checkpoints-dir", str(ckpt), "--seed", "99",
                         "--window", "3", "--episodes", "1", "--max-steps", "30",
                         "--batch", "16", "--hidden", "8", "--layers", "1"]) == 0
            assert main(["infer", "--phases", "2",
                         "--features-dir", str(data),
                         "--checkpoints-dir", str(ckpt),
                         "--out-dir", str(pred), "--init", "fi",
                         "--seed", "99"]) == 0
            blob = b"".join(
                path.read_bytes()
                for path in sorted(list(ckpt.glob("*.qnet")) + list(pred.glob("*")))
            )
            outputs.append(blob)
        _check("7 determinism", outputs[0] == outputs[1],
               f"two seeded synth/train/infer runs, {len(outputs[0])} bytes compared")


class TestCriterion8SinglePhase:
    def test_binary_target_retrieval(self, pipeline):
        target = 1  # middle phase surrounded by background on both sides
        f1s, coverages = [], []
        for (seq, lab, ts), by_phase in zip(pipeline.test_videos, pipeline.fi_results):
            result = by_phase[target]
            pred = np.zeros(seq.num_clips, dtype=np.int64)
            pred[result.begin: result.end + 1] = 1
            gt = (lab.labels == target).astype(np.int64)
            f1s.append(frame_metrics(pred, gt).f1)
            coverages.append(len(result.visited) / seq.num_clips)
        f1 = float(np.mean(f1s))
        coverage = float(np.mean(coverages))
        _check("8 single-phase mode", coverage <= 0.30 and f1 >= 0.85,
               f"coverage {coverage:.3f} (<=0.30), binary F1 {f1:.3f} (>=0.85)")


class TestAcceptanceTrainingUpdates:
    def test_acceptance_config_does_not_warn(self, pipeline):
        zero_update = [m for m in pipeline.train_warnings if "no Bellman update" in m]
        _check("training runs Bellman updates", not zero_update,
               f"{len(zero_update)} zero-update warning(s) over {NUM_PHASES} phases")
