import csv

import numpy as np
import pytest

from phaseseek.errors import (
    BadMagicError,
    BadVersionError,
    FeatureFileError,
    LabelsFileError,
    NonContiguousPhaseError,
    NonFiniteError,
    TruncatedError,
)
from phaseseek.features import (
    FeatureSequence,
    PhaseLabels,
    SynthConfig,
    TransitionSet,
    average_clips,
    labels_to_transitions,
    load_features,
    load_labels,
    save_features,
    save_labels,
    synth_dataset,
    synth_generate,
    transitions_to_labels,
)


def _seq(matrix, **kw):
    return FeatureSequence(np.asarray(matrix, dtype=float), **kw)


class TestFeatureFiles:
    def test_header_decode(self, tmp_path):
        path = tmp_path / "v.trnf"
        save_features(_seq([[1, 2, 3], [4, 5, 6]], clip_len_frames=4, fps=2.4), path)
        loaded = load_features(path)
        assert loaded.features.shape == (2, 3)
        np.testing.assert_array_equal(loaded.features, [[1, 2, 3], [4, 5, 6]])
        assert loaded.clip_len_frames == 4
        assert loaded.fps == pytest.approx(2.4)

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        seq = _seq(rng.normal(size=(7, 5)).astype(np.float32))
        path = tmp_path / "v.trnf"
        save_features(seq, path)
        np.testing.assert_array_equal(load_features(path).features, seq.features)

    def test_file_size_arithmetic(self, tmp_path):
        path = tmp_path / "one.trnf"
        save_features(_seq([[0.5]]), path)
        assert path.stat().st_size == 24 + 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trnf"
        path.write_bytes(b"XXXX" + bytes(40))
        with pytest.raises(BadMagicError):
            load_features(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.trnf"
        save_features(_seq([[1.0]]), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(BadVersionError):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "v.trnf"
        save_features(_seq(np.ones((5, 4))), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: 24 + 16 * 4])  # only 16 of 20 floats
        with pytest.raises(TruncatedError):
            load_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "v.trnf"
        save_features(_seq(np.ones((3, 2))), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FeatureFileError, match="1 trailing byte"):
            load_features(path)

    @pytest.mark.parametrize("fps", [0.0, -2.4, float("nan")])
    def test_invalid_fps_rejected(self, tmp_path, fps):
        path = tmp_path / "v.trnf"
        save_features(_seq(np.ones((3, 2))), path)
        raw = bytearray(path.read_bytes())
        raw[20:24] = np.float32(fps).astype("<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FeatureFileError, match="fps"):
            load_features(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "v.trnf"
        seq = _seq(np.ones((2, 2)))
        save_features(seq, path)
        seq.features[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            save_features(seq, path)
        with pytest.raises(NonFiniteError):
            FeatureSequence(np.array([[np.inf]]))


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        labels = PhaseLabels(np.array([0, 0, 1, 2, 2]), num_phases=3)
        path = tmp_path / "v.csv"
        save_labels(labels, path)
        assert path.read_text().splitlines()[0] == "clip_index,phase"
        loaded = load_labels(path, num_phases=3)
        np.testing.assert_array_equal(loaded.labels, labels.labels)

    def test_num_phases_inferred(self, tmp_path):
        path = tmp_path / "v.csv"
        save_labels(PhaseLabels(np.array([0, 2]), num_phases=3), path)
        assert load_labels(path).num_phases == 3

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("clip_index,phase\n0,0\n2,1\n")
        with pytest.raises(LabelsFileError):
            load_labels(path, 2)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("frame,phase\n0,0\n")
        with pytest.raises(LabelsFileError):
            load_labels(path, 2)

    def test_bytes_equal_csv_writer(self, tmp_path):
        labels = PhaseLabels(np.array([0, 0, 1, 3, 2, 2, 1]), num_phases=3)
        path, reference = tmp_path / "v.csv", tmp_path / "ref.csv"
        save_labels(labels, path)
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["clip_index", "phase"])
            for i, phase in enumerate(labels.labels):
                writer.writerow([i, int(phase)])
        assert path.read_bytes() == reference.read_bytes()
        assert path.read_bytes().endswith(b"6,1\r\n")

    @pytest.mark.parametrize("raw", [b"clip_index,phase\r\n0,\xff\r\n",
                                     b"\xfe\xffclip_index,phase\r\n0,0\r\n"],
                             ids=["row", "header"])
    def test_non_utf8_rejected(self, tmp_path, raw):
        path = tmp_path / "v.csv"
        path.write_bytes(raw)
        with pytest.raises(LabelsFileError, match="decode"):
            load_labels(path)

    def test_phase_id_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("clip_index,phase\n0,99999999999999999999\n")
        with pytest.raises(LabelsFileError):
            load_labels(path)


class TestAverageClips:
    def test_identity_at_one(self):
        seq = _seq(np.arange(12.0).reshape(4, 3))
        np.testing.assert_array_equal(average_clips(seq, 1).features, seq.features)

    def test_pairwise_mean(self):
        out = average_clips(_seq([[1, 3], [3, 5]]), 2)
        np.testing.assert_allclose(out.features, [[2, 4]])
        assert out.clip_len_frames == 2

    def test_remainder_clip(self):
        out = average_clips(_seq(np.ones((5, 1))), 2)
        np.testing.assert_allclose(out.features, [[1], [1], [1]])

    def test_global_mean_preserved_when_divisible(self):
        rng = np.random.default_rng(0)
        seq = _seq(rng.normal(size=(24, 4)))
        out = average_clips(seq, 6)
        np.testing.assert_allclose(out.features.mean(axis=0), seq.features.mean(axis=0),
                                   rtol=1e-9)

    def test_zero_clip_len_rejected(self):
        with pytest.raises(ValueError):
            average_clips(_seq([[1.0]]), 0)


class TestLabelTransitionMaps:
    def test_run_boundaries(self):
        ts = labels_to_transitions(PhaseLabels(np.array([0, 0, 1, 1, 1]), 2))
        assert ts.pairs == {0: (0, 1), 1: (2, 4)}

    def test_missing_phases(self):
        ts = labels_to_transitions(PhaseLabels(np.array([2, 2, 2]), 3))
        assert ts.pairs == {2: (0, 2)}
        assert ts.get(0) is None and ts.get(1) is None

    def test_non_contiguous_rejected(self):
        with pytest.raises(NonContiguousPhaseError):
            labels_to_transitions(PhaseLabels(np.array([0, 1, 0]), 2))

    def test_paint_back(self):
        ts = TransitionSet(2, {0: (0, 1), 1: (2, 4)})
        out = transitions_to_labels(ts, 5)
        np.testing.assert_array_equal(out.labels, [0, 0, 1, 1, 1])

    def test_overlap_lowest_id_wins(self):
        ts = TransitionSet(2, {0: (0, 4), 1: (2, 3)})
        np.testing.assert_array_equal(transitions_to_labels(ts, 5).labels, [0] * 5)

    def test_uncovered_clips_get_sentinel(self):
        out = transitions_to_labels(TransitionSet(2, {}), 3)
        np.testing.assert_array_equal(out.labels, [2, 2, 2])
        assert out.sentinel == 2

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            lengths = rng.integers(1, 6, size=n)
            labels = np.concatenate([np.full(l, p) for p, l in enumerate(lengths)])
            orig = PhaseLabels(labels, num_phases=n)
            back = transitions_to_labels(labels_to_transitions(orig), len(labels))
            np.testing.assert_array_equal(back.labels, orig.labels)

    def test_pair_order_validated(self):
        with pytest.raises(ValueError):
            TransitionSet(2, {0: (3, 1)})


class TestSynth:
    def test_noiseless_prototypes(self):
        cfg = SynthConfig(num_phases=2, min_len=3, max_len=3, dim=8)
        seq, labels = synth_generate(cfg, seed=5)
        np.testing.assert_array_equal(labels.labels, [0, 0, 0, 1, 1, 1])
        np.testing.assert_allclose(np.linalg.norm(seq.features, axis=1), 1.0)
        # all clips of one phase are exactly the phase prototype
        assert np.ptp(seq.features[:3], axis=0).max() == 0.0
        assert np.ptp(seq.features[3:], axis=0).max() == 0.0

    def test_deterministic(self):
        cfg = SynthConfig(num_phases=3, min_len=4, max_len=9, dim=6,
                          noise_sigma=0.1, blend_width=1)
        a_seq, a_lab = synth_generate(cfg, seed=42)
        b_seq, b_lab = synth_generate(cfg, seed=42)
        np.testing.assert_array_equal(a_seq.features, b_seq.features)
        np.testing.assert_array_equal(a_lab.labels, b_lab.labels)

    def test_length_is_sum_of_blocks(self):
        cfg = SynthConfig(num_phases=4, min_len=2, max_len=7, dim=3)
        seq, labels = synth_generate(cfg, seed=1)
        runs = np.flatnonzero(np.diff(labels.labels)) + 1
        lengths = np.diff(np.concatenate(([0], runs, [labels.num_clips])))
        assert lengths.sum() == seq.num_clips
        assert (lengths >= 2).all() and (lengths <= 7).all()

    def test_dropout_skips_phases(self):
        cfg = SynthConfig(num_phases=4, min_len=2, max_len=4, dim=3, dropout_prob=0.6)
        saw_missing = False
        for seed in range(20):
            _, labels = synth_generate(cfg, seed=seed)
            present = set(labels.labels.tolist())
            assert present  # never empty
            saw_missing = saw_missing or len(present) < 4
        assert saw_missing

    def test_dataset_shares_prototypes(self):
        cfg = SynthConfig(num_phases=2, min_len=3, max_len=3, dim=8)
        videos = synth_dataset(cfg, 3, seed=11)
        first = videos[0][0].features[0]
        for seq, labels in videos[1:]:
            np.testing.assert_allclose(seq.features[0], first)
