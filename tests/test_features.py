import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    MAX_NOISE_SIGMA,
    FeatureSequence,
    PhaseLabels,
    SynthConfig,
    TransitionSet,
    average_clips,
    labels_to_transitions,
    load_features,
    load_labels,
    phase_prototypes,
    read_features_header,
    save_features,
    save_labels,
    synth_dataset,
    synth_generate,
    transitions_to_labels,
)


def _seq(matrix, **kw):
    return FeatureSequence(np.asarray(matrix, dtype=float), **kw)


def _csv_reference(path, num_phases=None) -> PhaseLabels:
    # The csv-module reader that load_labels' one-pass parse replaced, kept
    # as the reference for the files both accept.
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise LabelsFileError(str(exc)) from exc
    if not table or [h.strip() for h in table[0]] != ["clip_index", "phase"]:
        raise LabelsFileError("header")
    rows = []
    for row in filter(None, table[1:]):
        if len(row) != 2:
            raise LabelsFileError("malformed row")
        try:
            rows.append((int(row[0]), int(row[1])))
        except ValueError as exc:
            raise LabelsFileError("non-integer row") from exc
    if not rows or [i for i, _ in rows] != list(range(len(rows))):
        raise LabelsFileError("rows")
    phases = [p for _, p in rows]
    if min(phases) < 0:
        raise LabelsFileError("negative phase id")
    try:
        return PhaseLabels(np.array(phases, dtype=np.int64),
                           num_phases=max(phases) + 1 if num_phases is None else num_phases)
    except (ValueError, OverflowError) as exc:
        raise LabelsFileError(str(exc)) from exc


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
        # 1e39 is finite in float64 but overflows the file's float32.
        with pytest.raises(NonFiniteError, match="float32"):
            save_features(_seq([[1.0, 1e39]]), tmp_path / "big.trnf")
        assert not (tmp_path / "big.trnf").exists()


    @pytest.mark.parametrize("damage, error", [
        (lambda raw: b"XXXX" + raw[4:], BadMagicError),
        (lambda raw: raw[:4] + b"\x09" + raw[5:], BadVersionError),
        (lambda raw: raw[:10], TruncatedError),
        (lambda raw: raw[:-4], TruncatedError),
        (lambda raw: raw + b"\0", FeatureFileError),
    ], ids=["magic", "version", "header", "payload", "trailing"])
    def test_header_checked_as_load_checks_it(self, tmp_path, damage, error):
        path = tmp_path / "v.trnf"
        save_features(_seq(np.ones((3, 2))), path)
        assert read_features_header(path) == (3, 2, 16, pytest.approx(2.4))
        path.write_bytes(damage(path.read_bytes()))
        for reader in (read_features_header, load_features):
            with pytest.raises(error, match="v.trnf"):
                reader(path)

    def test_load_into_rows_of_a_matrix(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "v.trnf"
        save_features(_seq(rng.normal(size=(3, 2)).astype(np.float32), clip_len_frames=8), path)
        matrix = np.zeros((6, 2))
        seq = load_features(path, out=matrix[2:5])
        assert seq.clip_len_frames == 8
        assert np.shares_memory(seq.features, matrix[2:5])
        assert not np.shares_memory(seq.features, matrix[:2]) and \
            not np.shares_memory(seq.features, matrix[5:])
        np.testing.assert_array_equal(matrix[2:5], load_features(path).features)
        assert not matrix[:2].any() and not matrix[5:].any()
        with pytest.raises(FeatureFileError, match="3 x 2"):
            load_features(path, out=matrix[:2])


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

    def test_one_pass_matches_the_csv_reader(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_bytes(b" clip_index , phase\r\n\r\n0, 2\n1 ,+1\r2,\t0 \n\n")
        np.testing.assert_array_equal(load_labels(path).labels, [2, 1, 0])
        np.testing.assert_array_equal(load_labels(path).labels, _csv_reference(path).labels)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_result_as_the_csv_reader(self, tmp_path_factory, data):
        # Well-formed files with every line end, blank lines and ASCII
        # padding, with now and then one defect: both readers return the
        # same labels, or both raise LabelsFileError.
        phases = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=30))
        pad = st.sampled_from(["", " ", "\t", "  "])
        rows = [f"{data.draw(pad)}{i}{data.draw(pad)},{data.draw(pad)}{p}{data.draw(pad)}"
                for i, p in enumerate(phases)]
        defect = data.draw(st.sampled_from(
            [None, None, None, "gap", "negative", "three cells", "one cell", "text", "huge"]))
        k = data.draw(st.integers(0, len(rows) - 1))
        rows[k] = {None: rows[k], "gap": f"{k + 1},0", "negative": f"{k},-1",
                   "three cells": f"{k},0,0", "one cell": f"{k}", "text": f"{k},x",
                   "huge": f"{k},{2**70}"}[defect]
        lines = [data.draw(st.sampled_from(["clip_index,phase", " clip_index , phase"]))]
        for row in rows:
            lines += [""] * data.draw(st.integers(0, 1)) + [row]
        newline = data.draw(st.sampled_from(["\r\n", "\n", "\r"]))
        path = tmp_path_factory.mktemp("labels") / "v.csv"
        path.write_text(newline.join(lines) + data.draw(st.sampled_from(["", newline])),
                        encoding="utf-8", newline="")
        num_phases = data.draw(st.sampled_from([None, 5]))
        try:
            expected = _csv_reference(path, num_phases)
        except LabelsFileError:
            with pytest.raises(LabelsFileError):
                load_labels(path, num_phases)
        else:
            got = load_labels(path, num_phases)
            np.testing.assert_array_equal(got.labels, expected.labels)
            assert got.num_phases == expected.num_phases


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

    def test_noise_bound_keeps_files_finite(self, tmp_path):
        # At the largest noise the config admits, every video saves and loads.
        cfg = SynthConfig(num_phases=3, min_len=20, max_len=40, dim=16,
                          noise_sigma=MAX_NOISE_SIGMA)
        for i, (seq, _) in enumerate(synth_dataset(cfg, 4, seed=2)):
            save_features(seq, tmp_path / f"v{i}.trnf")
            assert load_features(tmp_path / f"v{i}.trnf").num_clips == seq.num_clips
        for sigma in (MAX_NOISE_SIGMA * 1.01, 1e38, float("inf"), float("nan"), -1.0):
            with pytest.raises(ValueError, match="noise_sigma"):
                SynthConfig(num_phases=1, min_len=1, max_len=1, noise_sigma=sigma)

    @pytest.mark.parametrize("blend", [1, 2, 5, 2**62, 2**63])
    def test_cross_fade_matches_the_clip_loop(self, blend):
        cfg = SynthConfig(num_phases=4, min_len=2, max_len=6, dim=5, blend_width=blend)
        seq, labels = synth_generate(cfg, seed=9)
        protos = phase_prototypes(cfg, np.random.default_rng(9))
        lab = labels.labels
        expected = protos[lab]
        for e in (np.flatnonzero(np.diff(lab)) + 1).tolist():
            left, right = protos[lab[e - 1]], protos[lab[e]]
            for j in range(max(e - blend, 0), min(e + blend, len(lab))):
                w = (j - e + 0.5 + blend) / (2.0 * blend)
                expected[j] = (1.0 - w) * left + w * right
        assert seq.features.tobytes() == expected.tobytes()

    def test_dataset_shares_prototypes(self):
        cfg = SynthConfig(num_phases=2, min_len=3, max_len=3, dim=8)
        videos = synth_dataset(cfg, 3, seed=11)
        first = videos[0][0].features[0]
        for seq, labels in videos[1:]:
            np.testing.assert_allclose(seq.features[0], first)
