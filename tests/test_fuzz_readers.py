"""Fuzzing of the feature-file, label-CSV, checkpoint, checkpoint-meta and
``--config`` readers.

For arbitrary bytes each file reader either returns or raises a
``PhaseseekError`` subclass (which the CLI maps to exit code 2), and never
allocates more than 1 MB on the way, whatever sizes a header declares.  A
``--config`` document ends every command in exit code 0, 1 or 2, without an
exception and under the same allocation limit.
"""

import json
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseseek import cli
from phaseseek.cli import _load_policies
from phaseseek.errors import PhaseseekError
from phaseseek.features import TRNF_MAGIC, load_features, load_labels
from phaseseek.nets import CKPT_MAGIC, FC1_UNITS, NUM_ACTIONS, init_qnetwork, load_checkpoint, \
    save_checkpoint

PEAK_LIMIT = 1 << 20


def _read(reader, raw: bytes, name: str = "input", setup=None) -> None:
    # Run ``reader`` on a file holding ``raw``; any exception other than a
    # PhaseseekError propagates and fails the test.  ``setup`` may add
    # files to the directory first.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(raw)
        if setup is not None:
            setup(Path(tmp))
        tracemalloc.start()
        try:
            reader(path)
        except PhaseseekError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    assert peak < PEAK_LIMIT


_dims = st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1))


@st.composite
def _trnf_files(draw):
    # A .trnf header with arbitrary fields, then a payload near the size
    # it declares (exact when the declared size is small).
    t, d, k = draw(_dims), draw(_dims), draw(_dims)
    version = draw(st.sampled_from([1, 1, 1, 2, 0]))
    fps = draw(st.floats(width=32))
    header = struct.pack("<4sIIIIf", TRNF_MAGIC, version, t, d, k, fps)
    size = 4 * t * d if 4 * t * d <= 512 else draw(st.integers(0, 512))
    size = max(size + draw(st.integers(-3, 3)), 0)
    return header + draw(st.binary(min_size=size, max_size=size))


@st.composite
def _label_csvs(draw):
    # A label CSV header (sometimes mangled), then rows of integers near
    # the valid range, junk text and raw bytes.
    header = draw(st.sampled_from([b"clip_index,phase", b" clip_index , phase", b"clip,phase",
                                   b""]))
    ints = st.one_of(st.integers(-2, 6), st.integers(-(2**70), 2**70))
    rows = draw(st.lists(st.one_of(
        st.tuples(ints, ints).map(lambda r: f"{r[0]},{r[1]}".encode()),
        st.text(max_size=12).map(lambda s: s.encode("utf-8", "surrogatepass")),
        st.binary(max_size=12)), max_size=12))
    newline = draw(st.sampled_from([b"\r\n", b"\n", b"\r"]))
    return newline.join([header, *rows])


class TestFeatureFileFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=96))
    def test_arbitrary_bytes(self, raw):
        _read(load_features, raw)

    @settings(max_examples=300, deadline=None)
    @given(_trnf_files())
    def test_arbitrary_headers(self, raw):
        _read(load_features, raw)


class TestLabelFileFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=96), st.sampled_from([None, 1, 3]))
    def test_arbitrary_bytes(self, raw, num_phases):
        _read(lambda path: load_labels(path, num_phases), raw)

    @settings(max_examples=300, deadline=None)
    @given(_label_csvs(), st.sampled_from([None, 1, 3]))
    def test_arbitrary_rows(self, raw, num_phases):
        _read(lambda path: load_labels(path, num_phases), raw)


@st.composite
def _qnet_files(draw):
    # A .qnet header with arbitrary fields, then a payload near the size it
    # declares (exact when the declared size is small).
    d, h, m = draw(_dims), draw(_dims), draw(_dims)
    version = draw(st.sampled_from([1, 1, 1, 2]))
    fc1 = draw(st.sampled_from([FC1_UNITS, FC1_UNITS, 0, 2**32 - 1]))
    actions = draw(st.sampled_from([NUM_ACTIONS, NUM_ACTIONS, 3]))
    header = struct.pack("<4sIIIIII", CKPT_MAGIC, version, d, h, m, fc1, actions)
    values = (d + h + 1) * 4 * h + max(m - 1, 0) * (2 * h + 1) * 4 * h
    values += (h + 1) * FC1_UNITS + (FC1_UNITS + 1) * NUM_ACTIONS
    size = 8 * values if 8 * values <= 4096 else draw(st.integers(0, 512))
    size = max(size + draw(st.integers(-9, 9)), 0)
    return header + draw(st.binary(min_size=size, max_size=size))


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.integers(-(2**70), 2**70),
              st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_META_KEYS = ["window", "input_dim", "rho_begin", "rho_end", "phase", "hidden", "layers"]


@st.composite
def _meta_documents(draw):
    # A checkpoint meta JSON: mostly an object over the meta keys with
    # valid-looking and arbitrary values, sometimes any JSON value or bytes.
    valid = {"window": 3, "input_dim": 3, "rho_begin": 0.1, "rho_end": 0.9, "hidden": 4,
             "layers": 1}
    doc = {key: draw(st.one_of(st.just(valid[key]), _json_values)) if key in valid
           else draw(_json_values)
           for key in draw(st.lists(st.sampled_from(_META_KEYS), max_size=7, unique=True))}
    kind = draw(st.sampled_from(["object", "object", "value", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    return json.dumps(doc if kind == "object" else draw(_json_values)).encode()


def _phase0_checkpoints(directory: Path) -> None:
    # Valid begin/end networks for phase 0, input dim 3.
    for role in ("begin", "end"):
        save_checkpoint(init_qnetwork(3, 4, 1, seed=0), directory / f"phase0_{role}.qnet")


class TestCheckpointFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=96))
    def test_arbitrary_bytes(self, raw):
        _read(load_checkpoint, raw)

    @settings(max_examples=300, deadline=None)
    @given(_qnet_files())
    def test_arbitrary_headers(self, raw):
        _read(load_checkpoint, raw)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 100, -1])
    def test_non_finite_weight_rejected(self, tmp_path, value, index):
        # A well-formed checkpoint with one NaN or Inf weight: the first
        # w_in entry, one inside the LSTM blocks, or the last fc2_b entry.
        path = tmp_path / "net.qnet"
        save_checkpoint(init_qnetwork(3, 4, 1, seed=0), path)
        raw = bytearray(path.read_bytes())
        weights = memoryview(raw)[struct.calcsize("<4sIIIIII"):].cast("d")
        weights[index] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(PhaseseekError, match="NaN or Inf"):
            load_checkpoint(path)


class TestMetaFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_meta_documents())
    def test_arbitrary_documents(self, raw):
        _read(lambda path: _load_policies(path.parent, [0]), raw, name="phase0_meta.json",
              setup=_phase0_checkpoints)


# Every dest a config file may set, from the parser itself.
_CONFIG_KEYS = sorted({action.dest for parser in cli._iter_parsers(cli.build_parser())
                       for action in parser._actions if action.dest != "help"})
_config_values = st.one_of(
    st.integers(-3, 9), st.integers(),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308]),
    st.text(max_size=8))


@st.composite
def _config_documents(draw):
    pairs = draw(st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), _config_values), max_size=6))
    return "\n".join(f"{key}={value}" for key, value in pairs).encode("utf-8", "surrogatepass")


@pytest.fixture(scope="module")
def one_video(tmp_path_factory):
    data = tmp_path_factory.mktemp("one_video")
    assert cli.main(["synth", "--out-dir", str(data), "--count", "1", "--phases", "2",
                     "--dim", "2", "--min-len", "4", "--max-len", "8"]) == 0
    return data


def _commands(data: Path, tmp: Path) -> list[list[str]]:
    # Every size flag is pinned on the command line, where it wins over
    # the config file, so each run stays small.
    return [
        ["synth", "--out-dir", str(tmp / "synth"), "--count", "1", "--phases", "2",
         "--min-len", "4", "--max-len", "8", "--dim", "2"],
        ["train", "--phase", "0", "--phases", "2", "--features-dir", str(data),
         "--labels-dir", str(data), "--checkpoints-dir", str(tmp / "ckpt"), "--episodes", "0",
         "--hidden", "4", "--layers", "1", "--memory", "8", "--window", "3"],
        ["infer", "--phases", "2", "--features-dir", str(data),
         "--checkpoints-dir", str(tmp / "empty"), "--out-dir", str(tmp / "pred")],
    ]


def _run_with_config(data: Path, raw: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_bytes(raw)
        (Path(tmp) / "empty").mkdir()
        for argv in _commands(data, Path(tmp)):
            tracemalloc.start()
            try:
                code = cli.main([*argv, "--config", str(config)])
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            assert code in (0, 1, 2), argv
            assert peak < PEAK_LIMIT, argv


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(max_size=96))
    def test_arbitrary_bytes(self, one_video, raw):
        _run_with_config(one_video, raw)

    @settings(max_examples=300, deadline=None)
    @given(raw=_config_documents())
    @example(raw=b"lr=0")
    @example(raw=b"seed=-1\nfps=1e308\neps_decay=1e308")
    @example(raw=b"blend=9223372036854775800")  # e + b overflowed int64 in synth
    @example(raw=b"blend=9223372036854775808")
    def test_key_value_documents(self, one_video, raw):
        _run_with_config(one_video, raw)
