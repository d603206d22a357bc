"""Fuzzing of the feature-file and label-CSV readers.

For arbitrary bytes each reader either returns or raises a
``PhaseseekError`` subclass (which the CLI maps to exit code 2), and never
allocates more than 1 MB on the way, whatever sizes a header declares.
"""

import struct
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from phaseseek.errors import PhaseseekError
from phaseseek.features import TRNF_MAGIC, load_features, load_labels

PEAK_LIMIT = 1 << 20


def _read(reader, raw: bytes) -> None:
    # Run ``reader`` on a file holding ``raw``; any exception other than a
    # PhaseseekError propagates and fails the test.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(raw)
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
