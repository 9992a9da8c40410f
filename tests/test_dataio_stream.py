"""The parser read from an open file, against the same text as one string.

A file is read a block at a time by its own reader, and the tests shrink
that block (``TextIOWrapper._CHUNK_SIZE``, in bytes) so that lines, CRLF
pairs and multi-byte characters are cut between reads.
"""

import io
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geomfit import dataio
from geomfit.dataio import DatasetSpec, auto_detect_header, parse
from geomfit.errors import ColumnNotFound, EmptyDataset, RaggedRow
from test_dataio import _MULTI_CHUNK, _documents, _outcome, _reference_parse, _specs


@st.composite
def _stream_documents(draw):
    """A reference-parser document, maybe with lone \\r line endings and a BOM, and its spec."""
    delimiter, content = draw(_documents())
    if draw(st.booleans()):
        content = content.replace("\r\n", "\r").replace("\n", "\r")
    spec = draw(_specs(delimiter))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return spec, content, (bom + content).encode("utf-8")


def _opened(data: bytes, block_bytes: int = 8192, newline: str | None = None) -> io.TextIOWrapper:
    """The bytes as the CLI opens a file: BOM dropped, \\n, \\r\\n and \\r all end a line.

    The file reads ``block_bytes`` bytes at a time (8,192 is the reader's
    default).  With ``newline=""`` each line keeps its own line break.
    """
    source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=newline)
    source._CHUNK_SIZE = block_bytes
    return source


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=_stream_documents(), block_bytes=st.integers(1, 64),
       chunk_rows=st.sampled_from([2, 3, 4096]))
def test_small_blocks_match_one_string(document, block_bytes, chunk_rows):
    spec, content, data = document
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_CHUNK_ROWS", chunk_rows)
        whole = _outcome(parse, spec, content)
        whole_file = _outcome(parse, spec, _opened(data).read())
        header = _outcome(auto_detect_header, content, spec.delimiter)
        assert _outcome(parse, spec, io.StringIO(content)) == whole
        assert _outcome(parse, spec, _opened(data, block_bytes)) == whole_file
        assert _outcome(parse, spec, _opened(data, block_bytes, newline="")) == whole_file
        assert _outcome(auto_detect_header, io.StringIO(content), spec.delimiter) == header


@pytest.mark.parametrize("block_bytes", [1, 3, 1 << 20])
@pytest.mark.parametrize("content", ["x,y\n", "x,y", "# note\nx,y\r\n\n# end\n  \n"])
def test_header_without_data_rows(block_bytes, content):
    # No data row after the header is reported before any column lookup.
    for source in (content, io.StringIO(content), _opened(content.encode(), block_bytes)):
        with pytest.raises(EmptyDataset, match="^no data rows after the header$"):
            parse(DatasetSpec(x_col="nope", y_col="y"), source)
    with pytest.raises(ColumnNotFound):
        parse(DatasetSpec(x_col="nope", y_col="y"), content + "\n1,2\n")


@pytest.mark.parametrize("content, message", [
    ("", "input is empty"), (" \n\t\r\n\x1c", "input is empty"),
    ("# only\n\n  # comments\n", "no data rows in input"),
])
def test_empty_inputs(content, message):
    for source in (content, io.StringIO(content), _opened(content.encode(), 2)):
        with pytest.raises(EmptyDataset, match=f"^{message}$"):
            parse(DatasetSpec(), source)


def test_long_line_across_many_blocks():
    # One field of 100,000 characters comes in 100,000 one-byte blocks.
    content = "x,y\n1,0." + "0" * 100_000 + "5\r\n2,3\r"
    cloud = parse(DatasetSpec(), _opened(content.encode(), 1))
    assert cloud.xs == [1.0, 2.0] and cloud.ys == [0.0, 3.0]


@pytest.mark.parametrize("chunk_rows", [2, 3])
@pytest.mark.parametrize("case", sorted(_MULTI_CHUNK))
def test_multi_chunk_files(monkeypatch, case, chunk_rows):
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", chunk_rows)
    spec, content, _ = _MULTI_CHUNK[case]
    data = content.encode()
    assert _outcome(parse, spec, _opened(data, 3)) == _outcome(
        _reference_parse, spec, _opened(data).read())


@pytest.mark.parametrize("newline", ["", "\r"])
def test_lone_cr_line_breaks_kept_by_the_file(newline):
    # Such a file keeps the lone \r that ends each line, so no line ends in
    # \n; the three lines' six fields must not pass as three rows of two.
    with pytest.raises(RaggedRow, match="^line 3: row has 1 column"):
        parse(DatasetSpec(), _opened(b"1,2\r3,4,5\r6\r", newline=newline))


def test_auto_detect_header_reads_only_to_the_first_data_row():
    source = io.StringIO("# c\n\nx,y\n" + "1,2\n" * 1000)
    assert auto_detect_header(source) is True
    assert source.tell() == 9  # the end of the first data row


def test_file_parse_peaks_below_its_text(tmp_path):
    # The parser holds one chunk of lines at a time, so its peak, the returned
    # cloud included, does not grow with the file's text.  This file, 50,000
    # rows with a 250-character note in each, is about twelve chunks long, so
    # its text outweighs that peak.
    rng = random.Random(16)
    notes = ["".join(rng.choices("abcdefgh ", k=250)) for _ in range(64)]
    path = tmp_path / "notes.csv"
    with open(path, "w", encoding="utf-8") as out:
        out.write("id,x,y,note\n")
        for i in range(50_000):
            out.write(f"{i},{rng.uniform(0, 100)!r},{rng.uniform(0, 100)!r},{rng.choice(notes)}\n")
    text_bytes = path.stat().st_size  # ASCII: one byte per character
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8-sig") as source:
            cloud = parse(DatasetSpec(x_col="x", y_col="y"), source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cloud) == 50_000
    assert peak < text_bytes, (peak, text_bytes)
