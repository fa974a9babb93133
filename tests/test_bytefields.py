"""The text layer for small files: the side-input rows and the CSV writer."""

import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

from chronoscope.bytefields import Rows, write_csv, write_rows
from chronoscope.errors import MalformedLine
from chronoscope.gravity import GeoPoint, read_geo_points, write_geo_points
from chronoscope.ingest import read_node_pages
from chronoscope.metrics import read_node_list, read_partition, read_ranking
from oracles import plain_rows

BREAKS = (b"\n", b"\r\n", b"\r")
# pieces of a line: text, a tab, a comment mark, a space, two-byte UTF-8,
# and bytes that are not UTF-8 (a stray byte, a cut sequence, a surrogate)
PIECES = (b"ab", b"\t", b"#", b" ", "é".encode(), b"\xff", b"\xc3", b"\xed\xa0\x80")


@st.composite
def joined(draw, lines):
    """The drawn lines, each followed by a drawn line break except perhaps
    the last."""
    items = draw(lines)
    ends = [draw(st.sampled_from(BREAKS)) for _ in items]
    if items and draw(st.booleans()):
        ends[-1] = b""
    return b"".join(item + end for item, end in zip(items, ends))


any_lines = st.lists(st.lists(st.sampled_from(PIECES), max_size=5).map(b"".join), max_size=12)


def _write(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("rows") / "input.tsv"
    path.write_bytes(data)
    return path


@settings(max_examples=400, deadline=None)
@given(
    data=joined(any_lines),
    form=st.sampled_from(["domain", "domain<TAB>rank", "year<TAB>domain<TAB>pages"]),
)
def test_rows_match_plain_line_split(tmp_path_factory, data, form):
    path = _write(tmp_path_factory, data)
    rows, got, error = Rows(path, form), [], None
    try:
        for fields in rows:
            got.append((rows.lineno, fields))
    except MalformedLine as exc:
        error = str(exc)
    expected, bad = plain_rows(data)
    width = form.count("<TAB>") + 1
    for k, (number, fields) in enumerate(expected):
        if len(fields) != width or not all(fields):
            expected, bad_row = expected[:k], f"{path}:{number}: expected {form!r}"
            break
    else:
        bad_row = None if bad is None else f"{path}:{bad}: invalid UTF-8"
    assert (got, error) == (expected, bad_row)


def _domains():
    return st.lists(st.from_regex(r"[a-z]{1,6}\.ac\.uk", fullmatch=True), unique=True, max_size=8)


def _numbers(low, high):
    return st.integers(low, high).map(str)


# each reader with a strategy for one valid row after its domain, and what it
# returns for the oracle's rows
READERS = {
    "partition": (
        read_partition,
        lambda d: st.tuples(st.just(d), st.from_regex(r"[a-z0-9]{1,4}", fullmatch=True)),
        lambda rows: {d: g for d, g in rows},
    ),
    "ranking": (
        lambda path: read_ranking(path).ranks,
        lambda d: st.tuples(st.just(d), _numbers(1, 10**6)),
        lambda rows: {d: int(r) for d, r in rows},
    ),
    "node_list": (
        read_node_list,
        lambda d: st.tuples(st.just(d)),
        lambda rows: [d for d, in rows],
    ),
    "geo_points": (
        read_geo_points,
        lambda d: st.tuples(
            st.just(d),
            st.floats(-90, 90).map(repr),
            st.floats(-180, 180).map(repr),
        ),
        lambda rows: {d: GeoPoint(float(lat), float(lon)) for d, lat, lon in rows},
    ),
    "node_pages": (
        read_node_pages,
        lambda d: st.tuples(_numbers(1990, 1993), st.just(d), _numbers(0, 10**4)),
        lambda rows: {
            year: {d: int(p) for y, d, p in rows if int(y) == year}
            for year in {int(y) for y, _, _ in rows}
        },
    ),
}


@st.composite
def side_input(draw, row):
    """Lines of valid rows, one per distinct domain, among blank lines,
    comments and lines that are not UTF-8."""
    lines = [b"\t".join(f.encode() for f in draw(row(d))) for d in draw(_domains())]
    others = st.one_of(
        st.just(b""),
        st.lists(st.sampled_from(PIECES), max_size=4).map(lambda p: b"#" + b"".join(p)),
        st.sampled_from([b"\xff", b"ox.ac.uk\t\xc3", b"\xed\xa0\x80\t1"]),
    )
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(others))
    return lines


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_readers_match_plain_line_split(tmp_path_factory, reader, data):
    read, row, expect = READERS[reader]
    text = data.draw(joined(side_input(row)))
    path = _write(tmp_path_factory, text)
    rows, bad = plain_rows(text)
    if bad is None:
        assert read(path) == expect([fields for _, fields in rows])
    else:
        with pytest.raises(MalformedLine) as err:
            read(path)
        assert str(err.value) == f"{path}:{bad}: invalid UTF-8"


@pytest.mark.parametrize(
    "read, text, error",
    [
        (read_partition, "ox.ac.uk\tg\n\tg\n", "2: expected 'domain<TAB>group'"),
        (read_ranking, "\t1\nox.ac.uk\t2\n", "1: expected 'domain<TAB>rank'"),
        (read_node_list, "ox.ac.uk\n\t\n", "2: expected 'domain'"),
        (read_geo_points, "\t51.0\t-1.0\n", "1: expected 'domain<TAB>lat<TAB>lon'"),
        (read_node_pages, "2001\t\t4\n", "1: expected 'year<TAB>domain<TAB>pages'"),
    ],
)
def test_every_reader_rejects_an_empty_domain(tmp_path, read, text, error):
    path = tmp_path / "input.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        read(path)
    assert str(err.value) == f"{path}:{error}"


def test_write_csv_quotes_only_where_needed(tmp_path):
    path = tmp_path / "out.csv"
    rows = [["a,b", 1, 0.5], ['say "hi"', "", repr(0.1)]]
    write_csv(path, ["name", "n", "x"], iter(rows))
    assert path.read_bytes() == b'name,n,x\n"a,b",1,0.5\n"say ""hi""",,0.1\n'
    assert list(csv.reader(io.StringIO(path.read_text()))) == [
        ["name", "n", "x"],
        ["a,b", "1", "0.5"],
        ['say "hi"', "", "0.1"],
    ]


@settings(max_examples=50, deadline=None)
@given(
    domains=_domains(),
    labels=st.lists(st.text("ag0é#", min_size=1, max_size=3), min_size=8, max_size=8),
    points=st.lists(st.tuples(st.floats(-90, 90), st.floats(-180, 180)), min_size=8, max_size=8),
)
def test_side_input_writers_round_trip(tmp_path_factory, domains, labels, points):
    # write_geo_points and synth's partition file share write_rows
    directory = tmp_path_factory.mktemp("rows")
    geo = {d: GeoPoint(*point) for d, point in zip(domains, points)}
    write_geo_points(geo, directory / "geo.tsv")
    assert read_geo_points(directory / "geo.tsv") == geo
    partition = dict(zip(domains, labels))
    write_rows(directory / "partition.tsv", sorted(partition.items()))
    assert read_partition(directory / "partition.tsv") == partition
    assert (directory / "partition.tsv").read_text(encoding="utf-8") == "".join(
        f"{d}\t{g}\n" for d, g in sorted(partition.items())
    )
