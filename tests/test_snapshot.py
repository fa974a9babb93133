import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chronoscope import bytefields, snapshot as snapshot_module
from chronoscope.errors import SnapshotFormatError
from chronoscope.snapshot import MAX_TOTAL_WEIGHT, YearSnapshot, read_snapshot, write_snapshot
from graphs import snapshot_of
from oracles import fstring_snapshot, plain_snapshot

pool = [f"n{i}.ac.uk" for i in range(8)]
absent = ["gone.ac.uk", "zz.ac.uk"]  # never in a snapshot

# any name the format can carry: no tab, no line break, not empty
names = st.text(
    st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=6,
)


def edge_dicts(nodes, min_size=0, max_size=30):
    return st.dictionaries(
        st.tuples(nodes, nodes).filter(lambda p: p[0] != p[1]),
        st.integers(min_value=1, max_value=2**40),
        min_size=min_size,
        max_size=max_size,
    )


def as_dicts(view):
    """Edges (in view order) and strengths of a view, keyed by node name."""
    edges = [
        ((view.nodes[s], view.nodes[t]), w)
        for s, t, w in zip(view.src.tolist(), view.dst.tolist(), view.weight.tolist())
    ]
    out, inn = (dict(zip(view.nodes, s.tolist())) for s in view.strengths())
    return edges, out, inn


def reduce_by_loops(edges, nodes):
    """Induced edges and strengths, the plain dict-loop way."""
    kept = sorted((pair, w) for pair, w in edges.items() if pair[0] in nodes and pair[1] in nodes)
    out = dict.fromkeys(nodes, 0)
    inn = dict.fromkeys(nodes, 0)
    for (u, v), w in kept:
        out[u] += w
        inn[v] += w
    return kept, out, inn


@given(
    edges=edge_dicts(st.sampled_from(pool)),
    pages=st.sets(st.sampled_from(pool), max_size=3),
    keep=st.lists(st.sampled_from(pool + absent), max_size=12),
)
def test_view_matches_dict_loops(edges, pages, keep):
    snapshot = snapshot_of(2010, edges)
    # page-only nodes join the way ``stats --node-pages`` adds them
    view = snapshot.induced({*snapshot.nodes, *pages})
    assert view.year == 2010
    endpoints = {n for pair in edges for n in pair}
    assert snapshot.nodes == tuple(sorted(endpoints))
    assert view.nodes == tuple(sorted(endpoints | pages))
    assert as_dicts(view) == reduce_by_loops(edges, set(view.nodes))

    induced = view.induced(keep)
    assert induced.nodes == tuple(sorted(set(keep)))
    assert as_dicts(induced) == reduce_by_loops(edges, set(keep))
    assert all(a.dtype.name == "int64" for a in (induced.src, induced.dst, induced.weight))


def test_total_weight_must_fit_int64(tmp_path):
    top = snapshot_of(2010, {("a.ac.uk", "b.ac.uk"): MAX_TOTAL_WEIGHT})
    assert [s.tolist() for s in top.strengths()] == [
        [MAX_TOTAL_WEIGHT, 0], [0, MAX_TOTAL_WEIGHT]
    ]
    with pytest.raises(ValueError):
        snapshot_of(2010, {("a.ac.uk", "b.ac.uk"): 2**62, ("b.ac.uk", "a.ac.uk"): 2**62})
    path = tmp_path / "snapshot_2010.tsv"
    path.write_text(f"#snapshot v1 year=2010\na.ac.uk\tb.ac.uk\t{2**63}\n")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def _raised(make):
    """The snapshot ``make()`` returns, or the message of its ValueError."""
    try:
        return make()
    except ValueError as exc:
        return str(exc)


@given(
    edges=st.lists(
        st.tuples(
            st.sampled_from(["", *pool]),
            st.sampled_from(["", *pool]),
            st.one_of(st.integers(-1, 3), st.integers(1, 2**62)),
        ),
        max_size=20,
    ),
    unused=st.sets(st.sampled_from(absent)),
    rnd=st.randoms(use_true_random=False),
)
def test_from_columns_matches_plain_reader(edges, unused, rnd):
    # valid and bad edges alike: weights below 1, self-loops, the empty name,
    # repeated pairs and totals beyond int64 fail for the reason that a plain
    # line loop gives for the same edges written as a snapshot file; there a
    # negative weight is no integer field, in the columns an invalid edge
    text = "#snapshot v1 year=2010" + "".join(f"\n{s}\t{t}\t{w}" for s, t, w in edges)
    try:
        _, expected = plain_snapshot(text.encode(), "file")
    except ValueError as exc:
        expected = re.sub(r"^bad weight '-\d+'$", "invalid edge record", str(exc).split(": ", 1)[1])
    names = sorted({n for s, t, _ in edges for n in (s, t)} | unused)
    rnd.shuffle(names)
    code = {name: i for i, name in enumerate(names)}
    src = np.array([code[s] for s, _, _ in edges], np.int64)
    dst = np.array([code[t] for _, t, _ in edges], np.int64)
    weight = np.array([w for _, _, w in edges], np.int64)
    got = _raised(lambda: YearSnapshot.from_columns(2010, names, src, dst, weight))
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, YearSnapshot), got
        assert got.nodes == tuple(sorted({n for pair in expected for n in pair}))
        assert list(got.edges.items()) == sorted(expected.items())
        assert all(a.dtype.name == "int64" for a in (got.src, got.dst, got.weight))


@pytest.mark.parametrize(
    "names, src, dst, weight, reason",
    [
        (["a", "b"], [0, 0], [1, 1], [1, 2], "duplicate edge record"),
        (["a", "b"], [0], [2], [1], "a name index is out of range"),
        (["a", "b"], [-1], [0], [1], "a name index is out of range"),
        (["a", "b", "a"], [0], [2], [1], "two name indices share a name"),
        (["a", "b"], [0], [1], np.array([1.0]), "weights of dtype float64 are not signed integers"),
        (["a", "b"], [0], [1], np.array([1], np.uint64), "weights of dtype uint64 are not signed integers"),
        (["a", "b"], [0, 1], [1], [1, 1], "the columns differ in length"),
        (["a", "b"], [0], [1], np.array([True]), "weights of dtype bool are not signed integers"),
        (["a", "b"], [0], [1], np.array([3], object), "weights of dtype object are not signed integers"),
        (["a", "b"], [0.0], [1], [1], "name indices of dtype float64 are not signed integers"),
        (["a", "b"], [0], np.array([True]), [1], "name indices of dtype bool are not signed integers"),
        (["a", "b"], np.array([0], object), [1], [1], "name indices of dtype object are not signed integers"),
        (["a", "b"], [0], np.array([1.0]), [1], "name indices of dtype float64 are not signed integers"),
        (["a", "b"], np.array([0], np.uint64), [1], [1], "name indices of dtype uint64 are not signed integers"),
    ],
)
def test_from_columns_rejects_what_a_mapping_cannot_hold(names, src, dst, weight, reason):
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        YearSnapshot.from_columns(2010, names, src, dst, weight)


@given(st.lists(st.text(st.sampled_from("\0gé\U0001f600"), max_size=3)))
@example(["g", "g\0", "g", "h", "g\0\0"])
def test_name_codes_match_a_plain_coding(names):
    # numpy's <U strings drop trailing NULs, so "g" and "g\0" would merge
    expected = sorted(set(names))
    distinct, codes = snapshot_module.name_codes(names)
    assert distinct == tuple(expected)
    assert codes.dtype == np.int64
    assert codes.tolist() == [expected.index(name) for name in names]


@pytest.mark.parametrize("year", [-5, -1, 2**63, 2010.0, True])
def test_from_columns_rejects_a_year_that_would_not_read_back(year):
    # write_snapshot puts str(year) in the header, and read_snapshot reads
    # it by the integer rule
    reason = f"year {year!r} is not 1 to 19 ASCII digits below 2**63"
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        YearSnapshot.from_columns(year, ["a", "b"], [0], [1], [1])


@pytest.mark.parametrize("year", [0, 2010, 2**63 - 1, np.int64(1999)])
def test_from_columns_years_read_back(tmp_path, year):
    snapshot = YearSnapshot.from_columns(year, ["a", "b"], [0], [1], [1])
    write_snapshot(snapshot, tmp_path / "snapshot.tsv")
    assert read_snapshot(tmp_path / "snapshot.tsv") == snapshot


@st.composite
def heavy_edge_dicts(draw, nodes):
    """Edge dicts whose total fits ``MAX_TOTAL_WEIGHT``, in about half of
    them with one weight of 18 or 19 digits, up to 2**63 - 1."""
    edges = draw(edge_dicts(nodes))
    if edges and draw(st.booleans()):
        pair = draw(st.sampled_from(sorted(edges)))
        rest = sum(edges.values()) - edges[pair]
        edges[pair] = draw(st.integers(10**18 - 1, MAX_TOTAL_WEIGHT - rest))
    return edges


@given(edges=heavy_edge_dicts(names))
@example(edges={("a", "b"): MAX_TOTAL_WEIGHT})
def test_round_trip_keeps_arrays_and_bytes(tmp_path_factory, edges):
    snapshot = snapshot_of(1999, edges)
    first = tmp_path_factory.mktemp("round") / "snapshot_1999.tsv"
    write_snapshot(snapshot, first)
    back = read_snapshot(first)
    assert back == snapshot
    assert back.nodes == tuple(sorted({n for pair in edges for n in pair}))
    assert back.edges == dict(sorted(edges.items()))
    second = first.with_name("again.tsv")
    write_snapshot(back, second)
    assert second.read_bytes() == first.read_bytes()


def corrupt(kind, source, target, weight, first_pair):
    """One snapshot line broken in the given way."""
    return {
        "fields": f"{source}\t{target}",
        "extra field": f"{source}\t{target}\t{weight}\t{weight}",
        "weight": f"{source}\t{target}\t{weight}x",
        "zero weight": f"{source}\t{target}\t0",
        "negative weight": f"{source}\t{target}\t-{weight}",
        "self-loop": f"{source}\t{source}\t{weight}",
        "empty source": f"\t{target}\t{weight}",
        "empty target": f"{source}\t\t{weight}",
        "duplicate": f"{first_pair[0]}\t{first_pair[1]}\t{weight}",
    }[kind]


@given(
    edges=edge_dicts(st.sampled_from(pool), min_size=2),
    kind=st.sampled_from(
        [
            "fields", "extra field", "weight", "zero weight", "negative weight",
            "self-loop", "empty source", "empty target", "duplicate",
        ]
    ),
    at=st.integers(min_value=1),
)
def test_first_bad_line_is_named(tmp_path_factory, edges, kind, at):
    lines = [f"{s}\t{t}\t{w}" for (s, t), w in sorted(edges.items())]
    i = at % (len(lines) - 1) + 1  # not the first line: a duplicate repeats it
    (s, t), w = sorted(edges.items())[i]
    lines[i] = corrupt(kind, s, t, w, lines[0].split("\t"))
    path = tmp_path_factory.mktemp("bad") / "snapshot_2010.tsv"
    path.write_text("#snapshot v1 year=2010\n" + "\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotFormatError, match=re.escape(f"{path}:{i + 2}: ")):
        read_snapshot(path)


@pytest.mark.parametrize("utf8_line, other_line", [(2, 4), (4, 2), (1, 3)])
def test_invalid_utf8_is_a_bad_line_in_file_order(tmp_path, utf8_line, other_line):
    # of a line that is not UTF-8 and a line with a bad weight, the first
    # one names the file's error; line 1 is the header
    lines = ["#snapshot v1 year=2010"] + [f"n{i}.ac.uk\tn{i + 1}.ac.uk\t{i + 1}" for i in range(4)]
    lines[other_line - 1] += "x"
    data = "\r\n".join(lines).encode() + b"\n"
    bad = data.split(b"\n")
    bad[utf8_line - 1] = bad[utf8_line - 1].replace(b"n", b"\xe9", 1)
    path = tmp_path / "snapshot_2010.tsv"
    path.write_bytes(b"\n".join(bad))
    first = min(utf8_line, other_line)
    reason = "invalid UTF-8" if first == utf8_line else "bad weight"
    with pytest.raises(SnapshotFormatError, match=re.escape(f"{path}:{first}: {reason}")):
        read_snapshot(path)


# int() reads each of these but the last: a sign, spaces, "_", other digits
@pytest.mark.parametrize("weight", ["+5", " 7", "1_0", "-0", "\u0663", "\uff11\uff12", str(2**63)])
def test_weights_are_ascii_digits_below_2_63(tmp_path, weight):
    path = tmp_path / "snapshot_2010.tsv"
    path.write_text(
        f"#snapshot v1 year=2010\na.ac.uk\tb.ac.uk\t3\nb.ac.uk\ta.ac.uk\t{weight}\n", encoding="utf-8"
    )
    with pytest.raises(SnapshotFormatError) as err:
        read_snapshot(path)
    assert str(err.value) == f"{path}:3: bad weight {weight!r}"


# --- the byte-level reader against a plain line loop ---

# names of 0 to 70 UTF-8 bytes, so that keys of several widths occur, with
# NUL, multi-byte characters and the breaks that str.splitlines knows; the
# names of more than 16 bytes that share their first 16 include some whose
# length order and byte order disagree, within a key width and across one
file_names = st.one_of(
    st.text(
        st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from(["", "\x00", "a\x00", "é" * 35, "\x0b\x85\u2028", "n\x00\x00"]),
    st.sampled_from(["n" * 16 + "b", "n" * 16 + "aa", "n" * 16 + "a" * 17]),
    st.integers(min_value=1, max_value=70).map(lambda n: "n" * n),
)
ODD_WEIGHTS = [
    "x", "0", "-0", "+3", "-4", " 7", "7 ", "1_000", "٣", "１２", "007", "", "1e3", "0x10",
    "1__0", str(2**63 - 1), str(2**63), str(-(2**63) - 1), "1" * 19, "9" * 30,
]
BAD_ROWS = [
    b"a\tb", b"", b"a\tb\t1\t2", b"\xff\tb\t1", b"a\t\xe9\t1", b"a\xc3\tb\t1", b"\xed\xa0\x80"
]
HEADERS = [b"#snapshot v1 year=2010"] * 19 + [
    b"#snapshot v1 year= 1999 ", "#snapshot v1 year=\u0662\u0660\u0661\u0660".encode(),
    b"#snapshot v1 year=-5", b"#snapshot v1 year=+5",
    b"#snapshot v2 year=1", b"#snapshot v1 year=x", b"", b"\xff"
]


@st.composite
def snapshot_files(draw):
    """Bytes of a snapshot file: distinct pairs in any order; in some files
    an edge or a line is broken, in a few there is only the header."""
    rnd = draw(st.randoms(use_true_random=False))
    pool = list(dict.fromkeys([*draw(st.lists(file_names, max_size=8)), "a", "b"]))
    pairs = [(s, t) for s in pool for t in pool if s != t]
    chosen = rnd.sample(pairs, rnd.randint(0, min(30, len(pairs))))
    # now and then weights near or beyond int64
    big = rnd.choice([2**62, 2**63 - 1, 2**63, 10**20]) if rnd.random() > 0.9 else None
    rows = [f"{s}\t{t}\t{big or rnd.randint(1, 2**40)}".encode() for s, t in chosen]
    for _ in range(rnd.choice([0, 0, 1, 2, 3])):
        kind = rnd.randrange(4)
        source, target = rnd.choice(pairs) if kind != 2 else (rnd.choice(pool),) * 2
        weight = rnd.choice(ODD_WEIGHTS) if kind == 1 else rnd.randint(1, 99)
        row = rnd.choice(BAD_ROWS) if kind == 0 else f"{source}\t{target}\t{weight}".encode()
        rows.insert(rnd.randint(0, len(rows)), row)
    breaks = [rnd.choice([b"\n", b"\r\n", b"\r"]) for _ in range(len(rows) + 1)]
    data = rnd.choice(HEADERS) + b"".join(brk + row for brk, row in zip(breaks, rows))
    return data + breaks[-1] if rnd.random() < 0.5 else data


def check_against_plain_line_loop(path, data):
    """Write ``data`` to ``path``: ``read_snapshot`` must give what
    ``plain_snapshot`` gives, the same edges or the same error message."""
    path.write_bytes(data)
    try:
        year, edges = plain_snapshot(data, path)
    except ValueError as exc:
        with pytest.raises(SnapshotFormatError) as err:
            read_snapshot(path)
        assert str(err.value) == str(exc)
        return
    got = read_snapshot(path)
    assert got.year == year
    assert got.nodes == tuple(sorted({n for pair in edges for n in pair}))
    assert list(got.edges.items()) == sorted(edges.items())
    assert all(a.dtype.name == "int64" for a in (got.src, got.dst, got.weight))


@settings(max_examples=600, deadline=None)
@given(data=snapshot_files())
def test_reader_matches_plain_line_loop(tmp_path_factory, data):
    check_against_plain_line_loop(tmp_path_factory.mktemp("diff") / "snapshot.tsv", data)


@pytest.mark.parametrize("block_bytes", [7, 64])
@settings(max_examples=600, deadline=None)
@given(data=snapshot_files())
def test_reader_matches_plain_line_loop_across_blocks(tmp_path_factory, block_bytes, data):
    # in blocks of a few bytes a \r\n falls across blocks, a lone \r ends
    # one, lines outgrow a block, and bad lines (weights beyond int64 among
    # them) and repeated pairs fall in later blocks than the lines they follow
    with mock.patch.object(snapshot_module, "_READ_BLOCK_BYTES", block_bytes):
        check_against_plain_line_loop(tmp_path_factory.mktemp("diff") / "snapshot.tsv", data)


# --- the numpy writer against an f-string per edge ---

# any name the format can carry, and the empty name, NUL, multi-byte and
# names far wider than the others
writer_names = st.one_of(
    file_names,
    st.integers(min_value=100, max_value=3000).map(lambda n: "é" * n),
    st.integers(min_value=1, max_value=400).map(lambda n: "\x00" * n),
)
writer_weights = st.one_of(
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=0, max_value=2**63 - 1),
    st.sampled_from([2**63 - 1, 10**18, 10**18 - 1, 10, 9]),
)


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(writer_names, unique=True, min_size=1, max_size=10).map(sorted),
    rows=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), writer_weights), max_size=60),
    year=st.integers(min_value=0, max_value=9999),
    block_bytes=st.sampled_from([1, 16, 64, 512, snapshot_module._WRITE_BLOCK_BYTES]),
)
def test_writer_matches_fstring_lines(tmp_path_factory, names, rows, year, block_bytes):
    # the plain constructor holds any rows, also those the edge rules reject
    # (the empty name, self-loops, weight 0); small blocks split the rows
    # over several padded matrices, and a wide name widens only its own
    nodes = tuple(names)
    src, dst, weight = (
        np.array([row[k] % len(nodes) if k < 2 else row[k] for row in rows], np.int64)
        for k in range(3)
    )
    path = tmp_path_factory.mktemp("write") / "snapshot.tsv"
    with mock.patch.object(snapshot_module, "_WRITE_BLOCK_BYTES", block_bytes):
        write_snapshot(YearSnapshot(year, nodes, src, dst, weight), path)
    assert path.read_bytes() == fstring_snapshot(year, nodes, src.tolist(), dst.tolist(), weight.tolist())


def test_snapshot_io_memory_per_edge(tmp_path):
    # 200k edges over 5,000 names of 11 to 36 bytes: the traced peak of a
    # write and of a read grows with the edges plus a block, not with the
    # file's 11.2 MB
    rng = np.random.default_rng(3)
    n = 5000
    names = [f"{'w' * (i % 26)}h{i:04d}.ac.uk" for i in range(n)]
    pairs = np.unique(rng.integers(0, n * n, 220_000))
    pairs = pairs[pairs // n != pairs % n][:200_000]
    weight = rng.integers(1, 10**6, len(pairs))
    snap = YearSnapshot.from_columns(2005, names, pairs // n, pairs % n, weight)
    path = tmp_path / "snapshot_2005.tsv"
    tracemalloc.start()
    try:
        write_snapshot(snap, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_snapshot(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == snap
    # measured: 3.6 MB (18 B per edge) to write, 11.1 MB (55 B per edge) to read
    edges = len(pairs)
    assert write_peak < 24 * edges + (2 << 20)
    assert read_peak < 64 * edges + (6 << 20)


def _collision_files(directory):
    """Snapshot files whose names share prefixes and lengths, valid and bad."""
    rng = random.Random(3)
    pool = sorted({p * n for p in ("a", "ab", "a\x00", "é") for n in (1, 3, 4, 9, 17)})
    files = []
    for k in range(6):
        edges = {}
        for _ in range(60):
            s, t = rng.sample(pool, 2)
            edges[(s, t)] = rng.randrange(1, 50)
        lines = [f"{s}\t{t}\t{w}" for (s, t), w in edges.items()]
        if k == 4:  # a repeated pair
            lines.insert(30, lines[5])
        if k == 5:  # an empty name
            lines.insert(40, f"\t{pool[0]}\t3")
        path = directory / f"snapshot_{k}.tsv"
        path.write_text("#snapshot v1 year=2010\n" + "\n".join(lines) + "\n", encoding="utf-8")
        files.append(path)
    return files


def _outcome(path):
    try:
        return read_snapshot(path)
    except SnapshotFormatError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "collide",
    [
        lambda words, lengths: np.zeros(len(lengths), np.uint64),
        lambda words, lengths: lengths.astype(np.uint64),
    ],
    ids=["every-hash-equal", "hash-is-length"],
)
def test_colliding_name_hashes_change_nothing(tmp_path, monkeypatch, collide):
    # with colliding hashes the interner groups each width's names exactly
    files = _collision_files(tmp_path)
    reference = [_outcome(path) for path in files]
    assert [isinstance(r, str) for r in reference] == [False] * 4 + [True] * 2
    monkeypatch.setattr(bytefields, "_hash", collide)
    assert [_outcome(path) for path in files] == reference
