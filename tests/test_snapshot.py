import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chronoscope import bytefields
from chronoscope.errors import SnapshotFormatError
from chronoscope.snapshot import MAX_TOTAL_WEIGHT, YearSnapshot, read_snapshot, write_snapshot
from oracles import plain_snapshot

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
    snapshot = YearSnapshot.from_edges(2010, edges)
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


@pytest.mark.parametrize(
    "weight", [1.5, 2.0, 0.9, np.float64(2.0), "3", b"3", True, np.bool_(True), None],
    ids=repr,
)
def test_from_edges_rejects_weights_that_are_not_integers(weight):
    # a weight is never cast: the file reader rejects the text 1.5 too
    edges = {("a.ac.uk", "b.ac.uk"): 1, ("b.ac.uk", "a.ac.uk"): weight}
    with pytest.raises(ValueError, match=re.escape(f"weight {weight!r} is not an integer")):
        YearSnapshot.from_edges(2010, edges)


def test_from_edges_takes_python_and_numpy_integers():
    edges = {
        ("a.ac.uk", "b.ac.uk"): np.uint8(3),
        ("b.ac.uk", "a.ac.uk"): np.int32(2),
        ("b.ac.uk", "c.ac.uk"): 2**40,
    }
    assert YearSnapshot.from_edges(2010, edges).weight.tolist() == [3, 2, 2**40]


def test_total_weight_must_fit_int64(tmp_path):
    top = YearSnapshot.from_edges(2010, {("a.ac.uk", "b.ac.uk"): MAX_TOTAL_WEIGHT})
    assert [s.tolist() for s in top.strengths()] == [
        [MAX_TOTAL_WEIGHT, 0], [0, MAX_TOTAL_WEIGHT]
    ]
    with pytest.raises(ValueError):
        YearSnapshot.from_edges(
            2010, {("a.ac.uk", "b.ac.uk"): 2**62, ("b.ac.uk", "a.ac.uk"): 2**62}
        )
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
    edges=st.dictionaries(
        st.tuples(st.sampled_from(["", *pool]), st.sampled_from(["", *pool])),
        st.one_of(st.integers(-1, 3), st.integers(1, 2**62)),
        max_size=20,
    ),
    unused=st.sets(st.sampled_from(absent)),
    rnd=st.randoms(use_true_random=False),
)
def test_from_columns_matches_from_edges(edges, unused, rnd):
    # valid and bad edges alike: weights below 1, self-loops, the empty name
    # and totals beyond int64 fail the same check at the same edge
    names = sorted({n for pair in edges for n in pair} | unused)
    rnd.shuffle(names)
    code = {name: i for i, name in enumerate(names)}
    src = np.array([code[s] for s, _ in edges], np.int64)
    dst = np.array([code[t] for _, t in edges], np.int64)
    weight = np.array(list(edges.values()), np.int64)
    got = _raised(lambda: YearSnapshot.from_columns(2010, names, src, dst, weight))
    assert got == _raised(lambda: YearSnapshot.from_edges(2010, edges))
    if isinstance(got, YearSnapshot):
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
    ],
)
def test_from_columns_rejects_what_a_mapping_cannot_hold(names, src, dst, weight, reason):
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        YearSnapshot.from_columns(2010, names, src, dst, weight)


@given(edges=edge_dicts(names))
def test_round_trip_keeps_arrays_and_bytes(tmp_path_factory, edges):
    snapshot = YearSnapshot.from_edges(1999, edges)
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


# --- the byte-level reader against a plain line loop ---

# names of 0 to 70 UTF-8 bytes, so that keys of several widths occur, with
# NUL, multi-byte characters and the breaks that str.splitlines knows
file_names = st.one_of(
    st.text(
        st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from(["", "\x00", "a\x00", "é" * 35, "\x0b\x85\u2028", "n\x00\x00"]),
    st.integers(min_value=1, max_value=70).map(lambda n: "n" * n),
)
ODD_WEIGHTS = [
    "x", "0", "-0", "+3", "-4", " 7", "7 ", "1_000", "٣", "１２", "007", "", "1e3", "0x10",
    "1__0", str(2**63 - 1), str(2**63), str(-(2**63) - 1), "1" * 19, "9" * 30,
]
BAD_ROWS = [
    b"a\tb", b"", b"a\tb\t1\t2", b"\xff\tb\t1", b"a\t\xe9\t1", b"a\xc3\tb\t1", b"\xed\xa0\x80"
]
HEADERS = [b"#snapshot v1 year=2010"] * 12 + [
    b"#snapshot v1 year= 1999 ", b"#snapshot v2 year=1", b"#snapshot v1 year=x", b"", b"\xff"
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


@settings(max_examples=600, deadline=None)
@given(data=snapshot_files())
def test_reader_matches_plain_line_loop(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("diff") / "snapshot.tsv"
    path.write_bytes(data)
    try:
        year, edges = plain_snapshot(data, path)
    except ValueError as exc:
        with pytest.raises(SnapshotFormatError) as err:
            read_snapshot(path)
        assert str(err.value) == str(exc)
        return
    snapshot = read_snapshot(path)
    assert snapshot.year == year
    assert snapshot.nodes == tuple(sorted({n for pair in edges for n in pair}))
    assert list(snapshot.edges.items()) == sorted(edges.items())
    assert all(a.dtype.name == "int64" for a in (snapshot.src, snapshot.dst, snapshot.weight))


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
