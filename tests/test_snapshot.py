import re

import pytest
from hypothesis import given, strategies as st

from chronoscope.errors import SnapshotFormatError
from chronoscope.snapshot import MAX_TOTAL_WEIGHT, YearSnapshot, read_snapshot, write_snapshot

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
