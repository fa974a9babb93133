import pytest
from hypothesis import given, strategies as st

from chronoscope.errors import SnapshotFormatError
from chronoscope.snapshot import MAX_TOTAL_WEIGHT, YearSnapshot, read_snapshot

pool = [f"n{i}.ac.uk" for i in range(8)]
absent = ["gone.ac.uk", "zz.ac.uk"]  # never in a snapshot


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
    edges=st.dictionaries(
        st.tuples(st.sampled_from(pool), st.sampled_from(pool)).filter(lambda p: p[0] != p[1]),
        st.integers(min_value=1, max_value=2**40),
        max_size=30,
    ),
    pages=st.sets(st.sampled_from(pool), max_size=3),
    keep=st.lists(st.sampled_from(pool + absent), max_size=12),
)
def test_view_matches_dict_loops(edges, pages, keep):
    snapshot = YearSnapshot(2010, edges, dict.fromkeys(pages, 5))
    view = snapshot.indexed
    assert view.year == 2010
    endpoints = {n for pair in edges for n in pair}
    assert view.nodes == tuple(sorted(endpoints | pages))
    assert as_dicts(view) == reduce_by_loops(edges, set(view.nodes))

    induced = view.induced(keep)
    assert induced.nodes == tuple(sorted(set(keep)))
    assert as_dicts(induced) == reduce_by_loops(edges, set(keep))
    assert all(a.dtype.name == "int64" for a in (induced.src, induced.dst, induced.weight))


def test_indexed_is_built_once():
    snapshot = YearSnapshot(2010, {("a.ac.uk", "b.ac.uk"): 3})
    assert snapshot.indexed is snapshot.indexed


def test_total_weight_must_fit_int64(tmp_path):
    top = YearSnapshot(2010, {("a.ac.uk", "b.ac.uk"): MAX_TOTAL_WEIGHT})
    assert [s.tolist() for s in top.indexed.strengths()] == [
        [MAX_TOTAL_WEIGHT, 0], [0, MAX_TOTAL_WEIGHT]
    ]
    with pytest.raises(ValueError):
        YearSnapshot(2010, {("a.ac.uk", "b.ac.uk"): 2**62, ("b.ac.uk", "a.ac.uk"): 2**62})
    path = tmp_path / "snapshot_2010.tsv"
    path.write_text(f"#snapshot v1 year=2010\na.ac.uk\tb.ac.uk\t{2**63}\n")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)
