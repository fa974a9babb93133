import random

import pytest
from hypothesis import given, strategies as st

from chronoscope.domains import SuffixPolicy, default_policy
from chronoscope.errors import UnknownSld
from chronoscope.sldstats import (
    inter_sld_flows,
    node_counts_by_sld,
    sld_cells,
    within_sld_links_per_node,
    write_flows,
    write_sld_series,
)
from graphs import snapshot_of
from oracles import brute_sld_stats

POLICY = default_policy()


def snap(edges, year=2010, node_pages=()):
    """SLD cells of the edges, plus page-only nodes as ``stats --node-pages`` adds them."""
    view = snapshot_of(year, edges)
    return sld_cells(view.induced({*view.nodes, *node_pages}), POLICY)


def test_node_counts_direct():
    s = snap({("a.ac.uk", "b.ac.uk"): 1, ("c.co.uk", "a.ac.uk"): 1})
    stats = node_counts_by_sld(s)
    assert stats.counts == {"ac.uk": 2, "co.uk": 1}
    assert stats.shares["ac.uk"] == pytest.approx(2 / 3)
    assert stats.shares["co.uk"] == pytest.approx(1 / 3)


def test_node_counts_empty_snapshot():
    stats = node_counts_by_sld(snap({}))
    assert stats.total_nodes == 0
    assert stats.counts == {} and stats.shares == {}


def test_node_counts_include_page_only_nodes():
    s = snap({("a.ac.uk", "b.ac.uk"): 1}, node_pages={"d.gov.uk": 12})
    stats = node_counts_by_sld(s)
    assert stats.counts == {"ac.uk": 2, "gov.uk": 1}


def test_unregistered_suffix_lands_in_other():
    s = snap({("a.ac.uk", "weird.uk"): 1})
    stats = node_counts_by_sld(s)
    assert stats.counts == {"ac.uk": 1, "other": 1}


def test_links_per_node_simple():
    s = snap(
        {
            ("a.ac.uk", "b.ac.uk"): 4,
            ("b.ac.uk", "c.ac.uk"): 2,
        }
    )
    assert within_sld_links_per_node(s, "ac.uk") == pytest.approx(2.0)


def test_links_per_node_no_internal_edges():
    s = snap({("a.ac.uk", "b.co.uk"): 3, ("c.ac.uk", "b.co.uk"): 1})
    assert within_sld_links_per_node(s, "ac.uk") == 0.0


def test_links_per_node_excludes_cross_sld_edges():
    # six nodes; brute-force the within-ac.uk total by filtering edges
    edges = {
        ("a.ac.uk", "b.ac.uk"): 5,
        ("b.ac.uk", "a.ac.uk"): 1,
        ("a.ac.uk", "x.co.uk"): 7,
        ("x.co.uk", "y.co.uk"): 2,
        ("y.co.uk", "c.ac.uk"): 9,
        ("c.ac.uk", "z.gov.uk"): 4,
    }
    s = snap(edges)
    internal = sum(
        w
        for (src, tgt), w in edges.items()
        if src.endswith(".ac.uk") and tgt.endswith(".ac.uk")
    )
    ac_nodes = {n for e in edges for n in e if n.endswith(".ac.uk")}
    expected = internal / len(ac_nodes)
    assert within_sld_links_per_node(s, "ac.uk") == pytest.approx(expected)
    # distinct mode counts edges, not weight
    assert within_sld_links_per_node(s, "ac.uk", distinct=True) == (
        pytest.approx(2 / 3)
    )


def test_links_per_node_unknown_sld():
    with pytest.raises(UnknownSld):
        within_sld_links_per_node(snap({}), "weird.uk")


def test_flows_absolute_and_normalized():
    s = snap(
        {
            ("a.co.uk", "x.org.uk"): 6,
            ("b.co.uk", "x.org.uk"): 4,
            ("a.co.uk", "b.co.uk"): 2,
        }
    )
    # org.uk has 1 node, co.uk has 2
    flows = inter_sld_flows(s, include_self=False)
    assert flows.absolute == {("co.uk", "org.uk"): 10}
    assert flows.normalized[("co.uk", "org.uk")] == pytest.approx(10.0)
    # diagonal kept in normalized view even when excluded from absolute
    assert ("co.uk", "co.uk") not in flows.absolute
    assert flows.normalized[("co.uk", "co.uk")] == pytest.approx(1.0)


def test_flows_include_self_conserves_total():
    edges = {("a.co.uk", "b.co.uk"): 3, ("b.co.uk", "x.ac.uk"): 5}
    flows = inter_sld_flows(snap(edges), include_self=True)
    assert sum(flows.absolute.values()) == sum(edges.values())


def test_flows_empty_graph():
    flows = inter_sld_flows(snap({}))
    assert flows.absolute == {} and flows.normalized == {}


sld_nodes = st.sampled_from(
    ["a.ac.uk", "b.ac.uk", "c.co.uk", "d.co.uk", "e.gov.uk", "f.org.uk", "g.uk"]
)
random_edges = st.dictionaries(
    st.tuples(sld_nodes, sld_nodes).filter(lambda p: p[0] != p[1]),
    st.integers(min_value=1, max_value=99),
    max_size=15,
)


@given(edges=random_edges)
def test_shares_sum_to_one(edges):
    stats = node_counts_by_sld(snap(edges))
    if stats.total_nodes:
        assert abs(sum(stats.shares.values()) - 1.0) <= 1e-12
    else:
        assert stats.shares == {}


@given(edges=random_edges)
def test_flow_total_matches_weight(edges):
    flows = inter_sld_flows(snap(edges), include_self=True)
    assert sum(flows.absolute.values()) == sum(edges.values())
    for cell, total in flows.absolute.items():
        nodes = flows.node_counts[cell[1]]
        assert abs(flows.normalized[cell] * nodes - total) <= 1e-9 * max(total, 1)


@given(edges=random_edges, extra_weight=st.integers(min_value=1, max_value=50))
def test_adding_an_edge_never_decreases_cells(edges, extra_weight):
    s = snap(edges)
    before = inter_sld_flows(s, include_self=True).absolute
    grown = dict(edges)
    pair = ("zz.ac.uk", "yy.org.uk")
    grown[pair] = grown.get(pair, 0) + extra_weight
    after = inter_sld_flows(snap(grown), include_self=True).absolute
    for cell, total in before.items():
        assert after.get(cell, 0) >= total


hosts = st.sampled_from(
    ["a.ac.uk", "b.ac.uk", "ac.uk", "w.x.ac.uk", "c.co.uk", "e.gov.uk",
     "f.org.uk", "g.uk", "net.uk", "n.net.uk", "m.net.uk", "q.com"]
)


@given(
    edges=st.dictionaries(
        st.tuples(hosts, hosts).filter(lambda p: p[0] != p[1]),
        st.integers(min_value=1, max_value=2**40),
        max_size=25,
    ),
    pages=st.sets(hosts, max_size=3),
)
def test_stats_match_bruteforce_oracle(edges, pages):
    view = snapshot_of(2010, edges)
    view = view.induced({*view.nodes, *pages})
    nodes = {n for pair in edges for n in pair} | pages
    for policy in (POLICY, SuffixPolicy("uk", frozenset({"ac.uk", "net.uk"}))):
        s = sld_cells(view, policy)
        counts, within, cells = brute_sld_stats(edges, nodes, policy.registered_slds)
        for include_self in (False, True):
            flows = inter_sld_flows(s, include_self=include_self)
            assert flows.node_counts == counts
            assert flows.absolute == {
                c: w for c, w in cells.items() if include_self or c[0] != c[1]
            }
            assert flows.normalized == {c: w / counts[c[1]] for c, w in cells.items()}
        for (sld, distinct), expected in within.items():
            assert within_sld_links_per_node(s, sld, distinct=distinct) == expected
        stats = node_counts_by_sld(s)
        assert stats.counts == counts and stats.total_nodes == len(nodes)
        assert stats.shares == {sld: c / len(nodes) for sld, c in counts.items()}


def test_csv_emission(tmp_path):
    s = snap({("a.ac.uk", "b.ac.uk"): 2, ("b.ac.uk", "c.co.uk"): 1})
    series_path = tmp_path / "sld_series.csv"
    write_sld_series([node_counts_by_sld(s)], series_path)
    lines = series_path.read_text().splitlines()
    assert lines[0] == "year,sld,node_count,share"
    assert lines[1].startswith("2010,ac.uk,2,")

    flows_path = tmp_path / "flows_2010.csv"
    write_flows(inter_sld_flows(s, include_self=False), flows_path)
    lines = flows_path.read_text().splitlines()
    assert lines[0] == "source_sld,target_sld,absolute,normalized"
    # excluded diagonal keeps normalized value with empty absolute field
    diag = [l for l in lines if l.startswith("ac.uk,ac.uk,")]
    assert diag and diag[0].split(",")[2] == ""


def test_empty_stats_csvs_have_header_only(tmp_path):
    series_path = tmp_path / "sld_series.csv"
    write_sld_series([], series_path)
    assert series_path.read_text() == "year,sld,node_count,share\n"
    flows_path = tmp_path / "flows.csv"
    write_flows(inter_sld_flows(snap({})), flows_path)
    assert flows_path.read_text() == "source_sld,target_sld,absolute,normalized\n"
