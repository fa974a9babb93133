import hashlib
import math
import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chronoscope import centrality
from chronoscope.centrality import (
    MEASURES,
    CentralityTable,
    centrality_suite,
    write_centrality,
)
from chronoscope.errors import EmptyFilter
from graphs import snapshot_of
from oracles import brute_betweenness, eig_authority, solve_pagerank


def snap(edges, year=2010):
    return snapshot_of(year, edges)


def suite(edges, nodes=None):
    s = snap(edges)
    return centrality_suite(s, nodes or s.nodes)


def random_digraph(rng, n, density=0.4, max_weight=10):
    nodes = [f"n{i:02d}.ac.uk" for i in range(n)]
    edges = {}
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < density:
                edges[(u, v)] = rng.randint(1, max_weight)
    return nodes, edges


# --- spec examples ---

def test_directed_star():
    n = 6
    center = "hub.ac.uk"
    edges = {(f"leaf{i}.ac.uk", center): 1 for i in range(n - 1)}
    table = suite(edges)
    assert table.values["in_degree"][center] == n - 1
    assert table.values["in_strength"][center] == n - 1
    for i in range(n - 1):
        assert table.values["out_degree"][f"leaf{i}.ac.uk"] == 1


def test_three_cycle_pagerank_uniform():
    edges = {
        ("a.ac.uk", "b.ac.uk"): 1,
        ("b.ac.uk", "c.ac.uk"): 1,
        ("c.ac.uk", "a.ac.uk"): 1,
    }
    table = suite(edges)
    for node in ("a.ac.uk", "b.ac.uk", "c.ac.uk"):
        assert table.values["pagerank"][node] == pytest.approx(1 / 3, abs=1e-12)


def test_betweenness_five_node_weighted():
    rng = random.Random(5)
    nodes, edges = random_digraph(rng, 5, density=0.6)
    table = centrality_suite(snap(edges), nodes)
    expected = brute_betweenness(nodes, edges)
    for node in nodes:
        assert table.values["betweenness"][node] == pytest.approx(
            expected[node], abs=1e-9
        )


# --- oracle comparisons on random graphs ---

@pytest.mark.parametrize("seed", range(8))
def test_betweenness_matches_path_enumeration(seed):
    rng = random.Random(seed)
    nodes, edges = random_digraph(rng, rng.randint(3, 7), density=0.5)
    table = centrality_suite(snap(edges), nodes)
    expected = brute_betweenness(nodes, edges)
    for node in nodes:
        assert table.values["betweenness"][node] == pytest.approx(
            expected[node], abs=1e-9
        )


@pytest.mark.parametrize("seed", range(6))
def test_pagerank_matches_linear_solve(seed):
    rng = random.Random(100 + seed)
    nodes, edges = random_digraph(rng, rng.randint(2, 12))
    table = centrality_suite(snap(edges), nodes)
    expected = solve_pagerank(nodes, edges)
    for node in nodes:
        assert table.values["pagerank"][node] == pytest.approx(
            expected[node], abs=1e-9
        )
    assert sum(table.values["pagerank"].values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_authority_matches_eigenvector(seed):
    rng = random.Random(200 + seed)
    nodes, edges = random_digraph(rng, rng.randint(3, 10), density=0.5)
    if not edges:
        pytest.skip("empty draw")
    table = centrality_suite(snap(edges), nodes)
    expected = eig_authority(nodes, edges)
    # hubs of G are the authorities of G with every edge reversed
    expected_hub = eig_authority(nodes, {(v, u): w for (u, v), w in edges.items()})
    for node in nodes:
        assert table.values["authority"][node] == pytest.approx(
            expected[node], abs=1e-8
        )
        assert table.values["hub"][node] == pytest.approx(expected_hub[node], abs=1e-8)


def test_strengths_sum_incident_weights():
    rng = random.Random(17)
    nodes, edges = random_digraph(rng, 8)
    table = centrality_suite(snap(edges), nodes)
    for node in nodes:
        assert table.values["out_strength"][node] == sum(
            w for (u, _), w in edges.items() if u == node
        )
        assert table.values["in_strength"][node] == sum(
            w for (_, v), w in edges.items() if v == node
        )


# --- path-measure semantics ---

def test_chain_closeness_and_harmonic():
    edges = {("a.ac.uk", "b.ac.uk"): 1, ("b.ac.uk", "c.ac.uk"): 1}
    table = suite(edges)
    # incoming distances to c: 1 from b, 2 from a
    assert table.values["harmonic"]["c.ac.uk"] == pytest.approx(1.5)
    assert table.values["closeness"]["c.ac.uk"] == pytest.approx((2 / 2) * (2 / 3))
    assert table.values["closeness"]["a.ac.uk"] == 0.0
    assert table.values["betweenness"]["b.ac.uk"] == pytest.approx(1.0)


def test_heavier_edges_are_shorter():
    # two routes a->c: direct weight 1 (length 1) vs via b with weights 4,4
    # (length 0.5); the detour wins, so b lies on the shortest path
    edges = {
        ("a.ac.uk", "c.ac.uk"): 1,
        ("a.ac.uk", "b.ac.uk"): 4,
        ("b.ac.uk", "c.ac.uk"): 4,
    }
    table = suite(edges)
    assert table.values["betweenness"]["b.ac.uk"] == pytest.approx(1.0)
    # with unit weights (unit lengths) the direct edge wins instead
    unit = suite(dict.fromkeys(edges, 1))
    assert unit.values["betweenness"]["b.ac.uk"] == 0.0


# --- invariants ---

@pytest.mark.parametrize("c", [2, 10, 1000])
def test_rank_vectors_invariant_under_weight_scaling(c):
    rng = random.Random(31)
    nodes, edges = random_digraph(rng, 15, density=0.3)
    base = centrality_suite(snap(edges), nodes)
    scaled = centrality_suite(
        snap({pair: w * c for pair, w in edges.items()}), nodes
    )
    for name in ("in_strength", "out_strength", "pagerank", "hub", "authority"):
        # nodes most-central first; ties break on node name
        base_order = sorted(nodes, key=lambda v: (-base.values[name][v], v))
        scaled_order = sorted(nodes, key=lambda v: (-scaled.values[name][v], v))
        assert base_order == scaled_order


def test_isolated_nodes_get_zeroes():
    edges = {("a.ac.uk", "b.ac.uk"): 3}
    table = centrality_suite(snap(edges), ["a.ac.uk", "b.ac.uk", "lonely.ac.uk"])
    for name in MEASURES:
        assert table.values[name]["lonely.ac.uk"] == pytest.approx(
            0.0 if name != "pagerank" else table.values["pagerank"]["lonely.ac.uk"]
        )
    assert table.values["pagerank"]["lonely.ac.uk"] > 0  # teleport mass


def test_empty_filter_rejected():
    with pytest.raises(EmptyFilter):
        centrality_suite(snap({("a.ac.uk", "b.ac.uk"): 1}), [])


def test_filter_restricts_to_induced_subgraph():
    edges = {
        ("a.ac.uk", "b.ac.uk"): 5,
        ("a.ac.uk", "x.co.uk"): 100,
        ("x.co.uk", "b.ac.uk"): 100,
    }
    table = centrality_suite(snap(edges), ["a.ac.uk", "b.ac.uk"])
    assert table.values["out_strength"]["a.ac.uk"] == 5
    assert table.values["in_strength"]["b.ac.uk"] == 5


def test_deterministic_for_equal_inputs():
    rng = random.Random(77)
    nodes, edges = random_digraph(rng, 10)
    a = centrality_suite(snap(edges), nodes)
    b = centrality_suite(snap(dict(reversed(list(edges.items())))), nodes)
    assert a == b


def test_csv_output(tmp_path):
    table = suite({("a.ac.uk", "b.ac.uk"): 2})
    out = tmp_path / "centrality_2010.csv"
    write_centrality(table, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "node," + ",".join(MEASURES)
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "a.ac.uk"


# --- networkx as a test-only oracle ---

@pytest.mark.parametrize("mode", ["inverse-weight", "unit"])
@pytest.mark.parametrize("seed", range(6))
def test_path_measures_match_networkx(seed, mode):
    nx = pytest.importorskip("networkx")
    rng = random.Random(300 + seed)
    n = rng.randint(4, 30)
    nodes = [f"n{i:02d}.ac.uk" for i in range(n)]
    pairs = [(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.15]
    # distinct weights make exact path ties unlikely (both sides test ties by float ==)
    edges = dict(zip(pairs, rng.sample(range(1, 10**6 + 1), len(pairs))))
    if mode == "unit":
        edges = dict.fromkeys(pairs, 1)
    table = centrality_suite(snap(edges), nodes)
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    for (u, v), w in edges.items():
        graph.add_edge(u, v, length=1.0 / w if mode == "inverse-weight" else 1.0)
    expected = {
        "betweenness": nx.betweenness_centrality(graph, weight="length", normalized=False),
        # networkx uses incoming distances on digraphs for both, as the suite does
        "closeness": nx.closeness_centrality(graph, distance="length"),
        "harmonic": nx.harmonic_centrality(graph, distance="length"),
    }
    for name, want in expected.items():
        for node in nodes:
            assert table.values[name][node] == pytest.approx(
                want[node], rel=1e-9, abs=1e-12
            ), (name, node)


@pytest.mark.parametrize("seed", range(8))
def test_betweenness_ties_across_hop_counts(seed):
    # lengths 1, 1/2, 1/4 add up exactly, so paths with different numbers of
    # hops tie (1/2 + 1/2 == 1): a node's path count must be complete before
    # it passes the count on
    rng = random.Random(400 + seed)
    nodes = [f"n{i}.ac.uk" for i in range(rng.randint(6, 9))]
    edges = {
        (u, v): rng.choice((1, 2, 4))
        for u in nodes
        for v in nodes
        if u != v and rng.random() < 0.4
    }
    table = centrality_suite(snap(edges), nodes)
    expected = brute_betweenness(nodes, edges)
    for node in nodes:
        assert table.values["betweenness"][node] == pytest.approx(
            expected[node], abs=1e-9
        )


def test_unreachable_component_is_not_on_any_path():
    # x, y, z form a cycle that feeds a -> b -> c, but a, b and c never reach
    # back: from them d(x) = d(y) = inf, and inf + length == inf must not make
    # the x -> y edge a shortest-path edge (its sigma would be 0)
    edges = {
        ("x.ac.uk", "y.ac.uk"): 3,
        ("y.ac.uk", "z.ac.uk"): 1,
        ("z.ac.uk", "x.ac.uk"): 2,
        ("y.ac.uk", "a.ac.uk"): 5,
        ("a.ac.uk", "b.ac.uk"): 4,
        ("b.ac.uk", "c.ac.uk"): 7,
        ("x.ac.uk", "c.ac.uk"): 1,
    }
    nodes = sorted({v for pair in edges for v in pair})
    table = centrality_suite(snap(dict.fromkeys(edges, 1)), nodes)
    expected = brute_betweenness(nodes, dict.fromkeys(edges, 1))
    for node in nodes:
        assert table.values["betweenness"][node] == pytest.approx(
            expected[node], abs=1e-12
        )
        for name in MEASURES:
            assert math.isfinite(table.values[name][node])
    # a -> c, plus half of y -> c (y-a-b-c ties y-z-x-c at three hops)
    assert table.values["betweenness"]["b.ac.uk"] == 1.5


# --- the two Dijkstra relax forms ---

@st.composite
def kernel_graphs(draw):
    """A digraph drawn from a seed: density on both sides of the dense-relax
    threshold, small weights that tie exactly or wide ones, and optionally
    a cut that the upper node half never crosses back."""
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.4, 0.7, 1.0]))
    max_weight = draw(st.sampled_from([1, 4, 10**6]))
    cut = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nodes = [f"n{i:02d}.ac.uk" for i in range(n)]
    edges = {
        (u, v): rng.randint(1, max_weight)
        for i, u in enumerate(nodes)
        for j, v in enumerate(nodes)
        if i != j and not (cut and j < n // 2 <= i) and rng.random() < density
    }
    return nodes, edges, max_weight


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=kernel_graphs())
def test_dense_and_csr_relax_agree_bitwise(monkeypatch, graph):
    nodes, edges, max_weight = graph
    # the path measures alone: HITS may give up on these graphs, as the strict
    # xfail bench/test_bench.py::test_cli_hits_on_two_near_equal_stars pins
    g = snap(edges).induced(nodes)
    columns = []
    for density in (0.0, math.inf):  # dense rows always, never
        monkeypatch.setattr(centrality, "_DENSE_RELAX_DENSITY", density)
        columns.append(centrality._path_measures(g.src, g.dst, 1.0 / g.weight, len(nodes)))
    for dense, csr in zip(*columns):
        assert dense.tobytes() == csr.tobytes()
    # lengths 1/3 tie exactly but not in floats (the strict xfail
    # bench/test_bench.py::test_cli_betweenness_splits_exact_ties pins this),
    # so the float-== oracle checks unit and wide weights only
    if len(nodes) <= 7 and max_weight != 4:
        expected = brute_betweenness(nodes, edges)
        assert columns[0][0] == pytest.approx([expected[v] for v in g.nodes], abs=1e-9)


def _digest(table):
    columns = (
        np.array([table.values[name][v] for v in table.nodes], "<f8")
        for name in ("betweenness", "closeness", "harmonic")
    )
    return hashlib.sha256(b"".join(c.tobytes() for c in columns)).hexdigest()


def test_path_measures_are_byte_identical_to_recorded_digests():
    # the relax and the successor order may change; the floats may not
    rng = random.Random(14)
    nodes = [f"n{i:03d}.ac.uk" for i in range(90)]
    complete = {(u, v): rng.randint(1, 9) for u in nodes for v in nodes if u != v}
    nodes = [f"n{i:03d}.ac.uk" for i in range(400)]
    sparse = {(u, v): 1 for u in nodes for v in nodes if u != v and rng.random() < 0.008}
    # lengths of 2**-56 to 2**-54 vanish when added to a distance of 1 or
    # more, so nodes settled in different Dijkstra steps tie: the successor
    # order must still treat them as one distance
    rng = random.Random(542)
    nodes = [f"n{i:02d}.ac.uk" for i in range(13)]
    absorbed = {
        (u, v): rng.choice((1, 2, 3)) if rng.random() < 0.6 else rng.randint(2**54, 2**56)
        for u in nodes
        for v in nodes
        if u != v and rng.random() < 0.3
    }
    assert [_digest(suite(edges)) for edges in (complete, sparse, absorbed)] == [
        "785b3b0b26968ea7238ce568c6ffc73362dd2dac235b89ed048875c0dc2c0ec6",
        "ab082bb1f97a5fc529efda6e5e3e0611e603a2737ee711cc2b8ad6b5fd9f51fe",
        "4e646fdac2f29f0184744ea0f3ee87f0389547115d50db7024dc401be9c3a574",
    ]


def _loop_add(total, rows):
    for row in rows:
        total += row


def test_block_sums_equal_the_per_source_loop(monkeypatch):
    # each block's rows are added with one reduction; the sums must be
    # bitwise those of adding one source's row at a time
    rng = np.random.default_rng(15)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        total = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        k = int(rng.integers(1, n + 1))  # a block has at most n rows
        rows = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-8, 8, (1, n))
        expected, got = total.copy(), total.copy()
        _loop_add(expected, rows)
        centrality._add_rows(got, rows)
        assert got.tobytes() == expected.tobytes()
    # a dense graph, and a sparse one whose sources span two blocks
    graphs = random_digraph(random.Random(15), 40, 0.7), random_digraph(random.Random(16), 300, 0.01, 1)
    for nodes, edges in graphs:
        g = snap(edges).induced(nodes)
        args = g.src, g.dst, 1.0 / g.weight, len(g.nodes)
        blocked = centrality._path_measures(*args)
        monkeypatch.setattr(centrality, "_add_rows", _loop_add)
        looped = centrality._path_measures(*args)
        monkeypatch.undo()
        assert [c.tobytes() for c in blocked] == [c.tobytes() for c in looped]
