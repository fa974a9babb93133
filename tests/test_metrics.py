import math
import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from chronoscope.centrality import MEASURES, centrality_suite
from chronoscope.errors import (
    DegenerateInput,
    EmptyGraph,
    InsufficientOverlap,
    LengthMismatch,
    MalformedLine,
    TooFewMembers,
)
from chronoscope.metrics import (
    UNAFFILIATED,
    group_internal_density,
    modularity,
    rank_centrality_vs_league,
    read_node_list,
    read_partition,
    read_ranking,
    spearman_rank_correlation,
    write_correlations,
    write_modularity,
)
from graphs import snapshot_of
from oracles import brute_modularity


def snap(edges, year=2010):
    return snapshot_of(year, edges)


# --- Spearman ---

def test_spearman_identical_orders():
    assert spearman_rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)


def test_spearman_reversed_orders():
    assert spearman_rank_correlation([1, 2, 3], [9, 5, 1]) == pytest.approx(-1.0)


def test_spearman_frozen_example():
    # ranks (1,2,3) vs (1,3,2): 1 - 6*2/(3*8) = 0.5
    assert spearman_rank_correlation([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_spearman_errors():
    with pytest.raises(LengthMismatch):
        spearman_rank_correlation([1, 2], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        spearman_rank_correlation([1], [2])
    with pytest.raises(DegenerateInput):
        spearman_rank_correlation([3, 3, 3], [1, 2, 3])


@pytest.mark.parametrize("seed", range(10))
def test_spearman_matches_scipy_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    xs = rng.integers(0, max(2, n // 3), size=n).astype(float)
    ys = rng.integers(0, max(2, n // 3), size=n).astype(float)
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return
    expected = stats.spearmanr(xs, ys).statistic
    assert spearman_rank_correlation(xs, ys) == pytest.approx(expected, abs=1e-12)


@given(
    xs=st.lists(st.integers(-50, 50), min_size=2, max_size=40),
    ys=st.lists(st.integers(-50, 50), min_size=2, max_size=40),
)
def test_spearman_bounds_and_monotone_invariance(xs, ys):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return
    rho = spearman_rank_correlation(xs, ys)
    assert -1.0 - 1e-12 <= rho <= 1.0 + 1e-12
    stretched = spearman_rank_correlation([3.0 * x + 7 for x in xs], ys)
    assert stretched == pytest.approx(rho, abs=1e-12)
    cubed = spearman_rank_correlation([x**3 for x in xs], ys)
    assert cubed == pytest.approx(rho, abs=1e-12)


# --- league correlation ---

def table_from(edges, nodes):
    return centrality_suite(snap(edges), nodes)


def test_league_all_measures_perfect_on_aligned_table():
    from chronoscope.centrality import CentralityTable

    nodes = tuple(f"u{i}.ac.uk" for i in range(6))
    values = {
        name: {node: float(len(nodes) - i) for i, node in enumerate(nodes)}
        for name in MEASURES
    }
    table = CentralityTable(2010, nodes, values)
    ranking = {node: i + 1 for i, node in enumerate(nodes)}
    result = rank_centrality_vs_league(table, ranking)
    assert result.n_overlap == 6
    for name in MEASURES:
        assert result.rho[name] == pytest.approx(1.0)


def test_league_insufficient_overlap():
    table = table_from({("a.ac.uk", "b.ac.uk"): 1}, ["a.ac.uk", "b.ac.uk"])
    with pytest.raises(InsufficientOverlap):
        rank_centrality_vs_league(table, {"a.ac.uk": 1, "zz.ac.uk": 2})


def test_league_planted_in_strength_coupling():
    # plant in-strength to track league rank with mild noise, then check the
    # pipeline value against the tie-free 6*sum(d^2) closed form
    rng = random.Random(11)
    n = 40
    nodes = [f"u{i:02d}.ac.uk" for i in range(n)]
    ranks = {node: i + 1 for i, node in enumerate(nodes)}
    feeder = "feeder.ac.uk"
    strengths = {}
    while len(set(strengths.values())) < n:  # keep it tie-free
        strengths = {
            node: max(1, 1000 - 20 * ranks[node] + rng.randint(-90, 90))
            for node in nodes
        }
    edges = {(feeder, node): s for node, s in strengths.items()}
    table = centrality_suite(snap(edges), nodes + [feeder])
    result = rank_centrality_vs_league(table, ranks)
    assert result.dropped_from_table == 1  # the feeder has no rank

    order = sorted(nodes, key=lambda v: -strengths[v])
    centrality_rank = {node: i + 1 for i, node in enumerate(order)}
    d2 = sum((centrality_rank[v] - ranks[v]) ** 2 for v in nodes)
    expected = 1 - 6 * d2 / (n * (n * n - 1))
    assert result.rho["in_strength"] == pytest.approx(expected, abs=1e-12)
    assert result.rho["in_strength"] > 0.8  # coupling survives the noise


def test_league_constant_measure_yields_nan():
    table = table_from({("a.ac.uk", "b.ac.uk"): 1}, ["a.ac.uk", "b.ac.uk", "c.ac.uk"])
    ranking = {"a.ac.uk": 1, "b.ac.uk": 2, "c.ac.uk": 3}
    result = rank_centrality_vs_league(table, ranking)
    assert math.isnan(result.rho["betweenness"])


# --- modularity ---

def two_cliques():
    left = [f"l{i}.ac.uk" for i in range(3)]
    right = [f"r{i}.ac.uk" for i in range(3)]
    edges = {}
    for group in (left, right):
        for u in group:
            for v in group:
                if u != v:
                    edges[(u, v)] = 2
    labels = {v: "left" for v in left} | {v: "right" for v in right}
    return edges, labels, left + right


def test_modularity_two_cliques_matches_oracle():
    edges, labels, nodes = two_cliques()
    result = modularity(snap(edges), labels)
    assert result.q == pytest.approx(brute_modularity(edges, labels, nodes), abs=1e-12)
    assert result.q == pytest.approx(0.5)  # two equal blocks, all links internal


def test_modularity_singleton_partition_closed_form():
    rng = random.Random(3)
    nodes = [f"n{i}.ac.uk" for i in range(8)]
    edges = {
        (u, v): rng.randint(1, 9)
        for u in nodes
        for v in nodes
        if u != v and rng.random() < 0.4
    }
    labels = {v: v for v in nodes}
    result = modularity(snap(edges), labels)
    m = sum(edges.values())
    s_out = {v: sum(w for (a, _), w in edges.items() if a == v) for v in nodes}
    s_in = {v: sum(w for (_, b), w in edges.items() if b == v) for v in nodes}
    closed = -sum(s_out[v] * s_in[v] for v in nodes) / (m * m)
    assert result.q == pytest.approx(closed, abs=1e-12)
    assert result.q == pytest.approx(brute_modularity(edges, labels, nodes), abs=1e-12)


def test_modularity_one_group_is_zero():
    edges, _, nodes = two_cliques()
    labels = {v: "all" for v in nodes}
    result = modularity(snap(edges), labels)
    assert result.q == pytest.approx(brute_modularity(edges, labels, nodes), abs=1e-15)
    assert result.q == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("seed", range(10))
def test_modularity_matches_oracle_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 20)
    nodes = [f"n{i:02d}.ac.uk" for i in range(n)]
    edges = {
        (u, v): rng.randint(1, 12)
        for u in nodes
        for v in nodes
        if u != v and rng.random() < 0.3
    }
    if not edges:
        return
    k = rng.randint(1, 4)
    # labels that differ only by a trailing NUL are distinct groups
    labels = {
        v: f"g{rng.randrange(k)}" + "\0" * rng.randrange(2) for v in nodes if rng.random() < 0.9
    }
    result = modularity(snap(edges), labels)
    assert result.q == pytest.approx(brute_modularity(edges, labels, nodes), abs=1e-12)
    # group bookkeeping reassembles into q
    total = sum(
        g.internal_weight - g.expected_weight for g in result.groups.values()
    )
    assert result.q == pytest.approx(total / result.total_weight, abs=1e-12)


def test_modularity_empty_graph():
    with pytest.raises(EmptyGraph):
        modularity(snap({}), {})


def test_modularity_respects_node_filter():
    edges = {
        ("a.ac.uk", "b.ac.uk"): 3,
        ("a.ac.uk", "x.co.uk"): 50,
    }
    result = modularity(snap(edges), {"a.ac.uk": "g", "b.ac.uk": "g"},
                        node_filter=["a.ac.uk", "b.ac.uk"])
    assert result.total_weight == 3
    assert result.q == pytest.approx(0.0, abs=1e-15)


def test_modularity_unaffiliated_group():
    edges, labels, nodes = two_cliques()
    del labels["l0.ac.uk"], labels["r2.ac.uk"]
    result = modularity(snap(edges), labels)
    assert UNAFFILIATED in result.groups
    assert result.q == pytest.approx(brute_modularity(edges, labels, nodes), abs=1e-12)


# --- group density ---

def test_density_complete_triad():
    members = ["a.ac.uk", "b.ac.uk", "c.ac.uk"]
    edges = {(u, v): 5 for u in members for v in members if u != v}
    assert group_internal_density(snap(edges), members) == pytest.approx(1.0)


def test_density_no_internal_edges():
    edges = {("a.ac.uk", "x.co.uk"): 2}
    assert group_internal_density(snap(edges), ["a.ac.uk", "b.ac.uk"]) == 0.0


def test_density_partial():
    members = [f"m{i}.ac.uk" for i in range(4)]
    ordered = [(u, v) for u in members for v in members if u != v]
    edges = {pair: 1 for pair in ordered[:8]}
    assert group_internal_density(snap(edges), members) == pytest.approx(
        8 / 12, abs=1e-9
    )


def test_density_ignores_weights():
    members = ["a.ac.uk", "b.ac.uk", "c.ac.uk"]
    light = {("a.ac.uk", "b.ac.uk"): 1}
    heavy = {("a.ac.uk", "b.ac.uk"): 999}
    assert group_internal_density(snap(light), members) == group_internal_density(
        snap(heavy), members
    )


def test_density_too_few_members():
    with pytest.raises(TooFewMembers):
        group_internal_density(snap({}), ["solo.ac.uk"])


# --- random-partition null (fixed graph, shuffled labels) ---

def test_random_partition_modularity_centers_near_zero():
    # mean Q over uniform random labelings is exactly
    # -(1 - 1/k) * sum_i s_out_i * s_in_i / m^2, an O(1/n) offset, so the
    # "within 3 standard errors of 0" reading needs a graph large and sparse
    # enough to push that offset under the sampling noise
    rng = random.Random(99)
    n, k = 1000, 5
    nodes = [f"n{i:03d}.ac.uk" for i in range(n)]
    edges = {}
    for _ in range(n * 3):
        u, v = rng.sample(nodes, 2)
        edges[(u, v)] = rng.randint(1, 3)
    s = snap(edges)
    qs = []
    for _ in range(200):
        labels = {v: f"g{rng.randrange(k)}" for v in nodes}
        qs.append(modularity(s, labels).q)
    mean = sum(qs) / len(qs)
    sd = (sum((q - mean) ** 2 for q in qs) / (len(qs) - 1)) ** 0.5
    stderr = sd / len(qs) ** 0.5
    assert abs(mean) <= 3 * stderr

    m = sum(edges.values())
    s_out, s_in = defaultdict(int), defaultdict(int)
    for (u, v), w in edges.items():
        s_out[u] += w
        s_in[v] += w
    analytic = -(1 - 1 / k) * sum(s_out[v] * s_in[v] for v in nodes) / (m * m)
    assert abs(mean - analytic) <= 3 * stderr


# --- file formats ---

def test_read_partition_and_ranking(tmp_path):
    part = tmp_path / "groups.tsv"
    part.write_text("# affiliations\nox.ac.uk\trussell\nsoton.ac.uk\trussell\n")
    assert read_partition(part) == {"ox.ac.uk": "russell", "soton.ac.uk": "russell"}

    rank = tmp_path / "league.tsv"
    rank.write_text("ox.ac.uk\t1\ncam.ac.uk\t2\n")
    assert read_ranking(rank) == {"ox.ac.uk": 1, "cam.ac.uk": 2}

    with pytest.raises(MalformedLine):
        read_ranking(part)

    nodes_file = tmp_path / "nodes.txt"
    nodes_file.write_text("# universities\nox.ac.uk\ncam.ac.uk\n")
    assert read_node_list(nodes_file) == ["ox.ac.uk", "cam.ac.uk"]


def test_read_partition_rejects_a_repeated_domain(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text("ox.ac.uk\tg1\ncam.ac.uk\tg1\nox.ac.uk\tg2\n")
    with pytest.raises(MalformedLine) as err:
        read_partition(path)
    assert str(err.value) == f"{path}:3: repeated domain 'ox.ac.uk'"


def test_read_ranking_rejects_a_repeated_domain(tmp_path):
    path = tmp_path / "league.tsv"
    path.write_text("# league\nox.ac.uk\t1\nox.ac.uk\t1\n")
    with pytest.raises(MalformedLine) as err:
        read_ranking(path)
    assert str(err.value) == f"{path}:3: repeated domain 'ox.ac.uk'"


def test_write_outputs(tmp_path):
    table = centrality_suite(
        snap({("a.ac.uk", "b.ac.uk"): 2, ("b.ac.uk", "a.ac.uk"): 1}),
        ["a.ac.uk", "b.ac.uk"],
    )
    result = rank_centrality_vs_league(table, {"a.ac.uk": 2, "b.ac.uk": 1})
    path = tmp_path / "correlations_2010.csv"
    write_correlations(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "measure,rho,n_overlap"
    assert len(lines) == 1 + len(MEASURES)

    mod = modularity(snap({("a.ac.uk", "b.ac.uk"): 2}), {"a.ac.uk": "g"})
    mod_path = tmp_path / "modularity_2010.csv"
    write_modularity(mod, mod_path)
    lines = mod_path.read_text().splitlines()
    assert lines[0] == "group,internal_weight,expected_weight,q"
    assert len(lines) == 3  # group g and unaffiliated
