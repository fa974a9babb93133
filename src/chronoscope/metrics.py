"""Rank correlation, partition modularity, and group link density.

These compare a snapshot's link structure against outside information:
league-table ranks, institutional affiliations, and membership lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bytefields import Rows, write_csv
from .centrality import MEASURES, CentralityTable
from .errors import (
    DegenerateInput,
    EmptyGraph,
    InsufficientOverlap,
    LengthMismatch,
    TooFewMembers,
)
from .snapshot import YearSnapshot, group_sums

# nodes missing from a partition mapping form one implicit group
UNAFFILIATED = "unaffiliated"


def fractional_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, smallest value first, ties sharing their average rank."""
    v = np.asarray(values, dtype=float)
    ordered = np.sort(v)
    left = np.searchsorted(ordered, v, side="left")
    right = np.searchsorted(ordered, v, side="right")
    return (left + right + 1) / 2.0


def spearman_rank_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman's coefficient: Pearson correlation of fractional ranks.

    The rank-then-correlate form stays correct under ties, unlike the
    classic 6*sum(d^2) shortcut.
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} values vs {len(ys)}")
    if len(xs) < 2:
        raise DegenerateInput("need at least two paired values")
    rx = fractional_ranks(xs)
    ry = fractional_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    # sums of products in numpy's pairwise order, not a threaded BLAS dot
    sx = float(np.add.reduce(dx * dx))
    sy = float(np.add.reduce(dy * dy))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("constant input has no rank ordering")
    return float(np.add.reduce(dx * dy)) / math.sqrt(sx * sy)


@dataclass(frozen=True)
class RankingTable:
    """External integer ranking of nodes, 1 = best; ties allowed."""

    ranks: Mapping[str, int]


@dataclass(frozen=True)
class LeagueCorrelation:
    """Per-measure Spearman coefficients against a league ranking."""

    year: int
    n_overlap: int
    dropped_from_table: int
    dropped_from_ranking: int
    rho: Mapping[str, float]


def rank_centrality_vs_league(
    table: CentralityTable, ranking: RankingTable
) -> LeagueCorrelation:
    """Correlate every centrality measure against league rank.

    Nodes missing from either side are dropped and counted.  The sign
    convention makes "more central goes with better-ranked" positive: nodes
    are ranked most-central-first and correlated against the league rank,
    where 1 is best.  A measure that is constant on the overlap (common for
    betweenness on sparse graphs) gets ``nan``.
    """
    common = sorted(set(table.nodes) & set(ranking.ranks))
    if len(common) < 2:
        raise InsufficientOverlap(f"only {len(common)} nodes on both sides")
    league = [ranking.ranks[node] for node in common]
    rho: dict[str, float] = {}
    for name in MEASURES:
        values = table.values[name]
        centrality_desc = [-values[node] for node in common]
        try:
            rho[name] = spearman_rank_correlation(centrality_desc, league)
        except DegenerateInput:
            rho[name] = math.nan
    return LeagueCorrelation(
        table.year,
        len(common),
        len(table.nodes) - len(common),
        len(ranking.ranks) - len(common),
        rho,
    )


@dataclass(frozen=True)
class GroupWeights:
    internal_weight: int
    expected_weight: float


@dataclass(frozen=True)
class ModularityResult:
    """Directed weighted modularity of a given node partition."""

    q: float
    total_weight: int
    groups: Mapping[str, GroupWeights]


def modularity(
    snapshot: YearSnapshot,
    partition: Mapping[str, str],
    node_filter: Iterable[str] | None = None,
) -> ModularityResult:
    """Q = (1/m) * sum_ij [A_ij - s_i_out * s_j_in / m] * [c_i == c_j].

    Computed on the subgraph induced by ``node_filter`` (all snapshot nodes
    when omitted) with edge weights as A.  Nodes outside the partition
    mapping share the implicit "unaffiliated" group.  The double sum
    collapses to per-group totals, evaluated in exact integer arithmetic up
    to the final division.
    """
    graph = snapshot if node_filter is None else snapshot.induced(node_filter)
    names, group = np.unique(
        [partition.get(node, UNAFFILIATED) for node in graph.nodes], return_inverse=True
    )
    m = int(graph.weight.sum())
    if m == 0:
        raise EmptyGraph("induced subgraph has no edge weight")

    source_group = group[graph.src]
    same = source_group == group[graph.dst]
    internal = group_sums(source_group[same], graph.weight[same], len(names))
    group_out, group_in = (group_sums(group, s, len(names)) for s in graph.strengths())
    groups: dict[str, GroupWeights] = {}
    internal_total = 0
    expected_total = 0  # sum of S_out(g) * S_in(g), still integer
    for name, inside, s_out, s_in in zip(
        names.tolist(), internal.tolist(), group_out.tolist(), group_in.tolist()
    ):
        internal_total += inside
        expected_total += s_out * s_in
        groups[name] = GroupWeights(inside, s_out * s_in / m)
    q = (internal_total * m - expected_total) / (m * m)
    return ModularityResult(q, m, groups)


def group_internal_density(snapshot: YearSnapshot, members: Iterable[str]) -> float:
    """Fraction of ordered member pairs joined by at least one link.

    Presence-only by construction: edge weights never matter.
    """
    member_set = set(members)
    k = len(member_set)
    if k < 2:
        raise TooFewMembers(f"need at least 2 members, got {k}")
    return len(snapshot.induced(member_set).src) / (k * (k - 1))


# --- input files ---

def read_partition(path) -> dict[str, str]:
    """Read ``third_level_domain<TAB>group_label`` lines, one per domain."""
    rows, mapping = Rows(path, "domain<TAB>group"), {}
    for domain, group in rows:
        rows.record(mapping, domain, group)
    return mapping


def read_ranking(path) -> RankingTable:
    """Read ``third_level_domain<TAB>rank_integer`` lines (1 = best), one per domain."""
    rows, ranks = Rows(path, "domain<TAB>rank"), {}
    for domain, text in rows:
        try:
            rank = int(text)
        except ValueError:
            raise rows.error(f"bad rank {text!r}") from None
        if rank < 1:
            raise rows.error("ranks start at 1")
        rows.record(ranks, domain, rank)
    return RankingTable(ranks)


def read_node_list(path) -> list[str]:
    """Read a node-filter file: one third-level domain per line."""
    return [domain for domain, in Rows(path, "domain")]


# --- output files ---

def write_correlations(result: LeagueCorrelation, path) -> None:
    """Emit ``correlations_<year>.csv``: measure,rho,n_overlap."""
    rows = ([name, repr(result.rho[name]), result.n_overlap] for name in MEASURES)
    write_csv(path, ["measure", "rho", "n_overlap"], rows)


def write_modularity(result: ModularityResult, path) -> None:
    """Emit ``modularity_<year>.csv``; q is repeated on each group row."""
    rows = (
        [group, weights.internal_weight, repr(weights.expected_weight), repr(result.q)]
        for group, weights in sorted(result.groups.items())
    )
    write_csv(path, ["group", "internal_weight", "expected_weight", "q"], rows)
