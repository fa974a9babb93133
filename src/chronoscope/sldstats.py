"""Descriptive statistics of snapshots at the second-level-domain grain.

These back the overview plots of a longitudinal domain study: how many
third-level domains each SLD holds per year, each SLD's share of the total,
within-SLD links per node, and the SLD-to-SLD flow matrix in absolute and
target-size-normalized form.  Nodes whose suffix is not registered in the
policy aggregate under the synthetic ``other`` bucket instead of erroring.
:func:`sld_cells` labels each node of a snapshot once and sums its edge
arrays by SLD; the statistics are read off that grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .bytefields import write_csv
from .domains import SuffixPolicy, sld_label
from .errors import UnknownSld
from .snapshot import YearSnapshot, group_sums, name_codes


@dataclass(frozen=True)
class SldYearStats:
    """Node counts and shares per SLD for one year."""

    year: int
    counts: Mapping[str, int]
    shares: Mapping[str, float]
    total_nodes: int


@dataclass(frozen=True)
class SldFlowMatrix:
    """Inter-SLD link totals for one year.

    ``absolute`` sums edge weights per (source SLD, target SLD); when built
    with ``include_self=False`` the diagonal is omitted from the absolute
    view but kept in the normalized one, which divides each cell by the
    target SLD's node count (never 0: the cell's edges end in that SLD).
    """

    year: int
    absolute: Mapping[tuple[str, str], int]
    normalized: Mapping[tuple[str, str], float]
    node_counts: Mapping[str, int]
    include_self: bool


@dataclass(frozen=True, eq=False)
class SldCells:
    """One snapshot grouped by SLD, the input of the statistics below.

    Each node is labelled once.  ``counts`` holds the node count of each SLD
    bucket that has nodes; ``edges`` and ``weight`` count the edges and sum
    their weights per (source SLD, target SLD) cell, indexed like ``labels``.
    """

    year: int
    registered_slds: frozenset[str]
    labels: tuple[str, ...]
    counts: Mapping[str, int]
    edges: np.ndarray
    weight: np.ndarray


def sld_cells(snapshot: YearSnapshot, policy: SuffixPolicy) -> SldCells:
    """Label every node with its SLD bucket and sum the edges into cells."""
    labels, of_node = name_codes([sld_label(node, policy) for node in snapshot.nodes])
    size = len(labels)
    cell = of_node[snapshot.src] * size + of_node[snapshot.dst]
    return SldCells(
        snapshot.year,
        policy.registered_slds,
        labels,
        dict(zip(labels, np.bincount(of_node, minlength=size).tolist())),
        np.bincount(cell, minlength=size * size).reshape(size, size),
        group_sums(cell, snapshot.weight, size * size).reshape(size, size),
    )


def node_counts_by_sld(cells: SldCells) -> SldYearStats:
    """Count third-level domains per SLD and their shares of the total.

    A node is anything that appears as an edge endpoint or in the node-pages
    data.  Shares over all SLDs sum to 1 whenever any node exists.
    """
    total = sum(cells.counts.values())
    shares = {sld: count / total for sld, count in cells.counts.items()}
    return SldYearStats(cells.year, dict(cells.counts), shares, total)


def within_sld_links_per_node(cells: SldCells, sld: str, distinct: bool = False) -> float:
    """Weight of links staying inside one SLD, per node of that SLD.

    ``distinct`` counts edges instead of summing their weights.  Returns 0
    for an SLD without nodes.
    """
    if sld not in cells.registered_slds:
        raise UnknownSld(f"{sld!r} is not registered in the policy")
    if sld not in cells.counts:
        return 0.0
    i = cells.labels.index(sld)
    return int((cells.edges if distinct else cells.weight)[i, i]) / cells.counts[sld]


def inter_sld_flows(cells: SldCells, include_self: bool = False) -> SldFlowMatrix:
    """Aggregate edge weights into the SLD-to-SLD flow matrix.

    With ``include_self=True`` the absolute matrix total equals the
    snapshot's total edge weight exactly.
    """
    labels = cells.labels
    absolute: dict[tuple[str, str], int] = {}
    normalized: dict[tuple[str, str], float] = {}
    for i, j in zip(*np.nonzero(cells.edges)):
        cell = (labels[i], labels[j])
        total = int(cells.weight[i, j])
        normalized[cell] = total / cells.counts[labels[j]]
        if include_self or i != j:
            absolute[cell] = total
    return SldFlowMatrix(cells.year, absolute, normalized, dict(cells.counts), include_self)


def write_sld_series(rows: Iterable[SldYearStats], path) -> None:
    """Emit ``sld_series.csv``: year,sld,node_count,share."""
    lines = (
        [stats.year, sld, stats.counts[sld], repr(stats.shares[sld])]
        for stats in sorted(rows, key=lambda s: s.year)
        for sld in sorted(stats.counts)
    )
    write_csv(path, ["year", "sld", "node_count", "share"], lines)


def write_links_per_node(
    per_year: Mapping[int, Mapping[str, float]], path
) -> None:
    """Emit ``links_per_node.csv``: year,sld,links_per_node."""
    rows = (
        [year, sld, repr(shares[sld])] for year, shares in sorted(per_year.items()) for sld in sorted(shares)
    )
    write_csv(path, ["year", "sld", "links_per_node"], rows)


def write_flows(matrix: SldFlowMatrix, path) -> None:
    """Emit ``flows_<year>.csv``: source_sld,target_sld,absolute,normalized.

    Cells dropped from the absolute view (the diagonal when self-flows are
    excluded) keep their normalized value and leave the absolute field
    empty.
    """
    rows = (
        [*cell, matrix.absolute.get(cell, ""), repr(matrix.normalized[cell])]
        for cell in sorted(set(matrix.absolute) | set(matrix.normalized))
    )
    write_csv(path, ["source_sld", "target_sld", "absolute", "normalized"], rows)
