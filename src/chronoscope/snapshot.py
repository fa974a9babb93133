"""Yearly link-graph snapshots and their on-disk format.

A snapshot is an immutable weighted digraph over third-level domains for one
calendar year.  The file format is deliberately dull::

    #snapshot v1 year=2010
    cam.ac.uk<TAB>ox.ac.uk<TAB>17
    ox.ac.uk<TAB>cam.ac.uk<TAB>23

Edges are emitted sorted by source then target, so writing the same snapshot
twice produces byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import SnapshotFormatError

_HEADER_PREFIX = "#snapshot v1 year="
# edge weights and every sum of them must fit the int64 arrays of the view
MAX_TOTAL_WEIGHT = 2**63 - 1


@dataclass(frozen=True)
class YearSnapshot:
    """Weighted directed graph over third-level domains for one year.

    ``edges`` maps ``(source, target)`` to a positive integer hyperlink
    count; self-loops are rejected, and the weights may sum to at most
    ``MAX_TOTAL_WEIGHT``.  ``node_pages`` carries per-domain crawl
    page counts when a node-pages file was supplied; it is side data and does
    not participate in equality or in the snapshot file format.
    """

    year: int
    edges: Mapping[tuple[str, str], int]
    node_pages: Mapping[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for (src, tgt), weight in self.edges.items():
            if src == tgt:
                raise ValueError(f"self-loop edge {src!r}")
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(f"edge {src!r}->{tgt!r} has weight {weight!r}")
        if sum(self.edges.values()) > MAX_TOTAL_WEIGHT:
            raise ValueError(f"edge weights sum to more than {MAX_TOTAL_WEIGHT}")
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        object.__setattr__(self, "node_pages", MappingProxyType(dict(self.node_pages)))

    def __repr__(self):
        return (
            f"YearSnapshot(year={self.year}, edges={len(self.edges)}, "
            f"nodes={len(self.indexed.nodes)})"
        )

    @cached_property
    def indexed(self) -> "IndexedSnapshot":
        """The snapshot as arrays, built on first use.

        Its nodes are the edge endpoints and the node-pages domains.
        """
        nodes = tuple(sorted({n for pair in self.edges for n in pair}.union(self.node_pages)))
        index = {node: i for i, node in enumerate(nodes)}
        m = len(self.edges)
        src = np.fromiter((index[s] for s, _ in self.edges), np.int64, m)
        dst = np.fromiter((index[t] for _, t in self.edges), np.int64, m)
        weight = np.fromiter(self.edges.values(), np.int64, m)
        order = np.lexsort((dst, src))
        return IndexedSnapshot(self.year, nodes, src[order], dst[order], weight[order])


@dataclass(frozen=True, eq=False)
class IndexedSnapshot:
    """The view every analysis runs on: a weighted digraph as int64 arrays.

    ``src`` and ``dst`` index into the sorted ``nodes``; edges are in
    (src, dst) order, which is also the order of the node names.
    """

    year: int
    nodes: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def induced(self, nodes: Iterable[str]) -> "IndexedSnapshot":
        """Subgraph on ``nodes`` (all of them, also those without edges here)."""
        keep = tuple(sorted(set(nodes)))
        index = {node: i for i, node in enumerate(keep)}
        remap = np.fromiter(
            (index.get(node, -1) for node in self.nodes), np.int64, len(self.nodes)
        )
        src, dst = remap[self.src], remap[self.dst]
        inside = (src >= 0) & (dst >= 0)
        return IndexedSnapshot(self.year, keep, src[inside], dst[inside], self.weight[inside])

    def strengths(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node sums of outgoing and of incoming edge weights."""
        n = len(self.nodes)
        return group_sums(self.src, self.weight, n), group_sums(self.dst, self.weight, n)


def group_sums(groups: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sums of ``values`` per group index, exact for integers, in input order."""
    sums = np.zeros(size, values.dtype)
    np.add.at(sums, groups, values)
    return sums


def write_snapshot(snapshot: YearSnapshot, path) -> None:
    """Write a snapshot file; emission order is sorted and deterministic."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{_HEADER_PREFIX}{snapshot.year}\n")
        for (src, tgt) in sorted(snapshot.edges):
            fh.write(f"{src}\t{tgt}\t{snapshot.edges[(src, tgt)]}\n")


def read_snapshot(path, node_pages: Mapping[str, int] | None = None) -> YearSnapshot:
    """Read a snapshot file written by :func:`write_snapshot`.

    ``node_pages`` can re-attach page counts, which the file format does not
    carry.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(_HEADER_PREFIX):
            raise SnapshotFormatError(f"{path}: unsupported header {header!r}")
        try:
            year = int(header[len(_HEADER_PREFIX):])
        except ValueError:
            raise SnapshotFormatError(f"{path}: bad year in header {header!r}") from None
        edges: dict[tuple[str, str], int] = {}
        for lineno, raw in enumerate(fh, start=2):
            parts = raw.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise SnapshotFormatError(f"{path}:{lineno}: expected 3 fields")
            src, tgt, weight_text = parts
            try:
                weight = int(weight_text)
            except ValueError:
                raise SnapshotFormatError(
                    f"{path}:{lineno}: bad weight {weight_text!r}"
                ) from None
            if weight < 1 or src == tgt or not src or not tgt:
                raise SnapshotFormatError(f"{path}:{lineno}: invalid edge record")
            edges[(src, tgt)] = weight
    try:
        return YearSnapshot(year, edges, node_pages or {})
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from None
