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
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import SnapshotFormatError

_HEADER_PREFIX = "#snapshot v1 year="


@dataclass(frozen=True)
class YearSnapshot:
    """Weighted directed graph over third-level domains for one year.

    ``edges`` maps ``(source, target)`` to a positive integer hyperlink
    count; self-loops are rejected.  ``node_pages`` carries per-domain crawl
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
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        object.__setattr__(self, "node_pages", MappingProxyType(dict(self.node_pages)))

    def __repr__(self):
        return (
            f"YearSnapshot(year={self.year}, edges={len(self.edges)}, "
            f"nodes={len(self.nodes())})"
        )

    def nodes(self) -> set[str]:
        """Union of edge endpoints and node-pages domains."""
        out = set()
        for src, tgt in self.edges:
            out.add(src)
            out.add(tgt)
        out.update(self.node_pages)
        return out

    def total_weight(self) -> int:
        return sum(self.edges.values())

    def out_strengths(self) -> dict[str, int]:
        """Per-node sum of outgoing edge weights (edge endpoints only)."""
        strengths: dict[str, int] = {}
        for (src, _), weight in self.edges.items():
            strengths[src] = strengths.get(src, 0) + weight
        return strengths

    def in_strengths(self) -> dict[str, int]:
        """Per-node sum of incoming edge weights (edge endpoints only)."""
        strengths: dict[str, int] = {}
        for (_, tgt), weight in self.edges.items():
            strengths[tgt] = strengths.get(tgt, 0) + weight
        return strengths

    def induced(self, nodes: Iterable[str]) -> "YearSnapshot":
        """Subgraph on the given nodes (edges with both endpoints inside)."""
        keep = set(nodes)
        edges = {
            (s, t): w for (s, t), w in self.edges.items() if s in keep and t in keep
        }
        pages = {n: p for n, p in self.node_pages.items() if n in keep}
        return YearSnapshot(self.year, edges, pages)


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
    return YearSnapshot(year, edges, node_pages or {})
