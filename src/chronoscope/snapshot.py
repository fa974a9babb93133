"""Yearly link-graph snapshots and their on-disk format.

A snapshot is an immutable weighted digraph over third-level domains for one
calendar year, held as columns: sorted node names, and int64 ``src``, ``dst``
and ``weight`` arrays in (src, dst) order.  The file format is dull::

    #snapshot v1 year=2010
    cam.ac.uk<TAB>ox.ac.uk<TAB>17
    ox.ac.uk<TAB>cam.ac.uk<TAB>23

Edges are emitted sorted by source then target, so writing the same snapshot
twice produces byte-identical files.  Each edge joins two distinct non-empty
names with a weight of at least 1, and each (source, target) pair occurs
once: a file that repeats a pair is rejected, not read as its last line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import SnapshotFormatError, is_utf8

_HEADER_PREFIX = "#snapshot v1 year="
# edge weights and every sum of them must fit the int64 arrays
MAX_TOTAL_WEIGHT = 2**63 - 1


class _BadEdge(ValueError):
    """A rejected edge at input position ``index`` (None: the total is too large)."""

    def __init__(self, index: int | None, reason: str):
        super().__init__(reason)
        self.index = index


@dataclass(frozen=True, eq=False)
class YearSnapshot:
    """Weighted directed graph over third-level domains for one year.

    ``src`` and ``dst`` index into the sorted ``nodes``; edges are in
    (src, dst) order, which is also the order of the node names.  Only
    :meth:`induced` keeps nodes without edges.  :meth:`from_edges` checks
    the edges; the plain constructor trusts them.
    """

    year: int
    nodes: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @classmethod
    def from_edges(cls, year: int, edges: Mapping[tuple[str, str], int]) -> "YearSnapshot":
        """The snapshot of ``(source, target) -> weight``; ValueError on a bad edge."""
        sources, targets = map(itemgetter(0), edges), map(itemgetter(1), edges)
        return _from_columns(year, list(sources), list(targets), list(edges.values()))

    def __eq__(self, other):
        if not isinstance(other, YearSnapshot):
            return NotImplemented
        mine, theirs = (np.stack((s.src, s.dst, s.weight)) for s in (self, other))
        return (self.year, self.nodes) == (other.year, other.nodes) and np.array_equal(mine, theirs)

    @property
    def edges(self) -> dict[tuple[str, str], int]:
        """``(source, target) -> weight`` in edge order, as a new dict on each call."""
        name = self.nodes.__getitem__
        pairs = zip(map(name, self.src.tolist()), map(name, self.dst.tolist()))
        return dict(zip(pairs, self.weight.tolist()))

    def induced(self, nodes: Iterable[str]) -> "YearSnapshot":
        """Subgraph on ``nodes`` (all of them, also those without edges here)."""
        keep = tuple(sorted(set(nodes)))
        index = {node: i for i, node in enumerate(keep)}
        remap = np.array([index.get(node, -1) for node in self.nodes], np.int64)
        src, dst = remap[self.src], remap[self.dst]
        inside = (src >= 0) & (dst >= 0)
        return YearSnapshot(self.year, keep, src[inside], dst[inside], self.weight[inside])

    def strengths(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node sums of outgoing and of incoming edge weights."""
        n = len(self.nodes)
        return group_sums(self.src, self.weight, n), group_sums(self.dst, self.weight, n)


def group_sums(groups: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sums of ``values`` per group index, exact for integers, in input order."""
    sums = np.zeros(size, values.dtype)
    np.add.at(sums, groups, values)
    return sums


def _from_columns(year: int, sources: list, targets: list, weights: list) -> YearSnapshot:
    """The snapshot of edges ``sources[i] -> targets[i]`` of ``weights[i]``.

    Raises ValueError at the first edge with a weight below 1, equal or empty
    endpoints, or a repeated pair, else if the weights exceed ``MAX_TOTAL_WEIGHT``.
    """
    nodes = tuple(sorted(set(sources).union(targets)))
    code = dict(zip(nodes, range(len(nodes))))
    m = len(sources)
    src = np.fromiter(map(code.__getitem__, sources), np.int64, m)
    dst = np.fromiter(map(code.__getitem__, targets), np.int64, m)
    try:
        weight = np.fromiter(weights, np.int64, m)
    except OverflowError:  # beyond int64: checked as Python ints, and always rejected
        weight = np.array(weights, dtype=object)
    pair = src * len(nodes) + dst
    order = np.argsort(pair, kind="stable")  # a repeated pair keeps its input order
    pair, src, dst, weight = pair[order], src[order], dst[order], weight[order]
    invalid = (weight < 1) | (src == dst)
    if nodes and not nodes[0]:  # the empty name sorts first
        invalid |= (src == 0) | (dst == 0)
    bad = invalid.copy()
    bad[1:] |= pair[1:] == pair[:-1]
    if bad.any():
        first = np.flatnonzero(bad)[np.argmin(order[bad])]
        reason = "invalid edge record" if invalid[first] else "duplicate edge record"
        raise _BadEdge(int(order[first]), reason)
    # exact for up to 2^31 edges: each half sums without wrapping
    if (int((weight >> 32).sum()) << 32) + int((weight & 0xFFFFFFFF).sum()) > MAX_TOTAL_WEIGHT:
        raise _BadEdge(None, f"edge weights sum to more than {MAX_TOTAL_WEIGHT}")
    return YearSnapshot(year, nodes, src, dst, weight)


def write_snapshot(snapshot: YearSnapshot, path) -> None:
    """Write a snapshot file; emission order is sorted and deterministic."""
    nodes, columns = snapshot.nodes, (snapshot.src, snapshot.dst, snapshot.weight)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{_HEADER_PREFIX}{snapshot.year}\n")
        fh.writelines(
            f"{nodes[s]}\t{nodes[t]}\t{w}\n" for s, t, w in zip(*(c.tolist() for c in columns))
        )


def _text_lines(path: Path, errors: str) -> tuple[str, list[str]]:
    """A file's header line and its later lines, without the empty string
    after a final line break, decoded as UTF-8 with ``errors``."""
    with open(path, encoding="utf-8", errors=errors) as fh:
        header = fh.readline().rstrip("\n")
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    return header, lines


def read_snapshot(path) -> YearSnapshot:
    """Read a snapshot file written by :func:`write_snapshot`.

    :class:`SnapshotFormatError` names ``path:line`` of the first bad line:
    one that is not valid UTF-8, else without three tab-separated fields,
    else with a weight that is not an integer, else whose edge
    :meth:`YearSnapshot.from_edges` would reject.  Only a file that fails to
    decode is read a second time, to find its first line that is not UTF-8.
    """
    path = Path(path)
    try:
        header, lines = _text_lines(path, "strict")
        end = len(lines)
    except UnicodeDecodeError:
        header, lines = _text_lines(path, "surrogateescape")
        if not is_utf8(header):
            raise SnapshotFormatError(f"{path}:1: invalid UTF-8") from None
        end = next(i for i, line in enumerate(lines) if not is_utf8(line))
    if not header.startswith(_HEADER_PREFIX):
        raise SnapshotFormatError(f"{path}: unsupported header {header!r}")
    try:
        year = int(header[len(_HEADER_PREFIX):])
    except ValueError:
        raise SnapshotFormatError(f"{path}: bad year in header {header!r}") from None
    # each check reads only the lines before the failure found so far
    failure = None if end == len(lines) else (end, "invalid UTF-8")
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, end)
    if (wrong := np.flatnonzero(tabs != 2)).size:
        end = int(wrong[0])
        failure = (end, "expected 3 fields")
    fields = "\t".join(lines[:end]).split("\t") if end else []
    texts = fields[2::3]
    try:
        weights = list(map(int, texts))
    except ValueError:
        for end, text in enumerate(texts):  # stops at the first that int() rejects
            try:
                int(text)
            except ValueError:
                break
        failure = (end, f"bad weight {texts[end]!r}")
        weights = list(map(int, texts[:end]))
    try:
        snapshot = _from_columns(year, fields[0 : 3 * end : 3], fields[1 : 3 * end : 3], weights)
    except _BadEdge as exc:
        if exc.index is not None or failure is None:
            failure = (exc.index, str(exc))
    if failure is None:
        return snapshot
    index, reason = failure
    where = path if index is None else f"{path}:{index + 2}"
    raise SnapshotFormatError(f"{where}: {reason}")
