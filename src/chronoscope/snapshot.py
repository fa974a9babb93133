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
These edge rules are one validator on the integer columns, which
:meth:`YearSnapshot.from_columns` and :func:`read_snapshot` share.

:func:`read_snapshot` reads a file's bytes once and scans them with numpy
through :mod:`chronoscope.bytefields`, the byte-field layer that the link-log
parse in :mod:`chronoscope.ingest` uses too: the line and tab structure, one
UTF-8 decode of the whole file, weights read exactly as ``int()`` reads
them, and one interning of both name columns, which decodes each distinct
name once.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import bytefields
from .errors import SnapshotFormatError

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
    :meth:`induced` keeps nodes without edges.  :meth:`from_columns` checks
    the edges; the plain constructor trusts them.
    """

    year: int
    nodes: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @classmethod
    def from_columns(
        cls, year: int, names: Sequence[str], src: np.ndarray, dst: np.ndarray, weight: np.ndarray
    ) -> "YearSnapshot":
        """The snapshot of edges ``names[src[i]] -> names[dst[i]]`` of
        ``weight[i]``, from integer arrays: ``names`` in any order, those
        without edges dropped.  ValueError on a bad edge (the module's edge
        rules, then a total beyond ``MAX_TOTAL_WEIGHT``), on an index outside
        ``names``, on a name that two used indices share, and on name indices
        or weights that are not signed integers."""
        src, dst, weight = np.asarray(src), np.asarray(dst), np.asarray(weight)
        for index in (src, dst):
            if index.dtype.kind != "i":
                raise ValueError(f"name indices of dtype {index.dtype} are not signed integers")
        if weight.dtype.kind != "i":
            raise ValueError(f"weights of dtype {weight.dtype} are not signed integers")
        if not len(src) == len(dst) == len(weight):
            raise ValueError("the columns differ in length")
        codes = np.concatenate((src, dst))
        if len(codes) and not 0 <= codes.min() <= codes.max() < len(names):
            raise ValueError("a name index is out of range")
        used = np.zeros(len(names), bool)
        used[codes] = True
        order = sorted(np.flatnonzero(used).tolist(), key=names.__getitem__)
        nodes = tuple(map(names.__getitem__, order))
        if any(map(eq, nodes[1:], nodes[:-1])):
            raise ValueError("two name indices share a name")
        rank = np.zeros(len(names), np.int64)
        rank[order] = np.arange(len(order))
        return _checked(year, nodes, rank[src], rank[dst], weight.astype(np.int64), False)

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


def _checked(
    year: int, nodes: tuple[str, ...], src: np.ndarray, dst: np.ndarray, weight: np.ndarray,
    heavy: bool,
) -> YearSnapshot:
    """The snapshot of edges ``nodes[src[i]] -> nodes[dst[i]]`` of
    ``weight[i]`` over the sorted ``nodes``: the one set of edge rules.

    Raises ValueError at the first edge with a weight below 1, equal or empty
    endpoints, or a repeated pair, else if the weights sum to more than
    ``MAX_TOTAL_WEIGHT``; ``heavy`` says that a weight beyond int64 was
    clipped to it, so that the sum is too large.
    """
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
    total = (int((weight >> 32).sum()) << 32) + int((weight & 0xFFFFFFFF).sum())
    if heavy or total > MAX_TOTAL_WEIGHT:
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


def _interned(block: bytes, lo: np.ndarray, hi: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct names ``block[lo[i]:hi[i]]``, and each one's index
    into them."""
    # codes follow first occurrence: a written file's sources come sorted,
    # and the sort runs through them fast
    codes, names = bytefields.Interner().intern(block, lo, hi)
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), np.int64)
    rank[np.fromiter(order, np.intp, len(order))] = np.arange(len(names))
    return tuple(map(names.__getitem__, order)), rank[codes]


def read_snapshot(path) -> YearSnapshot:
    """Read a snapshot file written by :func:`write_snapshot`.

    The file is read once and its bytes are scanned with numpy
    (:mod:`chronoscope.bytefields`): ``\\r\\n`` and a lone ``\\r`` end a line as
    ``\\n`` does, one decode checks the whole file for UTF-8, the weights are
    read as ``int()`` reads them, and only the distinct names are decoded,
    all in one batch.

    :class:`SnapshotFormatError` names ``path:line`` of the first bad line:
    one that is not valid UTF-8, else without three tab-separated fields,
    else with a weight that is not an integer, else whose edge
    :meth:`YearSnapshot.from_columns` would reject.  A header that is not
    UTF-8 is ``path:1``; one without ``#snapshot v1 year=`` and an integer
    year names ``path``, as a total weight beyond ``MAX_TOTAL_WEIGHT`` does
    when no line is bad.  Each check runs on the whole file at once, and a
    failure is located line by line only when its check fails.
    """
    path = Path(path)
    block = bytefields.universal_newlines(path.read_bytes())
    lines = bytefields.lines(block)
    utf8 = bytefields.utf8_lines(block, lines.begins, lines.ends)
    if not utf8[:1].all():
        raise SnapshotFormatError(f"{path}:1: invalid UTF-8")
    header = block[: lines.ends[0]].decode("utf-8") if len(lines.ends) else ""
    if not header.startswith(_HEADER_PREFIX):
        raise SnapshotFormatError(f"{path}: unsupported header {header!r}")
    try:
        year = int(header[len(_HEADER_PREFIX):])
    except ValueError:
        raise SnapshotFormatError(f"{path}: bad year in header {header!r}") from None

    # the edge lines, as indices into ``lines``; each check reads only the
    # lines before the failure found so far
    failure, end = None, len(utf8) - 1
    if not utf8.all():
        end = int(np.argmin(utf8)) - 1
        failure = (end, "invalid UTF-8")
    if not (three := lines.tab_counts[1 : end + 1] == 2).all():
        end = int(np.argmin(three))
        failure = (end, "expected 3 fields")
    line = np.arange(1, end + 1)
    tab1, tab2, stop = lines.tab(line, 0), lines.tab(line, 1), lines.ends[line]
    weight, fits = bytefields.integers(block, lines.data, tab2 + 1, stop)
    heavy = False  # a weight beyond int64
    for i in np.flatnonzero(~fits).tolist():
        text = block[tab2[i] + 1 : stop[i]].decode("utf-8")
        try:
            number = int(text)
        except ValueError:
            end, failure = i, (i, f"bad weight {text!r}")
            break
        heavy |= number > 0
        weight[i] = MAX_TOTAL_WEIGHT if number > 0 else -1
    nodes, codes = _interned(
        block,
        np.concatenate((lines.begins[line[:end]], tab1[:end] + 1)),
        np.concatenate((tab1[:end], tab2[:end])),
    )
    try:
        snapshot = _checked(year, nodes, codes[:end], codes[end:], weight[:end], heavy)
    except _BadEdge as exc:
        if exc.index is not None or failure is None:
            failure = (exc.index, str(exc))
    if failure is None:
        return snapshot
    index, reason = failure
    where = path if index is None else f"{path}:{index + 2}"
    raise SnapshotFormatError(f"{where}: {reason}")
