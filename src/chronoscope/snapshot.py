"""Yearly link-graph snapshots and their on-disk format.

A snapshot is an immutable weighted digraph over third-level domains for one
calendar year, held as columns: sorted node names, and int64 ``src``, ``dst``
and ``weight`` arrays in (src, dst) order.  The file format is dull::

    #snapshot v1 year=2010
    cam.ac.uk<TAB>ox.ac.uk<TAB>17
    ox.ac.uk<TAB>cam.ac.uk<TAB>23

The header's year and each weight follow the integer rule of
:func:`chronoscope.bytefields.digits`.  Edges are emitted sorted by source then
target, so writing the same snapshot twice produces byte-identical files.  Each
edge joins two distinct non-empty names with a weight of at least 1, and each
(source, target) pair occurs once: a file that repeats a pair is rejected, not
read as its last line.  These edge rules are one validator on the integer
columns, which :meth:`YearSnapshot.from_columns` and :func:`read_snapshot`
share, so every snapshot that ingest, synth or the reader builds passes them.
:func:`name_codes` is the one coder of names into sorted codes, except for
the reader's byte-level :meth:`chronoscope.bytefields.Interner.order`.

:func:`read_snapshot` reads a file in blocks of ``_READ_BLOCK_BYTES`` through
:func:`chronoscope.bytefields.blocks`, the block reader that the link-log
parse in :mod:`chronoscope.ingest` uses too, and scans each block with numpy
through the byte-field layer: the line and tab structure, one UTF-8 decode per
block, the weights read by the integer rule, and one interner shared by the
blocks, which decodes each distinct name once.  It keeps only the int32 name
codes and int64 weights of each block, so its peak grows with the edges, not
with the file's bytes.  :func:`write_snapshot` formats blocks of edges in numpy
as padded byte matrices, each node name encoded once, and writes the same
bytes as one f-string per edge would.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, compress
from operator import ne
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import bytefields
from .errors import SnapshotFormatError

_HEADER_PREFIX = "#snapshot v1 year="
# edge weights and every sum of them must fit the int64 arrays
MAX_TOTAL_WEIGHT = 2**63 - 1
# a file is read in blocks of this many bytes (plus a partial last line), so
# that the reader's peak does not grow with the file
_READ_BLOCK_BYTES = 512 << 10
# the writer formats a block of edges in a padded matrix of at most this
# many bytes, unless one edge's line alone is wider
_WRITE_BLOCK_BYTES = 256 << 10
# 10, 100, ..., 10**18: a weight of k digits has k - 1 of them at or below it
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


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
        without edges dropped.  ValueError on a year that a header cannot
        hold (any but 0 to 2**63 - 1), on a bad edge (the module's edge
        rules, then a total beyond ``MAX_TOTAL_WEIGHT``), on an index outside
        ``names``, on a name that two used indices share, and on name indices
        or weights that are not signed integers."""
        check_year(year)
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
        nodes, code = name_codes(list(compress(names, used.tolist())))
        if len(nodes) < len(code):
            raise ValueError("two name indices share a name")
        rank = np.zeros(len(names), np.int64)
        rank[used] = code
        return _checked(year, nodes, rank[src], rank[dst], weight.astype(np.int64))

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


def check_year(year: int) -> None:
    """ValueError unless a snapshot header can hold ``year``: its ``str()``
    is 1 to 19 ASCII digits below 2**63."""
    if bytefields.digits(str(year)) is None:
        raise ValueError(f"year {year!r} is not 1 to 19 ASCII digits below 2**63")


def group_sums(groups: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sums of ``values`` per group index, exact for integers, in input order."""
    sums = np.zeros(size, values.dtype)
    np.add.at(sums, groups, values)
    return sums


def name_codes(names: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct ``names`` in order, and each name's int64 code there.

    >>> name_codes(["g", "h", "g\\0", "g"])
    (('g', 'g\\x00', 'h'), array([0, 2, 1, 0]))
    """
    order = sorted(range(len(names)), key=names.__getitem__)
    ordered = list(map(names.__getitem__, order))
    new = np.fromiter(map(ne, ordered, chain((None,), ordered)), bool, len(ordered))
    codes = np.empty(len(names), np.int64)
    codes[order] = np.cumsum(new) - 1
    return tuple(compress(ordered, new)), codes


def total_weight(weight: np.ndarray) -> int:
    """The exact sum of an int64 column of up to 2**31 values: each half of
    their bits sums without wrapping."""
    return (int((weight >> 32).sum()) << 32) + int((weight & 0xFFFFFFFF).sum())


def _checked(
    year: int, nodes: tuple[str, ...], src: np.ndarray, dst: np.ndarray, weight: np.ndarray
) -> YearSnapshot:
    """The snapshot of edges ``nodes[src[i]] -> nodes[dst[i]]`` of
    ``weight[i]`` over the sorted ``nodes``: the one set of edge rules.

    Raises ValueError at the first edge with a weight below 1, equal or empty
    endpoints, or a repeated pair, else if the weights sum to more than
    ``MAX_TOTAL_WEIGHT``.
    """
    pair = src * len(nodes) + dst
    order = None  # each edge's input position, when (src, dst) order moved it
    if (pair[1:] <= pair[:-1]).any():  # a written file's edges are in order already
        order = np.argsort(pair, kind="stable")  # a repeated pair keeps its input order
        pair, src, dst, weight = pair[order], src[order], dst[order], weight[order]
    invalid = (weight < 1) | (src == dst)
    if nodes and not nodes[0]:  # the empty name sorts first
        invalid |= (src == 0) | (dst == 0)
    bad = invalid.copy()
    bad[1:] |= pair[1:] == pair[:-1]
    if bad.any():
        first = np.flatnonzero(bad)
        first = int(first[0] if order is None else first[np.argmin(order[first])])
        reason = "invalid edge record" if invalid[first] else "duplicate edge record"
        raise _BadEdge(first if order is None else int(order[first]), reason)
    if total_weight(weight) > MAX_TOTAL_WEIGHT:
        raise _BadEdge(None, f"edge weights sum to more than {MAX_TOTAL_WEIGHT}")
    return YearSnapshot(year, nodes, src, dst, weight)


def write_snapshot(snapshot: YearSnapshot, path) -> None:
    """Write a snapshot file; emission order is sorted and deterministic.

    The lines are formatted in numpy, a block of edges at a time, and each
    node name is encoded once.  Row ``i`` of a block's uint8 matrix holds
    edge ``i``'s source name, a tab, its target name, a tab, its weight's
    digits (right-aligned, from ``% 10``) and ``\\n``, each field padded to
    the block's widest, and one boolean mask keeps the real bytes.  A block
    is the longest run of edges whose matrix fits in ``_WRITE_BLOCK_BYTES``
    (at least one edge), so a long name widens only the blocks it is in.
    Weights are at least 0, as every snapshot's are.
    """
    encoded = [name.encode("utf-8") for name in snapshot.nodes]
    size = np.fromiter(map(len, encoded), np.int64, len(encoded))
    start = np.cumsum(size) - size
    # the names' bytes, then room for the widest field read from any offset
    padded = b"".join(encoded) + bytes(int(size.max(initial=0)))
    src, dst, weight = snapshot.src, snapshot.dst, snapshot.weight
    digits = 1 + np.searchsorted(_POWERS_OF_TEN, weight, side="right")
    with open(path, "wb") as fh:
        fh.write(f"{_HEADER_PREFIX}{snapshot.year}\n".encode("utf-8"))
        at = 0
        while at < len(weight):
            block = slice(at, at + _WRITE_BLOCK_BYTES // 8)
            fields = size[src[block]], size[dst[block]], digits[block]
            # the matrix bytes of each prefix of the block, a rising sequence
            widths = sum(np.maximum.accumulate(f) for f in fields) + 3
            fit = np.count_nonzero(widths * np.arange(1, len(widths) + 1) <= _WRITE_BLOCK_BYTES)
            block = slice(at, at + max(fit, 1))
            fh.write(_lines(padded, start, size, src[block], dst[block], weight[block], digits[block]))
            at = block.stop


def _lines(padded: bytes, start, size, src, dst, weight, digits) -> np.ndarray:
    """The lines of the edges ``src[i] -> dst[i]`` of ``weight[i]`` (of
    ``digits[i]`` digits) as one uint8 array; name ``k`` is the ``size[k]``
    bytes of ``padded`` from ``start[k]`` on."""
    width = int(size[src].max()) + int(size[dst].max()) + int(digits.max()) + 3
    rows = np.empty((len(weight), width), np.uint8)
    keep = np.ones((len(weight), width), bool)
    columns = np.arange(width)
    at = 0
    for names in (src, dst):
        widest = int(size[names].max())
        # row k of the view is the ``widest`` bytes from offset k on
        view = np.ndarray((len(padded) - widest + 1, widest), np.uint8, padded, strides=(1, 1))
        rows[:, at : at + widest] = view[start[names]]
        keep[:, at : at + widest] = columns[:widest] < size[names, None]
        rows[:, at + widest] = bytefields.TAB
        at += widest + 1
    value = weight
    for column in range(width - 2, at - 1, -1):
        value, rows[:, column] = np.divmod(value, 10)
    rows[:, at:-1] += ord("0")
    keep[:, at:-1] = columns[: width - 1 - at] >= width - 1 - at - digits[:, None]
    rows[:, -1] = bytefields.NEWLINE
    return rows[keep]


def read_snapshot(path) -> YearSnapshot:
    """Read a snapshot file written by :func:`write_snapshot`, in blocks
    scanned with numpy as the module docstring describes; ``\\r\\n`` and a
    lone ``\\r`` end a line as ``\\n`` does.

    :class:`SnapshotFormatError` names ``path:line`` of the first bad line,
    with the reason that :func:`~chronoscope.bytefields.line_problem` gives
    (not valid UTF-8, else not three tab-separated fields, else a ``bad
    weight`` that breaks the integer rule), else of the first edge that
    :meth:`YearSnapshot.from_columns` would reject.  A header that is not
    UTF-8 is ``path:1``; one without ``#snapshot v1 year=`` and a year by
    the integer rule names ``path``, as a total weight beyond
    ``MAX_TOTAL_WEIGHT`` does when no line is bad.  Reading stops at the
    first block with a bad line, and the edge rules run once, on the edges
    before that line: the first edge they reject comes before the bad line,
    so it is the one reported.
    """
    path = Path(path)
    interner = bytefields.Interner()
    columns = array("i"), array("i"), array("q")  # source and target codes, weights
    year, failure = None, None
    for block in bytefields.blocks(path, 0, path.stat().st_size, _READ_BLOCK_BYTES):
        lines = bytefields.lines(block)
        first = 0
        if year is None:
            year, first = _header_year(path, block, lines), 1
        read = len(columns[2])  # the edge lines of the blocks before
        edges, failure = _edge_lines(block, lines, first, interner)
        for column, values in zip(columns, edges):
            column.frombytes(values.tobytes())
        if failure is not None:
            failure = (read + failure[0], failure[1])
            break
    nodes, rank = interner.order()
    del interner
    sources, targets, weights = (
        np.frombuffer(column, dtype) for column, dtype in zip(columns, (np.int32, np.int32, np.int64))
    )
    try:
        snapshot = _checked(year, nodes, rank[sources], rank[targets], weights)
    except _BadEdge as exc:
        if exc.index is not None or failure is None:
            failure = (exc.index, str(exc))
    if failure is None:
        return snapshot
    index, reason = failure
    where = path if index is None else f"{path}:{index + 2}"
    raise SnapshotFormatError(f"{where}: {reason}")


def _header_year(path: Path, block: bytes, lines: bytefields.Lines) -> int:
    """The year of a file's header, the first line of its first block."""
    if not lines.utf8[:1].all():
        raise SnapshotFormatError(f"{path}:1: invalid UTF-8")
    header = block[: lines.ends[0]].decode("utf-8") if len(lines.ends) else ""
    if not header.startswith(_HEADER_PREFIX):
        raise SnapshotFormatError(f"{path}: unsupported header {header!r}")
    year = bytefields.digits(header[len(_HEADER_PREFIX) :])
    if year is None:
        raise SnapshotFormatError(f"{path}: bad year in header {header!r}")
    return year


def _edge_lines(block: bytes, lines: bytefields.Lines, first: int, interner: bytefields.Interner):
    """The edges of a block's lines from ``first`` on, up to its first bad
    line: ``(sources, targets, weights)`` as interned codes and int64
    weights, and the bad line as ``(edge index in the block, reason)`` or
    None."""
    # a data line is valid UTF-8 with two tabs and a valid weight; the
    # edges end before the first line that is not one
    data = lines.utf8[first:] & (lines.tab_counts[first:] == 2)
    three = np.flatnonzero(data)  # the edge indices of the lines with three fields
    line = first + three
    tab1, tab2 = lines.tab(line, 0), lines.tab(line, 1)
    weight, data[three] = bytefields.integers(lines.data, tab2 + 1, lines.ends[line])
    failure, end = None, len(data)
    if not data.all():
        end = int(np.argmin(data))
        bad = block[lines.begins[first + end] : lines.ends[first + end]]
        failure = (end, bytefields.line_problem(bad, 2, "weight"))
    codes = interner.intern(
        block,
        np.concatenate((lines.begins[line[:end]], tab1[:end] + 1)),
        np.concatenate((tab1[:end], tab2[:end])),
    )
    return (codes[:end], codes[end:], weight[:end]), failure
