"""Link-log ingestion: raw timestamped hyperlinks to yearly snapshots.

Input lines are ``crawl_unix_seconds<TAB>source_url<TAB>target_url`` in
UTF-8; ``\\n``, ``\\r\\n`` and a lone ``\\r`` each end a line.  Both URLs are
reduced to third-level domains, self-links inside one domain are dropped, and
the remaining records are grouped into crawl sessions: runs of records from
one source domain whose consecutive timestamps are at most ``gap_seconds``
apart.  Each session counts hyperlinks per target, and the yearly snapshot
keeps, for every (source, target) pair, the largest count any session of that
year produced.

Parsing.  Each input file is cut into byte ranges that end at a ``\\n`` (or
at the end of the file), and one function parses a range.  It reads the
range in blocks of a few MB, each ending at a line break, and decodes a block
at once, line by line only when the block is not valid UTF-8.  It returns the
range's line accounting, its own vocabulary of third-level domains, and its
records as ``array('q')`` times with int32 source and target codes into that
vocabulary.  The ranges, about one per usable core, run through
``parallel.fork_map``: in ``fork`` workers when there is more than one usable
core and at least ``parallel.MIN_WORKER_BYTES`` of input per worker, else one
after another in this process.

In strict mode a range stops at its first structural problem, and the first
one in file order is raised with ``path:line``, the line counted within its
own file: a range's line numbers continue from the file's earlier ranges.

Reduction.  The ranges' vocabularies merge into one sorted vocabulary, so a
code's order is its name's order.  The records are sorted by (source, time);
a session starts where the source changes or the time steps by more than
``gap_seconds``, and it belongs to the UTC year of its start.  A sort by
(session, target) counts each session's links per target, and a sort by
(year, source, target, descending count) puts each pair's maximum first in
its group; ``best-session`` first keeps each (year, source)'s session with
the largest total.  Each year's snapshot is its slice of those sorted columns.
No step depends on how the records are split over files or ranges, so the
result is independent of sharding.
"""

from __future__ import annotations

import os
import sys
from array import array
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import parallel
from .domains import SuffixPolicy, authority_host, parse_host_key, url_authority
from .errors import (
    ChronoscopeError,
    MalformedLine,
    MalformedUrl,
    OutOfScopeTld,
    UnknownSld,
)
from .snapshot import YearSnapshot

PER_PAIR_MAX = "per-pair-max"
BEST_SESSION = "best-session"

DEFAULT_GAP_SECONDS = 1000

# UTC year-start epochs, so ingest maps timestamps to years with a
# searchsorted instead of a datetime construction per session
_YEAR_BOUNDS = np.array(
    [int(datetime(y, 1, 1, tzinfo=timezone.utc).timestamp()) for y in range(1970, 2302)],
    np.int64,
)
# ingest rejects times from 2301-01-01 on as malformed: such values are
# usually millisecond timestamps, not far-future years
_TIME_LIMIT = int(_YEAR_BOUNDS[-1])

# a range is read in blocks of this many bytes (plus a partial last line)
_BLOCK_BYTES = 4 << 20

# host-cache codes of the skipped-URL kinds; codes >= 0 index a vocabulary
_MALFORMED_URL, _OUT_OF_SCOPE, _UNKNOWN_SLD = -1, -2, -3


def years_of(times: np.ndarray) -> np.ndarray:
    """UTC calendar years of unix timestamps in ``[0, _TIME_LIMIT)``."""
    return 1969 + np.searchsorted(_YEAR_BOUNDS, times, side="right")


@dataclass
class IngestSummary:
    """Line accounting for one ingest run."""

    lines: int = 0
    records: int = 0
    self_loops: int = 0
    malformed_lines: int = 0
    malformed_urls: int = 0
    out_of_scope: int = 0
    unknown_sld: int = 0
    sessions: int = 0

    def skipped(self) -> int:
        return (
            self.self_loops
            + self.malformed_lines
            + self.malformed_urls
            + self.out_of_scope
            + self.unknown_sld
        )

    def report(self, stream=None) -> None:
        stream = stream if stream is not None else sys.stderr
        print(
            "ingest summary: "
            f"lines={self.lines} records={self.records} sessions={self.sessions} "
            f"self_loops={self.self_loops} malformed_lines={self.malformed_lines} "
            f"malformed_urls={self.malformed_urls} out_of_scope={self.out_of_scope} "
            f"unknown_sld={self.unknown_sld}",
            file=stream,
        )


@dataclass
class IngestResult:
    snapshots: dict[int, YearSnapshot]
    summary: IngestSummary = field(default_factory=IngestSummary)


@dataclass
class _ParsedRange:
    """One byte range's line accounting (no sessions yet), vocabulary, and
    records, whose codes index ``names``; ``error`` is its first strict-mode
    problem as ``(line index in the range, exception)``."""

    summary: IngestSummary
    names: list[str]
    times: array
    sources: array
    targets: array
    error: tuple[int, ChronoscopeError] | None


def read_node_pages(path) -> dict[int, dict[str, int]]:
    """Read a ``year<TAB>third_level_domain<TAB>page_count`` file."""
    per_year: dict[int, dict[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise MalformedLine(f"{path}:{lineno}: expected 3 fields")
            try:
                year, pages = int(parts[0]), int(parts[2])
            except ValueError:
                raise MalformedLine(f"{path}:{lineno}: non-integer field") from None
            if pages < 0:
                raise MalformedLine(f"{path}:{lineno}: negative page count")
            per_year.setdefault(year, {})[parts[1]] = pages
    return per_year


def _ranges(paths: Sequence, cores: int) -> list[tuple[object, int, int]]:
    """``(path, start, stop)`` byte ranges covering each non-empty file in
    order, about one per core; each ends after a ``\\n`` or at end of file."""
    sizes = [os.path.getsize(path) for path in paths]
    chunk = max(-(-sum(sizes) // cores), parallel.MIN_WORKER_BYTES)
    ranges = []
    for path, size in zip(paths, sizes):
        start, pieces = 0, -(-size // chunk)
        with open(path, "rb") as fh:  # so an unreadable input fails before any parse
            for k in range(1, pieces):
                fh.seek(max(start, size * k // pieces))
                fh.readline()
                if (stop := fh.tell()) < size:
                    ranges.append((path, start, stop))
                    start = stop
        if start < size:
            ranges.append((path, start, size))
    return ranges


def _blocks(path, start: int, stop: int) -> Iterator[list]:
    """The lines of bytes ``[start, stop)`` of a file, one list per block of
    about ``_BLOCK_BYTES``, without line breaks; a line that is not valid
    UTF-8 is None."""
    with open(path, "rb") as fh:
        fh.seek(start)
        left, carry = stop - start, b""
        while True:
            data = fh.read(min(_BLOCK_BYTES, left))
            left -= len(data)
            block, last = carry + data, not (left and data)
            if not last:
                # end at the last line break; a final \r may start a \r\n
                cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
                block, carry = block[:cut], block[cut:]
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            try:
                lines = block.decode("utf-8").split("\n")
            except UnicodeDecodeError:
                lines = [_utf8_or_none(raw) for raw in block.split(b"\n")]
            if lines[-1] == "":  # the break that ends the block
                lines.pop()
            yield lines
            if last:
                return


def _utf8_or_none(raw: bytes) -> str | None:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return None


def _parse_range(path, start: int, stop: int, policy: SuffixPolicy, strict: bool) -> _ParsedRange:
    """Parse bytes ``[start, stop)`` of a file."""
    names: list[str] = []
    code_of: dict[str, int] = {}

    def resolve(authority: str) -> int:
        host = authority_host(authority)
        try:
            if not host:
                raise MalformedUrl("empty hostname")
            name = parse_host_key(host, policy).third_level
        except MalformedUrl:
            if strict:
                raise
            return _MALFORMED_URL
        except OutOfScopeTld:
            return _OUT_OF_SCOPE
        except UnknownSld:
            return _UNKNOWN_SLD
        code = code_of.get(name)
        if code is None:
            code = code_of[name] = len(names)
            names.append(name)
        return code

    host_cache: dict[str, int] = {}
    cache_get = host_cache.get
    times, sources, targets = array("q"), array("i"), array("i")
    add_time, add_source, add_target = times.append, sources.append, targets.append
    n_lines = n_self = n_malformed = index = 0
    url_skips = [0, 0, 0]  # indexed by the negative skip codes
    error = None
    try:
        for lines in _blocks(path, start, stop):
            for index, line in enumerate(lines):
                try:
                    time_text, source_url, target_url = line.split("\t")
                except AttributeError:  # None: not UTF-8
                    if strict:
                        raise MalformedLine("invalid UTF-8") from None
                    n_malformed += 1
                    continue
                except ValueError:
                    if strict:
                        raise MalformedLine("expected 3 fields") from None
                    n_malformed += 1
                    continue
                try:
                    crawl_time = int(time_text)
                except ValueError:
                    if strict:
                        raise MalformedLine(f"bad time {time_text!r}") from None
                    n_malformed += 1
                    continue
                if not 0 <= crawl_time < _TIME_LIMIT:
                    if strict:
                        raise MalformedLine(f"time {crawl_time} out of range")
                    n_malformed += 1
                    continue

                authority = url_authority(source_url)
                source = cache_get(authority)
                if source is None:
                    source = host_cache[authority] = resolve(authority)
                if source < 0:
                    url_skips[source] += 1
                    continue
                authority = url_authority(target_url)
                target = cache_get(authority)
                if target is None:
                    target = host_cache[authority] = resolve(authority)
                if target < 0:
                    url_skips[target] += 1
                    continue

                if source == target:
                    n_self += 1
                    continue
                add_time(crawl_time)
                add_source(source)
                add_target(target)
            n_lines += len(lines)
    except (MalformedLine, MalformedUrl) as exc:
        error = (n_lines + index, exc)
    summary = IngestSummary(
        lines=n_lines,
        records=len(times),
        self_loops=n_self,
        malformed_lines=n_malformed,
        malformed_urls=url_skips[_MALFORMED_URL],
        out_of_scope=url_skips[_OUT_OF_SCOPE],
        unknown_sld=url_skips[_UNKNOWN_SLD],
    )
    return _ParsedRange(summary, names, times, sources, targets, error)


def _starts(*columns: np.ndarray) -> np.ndarray:
    """Positions where the rows of the sorted ``columns`` start a new group."""
    new = np.zeros(len(columns[0]), bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(new)


def _reduce(
    parsed: list[_ParsedRange],
    gap_seconds: int,
    year_select: str,
    wanted: set[int] | None,
) -> IngestResult:
    """Sessions, yearly selection and snapshots from the parsed ranges."""
    summary = IngestSummary(
        **{f.name: sum(getattr(p.summary, f.name) for p in parsed) for f in fields(IngestSummary)}
    )
    names = sorted(set().union(*(p.names for p in parsed)))
    code_of = {name: code for code, name in enumerate(names)}
    times, source, target = ([np.empty(0, dtype)] for dtype in (np.int64, np.int32, np.int32))
    for p in parsed:
        remap = np.array([code_of[name] for name in p.names], np.int32)
        times.append(np.frombuffer(p.times, np.int64))
        source.append(remap[np.frombuffer(p.sources, np.intc)])
        target.append(remap[np.frombuffer(p.targets, np.intc)])
    times, source, target = map(np.concatenate, (times, source, target))

    # records equal in (source, time) give the same sessions and counts in
    # any order, so only the sort by source needs to be stable
    order = np.argsort(times)
    order = order[np.argsort(source[order], kind="stable")]
    times, source, target = times[order], source[order], target[order]
    new = np.ones(len(times), bool)
    new[1:] = (source[1:] != source[:-1]) | (np.diff(times) > gap_seconds)
    starts = np.flatnonzero(new)
    summary.sessions = len(starts)
    session = np.cumsum(new) - 1
    session_source, session_year = source[starts], years_of(times[starts])
    session_size = np.diff(np.append(starts, len(times)))

    # per (session, target) link counts
    order = np.lexsort((target, session))
    session, target = session[order], target[order]
    at = _starts(session, target)
    pair_session, pair_target = session[at], target[at]
    pair_count = np.diff(np.append(at, len(order)))
    del times, source, target, session, order  # the per-record columns

    # (year, source, target, count) of each (session, target) pair
    pairs = np.stack(
        (session_year[pair_session], session_source[pair_session], pair_target, pair_count)
    )
    if year_select == BEST_SESSION:
        # per (year, source), the session with the largest total; sessions
        # are in (source, start) order, and the stable sort keeps the earlier
        # start first among equal totals
        ranked = np.lexsort((-session_size, session_year, session_source))
        best = np.zeros(len(starts), bool)
        best[ranked[_starts(session_source[ranked], session_year[ranked])]] = True
        pairs = pairs[:, best[pair_session]]
    if wanted is not None:
        pairs = pairs[:, np.isin(pairs[0], sorted(wanted))]
    # the largest count of each (year, source, target) sorts first
    pairs = pairs[:, np.lexsort((-pairs[3], pairs[2], pairs[1], pairs[0]))]
    year, source, target, weight = pairs[:, _starts(*pairs[:3])]

    snapshots = {}
    bounds = np.append(_starts(year), len(year)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        ends = np.concatenate((source[lo:hi], target[lo:hi]))
        used, local = np.unique(ends, return_inverse=True)
        nodes = tuple(map(names.__getitem__, used.tolist()))
        snap_year = int(year[lo])
        snapshots[snap_year] = YearSnapshot(
            snap_year, nodes, local[: hi - lo], local[hi - lo :], weight[lo:hi]
        )
    empty = np.empty(0, np.int64)
    for snap_year in sorted((wanted or set()) - set(snapshots)):
        snapshots[snap_year] = YearSnapshot(snap_year, (), empty, empty, empty)
    return IngestResult(dict(sorted(snapshots.items())), summary)


def ingest_links(
    paths: Sequence,
    policy: SuffixPolicy,
    gap_seconds: int = DEFAULT_GAP_SECONDS,
    year_select: str = PER_PAIR_MAX,
    strict: bool = False,
    years: Iterable[int] | None = None,
) -> IngestResult:
    """Ingest link-log files into per-year snapshots.

    Files are treated as shards of one logical stream: records are pooled,
    sorted by time per source domain, split into sessions, and each session is
    assigned to the UTC calendar year of its start.

    ``year_select`` says how a year's sessions become its snapshot.
    ``per-pair-max`` keeps, for each (source, target) pair, the largest count
    any session produced.  ``best-session`` keeps, per source domain, the
    pairs of its one session with the largest total count, as a block; a tie
    goes to the session that started first (sessions of one source never
    overlap, so no two share a start).

    Skipped lines are counted in the summary; with ``strict``, structural
    problems (bad field count, a line that is not UTF-8, a time that is not a
    whole-second unix time in the years 1970-2300, unusable hostname) raise
    instead, with the ``path:line`` of the line within its own file.
    Scoping filters stay counted skips either way: self-links, out-of-scope
    TLDs and unregistered SLDs are dropped by design, not data corruption.
    A file that cannot be opened raises OSError before any line is parsed.

    ``years`` restricts the output to the given years.
    """
    if gap_seconds <= 0:
        raise ValueError("gap_seconds must be positive")
    if year_select not in (PER_PAIR_MAX, BEST_SESSION):
        raise ValueError(f"unknown selection mode {year_select!r}")
    ranges = _ranges(paths, parallel.usable_cores())
    total = sum(stop - start for _, start, stop in ranges)
    parsed = parallel.fork_map(lambda span: _parse_range(*span, policy, strict), ranges, total)

    line_base = 0  # lines of the file's earlier ranges
    for (path, start, _), part in zip(ranges, parsed):
        line_base = line_base if start else 0
        if part.error is not None:
            index, exc = part.error
            raise type(exc)(f"{path}:{line_base + index + 1}: {exc}")
        line_base += part.summary.lines
    return _reduce(parsed, gap_seconds, year_select, set(years) if years is not None else None)
