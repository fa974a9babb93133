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
range through ``bytefields.blocks``, the one block reader, in blocks of a
few MB that each end at a line break, and scans a block's bytes with numpy
through ``bytefields``, the byte-field layer that ``snapshot.read_snapshot``
reads its files with too, in smaller blocks:

- ``bytefields.lines`` and ``bytefields.integers`` give each line's fields,
  its UTF-8 validity and its time; a line that is not a data line (UTF-8,
  two tabs, an integer time before 2301-01-01 UTC) is malformed;
- ``domains.authority_spans`` gives each URL's authority as a byte span;
- the range's ``bytefields.Interner`` gives each distinct authority a code
  and decodes the authorities new to the range in one batch; each is
  resolved to a third-level domain once.

The skip accounting then follows from masks over the block's lines: a
malformed line first, then the source URL, then the target, then a self-link.
A range returns its line accounting, its own vocabulary of third-level
domains and its records as one sorted run (see the reduction).  The ranges,
about one per usable core, run through ``parallel.fork_map``: in ``fork``
workers when there is more than one usable core and at least
``parallel.MIN_WORKER_BYTES`` of input per worker, else one after another in
this process.

In strict mode a range stops at its first structural problem, worded by
``bytefields.line_problem`` for a malformed line, and the first one in file
order is raised with ``path:line``, the line counted within its own file.

Reduction.  Each range sorts its own records, so that the O(N log N) sort
runs in the workers, and the parent merges the sorted runs (Knuth, TAOCP
vol. 3, 5.4).  A range codes its vocabulary with ``snapshot.name_codes`` and
sorts its records by the key ``source * _TIME_LIMIT + time``, exact for
source codes below ``2**64 // _TIME_LIMIT`` (1,766,028,225, more names than
fit in memory), and returns one ascending uint64 key and one int32 target
code per record.  The parent codes all the vocabularies with one
``name_codes`` call, so a code's order is its name's order.  It takes the
runs out of the list one at a time, each freed once it is copied: their
codes map into one preallocated key and target column, and since the map is
monotone every run stays sorted.  One stable sort, numpy's timsort, finds
the R runs and merges them in O(N log R) time; one run needs no merge.  A
session starts where the source changes or the time steps by more than
``gap_seconds``, and it belongs to the UTC year of its start.  The later
keys put a session or group id above a 31-bit target code, and each is one
numpy sort.  A sort by (session, target) counts each session's links per
target.  Sessions run in (source, start) order, so the (source, year) groups
of sessions get dense ids in that order, and a sort by (group, target) with
a maximum per run gives each pair's largest count; ``best-session`` first
keeps each group's session with the largest total.  ``from_columns`` builds
each year's snapshot, an empty one too, from its groups' pairs.  Each stage
frees the per-record and per-pair arrays that it no longer needs before the
next stage allocates, so the parent's peak is about that of the merge.  No
step depends on how the records are split over files or ranges, so the
result is independent of sharding.
"""

from __future__ import annotations

import os
import sys
from array import array
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import Iterable, Sequence

import numpy as np

from . import bytefields, parallel
from .domains import SuffixPolicy, authority_host, authority_spans, parse_host_key
from .errors import (
    ChronoscopeError,
    MalformedLine,
    MalformedUrl,
    OutOfScopeTld,
    UnknownSld,
)
from .snapshot import YearSnapshot, check_year, name_codes

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
_KEY_STEP = np.uint64(_TIME_LIMIT)  # one source code's step in a uint64 record key

# a range is read in blocks of this many bytes (plus a partial last line)
_BLOCK_BYTES = 4 << 20

# host codes of the skipped-URL kinds; codes >= 0 index a vocabulary
_MALFORMED_URL, _OUT_OF_SCOPE, _UNKNOWN_SLD = -1, -2, -3
# the reduction packs an int32 code into the low 31 bits of an int64 key
_CODE_MASK = (1 << 31) - 1


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

    def __add__(self, other: "IngestSummary") -> "IngestSummary":
        return IngestSummary(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))

    def skipped(self) -> int:
        return (
            self.self_loops
            + self.malformed_lines
            + self.malformed_urls
            + self.out_of_scope
            + self.unknown_sld
        )

    def report(self) -> None:
        print(
            "ingest summary: "
            f"lines={self.lines} records={self.records} sessions={self.sessions} "
            f"self_loops={self.self_loops} malformed_lines={self.malformed_lines} "
            f"malformed_urls={self.malformed_urls} out_of_scope={self.out_of_scope} "
            f"unknown_sld={self.unknown_sld}",
            file=sys.stderr,
        )


@dataclass
class IngestResult:
    snapshots: dict[int, YearSnapshot]
    summary: IngestSummary = field(default_factory=IngestSummary)


@dataclass
class _ParsedRange:
    """One byte range's line accounting (no sessions yet), its vocabulary in
    name order, and its records as one sorted run: ascending uint64 ``keys``
    ``source * _TIME_LIMIT + time`` and the int32 ``targets`` in key order,
    both codes indexing ``names``; ``error`` is its first strict-mode problem
    as ``(line index in the range, exception)``."""

    summary: IngestSummary
    names: list[str]
    keys: np.ndarray
    targets: np.ndarray
    error: tuple[int, ChronoscopeError] | None


def read_node_pages(path) -> dict[int, dict[str, int]]:
    """Read ``year<TAB>third_level_domain<TAB>page_count`` lines, one per
    (year, domain); the year and the count are ASCII digits."""
    rows, per_year = bytefields.Rows(path, "year<TAB>domain<TAB>pages"), {}
    for year, domain, pages in rows:
        year, pages = (rows.integer(text, "non-integer field") for text in (year, pages))
        rows.record(per_year.setdefault(year, {}), domain, pages)
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


def _parse_range(path, start: int, stop: int, policy: SuffixPolicy, strict: bool) -> _ParsedRange:
    """Parse bytes ``[start, stop)`` of a file."""
    code_of: dict[str, int] = {}  # third-level domains in first-seen order

    def resolve(authority: str) -> int:
        try:
            name = parse_host_key(authority_host(authority), policy)
        except MalformedUrl:
            return _MALFORMED_URL
        except OutOfScopeTld:
            return _OUT_OF_SCOPE
        except UnknownSld:
            return _UNKNOWN_SLD
        return code_of.setdefault(name, len(code_of))

    # each distinct authority of the range is interned, and resolved once
    interner, hosts = bytefields.Interner(), array("i")

    def host_codes(block: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        codes = interner.intern(block, lo, hi)
        hosts.extend(map(resolve, interner.strings[len(hosts) :]))
        return np.frombuffer(hosts, np.intc)[codes]

    summary = IngestSummary()
    columns = array("q"), array("i"), array("i")  # times, sources, targets
    error = None
    for block in bytefields.blocks(path, start, stop, _BLOCK_BYTES):
        counts, records, problem = _parse_block(block, host_codes, policy, strict)
        if problem is not None:
            error = (summary.lines + problem[0], problem[1])
            break
        summary += counts
        for column, values in zip(columns, records):
            column.frombytes(values.tobytes())
    del interner, hosts

    # the run: names in order, so a code's order is its name's, and the
    # records in key order, each column freed once the next one is built;
    # records with equal keys fall in one session, so their order does not
    # matter
    names, rank = name_codes(list(code_of))
    times, sources, targets = columns
    del columns
    keys = rank.astype(np.uint64)[np.frombuffer(sources, np.intc)]
    del sources
    keys *= _KEY_STEP
    keys += np.frombuffer(times, np.uint64)  # times are non-negative
    del times
    by_key = np.argsort(keys)
    keys = keys[by_key]
    targets = rank.astype(np.int32)[np.frombuffer(targets, np.intc)][by_key]
    return _ParsedRange(summary, list(names), keys, targets, error)


def _parse_block(block: bytes, host_codes, policy: SuffixPolicy, strict: bool):
    """The line accounting and records of one block, or in strict mode its
    first problem as ``(line index in the block, exception)``;
    ``host_codes(block, lo, hi)`` gives the host codes of authority spans."""
    lines = bytefields.lines(block)
    begins, ends = lines.begins, lines.ends
    line = np.flatnonzero(lines.utf8 & (lines.tab_counts == 2))
    tab1, tab2 = lines.tab(line, 0), lines.tab(line, 1)
    time, valid = bytefields.integers(lines.data, begins[line], tab1)
    valid_time = valid & (time < _TIME_LIMIT)
    line, tab1, tab2, time = line[valid_time], tab1[valid_time], tab2[valid_time], time[valid_time]
    lo, hi = authority_spans(lines.data, np.append(tab1, tab2) + 1, np.append(tab2, ends[line]))
    codes = host_codes(block, lo, hi)
    source, target = codes[: len(line)], codes[len(line) :]
    skipped_source = source < 0
    skipped_target = ~skipped_source & (target < 0)

    if strict:
        # the first line that is malformed or names a malformed URL (a
        # target only counts when the source is usable)
        malformed = np.ones(len(begins), bool)
        malformed[line] = False
        bad_url = (source == _MALFORMED_URL) | (skipped_target & (target == _MALFORMED_URL))
        problems = malformed.copy()
        problems[line[bad_url]] = True
        if problems.any():
            i = int(problems.argmax())
            if malformed[i]:
                reason = bytefields.line_problem(block[begins[i] : ends[i]], 0, "time", _TIME_LIMIT)
                return None, None, (i, MalformedLine(reason))
            j = int(np.searchsorted(line, i))
            j += 0 if source[j] == _MALFORMED_URL else len(line)
            try:
                parse_host_key(authority_host(block[lo[j] : hi[j]].decode("utf-8")), policy)
            except MalformedUrl as exc:
                return None, None, (i, exc)

    kinds = np.bincount(-np.append(source[skipped_source], target[skipped_target]), minlength=4)
    kept = ~skipped_source & ~skipped_target
    loops = kept & (source == target)
    kept &= ~loops
    counts = IngestSummary(
        lines=len(begins),
        records=int(kept.sum()),
        self_loops=int(loops.sum()),
        malformed_lines=len(begins) - len(line),
        malformed_urls=int(kinds[-_MALFORMED_URL]),
        out_of_scope=int(kinds[-_OUT_OF_SCOPE]),
        unknown_sld=int(kinds[-_UNKNOWN_SLD]),
    )
    return counts, (time[kept], source[kept], target[kept]), None


def _new_groups(*columns: np.ndarray) -> np.ndarray:
    """Whether each row of the sorted ``columns`` starts a new group."""
    new = np.zeros(len(columns[0]), bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return new


def _starts(*columns: np.ndarray) -> np.ndarray:
    """Positions where the rows of the sorted ``columns`` start a new group."""
    return np.flatnonzero(_new_groups(*columns))


def _merged(runs: list[_ParsedRange]) -> tuple[Sequence[str], np.ndarray, np.ndarray]:
    """All names in order, and every record's key and target over them in
    key order, taking the runs out of ``runs`` one at a time."""
    if len(runs) == 1:  # its names are all the names
        run = runs.pop()
        return run.names, run.keys, run.targets
    # each run's names map to its slice of the codes
    names, codes = name_codes([name for run in runs for name in run.names])
    size = sum(len(run.keys) for run in runs)
    keys, targets = np.empty(size, np.uint64), np.empty(size, np.int32)
    end = 0
    while runs:
        run = runs.pop(0)
        remap, codes = np.split(codes, [len(run.names)])
        at = slice(end, end + len(run.keys))
        # a run's sources are runs of equal codes, and the remap is monotone,
        # so shifting each source's keys keeps the run sorted
        bounds = np.searchsorted(run.keys, np.arange(len(remap) + 1, dtype=np.uint64) * _KEY_STEP)
        shift = (remap - np.arange(len(remap))).astype(np.uint64) * _KEY_STEP
        np.add(run.keys, np.repeat(shift, np.diff(bounds)), out=keys[at])
        targets[at] = remap[run.targets]
        end = at.stop
        del run
    # a stable sort is a timsort, which merges the sorted runs
    targets = targets[np.argsort(keys, kind="stable")]
    keys.sort(kind="stable")
    return names, keys, targets


def _reduce(
    runs: list[_ParsedRange],
    gap_seconds: int,
    year_select: str,
    wanted: set[int] | None,
) -> IngestResult:
    """Sessions, yearly selection and snapshots from the ranges' sorted runs,
    which it takes out of ``runs``."""
    summary = sum((run.summary for run in runs), IngestSummary())
    names, keys, target = _merged(runs)

    # a session starts at a new source, and where the time steps by more
    # than gap_seconds; within one source a key step is the time step
    # (a source without records starts at the sentinel past the end)
    new = np.ones(len(keys) + 1, bool)
    np.greater(np.diff(keys), gap_seconds, out=new[1:-1])
    new[np.searchsorted(keys, np.arange(len(names), dtype=np.uint64) * _KEY_STEP)] = True
    new = new[:-1]
    starts = np.flatnonzero(new)
    summary.sessions = len(starts)
    session_source, start_time = (a.astype(np.int64) for a in np.divmod(keys[starts], _KEY_STEP))
    session_year = years_of(start_time)
    session_size = np.diff(np.append(starts, len(keys)))
    del keys, starts, start_time

    # per (session, target) link counts: session << 31 | target is exact
    # below 2**32 sessions, and sorts in place
    key = np.cumsum(new, dtype=np.int64)
    del new
    key -= 1
    key <<= 31
    key |= target
    del target  # the last per-record columns
    key.sort()
    at = _starts(key)
    pair_count = np.diff(np.append(at, len(key)))
    key = key[at]
    del at
    pair_session, pair_target = key >> 31, key & _CODE_MASK
    del key

    # a dense id per (source, year) of the sessions, which run in (source,
    # start) order, so the years of one source never decrease
    group = np.cumsum(_new_groups(session_source, session_year)) - 1
    bounds = _starts(group)
    group_source, group_year = session_source[bounds], session_year[bounds]
    keep = np.ones(len(pair_session), bool)
    if year_select == BEST_SESSION:
        # per (source, year), the session with the largest total; among
        # equal totals the first, which started earliest
        top = np.maximum.reduceat(session_size, bounds)
        ties = np.flatnonzero(session_size == top[group])
        best = np.zeros(len(group), bool)
        best[ties[_starts(group[ties])]] = True
        keep &= best[pair_session]
    pair_group = group[pair_session]
    del pair_session, group, session_source, session_year, session_size
    if wanted is not None:
        keep &= np.isin(group_year[pair_group], sorted(wanted))
    # the largest count of each (group, target)
    key = pair_group[keep] << 31 | pair_target[keep]
    pair_count = pair_count[keep]
    del pair_group, pair_target, keep
    order = np.argsort(key)
    key = key[order]
    at = _starts(key)
    weight = np.maximum.reduceat(pair_count[order], at)
    del order, pair_count
    group_of, target = key[at] >> 31, key[at] & _CODE_MASK
    del key, at
    source, year = group_source[group_of], group_year[group_of]
    del group_of

    snapshots = {}
    for snap_year in sorted(set(np.flatnonzero(np.bincount(year)).tolist()) | (wanted or set())):
        # the groups of one year run in source order
        sel = np.flatnonzero(year == snap_year)
        snapshots[snap_year] = YearSnapshot.from_columns(
            snap_year, names, source[sel], target[sel], weight[sel]
        )
    return IngestResult(snapshots, summary)


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
    problems raise instead, with the ``path:line`` of the line within its
    own file: a bad field count, a line that is not UTF-8, a ``bad time``
    that breaks the integer rule, a ``time N out of range`` that is not a
    whole-second unix time in the years 1970-2300, and an unusable hostname.
    Scoping filters stay counted skips either way: self-links, out-of-scope
    TLDs and unregistered SLDs are dropped by design, not data corruption.
    A file that cannot be opened raises OSError before any line is parsed.

    ``years`` restricts the output to the given years; a year that a
    snapshot header cannot hold raises ValueError before any file is opened.
    """
    if gap_seconds <= 0:
        raise ValueError("gap_seconds must be positive")
    if year_select not in (PER_PAIR_MAX, BEST_SESSION):
        raise ValueError(f"unknown selection mode {year_select!r}")
    if years is not None:
        years = list(years)
        for year in years:
            check_year(year)
    ranges = _ranges(paths, parallel.usable_cores())
    total = sum(stop - start for _, start, stop in ranges)
    runs = parallel.fork_map(lambda span: _parse_range(*span, policy, strict), ranges, total)
    _raise_first_error(ranges, runs)
    # _reduce takes the runs out of the list, so each is freed once merged
    return _reduce(runs, gap_seconds, year_select, set(years) if years is not None else None)


def _raise_first_error(ranges: list, runs: list[_ParsedRange]) -> None:
    """Raise the first strict-mode problem of the ranges in file order, with
    its ``path:line``."""
    line_base = 0  # lines of the file's earlier ranges
    for (path, start, _), run in zip(ranges, runs):
        line_base = line_base if start else 0
        if run.error is not None:
            index, exc = run.error
            raise type(exc)(f"{path}:{line_base + index + 1}: {exc}")
        line_base += run.summary.lines
