"""Link-log ingestion: raw timestamped hyperlinks to yearly snapshots.

Input lines are ``crawl_unix_seconds<TAB>source_url<TAB>target_url``.  Both
URLs are reduced to third-level domains, self-links inside one domain are
dropped, and the remaining records are grouped into crawl sessions: runs of
records from one source domain whose consecutive timestamps are at most
``gap_seconds`` apart.  Each session counts hyperlinks per target, and the
yearly snapshot keeps, for every (source, target) pair, the largest count any
session of that year produced.

Records may arrive split across any number of input files in any order;
sessionization runs on the pooled, time-sorted stream per source domain, so
the result is independent of sharding.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Iterator, Sequence

from .domains import SuffixPolicy, authority_host, parse_host_key, url_authority
from .errors import MalformedLine, MalformedUrl, OutOfScopeTld, UnknownSld
from .snapshot import YearSnapshot

PER_PAIR_MAX = "per-pair-max"
BEST_SESSION = "best-session"

DEFAULT_GAP_SECONDS = 1000

# UTC year-start epochs, so ingest can map timestamps to years with a
# bisect instead of a datetime construction per session
_YEAR_BOUNDS = [
    int(datetime(y, 1, 1, tzinfo=timezone.utc).timestamp()) for y in range(1970, 2302)
]
# ingest rejects times from 2301-01-01 on as malformed: such values are
# usually millisecond timestamps, not far-future years
_TIME_LIMIT = _YEAR_BOUNDS[-1]


def year_of_timestamp(ts: int) -> int:
    """UTC calendar year of a unix timestamp in ``[0, _TIME_LIMIT)``."""
    return 1970 + bisect_right(_YEAR_BOUNDS, ts) - 1


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


def _iter_sessions(
    events: Sequence[tuple[int, str]], gap_seconds: int
) -> Iterator[tuple[int, dict[str, int]]]:
    """Split one source's time-sorted ``(time, target)`` events into
    sessions, yielding each session's start time and per-target counts.

    A gap strictly greater than ``gap_seconds`` starts a new session; a gap
    of exactly ``gap_seconds`` stays in-session.
    """
    start = prev = events[0][0]
    weights: dict[str, int] = {}
    for time, target in events:
        if time - prev > gap_seconds:
            yield start, weights
            start = time
            weights = {}
        weights[target] = weights.get(target, 0) + 1
        prev = time
    yield start, weights


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
    problems (bad field count, a time that is not a whole-second unix time
    in the years 1970-2300, unusable hostname) raise instead, with the
    ``path:line`` of the line within its own file.
    Scoping filters stay counted skips either way: self-links, out-of-scope
    TLDs and unregistered SLDs are dropped by design, not data corruption.

    ``years`` restricts the output to the given years.
    """
    if gap_seconds <= 0:
        raise ValueError("gap_seconds must be positive")
    if year_select not in (PER_PAIR_MAX, BEST_SESSION):
        raise ValueError(f"unknown selection mode {year_select!r}")
    summary = IngestSummary()
    intern = sys.intern
    # int codes mark skipped-URL kinds; anything else in the cache is an
    # interned third-level domain
    MALFORMED_URL, OUT_OF_SCOPE, UNKNOWN_SLD = 0, 1, 2
    host_cache: dict[str, object] = {}

    def resolve(authority: str) -> object:
        host = authority_host(authority)
        try:
            if not host:
                raise MalformedUrl("empty hostname")
            return intern(parse_host_key(host, policy).third_level)
        except MalformedUrl:
            if strict:
                raise
            return MALFORMED_URL
        except OutOfScopeTld:
            return OUT_OF_SCOPE
        except UnknownSld:
            return UNKNOWN_SLD

    n_lines = n_records = n_self = n_malformed = 0
    url_skips = [0, 0, 0]
    events_by_source: dict[str, list[tuple[int, str]]] = {}
    cache_get = host_cache.get

    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lineno = 0
            try:
                for lineno, line in enumerate(fh, start=1):
                    parts = line.split("\t")
                    if len(parts) != 3:
                        if strict:
                            raise MalformedLine("expected 3 fields")
                        n_malformed += 1
                        continue
                    time_text, source_url, target_url = parts
                    if target_url and target_url[-1] == "\n":
                        target_url = target_url[:-1]
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
                    if type(source) is not str:
                        url_skips[source] += 1
                        continue
                    authority = url_authority(target_url)
                    target = cache_get(authority)
                    if target is None:
                        target = host_cache[authority] = resolve(authority)
                    if type(target) is not str:
                        url_skips[target] += 1
                        continue

                    if source is target:
                        n_self += 1
                        continue
                    n_records += 1
                    bucket = events_by_source.get(source)
                    if bucket is None:
                        bucket = events_by_source[source] = []
                    bucket.append((crawl_time, target))
            except (MalformedLine, MalformedUrl) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
        n_lines += lineno

    summary.lines = n_lines
    summary.records = n_records
    summary.self_loops = n_self
    summary.malformed_lines = n_malformed
    summary.malformed_urls = url_skips[MALFORMED_URL]
    summary.out_of_scope = url_skips[OUT_OF_SCOPE]
    summary.unknown_sld = url_skips[UNKNOWN_SLD]

    wanted = set(years) if years is not None else None
    per_year_edges: dict[int, dict[tuple[str, str], int]] = {}
    # best-session bookkeeping: (year, source) -> (rank, weights)
    best: dict[tuple[int, str], tuple[tuple[int, int], dict[str, int]]] = {}

    for source in sorted(events_by_source):
        events = events_by_source[source]
        events.sort()
        for start, weights in _iter_sessions(events, gap_seconds):
            summary.sessions += 1
            year = year_of_timestamp(start)
            if wanted is not None and year not in wanted:
                continue
            if year_select == PER_PAIR_MAX:
                edges = per_year_edges.setdefault(year, {})
                for tgt, weight in weights.items():
                    if weight > edges.get((source, tgt), 0):
                        edges[(source, tgt)] = weight
            else:
                rank = (sum(weights.values()), -start)
                key = (year, source)
                cur = best.get(key)
                if cur is None or rank > cur[0]:
                    best[key] = (rank, weights)

    if year_select == BEST_SESSION:
        for (year, source), (_, weights) in best.items():
            edges = per_year_edges.setdefault(year, {})
            for tgt, weight in weights.items():
                edges[(source, tgt)] = weight

    snapshots = {
        year: YearSnapshot.from_edges(year, edges)
        for year, edges in sorted(per_year_edges.items())
    }
    if wanted is not None:
        for year in sorted(wanted):
            if year not in snapshots:
                snapshots[year] = YearSnapshot.from_edges(year, {})
    return IngestResult(snapshots, summary)
