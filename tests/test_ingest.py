import collections
import concurrent.futures
import datetime
import os
import random
import re
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chronoscope.domains import authority_host, authority_spans, default_policy, parse_host_key
from chronoscope.errors import (
    ChronoscopeError,
    MalformedLine,
    MalformedUrl,
    SnapshotFormatError,
)
from chronoscope import bytefields, ingest, parallel
from chronoscope.ingest import (
    BEST_SESSION,
    PER_PAIR_MAX,
    IngestSummary,
    ingest_links,
    read_node_pages,
    years_of,
)
from chronoscope.snapshot import read_snapshot, write_snapshot
from graphs import snapshot_of
from oracles import brute_ingest, partition_authority
from pools import RecordingPool

POLICY = default_policy()


def utc(year, month=1, day=1, hour=0):
    stamp = datetime.datetime(year, month, day, hour, tzinfo=datetime.timezone.utc)
    return int(stamp.timestamp())


def year_of(ts):
    return datetime.datetime.fromtimestamp(ts, tz=datetime.timezone.utc).year


def write_links(path, rows):
    path.write_text("".join(f"{t}\t{s}\t{g}\n" for t, s, g in rows), encoding="utf-8")


def link(t, source="ox.ac.uk", target="cam.ac.uk"):
    return (t, f"http://{source}/a", f"http://{target}/b")


def ingest_rows(tmp_path, rows, **kwargs):
    path = tmp_path / "links.tsv"
    write_links(path, rows)
    return ingest_links([path], POLICY, **kwargs)


def edges_by_year(result):
    return {year: dict(snap.edges) for year, snap in result.snapshots.items()}


# --- line parsing ---

def test_parse_link_line(tmp_path):
    result = ingest_rows(tmp_path, [link(850003200)])
    assert edges_by_year(result) == {1996: {("ox.ac.uk", "cam.ac.uk"): 1}}
    assert result.summary.lines == result.summary.records == 1


def test_parse_link_line_self_loop(tmp_path):
    result = ingest_rows(tmp_path, [link(850003200, target="www.ox.ac.uk")])
    assert result.snapshots == {}
    assert result.summary.self_loops == 1 and result.summary.records == 0


def test_parse_link_line_malformed(tmp_path):
    bad = [
        "oops",
        "soon\thttp://ox.ac.uk/\thttp://cam.ac.uk/",
        "-5\thttp://ox.ac.uk/\thttp://cam.ac.uk/",
        "1\thttp://ox.ac.uk/\thttp://cam.ac.uk/\textra",
    ]
    path = tmp_path / "links.tsv"
    path.write_text("".join(line + "\n" for line in bad), encoding="utf-8")
    summary = ingest_links([path], POLICY).summary
    assert summary.malformed_lines == summary.lines == len(bad)
    for line in bad:
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            ingest_links([path], POLICY, strict=True)


# int() reads each of the bad times but 2**63: a sign, spaces, "_", other
# digits; a time of digits from 2301 on is out of range
@pytest.mark.parametrize(
    "time, reason",
    [(t, f"bad time {t!r}") for t in ("+5", " 7", "1_0", "-0", "\u0663", "\uff11\uff12", str(2**63))]
    + [(t, f"time {int(t)} out of range") for t in (str(utc(2301)), f"000{utc(2301)}", str(2**63 - 1))],
)
def test_a_time_is_ascii_digits_below_2301(tmp_path, time, reason):
    path = tmp_path / "links.tsv"
    write_links(path, [link(utc(2003)), link(time)])
    summary = ingest_links([path], POLICY).summary
    assert (summary.lines, summary.records, summary.malformed_lines) == (2, 1, 1)
    with pytest.raises(MalformedLine) as err:
        ingest_links([path], POLICY, strict=True)
    assert str(err.value) == f"{path}:2: {reason}"


def test_ingest_strict_error_locations(tmp_path):
    # line numbers count within each shard, not across the pooled stream
    base = utc(2002)
    first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_links(first, [link(base + i) for i in range(3)])
    second.write_text("junk\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        ingest_links([first, second], POLICY, strict=True)
    assert str(err.value) == f"{second}:1: expected 3 fields"

    write_links(second, [link(base), link(base, target="bad..ac.uk")])
    with pytest.raises(MalformedUrl) as err:
        ingest_links([first, second], POLICY, strict=True)
    assert str(err.value) == f"{second}:2: empty label in hostname 'bad..ac.uk'"
    assert ingest_links([first, second], POLICY).summary.malformed_urls == 1


# --- sessionization ---

def test_sessionize_splits_on_gap(tmp_path):
    base = utc(1996)
    result = ingest_rows(tmp_path, [link(base + t) for t in (0, 500, 900, 2500)], gap_seconds=1000)
    # sessions of 3 and 1 links; one session would have kept 4
    assert result.summary.sessions == 2
    assert edges_by_year(result) == {1996: {("ox.ac.uk", "cam.ac.uk"): 3}}


def test_sessionize_boundary_gap_stays_in_session(tmp_path):
    base = utc(1996)
    together = ingest_rows(tmp_path, [link(base), link(base + 1000)], gap_seconds=1000)
    assert together.summary.sessions == 1
    assert together.snapshots[1996].edges[("ox.ac.uk", "cam.ac.uk")] == 2
    apart = ingest_rows(tmp_path, [link(base), link(base + 1001)], gap_seconds=1000)
    assert apart.summary.sessions == 2
    assert apart.snapshots[1996].edges[("ox.ac.uk", "cam.ac.uk")] == 1


def test_sessionize_empty(tmp_path):
    result = ingest_rows(tmp_path, [])
    assert result.snapshots == {}
    assert result.summary == IngestSummary()


def test_sessions_order_the_two_times_of_one_pair_of_seconds(tmp_path):
    # each source has records at 2k and 2k+1, in either input order, and one
    # exactly a gap after 2k+1: one session of three links each
    base = utc(2004) + 10
    rows = []
    for k in range(20):
        pair = [link(base + 1, f"s{k}.ac.uk"), link(base, f"s{k}.ac.uk")]
        rows += pair[:: 1 if k % 2 else -1] + [link(base + 1001, f"s{k}.ac.uk")]
    result = ingest_rows(tmp_path, rows, gap_seconds=1000)
    assert result.summary.sessions == 20
    assert set(dict(result.snapshots[2004].edges).values()) == {3}


@pytest.mark.parametrize("year_select", [PER_PAIR_MAX, BEST_SESSION])
def test_many_records_per_source_and_second(tmp_path, monkeypatch, year_select):
    # a crawler stamps a page's out-links with one time: each source has
    # hundreds of records at a few seconds of either parity, so most records
    # share their (source, second) with others, and s0 also has the first
    # and last accepted times.  base + 1001 stays in the first session only
    # if base + 1 sorts after base.  The records are shuffled over three
    # files cut into small ranges, read in small blocks.
    rng = random.Random(1101)
    base = utc(2006) + 10
    seconds = [base, base + 1, base + 1001, base + 1002, base + 2600, base + 2601]
    rows = []
    for s in range(4):
        times = seconds + ([0, ingest._TIME_LIMIT - 1] if s == 0 else [])
        for _ in range(300):
            rows.append(link(rng.choice(times), f"s{s}.ac.uk", f"t{rng.randrange(5)}.co.uk"))
    rng.shuffle(rows)
    paths = [tmp_path / f"links{k}.tsv" for k in range(3)]
    ranges = []
    for k, path in enumerate(paths):
        write_links(path, rows[k::3])
        data = path.read_bytes()
        breaks = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        bounds = [0, *breaks[49::50]]
        ranges += [(path, a, b) for a, b in zip(bounds, bounds[1:])]
        assert bounds[-1] == len(data)
    data = b"".join(map(Path.read_bytes, paths))
    best = year_select == BEST_SESSION
    expected, summary, _ = brute_ingest(data, POLICY.registered_slds, 1000, best)
    assert set(expected) == {1970, 2006, 2300}
    monkeypatch.setattr(ingest, "_ranges", lambda paths, cores: ranges)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1000)
    result = ingest_links(paths, POLICY, 1000, year_select)
    assert vars(result.summary) == summary
    assert edges_by_year(result) == expected


SOURCES = ["a.ac.uk", "b.co.uk"]
TARGETS = ["c.ac.uk", "d.org.uk", "e.gov.uk"]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(SOURCES),
            st.sampled_from(TARGETS),
            st.integers(min_value=0, max_value=40_000),
        ),
        max_size=60,
    ),
    gap=st.integers(min_value=1, max_value=5_000),
    year_select=st.sampled_from([PER_PAIR_MAX, BEST_SESSION]),
)
def test_sessionize_partitions_records(rows, gap, year_select):
    # rows straddle a new year and arrive unsorted; few distinct totals make
    # best-session ties common
    base = utc(2004) - 20_000
    rows = [link(base + off, src, tgt) for src, tgt, off in rows]
    data = "".join(f"{t}\t{s}\t{g}\n" for t, s, g in rows).encode()
    best = year_select == BEST_SESSION
    expected, summary, _ = brute_ingest(data, POLICY.registered_slds, gap, best)
    with tempfile.TemporaryDirectory() as tmp:
        result = ingest_rows(Path(tmp), rows, gap_seconds=gap, year_select=year_select)
    assert vars(result.summary) == summary
    assert edges_by_year(result) == expected


# lines for the range properties: good, skipped, malformed and non-UTF-8
HOSTS = [
    "a.ac.uk", "WWW.B.CO.UK", "c.gov.uk:8080", "user@d.org.uk", "mail.a.ac.uk",
    "x.example.com", "y.zz.uk", "", "ac.uk", "bad..ac.uk",
    "a-host-name-longer-than-forty-bytes.example.ac.uk", "a.ac.uk\x00",
]
# URL forms on which urlsplit and the authority rule agree: "://" in the path
# or query, a leading "//", no scheme, and multi-byte UTF-8 in the path
URLS = [
    "http://{}/p", "http://{}/p?u=http://a.ac.uk/", "http://{}/x://y", "//{}/p", "{}/p",
    "http://{}/\u00fc\u20ac",
]
# int() takes a sign, spaces, "_" and non-ASCII digits, which a time may not
# hold; the 20- and 25-digit times are not integer fields (the first would
# read as a 2003 time modulo 2**64)
TIMES = st.integers(utc(2003) - 3_000, utc(2003) + 3_000) | st.sampled_from(
    [-1, utc(2301), "+5", " 7", "1_0", "-0", "\u0663", str(2**64 + utc(2003)), "1" * 25]
)
LINE = st.one_of(
    st.builds(
        lambda t, s, g: f"{t}\t{s}\t{g}".encode(),
        TIMES,
        st.builds(str.format, st.sampled_from(URLS), st.sampled_from(HOSTS)),
        st.builds(str.format, st.sampled_from(URLS), st.sampled_from(HOSTS)),
    ),
    st.sampled_from(
        [
            b"",
            b"junk",
            b"12\thttp://a.ac.uk/",
            b"1\thttp://a.ac.uk/\thttp://c.gov.uk/\textra",
            b"soon\thttp://a.ac.uk/\thttp://c.gov.uk/",
            b"1057017600\thttp://a.ac.uk/\xff\thttp://c.gov.uk/",
            b"\xe2\x82\thttp://a.ac.uk/\thttp://c.gov.uk/",
        ]
    ),
)


@st.composite
def link_logs(draw):
    """A log's bytes with mixed line breaks, and cut points after some \\n."""
    lines = draw(st.lists(st.tuples(LINE, st.sampled_from([b"\n", b"\r\n", b"\r"])), max_size=30))
    data = b"".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):
        data = data[: -len(lines[-1][1])]  # no break after the last line
    newlines = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    cuts = draw(st.lists(st.sampled_from(newlines), unique=True)) if newlines else []
    return data, sorted(cuts)


@settings(max_examples=300, deadline=None)
@given(
    log=link_logs(),
    gap=st.integers(min_value=1, max_value=4_000),
    year_select=st.sampled_from([PER_PAIR_MAX, BEST_SESSION]),
    strict=st.booleans(),
    block_bytes=st.integers(min_value=1, max_value=200),
)
def test_ranges_match_single_range_and_oracle(log, gap, year_select, strict, block_bytes):
    data, cuts = log
    expected, summary, first_error = brute_ingest(
        data, POLICY.registered_slds, gap, year_select == BEST_SESSION
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "links.tsv"
        path.write_bytes(data)
        bounds = [0, *(c for c in cuts if c < len(data)), len(data)]
        ranges = [(path, a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
        outcomes = []
        for patches in ({}, {"_ranges": lambda paths, cores: ranges, "_BLOCK_BYTES": block_bytes}):
            with pytest.MonkeyPatch.context() as mp:
                for name, value in patches.items():
                    mp.setattr(ingest, name, value)
                try:
                    outcomes.append(ingest_links([path], POLICY, gap, year_select, strict))
                except ChronoscopeError as exc:
                    outcomes.append(exc)
    if strict and first_error is not None:
        line, kind = first_error
        for exc in outcomes:
            assert type(exc) is {"line": MalformedLine, "url": MalformedUrl}[kind]
            assert str(exc).startswith(f"{path}:{line}: ")
        return
    for result in outcomes:
        assert vars(result.summary) == summary
        assert edges_by_year(result) == expected
    assert outcomes[0].snapshots == outcomes[1].snapshots


def test_strict_names_the_first_bad_line_of_all_ranges(tmp_path):
    # lines 4 and 6 are bad; the cut puts them in different ranges, or the
    # first bad line at the start of the second range
    good = f"{utc(2003)}\thttp://a.ac.uk/\thttp://c.gov.uk/\n"
    path = tmp_path / "links.tsv"
    path.write_text(good * 3 + "junk\n" + good + "also junk\n", encoding="utf-8")
    size = path.stat().st_size
    for cut in (4 * len(good) + len("junk\n"), 3 * len(good)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_ranges", lambda paths, cores: [(path, 0, cut), (path, cut, size)])
            with pytest.raises(MalformedLine) as err:
                ingest_links([path], POLICY, strict=True)
        assert str(err.value) == f"{path}:4: expected 3 fields"


@pytest.mark.parametrize("year_select", [PER_PAIR_MAX, BEST_SESSION])
def test_runs_merge_across_range_vocabularies(tmp_path, monkeypatch, year_select):
    # each range holds names that the other lacks and that sort between the
    # other's names, so each range's codes map onto the merged vocabulary by
    # a monotone map that is not the identity; m.ac.uk's first session
    # crosses the cut, and its (source, second) key base + 10 falls in both
    # ranges
    base = utc(2007, 3) + 5
    first = [
        link(base, "a.ac.uk", "t1.co.uk"), link(base + 10, "m.ac.uk", "t1.co.uk"),
        link(base + 3, "c.ac.uk", "t3.co.uk"), link(base, "m.ac.uk", "t3.co.uk"),
        link(base + 10, "m.ac.uk", "t1.co.uk"), link(base + 1, "a.ac.uk", "t3.co.uk"),
    ]
    second = [
        link(base + 20, "m.ac.uk", "t2.co.uk"), link(base + 10, "m.ac.uk", "t4.co.uk"),
        link(base + 4, "d.ac.uk", "t2.co.uk"), link(base + 5000, "m.ac.uk", "t4.co.uk"),
        link(base + 2, "b.ac.uk", "t4.co.uk"), link(base + 10, "m.ac.uk", "t2.co.uk"),
        link(base + 5001, "m.ac.uk", "t2.co.uk"), link(base + 5002, "m.ac.uk", "t2.co.uk"),
    ]
    path = tmp_path / "links.tsv"
    write_links(path, first + second)
    cut = len("".join(f"{t}\t{s}\t{g}\n" for t, s, g in first).encode())
    ranges = [(path, 0, cut), (path, cut, path.stat().st_size)]
    names = [ingest._parse_range(*span, POLICY, False).names for span in ranges]
    assert names == [
        ["a.ac.uk", "c.ac.uk", "m.ac.uk", "t1.co.uk", "t3.co.uk"],
        ["b.ac.uk", "d.ac.uk", "m.ac.uk", "t2.co.uk", "t4.co.uk"],
    ]
    expected, summary, _ = brute_ingest(
        path.read_bytes(), POLICY.registered_slds, 1000, year_select == BEST_SESSION
    )
    one_range = ingest_links([path], POLICY, 1000, year_select)
    monkeypatch.setattr(ingest, "_ranges", lambda paths, cores: ranges)
    merged = ingest_links([path], POLICY, 1000, year_select)
    assert merged.snapshots == one_range.snapshots and merged.summary == one_range.summary
    assert vars(merged.summary) == summary and merged.summary.sessions == 6
    assert edges_by_year(merged) == expected


def _sorted_runs(rng, sessions, ranges):
    """``ranges`` sorted runs as the parse ranges return them, over sessions
    of 8 records to 3 of 3,000 targets from 2,000 sources in 2000-2009 (the
    bench log has about 8 records per session)."""
    per = 8
    source = np.repeat(rng.integers(0, 2000, sessions), per)
    time = np.repeat(rng.integers(utc(2000), utc(2010), sessions), per)
    time += rng.integers(0, 100, len(time))
    choice = rng.integers(0, 3000, (sessions, 3))
    target = 2000 + choice[np.arange(len(time)) // per, rng.integers(0, 3, len(time))]
    part = rng.integers(0, ranges, len(time))
    vocabulary = np.array(
        [f"s{i}.ac.uk" for i in range(2000)] + [f"t{i}.co.uk" for i in range(3000)]
    )
    runs = []
    for r in range(ranges):
        s, t, tm = source[part == r], target[part == r], time[part == r]
        used = np.unique(np.concatenate((s, t)))
        order = np.argsort(vocabulary[used], kind="stable")
        code = np.zeros(len(vocabulary), np.int64)
        code[used[order]] = np.arange(len(used))
        keys = code[s].astype(np.uint64) * np.uint64(ingest._TIME_LIMIT) + tm.astype(np.uint64)
        by_key = np.argsort(keys)
        summary = ingest.IngestSummary(lines=len(s), records=len(s))
        targets = code[t][by_key].astype(np.int32)
        names = vocabulary[used[order]].tolist()
        runs.append(ingest._ParsedRange(summary, names, keys[by_key], targets, None))
    return runs


# the reduction's traced peak over 200k records in two runs, which are
# allocated before the trace starts: 27.0 B per record measured with numpy
# 2.4 (a reduction that pooled the ranges' columns, then sorted them, took
# 54.5 B); the margin of 5 B is less than one more 8-byte per-record column
# kept alive into a later stage
REDUCE_PEAK_BYTES_PER_RECORD = 32


def test_reduction_frees_the_runs_and_bounds_its_peak(monkeypatch):
    runs = _sorted_runs(np.random.default_rng(18), 25_000, 2)
    records = sum(len(run.keys) for run in runs)
    refs = [weakref.ref(x) for run in runs for x in (run, run.keys, run.targets)]
    merge, freed = ingest._merged, []

    def merged(runs):
        out = merge(runs)
        freed.append(not runs and all(ref() is None for ref in refs))
        return out

    monkeypatch.setattr(ingest, "_merged", merged)
    tracemalloc.start()
    try:
        result = ingest._reduce(runs, 1000, PER_PAIR_MAX, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert freed == [True]  # each run was freed once merged
    assert result.summary.records == records == 200_000
    assert peak <= REDUCE_PEAK_BYTES_PER_RECORD * records, peak / records


def test_non_utf8_line_is_malformed(tmp_path):
    path = tmp_path / "links.tsv"
    good = f"{utc(2003)}\thttp://a.ac.uk/\thttp://c.gov.uk/\n".encode()
    bad = f"{utc(2003)}\thttp://\xff.ac.uk/\thttp://c.gov.uk/\n".encode("latin-1")
    path.write_bytes(good + bad + good)
    result = ingest_links([path], POLICY)
    assert result.summary.lines == 3 and result.summary.malformed_lines == 1
    assert edges_by_year(result) == {2003: {("a.ac.uk", "c.gov.uk"): 2}}
    with pytest.raises(MalformedLine) as err:
        ingest_links([path], POLICY, strict=True)
    assert str(err.value) == f"{path}:2: invalid UTF-8"


@pytest.mark.parametrize(
    "collide",
    [
        lambda words, lengths: np.zeros(len(lengths), np.uint64),
        lambda words, lengths: lengths.astype(np.uint64),
    ],
    ids=["every-hash-equal", "hash-is-length"],
)
def test_colliding_authority_hashes_change_nothing(tmp_path, monkeypatch, collide):
    # with colliding hashes each block groups its authorities exactly and each
    # lookup walks the colliding table entries; small blocks make later blocks
    # find most of their authorities in the table
    rng = random.Random(11)
    forms = ["http://{}/", "http://www.{}/a", "https://{}:8080/b", "//{}/c", "http://user@{}/"]
    rows = [
        (
            utc(2003) + rng.randrange(50_000),
            rng.choice(forms).format(f"s{rng.randrange(30)}.ac.uk"),
            rng.choice(forms).format(f"t{rng.randrange(30)}.co.uk"),
        )
        for _ in range(600)
    ]
    rows += [
        (utc(2003), "http://x.example.com/", "http://t1.co.uk/"),
        (utc(2003), "http://bad..ac.uk/", "//t2.co.uk/c"),
    ]
    path = tmp_path / "links.tsv"
    write_links(path, rows)

    def run():
        calls = collections.Counter()

        def counted(host, policy):
            calls[host] += 1
            return parse_host_key(host, policy)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "parse_host_key", counted)
            return ingest_links([path], POLICY), calls

    reference, reference_calls = run()
    monkeypatch.setattr(bytefields, "_hash", collide)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 2048)
    result, calls = run()
    assert result.snapshots == reference.snapshots
    assert result.summary == reference.summary
    assert calls == reference_calls
    # one range resolves each distinct authority once
    authorities = {partition_authority(url) for row in rows for url in row[1:]}
    assert sum(calls.values()) == len(authorities)


# --- worker pool ---

def _big_log(tmp_path, lines=400):
    rng = random.Random(5)
    rows = [
        (utc(2003) + rng.randrange(100_000), f"http://s{rng.randrange(9)}.ac.uk/",
         f"http://t{rng.randrange(9)}.co.uk/")
        for _ in range(lines)
    ]
    path = tmp_path / "links.tsv"
    write_links(path, rows)
    return path


@settings(max_examples=40, deadline=None)
@example(cores=2, lines=3)
@given(
    cores=st.integers(min_value=1, max_value=1 << 16),
    lines=st.integers(min_value=0, max_value=400),
)
def test_workers_never_exceed_cores_or_ranges(cores, lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = _big_log(Path(tmp), lines)
        reference = ingest_links([path], POLICY)
        RecordingPool.built = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            mp.setattr(parallel, "MIN_WORKER_BYTES", 64)
            mp.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
            result = ingest_links([path], POLICY)
    assert result.snapshots == reference.snapshots and result.summary == reference.summary
    assert len(RecordingPool.built) <= 1
    if cores == 1 or lines < 2:
        assert not RecordingPool.built
    elif lines >= 4:  # over 128 bytes: two ranges of at least 64 bytes
        assert RecordingPool.built
    for workers in RecordingPool.built:
        assert 2 <= workers <= cores


def test_one_core_builds_no_pool(tmp_path, monkeypatch):
    path = _big_log(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    monkeypatch.setattr(parallel, "MIN_WORKER_BYTES", 64)
    RecordingPool.built = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert ingest_links([path, path], POLICY).summary.lines == 800
    assert RecordingPool.built == []


# --- yearly selection ---

def test_select_takes_per_pair_maximum(tmp_path):
    base = utc(2004)
    rows = [link(base + t) for t in (0, 1, 2)] + [link(base + 9000 + t) for t in range(5)]
    result = ingest_rows(tmp_path, rows)
    assert edges_by_year(result) == {2004: {("ox.ac.uk", "cam.ac.uk"): 5}}


def test_select_empty(tmp_path):
    result = ingest_rows(tmp_path, [link(utc(2004))], years=[1999])
    assert result.snapshots == {1999: snapshot_of(1999, {})}


def test_select_retains_all_pairs(tmp_path):
    base = utc(2004)
    rows = [link(base + t, "a.ac.uk", "b.ac.uk") for t in range(2)]
    rows += [link(base + 9000 + t, "a.ac.uk", "c.co.uk") for t in range(7)]
    result = ingest_rows(tmp_path, rows)
    assert edges_by_year(result) == {
        2004: {("a.ac.uk", "b.ac.uk"): 2, ("a.ac.uk", "c.co.uk"): 7}
    }


def test_select_matches_bruteforce_max(tmp_path):
    # planted sessions 5000 s apart, so each one is exactly one session
    rng = random.Random(7)
    base = utc(2007)
    rows, per_pair_max, best = [], {}, {}
    for i in range(40):
        src = f"s{rng.randrange(4)}.ac.uk"
        start = base + i * 5000
        weights = collections.Counter()
        for k in range(rng.randrange(1, 12)):
            tgt = f"t{rng.randrange(5)}.co.uk"
            weights[tgt] += 1
            rows.append(link(start + k, src, tgt))
        for tgt, w in weights.items():
            per_pair_max[(src, tgt)] = max(per_pair_max.get((src, tgt), 0), w)
        # strictly greater, so the earlier session keeps a tie
        if src not in best or sum(weights.values()) > sum(best[src].values()):
            best[src] = weights
    rng.shuffle(rows)
    assert edges_by_year(ingest_rows(tmp_path, rows)) == {2007: per_pair_max}
    best_edges = {(src, tgt): w for src, ws in best.items() for tgt, w in ws.items()}
    result = ingest_rows(tmp_path, rows, year_select=BEST_SESSION)
    assert edges_by_year(result) == {2007: best_edges}


def test_select_best_session_mode(tmp_path):
    base = utc(2004)
    rows = [link(base + t) for t in range(3)]
    rows += [link(base + 3 + t, target="ic.ac.uk") for t in range(3)]
    rows += [link(base + 9000 + t) for t in range(5)]
    # a.ac.uk has two sessions of total 2: the earlier start wins the tie
    rows += [link(base + 100 + t, "a.ac.uk", "b.ac.uk") for t in range(2)]
    rows += [link(base + 20_000 + t, "a.ac.uk", "c.ac.uk") for t in range(2)]
    # selection is per year
    rows += [link(utc(2005) + t) for t in range(4)]
    result = ingest_rows(tmp_path, rows, year_select=BEST_SESSION)
    # ox's first session carries total 6 > 5, so its pairs win as a block
    assert edges_by_year(result) == {
        2004: {
            ("ox.ac.uk", "cam.ac.uk"): 3,
            ("ox.ac.uk", "ic.ac.uk"): 3,
            ("a.ac.uk", "b.ac.uk"): 2,
        },
        2005: {("ox.ac.uk", "cam.ac.uk"): 4},
    }
    assert result.summary.sessions == 5
    assert edges_by_year(ingest_rows(tmp_path, rows))[2004] == {
        ("ox.ac.uk", "cam.ac.uk"): 5,
        ("ox.ac.uk", "ic.ac.uk"): 3,
        ("a.ac.uk", "b.ac.uk"): 2,
        ("a.ac.uk", "c.ac.uk"): 2,
    }


# --- snapshot persistence ---

def test_snapshot_roundtrip_identity(tmp_path):
    snap = snapshot_of(2010, {("ox.ac.uk", "cam.ac.uk"): 2, ("a.co.uk", "b.org.uk"): 9})
    write_snapshot(snap, tmp_path / "s.tsv")
    assert read_snapshot(tmp_path / "s.tsv") == snap


def test_snapshot_roundtrip_empty(tmp_path):
    path = tmp_path / "empty.tsv"
    write_snapshot(snapshot_of(1996, {}), path)
    assert read_snapshot(path) == snapshot_of(1996, {})
    assert path.read_text(encoding="utf-8") == "#snapshot v1 year=1996\n"


def test_snapshot_writes_are_deterministic(tmp_path):
    snap = snapshot_of(2001, {("b.ac.uk", "a.ac.uk"): 1, ("a.ac.uk", "b.ac.uk"): 3})
    write_snapshot(snap, tmp_path / "one.tsv")
    write_snapshot(snap, tmp_path / "two.tsv")
    assert (tmp_path / "one.tsv").read_bytes() == (tmp_path / "two.tsv").read_bytes()
    lines = (tmp_path / "one.tsv").read_text().splitlines()
    assert lines[1:] == sorted(lines[1:])


def test_read_snapshot_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("#snapshot v2 year=2001\n", encoding="utf-8")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_read_snapshot_rejects_bad_records(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("#snapshot v1 year=2001\na.ac.uk\tb.ac.uk\tzero\n", encoding="utf-8")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_snapshot_rejects_self_loops_and_bad_weights():
    with pytest.raises(ValueError):
        snapshot_of(2000, {("a.ac.uk", "a.ac.uk"): 1})
    with pytest.raises(ValueError):
        snapshot_of(2000, {("a.ac.uk", "b.ac.uk"): 0})


# --- end-to-end ingestion ---

def test_ingest_links_small_file(tmp_path):
    base = utc(1996, 6)
    rows = [
        (base, "http://ox.ac.uk/a", "http://cam.ac.uk/b"),
        (base + 100, "http://ox.ac.uk/c", "http://cam.ac.uk/d"),
        (base + 5000, "http://ox.ac.uk/e", "http://cam.ac.uk/f"),
        (base, "http://ox.ac.uk/self", "http://ox.ac.uk/loop"),
        (base, "http://ox.ac.uk/x", "http://example.com/"),
    ]
    path = tmp_path / "links.tsv"
    write_links(path, rows)
    result = ingest_links([path], POLICY)
    assert set(result.snapshots) == {1996}
    snap = result.snapshots[1996]
    # two sessions with weights 2 and 1; per-pair max keeps 2
    assert dict(snap.edges) == {("ox.ac.uk", "cam.ac.uk"): 2}
    assert result.summary.records == 3
    assert result.summary.self_loops == 1
    assert result.summary.out_of_scope == 1
    assert result.summary.sessions == 2


def test_ingest_strict_raises_on_malformed(tmp_path):
    path = tmp_path / "links.tsv"
    path.write_text("junk line\n", encoding="utf-8")
    assert ingest_links([path], POLICY).summary.malformed_lines == 1
    with pytest.raises(MalformedLine):
        ingest_links([path], POLICY, strict=True)


def test_ingest_rejects_times_from_2301_on(tmp_path):
    # a millisecond timestamp (2005-01-01 in ms) is not a year-2300 record
    millis = utc(2005) * 1000
    last = utc(2301) - 1
    path = tmp_path / "links.tsv"
    write_links(
        path,
        [
            (millis, "http://ox.ac.uk/", "http://cam.ac.uk/"),
            (last, "http://ox.ac.uk/", "http://cam.ac.uk/"),
            (utc(2301), "http://ox.ac.uk/", "http://cam.ac.uk/"),
        ],
    )
    result = ingest_links([path], POLICY)
    assert result.summary.malformed_lines == 2
    assert result.summary.records == 1
    assert set(result.snapshots) == {2300}
    assert years_of(np.array([last])).tolist() == [year_of(last)] == [2300]
    with pytest.raises(MalformedLine, match=r"links\.tsv:1: "):
        ingest_links([path], POLICY, strict=True)


@pytest.mark.parametrize("url", ["http:///p", "http://user@:80/", "http://./"])
def test_ingest_empty_hostname(tmp_path, url):
    # no host, a host that is only user info and a port, and a lone dot
    path = tmp_path / "links.tsv"
    write_links(path, [(utc(2001), url, "http://cam.ac.uk/")])
    with pytest.raises(MalformedUrl) as err:
        ingest_links([path], POLICY, strict=True)
    assert str(err.value) == f"{path}:1: empty hostname"
    summary = ingest_links([path], POLICY).summary
    assert (summary.malformed_urls, summary.skipped(), summary.records) == (1, 1, 0)


def test_ingest_strict_keeps_scope_filters(tmp_path):
    base = utc(2001)
    path = tmp_path / "links.tsv"
    write_links(
        path,
        [
            (base, "http://ox.ac.uk/", "http://example.com/"),
            (base, "http://ox.ac.uk/", "http://ox.ac.uk/other"),
            (base, "http://ox.ac.uk/", "http://cam.ac.uk/"),
        ],
    )
    result = ingest_links([path], POLICY, strict=True)
    assert result.summary.out_of_scope == 1
    assert result.summary.self_loops == 1
    assert result.summary.records == 1


def test_ingest_matches_single_line_parser(tmp_path):
    # the reducer's steps, authority_spans over the fields and then
    # authority_host and parse_host_key per authority, agree with ingest's
    # accounting on which URLs name a domain and why the others are skipped
    urls = [
        "http://WWW.u0.ac.uk/p",
        "https://user:pw@u1.ac.uk:8080/x?q#f",
        "//u2.ac.uk",
        "ht tp://u3.ac.uk/",
        "://u4.co.uk/",
        "1http://u5.org.uk/",
        "http://u6.gov.uk?x=/y",
        "http://[u7.ac.uk]/",
        "http://example.com/",
        "mailto:x@u8.ac.uk",
        "http://bad..ac.uk/",
        "http:///p",
        "http://parliament.uk/",
    ]
    base = utc(1999)
    result = ingest_rows(tmp_path, [(base + i, url, "http://t.co.uk/") for i, url in enumerate(urls)])
    fields = [url.encode() for url in urls]
    raw = b"\t".join(fields)
    stops = np.cumsum([len(field) + 1 for field in fields]) - 1
    lo, hi = authority_spans(np.frombuffer(raw, np.uint8), stops - [len(f) for f in fields], stops)
    nodes, skips = set(), collections.Counter()
    for begin, end in zip(lo.tolist(), hi.tolist()):
        try:
            nodes.add(parse_host_key(authority_host(raw[begin:end].decode()), POLICY))
        except ChronoscopeError as exc:
            skips[type(exc).__name__] += 1
    assert skips == {"OutOfScopeTld": 2, "MalformedUrl": 3, "UnknownSld": 1}
    summary = result.summary
    assert summary.records == len(nodes) == 7
    assert summary.out_of_scope == skips["OutOfScopeTld"]
    assert summary.malformed_urls == skips["MalformedUrl"]
    assert summary.unknown_sld == skips["UnknownSld"]
    assert set(result.snapshots[1999].nodes) == nodes | {"t.co.uk"}


def test_ingest_shard_invariance(tmp_path):
    rng = random.Random(42)
    base = utc(2003)
    rows = []
    for i in range(2000):
        src = f"s{rng.randrange(20)}.ac.uk"
        tgt = f"t{rng.randrange(30)}.co.uk"
        rows.append((base + rng.randrange(0, 10_000_000), f"http://{src}/", f"http://{tgt}/"))
    whole = tmp_path / "whole.tsv"
    write_links(whole, rows)
    shards = [tmp_path / f"shard{k}.tsv" for k in range(5)]
    assignment = [rng.randrange(5) for _ in rows]
    for k, shard in enumerate(shards):
        write_links(shard, [r for r, a in zip(rows, assignment) if a == k])

    one = ingest_links([whole], POLICY)
    many = ingest_links(shards, POLICY)
    assert one.snapshots == many.snapshots
    out1, out2 = tmp_path / "one.tsv", tmp_path / "many.tsv"
    for year in one.snapshots:
        write_snapshot(one.snapshots[year], out1)
        write_snapshot(many.snapshots[year], out2)
        assert out1.read_bytes() == out2.read_bytes()


def test_ingest_year_filter(tmp_path):
    base96, base97 = utc(1996, 3), utc(1997, 3)
    path = tmp_path / "links.tsv"
    write_links(
        path,
        [
            (base96, "http://ox.ac.uk/", "http://cam.ac.uk/"),
            (base97, "http://ox.ac.uk/", "http://cam.ac.uk/"),
        ],
    )
    result = ingest_links([path], POLICY, years=[1996])
    assert set(result.snapshots) == {1996}


@pytest.mark.parametrize("year", [-5, 2**63])
def test_ingest_rejects_a_year_before_opening_any_file(tmp_path, year):
    # the header-year rule of from_columns, checked before the missing file
    # is opened, so the error is the year's ValueError and not an OSError
    reason = f"year {year!r} is not 1 to 19 ASCII digits below 2**63"
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        ingest_links([tmp_path / "missing.tsv"], POLICY, years=[2010, year])


def test_read_node_pages_rejects_bad_rows(tmp_path):
    path = tmp_path / "pages.tsv"
    path.write_text("1996\tox.ac.uk\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        read_node_pages(path)


@pytest.mark.parametrize(
    "text, error",
    [
        (
            "2001\tox.ac.uk\t3\n2002\tox.ac.uk\t4\n2001\tox.ac.uk\t5\n",
            "3: repeated domain 'ox.ac.uk'",
        ),
        ("2001\tox.ac.uk\t3\n2001\t\t4\n", "2: expected 'year<TAB>domain<TAB>pages'"),
    ],
)
def test_read_node_pages_rejects_repeated_and_empty_domains(tmp_path, text, error):
    path = tmp_path / "pages.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        read_node_pages(path)
    assert str(err.value) == f"{path}:{error}"


def test_session_year_boundary(tmp_path):
    # a session starting on Dec 31 and ending Jan 1 belongs to the start year
    end_of_1999 = utc(2000) - 300
    path = tmp_path / "links.tsv"
    write_links(
        path,
        [
            (end_of_1999, "http://ox.ac.uk/", "http://cam.ac.uk/"),
            (end_of_1999 + 600, "http://ox.ac.uk/", "http://cam.ac.uk/"),
        ],
    )
    result = ingest_links([path], POLICY)
    assert set(result.snapshots) == {1999}
    assert result.snapshots[1999].edges[("ox.ac.uk", "cam.ac.uk")] == 2


def test_year_of_timestamp_matches_datetime():
    times = [
        ts
        for year in (1970, 1996, 2000, 2010, 2038, 2300)
        for ts in (utc(year) - 1, utc(year), utc(year) + 1, utc(year) + 86_400)
        if ts >= 0
    ]
    assert years_of(np.array(times, np.int64)).tolist() == [year_of(ts) for ts in times]


def test_summary_report_format(capsys):
    summary = IngestSummary(lines=5, records=3, self_loops=1, malformed_lines=1)
    summary.report()
    err = capsys.readouterr().err
    assert "lines=5" in err and "self_loops=1" in err
