"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (exhaustive
enumeration, dense linear algebra, exact rationals) and shares no code with
the package under test.
"""

import datetime
import io
import math
from collections import Counter, defaultdict
from fractions import Fraction
from urllib.parse import urlsplit

import numpy as np

UNAFFILIATED = "unaffiliated"


def brute_betweenness(nodes, edges):
    """Betweenness by enumerating every simple path, lengths = 1/weight."""
    adj = defaultdict(list)
    for (u, v), w in edges.items():
        adj[u].append((v, 1.0 / w))
    for lst in adj.values():
        lst.sort()
    bc = dict.fromkeys(nodes, 0.0)
    for s in nodes:
        for t in nodes:
            if s == t:
                continue
            paths = []

            def walk(u, length, interior, visited):
                for v, step in adj[u]:
                    if v == t:
                        paths.append((length + step, tuple(interior)))
                    elif v not in visited:
                        walk(v, length + step, interior + [v], visited | {v})

            walk(s, 0.0, [], {s})
            if not paths:
                continue
            dmin = min(length for length, _ in paths)
            shortest = [interior for length, interior in paths if length == dmin]
            for interior in shortest:
                for v in interior:
                    bc[v] += 1.0 / len(shortest)
    return bc


def solve_pagerank(nodes, edges, d=0.85):
    """Exact stationary distribution via a dense linear solve."""
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    W = np.zeros((n, n))
    for (u, v), w in edges.items():
        W[idx[u], idx[v]] = w
    out = W.sum(axis=1)
    dangling = out == 0
    P = np.divide(W, np.where(dangling, 1.0, out)[:, None])
    u = np.full(n, 1.0 / n)
    A = np.eye(n) - d * P.T - d * np.outer(u, dangling.astype(float))
    x = np.linalg.solve(A, (1 - d) * u)
    return {v: x[idx[v]] for v in nodes}


def eig_authority(nodes, edges):
    """Dominant eigenvector of W^T W, L1-normalized."""
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    W = np.zeros((n, n))
    for (u, v), w in edges.items():
        W[idx[u], idx[v]] = w
    vals, vecs = np.linalg.eigh(W.T @ W)
    top = np.abs(vecs[:, np.argmax(vals)])
    top /= top.sum()
    return {v: top[idx[v]] for v in nodes}


def brute_modularity(edges, labels, nodes):
    """Exact double-sum evaluation over all node pairs, in rationals."""
    m = sum(edges.values())
    s_out = {v: 0 for v in nodes}
    s_in = {v: 0 for v in nodes}
    for (u, v), w in edges.items():
        s_out[u] += w
        s_in[v] += w
    q = Fraction(0)
    for i in nodes:
        for j in nodes:
            if labels.get(i, UNAFFILIATED) == labels.get(j, UNAFFILIATED):
                a = edges.get((i, j), 0)
                q += Fraction(a) - Fraction(s_out[i] * s_in[j], m)
    return float(q / m)


def brute_sld_stats(edges, nodes, registered):
    """SLD statistics by enumeration, with SLD = a host's last two labels.

    A node whose last two labels are not in ``registered`` counts as
    "other".  Returns the node count per SLD, the within-SLD links per node
    keyed ``(sld, distinct)`` for every registered SLD, and the summed weight
    per (source SLD, target SLD) cell.
    """

    def sld(host):
        tail = ".".join(host.split(".")[-2:])
        return tail if tail in registered else "other"

    counts = defaultdict(int)
    for node in nodes:
        counts[sld(node)] += 1
    within = {}
    for name in registered:
        for distinct in (False, True):
            inside = [
                1 if distinct else w
                for (u, v), w in edges.items()
                if sld(u) == name and sld(v) == name
            ]
            within[(name, distinct)] = sum(inside) / counts[name] if counts[name] else 0.0
    cells = defaultdict(int)
    for (u, v), w in edges.items():
        cells[(sld(u), sld(v))] += w
    return {k: c for k, c in counts.items() if c}, within, dict(cells)


def sphere_distance_km(lat1, lon1, lat2, lon2, radius=6371.0088):
    """Great-circle distance via the atan2 form, not the haversine form."""
    phi1, lam1 = math.radians(lat1), math.radians(lon1)
    phi2, lam2 = math.radians(lat2), math.radians(lon2)
    dlam = lam2 - lam1
    num = math.sqrt(
        (math.cos(phi2) * math.sin(dlam)) ** 2
        + (
            math.cos(phi1) * math.sin(phi2)
            - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
        )
        ** 2
    )
    den = math.sin(phi1) * math.sin(phi2) + math.cos(phi1) * math.cos(
        phi2
    ) * math.cos(dlam)
    return radius * math.atan2(num, den)


def partition_authority(url):
    """The documented authority rule, by ``str.partition``: the text after the
    first ``://``, else after a leading ``//``, up to the next ``/``; empty
    without either marker."""
    _, sep, rest = url.partition("://")
    if not sep:
        if not url.startswith("//"):
            return ""
        rest = url[2:]
    return rest.partition("/")[0]


def urlsplit_hostname(url):
    """Hostname of an absolute URL as the standard library parses it, or ""."""
    return urlsplit(url).hostname or ""


def integer_field(text):
    """The value of ``text`` if it is an integer field, 1 to 19 ASCII digits
    below 2**63, else None, by plain ``str`` methods."""
    if 1 <= len(text) <= 19 and all("0" <= c <= "9" for c in text) and int(text) < 2**63:
        return int(text)
    return None


def decimal_field(text):
    """The value of ``text`` if it is a decimal field, ASCII text without
    whitespace, ``_`` or a leading ``+`` that ``float()`` reads, else None,
    by plain ``str`` methods."""
    if not text or text.startswith("+"):
        return None
    if any(ord(c) > 127 or c.isspace() or c == "_" for c in text):
        return None
    try:
        return float(text)
    except ValueError:
        return None


def brute_ingest(data, registered, gap_seconds, best_session=False):
    """Ingest one link-log file's bytes by hand, under a ``.uk`` policy.

    The standard library's text layer splits the lines (universal newlines)
    and marks undecodable bytes as surrogate escapes; a line with one is
    malformed.  A line then needs three tab-separated fields, a time that is
    an integer field before 2301-01-01 UTC and two URLs that ``urlsplit`` reduces to
    third-level domains under the ``registered`` SLDs.  Each source's
    time-sorted records split into sessions at gaps above ``gap_seconds``;
    a session belongs to the UTC year of its start.  A year keeps each
    pair's largest session count or, with ``best_session``, per source the
    pairs of its session with the largest total (the earlier start wins a
    tie).

    Returns ``(snapshots, summary, first_error)``: ``{year: {(source,
    target): weight}}``, the counts of ``IngestSummary`` as a dict, and the
    1-based line number and kind (``"line"`` or ``"url"``) of the first line
    that strict mode rejects, or None.
    """
    limit = int(datetime.datetime(2301, 1, 1, tzinfo=datetime.timezone.utc).timestamp())
    summary = Counter(lines=0, records=0, sessions=0, self_loops=0, malformed_lines=0,
                      malformed_urls=0, out_of_scope=0, unknown_sld=0)
    first_error = None
    skips = ("malformed_urls", "out_of_scope", "unknown_sld")

    def domain(url):
        host = urlsplit(url).hostname or ""
        if host.startswith("www."):
            host = host[4:]
        labels = host.split(".")
        if not all(labels):
            return "malformed_urls"
        if labels[-1] != "uk":
            return "out_of_scope"
        if len(labels) < 2:
            return "malformed_urls"
        if ".".join(labels[-2:]) not in registered:
            return "unknown_sld"
        return ".".join(labels[-3:]) if len(labels) >= 3 else "malformed_urls"

    events = defaultdict(list)
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    for number, line in enumerate(text, start=1):
        summary["lines"] += 1
        fields = line.rstrip("\n").split("\t")
        bad = any("\udc80" <= c <= "\udcff" for c in line) or len(fields) != 3
        if not bad:
            time = integer_field(fields[0])
            bad = time is None or time >= limit
        if bad:
            summary["malformed_lines"] += 1
            first_error = first_error or (number, "line")
            continue
        source = domain(fields[1])
        target = domain(fields[2]) if source not in skips else None
        skip = source if source in skips else target if target in skips else None
        if skip == "malformed_urls":
            first_error = first_error or (number, "url")
        if skip is not None:
            summary[skip] += 1
        elif source == target:
            summary["self_loops"] += 1
        else:
            summary["records"] += 1
            events[source].append((time, target))

    snapshots = {}
    for source in sorted(events):
        runs = []
        for time, target in sorted(events[source]):
            if runs and time - runs[-1][-1][0] <= gap_seconds:
                runs[-1].append((time, target))
            else:
                runs.append([(time, target)])
        summary["sessions"] += len(runs)
        best = {}
        for run in runs:
            year = datetime.datetime.fromtimestamp(run[0][0], tz=datetime.timezone.utc).year
            counts = Counter(target for _, target in run)
            if best_session:
                if year not in best or len(run) > sum(best[year].values()):
                    best[year] = counts
                continue
            edges = snapshots.setdefault(year, {})
            for target, count in counts.items():
                edges[(source, target)] = max(edges.get((source, target), 0), count)
        for year, counts in best.items():
            edges = snapshots.setdefault(year, {})
            edges.update(((source, target), count) for target, count in counts.items())
    return snapshots, dict(summary), first_error


def plain_rows(data):
    """The rows of a tab-separated side-input file's bytes, by hand:
    ``bytes.splitlines`` ends a line at ``\\n``, ``\\r\\n`` or a lone
    ``\\r``, and each line is decoded strictly.

    Returns ``(rows, bad)``.  ``bad`` is the number (from 1) of the first
    line that is not valid UTF-8, or None.  ``rows`` holds ``(line number,
    fields split at tabs)`` of each line before it that is neither empty
    nor starts with ``#``.
    """
    rows = []
    for number, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            return rows, number
        if line and not line.startswith("#"):
            rows.append((number, line.split("\t")))
    return rows, None


def plain_snapshot(data, path):
    """Read snapshot file bytes line by line: ``(year, {(source, target):
    weight})``, or raise ValueError with the reader's message.

    The standard library's text layer splits the lines (universal newlines)
    and marks undecodable bytes as surrogate escapes.  The first line is the
    header ``#snapshot v1 year=<year>``, the year an integer field (1 to 19
    ASCII digits below 2**63).  The first later line that breaks a rule
    names the error, with the first rule it breaks: valid UTF-8, three
    tab-separated fields, a weight that is an integer field, then an edge of
    two distinct non-empty names with a weight of at least 1, then a pair not
    seen on an earlier line.  Only a file without a bad line can fail on its
    total weight, above 2**63 - 1.
    """
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    lines = [line[:-1] if line.endswith("\n") else line for line in text]
    header = lines[0] if lines else ""

    def utf8(line):
        return not any("\udc80" <= c <= "\udcff" for c in line)

    if not utf8(header):
        raise ValueError(f"{path}:1: invalid UTF-8")
    prefix = "#snapshot v1 year="
    if not header.startswith(prefix):
        raise ValueError(f"{path}: unsupported header {header!r}")
    year = integer_field(header[len(prefix):])
    if year is None:
        raise ValueError(f"{path}: bad year in header {header!r}")
    edges = {}
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if not utf8(line):
            reason = "invalid UTF-8"
        elif len(fields) != 3:
            reason = "expected 3 fields"
        else:
            source, target, weight = fields
            value = integer_field(weight)
            if value is None:
                reason = f"bad weight {weight!r}"
            elif value < 1 or source == target or not source or not target:
                reason = "invalid edge record"
            elif (source, target) in edges:
                reason = "duplicate edge record"
            else:
                edges[(source, target)] = value
                continue
        raise ValueError(f"{path}:{number}: {reason}")
    if sum(edges.values()) > 2**63 - 1:
        raise ValueError(f"{path}: edge weights sum to more than {2**63 - 1}")
    return year, edges


def fstring_snapshot(year, nodes, src, dst, weight):
    """The bytes of a snapshot file, one f-string per edge: the header
    ``#snapshot v1 year=<year>``, then ``source<TAB>target<TAB>weight`` for
    each edge in the given order, every line ended by ``\\n``, in UTF-8."""
    lines = [f"#snapshot v1 year={year}\n"]
    lines += [f"{nodes[s]}\t{nodes[t]}\t{w}\n" for s, t, w in zip(src, dst, weight)]
    return "".join(lines).encode("utf-8")
