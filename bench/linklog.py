"""Seeded synthetic link log with a planted ingest oracle.

The generator plans crawl sessions first and expands them into log lines
second, so it knows the exact answer `chronoscope ingest` must give: the
per-year snapshots (per-pair maximum of per-session link counts) and the
line accounting of the ingest summary.  It reimplements none of the
package's URL handling and imports nothing from it; the noise it adds
(``www.``, ports, paths, queries, fragments, user info, case, deeper
hosts) only uses forms whose third-level domain is unambiguous.

Sessions of one source are separated by more than ``gap_seconds`` and the
records inside a session are never more than ``gap_seconds`` apart, so the
planted sessions are exactly the ones a correct sessionizer must find.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass

import numpy as np

SLD_LABELS = {"ac.uk": "uni", "co.uk": "firm", "gov.uk": "dept", "org.uk": "org"}
SUMMARY_FIELDS = (
    "lines",
    "records",
    "sessions",
    "self_loops",
    "malformed_lines",
    "malformed_urls",
    "out_of_scope",
    "unknown_sld",
)


@dataclass(frozen=True)
class LinklogSpec:
    """Log shape.  The population is the first ``population`` ac.uk hosts,
    so ``population <= sources_per_sld <= targets_per_sld``.  The defaults
    give about 1M lines over 8k source and 12k target hosts, the host
    population of the 1M-line log the first ingest figures came from."""

    seed: int
    first_year: int = 2000
    last_year: int = 2009
    sources_per_sld: int = 2000
    targets_per_sld: int = 3000
    population: int = 150
    max_sessions_per_year: int = 2
    mean_targets: float = 3.2
    population_targets: int = 12
    max_count: int = 6
    gap_seconds: int = 1000
    self_loops: int = 12_000
    malformed_lines: int = 3_000
    malformed_urls: int = 3_000
    out_of_scope: int = 6_000
    unknown_sld: int = 3_000


@dataclass
class PlantedLog:
    """What a correct ingest of the generated log must return."""

    snapshots: dict[int, dict[tuple[str, str], int]]
    summary: dict[str, int]
    population: list[str]
    coordinates: dict[str, tuple[float, float]]


def domain_names(sld: str, count: int) -> list[str]:
    label = SLD_LABELS[sld]
    return [f"{label}{i:04d}.{sld}" for i in range(count)]


def _year_start(year: int) -> int:
    return calendar.timegm((year, 1, 1, 0, 0, 0))


# URL templates for valid hosts; {h} is the third-level domain, {H} its
# upper-case form and {k} a small integer.
_VALID_FORMS = (
    "http://{h}/",
    "http://www.{h}/page{k}.html",
    "https://{h}/a/b?q={k}",
    "http://{H}:8080/path/{k}",
    "http://mail.{h}/x#frag{k}",
    "//{h}/rel/{k}",
    "http://user@www.{h}/",
    "https://{h}./p",
    "http://{h}?ref={k}",
    "HTTP://WWW.{H}/INDEX",
)

_BAD_URLS = {
    "malformed_urls": (
        "http:///nohost/{k}",
        "mailto:someone@{h}",
        "http://bad..{h}/",
        "http://üni{k}.ac.uk/",
        "http://:80/x{k}",
    ),
    "out_of_scope": (
        "http://www.example{k}.com/",
        "https://site{k}.de/x",
        "http://{h}.example.org/",
        "http://uk.gov/",
    ),
    "unknown_sld": (
        "http://shop{k}.net.uk/",
        "http://www.club{k}.ltd.uk/a",
        "http://x{k}.sch.uk/",
    ),
}

_BAD_LINES = (
    "{t}\t{u}",
    "{t}\t{u}\t{v}\textra",
    "notatime\t{u}\t{v}",
    "-{t}\t{u}\t{v}",
    "{t}.5\t{u}\t{v}",
    "",
)


def generate(spec: LinklogSpec) -> tuple[list[str], PlantedLog]:
    """Return the log lines (newline-free, shuffled) and the planted answer."""
    rng = np.random.default_rng([spec.seed, 7])
    slds = sorted(SLD_LABELS)
    targets = [d for sld in slds for d in domain_names(sld, spec.targets_per_sld)]
    sources = [d for sld in slds for d in domain_names(sld, spec.sources_per_sld)]
    population = domain_names("ac.uk", spec.population)

    lat = rng.uniform(50.0, 58.5, spec.population)
    lon = rng.uniform(-6.0, 1.8, spec.population)
    coordinates = {d: (float(lat[i]), float(lon[i])) for i, d in enumerate(population)}
    prestige_arr = 1.0 / (np.arange(spec.population) + 1.0) ** 0.8
    prestige_arr = prestige_arr[rng.permutation(spec.population)]
    # distance-decay attraction among the population
    dlat = np.radians(lat[:, None] - lat[None, :])
    dlon = np.radians(lon[:, None] - lon[None, :])
    mean_lat = np.radians((lat[:, None] + lat[None, :]) / 2.0)
    km = 6371.0 * np.hypot(dlat, dlon * np.cos(mean_lat))
    attraction = prestige_arr[None, :] / (km + 20.0)
    np.fill_diagonal(attraction, 0.0)
    attraction /= attraction.sum(axis=1, keepdims=True)

    n_targets = len(targets)
    # source i is target own[i]: both lists run over the SLDs in one order
    src_ids = np.arange(len(sources))
    own = (src_ids // spec.sources_per_sld) * spec.targets_per_sld + src_ids % spec.sources_per_sld
    snapshots: dict[int, dict[tuple[str, str], int]] = {}
    times, src_of, tgt_of = [], [], []
    n_sessions = 0
    gap = spec.gap_seconds
    for year in range(spec.first_year, spec.last_year + 1):
        start, end = _year_start(year), _year_start(year + 1)
        k = rng.integers(1, spec.max_sessions_per_year + 1, len(sources))
        n_sess = int(k.sum())
        n_sessions += n_sess
        sess_src = np.repeat(src_ids, k)
        sess_slot = np.arange(n_sess) - np.repeat(np.cumsum(k) - k, k)
        slot_len = (end - start) // k[sess_src]

        # links of each session: uniform targets, then population picks
        n_plain = 1 + rng.poisson(spec.mean_targets - 1.0, n_sess)
        link_sess = [np.repeat(np.arange(n_sess), n_plain)]
        link_tgt = [rng.integers(0, n_targets, int(n_plain.sum()))]
        # mostly single-record links, so distinct pairs, and with them
        # ingest's per-pair state, grow with the log
        link_cnt = [rng.geometric(0.75, int(n_plain.sum())) % spec.max_count + 1]
        for sess in np.flatnonzero(sess_src < spec.population).tolist():
            picks = rng.choice(
                spec.population,
                size=spec.population_targets,
                replace=False,
                p=attraction[sess_src[sess]],
            )
            link_sess.append(np.full(len(picks), sess))
            link_tgt.append(picks)  # population member p is target p
            link_cnt.append(rng.integers(1, spec.max_count + 1, len(picks)))
        ls, lt, lc = (np.concatenate(x) for x in (link_sess, link_tgt, link_cnt))
        keep = lt != own[sess_src[ls]]
        ls, lt, lc = ls[keep], lt[keep], lc[keep]
        # a session whose only draw was its own host links to the next host
        empty = np.setdiff1d(np.arange(n_sess), ls)
        ls = np.concatenate([ls, empty])
        lt = np.concatenate([lt, (own[sess_src[empty]] + 1) % n_targets])
        lc = np.concatenate([lc, np.ones(len(empty), dtype=lc.dtype)])
        # a target drawn twice in one session keeps its last count
        order = np.lexsort((np.arange(len(ls)), lt, ls))
        ls, lt, lc = ls[order], lt[order], lc[order]
        last = np.ones(len(ls), dtype=bool)
        last[:-1] = (ls[1:] != ls[:-1]) | (lt[1:] != lt[:-1])
        ls, lt, lc = ls[last], lt[last], lc[last]

        # planted snapshot: per (source, target) pair the largest session count
        pair = sess_src[ls] * n_targets + lt
        pairs, where = np.unique(pair, return_inverse=True)
        best = np.zeros(len(pairs), dtype=np.int64)
        np.maximum.at(best, where, lc)
        snapshots[year] = {
            (sources[p // n_targets], targets[p % n_targets]): c
            for p, c in zip(pairs.tolist(), best.tolist())
        }

        # one record per link, shuffled inside its session, with gaps <= gap
        rec_sess = np.repeat(ls, lc)
        rec_tgt = np.repeat(lt, lc)
        order = np.lexsort((rng.random(len(rec_sess)), rec_sess))
        rec_sess, rec_tgt = rec_sess[order], rec_tgt[order]
        first = np.flatnonzero(np.r_[True, rec_sess[1:] != rec_sess[:-1]])
        sizes = np.diff(np.r_[first, len(rec_sess)])
        steps = rng.integers(0, gap + 1, len(rec_sess))
        steps[first] = 0
        csum = np.cumsum(steps)
        offsets = csum - np.repeat(csum[first], sizes)
        span = offsets[first + sizes - 1]
        lo = start + sess_slot * slot_len + gap + 1
        hi = start + (sess_slot + 1) * slot_len - span - gap - 1
        t0 = rng.integers(lo, hi)
        times.append(np.repeat(t0, sizes) + offsets)
        src_of.append(own[sess_src[rec_sess]])
        tgt_of.append(rec_tgt)

    # every host's URL variants, indexed by form * 3 + k
    variants = [
        [_url(h, f, k) for f in range(len(_VALID_FORMS)) for k in range(3)]
        for h in targets
    ]
    n_records = sum(len(t) for t in times)
    src_code = rng.integers(0, len(variants[0]), n_records).tolist()
    tgt_code = rng.integers(0, len(variants[0]), n_records).tolist()
    lines = [
        f"{t}\t{variants[s][a]}\t{variants[g][b]}"
        for t, s, g, a, b in zip(
            np.concatenate(times).tolist(),
            np.concatenate(src_of).tolist(),
            np.concatenate(tgt_of).tolist(),
            src_code,
            tgt_code,
        )
    ]
    summary = dict.fromkeys(SUMMARY_FIELDS, 0)
    summary["records"] = len(lines)
    summary["sessions"] = n_sessions

    lo_t, hi_t = _year_start(spec.first_year), _year_start(spec.last_year + 1)
    noise = []

    def any_time():
        return int(rng.integers(lo_t, hi_t))

    def any_host():
        return targets[int(rng.integers(0, len(targets)))]

    for _ in range(spec.self_loops):
        h = any_host()
        f = rng.integers(0, len(_VALID_FORMS), 2).tolist()
        noise.append(f"{any_time()}\t{_url(h, f[0], 1)}\t{_url(h, f[1], 2)}")
    for kind in ("malformed_urls", "out_of_scope", "unknown_sld"):
        bad_forms = _BAD_URLS[kind]
        for i in range(getattr(spec, kind)):
            good = _url(any_host(), int(rng.integers(0, len(_VALID_FORMS))), i % 10)
            bad = bad_forms[i % len(bad_forms)].format(h=any_host(), k=i % 97)
            pair = (bad, good) if rng.random() < 0.5 else (good, bad)
            noise.append(f"{any_time()}\t{pair[0]}\t{pair[1]}")
    for i in range(spec.malformed_lines):
        u = _url(any_host(), 0, 0)
        v = _url(any_host(), 1, 0)
        noise.append(_BAD_LINES[i % len(_BAD_LINES)].format(t=any_time(), u=u, v=v))
    for kind in ("self_loops", "malformed_lines", "malformed_urls", "out_of_scope", "unknown_sld"):
        summary[kind] = getattr(spec, kind)

    lines.extend(noise)
    summary["lines"] = len(lines)
    perm = rng.permutation(len(lines))
    lines = [lines[i] for i in perm.tolist()]
    return lines, PlantedLog(snapshots, summary, population, coordinates)


def _url(host: str, form: int, k: int) -> str:
    return _VALID_FORMS[form].format(h=host, H=host.upper(), k=k)


def write_log(lines: list[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def check_ingest(out, stderr: str, planted: PlantedLog) -> list[str]:
    """Problems with an ``ingest`` run: snapshot files and summary line."""
    problems = []
    for year, edges in planted.snapshots.items():
        path = out / f"snapshot_{year}.tsv"
        if not path.exists() or path.read_text(encoding="utf-8") != snapshot_text(year, edges):
            problems.append(f"{path.name} differs from the planted snapshot")
    summary = {}
    for line in stderr.splitlines():
        if line.startswith("ingest summary: "):
            summary = {k: int(v) for k, v in (item.split("=") for item in line.split()[2:])}
    if summary != planted.summary:
        problems.append(f"ingest summary {summary} != planted {planted.summary}")
    return problems


def snapshot_text(year: int, edges: dict[tuple[str, str], int]) -> str:
    """The snapshot file a correct ingest writes for these edges."""
    rows = [f"#snapshot v1 year={year}\n"]
    rows.extend(f"{s}\t{t}\t{edges[(s, t)]}\n" for s, t in sorted(edges))
    return "".join(rows)
