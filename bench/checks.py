"""Independent oracles for every artifact the benchmark workloads produce.

Nothing here imports ``chronoscope``.  Each check reads an artifact the way
a user would (CSV, TSV, GraphML, stdout, stderr) and recomputes it by a
different route: dense linear algebra for pagerank and HITS,
``scipy.sparse.csgraph`` distances for the path measures, a Brandes
fixpoint over the tight-edge DAG for betweenness, exact rationals for
modularity, and the atan2 great-circle form for gravity distances.  A check
returns a list of problems; an empty list means the artifact is correct.
"""

from __future__ import annotations

import csv
import math
import os
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

MEASURES = (
    "in_degree",
    "out_degree",
    "in_strength",
    "out_strength",
    "pagerank",
    "betweenness",
    "closeness",
    "harmonic",
    "hub",
    "authority",
)
REGISTERED_SLDS = ("ac.uk", "co.uk", "gov.uk", "org.uk")
UNAFFILIATED = "unaffiliated"
EARTH_RADIUS_KM = 6371.0088
DAMPING = 0.85
# the gravity command's defaults, which every workload uses
GRAVITY_WINDOW = 500
GRAVITY_D_MIN_KM = 20.0

# Shortest paths tie when their lengths agree to this relative tolerance;
# float rounding of a path sum stays many orders of magnitude below it.
TIE_RTOL = 1e-12
# Relative tolerance for values computed by a different floating-point route.
RTOL = 1e-9
# Power iteration stops on a 1e-12 L1 step, which bounds its distance to
# the fixed point only up to the spectral gap; 1e-7 absolute is far above
# that for the graphs the workloads generate and far below any real error.
HITS_ATOL = 1e-7
ATOL = {"hub": HITS_ATOL, "authority": HITS_ATOL, "pagerank": 1e-10}
FLOAT_TIES = "known defect (float == path ties)"
# Spearman rho agreement, after tying values equal to within RTOL.
RHO_ATOL = 1e-9


# --- readers ---

def read_snapshot_file(path) -> tuple[int, dict[tuple[str, str], int]]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        prefix = "#snapshot v1 year="
        if not header.startswith(prefix):
            raise ValueError(f"{_name(path)}: bad header {header!r}")
        year = int(header[len(prefix):])
        edges = {}
        for line in fh:
            src, tgt, weight = line.rstrip("\n").split("\t")
            edges[(src, tgt)] = int(weight)
    return year, edges


def read_csv(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def read_pairs(path) -> dict[str, str]:
    """Two-column TSV (ranking, partition) as a dict of strings."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, value = line.rstrip("\n").split("\t")
            out[key] = value
    return out


def read_geo(path) -> dict[str, tuple[str, str]]:
    """Geo file rows as the literal latitude and longitude strings."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            node, lat, lon = line.rstrip("\n").split("\t")
            out[node] = (lat, lon)
    return out


def _name(path) -> str:
    return os.path.basename(path)


def nodes_of(edges) -> list[str]:
    return sorted({n for pair in edges for n in pair})


# --- centrality ---

def _dense(edges, nodes):
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    w = np.zeros((n, n), dtype=np.int64)
    for (s, t), weight in edges.items():
        if s in index and t in index:
            w[index[s], index[t]] = weight
    return w


def _pagerank(w: np.ndarray) -> np.ndarray:
    n = w.shape[0]
    out = w.sum(axis=1).astype(float)
    dangling = out == 0
    p = w / np.where(dangling, 1.0, out)[:, None]
    u = np.full(n, 1.0 / n)
    a = np.eye(n) - DAMPING * p.T - DAMPING * np.outer(u, dangling.astype(float))
    return np.linalg.solve(a, (1 - DAMPING) * u)


def _hits(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hub and authority as the limit of power iteration from uniform hubs.

    That limit is the start direction (in-strengths, the first authority
    iterate) projected onto the dominant eigenspace of W^T W, which is the
    dominant eigenvector whenever that eigenvalue is simple.
    """
    n = w.shape[0]
    if not w.any():
        return np.zeros(n), np.zeros(n)
    wf = w.astype(float)
    vals, vecs = np.linalg.eigh(wf.T @ wf)
    top = vecs[:, vals >= vals.max() * (1.0 - 1e-9)]
    authority = top @ (top.T @ wf.sum(axis=0))
    authority /= authority.sum()
    hub = wf @ authority
    return hub / hub.sum(), authority


def _path_measures(w: np.ndarray, tie_rtol: float):
    """Betweenness, incoming closeness and harmonic with lengths 1/weight.

    Betweenness runs over sources in blocks of 64, which bounds the dense
    source-by-edge arrays to 64 rows.
    """
    chunk = 64
    n = w.shape[0]
    src, dst = np.nonzero(w)
    length = 1.0 / w[src, dst]
    graph = sparse.csr_array((length, (src, dst)), shape=(n, n))
    dist = csgraph.dijkstra(graph, directed=True)
    finite = np.isfinite(dist)
    np.fill_diagonal(finite, False)
    reach = finite.sum(axis=0)
    total = np.where(finite, dist, 0.0).sum(axis=0)
    harmonic = np.where(finite, 1.0 / np.where(finite, dist, 1.0), 0.0).sum(axis=0)
    closeness = np.zeros(n)
    if n > 1:
        ok = total > 0
        closeness[ok] = (reach[ok] / (n - 1)) * (reach[ok] / total[ok])

    into = sparse.csr_array(
        (np.ones(len(dst)), (np.arange(len(dst)), dst)), shape=(len(dst), n)
    )
    out_of = sparse.csr_array(
        (np.ones(len(src)), (np.arange(len(src)), src)), shape=(len(src), n)
    )
    betweenness = np.zeros(n)
    for lo in range(0, n, chunk):
        rows = np.arange(lo, min(n, lo + chunk))
        d = dist[rows]
        du, dv = d[:, src], d[:, dst]
        with np.errstate(invalid="ignore"):
            tight = np.isfinite(du) & (
                np.abs(du + length - dv) <= tie_rtol * np.maximum(dv, length)
            )
        base = np.zeros((len(rows), n))
        base[np.arange(len(rows)), rows] = 1.0
        sigma = base
        for _ in range(n):
            nxt = base + (into.T @ (sigma[:, src] * tight).T).T
            if np.array_equal(nxt, sigma):
                break
            sigma = nxt
        ratio = np.where(tight, sigma[:, src] / np.where(tight, sigma[:, dst], 1.0), 0.0)
        delta = np.zeros((len(rows), n))
        for _ in range(n):
            nxt = (out_of.T @ (ratio * (1.0 + delta[:, dst])).T).T
            if np.array_equal(nxt, delta):
                break
            delta = nxt
        delta[np.arange(len(rows)), rows] = 0.0
        betweenness += delta.sum(axis=0)
    return betweenness, closeness, harmonic


def centrality_oracle(edges, nodes, tie_rtol: float = TIE_RTOL) -> dict[str, np.ndarray]:
    """The ten measures on the subgraph induced by ``nodes`` (sorted).

    ``tie_rtol=0`` decides path ties by float ``==`` instead, which is how
    the known tie defect is told apart from other betweenness errors.
    """
    w = _dense(edges, nodes)
    binary = (w > 0).astype(np.int64)
    hub, authority = _hits(w)
    betweenness, closeness, harmonic = _path_measures(w, tie_rtol)
    return {
        "in_degree": binary.sum(axis=0),
        "out_degree": binary.sum(axis=1),
        "in_strength": w.sum(axis=0),
        "out_strength": w.sum(axis=1),
        "pagerank": _pagerank(w),
        "betweenness": betweenness,
        "closeness": closeness,
        "harmonic": harmonic,
        "hub": hub,
        "authority": authority,
    }


def _close(got: np.ndarray, want: np.ndarray, atol: float) -> bool:
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= atol + RTOL * np.abs(want))
    )


def check_centrality(path, edges, nodes) -> list[str]:
    rows = read_csv(path)
    if rows[0] != ["node", *MEASURES]:
        return [f"{_name(path)}: header {rows[0]}"]
    if [r[0] for r in rows[1:]] != list(nodes):
        return [f"{_name(path)}: node column differs from the {len(nodes)} expected nodes"]
    want = centrality_oracle(edges, nodes)
    problems = []
    for j, name in enumerate(MEASURES, start=1):
        column = [r[j] for r in rows[1:]]
        if _integral(name):
            expect = [str(int(v)) if name.endswith("degree") else repr(float(v)) for v in want[name]]
            if column != expect:
                problems.append(f"{_name(path)}: {name} differs from the exact sums")
            continue
        got = np.array([float(v) for v in column])
        scale = float(np.abs(want[name]).max()) if len(nodes) else 0.0
        atol = ATOL.get(name, RTOL * max(scale, 1e-300))
        if not _close(got, want[name], atol):
            worst = float(np.max(np.abs(got - want[name])))
            label = ""
            if name == "betweenness" and _close(
                got, centrality_oracle(edges, nodes, 0.0)[name], atol
            ):
                label = f"{FLOAT_TIES}: "
            problems.append(f"{label}{_name(path)}: {name} off by up to {worst:.3g}")
    return problems


# --- rank correlation ---

def _tie_near(values: np.ndarray) -> np.ndarray:
    """Replace runs of values equal to within RTOL by one representative."""
    order = np.argsort(values, kind="stable")
    out = values.astype(float).copy()
    scale = max(float(np.abs(values).max()), 1e-300) if len(values) else 1.0
    for a, b in zip(order[:-1], order[1:]):
        if abs(out[b] - out[a]) <= RTOL * scale:
            out[b] = out[a]
    return out


def _ranks(values: np.ndarray) -> np.ndarray:
    ordered = np.sort(values)
    return (
        np.searchsorted(ordered, values, "left")
        + np.searchsorted(ordered, values, "right")
        + 1
    ) / 2.0


def _pearson(rx: np.ndarray, ry: np.ndarray) -> float:
    dx, dy = rx - rx.mean(), ry - ry.mean()
    sx, sy = float(dx @ dx), float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        return math.nan
    return float(dx @ dy) / math.sqrt(sx * sy)


def spearman(xs, ys) -> float:
    return _pearson(_ranks(np.asarray(xs, float)), _ranks(np.asarray(ys, float)))


def rho_range(xs, league) -> tuple[float, float]:
    """Bounds on Spearman's rho over every way of splitting or keeping ties.

    Values that tie in exact arithmetic can come out of a floating-point
    computation split in any order, or partly tied.  Every such rank vector
    averages full orderings of the tied groups, so its covariance with the
    league ranks lies between breaking all ties against the league order
    and breaking them all with it; its variance lies between keeping every
    tie and keeping none.
    """
    xs = np.asarray(xs, float)
    n = len(xs)
    dy = _ranks(np.asarray(league, float))
    dy -= dy.mean()
    sy = float(dy @ dy)
    tied = _ranks(xs)
    sx_tied = float(((tied - tied.mean()) ** 2).sum())
    sx_split = n * (n * n - 1) / 12.0
    if sy == 0.0 or sx_split == 0.0:
        return math.nan, math.nan
    covs = []
    for sign in (-1.0, 1.0):
        rx = np.empty(n)
        rx[np.lexsort((sign * dy, xs))] = np.arange(1, n + 1)
        covs.append(float((rx - rx.mean()) @ dy))

    def scaled(cov: float, shrink: bool) -> float:
        # largest |rho| comes with the smallest rank variance, and vice versa
        sx = sx_split if shrink else sx_tied
        if cov == 0.0 or sx == 0.0:
            return math.copysign(1.0, cov) if cov else 0.0
        return cov / math.sqrt(sx * sy)

    lo, hi = min(covs), max(covs)
    return max(-1.0, scaled(lo, lo > 0)), min(1.0, scaled(hi, hi < 0))


def check_correlations(path, edges, ranking: dict[str, int]) -> list[str]:
    nodes = sorted(ranking)
    league = [ranking[v] for v in nodes]
    rows = read_csv(path)
    if rows[0] != ["measure", "rho", "n_overlap"] or [r[0] for r in rows[1:]] != list(MEASURES):
        return [f"{_name(path)}: unexpected layout"]
    exact = centrality_oracle(edges, nodes)
    float_ties = None
    problems = []
    for row in rows[1:]:
        name, rho = row[0], float(row[1])
        if int(row[2]) != len(nodes):
            problems.append(f"{_name(path)}: n_overlap {row[2]} != {len(nodes)}")
        if _rho_matches(rho, exact[name], league, _integral(name)):
            continue
        label = ""
        if name == "betweenness":
            if float_ties is None:
                float_ties = centrality_oracle(edges, nodes, 0.0)[name]
            if _rho_matches(rho, float_ties, league, False):
                label = f"{FLOAT_TIES}: "
        problems.append(f"{label}{_name(path)}: rho[{name}] = {rho!r} disagrees with the oracle")
    return problems


def _integral(measure: str) -> bool:
    return measure.endswith("degree") or measure.endswith("strength")


def _rho_matches(rho: float, values: np.ndarray, league, integral: bool) -> bool:
    """Whether ``rho`` is Spearman's rho of ``values`` against the league.

    Degrees and strengths are exact integers, so their ties are exact too.
    Other measures come out of floating point, where exactly tied values
    may be split in any order, so any rho in ``rho_range`` is accepted.
    """
    if integral:
        want = spearman(-values, league)
        if math.isnan(want) or math.isnan(rho):
            return math.isnan(want) and math.isnan(rho)
        return abs(rho - want) <= RHO_ATOL
    xs = -_tie_near(values)
    if math.isnan(rho):
        return bool(np.all(xs == xs[0]))
    lo, hi = rho_range(xs, league)
    return not math.isnan(lo) and lo - RHO_ATOL <= rho <= hi + RHO_ATOL


# --- modularity and density ---

def check_modularity(path, edges, partition: dict[str, str], nodes) -> list[str]:
    """``modularity`` output on the subgraph induced by ``nodes``."""
    keep = set(nodes)
    edges = {p: w for p, w in edges.items() if p[0] in keep and p[1] in keep}
    group = {v: partition.get(v, UNAFFILIATED) for v in keep}
    m = sum(edges.values())
    s_out: dict[str, int] = {}
    s_in: dict[str, int] = {}
    inside: dict[str, int] = {}
    for (s, t), w in edges.items():
        s_out[group[s]] = s_out.get(group[s], 0) + w
        s_in[group[t]] = s_in.get(group[t], 0) + w
        if group[s] == group[t]:
            inside[group[s]] = inside.get(group[s], 0) + w
    labels = sorted(set(group.values()))
    q = sum(
        Fraction(inside.get(g, 0), m) - Fraction(s_out.get(g, 0) * s_in.get(g, 0), m * m)
        for g in labels
    )
    expect = [["group", "internal_weight", "expected_weight", "q"]] + [
        [
            g,
            str(inside.get(g, 0)),
            repr(float(Fraction(s_out.get(g, 0) * s_in.get(g, 0), m))),
            repr(float(q)),
        ]
        for g in labels
    ]
    got = read_csv(path)
    return [] if got == expect else [f"{_name(path)}: differs from the exact recomputation"]


def density_line(edges, year: int, members) -> str:
    member_set = set(members)
    k = len(member_set)
    linked = sum(1 for s, t in edges if s in member_set and t in member_set)
    return f"year={year} density={linked / (k * (k - 1))!r}\n"


# --- SLD statistics ---

def sld_of(node: str) -> str:
    parts = node.rsplit(".", 2)
    if len(parts) >= 2 and f"{parts[-2]}.{parts[-1]}" in REGISTERED_SLDS:
        return f"{parts[-2]}.{parts[-1]}"
    return "other"


def expected_stats(snapshots: dict[int, dict]) -> dict[str, str]:
    """File name -> exact text of the ``stats`` outputs (self-flows excluded)."""
    files = {}
    series = ["year,sld,node_count,share\n"]
    per_node = ["year,sld,links_per_node\n"]
    for year in sorted(snapshots):
        edges = snapshots[year]
        counts: dict[str, int] = {}
        for v in nodes_of(edges):
            counts[sld_of(v)] = counts.get(sld_of(v), 0) + 1
        total = sum(counts.values())
        for sld in sorted(counts):
            series.append(f"{year},{sld},{counts[sld]},{counts[sld] / total!r}\n")
        cells: dict[tuple[str, str], int] = {}
        for (s, t), w in edges.items():
            cell = (sld_of(s), sld_of(t))
            cells[cell] = cells.get(cell, 0) + w
        for sld in sorted(REGISTERED_SLDS):
            inside = cells.get((sld, sld), 0)
            value = inside / counts[sld] if counts.get(sld) else 0.0
            per_node.append(f"{year},{sld},{value!r}\n")
        flows = ["source_sld,target_sld,absolute,normalized\n"]
        for a, b in sorted(cells):
            absolute = "" if a == b else str(cells[(a, b)])
            flows.append(f"{a},{b},{absolute},{cells[(a, b)] / counts[b]!r}\n")
        files[f"flows_{year}.csv"] = "".join(flows)
    files["sld_series.csv"] = "".join(series)
    files["links_per_node.csv"] = "".join(per_node)
    return files


# --- gravity ---

def sphere_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """atan2 great-circle distance; symmetric by construction."""
    if b < a:
        a, b = b, a
    phi1, lam1 = map(math.radians, a)
    phi2, lam2 = map(math.radians, b)
    dlam = lam2 - lam1
    num = math.hypot(
        math.cos(phi2) * math.sin(dlam),
        math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam),
    )
    den = math.sin(phi1) * math.sin(phi2) + math.cos(phi1) * math.cos(phi2) * math.cos(dlam)
    return EARTH_RADIUS_KM * math.atan2(num, den)


def gravity_oracle(edges, geo: dict[str, tuple[str, str]]):
    """Rows of geo_links, the smoothed series and the fit, recomputed."""
    window = GRAVITY_WINDOW
    keep = set(geo)
    induced = {p: w for p, w in edges.items() if p[0] in keep and p[1] in keep}
    s_out: dict[str, int] = {}
    s_in: dict[str, int] = {}
    for (s, t), w in induced.items():
        s_out[s] = s_out.get(s, 0) + w
        s_in[t] = s_in.get(t, 0) + w
    coords = {v: (float(lat), float(lon)) for v, (lat, lon) in geo.items()}
    links, points = [], []
    for s, t in sorted(induced):
        sigma = induced[(s, t)] / (s_out[s] * s_in[t])
        links.append([s, t, *map(repr, coords[s]), *map(repr, coords[t]), repr(sigma)])
        d = sphere_km(coords[s], coords[t])
        if d >= GRAVITY_D_MIN_KM:
            points.append((d, s, t, sigma))
    points.sort()
    d = np.array([p[0] for p in points])
    sig = np.array([p[3] for p in points])
    csum_d = np.concatenate([[0.0], np.cumsum(d)])
    csum_s = np.concatenate([[0.0], np.cumsum(sig)])
    mean_d = (csum_d[window:] - csum_d[:-window]) / window
    mean_s = (csum_s[window:] - csum_s[:-window]) / window
    x, y = np.log(mean_d), np.log(mean_s)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    sxx = float(((x - x.mean()) ** 2).sum())
    std_error = math.sqrt(float(resid @ resid) / (len(x) - 2) / sxx)
    return links, np.column_stack([mean_d, mean_s]), -slope, std_error


def check_gravity(out_dir, year, edges, geo, planted=None, planted_tol=None) -> list[str]:
    links, series, exponent, std_error = gravity_oracle(edges, geo)
    problems = []
    header = ["source", "target", "source_lat", "source_lon", "target_lat", "target_lon", "sigma"]
    if read_csv(out_dir / f"geo_links_{year}.csv") != [header] + links:
        problems.append(f"geo_links_{year}.csv differs from the recomputed pairs")
    rows = read_csv(out_dir / f"gravity_series_{year}.csv")
    got = np.array([[float(a), float(b)] for a, b in rows[1:]])
    if rows[0] != ["mean_d_km", "mean_sigma"] or not _close(got, series, 0.0):
        problems.append(f"gravity_series_{year}.csv differs from the recomputed series")
    fit = read_csv(out_dir / f"gravity_fit_{year}.csv")
    a, err, n_points, window, d_min = fit[1]
    if (
        fit[0] != ["a", "std_error", "n_points", "window", "d_min"]
        or abs(float(a) - exponent) > 1e-7 * max(1.0, abs(exponent))
        or abs(float(err) - std_error) > 1e-6 * std_error
        or int(n_points) != len(series)
        or (int(window), float(d_min)) != (GRAVITY_WINDOW, GRAVITY_D_MIN_KM)
    ):
        problems.append(f"gravity_fit_{year}.csv: a={a} vs {exponent!r}, se={err} vs {std_error!r}")
    if planted is not None and abs(float(a) - planted) > planted_tol:
        problems.append(f"gravity exponent {a} is not within {planted_tol} of planted {planted}")
    return problems


# --- export ---

def check_graphml(path, edges) -> list[str]:
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    graph = ET.parse(path).getroot().find("g:graph", ns)
    nodes = [n.get("id") for n in graph.findall("g:node", ns)]
    got = {
        (e.get("source"), e.get("target")): int(e.find("g:data", ns).text)
        for e in graph.findall("g:edge", ns)
    }
    if graph.get("edgedefault") != "directed" or nodes != nodes_of(edges) or got != edges:
        return [f"{_name(path)}: nodes or weighted edges differ from the snapshot"]
    return []
