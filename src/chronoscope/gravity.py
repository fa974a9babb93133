"""Distance decay of hyperlink strength: the spatial-interaction analysis.

For every ordered pair of linked nodes, the raw strength (edge weight) is
normalized by sender out-strength and receiver in-strength,
``sigma = S_ij / (S_i_out * S_j_in)``, which corrects for node size and
linking propensity.  The normalized strengths are smoothed with a moving
average over distance and fitted with ordinary least squares in log-log
space to estimate the decay exponent of ``sigma ~ d^-a``.

Normalize, symmetrize and window all work on one :class:`PairTable`, the
pairs as columns; the synthetic generator calibrates with these functions.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .bytefields import Rows, write_csv, write_rows
from .errors import (
    DegenerateDesign,
    InsufficientData,
    MissingCoordinates,
    NonPositiveValue,
)
from .snapshot import YearSnapshot, group_sums

EARTH_RADIUS_KM = 6371.0088

DEFAULT_WINDOW = 500
DEFAULT_D_MIN_KM = 20.0

SYMMETRIZE_NONE = "none"
SYMMETRIZE_MEAN = "mean"


@dataclass(frozen=True)
class GeoPoint:
    latitude: float
    longitude: float

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} out of range")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} out of range")


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distances in km between points given in degrees.

    Elementwise over broadcast arrays, on a sphere of radius 6371.0088 km.
    """
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = np.radians(np.subtract(lat2, lat1))
    dlam = np.radians(np.subtract(lon2, lon1))
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


@dataclass(frozen=True, eq=False)
class PairTable:
    """Linked ordered pairs as columns, one row per pair.

    ``source`` and ``target`` index into the sorted ``nodes``, and rows are
    in (source, target) order.  ``weight`` is the raw strength, ``sigma``
    the normalized strength and ``distance_km`` the great-circle distance.
    """

    nodes: tuple[str, ...]
    source: np.ndarray
    target: np.ndarray
    weight: np.ndarray
    sigma: np.ndarray
    distance_km: np.ndarray

    def __len__(self) -> int:
        return len(self.source)


def pair_table(nodes, source, target, weight, s_out, s_in, distance_km) -> PairTable:
    """Pairs with ``sigma = weight / (s_out[source] * s_in[target])``.

    Each sigma is correctly rounded while the strength product is below 2^53.
    """
    sigma = weight / np.multiply(s_out[source], s_in[target], dtype=float)
    return PairTable(tuple(nodes), source, target, weight, sigma, distance_km)


@dataclass(frozen=True)
class StrengthPairSet:
    """Normalized strengths of an induced subgraph.

    ``excluded_pairs`` counts the ordered node pairs that produced no entry
    because no link exists between them (a linked pair always has positive
    sender out-strength and receiver in-strength).
    """

    pairs: PairTable
    excluded_pairs: int


def normalized_strengths(
    snapshot: YearSnapshot,
    nodes: Iterable[str],
    geo: Mapping[str, GeoPoint],
) -> StrengthPairSet:
    """Normalize every linked ordered pair of the induced subgraph.

    Strength sums are taken within the induced subgraph, so the analysis
    population is self-contained.  Every node of the filter needs an entry
    in ``geo``.
    """
    graph = snapshot.induced(nodes)
    missing = [n for n in graph.nodes if n not in geo]
    if missing:
        raise MissingCoordinates(f"no coordinates for {missing[:5]}")
    lat = np.array([geo[n].latitude for n in graph.nodes])
    lon = np.array([geo[n].longitude for n in graph.nodes])
    src, dst = graph.src, graph.dst
    distance_km = haversine_km(lat[src], lon[src], lat[dst], lon[dst])
    pairs = pair_table(graph.nodes, src, dst, graph.weight, *graph.strengths(), distance_km)
    n = len(graph.nodes)
    return StrengthPairSet(pairs, n * (n - 1) - len(pairs))


def symmetrize_pairs(pairs: PairTable) -> PairTable:
    """Average the two directions of each linked pair into one entry.

    The entry is keyed with endpoints in lexicographic order; raw strengths
    add, normalized strengths average over the directions present, and the
    distance is the first direction's.
    """
    low = np.minimum(pairs.source, pairs.target)
    high = np.maximum(pairs.source, pairs.target)
    keys, first, key_of_row, directions = np.unique(
        low * len(pairs.nodes) + high,
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    return PairTable(
        pairs.nodes,
        low[first],
        high[first],
        group_sums(key_of_row, pairs.weight, len(keys)),
        group_sums(key_of_row, pairs.sigma, len(keys)) / directions,
        pairs.distance_km[first],
    )


@dataclass(frozen=True, eq=False)
class DistanceSeries:
    """Moving averages of distance and sigma, in distance order."""

    distance_km: np.ndarray
    sigma: np.ndarray
    window: int
    d_min_km: float
    d_max_km: float | None
    n_pairs: int


def distance_strength_series(
    pairs: PairTable,
    window: int = DEFAULT_WINDOW,
    d_min_km: float = DEFAULT_D_MIN_KM,
    d_max_km: float | None = None,
) -> DistanceSeries:
    """Slide a mean window of ``window`` points over distance-sorted pairs.

    Pairs closer than ``d_min_km`` (and, when set, farther than
    ``d_max_km``) are dropped before windowing.  Equal distances keep the
    table's (source, target) order.  A window of 1 reproduces the raw
    points, which is how the unsmoothed fit variant is expressed.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    d = pairs.distance_km
    inside = d >= d_min_km
    if d_max_km is not None:
        inside &= d <= d_max_km
    kept = np.flatnonzero(inside)
    if len(kept) < window:
        raise InsufficientData(
            f"{len(kept)} pairs after distance filtering, window is {window}"
        )
    order = kept[np.argsort(d[kept], kind="stable")]
    kernel = np.ones(window) / window
    mean_d = np.convolve(d[order], kernel, mode="valid")
    mean_s = np.convolve(pairs.sigma[order], kernel, mode="valid")
    return DistanceSeries(mean_d, mean_s, window, d_min_km, d_max_km, len(kept))


@dataclass(frozen=True)
class GravityFit:
    """Result of the log-log least-squares fit of sigma against distance.

    ``exponent`` is the decay exponent a in ``sigma ~ d^-a`` (the negated
    slope); ``std_error`` is the classical OLS standard error of the slope.
    ``d_min_km``/``d_max_km`` record the distance range of the fitted
    points.
    """

    exponent: float
    std_error: float
    intercept: float
    n_points: int
    window: int
    d_min_km: float
    d_max_km: float


def fit_gravity_exponent(series: DistanceSeries) -> GravityFit:
    """Ordinary least squares of ln(sigma) on ln(distance).

    Each sum of products is ``np.add.reduce`` of the products, numpy's own
    pairwise order, so the result does not depend on how many threads BLAS
    would split a dot product over.
    """
    d = series.distance_km
    s = series.sigma
    if len(d) < 3:
        raise InsufficientData(f"{len(d)} series points, need >= 3")
    if np.any(d <= 0) or np.any(s <= 0):
        raise NonPositiveValue("log fit needs strictly positive values")
    x = np.log(d)
    y = np.log(s)
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    sxx = float(np.add.reduce(dx * dx))
    if sxx == 0.0:
        raise DegenerateDesign("all distances equal; slope undefined")
    slope = float(np.add.reduce(dx * (y - ym))) / sxx
    intercept = ym - slope * xm
    residuals = y - (intercept + slope * x)
    rss = float(np.add.reduce(residuals * residuals))
    dof = len(x) - 2
    std_error = math.sqrt(rss / dof / sxx)
    return GravityFit(
        exponent=-slope,
        std_error=std_error,
        intercept=intercept,
        n_points=len(d),
        window=series.window,
        d_min_km=series.d_min_km,
        d_max_km=float(d.max()),
    )


# --- file formats ---

def read_geo_points(path) -> dict[str, GeoPoint]:
    """Read ``third_level_domain<TAB>lat_degrees<TAB>lon_degrees`` lines, one per
    domain."""
    rows, geo = Rows(path, "domain<TAB>lat<TAB>lon"), {}
    for domain, lat, lon in rows:
        try:
            point = GeoPoint(float(lat), float(lon))
        except ValueError as exc:
            raise rows.error(str(exc)) from None
        rows.record(geo, domain, point)
    return geo


def write_geo_points(geo: Mapping[str, GeoPoint], path) -> None:
    """Write the lines that :func:`read_geo_points` reads, in domain order."""
    rows = ((node, repr(geo[node].latitude), repr(geo[node].longitude)) for node in sorted(geo))
    write_rows(path, rows)


def export_geo_links(pairs: PairTable, geo: Mapping[str, GeoPoint], path) -> None:
    """Emit ``geo_links_<year>.csv``: one plot-ready row per pair."""
    nodes = pairs.nodes
    located = np.array([node in geo for node in nodes], bool)
    unlocated = ~(located[pairs.source] & located[pairs.target])
    if unlocated.any():
        row = int(np.argmax(unlocated))
        raise MissingCoordinates(f"{nodes[pairs.source[row]]} or {nodes[pairs.target[row]]}")
    # each node's name as a CSV field (quoted by csv) and its coordinate
    # fields, formatted once; the rows only join them
    cell = io.StringIO()
    writer = csv.writer(cell, lineterminator="\n")
    names, coords = [], []
    for node, has_point in zip(nodes, located.tolist()):
        cell.seek(0)
        cell.truncate()
        writer.writerow([node])
        names.append(cell.getvalue()[:-1])
        point = geo.get(node)
        coords.append(f"{point.latitude!r},{point.longitude!r}" if has_point else "")
    source, target = pairs.source.tolist(), pairs.target.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("source,target,source_lat,source_lon,target_lat,target_lon,sigma\n")
        fh.writelines(
            map(
                "{},{},{},{},{!r}\n".format,
                map(names.__getitem__, source),
                map(names.__getitem__, target),
                map(coords.__getitem__, source),
                map(coords.__getitem__, target),
                pairs.sigma.tolist(),
            )
        )


def write_gravity_series(series: DistanceSeries, path) -> None:
    """Emit ``gravity_series_<year>.csv``: mean_d_km,mean_sigma."""
    rows = zip(map(repr, series.distance_km.tolist()), map(repr, series.sigma.tolist()))
    write_csv(path, ["mean_d_km", "mean_sigma"], rows)


def write_gravity_fit(fit: GravityFit, path) -> None:
    """Emit ``gravity_fit_<year>.csv``: a,std_error,n_points,window,d_min."""
    row = [repr(fit.exponent), repr(fit.std_error), fit.n_points, fit.window, repr(fit.d_min_km)]
    write_csv(path, ["a", "std_error", "n_points", "window", "d_min"], [row])
