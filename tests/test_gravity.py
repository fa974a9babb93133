import math
import random
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from chronoscope import gravity
from chronoscope.bytefields import write_csv
from chronoscope.errors import (
    DegenerateDesign,
    InsufficientData,
    MalformedLine,
    MissingCoordinates,
    NonPositiveValue,
)
from chronoscope.gravity import (
    EARTH_RADIUS_KM,
    DistanceSeries,
    GeoPoint,
    PairTable,
    distance_strength_series,
    export_geo_links,
    fit_gravity_exponent,
    haversine_km,
    normalized_strengths,
    read_geo_points,
    symmetrize_pairs,
    window_means,
    write_geo_points,
    write_gravity_series,
)
from graphs import snapshot_of
from oracles import sphere_distance_km

OXFORD = GeoPoint(51.7548, -1.2544)
CAMBRIDGE = GeoPoint(52.2053, 0.1218)

# one pair with node names, as the tests write and read pair tables
Row = namedtuple("Row", "source target raw_strength normalized_strength distance_km")


def dist(p, q):
    return float(haversine_km(p.latitude, p.longitude, q.latitude, q.longitude))


def table(pairs):
    """A PairTable holding these rows, put in (source, target) order."""
    pairs = sorted(pairs)
    nodes = tuple(sorted({r.source for r in pairs} | {r.target for r in pairs}))
    index = {v: i for i, v in enumerate(nodes)}
    return PairTable(
        nodes,
        np.array([index[r.source] for r in pairs], dtype=np.int64),
        np.array([index[r.target] for r in pairs], dtype=np.int64),
        np.array([r.raw_strength for r in pairs], dtype=np.int64),
        np.array([r.normalized_strength for r in pairs], dtype=float),
        np.array([r.distance_km for r in pairs], dtype=float),
    )


def rows(pairs):
    """The rows of a PairTable, in table order."""
    return [
        Row(pairs.nodes[s], pairs.nodes[t], w, sigma, d)
        for s, t, w, sigma, d in zip(
            pairs.source.tolist(),
            pairs.target.tolist(),
            pairs.weight.tolist(),
            pairs.sigma.tolist(),
            pairs.distance_km.tolist(),
        )
    ]


# --- haversine ---

def test_haversine_zero_for_identical_points():
    assert dist(OXFORD, OXFORD) == 0.0


def test_haversine_antipodal_half_circumference():
    d = dist(GeoPoint(0, 0), GeoPoint(0, 180))
    assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-12)


def test_haversine_matches_independent_formula():
    d = dist(OXFORD, CAMBRIDGE)
    expected = sphere_distance_km(51.7548, -1.2544, 52.2053, 0.1218)
    assert d == pytest.approx(expected, rel=1e-6)


coords = st.tuples(
    st.floats(min_value=-89.9, max_value=89.9),
    st.floats(min_value=-179.9, max_value=179.9),
)


@given(a=coords, b=coords)
def test_haversine_symmetric(a, b):
    p, q = GeoPoint(*a), GeoPoint(*b)
    assert dist(p, q) == dist(q, p)


@given(a=coords, b=coords, c=coords)
def test_haversine_triangle_inequality(a, b, c):
    p, q, r = GeoPoint(*a), GeoPoint(*b), GeoPoint(*c)
    assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-9


def test_geopoint_range_validation():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 181.0)


# --- normalized strengths ---

def geo_for(nodes, seed=0):
    rng = random.Random(seed)
    return {
        n: GeoPoint(50 + 8 * rng.random(), -6 + 7 * rng.random()) for n in nodes
    }


def test_two_node_sigma():
    snap = snapshot_of(2010, {("a.ac.uk", "b.ac.uk"): 4})
    geo = geo_for(["a.ac.uk", "b.ac.uk"])
    result = normalized_strengths(snap, ["a.ac.uk", "b.ac.uk"], geo)
    assert len(result.pairs) == 1
    pair = rows(result.pairs)[0]
    assert pair.normalized_strength == pytest.approx(0.25)
    assert pair.raw_strength == 4
    # the unlinked opposite direction is the one excluded ordered pair
    assert result.excluded_pairs == 1


def test_unlinked_pairs_excluded():
    nodes = ["a.ac.uk", "b.ac.uk", "c.ac.uk"]
    snap = snapshot_of(2010, {("a.ac.uk", "b.ac.uk"): 1})
    result = normalized_strengths(snap, nodes, geo_for(nodes))
    assert len(result.pairs) == 1
    assert result.excluded_pairs == 6 - 1


def test_sigma_matches_first_principles_recompute():
    rng = random.Random(9)
    nodes = [f"n{i}.ac.uk" for i in range(5)]
    edges = {
        (u, v): rng.randint(1, 20)
        for u in nodes
        for v in nodes
        if u != v and rng.random() < 0.7
    }
    snap = snapshot_of(2010, edges)
    geo = geo_for(nodes, seed=9)
    result = normalized_strengths(snap, nodes, geo)
    assert len(result.pairs) == len(edges)
    for pair in rows(result.pairs):
        s_out = sum(w for (u, _), w in edges.items() if u == pair.source)
        s_in = sum(w for (_, v), w in edges.items() if v == pair.target)
        expected = edges[(pair.source, pair.target)] / (s_out * s_in)
        assert pair.normalized_strength == pytest.approx(expected, rel=1e-12)
        assert pair.distance_km == dist(geo[pair.source], geo[pair.target])


def test_strengths_use_induced_subgraph_only():
    nodes = ["a.ac.uk", "b.ac.uk"]
    snap = snapshot_of(2010, {("a.ac.uk", "b.ac.uk"): 4, ("a.ac.uk", "x.co.uk"): 1000})
    result = normalized_strengths(snap, nodes, geo_for(nodes))
    assert rows(result.pairs)[0].normalized_strength == pytest.approx(0.25)


def test_missing_coordinates():
    snap = snapshot_of(2010, {("a.ac.uk", "b.ac.uk"): 1})
    with pytest.raises(MissingCoordinates):
        normalized_strengths(snap, ["a.ac.uk", "b.ac.uk"], {"a.ac.uk": OXFORD})


def test_symmetrize_mean():
    pairs = table([
        Row("a.ac.uk", "b.ac.uk", 4, 0.2, 100.0),
        Row("b.ac.uk", "a.ac.uk", 2, 0.1, 100.0),
        Row("c.ac.uk", "a.ac.uk", 1, 0.5, 50.0),
    ])
    merged = rows(symmetrize_pairs(pairs))
    assert len(merged) == 2
    ab = next(p for p in merged if p.target == "b.ac.uk")
    assert ab.normalized_strength == pytest.approx(0.15)
    assert ab.raw_strength == 6
    ac = next(p for p in merged if p.target == "c.ac.uk")
    assert ac.normalized_strength == pytest.approx(0.5)  # single direction kept


# --- moving-average series ---

def pairs_from(points):
    return table(
        Row(f"s{i}", f"t{i}", 1, sigma, d) for i, (d, sigma) in enumerate(points)
    )


def points(series):
    return tuple(zip(series.distance_km.tolist(), series.sigma.tolist()))


def series_of(pts, d_min_km=0.0):
    d, sigma = zip(*pts)
    return DistanceSeries(np.array(d), np.array(sigma), 1, d_min_km, None, len(pts))


def test_series_pairwise_means():
    series = distance_strength_series(
        pairs_from([(1, 1), (2, 3), (3, 5)]), window=2, d_min_km=0
    )
    assert points(series) == ((1.5, 2.0), (2.5, 4.0))


def test_series_window_one_is_identity():
    pts = [(5.0, 2.0), (1.0, 1.0), (9.0, 7.0)]
    series = distance_strength_series(pairs_from(pts), window=1, d_min_km=0)
    assert points(series) == ((1.0, 1.0), (5.0, 2.0), (9.0, 7.0))


def test_series_distance_floor():
    pts = [(5.0, 1.0), (25.0, 2.0), (30.0, 4.0)]
    series = distance_strength_series(pairs_from(pts), window=1, d_min_km=20)
    assert points(series) == ((25.0, 2.0), (30.0, 4.0))
    assert series.n_pairs == 2


def test_series_distance_ceiling():
    pts = [(5.0, 1.0), (25.0, 2.0), (900.0, 4.0)]
    series = distance_strength_series(
        pairs_from(pts), window=1, d_min_km=0, d_max_km=100.0
    )
    assert points(series) == ((5.0, 1.0), (25.0, 2.0))


def test_series_insufficient_data():
    with pytest.raises(InsufficientData):
        distance_strength_series(pairs_from([(30.0, 1.0)]), window=2)


@given(
    n=st.integers(min_value=1, max_value=200),
    window=st.integers(min_value=1, max_value=60),
)
def test_series_point_count(n, window):
    rng = random.Random(n * 1000 + window)
    pts = [(20 + 500 * rng.random(), rng.random() + 0.1) for _ in range(n)]
    if n < window:
        with pytest.raises(InsufficientData):
            distance_strength_series(pairs_from(pts), window=window)
    else:
        series = distance_strength_series(pairs_from(pts), window=window)
        assert len(series.distance_km) == n - window + 1


# --- window means ---

def fsum_means(values, window):
    values = list(values)
    return [math.fsum(values[k : k + window]) / window for k in range(len(values) - window + 1)]


@st.composite
def columns_and_windows(draw):
    # non-negative columns whose values spread over a drawn range of binary
    # exponents within [-300, 300], some of them zero or repeated, some sorted
    n = draw(st.integers(min_value=1, max_value=3000))
    low = draw(st.integers(min_value=-300, max_value=300))
    high = draw(st.integers(min_value=low, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    values = np.ldexp(rng.random(n), rng.integers(low, high + 1, n))
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.5]))] = 0.0
    if draw(st.booleans()):
        values = np.repeat(values[: n // 4 + 1], 4)[:n]
    if draw(st.booleans()):
        values.sort()
    return values, draw(st.integers(min_value=1, max_value=n))


@settings(max_examples=150, deadline=None)
@given(columns_and_windows())
def test_window_means_are_fsum_means(column_window):
    values, window = column_window
    assert window_means(values, window).tolist() == fsum_means(values.tolist(), window)


def test_window_means_fall_back_to_fsum_where_the_bound_cannot_decide():
    # a huge run, then small values that the first prefix sum cannot hold;
    # and a spike between two runs of tiny values: double-double prefix
    # sums alone miss the correct rounding in most of these windows, and
    # the error bound leaves them to fsum (NaN)
    rng = np.random.default_rng(25)
    cases = [
        (np.concatenate([np.full(1000, 1e16), rng.random(5000)]), 300),
        (np.concatenate([rng.random(5000) * 1e-8, np.full(1000, 1e10), rng.random(5000) * 1e-8]), 500),
    ]
    for values, window in cases:
        means = window_means(values, window)
        assert means.tolist() == fsum_means(values.tolist(), window)
        assert np.isnan(gravity._window_sums(values, window)).sum() > len(means) // 2


def test_window_means_of_nan_and_infinity_are_fsum_means():
    values = [1.0, math.nan, 2.0, 3.0, math.inf, 4.0, 5.0]
    for window in (1, 2, 3):
        got = window_means(np.array(values), window)
        assert list(map(repr, got.tolist())) == list(map(repr, fsum_means(values, window)))


def test_window_means_refuse_negative_values():
    with pytest.raises(ValueError):
        window_means(np.array([1.0, -0.5, 2.0]), 2)


def test_series_means_are_window_means():
    rng = np.random.default_rng(6)
    pts = list(zip(20 + 900 * rng.random(2000), rng.lognormal(-9, 3, 2000)))
    series = distance_strength_series(pairs_from(pts), window=97, d_min_km=0)
    d, sigma = zip(*sorted(pts))
    assert series.distance_km.tolist() == fsum_means(d, 97)
    assert series.sigma.tolist() == fsum_means(sigma, 97)


# --- the log-log fit ---

def power_law_series(a=0.3, scale=1.0, n=50):
    ds = np.linspace(30, 800, n)
    return DistanceSeries(
        ds,
        scale * ds**-a,
        window=1,
        d_min_km=20.0,
        d_max_km=None,
        n_pairs=n,
    )


def test_fit_exact_power_law():
    fit = fit_gravity_exponent(power_law_series(a=0.3))
    assert fit.exponent == pytest.approx(0.3, abs=1e-9)
    assert fit.std_error == pytest.approx(0.0, abs=1e-12)


def test_fit_noiseless_residuals_tiny():
    series = power_law_series(a=0.77)
    fit = fit_gravity_exponent(series)
    x = np.log(series.distance_km)
    y = np.log(series.sigma)
    rss = float(np.sum((y - (fit.intercept - fit.exponent * x)) ** 2))
    assert rss < 1e-18


def test_fit_scale_invariance_of_exponent():
    base = fit_gravity_exponent(power_law_series(a=0.3, scale=1.0))
    scaled = fit_gravity_exponent(power_law_series(a=0.3, scale=7.3))
    assert scaled.exponent == pytest.approx(base.exponent, abs=1e-12)
    assert scaled.intercept - base.intercept == pytest.approx(
        math.log(7.3), abs=1e-9
    )


def test_fit_matches_scipy_linregress():
    rng = np.random.default_rng(4)
    d = np.sort(rng.uniform(25, 900, 300))
    sigma = d**-0.4 * np.exp(rng.normal(0, 0.2, 300))
    series = DistanceSeries(d, sigma, 1, 20.0, None, 300)
    fit = fit_gravity_exponent(series)
    ref = stats.linregress(np.log(d), np.log(sigma))
    assert fit.exponent == pytest.approx(-ref.slope, abs=1e-12)
    assert fit.std_error == pytest.approx(ref.stderr, abs=1e-12)
    assert fit.intercept == pytest.approx(ref.intercept, abs=1e-12)


def test_fit_rejects_bad_input():
    with pytest.raises(InsufficientData):
        fit_gravity_exponent(series_of(((1.0, 1.0), (2.0, 0.5))))
    with pytest.raises(NonPositiveValue):
        fit_gravity_exponent(series_of(((1.0, 1.0), (2.0, 0.0), (3.0, 1.0))))
    with pytest.raises(DegenerateDesign):
        fit_gravity_exponent(series_of(((2.0, 1.0), (2.0, 0.5), (2.0, 0.2))))


def test_weight_scaling_leaves_exponent_fixed():
    # snapshot-level version: scaling all weights by c shifts every sigma by
    # 1/c and must not move the fitted exponent
    rng = random.Random(2)
    nodes = [f"n{i:02d}.ac.uk" for i in range(30)]
    geo = geo_for(nodes, seed=2)
    edges = {
        (u, v): rng.randint(1, 50)
        for u in nodes
        for v in nodes
        if u != v and rng.random() < 0.5
    }
    def fitted(snapshot):
        result = normalized_strengths(snapshot, nodes, geo)
        series = distance_strength_series(
            result.pairs, window=50, d_min_km=0
        )
        return fit_gravity_exponent(series)

    base = fitted(snapshot_of(2010, edges))
    for c in (2, 10, 1000):
        scaled = fitted(snapshot_of(2010, {k: w * c for k, w in edges.items()}))
        assert abs(scaled.exponent - base.exponent) < 1e-9
        assert scaled.intercept - base.intercept == pytest.approx(
            -math.log(c), abs=1e-9
        )


# --- geographic exports ---

def test_export_geo_links_rows(tmp_path):
    nodes = ["a.ac.uk", "b.ac.uk"]
    geo = geo_for(nodes)
    pairs = table([Row("a.ac.uk", "b.ac.uk", 4, 0.25, 120.0)])
    out = tmp_path / "geo_links.csv"
    export_geo_links(pairs, geo, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "source,target,source_lat,source_lon,target_lat,target_lon,sigma"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "a.ac.uk" and float(fields[6]) == 0.25


def test_export_geo_links_empty(tmp_path):
    out = tmp_path / "geo_links.csv"
    export_geo_links(table([]), {}, out)
    assert out.read_text().splitlines() == [
        "source,target,source_lat,source_lon,target_lat,target_lon,sigma"
    ]


def test_export_geo_links_missing_coordinates(tmp_path):
    pairs = table([Row("a.ac.uk", "b.ac.uk", 1, 0.5, 10.0)])
    with pytest.raises(MissingCoordinates):
        export_geo_links(pairs, {"a.ac.uk": OXFORD}, tmp_path / "x.csv")


def test_series_file_has_the_csv_writers_bytes(tmp_path):
    d = np.array([20.5, 1e-05, 123456789.0, 0.1 + 0.2, math.inf])
    sigma = np.array([5e-324, 1.5e300, -0.0, 2.0, math.nan])
    write_gravity_series(DistanceSeries(d, sigma, 1, 0.0, None, 5), tmp_path / "series.csv")
    rows = zip(map(repr, d.tolist()), map(repr, sigma.tolist()))
    write_csv(tmp_path / "by_csv.csv", ["mean_d_km", "mean_sigma"], rows)
    assert (tmp_path / "series.csv").read_bytes() == (tmp_path / "by_csv.csv").read_bytes()


def test_geo_file_roundtrip(tmp_path):
    geo = {"ox.ac.uk": OXFORD, "cam.ac.uk": CAMBRIDGE}
    path = tmp_path / "geo.tsv"
    write_geo_points(geo, path)
    assert read_geo_points(path) == geo


def test_geo_file_roundtrip_keeps_every_float_repr(tmp_path):
    # reprs in exponent form, signed zeros and the range ends read back as
    # the same floats
    geo = {
        "a.ac.uk": GeoPoint(1e-05, -0.0),
        "b.ac.uk": GeoPoint(-90.0, 180.0),
        "c.ac.uk": GeoPoint(5e-324, -1.5e-300),
        "d.ac.uk": GeoPoint(0.1 + 0.2, -179.99999999999997),
    }
    path = tmp_path / "geo.tsv"
    write_geo_points(geo, path)
    assert "\t1e-05\t-0.0\n" in path.read_text()
    back = read_geo_points(path)
    assert {d: tuple(map(repr, (p.latitude, p.longitude))) for d, p in back.items()} == {
        d: tuple(map(repr, (p.latitude, p.longitude))) for d, p in geo.items()
    }


# a coordinate is a decimal field (test_bytefields checks the rule itself)
@pytest.mark.parametrize("coordinate", ["5_1.5", "+51.5", "51.5x", "\u0665\u0662"])
def test_read_geo_points_takes_ascii_coordinates_alone(tmp_path, coordinate):
    path = tmp_path / "geo.tsv"
    for row in (f"ox.ac.uk\t{coordinate}\t-1", f"ox.ac.uk\t51.5\t{coordinate}"):
        path.write_text(f"cam.ac.uk\t52.2\t0.12\n{row}\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as err:
            read_geo_points(path)
        assert str(err.value) == f"{path}:2: bad coordinate {coordinate!r}"


def test_read_geo_points_rejects_a_repeated_domain(tmp_path):
    path = tmp_path / "geo.tsv"
    path.write_text("ox.ac.uk\t51.75\t-1.25\ncam.ac.uk\t52.2\t0.12\nox.ac.uk\t51.0\t-1.0\n")
    with pytest.raises(MalformedLine) as err:
        read_geo_points(path)
    assert str(err.value) == f"{path}:3: repeated domain 'ox.ac.uk'"
