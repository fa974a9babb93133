import pytest

from chronoscope.errors import InvalidSpec
from chronoscope.gravity import (
    GeoPoint,
    distance_strength_series,
    fit_gravity_exponent,
    normalized_strengths,
)
from chronoscope.metrics import modularity
from chronoscope.synth import (
    equal_groups,
    gen_gravity_graph,
    gen_partitioned_graph,
    node_names,
    synthetic_geo,
)
from oracles import brute_modularity


def fitted_exponent(snapshot, geo, window=500):
    result = normalized_strengths(snapshot, sorted(geo), geo)
    series = distance_strength_series(result.pairs, window=window)
    return fit_gravity_exponent(series).exponent


# --- distance-decay generator ---

def test_gravity_noiseless_recovery():
    geo = synthetic_geo(120, 3)
    snap = gen_gravity_graph(geo, 0.5, 0.0, seed=3)
    assert abs(fitted_exponent(snap, geo) - 0.5) <= 0.01


def test_gravity_noisy_recovery():
    geo = synthetic_geo(120, 8)
    snap = gen_gravity_graph(geo, 0.28, 0.3, seed=8)
    assert abs(fitted_exponent(snap, geo) - 0.28) <= 0.05


def test_gravity_deterministic():
    geo = synthetic_geo(40, 5)
    assert gen_gravity_graph(geo, 1.0, 0.2, seed=5) == gen_gravity_graph(geo, 1.0, 0.2, seed=5)


def test_gravity_weights_are_positive_integers():
    geo = synthetic_geo(25, 5)
    snap = gen_gravity_graph(geo, 0.5, 0.4, seed=5)
    assert all(isinstance(w, int) and w >= 1 for w in snap.edges.values())
    assert all(src != tgt for src, tgt in snap.edges)


def test_gravity_spec_validation():
    geo = synthetic_geo(10, 1)
    with pytest.raises(InvalidSpec):
        gen_gravity_graph(geo, -0.5, seed=1)
    with pytest.raises(InvalidSpec):
        gen_gravity_graph(geo, 0.5, -1, seed=1)
    with pytest.raises(InvalidSpec):
        gen_gravity_graph(synthetic_geo(1, 1), 0.5, seed=1)


def test_gravity_rejects_coincident_points():
    geo = {"a.ac.uk": GeoPoint(51.0, 0.0), "b.ac.uk": GeoPoint(51.0, 0.0)}
    with pytest.raises(InvalidSpec):
        gen_gravity_graph(geo, 0.5, seed=1)
    # two distinct points: both pairs share one distance, so no slope exists
    with pytest.raises(InvalidSpec):
        gen_gravity_graph(synthetic_geo(2, 1), 0.5, seed=1)


def test_synthetic_geo_deterministic_and_bounded():
    a = synthetic_geo(50, 9)
    b = synthetic_geo(50, 9)
    assert a == b
    assert set(a) == set(node_names(50))
    for point in a.values():
        assert 50.0 <= point.latitude <= 58.5
        assert -6.0 <= point.longitude <= 1.8
    assert synthetic_geo(50, 10) != a


# --- partitioned generator ---

def test_partitioned_separated_groups_match_oracle():
    groups = equal_groups(10, 2)
    snap = gen_partitioned_graph(groups, 1.0, 0.0, seed=2)
    # complete inside each group, empty across
    for (src, tgt) in snap.edges:
        assert groups[src] == groups[tgt]
    result = modularity(snap, groups)
    expected = brute_modularity(dict(snap.edges), groups, node_names(10))
    assert result.q == pytest.approx(expected, abs=1e-12)
    assert result.q == pytest.approx(0.5)


def test_partitioned_null_probabilities_allowed():
    groups = equal_groups(60, 5)
    snap = gen_partitioned_graph(groups, 0.2, 0.2, seed=4)
    q = modularity(snap, groups).q
    assert abs(q) < 0.1  # no planted signal to find


def test_partitioned_deterministic():
    groups = equal_groups(20, 3)
    one = gen_partitioned_graph(groups, 0.6, 0.1, seed=11)
    assert one == gen_partitioned_graph(groups, 0.6, 0.1, seed=11)
    assert one != gen_partitioned_graph(groups, 0.6, 0.1, seed=12)


def test_partitioned_spec_validation():
    groups = equal_groups(10, 2)
    with pytest.raises(InvalidSpec):
        gen_partitioned_graph(groups, 0.2, 0.5, seed=1)
    with pytest.raises(InvalidSpec):
        gen_partitioned_graph(groups, 1.5, 0.1, seed=1)


def test_equal_groups_round_robin():
    groups = equal_groups(5, 2)
    assert groups == {
        "u000.ac.uk": "g0",
        "u001.ac.uk": "g1",
        "u002.ac.uk": "g0",
        "u003.ac.uk": "g1",
        "u004.ac.uk": "g0",
    }
