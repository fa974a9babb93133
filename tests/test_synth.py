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
    SynthSpec,
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
    spec = SynthSpec(seed=3, n_nodes=120, planted_exponent=0.5, noise_scale=0.0)
    geo = synthetic_geo(spec.n_nodes, spec.seed)
    snap = gen_gravity_graph(spec, geo)
    assert abs(fitted_exponent(snap, geo) - 0.5) <= 0.01


def test_gravity_noisy_recovery():
    spec = SynthSpec(seed=8, n_nodes=120, planted_exponent=0.28, noise_scale=0.3)
    geo = synthetic_geo(spec.n_nodes, spec.seed)
    snap = gen_gravity_graph(spec, geo)
    assert abs(fitted_exponent(snap, geo) - 0.28) <= 0.05


def test_gravity_deterministic():
    spec = SynthSpec(seed=5, n_nodes=40, planted_exponent=1.0, noise_scale=0.2)
    geo = synthetic_geo(spec.n_nodes, spec.seed)
    assert gen_gravity_graph(spec, geo) == gen_gravity_graph(spec, geo)


def test_gravity_weights_are_positive_integers():
    spec = SynthSpec(seed=5, n_nodes=25, planted_exponent=0.5, noise_scale=0.4)
    geo = synthetic_geo(spec.n_nodes, spec.seed)
    snap = gen_gravity_graph(spec, geo)
    assert all(isinstance(w, int) and w >= 1 for w in snap.edges.values())
    assert all(src != tgt for src, tgt in snap.edges)


def test_gravity_accepts_larger_geo():
    spec = SynthSpec(seed=5, n_nodes=10, planted_exponent=0.5)
    geo = synthetic_geo(30, 5)
    snap = gen_gravity_graph(spec, geo)
    assert snap.nodes == tuple(sorted(geo)[:10])


def test_gravity_spec_validation():
    geo = synthetic_geo(10, 1)
    with pytest.raises(InvalidSpec):
        gen_gravity_graph(SynthSpec(seed=1, n_nodes=10), geo)  # no exponent
    with pytest.raises(InvalidSpec):
        gen_gravity_graph(
            SynthSpec(seed=1, n_nodes=10, planted_exponent=-0.5), geo
        )
    with pytest.raises(InvalidSpec):
        gen_gravity_graph(
            SynthSpec(seed=1, n_nodes=10, planted_exponent=0.5, noise_scale=-1), geo
        )
    with pytest.raises(InvalidSpec):
        gen_gravity_graph(
            SynthSpec(seed=1, n_nodes=20, planted_exponent=0.5), synthetic_geo(5, 1)
        )
    with pytest.raises(InvalidSpec):
        gen_gravity_graph(SynthSpec(seed=1, n_nodes=1, planted_exponent=0.5), geo)


def test_gravity_rejects_coincident_points():
    geo = {"a.ac.uk": GeoPoint(51.0, 0.0), "b.ac.uk": GeoPoint(51.0, 0.0)}
    with pytest.raises(InvalidSpec):
        gen_gravity_graph(SynthSpec(seed=1, n_nodes=2, planted_exponent=0.5), geo)
    # two distinct points: both pairs share one distance, so no slope exists
    with pytest.raises(InvalidSpec):
        gen_gravity_graph(
            SynthSpec(seed=1, n_nodes=2, planted_exponent=0.5), synthetic_geo(2, 1)
        )


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
    spec = SynthSpec(seed=2, n_nodes=10, groups=groups, p_intra=1.0, p_inter=0.0)
    snap = gen_partitioned_graph(spec)
    # complete inside each group, empty across
    for (src, tgt) in snap.edges:
        assert groups[src] == groups[tgt]
    result = modularity(snap, groups)
    expected = brute_modularity(dict(snap.edges), groups, node_names(10))
    assert result.q == pytest.approx(expected, abs=1e-12)
    assert result.q == pytest.approx(0.5)


def test_partitioned_null_probabilities_allowed():
    groups = equal_groups(60, 5)
    spec = SynthSpec(seed=4, n_nodes=60, groups=groups, p_intra=0.2, p_inter=0.2)
    snap = gen_partitioned_graph(spec)
    q = modularity(snap, groups).q
    assert abs(q) < 0.1  # no planted signal to find


def test_partitioned_deterministic():
    groups = equal_groups(20, 3)
    spec = SynthSpec(seed=11, n_nodes=20, groups=groups, p_intra=0.6, p_inter=0.1)
    assert gen_partitioned_graph(spec) == gen_partitioned_graph(spec)
    other = SynthSpec(seed=12, n_nodes=20, groups=groups, p_intra=0.6, p_inter=0.1)
    assert gen_partitioned_graph(spec) != gen_partitioned_graph(other)


def test_partitioned_spec_validation():
    groups = equal_groups(10, 2)
    with pytest.raises(InvalidSpec):
        gen_partitioned_graph(SynthSpec(seed=1, n_nodes=10, groups=groups))
    with pytest.raises(InvalidSpec):
        gen_partitioned_graph(
            SynthSpec(seed=1, n_nodes=10, groups=groups, p_intra=0.2, p_inter=0.5)
        )
    with pytest.raises(InvalidSpec):
        gen_partitioned_graph(
            SynthSpec(seed=1, n_nodes=10, groups=groups, p_intra=1.5, p_inter=0.1)
        )
    with pytest.raises(InvalidSpec):
        gen_partitioned_graph(
            SynthSpec(seed=1, n_nodes=12, groups=groups, p_intra=0.5, p_inter=0.1)
        )


def test_equal_groups_round_robin():
    groups = equal_groups(5, 2)
    assert groups == {
        "u000.ac.uk": "g0",
        "u001.ac.uk": "g1",
        "u002.ac.uk": "g0",
        "u003.ac.uk": "g1",
        "u004.ac.uk": "g0",
    }
