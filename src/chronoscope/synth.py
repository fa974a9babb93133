"""Deterministic synthetic snapshots with planted, recoverable structure.

Two generators stand in for the non-distributable crawl corpus at desk
scale: a distance-decay graph whose normalized strengths follow d^-a, and a
group-structured graph with chosen intra/inter link probabilities.  Each
takes only its own mode's inputs, draws its edges as arrays from a PCG64
stream seeded from ``seed``, so the same inputs reproduce the same snapshot
bit for bit, and builds the snapshot straight from those arrays with
:meth:`YearSnapshot.from_columns`.

The distance-decay generator calibrates itself: an uncorrected kernel
``w = d^-a`` does not yield normalized strengths with exponent a, because
each node's strength sums carry its geographic reach into the denominator
(border nodes see systematically longer distances, which tilts the slope;
no positive edge assignment can cancel this exactly).  The generator
therefore runs a secant search on the kernel exponent, measuring each
noiseless float kernel with the gravity module's own pair table, series and
fit, until the measured exponent matches the requested one; then it applies
the multiplicative lognormal noise and rounds to integer weights.  The
search sorts the pairs by distance once, ties in (row, col) order, and
builds each kernel's pair table in that order, which is the order the
series would sort a (source, target) table into.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np
# numpy loads its random module on first use; importing it with the package
# keeps that ~12 ms import out of the synth command's own run
from numpy.random import default_rng

from .errors import DegenerateDesign, InsufficientData, InvalidSpec, NonPositiveValue
from .gravity import (
    DEFAULT_D_MIN_KM,
    DEFAULT_WINDOW,
    GeoPoint,
    distance_strength_series,
    fit_gravity_exponent,
    haversine_km,
    pair_table,
)
from .snapshot import MAX_TOTAL_WEIGHT, YearSnapshot, name_codes, total_weight

# target for the smallest generated weight; keeps integer rounding noise
# under one percent per edge
_MIN_WEIGHT = 64.0

_CALIBRATION_TOL = 2e-4
_CALIBRATION_STEPS = 8

# the partition generator draws about this many pairs at a time
_DRAW_PAIRS = 1 << 16


def node_names(n_nodes: int) -> list[str]:
    """Stable synthetic third-level domains: u000.ac.uk, u001.ac.uk, ..."""
    return [f"u{i:03d}.ac.uk" for i in range(n_nodes)]


def equal_groups(n_nodes: int, n_groups: int) -> dict[str, str]:
    """Split the synthetic nodes round-robin into n_groups labels."""
    if n_groups < 1:
        raise InvalidSpec("need at least one group")
    return {name: f"g{i % n_groups}" for i, name in enumerate(node_names(n_nodes))}


def synthetic_geo(n_nodes: int, seed: int) -> dict[str, GeoPoint]:
    """Uniform coordinates in a Great-Britain-sized box, seeded separately
    from the edge noise so graph and geography vary independently."""
    rng = default_rng([seed, 1])
    lat = rng.uniform(50.0, 58.5, n_nodes)
    lon = rng.uniform(-6.0, 1.8, n_nodes)
    return {
        name: GeoPoint(float(lat[i]), float(lon[i]))
        for i, name in enumerate(node_names(n_nodes))
    }


# a steep kernel or wide noise overflows or underflows; the weights that
# result fail the int64 check, which names the problem once
@np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore")
def gen_gravity_graph(
    geo: Mapping[str, GeoPoint],
    planted_exponent: float,
    noise_scale: float = 0.0,
    *,
    seed: int,
    year: int = 2010,
) -> YearSnapshot:
    """Generate a snapshot over the nodes of ``geo`` whose normalized
    strengths decay as d^-a, with a = ``planted_exponent``.

    Every ordered pair of distinct nodes is linked.  The construction
    inverts the default analysis: window ``DEFAULT_WINDOW`` and pairs from
    ``DEFAULT_D_MIN_KM`` on.
    """
    if len(geo) < 2:
        raise InvalidSpec("need at least two nodes")
    if not 0 <= planted_exponent < math.inf:
        raise InvalidSpec("planted_exponent must be a finite non-negative number")
    if not 0 <= noise_scale < math.inf:
        raise InvalidSpec("noise_scale must be a finite non-negative number")
    nodes = sorted(geo)
    lat = np.array([geo[v].latitude for v in nodes])
    lon = np.array([geo[v].longitude for v in nodes])
    distances = haversine_km(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    off = ~np.eye(len(nodes), dtype=bool)
    if np.any(distances[off] == 0.0):
        raise InvalidSpec("coincident coordinates make the decay undefined")
    np.fill_diagonal(distances, 1.0)  # placeholder; diagonal never used
    pair_km = distances[off]
    # few nodes: measure all pairs when fewer than 3 reach d_min_km, and
    # shrink the window so that at least 3 series points remain
    d_min_km = DEFAULT_D_MIN_KM
    if np.count_nonzero(pair_km >= d_min_km) < 3:
        d_min_km = 0.0
    window = min(DEFAULT_WINDOW, max(1, np.count_nonzero(pair_km >= d_min_km) - 2))
    # the pairs in the order the series sorts them: by distance, ties in
    # (row, col) order; sorted once, so each series' sort meets sorted data
    by_distance = np.argsort(pair_km, kind="stable")
    pair_km, flat = pair_km[by_distance], np.flatnonzero(off)[by_distance]
    rows, cols = np.divmod(flat, len(nodes))

    target = planted_exponent

    def realized(g: float) -> float:
        kernel = distances**(-g)
        np.fill_diagonal(kernel, 0.0)
        pairs = pair_table(
            nodes, rows, cols, kernel.take(flat), kernel.sum(axis=1), kernel.sum(axis=0), pair_km
        )
        try:
            series = distance_strength_series(pairs, window=window, d_min_km=d_min_km)
            return fit_gravity_exponent(series).exponent
        except (DegenerateDesign, InsufficientData, NonPositiveValue) as exc:
            raise InvalidSpec(f"degenerate geography: {exc}") from None

    g_prev = target
    f_prev = realized(g_prev)
    g_cur = g_prev + (target - f_prev)
    for _ in range(_CALIBRATION_STEPS):
        f_cur = realized(g_cur)
        if abs(f_cur - target) < _CALIBRATION_TOL or f_cur == f_prev:
            break
        g_prev, f_prev, g_cur = (
            g_cur,
            f_cur,
            g_cur + (target - f_cur) * (g_cur - g_prev) / (f_cur - f_prev),
        )

    rng = default_rng(seed)
    weights = distances**(-g_cur)
    if noise_scale > 0:
        weights = weights * np.exp(rng.normal(0.0, noise_scale, weights.shape))
    weights = weights[off]
    # the smallest weight scales to _MIN_WEIGHT; each weight and the total
    # must fit the snapshot's int64
    smallest, largest = float(weights.min()), float(weights.max())
    if not (smallest > 0 and largest * (_MIN_WEIGHT / smallest) < 2.0**63):
        raise InvalidSpec("the planted weights cannot be scaled into int64")
    weights = np.rint(weights * (_MIN_WEIGHT / smallest)).astype(np.int64)
    if total_weight(weights) > MAX_TOTAL_WEIGHT:
        raise InvalidSpec("the planted weights cannot be scaled into int64")
    return YearSnapshot.from_columns(year, nodes, *np.nonzero(off), weights)


def gen_partitioned_graph(
    groups: Mapping[str, str],
    p_intra: float,
    p_inter: float,
    *,
    seed: int,
    year: int = 2010,
) -> YearSnapshot:
    """Directed unit-weight edges over the nodes of ``groups`` (node ->
    group label), with group-dependent probabilities.

    Every ordered pair draws independently, in the mapping's order:
    probability ``p_intra`` inside a group, ``p_inter`` across groups.
    Equal probabilities are allowed (the null case where the partition
    carries no signal).
    """
    if len(groups) < 2:
        raise InvalidSpec("need at least two nodes")
    for name, p in (("p_intra", p_intra), ("p_inter", p_inter)):
        if not 0.0 <= p <= 1.0:
            raise InvalidSpec(f"{name}={p} outside [0, 1]")
    if p_intra < p_inter:
        raise InvalidSpec("p_intra must be at least p_inter")
    _, group = name_codes(list(groups.values()))
    # blocks of whole rows, drawn in row order from one stream, so the draws
    # are those of the whole n x n matrix at once
    rng, rows = default_rng(seed), max(1, _DRAW_PAIRS // len(group))
    sources, targets = [], []
    for top in range(0, len(group), rows):
        probs = np.where(group[top : top + rows, None] == group, p_intra, p_inter)
        src, dst = np.nonzero(rng.random(probs.shape) < probs)
        src += top
        loop = src == dst
        sources.append(src[~loop])
        targets.append(dst[~loop])
    src, dst = np.concatenate(sources), np.concatenate(targets)
    return YearSnapshot.from_columns(year, list(groups), src, dst, np.ones(len(src), np.int64))
