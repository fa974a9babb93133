"""Ten centrality measures on a weighted directed snapshot.

The suite runs on the subgraph induced by an explicit node set (a study
typically restricts to a fixed population, e.g. the universities under
comparison) and produces, per node: in/out degree, in/out strength,
pagerank, betweenness, closeness, harmonic closeness, and HITS hub and
authority scores.

Distances for the path-based measures treat heavier edges as shorter:
``length = 1 / weight``.  Closeness and harmonic centrality use incoming
distances, so they reward being easy to reach, in line with the in-strength
and in-degree reading of prominence.

Pagerank and HITS are numpy power iterations over the snapshot's
``src``/``dst``/``weight`` edge columns: each matrix-vector product is one
``np.bincount`` of per-edge terms.

The path measures run Dijkstra from a block of sources at once in numpy,
then Brandes' accumulation over each source's tight edges, those with
``d[src] + length == d[dst]``.  Ties are still decided by that float ``==``,
a known defect that the strict xfail
``bench/test_bench.py::test_cli_betweenness_splits_exact_ties`` pins: exactly
tied sums can differ in the last bit.

Each Dijkstra step settles every row's nearest cells and relaxes their
out-edges in one of two forms, chosen by density alone, with equal results:

- on a graph with at least ``_DENSE_RELAX_DENSITY * n * n`` edges, each
  settled node's row of a dense n x n length matrix (inf where there is no
  edge) is added to its distance and min-ed into the row's tentative
  distances, one settled node per row at a time;
- otherwise each settled node's CSR edges are gathered, min-ed with the
  tentative cells and scattered back, with ``np.minimum.at`` only for the
  entries that a repeated cell overwrote.

Settled cells hold NaN among the tentative distances, which ``np.minimum``
keeps and ``np.fmin`` skips.  Brandes' successor order (a node adds its
successors' shares farthest first, ties by node, descending) is one argsort
of an int64 key per tight edge, tail first; the distance enters as the
head's settle round, which within a row is equal exactly where distances are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .bytefields import write_csv
from .errors import ConvergenceFailure, EmptyFilter
from .snapshot import YearSnapshot

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

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-12
PAGERANK_MAX_ITER = 200
HITS_TOL = 1e-12
HITS_MAX_ITER = 1000
# cells (sources x nodes, or sources x edges) per block array: 512 KB of floats
_BLOCK_CELLS = 1 << 16
# at least this many edges per cell of the n x n grid: Dijkstra relaxes dense
# rows of an n x n length matrix, at most 3x the bytes of the length column
_DENSE_RELAX_DENSITY = 1 / 3


@dataclass(frozen=True)
class CentralityTable:
    """Per-node values of the ten measures for one snapshot year."""

    year: int
    nodes: tuple[str, ...]
    values: Mapping[str, Mapping[str, float]]


def centrality_suite(snapshot: YearSnapshot, node_filter: Iterable[str]) -> CentralityTable:
    """Compute all ten measures on the induced subgraph.

    Pagerank uses damping 0.85, uniform redistribution of dangling mass,
    and stops when the L1 change drops below 1e-12 (ConvergenceFailure
    after 200 iterations).
    """
    graph = snapshot.induced(node_filter)
    if not graph.nodes:
        raise EmptyFilter("node filter is empty")
    n = len(graph.nodes)
    rows, cols = graph.src, graph.dst  # CSR order: grouped by source
    weights = graph.weight.astype(float)
    out_strength, in_strength = graph.strengths()
    pagerank = _pagerank(rows, cols, weights, out_strength)
    hub, authority = _hits(rows, cols, weights, n)

    betweenness, closeness, harmonic = _path_measures(rows, cols, 1.0 / weights, n)

    columns = (
        np.bincount(cols, minlength=n), np.bincount(rows, minlength=n), in_strength,
        out_strength, pagerank, betweenness, closeness, harmonic, hub, authority,
    )
    values = {name: dict(zip(graph.nodes, map(float, col))) for name, col in zip(MEASURES, columns)}
    return CentralityTable(graph.year, graph.nodes, values)


def _pagerank(src, dst, weight, out_strength) -> np.ndarray:
    n = len(out_strength)
    dangling = out_strength == 0
    # each edge's transition probability; a dangling node has no edges
    share = weight / out_strength[src]
    x = np.full(n, 1.0 / n)
    d = PAGERANK_DAMPING
    for _ in range(PAGERANK_MAX_ITER):
        spread = np.bincount(dst, x[src] * share, minlength=n)
        dangling_mass = x[dangling].sum()
        new = d * spread + (d * dangling_mass + (1.0 - d)) / n
        if np.abs(new - x).sum() < PAGERANK_TOL:
            return new
        x = new
    raise ConvergenceFailure(
        f"pagerank did not converge within {PAGERANK_MAX_ITER} iterations"
    )


def _hits(src, dst, weight, n: int) -> tuple[np.ndarray, np.ndarray]:
    if len(src) == 0:
        zero = np.zeros(n)
        return zero, zero.copy()
    hub = np.full(n, 1.0 / n)
    authority = np.full(n, 1.0 / n)
    for _ in range(HITS_MAX_ITER):
        new_authority = np.bincount(dst, hub[src] * weight, minlength=n)
        new_authority /= new_authority.sum()
        new_hub = np.bincount(src, weight * new_authority[dst], minlength=n)
        new_hub /= new_hub.sum()
        change = np.abs(new_hub - hub).sum() + np.abs(new_authority - authority).sum()
        hub, authority = new_hub, new_authority
        if change < HITS_TOL:
            return hub, authority
    raise ConvergenceFailure(
        f"HITS did not converge within {HITS_MAX_ITER} iterations"
    )


def _path_measures(
    src: np.ndarray, dst: np.ndarray, length: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Betweenness (Brandes), plus incoming closeness and harmonic scores.

    Edges come in CSR order.  For a block of sources, ``_distances`` settles
    every row's nearest unsettled nodes at each step; ``_dependencies`` then
    counts paths forward and dependencies back over the tight edges, a
    topological round at a time, each node adding its successors' shares
    farthest first as a heap Dijkstra would; scores sum over sources in order.
    """
    betweenness, reach_in, dist_in, harmonic = np.zeros((4, n))
    degree = np.bincount(src, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(degree)))
    matrix = None
    if len(src) >= _DENSE_RELAX_DENSITY * n * n:
        matrix = np.full((n, n), np.inf)
        matrix[src, dst] = length
    block = max(1, min(n, _BLOCK_CELLS // n))
    part = max(1, _BLOCK_CELLS // max(n, len(src)))  # rows x edges per tight mask
    for lo in range(0, n, block):
        sources = np.arange(lo, min(n, lo + block))
        dist, level = _distances(indptr, degree, dst, length, sources, matrix)
        delta = np.concatenate([
            _dependencies(dist[i : i + part], level[i : i + part], sources[i : i + part], src, dst, length, degree)
            for i in range(0, len(sources), part)
        ])
        reached = np.isfinite(dist)
        reached[np.arange(len(sources)), sources] = False
        _add_rows(reach_in, reached)
        _add_rows(dist_in, np.where(reached, dist, 0.0))
        _add_rows(harmonic, np.divide(1.0, dist, out=np.zeros_like(dist), where=reached & (dist > 0)))
        _add_rows(betweenness, np.where(reached, delta, 0.0))
    closeness = np.zeros(n)
    ok = dist_in > 0  # never for n == 1
    closeness[ok] = (reach_in[ok] / (n - 1)) * (reach_in[ok] / dist_in[ok])
    return betweenness, closeness, harmonic


def _add_rows(total: np.ndarray, rows: np.ndarray) -> None:
    """Add the rows to ``total`` in order, bitwise as a loop of ``+=`` would
    (with one column numpy would sum pairwise, but a block has at most as
    many rows as columns)."""
    total[:] = np.add.reduce(np.vstack((total, rows)), axis=0)


def _distances(indptr, degree, dst, length, sources, matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row r: distances from ``sources[r]``, by Dijkstra on all rows at once,
    and each cell's settle round: it rises with the distance, and within a
    row two rounds are equal exactly when the distances are.

    With ``matrix``, the n x n edge lengths (inf where there is no edge),
    each settled node relaxes its row of it; with None, its CSR edges.
    """
    rows, n = len(sources), len(indptr) - 1
    dist = np.full((rows, n), np.inf)
    level = np.zeros((rows, n), np.intp)
    tentative = np.full((rows, n), np.inf)  # NaN once settled: np.minimum keeps it
    tentative[np.arange(rows), sources] = 0.0
    flat = tentative.ravel()
    step, last = np.zeros(rows, np.intp), np.full(rows, -np.inf)
    # relax in batches of ~8k edges: small temporaries keep the malloc heap compact
    chunk = max(1, (_BLOCK_CELLS // 8) // max(1, int(degree.max(initial=0))))
    while np.isfinite(low := np.fmin.reduce(tentative, axis=1)).any():
        low[np.isinf(low)] = np.nan  # finished rows match nothing
        step += low > last  # a row's round rises with its distance, not per step
        last = low
        r, u = np.divmod(np.flatnonzero(tentative == low[:, None]), n)
        dist[r, u] = low[r]
        level[r, u] = step[r]
        tentative[r, u] = np.nan
        if matrix is not None:
            # a pass takes each row's k-th settled node, so its rows are unique
            occurrence = np.arange(len(r)) - np.searchsorted(r, r)
            passes = np.argsort(occurrence, kind="stable")
            for pick in np.split(passes, np.cumsum(np.bincount(occurrence))[:-1]):
                rk = r[pick]
                tentative[rk] = np.minimum(tentative[rk], low[rk, None] + matrix[u[pick]])
        else:
            for i in range(0, len(r), chunk):
                ri, count = r[i : i + chunk], degree[u[i : i + chunk]]
                first = indptr[u[i : i + chunk]] - np.cumsum(count) + count
                edge = np.repeat(first, count) + np.arange(count.sum())
                cell = np.repeat(ri * n, count) + dst[edge]
                reach = np.minimum(flat[cell], np.repeat(low[ri], count) + length[edge])
                flat[cell] = reach
                # where a cell repeats, the last write won: take the others' minimum too
                lost = flat[cell] > reach
                np.minimum.at(flat, cell[lost], reach[lost])
    return dist, level


def _dependencies(dist, level, sources, src, dst, length, degree) -> np.ndarray:
    """Row r: Brandes dependencies for ``sources[r]``; node v of row r is cell r * n + v."""
    rows, n = dist.shape
    from_dist = np.repeat(dist, degree, axis=1)
    tight = np.isfinite(from_dist) & (from_dist + length == np.take(dist, dst, axis=1))
    row, edge = np.divmod(np.flatnonzero(tight), len(dst))
    tail, head = row * n + src[edge], row * n + dst[edge]
    # each tail's successors farthest first, then by node, descending, as one
    # unique key per edge; np.bincount adds a bin's entries in array order,
    # and sorting by tail first keeps that order within every tail and head
    assert rows * n**3 < 1 << 63, "successor key overflows int64"
    order = np.argsort(tail * (n * n) - (level.ravel()[head] * n + dst[edge]))
    tail, head = tail[order], head[order]
    start = np.arange(rows) * n + sources
    sigma = np.zeros(dist.size)
    sigma[start] = 1.0
    waiting = np.bincount(head, minlength=dist.size)
    frontier = sigma > 0
    rounds = []
    while (out := frontier[tail]).any():
        v, w = tail[out], head[out]
        rounds.append((v, w))
        sigma += np.bincount(w, sigma[v], minlength=dist.size)
        waiting -= np.bincount(w, minlength=dist.size)
        frontier = np.zeros(dist.size, dtype=bool)
        frontier[w] = waiting[w] == 0
    delta = np.zeros(dist.size)
    for v, w in reversed(rounds):
        delta += np.bincount(v, sigma[v] * ((1.0 + delta[w]) / sigma[w]), minlength=dist.size)
    return delta.reshape(rows, n)


def write_centrality(table: CentralityTable, path) -> None:
    """Emit ``centrality_<year>.csv``: node plus the ten measure columns."""
    columns = [(table.values[name], int if name.endswith("degree") else repr) for name in MEASURES]
    rows = ([node, *(form(values[node]) for values, form in columns)] for node in table.nodes)
    write_csv(path, ["node", *MEASURES], rows)
