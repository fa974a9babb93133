"""Snapshot fixtures: a ``(source, target) -> weight`` dict through the
package's one checked constructor, :meth:`YearSnapshot.from_columns`."""

import numpy as np

from chronoscope.snapshot import YearSnapshot


def snapshot_of(year, edges):
    """The snapshot of the edges ``{(source, target): weight}``; ValueError
    on a bad edge, as :meth:`YearSnapshot.from_columns` raises it."""
    names = sorted({name for pair in edges for name in pair})
    code = {name: i for i, name in enumerate(names)}
    src = np.array([code[s] for s, _ in edges], np.int64)
    dst = np.array([code[t] for _, t in edges], np.int64)
    weight = np.array(list(edges.values()), np.int64)
    return YearSnapshot.from_columns(year, names, src, dst, weight)
