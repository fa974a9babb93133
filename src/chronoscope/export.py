"""GraphML export of snapshots for network-diagram tooling."""

from __future__ import annotations

from typing import Iterable
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from .snapshot import YearSnapshot


def write_graphml(
    snapshot: YearSnapshot, path, node_filter: Iterable[str] | None = None
) -> None:
    """Write the (optionally induced) snapshot as a directed GraphML graph.

    With a filter, the nodes are the endpoints of the induced edges plus the
    filtered nodes that have no edge at all (node-pages-only domains).  Nodes
    and edges are emitted sorted, so equal snapshots produce byte-identical
    files.  Edge weights travel as a ``weight`` attribute.
    """
    shown = set(snapshot.nodes)
    if node_filter is not None:
        edgeless = shown - _endpoints(snapshot)
        snapshot = snapshot.induced(shown.intersection(node_filter))
        shown = _endpoints(snapshot) | edgeless.intersection(snapshot.nodes)
    nodes = snapshot.nodes
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        fh.write('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n')
        fh.write(
            '  <key id="weight" for="edge" attr.name="weight" attr.type="long"/>\n'
        )
        fh.write(f'  <graph id="year_{snapshot.year}" edgedefault="directed">\n')
        for node in nodes:
            if node in shown:
                fh.write(f"    <node id={quoteattr(node)}/>\n")
        for src, tgt, weight in zip(
            snapshot.src.tolist(), snapshot.dst.tolist(), snapshot.weight.tolist()
        ):
            fh.write(
                f"    <edge source={quoteattr(nodes[src])} target={quoteattr(nodes[tgt])}>"
                f'<data key="weight">{escape(str(weight))}</data></edge>\n'
            )
        fh.write("  </graph>\n")
        fh.write("</graphml>\n")


def _endpoints(snapshot: YearSnapshot) -> set[str]:
    return {snapshot.nodes[i] for i in np.union1d(snapshot.src, snapshot.dst).tolist()}
