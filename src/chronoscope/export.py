"""GraphML export of snapshots for network-diagram tooling."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .snapshot import YearSnapshot

# what an XML attribute value escapes, as the standard library's quoter does
_ENTITIES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"}
)


def write_graphml(
    snapshot: YearSnapshot, path, node_filter: Iterable[str] | None = None
) -> None:
    """Write the (optionally induced) snapshot as a directed GraphML graph.

    The nodes are the endpoints of the edges written: with a filter, of the
    induced edges.  Nodes and edges are emitted sorted, so equal snapshots
    produce byte-identical files.  Edge weights travel as a ``weight``
    attribute.
    """
    if node_filter is not None:
        snapshot = snapshot.induced(set(snapshot.nodes).intersection(node_filter))
    names = [quoteattr(node) for node in snapshot.nodes]
    # a mask, not np.union1d, which imports numpy.ma (about 14 ms)
    endpoint = np.zeros(len(names), bool)
    endpoint[snapshot.src] = endpoint[snapshot.dst] = True
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        fh.write('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n')
        fh.write(
            '  <key id="weight" for="edge" attr.name="weight" attr.type="long"/>\n'
        )
        fh.write(f'  <graph id="year_{snapshot.year}" edgedefault="directed">\n')
        for node in np.flatnonzero(endpoint).tolist():
            fh.write(f"    <node id={names[node]}/>\n")
        for src, tgt, weight in zip(
            snapshot.src.tolist(), snapshot.dst.tolist(), snapshot.weight.tolist()
        ):
            fh.write(
                f"    <edge source={names[src]} target={names[tgt]}>"
                f'<data key="weight">{weight}</data></edge>\n'
            )
        fh.write("  </graph>\n")
        fh.write("</graphml>\n")


def quoteattr(text: str) -> str:
    """``text`` as a quoted XML attribute value: the string that ``quoteattr``
    of the standard library's ``xml.sax`` gives, without importing
    ``xml.sax``, which loads ``urllib.request``, ``http``, ``ssl`` and
    ``email``, at every start of the command line."""
    text = text.translate(_ENTITIES)
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"{}"'.format(text.replace('"', "&quot;"))
