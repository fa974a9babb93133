"""Spans around the package functions the CLI calls, and the per-layer table.

The traced run replaces module attributes from outside (for example
``chronoscope.cli.ingest_links`` or ``chronoscope.centrality.centrality_suite``)
with wrappers that record a span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory until the run ends.  No source file
of the package is edited; because the CLI looks these names up at call
time, the wrappers see exactly the calls it makes.

A time is the busy time of a layer's spans (nested spans counted once); a
count comes from return values; ``cli.self_s`` is command time not covered
by any wrapped call.  Which end-to-end metric each layer should move:

- ``domains.*``, ``ingest.*``, ``snapshot.write_*``: ``ingest_s`` and
  ``peak_rss_mb`` on linklog; no work elsewhere.
- ``snapshot.read_*``, ``sldstats.*``, ``metrics.*``: ``analysis_s``
  everywhere (``sldstats`` on linklog and sparse_partition only).
- ``centrality.*``: ``analysis_s`` and ``wall_s`` on dense_gravity and
  sparse_partition (linklog runs none); ``suite_calls`` shows that
  dense_gravity's ``correlate`` recomputes all ten measures.
- ``gravity.*``: ``analysis_s``, mostly on dense_gravity (~n^2 pairs).
- ``synth.*``: ``ingest_s`` and ``wall_s`` on the synthetic workloads.
- ``export.*``: ``analysis_s`` on sparse_partition.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
from time import perf_counter

# (module, attribute, span name).  The span name's prefix is its layer.
WRAPS = (
    ("chronoscope.ingest", "parse_host_key", "domains.parse_host_key"),
    ("chronoscope.cli", "ingest_links", "ingest.ingest_links"),
    ("chronoscope.cli", "read_node_pages", "ingest.read_node_pages"),
    ("chronoscope.cli", "write_snapshot", "snapshot.write_snapshot"),
    ("chronoscope.cli", "read_snapshot", "snapshot.read_snapshot"),
    ("chronoscope.sldstats", "node_counts_by_sld", "sldstats.node_counts_by_sld"),
    ("chronoscope.sldstats", "within_sld_links_per_node", "sldstats.within_sld_links_per_node"),
    ("chronoscope.sldstats", "inter_sld_flows", "sldstats.inter_sld_flows"),
    ("chronoscope.sldstats", "write_flows", "sldstats.write_flows"),
    ("chronoscope.sldstats", "write_sld_series", "sldstats.write_sld_series"),
    ("chronoscope.sldstats", "write_links_per_node", "sldstats.write_links_per_node"),
    ("chronoscope.centrality", "centrality_suite", "centrality.centrality_suite"),
    ("chronoscope.centrality", "write_centrality", "centrality.write_centrality"),
    ("chronoscope.metrics", "read_node_list", "metrics.read_node_list"),
    ("chronoscope.metrics", "read_ranking", "metrics.read_ranking"),
    ("chronoscope.metrics", "read_partition", "metrics.read_partition"),
    ("chronoscope.metrics", "rank_centrality_vs_league", "metrics.rank_centrality_vs_league"),
    ("chronoscope.metrics", "write_correlations", "metrics.write_correlations"),
    ("chronoscope.metrics", "modularity", "metrics.modularity"),
    ("chronoscope.metrics", "write_modularity", "metrics.write_modularity"),
    ("chronoscope.metrics", "group_internal_density", "metrics.group_internal_density"),
    ("chronoscope.gravity", "read_geo_points", "gravity.read_geo_points"),
    ("chronoscope.gravity", "normalized_strengths", "gravity.normalized_strengths"),
    ("chronoscope.gravity", "symmetrize_pairs", "gravity.symmetrize_pairs"),
    ("chronoscope.gravity", "distance_strength_series", "gravity.distance_strength_series"),
    ("chronoscope.gravity", "fit_gravity_exponent", "gravity.fit_gravity_exponent"),
    ("chronoscope.gravity", "write_gravity_series", "gravity.write_gravity_series"),
    ("chronoscope.gravity", "write_gravity_fit", "gravity.write_gravity_fit"),
    ("chronoscope.gravity", "export_geo_links", "gravity.export_geo_links"),
    ("chronoscope.gravity", "write_geo_points", "gravity.write_geo_points"),
    ("chronoscope.cli", "synthetic_geo", "synth.synthetic_geo"),
    ("chronoscope.cli", "equal_groups", "synth.equal_groups"),
    ("chronoscope.cli", "gen_gravity_graph", "synth.gen_gravity_graph"),
    ("chronoscope.cli", "gen_partitioned_graph", "synth.gen_partitioned_graph"),
    ("chronoscope.cli", "write_graphml", "export.write_graphml"),
)


def _count_ingest(counts, result, args):
    summary = result.summary
    counts["ingest.lines"] += summary.lines
    counts["ingest.records"] += summary.records
    counts["ingest.sessions"] += summary.sessions
    counts["ingest.skipped"] += summary.skipped()


def _count_write(counts, result, args):
    counts["snapshot.bytes_written"] += os.path.getsize(args[1])


def _count_read(counts, result, args):
    counts["snapshot.edges_read"] += len(result.edges)


def _count_suite(counts, table, args):
    counts["centrality.nodes"] += len(table.nodes)
    counts["centrality.edges"] += int(sum(table.values["out_degree"].values()))


def _count_rho(counts, result, args):
    counts["metrics.rho_nan"] += sum(1 for v in result.rho.values() if math.isnan(v))
    counts["metrics.rho_attempted"] += len(result.rho)


def _count_pairs(counts, result, args):
    counts["gravity.pairs"] += len(result.pairs)


# Counts taken from return values, after the span has ended.
COUNTERS = {
    "ingest.ingest_links": _count_ingest,
    "snapshot.write_snapshot": _count_write,
    "snapshot.read_snapshot": _count_read,
    "centrality.centrality_suite": _count_suite,
    "metrics.rank_centrality_vs_league": _count_rho,
    "gravity.normalized_strengths": _count_pairs,
}
COUNT_NAMES = (
    "ingest.lines",
    "ingest.records",
    "ingest.sessions",
    "ingest.skipped",
    "snapshot.bytes_written",
    "snapshot.edges_read",
    "centrality.nodes",
    "centrality.edges",
    "metrics.rho_nan",
    "metrics.rho_attempted",
    "gravity.pairs",
)


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                counter(self.counts, result, args)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _busy(spans, names) -> float:
    """Time covered by spans with these names, nested ones counted once."""
    wanted = set(names)
    total = 0.0
    for name, start, end, parent in spans:
        if name not in wanted:
            continue
        while parent >= 0 and spans[parent][0] not in wanted:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def _entries(spans, layer: str) -> int:
    """Calls into a layer: its spans whose nearest layered ancestor is another layer."""
    prefix = layer + "."
    calls = 0
    for name, _, _, parent in spans:
        if name.startswith(prefix) and (parent < 0 or not spans[parent][0].startswith(prefix)):
            calls += 1
    return calls


def _names(spans, prefix: str) -> set[str]:
    return {s[0] for s in spans if s[0].startswith(prefix)}


def layer_metrics(spans, counts) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) derived from one traced pipeline run."""
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    cli_self = sum(
        (end - start) - children[i]
        for i, (name, start, end, parent) in enumerate(spans)
        if name.startswith("cli.")
    )
    ingest_s = _busy(spans, ["ingest.ingest_links"])
    suite_s = _busy(spans, ["centrality.centrality_suite"])

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    s, c = "s", "count"
    out = {
        "cli.self_s": (cli_self, s),
        "domains.parse_host_calls": (calls("domains.parse_host_key"), c),
        "domains.parse_host_s": (_busy(spans, ["domains.parse_host_key"]), s),
        "ingest.ingest_links_s": (ingest_s, s),
        "ingest.klines_per_s": (
            counts["ingest.lines"] / ingest_s / 1000.0 if ingest_s else 0.0,
            "klines/s",
        ),
        "ingest.lines": (counts["ingest.lines"], c),
        "ingest.records": (counts["ingest.records"], c),
        "ingest.sessions": (counts["ingest.sessions"], c),
        "ingest.skipped": (counts["ingest.skipped"], c),
        "snapshot.write_s": (_busy(spans, ["snapshot.write_snapshot"]), s),
        "snapshot.bytes_written": (counts["snapshot.bytes_written"], "B"),
        "snapshot.read_s": (_busy(spans, ["snapshot.read_snapshot"]), s),
        "snapshot.reads": (calls("snapshot.read_snapshot"), c),
        "snapshot.edges_read": (counts["snapshot.edges_read"], c),
        "sldstats.stats_s": (_busy(spans, _names(spans, "sldstats.")), s),
        "sldstats.calls": (_entries(spans, "sldstats"), c),
        "centrality.suite_s": (suite_s, s),
        "centrality.suite_calls": (calls("centrality.centrality_suite"), c),
        "centrality.nodes": (counts["centrality.nodes"], c),
        "centrality.edges": (counts["centrality.edges"], c),
        "centrality.s_per_source": (
            suite_s / counts["centrality.nodes"] if counts["centrality.nodes"] else 0.0,
            s,
        ),
        "metrics.correlate_s": (_busy(spans, ["metrics.rank_centrality_vs_league"]), s),
        "metrics.rho_nan": (counts["metrics.rho_nan"], c),
        "metrics.rho_attempted": (counts["metrics.rho_attempted"], c),
        "metrics.modularity_s": (_busy(spans, ["metrics.modularity"]), s),
        "metrics.density_s": (_busy(spans, ["metrics.group_internal_density"]), s),
        "metrics.read_inputs_s": (
            _busy(spans, ["metrics.read_node_list", "metrics.read_ranking", "metrics.read_partition"]),
            s,
        ),
        "gravity.normalize_s": (_busy(spans, ["gravity.normalized_strengths"]), s),
        "gravity.pairs": (counts["gravity.pairs"], c),
        "gravity.series_s": (_busy(spans, ["gravity.distance_strength_series"]), s),
        "gravity.fit_s": (_busy(spans, ["gravity.fit_gravity_exponent"]), s),
        "gravity.write_s": (
            _busy(
                spans,
                [
                    "gravity.write_gravity_series",
                    "gravity.write_gravity_fit",
                    "gravity.export_geo_links",
                    "gravity.write_geo_points",
                ],
            ),
            s,
        ),
        "synth.gravity_graph_s": (_busy(spans, ["synth.gen_gravity_graph"]), s),
        "synth.partition_graph_s": (_busy(spans, ["synth.gen_partitioned_graph"]), s),
        "export.graphml_s": (_busy(spans, ["export.write_graphml"]), s),
    }
    return out
