"""chronoscope: yearly hyperlink graphs from timestamped link logs.

The pipeline: raw ``time<TAB>source_url<TAB>target_url`` records are
aggregated to third-level domains, grouped into crawl sessions, and
condensed into one weighted digraph per year.  On top of the snapshots sit
second-level-domain statistics, a ten-measure centrality suite with
league-rank correlation, partition modularity, and a gravity-law fit of link
strength against geographic distance.  Synthetic generators with planted
structure stand in for real crawl data.

The package re-exports nothing: each name lives in its module
(``chronoscope.snapshot``, ``chronoscope.metrics``, ...), and the
``chronoscope`` command in :mod:`chronoscope.cli` runs the pipeline.
"""

__version__ = "0.1.0"
