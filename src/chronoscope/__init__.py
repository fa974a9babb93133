"""chronoscope: yearly hyperlink graphs from timestamped link logs.

The pipeline: raw ``time<TAB>source_url<TAB>target_url`` records are
aggregated to third-level domains, grouped into crawl sessions, and
condensed into one weighted digraph per year.  On top of the snapshots sit
second-level-domain statistics, a ten-measure centrality suite with
league-rank correlation, partition modularity, and a gravity-law fit of link
strength against geographic distance.  Synthetic generators with planted structure stand in
for real crawl data.
"""

from .domains import (
    SuffixPolicy,
    default_policy,
    load_policy,
    parse_domain_key,
    sld_label,
)
from .snapshot import YearSnapshot, read_snapshot, write_snapshot
from .ingest import ingest_links, read_node_pages
from .sldstats import (
    SldCells,
    SldFlowMatrix,
    SldYearStats,
    inter_sld_flows,
    node_counts_by_sld,
    sld_cells,
    within_sld_links_per_node,
)
from .centrality import MEASURES, CentralityTable, centrality_suite
from .metrics import (
    LeagueCorrelation,
    ModularityResult,
    RankingTable,
    group_internal_density,
    modularity,
    rank_centrality_vs_league,
    read_node_list,
    read_partition,
    read_ranking,
    spearman_rank_correlation,
)
from .gravity import (
    GeoPoint,
    GravityFit,
    PairTable,
    distance_strength_series,
    export_geo_links,
    fit_gravity_exponent,
    haversine_km,
    normalized_strengths,
    read_geo_points,
    symmetrize_pairs,
    write_geo_points,
)
from .synth import (
    equal_groups,
    gen_gravity_graph,
    gen_partitioned_graph,
    node_names,
    synthetic_geo,
)
from .export import write_graphml

__version__ = "0.1.0"

__all__ = [
    "CentralityTable",
    "GeoPoint",
    "GravityFit",
    "LeagueCorrelation",
    "MEASURES",
    "ModularityResult",
    "PairTable",
    "RankingTable",
    "SldCells",
    "SldFlowMatrix",
    "SldYearStats",
    "SuffixPolicy",
    "YearSnapshot",
    "centrality_suite",
    "default_policy",
    "distance_strength_series",
    "equal_groups",
    "export_geo_links",
    "fit_gravity_exponent",
    "gen_gravity_graph",
    "gen_partitioned_graph",
    "group_internal_density",
    "haversine_km",
    "ingest_links",
    "inter_sld_flows",
    "load_policy",
    "modularity",
    "node_counts_by_sld",
    "node_names",
    "normalized_strengths",
    "parse_domain_key",
    "rank_centrality_vs_league",
    "read_geo_points",
    "read_node_list",
    "read_node_pages",
    "read_partition",
    "read_ranking",
    "read_snapshot",
    "sld_cells",
    "sld_label",
    "spearman_rank_correlation",
    "symmetrize_pairs",
    "synthetic_geo",
    "within_sld_links_per_node",
    "write_geo_points",
    "write_graphml",
    "write_snapshot",
]
