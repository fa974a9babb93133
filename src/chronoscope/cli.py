"""Command-line pipeline: ingest, stats, centrality, correlate, modularity,
density, gravity, synth, export.

Every command reads declared input files, writes CSV/TSV/GraphML artifacts
into ``--out-dir`` (falling back to the ``CHRONOSCOPE_OUT`` environment
variable, then the working directory), and exits 0 on success, 1 on data
errors (one machine-readable line on stderr), 2 on usage errors.  Reruns on
identical inputs produce byte-identical outputs.

The commands that read snapshot files (stats, centrality, correlate,
modularity, density, gravity, export) read their side inputs (geo,
partition, ranking, members, ``--nodes``, node pages) once, then fan the
years out over ``parallel.fork_map``: each year's file is read, filtered by
``--year`` and analysed on its own, in a ``fork`` worker when there are
cores and input enough, else in this process.  Every year is computed
before anything is written, so a failure in any year leaves no per-year
artifact; then this process writes the artifacts and prints the notes and
density lines in argv order, the same on either path.  A snapshot file that
does not exist fails the command before any snapshot is read.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import centrality as centrality_mod
from . import gravity as gravity_mod
from . import metrics as metrics_mod
from . import parallel
from . import sldstats as sldstats_mod
from .bytefields import write_rows
from .domains import default_policy, load_policy
from .errors import ChronoscopeError
from .export import write_graphml
from .ingest import (
    BEST_SESSION,
    DEFAULT_GAP_SECONDS,
    PER_PAIR_MAX,
    ingest_links,
    read_node_pages,
)
from .snapshot import read_snapshot, write_snapshot
from .synth import equal_groups, gen_gravity_graph, gen_partitioned_graph, synthetic_geo

OUT_DIR_ENV = "CHRONOSCOPE_OUT"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args)
    except ChronoscopeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronoscope",
        description="Yearly hyperlink-graph analysis of timestamped link logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out-dir",
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV} or '.')",
    )
    common.add_argument(
        "--year", type=int, default=None, help="process only this year"
    )

    policy_arg = argparse.ArgumentParser(add_help=False)
    policy_arg.add_argument(
        "--policy", default=None, help="suffix policy file (default: built-in .uk)"
    )

    p = sub.add_parser(
        "ingest",
        parents=[common, policy_arg],
        help="link-log files to yearly snapshot files",
    )
    p.add_argument("links", nargs="+", help="tab-separated link-log files")
    p.add_argument("--gap-seconds", type=_positive_int, default=DEFAULT_GAP_SECONDS)
    p.add_argument(
        "--year-select",
        choices=[PER_PAIR_MAX, BEST_SESSION],
        default=PER_PAIR_MAX,
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail on structurally malformed lines instead of counting them",
    )
    p.set_defaults(run=_cmd_ingest)

    p = sub.add_parser(
        "stats",
        parents=[common, policy_arg],
        help="per-SLD node counts, shares, links per node, and flow matrices",
    )
    p.add_argument("snapshots", nargs="+")
    p.add_argument("--node-pages", default=None)
    p.add_argument(
        "--include-self",
        action="store_true",
        help="keep same-SLD cells in the absolute flow matrix",
    )
    p.add_argument(
        "--distinct",
        action="store_true",
        help="count distinct edges instead of summed weights for links per node",
    )
    p.set_defaults(run=_cmd_stats)

    p = sub.add_parser(
        "centrality", parents=[common], help="the ten-measure centrality table"
    )
    p.add_argument("snapshots", nargs="+")
    p.add_argument("--nodes", default=None, help="node filter file (one 3LD per line)")
    p.set_defaults(run=_cmd_centrality)

    p = sub.add_parser(
        "correlate",
        parents=[common],
        help="Spearman correlation of centrality measures against a ranking",
    )
    p.add_argument("snapshots", nargs="+")
    p.add_argument("--ranking", required=True, help="domain/rank file, 1 = best")
    p.add_argument(
        "--nodes",
        default=None,
        help="node filter file (default: the ranked domains)",
    )
    p.set_defaults(run=_cmd_correlate)

    p = sub.add_parser(
        "modularity", parents=[common], help="partition modularity per snapshot"
    )
    p.add_argument("snapshots", nargs="+")
    p.add_argument("--partition", required=True, help="domain/group file")
    p.add_argument("--nodes", default=None)
    p.set_defaults(run=_cmd_modularity)

    p = sub.add_parser(
        "density", parents=[common], help="internal link density of a member set"
    )
    p.add_argument("snapshots", nargs="+")
    p.add_argument("--members", required=True, help="member list file")
    p.set_defaults(run=_cmd_density)

    p = sub.add_parser(
        "gravity",
        parents=[common],
        help="distance-decay series and exponent fit",
    )
    p.add_argument("snapshots", nargs="+")
    p.add_argument("--geo", required=True, help="domain/lat/lon file")
    p.add_argument(
        "--nodes", default=None, help="node filter file (default: the geo domains)"
    )
    p.add_argument("--window", type=_positive_int, default=gravity_mod.DEFAULT_WINDOW)
    p.add_argument("--d-min-km", type=float, default=gravity_mod.DEFAULT_D_MIN_KM)
    p.add_argument("--d-max-km", type=float, default=None)
    p.add_argument(
        "--symmetrize",
        choices=[gravity_mod.SYMMETRIZE_NONE, gravity_mod.SYMMETRIZE_MEAN],
        default=gravity_mod.SYMMETRIZE_NONE,
        help="average the two directions of each pair before fitting",
    )
    p.set_defaults(run=_cmd_gravity)

    p = sub.add_parser(
        "synth", parents=[common], help="synthetic snapshots with planted structure"
    )
    p.add_argument("--mode", choices=["gravity", "partition"], required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--n-nodes", type=_positive_int, default=200)
    p.add_argument("--planted-a", type=float, default=0.28)
    p.add_argument("--noise-scale", type=float, default=0.0)
    p.add_argument("--p-intra", type=float, default=0.2)
    p.add_argument("--p-inter", type=float, default=0.05)
    p.add_argument("--n-groups", type=int, default=5)
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser(
        "export", parents=[common], help="GraphML export of a snapshot"
    )
    p.add_argument("snapshots", nargs="+")
    p.add_argument("--nodes", default=None)
    p.set_defaults(run=_cmd_export)

    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _policy(args):
    return load_policy(args.policy) if args.policy else default_policy()


def _note(path: Path) -> None:
    print(f"wrote {path}", file=sys.stderr)


def _years(args, compute) -> list[tuple[int, object]]:
    """``(year, compute(snapshot))`` for each snapshot file of the ``--year``,
    in argv order, read and computed over ``parallel.fork_map``."""

    def one(path):
        snap = read_snapshot(path)
        if args.year is not None and snap.year != args.year:
            return None
        return snap.year, compute(snap)

    nbytes = sum(map(os.path.getsize, args.snapshots))
    return [done for done in parallel.fork_map(one, args.snapshots, nbytes) if done]


def _node_filter(args, fallback=None):
    """The ``--nodes`` list, read once per command, else ``fallback``."""
    return metrics_mod.read_node_list(args.nodes) if args.nodes else fallback


def _cmd_ingest(args) -> None:
    policy = _policy(args)
    years = [args.year] if args.year is not None else None
    result = ingest_links(
        args.links,
        policy,
        gap_seconds=args.gap_seconds,
        year_select=args.year_select,
        strict=args.strict,
        years=years,
    )
    out = _out_dir(args)
    for year, snap in sorted(result.snapshots.items()):
        path = out / f"snapshot_{year}.tsv"
        write_snapshot(snap, path)
        _note(path)
    result.summary.report()


def _cmd_stats(args) -> None:
    policy = _policy(args)
    out = _out_dir(args)
    pages = read_node_pages(args.node_pages) if args.node_pages else {}
    slds = sorted(policy.registered_slds)

    def compute(snap):
        if pages.get(snap.year):
            snap = snap.induced(set(snap.nodes).union(pages[snap.year]))
        cells = sldstats_mod.sld_cells(snap, policy)
        links = {
            sld: sldstats_mod.within_sld_links_per_node(cells, sld, distinct=args.distinct)
            for sld in slds
        }
        flows = sldstats_mod.inter_sld_flows(cells, include_self=args.include_self)
        return sldstats_mod.node_counts_by_sld(cells), links, flows

    years = _years(args, compute)
    for year, (_, _, flows) in years:
        path = out / f"flows_{year}.csv"
        sldstats_mod.write_flows(flows, path)
        _note(path)
    path = out / "sld_series.csv"
    sldstats_mod.write_sld_series([counts for _, (counts, _, _) in years], path)
    _note(path)
    path = out / "links_per_node.csv"
    sldstats_mod.write_links_per_node({year: links for year, (_, links, _) in years}, path)
    _note(path)


def _cmd_centrality(args) -> None:
    out = _out_dir(args)
    nodes = _node_filter(args)

    def compute(snap):
        return centrality_mod.centrality_suite(snap, snap.nodes if nodes is None else nodes)

    for year, table in _years(args, compute):
        path = out / f"centrality_{year}.csv"
        centrality_mod.write_centrality(table, path)
        _note(path)


def _cmd_correlate(args) -> None:
    out = _out_dir(args)
    ranking = metrics_mod.read_ranking(args.ranking)
    nodes = _node_filter(args, fallback=sorted(ranking.ranks))

    def compute(snap):
        table = centrality_mod.centrality_suite(snap, nodes)
        return metrics_mod.rank_centrality_vs_league(table, ranking)

    for year, result in _years(args, compute):
        path = out / f"correlations_{year}.csv"
        metrics_mod.write_correlations(result, path)
        _note(path)


def _cmd_modularity(args) -> None:
    out = _out_dir(args)
    partition = metrics_mod.read_partition(args.partition)
    node_filter = _node_filter(args)

    def compute(snap):
        return metrics_mod.modularity(snap, partition, node_filter)

    for year, result in _years(args, compute):
        path = out / f"modularity_{year}.csv"
        metrics_mod.write_modularity(result, path)
        _note(path)


def _cmd_density(args) -> None:
    members = metrics_mod.read_node_list(args.members)

    def compute(snap):
        return metrics_mod.group_internal_density(snap, members)

    for year, value in _years(args, compute):
        print(f"year={year} density={value!r}")


def _cmd_gravity(args) -> None:
    out = _out_dir(args)
    geo = gravity_mod.read_geo_points(args.geo)
    nodes = _node_filter(args, fallback=sorted(geo))

    def compute(snap):
        pairs = gravity_mod.normalized_strengths(snap, nodes, geo).pairs
        if args.symmetrize == gravity_mod.SYMMETRIZE_MEAN:
            pairs = gravity_mod.symmetrize_pairs(pairs)
        series = gravity_mod.distance_strength_series(
            pairs,
            window=args.window,
            d_min_km=args.d_min_km,
            d_max_km=args.d_max_km,
        )
        return pairs, series, gravity_mod.fit_gravity_exponent(series)

    for year, (pairs, series, fit) in _years(args, compute):
        series_path = out / f"gravity_series_{year}.csv"
        gravity_mod.write_gravity_series(series, series_path)
        _note(series_path)
        fit_path = out / f"gravity_fit_{year}.csv"
        gravity_mod.write_gravity_fit(fit, fit_path)
        _note(fit_path)
        links_path = out / f"geo_links_{year}.csv"
        gravity_mod.export_geo_links(pairs, geo, links_path)
        _note(links_path)


def _cmd_synth(args) -> None:
    out = _out_dir(args)
    year = args.year if args.year is not None else 2010
    if args.mode == "gravity":
        geo = synthetic_geo(args.n_nodes, args.seed)
        snap = gen_gravity_graph(geo, args.planted_a, args.noise_scale, seed=args.seed, year=year)
        side_path = out / f"geo_{year}.tsv"
        gravity_mod.write_geo_points(geo, side_path)
    else:
        groups = equal_groups(args.n_nodes, args.n_groups)
        snap = gen_partitioned_graph(groups, args.p_intra, args.p_inter, seed=args.seed, year=year)
        side_path = out / f"partition_{year}.tsv"
        write_rows(side_path, sorted(groups.items()))
    _note(side_path)
    snap_path = out / f"snapshot_{year}.tsv"
    write_snapshot(snap, snap_path)
    _note(snap_path)


def _cmd_export(args) -> None:
    out = _out_dir(args)
    node_filter = _node_filter(args)
    for year, snap in _years(args, lambda snap: snap):
        path = out / f"graph_{year}.graphml"
        write_graphml(snap, path, node_filter)
        _note(path)


if __name__ == "__main__":
    sys.exit(main())
