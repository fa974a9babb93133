"""Self-tests of the benchmark: seeded inputs are reproducible, and each
oracle accepts a hand-checked tiny instance and rejects a perturbed one."""

import math
from pathlib import Path

import pytest

import checks
import linklog
import tracing
import workloads
from chronoscope.cli import main as cli_main

TINY_LOG = linklog.LinklogSpec(
    seed=3,
    first_year=2003,
    last_year=2004,
    sources_per_sld=15,
    targets_per_sld=20,
    population=12,
    population_targets=4,
    self_loops=7,
    malformed_lines=6,
    malformed_urls=5,
    out_of_scope=4,
    unknown_sld=3,
)


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _write_csv(path: Path, rows) -> None:
    path.write_text("".join(",".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")


def test_linklog_generator_is_seeded(tmp_path):
    one, _ = linklog.generate(TINY_LOG)
    two, _ = linklog.generate(TINY_LOG)
    other, _ = linklog.generate(linklog.LinklogSpec(**{**TINY_LOG.__dict__, "seed": 4}))
    assert one == two
    assert one != other


@pytest.mark.parametrize("name", ["dense_gravity", "sparse_partition"])
def test_workload_inputs_are_seeded(tmp_path, name):
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        workloads.WORKLOADS[name](seed, d).prepare()
    assert _files(dirs[0]) == _files(dirs[1])
    assert _files(dirs[0]) != _files(dirs[2])


def test_ingest_oracle_accepts_the_planted_log_only(tmp_path, capsys):
    lines, planted = linklog.generate(TINY_LOG)
    assert planted.summary["lines"] == len(lines)
    log = tmp_path / "links.tsv"

    def ingest(rows, out):
        linklog.write_log(rows, log)
        capsys.readouterr()
        assert cli_main(["ingest", str(log), "--out-dir", str(out)]) == 0
        return linklog.check_ingest(out, capsys.readouterr().err, planted)

    assert ingest(lines, tmp_path / "out") == []
    # one line more: the accounting no longer matches
    problems = ingest(lines + lines[:1], tmp_path / "longer")
    assert any(p.startswith("ingest summary") for p in problems)


# s->a (2), a->t (12), s->b (3), b->t (4): both s->t paths have length 7/12
# exactly, but 1/2 + 1/12 != 1/3 + 1/4 in floating point.
TIE_EDGES = {("s", "a"): 2, ("a", "t"): 12, ("s", "b"): 3, ("b", "t"): 4}


def test_betweenness_oracle_splits_exact_ties():
    nodes = ["a", "b", "s", "t"]
    exact = checks.centrality_oracle(TIE_EDGES, nodes)["betweenness"]
    by_float = checks.centrality_oracle(TIE_EDGES, nodes, tie_rtol=0.0)["betweenness"]
    assert exact.tolist() == [0.5, 0.5, 0.0, 0.0]
    assert sorted(by_float.tolist()) == [0.0, 0.0, 0.0, 1.0]



def _cli_centrality(tmp_path, edges) -> list[str]:
    snap = tmp_path / "snapshot_2001.tsv"
    snap.write_text(linklog.snapshot_text(2001, edges), encoding="utf-8")
    assert cli_main(["centrality", str(snap), "--out-dir", str(tmp_path)]) == 0
    return checks.check_centrality(tmp_path / "centrality_2001.csv", edges, checks.nodes_of(edges))


# The two known centrality defects, kept out of the workloads because every
# benchmark command must be correct, stay visible here until they are fixed.
@pytest.mark.xfail(strict=True, reason="known defect: path ties use float ==")
def test_cli_betweenness_splits_exact_ties(tmp_path):
    edges = {(f"{s}.ac.uk", f"{t}.ac.uk"): w for (s, t), w in TIE_EDGES.items()}
    assert _cli_centrality(tmp_path, edges) == []


@pytest.mark.xfail(strict=True, reason="known defect: HITS ConvergenceFailure")
def test_cli_hits_on_two_near_equal_stars(tmp_path):
    # eigenvalues 41 and 40 of W^T W: power iteration needs ~1100 steps
    edges = {("hub0.ac.uk", f"a{i:02d}.ac.uk"): 1 for i in range(40)}
    edges.update({("hub1.ac.uk", f"b{i:02d}.ac.uk"): 1 for i in range(41)})
    assert _cli_centrality(tmp_path, edges) == []

CYCLE = {("x", "y"): 1, ("y", "z"): 1, ("z", "x"): 1}
# a directed unit 3-cycle: every measure is the same on every node
CYCLE_ROW = ["1", "1", "1.0", "1.0", repr(1 / 3), "1.0", repr(2 / 3), "1.5", repr(1 / 3), repr(1 / 3)]


def test_centrality_check_on_a_cycle(tmp_path):
    path = tmp_path / "centrality.csv"
    rows = [["node", *checks.MEASURES]] + [[v, *CYCLE_ROW] for v in "xyz"]
    _write_csv(path, rows)
    assert checks.check_centrality(path, CYCLE, ["x", "y", "z"]) == []
    rows[2][checks.MEASURES.index("pagerank") + 1] = "0.34"
    _write_csv(path, rows)
    assert checks.check_centrality(path, CYCLE, ["x", "y", "z"]) == [
        "centrality.csv: pagerank off by up to 0.00667"
    ]


def test_rho_range_covers_every_tie_order():
    lo, hi = checks.rho_range([1.0, 1.0, 2.0], [1, 2, 3])
    assert (lo, hi) == pytest.approx((0.5, 1.0))
    assert math.isnan(checks.spearman([1.0, 1.0], [1, 2]))


def test_correlation_check(tmp_path):
    path = tmp_path / "correlations.csv"
    ranking = {"x": 1, "y": 2, "z": 3}
    rows = [["measure", "rho", "n_overlap"]] + [[m, "nan", 3] for m in checks.MEASURES]
    _write_csv(path, rows)
    assert checks.check_correlations(path, CYCLE, ranking) == []
    rows[1][1] = "0.5"
    _write_csv(path, rows)
    assert len(checks.check_correlations(path, CYCLE, ranking)) == 1


def test_modularity_check(tmp_path):
    edges = {("a", "b"): 1, ("b", "a"): 1, ("c", "d"): 1, ("d", "c"): 1, ("a", "c"): 2}
    partition = {"a": "g1", "b": "g1", "c": "g2", "d": "g2"}
    # m = 6; g1: inside 2, out 4, in 2; g2: inside 2, out 2, in 4
    # Q = 4/6 - (8 + 8)/36 = 2/9
    path = tmp_path / "modularity.csv"
    rows = [["group", "internal_weight", "expected_weight", "q"],
            ["g1", 2, repr(8 / 6), repr(2 / 9)], ["g2", 2, repr(8 / 6), repr(2 / 9)]]
    _write_csv(path, rows)
    assert checks.check_modularity(path, edges, partition, "abcd") == []
    rows[1][3] = rows[2][3] = repr(2 / 9 + 1e-15)
    _write_csv(path, rows)
    assert checks.check_modularity(path, edges, partition, "abcd") != []


def test_stats_and_density_oracles(tmp_path, capsys):
    edges = {("a.ac.uk", "b.ac.uk"): 3, ("b.ac.uk", "c.co.uk"): 1, ("c.co.uk", "d.example.com"): 2}
    members = ["a.ac.uk", "b.ac.uk", "c.co.uk"]
    files = checks.expected_stats({2001: edges})
    assert files["sld_series.csv"] == (
        "year,sld,node_count,share\n2001,ac.uk,2,0.5\n2001,co.uk,1,0.25\n2001,other,1,0.25\n"
    )
    assert files["flows_2001.csv"] == (
        "source_sld,target_sld,absolute,normalized\n"
        "ac.uk,ac.uk,,1.5\nac.uk,co.uk,1,1.0\nco.uk,other,2,2.0\n"
    )
    assert files["links_per_node.csv"].splitlines()[1:3] == ["2001,ac.uk,1.5", "2001,co.uk,0.0"]
    assert checks.density_line(edges, 2001, members) == f"year=2001 density={2 / 6!r}\n"

    # the CLI's own output passes both checks; a perturbed graph fails them
    out, snap, member_file = tmp_path / "out", tmp_path / "snapshot_2001.tsv", tmp_path / "m.txt"
    snap.write_text(linklog.snapshot_text(2001, edges), encoding="utf-8")
    member_file.write_text("".join(f"{v}\n" for v in members), encoding="utf-8")
    assert cli_main(["stats", str(snap), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["density", str(snap), "--members", str(member_file)]) == 0
    printed = capsys.readouterr().out
    assert workloads._compare_files(out, files) == []
    assert printed == checks.density_line(edges, 2001, members)
    heavier = {**edges, ("a.ac.uk", "b.ac.uk"): 4}
    assert workloads._compare_files(out, checks.expected_stats({2001: heavier})) != []
    fewer = {k: w for k, w in edges.items() if k != ("b.ac.uk", "c.co.uk")}
    assert printed != checks.density_line(fewer, 2001, members)


def test_sphere_distance():
    assert checks.sphere_km((0.0, 0.0), (0.0, 1.0)) == pytest.approx(
        2 * math.pi * checks.EARTH_RADIUS_KM / 360, rel=1e-12
    )
    assert checks.sphere_km((51.0, -1.0), (52.0, 0.5)) == checks.sphere_km((52.0, 0.5), (51.0, -1.0))


def test_gravity_and_export_checks_on_a_small_synth(tmp_path):
    out = tmp_path / "out"
    args = ["--out-dir", str(out)]
    assert cli_main(["synth", "--mode", "gravity", "--n-nodes", "40", "--seed", "2", *args]) == 0
    snap, geo = str(out / "snapshot_2010.tsv"), out / "geo_2010.tsv"
    assert cli_main(["gravity", snap, "--geo", str(geo), *args]) == 0
    assert cli_main(["export", snap, *args]) == 0
    _, edges = checks.read_snapshot_file(snap)
    coords = checks.read_geo(geo)
    assert checks.check_gravity(out, 2010, edges, coords, 0.28, 0.05) == []
    assert checks.check_graphml(out / "graph_2010.graphml", edges) == []
    # a tampered weight changes sigma for its pair and the sums it enters
    tampered = dict(edges)
    tampered[next(iter(tampered))] += 1
    assert checks.check_gravity(out, 2010, tampered, coords) != []
    assert checks.check_graphml(out / "graph_2010.graphml", tampered) != []


def test_layer_metrics_from_spans():
    spans = [
        ["cli.correlate", 0.0, 10.0, -1],
        ["snapshot.read_snapshot", 1.0, 2.0, 0],
        ["sldstats.inter_sld_flows", 2.0, 5.0, 0],
        ["sldstats.node_counts_by_sld", 3.0, 4.0, 2],
        ["centrality.centrality_suite", 5.0, 9.0, 0],
    ]
    counts = dict.fromkeys(tracing.COUNT_NAMES, 0)
    counts["centrality.nodes"] = 8
    table = tracing.layer_metrics(spans, counts)
    assert table["cli.self_s"] == (2.0, "s")
    assert table["sldstats.stats_s"] == (3.0, "s")
    assert table["sldstats.calls"] == (1, "count")
    assert table["centrality.s_per_source"] == (0.5, "s")
    assert table["snapshot.reads"] == (1, "count")


def test_tracer_wraps_and_restores():
    import chronoscope.cli as cli

    original = cli.read_snapshot
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.read_snapshot is not original
    finally:
        tracer.uninstall()
    assert cli.read_snapshot is original


def test_declared_metrics_exist_with_their_units():
    import json

    import run

    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    computed = tracing.layer_metrics([], dict.fromkeys(tracing.COUNT_NAMES, 0))
    computed["trace.overhead_s"] = (0.0, "s")
    for metric in spec["per_layer"]:
        assert computed[metric["name"]][1] == metric["unit"]
