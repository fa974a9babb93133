import concurrent.futures
import datetime
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chronoscope
from chronoscope import parallel
from chronoscope.cli import _build_parser, main
from pools import CountingPool, RecordingPool


def utc(year, month=1, day=1):
    ts = datetime.datetime(year, month, day, tzinfo=datetime.timezone.utc)
    return int(ts.timestamp())


def run(*argv):
    return main([str(a) for a in argv])


def _child_env(**extra):
    """This environment, with the package importable in a child process."""
    src = str(Path(chronoscope.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.fixture()
def linkfile(tmp_path):
    base = utc(1996, 6)
    rows = [
        f"{base}\thttp://ox.ac.uk/a\thttp://cam.ac.uk/b",
        f"{base + 100}\thttp://ox.ac.uk/c\thttp://cam.ac.uk/d",
        f"{base}\thttp://ox.ac.uk/x\thttp://ox.ac.uk/y",
        f"{base + 50}\thttp://cam.ac.uk/e\thttp://ox.ac.uk/f",
    ]
    path = tmp_path / "links.tsv"
    path.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def test_ingest_small_file(tmp_path, linkfile, capsys):
    out = tmp_path / "out"
    assert run("ingest", linkfile, "--out-dir", out) == 0
    snap = out / "snapshot_1996.tsv"
    text = snap.read_text()
    assert text.splitlines()[0] == "#snapshot v1 year=1996"
    assert "ox.ac.uk\tcam.ac.uk\t2" in text
    err = capsys.readouterr().err
    assert "self_loops=1" in err


def test_ingest_rerun_is_byte_identical(tmp_path, linkfile):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run("ingest", linkfile, "--out-dir", out1) == 0
    assert run("ingest", linkfile, "--out-dir", out2) == 0
    assert (out1 / "snapshot_1996.tsv").read_bytes() == (
        out2 / "snapshot_1996.tsv"
    ).read_bytes()


def test_ingest_best_session(tmp_path):
    base = utc(2004, 3)
    rows = [f"{base + t}\thttp://ox.ac.uk/\thttp://cam.ac.uk/" for t in range(3)]
    rows += [f"{base + 3}\thttp://ox.ac.uk/\thttp://ic.ac.uk/"]
    rows += [f"{base + 9000 + t}\thttp://ox.ac.uk/\thttp://ic.ac.uk/" for t in range(3)]
    path = tmp_path / "links.tsv"
    path.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    best, most = tmp_path / "best", tmp_path / "most"
    assert run("ingest", path, "--year-select", "best-session", "--out-dir", best) == 0
    assert run("ingest", path, "--out-dir", most) == 0
    # the first session (total 4) wins as a block over the second (total 3)
    assert (best / "snapshot_2004.tsv").read_text() == (
        "#snapshot v1 year=2004\nox.ac.uk\tcam.ac.uk\t3\nox.ac.uk\tic.ac.uk\t1\n"
    )
    assert (most / "snapshot_2004.tsv").read_text() == (
        "#snapshot v1 year=2004\nox.ac.uk\tcam.ac.uk\t3\nox.ac.uk\tic.ac.uk\t3\n"
    )


def test_stats_on_empty_snapshot(tmp_path):
    snap = tmp_path / "snapshot_2001.tsv"
    snap.write_text("#snapshot v1 year=2001\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("stats", snap, "--out-dir", out) == 0
    assert (out / "sld_series.csv").read_text() == "year,sld,node_count,share\n"
    assert (
        out / "flows_2001.csv"
    ).read_text() == "source_sld,target_sld,absolute,normalized\n"
    lines = (out / "links_per_node.csv").read_text().splitlines()
    assert lines[0] == "year,sld,links_per_node"
    assert len(lines) == 5  # one row per registered SLD


def test_stats_pipeline(tmp_path, linkfile):
    out = tmp_path / "out"
    assert run("ingest", linkfile, "--out-dir", out) == 0
    assert run("stats", out / "snapshot_1996.tsv", "--out-dir", out) == 0
    series = (out / "sld_series.csv").read_text().splitlines()
    assert "1996,ac.uk,2,1.0" in series


def test_stats_counts_node_pages_of_the_snapshot_year(tmp_path):
    snap = tmp_path / "snapshot_2001.tsv"
    snap.write_text(
        "#snapshot v1 year=2001\n"
        "a.ac.uk\tb.ac.uk\t3\na.ac.uk\tc.co.uk\t2\nb.ac.uk\ta.ac.uk\t1\n",
        encoding="utf-8",
    )
    pages = tmp_path / "pages.tsv"
    # d.ac.uk has pages but no links; e.co.uk belongs to another year
    pages.write_text("2001\td.ac.uk\t7\n2001\ta.ac.uk\t5\n2002\te.co.uk\t9\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("stats", snap, "--node-pages", pages, "--out-dir", out) == 0
    assert (out / "sld_series.csv").read_text().splitlines() == [
        "year,sld,node_count,share",
        "2001,ac.uk,3,0.75",
        "2001,co.uk,1,0.25",
    ]
    # ac.uk's within-SLD weight 3 + 1 over its three nodes, not two
    lines = (out / "links_per_node.csv").read_text().splitlines()
    assert lines[1:3] == ["2001,ac.uk,1.3333333333333333", "2001,co.uk,0.0"]


def test_synth_gravity_roundtrip(tmp_path):
    out = tmp_path / "out"
    assert (
        run(
            "synth", "--mode", "gravity", "--seed", 3, "--n-nodes", 80,
            "--planted-a", "0.3", "--noise-scale", "0.1",
            "--year", 2005, "--out-dir", out,
        )
        == 0
    )
    assert (
        run(
            "gravity", out / "snapshot_2005.tsv", "--geo", out / "geo_2005.tsv",
            "--window", 200, "--out-dir", out,
        )
        == 0
    )
    fit_lines = (out / "gravity_fit_2005.csv").read_text().splitlines()
    assert fit_lines[0] == "a,std_error,n_points,window,d_min"
    a = float(fit_lines[1].split(",")[0])
    assert 0.25 <= a <= 0.35
    series_lines = (out / "gravity_series_2005.csv").read_text().splitlines()
    assert series_lines[0] == "mean_d_km,mean_sigma"
    assert len(series_lines) > 10
    links_lines = (out / "geo_links_2005.csv").read_text().splitlines()
    assert len(links_lines) == 1 + 80 * 79


def test_synth_partition_modularity_density(tmp_path):
    out = tmp_path / "out"
    assert (
        run(
            "synth", "--mode", "partition", "--seed", 7, "--n-nodes", 40,
            "--n-groups", 4, "--p-intra", "0.9", "--p-inter", "0.05",
            "--out-dir", out,
        )
        == 0
    )
    snap = out / "snapshot_2010.tsv"
    assert (
        run(
            "modularity", snap, "--partition", out / "partition_2010.tsv",
            "--out-dir", out,
        )
        == 0
    )
    lines = (out / "modularity_2010.csv").read_text().splitlines()
    assert lines[0] == "group,internal_weight,expected_weight,q"
    q = float(lines[1].split(",")[3])
    assert q > 0.3  # strong planted structure

    members = out / "members.txt"
    members.write_text("".join(f"u{i:03d}.ac.uk\n" for i in range(0, 40, 4)))
    assert run("density", snap, "--members", members) == 0


def test_density_prints_value(tmp_path, capsys):
    snap = tmp_path / "snapshot_2010.tsv"
    snap.write_text(
        "#snapshot v1 year=2010\n"
        "a.ac.uk\tb.ac.uk\t5\n"
        "b.ac.uk\ta.ac.uk\t1\n",
        encoding="utf-8",
    )
    members = tmp_path / "members.txt"
    members.write_text("a.ac.uk\nb.ac.uk\n")
    assert run("density", snap, "--members", members) == 0
    out = capsys.readouterr().out
    assert "year=2010 density=1.0" in out


def test_centrality_and_correlate(tmp_path):
    snap = tmp_path / "snapshot_2010.tsv"
    snap.write_text(
        "#snapshot v1 year=2010\n"
        "a.ac.uk\tb.ac.uk\t5\n"
        "b.ac.uk\tc.ac.uk\t2\n"
        "c.ac.uk\ta.ac.uk\t1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run("centrality", snap, "--out-dir", out) == 0
    lines = (out / "centrality_2010.csv").read_text().splitlines()
    assert lines[0].startswith("node,in_degree,")
    assert len(lines) == 4

    ranking = tmp_path / "league.tsv"
    ranking.write_text("a.ac.uk\t1\nb.ac.uk\t2\nc.ac.uk\t3\n")
    assert run("correlate", snap, "--ranking", ranking, "--out-dir", out) == 0
    lines = (out / "correlations_2010.csv").read_text().splitlines()
    assert lines[0] == "measure,rho,n_overlap"
    assert all(line.endswith(",3") for line in lines[1:])


def test_export_graphml(tmp_path):
    snap = tmp_path / "snapshot_2010.tsv"
    snap.write_text(
        "#snapshot v1 year=2010\na.ac.uk\tb.ac.uk\t5\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    assert run("export", snap, "--out-dir", out) == 0
    text = (out / "graph_2010.graphml").read_text()
    assert '<graph id="year_2010" edgedefault="directed">' in text
    assert '<edge source="a.ac.uk" target="b.ac.uk">' in text
    assert '<data key="weight">5</data>' in text


SIDE_INPUTS = {
    "nodes.txt": "a.ac.uk\nb.ac.uk\nc.ac.uk\nd.ac.uk\n",
    "league.tsv": "a.ac.uk\t1\nb.ac.uk\t2\nc.ac.uk\t3\nd.ac.uk\t4\n",
    "groups.tsv": "a.ac.uk\tg\nb.ac.uk\tg\nc.ac.uk\th\nd.ac.uk\th\n",
    "geo.tsv": (
        "a.ac.uk\t51.75\t-1.25\nb.ac.uk\t52.2\t0.12\n"
        "c.ac.uk\t53.4\t-2.2\nd.ac.uk\t55.95\t-3.19\n"
    ),
    "pages.tsv": "2009\tf.co.uk\t4\n2010\ta.ac.uk\t2\n",
}


def _snapshot_set(tmp_path, years=(2008, 2009, 2010)):
    """One snapshot file per year, each with other weights, plus every side
    input of the snapshot-reading commands."""
    for name, text in SIDE_INPUTS.items():
        (tmp_path / name).write_text(text)
    snaps = []
    for k, year in enumerate(years):
        path = tmp_path / f"snapshot_{year}.tsv"
        path.write_text(
            f"#snapshot v1 year={year}\n"
            f"a.ac.uk\tb.ac.uk\t{5 + k}\na.ac.uk\tc.ac.uk\t1\na.ac.uk\te.co.uk\t{1 + k}\n"
            f"b.ac.uk\tc.ac.uk\t2\nb.ac.uk\td.ac.uk\t{3 * k + 1}\n"
            f"c.ac.uk\ta.ac.uk\t{2 + k}\nd.ac.uk\ta.ac.uk\t4\ne.co.uk\tb.ac.uk\t1\n"
        )
        snaps.append(path)
    return snaps


def _options(tmp_path):
    """Each snapshot-reading command's options over ``_snapshot_set``'s inputs."""
    nodes = ["--nodes", tmp_path / "nodes.txt"]
    return {
        "stats": ["--node-pages", tmp_path / "pages.tsv"],
        "centrality": nodes,
        "correlate": ["--ranking", tmp_path / "league.tsv", *nodes],
        "modularity": ["--partition", tmp_path / "groups.tsv", *nodes],
        "density": ["--members", tmp_path / "nodes.txt"],
        "gravity": ["--geo", tmp_path / "geo.tsv", "--window", 1, *nodes],
        "export": nodes,
    }


SNAPSHOT_COMMANDS = ["stats", "centrality", "correlate", "modularity", "density", "gravity", "export"]


def _cores(mp, cores, floor=1):
    """Let ``fork_map`` see ``cores`` usable cores and start a worker per
    ``floor`` bytes of input."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    mp.setattr(parallel, "MIN_WORKER_BYTES", floor)


def _outcome(capsys, argv, out):
    """Exit code, stdout, stderr and the files written into ``out``."""
    code = run(*argv, "--out-dir", out)
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, captured.out, captured.err.replace(str(out), "<out>"), files


def test_input_files_read_once_per_command(tmp_path, monkeypatch):
    # each side input is read once, in this process, also when the years
    # run in fork workers: a worker's read would log another pid
    snaps = _snapshot_set(tmp_path, years=(2009, 2010))
    log = tmp_path / "reads.log"
    readers = [
        (chronoscope.metrics, "read_node_list"),
        (chronoscope.metrics, "read_ranking"),
        (chronoscope.metrics, "read_partition"),
        (chronoscope.gravity, "read_geo_points"),
        (chronoscope.cli, "read_node_pages"),
    ]
    for module, name in readers:
        original = getattr(module, name)

        def counted(path, _original=original):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {Path(path).name}\n")
            return _original(path)

        monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        for command, options in _options(tmp_path).items():
            log.write_text("")
            CountingPool.built = []
            assert run(command, *snaps, *options, "--out-dir", tmp_path / "out") == 0
            assert CountingPool.built == ([] if cores == 1 else [2])
            reads = [line.split() for line in log.read_text().splitlines()]
            names = [name for _, name in reads]
            assert names and len(names) == len(set(names)), (cores, command, reads)
            assert {pid for pid, _ in reads} == {str(os.getpid())}, (cores, command, reads)


@pytest.mark.parametrize("command", SNAPSHOT_COMMANDS)
def test_pool_path_equals_in_process_path(tmp_path, capsys, command):
    snaps = _snapshot_set(tmp_path)
    argv = [command, *snaps, *_options(tmp_path)[command]]
    outcomes = []
    for cores in (1, 2):
        CountingPool.built = []
        with pytest.MonkeyPatch.context() as mp:
            _cores(mp, cores)
            mp.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
            outcomes.append(_outcome(capsys, argv, tmp_path / f"out{cores}"))
        assert CountingPool.built == ([] if cores == 1 else [2])
    assert outcomes[0] == outcomes[1]
    code, stdout, err, files = outcomes[0]
    assert code == 0
    if command == "density":
        assert stdout.count("density=") == 3
    else:
        assert len(files) >= 3 and err.count("wrote ") == len(files)


@pytest.mark.parametrize("command", SNAPSHOT_COMMANDS)
def test_bad_year_writes_nothing_on_either_path(tmp_path, capsys, command):
    snaps = _snapshot_set(tmp_path)
    snaps[1].write_text("#snapshot v1 year=2009\na.ac.uk\tb.ac.uk\t0\n")
    argv = [command, *snaps, *_options(tmp_path)[command]]
    for cores in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            _cores(mp, cores)
            assert _outcome(capsys, argv, tmp_path / f"out{cores}") == (
                1,
                "",
                f"error: SnapshotFormatError: {snaps[1]}:2: invalid edge record\n",
                {},
            )


@pytest.mark.parametrize(
    "command, name, kind",
    [
        ("stats", "snapshot_2010.tsv", "SnapshotFormatError"),
        ("stats", "pages.tsv", "MalformedLine"),
        ("stats", "my.policy", "PolicyFileError"),
        ("centrality", "nodes.txt", "MalformedLine"),
        ("correlate", "league.tsv", "MalformedLine"),
        ("modularity", "groups.tsv", "MalformedLine"),
        ("gravity", "geo.tsv", "MalformedLine"),
    ],
)
def test_invalid_utf8_input_is_one_error_line(tmp_path, capsys, command, name, kind):
    # line 2 of one input, after a \r\n break, starts with a Latin-1 byte
    snaps = _snapshot_set(tmp_path)
    policy = tmp_path / "my.policy"
    policy.write_text("uk\nac.uk\nco.uk\n")
    path = tmp_path / name
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\r\n\xe9" + rest)
    argv = [command, *snaps, *_options(tmp_path)[command], "--out-dir", tmp_path / "out"]
    if name == "my.policy":
        argv += ["--policy", policy]
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {kind}: {path}:2: invalid UTF-8\n"


@pytest.mark.parametrize(
    "cores, files, floor, workers",
    [(1, 3, 1, 0), (2, 1, 1, 0), (2, 3, 1, 2), (3, 2, 1, 2), (5, 3, 1, 3), (2, 3, 1 << 30, 0)],
)
def test_years_use_one_worker_per_core_and_file_at_most(tmp_path, cores, files, floor, workers):
    snaps = _snapshot_set(tmp_path)[:files]
    RecordingPool.built = []
    with pytest.MonkeyPatch.context() as mp:
        _cores(mp, cores, floor)
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert run("centrality", *snaps, "--out-dir", tmp_path / "out") == 0
    assert RecordingPool.built == ([workers] if workers else [])


def test_year_filter_skips_other_years(tmp_path, linkfile):
    out = tmp_path / "out"
    assert run("ingest", linkfile, "--out-dir", out, "--year", 2000) == 0
    snap = out / "snapshot_2000.tsv"
    assert snap.exists()  # requested year exists even when empty
    assert not (out / "snapshot_1996.tsv").exists()
    assert run("stats", snap, "--out-dir", out, "--year", 1999) == 0
    assert not (out / "flows_2000.csv").exists()


def test_data_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "snapshot_2010.tsv"
    bad.write_text("#not a snapshot\n", encoding="utf-8")
    assert run("stats", bad, "--out-dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SnapshotFormatError:")


def test_missing_file_exit_code(tmp_path, capsys):
    assert run("stats", tmp_path / "nope.tsv", "--out-dir", tmp_path) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        run("gravity")  # missing required inputs
    assert excinfo.value.code == 2


# numbers that int() or float() reads but the rules of the data fields do
# not: padded, signed, with "_", other digits
LOOSE_NUMBERS = [" 5", "+5", "1_0", "\u0665", "\uff11\uff12"]


@pytest.mark.parametrize("gap", ["0", "-5", "ten", *LOOSE_NUMBERS])
def test_ingest_rejects_non_positive_gap(linkfile, gap, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("ingest", linkfile, "--gap-seconds", gap)
    assert excinfo.value.code == 2
    assert "--gap-seconds" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["0", "-3", "ten", *LOOSE_NUMBERS])
def test_gravity_rejects_non_positive_window(tmp_path, window, capsys):
    snap = _snapshot_set(tmp_path)[0]
    with pytest.raises(SystemExit) as excinfo:
        run("gravity", snap, "--geo", tmp_path / "geo.tsv", "--window", window)
    assert excinfo.value.code == 2
    assert "--window" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--d-min-km", "--d-max-km"])
@pytest.mark.parametrize("bound", ["nan", "-NaN", "ten", *LOOSE_NUMBERS])
def test_gravity_rejects_a_distance_bound_that_is_not_a_number(tmp_path, option, bound, capsys):
    # a NaN bound would drop every pair; it is a usage error, not a data one
    snap = _snapshot_set(tmp_path)[0]
    with pytest.raises(SystemExit) as excinfo:
        run("gravity", snap, "--geo", tmp_path / "geo.tsv", f"{option}={bound}")
    assert excinfo.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", *LOOSE_NUMBERS])
def test_year_is_an_integer_field(tmp_path, capsys, value):
    # synth wrote a header of year=-5 before, which the reader now refuses
    out = tmp_path / "out"
    for argv in (["synth", "--mode", "partition"], ["stats", tmp_path / "snapshot_2010.tsv"]):
        with pytest.raises(SystemExit) as excinfo:
            run(*argv, "--year", value, "--out-dir", out)
        assert excinfo.value.code == 2
        assert "--year" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["gravity", "s", "--geo", "g"], ["synth", "--mode", "gravity"]], ids=["gravity", "synth"]
)
@pytest.mark.parametrize("value", ["inf", "-inf", "1e-05", "-0.0", "1e+20", "5e-324"])
def test_float_flags_take_every_float_repr(argv, value):
    options = ["--d-min-km", "--d-max-km"] if argv[0] == "gravity" else ["--planted-a", "--noise-scale"]
    for option in options:
        parsed = _build_parser().parse_args([*argv, f"{option}={value}"])
        assert repr(getattr(parsed, option[2:].replace("-", "_"))) == value


def test_gravity_infinite_distance_bounds_are_no_bounds(tmp_path):
    # a floor of -inf and a cap of inf keep every pair, as a floor of 0 does
    snap = _snapshot_set(tmp_path)[-1]
    written = []
    for k, bounds in enumerate([["--d-min-km", 0], ["--d-min-km=-inf", "--d-max-km", "inf"]]):
        out = tmp_path / f"out{k}"
        assert run("gravity", snap, *_options(tmp_path)["gravity"], *bounds, "--out-dir", out) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir() if "fit" not in p.name})
    assert written[0] == written[1] and len(written[0]) == 2


def test_out_dir_env_fallback(tmp_path, linkfile, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("CHRONOSCOPE_OUT", str(env_out))
    assert run("ingest", linkfile) == 0
    assert (env_out / "snapshot_1996.tsv").exists()


def test_custom_policy_file(tmp_path, capsys):
    base = utc(2002)
    links = tmp_path / "links.tsv"
    links.write_text(
        f"{base}\thttp://a.sch.uk/\thttp://b.sch.uk/\n", encoding="utf-8"
    )
    policy = tmp_path / "my.policy"
    policy.write_text("uk\nsch.uk\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("ingest", links, "--policy", policy, "--out-dir", out) == 0
    assert "a.sch.uk\tb.sch.uk\t1" in (out / "snapshot_2002.tsv").read_text()


def test_cli_import_loads_no_sparse_graph_or_linalg():
    # the runtime needs numpy alone: importing scipy costs every command about
    # 0.2 s of start-up and 14 MB of resident memory; parallel.fork_map
    # imports multiprocessing and concurrent.futures only when it starts
    # workers; xml.sax.saxutils would load urllib.request, http, ssl and email
    unneeded = (
        "scipy", "multiprocessing", "concurrent", "xml", "urllib.request", "http", "ssl", "email"
    )
    code = (
        "import sys, chronoscope.cli; print(sorted(m for m in sys.modules"
        f" if any(m == p or m.startswith(p + '.') for p in {unneeded!r})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "option, value",
    [
        ("--planted-a", "nan"),
        ("--planted-a", "inf"),
        ("--planted-a", "200"),
        ("--noise-scale", "inf"),
        ("--noise-scale", "1000"),
        ("--noise-scale", "nan"),
        # each weight fits int64 but their total does not
        ("--noise-scale", "5.4"),
    ],
)
def test_synth_gravity_rejects_unusable_parameters(tmp_path, capsys, option, value):
    out = tmp_path / "out"
    code = run("synth", "--mode", "gravity", "--n-nodes", 40, option, value, "--out-dir", out)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: InvalidSpec: ")
    assert not (out / "snapshot_2010.tsv").exists()


@pytest.mark.parametrize("mode", ["gravity", "partition"])
@pytest.mark.parametrize("n_nodes", ["-1", "0", "ten"])
def test_synth_rejects_non_positive_node_count(tmp_path, capsys, mode, n_nodes):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        run("synth", "--mode", mode, "--n-nodes", n_nodes, "--out-dir", out)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--n-nodes" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["gravity", "partition"])
@pytest.mark.parametrize(
    "option, value",
    [("--seed", "-1"), ("--seed", "ten"), ("--seed", str(2**63)), ("--n-groups", "0"), ("--n-groups", "-2")]
    + [(option, value) for option in ("--seed", "--n-groups") for value in LOOSE_NUMBERS],
)
def test_synth_rejects_bad_seed_and_group_count(tmp_path, capsys, mode, option, value):
    # a usage error, before numpy sees a negative seed or equal_groups a
    # group count below 1
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        run("synth", "--mode", mode, option, value, "--out-dir", out)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: chronoscope synth")
    assert option in err and "Traceback" not in err
    assert not out.exists()


# sha256 of each synth artifact, which a seed must reproduce bit for bit;
# above 1000 nodes the generated names leave sorted order (u1000.ac.uk sorts
# before u101.ac.uk), and zero probabilities give a snapshot without edges
SYNTH_DIGESTS = [
    (
        ["--mode", "gravity", "--seed", "3", "--n-nodes", "40", "--noise-scale", "0.3"],
        {
            "geo_2010.tsv": "55f62ea6414ce464bbe5b31995d615523bed61d18d1df7d0ba99ce9bac7cc7c6",
            "snapshot_2010.tsv": "1523fb500b3b028ebca7ad6bd3866606d78d09b4181322fb24fa6ceb0259bffd",
        },
    ),
    (
        ["--mode", "partition", "--seed", "4", "--n-nodes", "1100", "--n-groups", "9",
         "--p-intra", "0.02", "--p-inter", "0.001"],
        {
            "partition_2010.tsv": "21d6588bdbb920db6d80fe1aec3bb3457a4f3ccb77b2cad600715b63e3f3ab0b",
            "snapshot_2010.tsv": "13e1e87a93802b0c055754e1530bd85616823971b3f90023da0e9ee708489a01",
        },
    ),
    (
        ["--mode", "partition", "--seed", "2", "--n-nodes", "30", "--p-intra", "0",
         "--p-inter", "0"],
        {
            "partition_2010.tsv": "d5faaa838f64da9eb650cab8415a25d2a762df7426855ee2316322eb867d9374",
            "snapshot_2010.tsv": "59c18abbdd260eecf99ebe78ef21339883261c873a19f316e19136b31f7646f1",
        },
    ),
]


@pytest.mark.parametrize("options, digests", SYNTH_DIGESTS, ids=["gravity", "partition", "empty"])
def test_synth_artifacts_keep_their_digests(tmp_path, options, digests):
    assert run("synth", *options, "--out-dir", tmp_path) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == digests


def test_gravity_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # 250 nodes give 62,250 pairs: a threaded BLAS dot would split its sums
    # of products over the threads and move the fit's last bits
    outs = {threads: tmp_path / f"threads_{threads}" for threads in ("1", "2")}
    for threads, out in outs.items():
        for argv in (
            ["synth", "--mode", "gravity", "--seed", "77", "--n-nodes", "250",
             "--noise-scale", "0.5", "--out-dir", str(out)],
            ["gravity", str(out / "snapshot_2010.tsv"), "--geo", str(out / "geo_2010.tsv"),
             "--out-dir", str(out)],
        ):
            subprocess.run(
                [sys.executable, "-m", "chronoscope.cli", *argv],
                env=_child_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, check=True,
            )
    names = sorted(path.name for path in outs["1"].iterdir())
    assert len(names) == 5
    for name in names:
        assert (outs["2"] / name).read_bytes() == (outs["1"] / name).read_bytes(), name


def test_spearman_does_not_depend_on_blas_threads():
    # centred fractional ranks are multiples of 1/2, so their sums of products
    # are exact in any order below about 476k values; above, each order
    # rounds its own way
    code = (
        "import numpy as np; from chronoscope.metrics import spearman_rank_correlation as rho;"
        " rng = np.random.default_rng(1); x = rng.normal(size=1_000_000);"
        " print(repr(rho(x, x + rng.normal(size=x.size))))"
    )
    printed = {
        subprocess.run(
            [sys.executable, "-c", code], env=_child_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, check=True,
        ).stdout
        for threads in ("1", "2")
    }
    assert len(printed) == 1


def test_runtime_smoke_needs_no_dev_module():
    # the smoke run that CI makes after installing the package alone, here
    # with the dev-only modules made unimportable
    smoke = Path(__file__).with_name("runtime_smoke.py")
    done = subprocess.run(
        [sys.executable, str(smoke), "--block"], env=_child_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "runtime smoke: ok\n"
