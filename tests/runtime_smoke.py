"""A smoke run of the package with its runtime dependency alone.

Runs ``ingest``, ``ingest --strict`` and ``ingest --year 1999`` (a year
without records, whose snapshot must be its header line alone) on a small
link log and ``synth`` in both modes, then every analysis on the synthetic
snapshots: ``stats``, ``centrality``, ``correlate`` (with a ranking file it
writes), ``modularity``, ``density``, ``gravity`` and ``export``, in a
temporary directory, with an integer flag (``--year``) and a float flag
(``--d-max-km inf``) among their options.  A 250-node gravity synth writes a 1.5 MB snapshot, more than one
read block and many write blocks, and reading it and writing it again must
give the same bytes, as for a one-edge snapshot of the largest weight,
2**63 - 1, whose 19 digits the reader accumulates in uint64:

    python -m pip install -e .          # numpy only, no [dev] extra
    python tests/runtime_smoke.py

It fails when a command fails, when the run imported a module that only
the ``dev`` extra installs, or when it imported one of the standard-library
stacks that no command needs (``xml.sax.saxutils`` alone loads
``urllib.request``, ``http``, ``ssl`` and ``email``), or ``numpy.ma``, which
numpy loads only for a few set routines (``np.union1d``; ``np.unique``
without an optional output) and which costs 12-14 ms.  ``--block`` first
makes the dev-only modules unimportable, so that the run also fails where
they are installed:

    PYTHONPATH=src python tests/runtime_smoke.py --block
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

DEV_ONLY = ("scipy", "networkx", "hypothesis", "pytest")
UNNEEDED = ("xml", "urllib.request", "http", "ssl", "email", "numpy.ma")


def imported(packages) -> list[str]:
    """Those of ``packages`` that are loaded, themselves or a submodule."""
    loaded = [name for name, module in sys.modules.items() if module is not None]
    return [p for p in packages if any(n == p or n.startswith(p + ".") for n in loaded)]


def first_fields(path: Path) -> list[str]:
    """The first tab-separated field of each line of a side-input file."""
    return [line.split("\t")[0] for line in path.read_text(encoding="utf-8").splitlines()]


def same_bytes_again(path: Path) -> bool:
    """Whether a snapshot file read and written again keeps its bytes."""
    from chronoscope.snapshot import read_snapshot, write_snapshot

    again = path.with_name("again.tsv")
    write_snapshot(read_snapshot(path), again)
    return again.read_bytes() == path.read_bytes()


def run(chronoscope, commands) -> bool:
    """Run each command in turn, its standard output dropped; False at the
    first that fails."""
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = chronoscope(command)
        if code != 0:
            print(f"runtime smoke: {command[0]} failed", file=sys.stderr)
            return False
    return True


def main(argv: list[str]) -> int:
    if "--block" in argv:
        for name in DEV_ONLY:
            sys.modules[name] = None  # an import of it now raises ImportError
    from chronoscope.cli import main as chronoscope

    with tempfile.TemporaryDirectory() as tmp:
        g, p, i = Path(tmp, "gravity"), Path(tmp, "partition"), Path(tmp, "ingest")
        big = Path(tmp, "blocks")
        g_snap, p_snap = str(g / "snapshot_2010.tsv"), str(p / "snapshot_2010.tsv")
        log, ranking, members = (Path(tmp, name) for name in ("links.tsv", "ranking", "members"))
        log.write_text(
            "".join(
                f"{1262304000 + 60 * k}\thttp://s{k % 3}.ac.uk/a\thttp://t{k % 5}.ac.uk/b\n"
                for k in range(40)
            ),
            encoding="utf-8",
        )
        inputs = [
            ["ingest", str(log), "--out-dir", str(i)],
            ["ingest", str(log), "--strict", "--out-dir", str(i)],
            ["ingest", str(log), "--year", "1999", "--out-dir", str(i)],
            ["synth", "--mode", "gravity", "--n-nodes", "30", "--out-dir", str(g)],
            ["synth", "--mode", "partition", "--n-nodes", "30", "--n-groups", "3",
             "--p-intra", "0.5", "--out-dir", str(p)],
            ["synth", "--mode", "gravity", "--n-nodes", "250", "--noise-scale", "0.5",
             "--out-dir", str(big)],
        ]
        analyses = [
            ["stats", p_snap, "--year", "2010", "--out-dir", str(p)],
            ["centrality", p_snap, "--out-dir", str(p)],
            ["correlate", g_snap, "--ranking", str(ranking), "--out-dir", str(g)],
            ["modularity", p_snap, "--partition", str(p / "partition_2010.tsv"),
             "--out-dir", str(p)],
            ["density", p_snap, "--members", str(members), "--out-dir", str(p)],
            ["gravity", g_snap, "--geo", str(g / "geo_2010.tsv"), "--window", "20",
             "--d-max-km", "inf", "--out-dir", str(g)],
            ["export", p_snap, "--out-dir", str(p)],
        ]
        if not run(chronoscope, inputs):
            return 1
        if not (i / "snapshot_2010.tsv").exists():
            print("runtime smoke: ingest wrote no snapshot", file=sys.stderr)
            return 1
        if (i / "snapshot_1999.tsv").read_bytes() != b"#snapshot v1 year=1999\n":
            print("runtime smoke: the empty year's snapshot is not its header alone", file=sys.stderr)
            return 1
        heaviest = Path(tmp, "heaviest.tsv")
        heaviest.write_text(f"#snapshot v1 year=2010\na.ac.uk\tb.ac.uk\t{2**63 - 1}\n")
        if not all(map(same_bytes_again, (big / "snapshot_2010.tsv", heaviest))):
            print("runtime smoke: a snapshot read and written again changed", file=sys.stderr)
            return 1
        # the gravity graph's nodes ranked in file order; ten partition nodes
        nodes = first_fields(g / "geo_2010.tsv")
        ranking.write_text("".join(f"{n}\t{r}\n" for r, n in enumerate(nodes, 1)))
        members.write_text("".join(f"{n}\n" for n in first_fields(p / "partition_2010.tsv")[:10]))
        if not run(chronoscope, analyses):
            return 1
    loaded = imported(DEV_ONLY + UNNEEDED)
    if loaded:
        print(f"runtime smoke: imported {loaded}", file=sys.stderr)
        return 1
    print("runtime smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
