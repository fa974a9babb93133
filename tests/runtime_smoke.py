"""A smoke run of the package with its runtime dependency alone.

Runs ``synth`` in both modes, then ``stats``, ``centrality``, ``modularity``,
``gravity`` and ``export`` on the snapshots, in a temporary directory:

    python -m pip install -e .          # numpy only, no [dev] extra
    python tests/runtime_smoke.py

It fails when a command fails, when the run imported a module that only
the ``dev`` extra installs, or when it imported one of the standard-library
stacks that no command needs (``xml.sax.saxutils`` alone loads
``urllib.request``, ``http``, ``ssl`` and ``email``).  ``--block`` first
makes the dev-only modules unimportable, so that the run also fails where
they are installed:

    PYTHONPATH=src python tests/runtime_smoke.py --block
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

DEV_ONLY = ("scipy", "networkx", "hypothesis", "pytest")
UNNEEDED_STDLIB = ("xml", "urllib.request", "http", "ssl", "email")


def imported(packages) -> list[str]:
    """Those of ``packages`` that are loaded, themselves or a submodule."""
    loaded = [name for name, module in sys.modules.items() if module is not None]
    return [p for p in packages if any(n == p or n.startswith(p + ".") for n in loaded)]


def main(argv: list[str]) -> int:
    if "--block" in argv:
        for name in DEV_ONLY:
            sys.modules[name] = None  # an import of it now raises ImportError
    from chronoscope.cli import main as chronoscope

    with tempfile.TemporaryDirectory() as tmp:
        g, p = Path(tmp, "gravity"), Path(tmp, "partition")
        g_snap, p_snap = str(g / "snapshot_2010.tsv"), str(p / "snapshot_2010.tsv")
        commands = [
            ["synth", "--mode", "gravity", "--n-nodes", "30", "--out-dir", str(g)],
            ["synth", "--mode", "partition", "--n-nodes", "30", "--n-groups", "3",
             "--p-intra", "0.5", "--out-dir", str(p)],
            ["stats", p_snap, "--out-dir", str(p)],
            ["centrality", p_snap, "--out-dir", str(p)],
            ["modularity", p_snap, "--partition", str(p / "partition_2010.tsv"),
             "--out-dir", str(p)],
            ["gravity", g_snap, "--geo", str(g / "geo_2010.tsv"), "--window", "20",
             "--out-dir", str(g)],
            ["export", p_snap, "--out-dir", str(p)],
        ]
        for command in commands:
            if chronoscope(command) != 0:
                print(f"runtime smoke: {command[0]} failed", file=sys.stderr)
                return 1
    loaded = imported(DEV_ONLY + UNNEEDED_STDLIB)
    if loaded:
        print(f"runtime smoke: imported {loaded}", file=sys.stderr)
        return 1
    print("runtime smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
