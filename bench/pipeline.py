"""Child process: run one workload's command sequence through the CLI.

Usage: ``python3 bench/pipeline.py JOB.json``.  The job names the
commands (each an argv for ``chronoscope.cli.main``), the output directory,
where to write the result, and whether to trace.  Each command runs
in this interpreter with stdout and stderr captured; its wall time excludes
the capture and the directory listing that finds the files it wrote.  With
tracing on, the spans and counts go into the result as well.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from time import perf_counter


def _peak_rss_kb() -> int:
    """This process's resident high-water mark since its exec.

    ``ru_maxrss`` (from ``getrusage`` or ``wait4``) also keeps the high-water
    mark of the address space the process had before exec, which after a
    fork from ``bench/run.py`` is that parent's, so it is not used.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import chronoscope
    import chronoscope.cli as cli

    expected = os.path.realpath(job["package_dir"])
    if os.path.dirname(os.path.realpath(chronoscope.__file__)) != expected:
        print(f"chronoscope imported from {chronoscope.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = job["out_dir"]
    results = []
    for name, argv in job["commands"]:
        before = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
        out, err = io.StringIO(), io.StringIO()
        span = tracer.begin(f"cli.{name}") if tracer else None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed command, not a dead run
                traceback.print_exc()
                code = 1
            seconds = perf_counter() - start
        if tracer:
            tracer.end(span)
        after = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
        results.append(
            {
                "name": name,
                "code": code,
                "seconds": seconds,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "files": sorted(after - before),
            }
        )
    record = {"commands": results, "peak_rss_kb": _peak_rss_kb()}
    if tracer:
        tracer.uninstall()
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
