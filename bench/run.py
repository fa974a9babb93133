"""Benchmark of the chronoscope pipeline; run from the root of a checkout.

    python3 bench/run.py --workload linklog --seed 1 --seconds 35 --trace 0

``--workload`` is ``linklog``, ``dense_gravity``, ``sparse_partition`` or
``all``.  A run writes the workload's inputs from ``--seed`` (outside any
timed region), then:

1. repeats the workload's command sequence, one child process per pipeline
   run and never two at once, while one more run (pipeline and probes, at
   the median duration so far) still ends within ``--seconds`` seconds.
   Each child calls ``chronoscope.cli.main`` once per command;
2. after each pipeline run starts a fresh interpreter a few times and times
   each from process start until ``import chronoscope.cli`` and
   ``_build_parser()`` are done (``setup_s``, median of at least
   ``SETUP_PROBES``).  Spreading the probes over the run lets them see the
   same machine as the pipelines.  On the synthetic workloads each probe
   then also times the workload's cheap first command (``synth``);
3. checks every artifact of the first pipeline run against the independent
   oracles in ``checks.py`` and requires every later run to reproduce it
   byte for byte.  A command fails when it exits nonzero or its artifacts
   fail a check;
4. with ``--trace 1``, makes one more pipeline run with spans around the
   package functions the CLI calls, checks that its artifacts are identical
   too, and derives the per-layer metrics.

End-to-end metrics (medians over pipeline runs; ``--trace 0``):

- ``setup_s``: fresh interpreter to a built CLI parser.
- ``wall_s``: the whole command sequence of one pipeline run.
- ``ingest_s``: the command that produces the year snapshots: ``ingest`` on
  ``linklog``; ``synth`` on the two synthetic workloads, which have no ingest.
  A synth takes tens of milliseconds and its time varies more from process
  to process than over a run, so there the probes' synth times join the
  pipeline runs' in the median.
- ``analysis_s``: all commands that read snapshots.
- ``peak_rss_mb``: the pipeline child's resident high-water mark (``VmHWM``).

``error_rate`` (failed over attempted commands) is the ``failed`` and
``attempted`` fields of the result line.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer ones named in
``BENCHMARK.json`` with ``--trace 1``.  ``--json-out FILE`` also writes
every sample, the full per-layer table and the machine description there.

A failure caused by a known program defect is still a failure; its message
names the defect: ``known defect (float == path ties)`` when betweenness
matches an oracle that decides path ties by float ``==`` but not the exact
one, ``known defect (HITS ConvergenceFailure)`` when HITS gives up.

Everything the run writes goes under ``.bench_work/`` in the checkout, and
all but the last trace (``.bench_work/trace_<workload>.json``) is removed at
the end.  Without ``src/chronoscope`` the run fails before measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

SETUP_PROBES = 15  # fewest setup probes in one run
PROBES_PER_GAP = 3  # setup probes after each pipeline run
PROBE = """
import chronoscope.cli as c
c._build_parser()
print("ready", flush=True)
import contextlib, io, json, sys, time
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = c.main(argv)
        seconds = time.perf_counter() - start
    print(seconds if code == 0 else "failed", flush=True)
"""


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _env(root: Path, tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(work: Path, env: dict, count: int, argv=()) -> tuple[list[float], list[float]]:
    """Seconds from process start to a built parser, one fresh interpreter each.

    With ``argv``, each probe then runs that CLI command; its seconds are
    the second list.
    """
    times, command_times = [], []
    for _ in range(count):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE, json.dumps(list(argv))],
            stdout=subprocess.PIPE,
            env=env,
            cwd=work,
        )
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        rest = proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line != b"ready\n":
            raise RuntimeError("setup probe failed")
        if argv:
            try:
                command_times.append(float(rest))
            except ValueError:
                raise RuntimeError(f"probe's {argv[0]} failed") from None
        times.append(elapsed)
    return times, command_times


def run_pipeline(job: dict, work: Path, env: dict) -> dict:
    """Run one pipeline child to completion and return its record."""
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    err_path = work / "child.err"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "pipeline.py"), str(job_path)],
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=env,
            cwd=work,
        )
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(
            f"pipeline child exited {proc.returncode}: "
            + err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        )
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint(out: Path, result: dict) -> str:
    """Digest of what one command produced: its files, stdout and stderr."""
    h = hashlib.sha256()
    for name in result["files"]:
        h.update(name.encode())
        h.update(hashlib.sha256((out / name).read_bytes()).digest())
    h.update(result["stdout"].encode())
    h.update(result["stderr"].replace(str(out), "<out>").encode())
    return h.hexdigest()


def _exit_problem(result: dict) -> str:
    label = ""
    if "ConvergenceFailure" in result["stderr"]:
        label = "known defect (HITS ConvergenceFailure): "
    return f"{label}exit code {result['code']}: {result['stderr'].strip()[-300:]}"


def evaluate(workload, out: Path, record: dict) -> list[list[str]]:
    """Oracle problems per command; an exit code != 0 is a problem too."""
    results = record["commands"]
    problems = [[_exit_problem(r)] if r["code"] else [] for r in results]
    try:
        thunks = workload.checks(out, results)
    except Exception as exc:  # no readable artifact: nothing can be verified
        return [p + [f"checks could not start: {exc!r}"] for p in problems]
    for i, thunk in enumerate(thunks):
        if results[i]["code"]:
            continue  # a failed command's artifacts are not checked
        try:
            problems[i] += thunk()
        except Exception as exc:
            problems[i].append(f"check raised {exc!r}")
    return problems


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    from workloads import WORKLOADS
    import tracing

    base = root / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        tmp = work / "tmp"
        in_dir = work / "in"
        tmp.mkdir()
        in_dir.mkdir()
        env = _env(root, tmp)
        workload = WORKLOADS[name](seed, in_dir)
        clock = perf_counter()
        workload.prepare()
        harness = {"prepare_s": perf_counter() - clock, "checks_s": 0.0}
        # an unmeasured probe fills the bytecode cache, a cost users pay
        # once per checkout, not per invocation
        measure_setup(work, env, 1)
        setup: list[float] = []
        probe_argv = workload.commands(work / "probe")[0][1] if workload.probe_first else ()
        first: list[float] = []

        def probe(count: int) -> None:
            times, command_times = measure_setup(work, env, count, probe_argv)
            setup.extend(times)
            first.extend(command_times)

        samples = []
        reference = None
        attempted = failed = 0
        problems_seen: list[str] = []

        def one_run(index: int, traced: bool):
            nonlocal reference, attempted, failed
            out = work / f"run{index}"
            commands = workload.commands(out)
            job = {
                "package_dir": str(root / "src" / "chronoscope"),
                "commands": commands,
                "out_dir": str(out),
                "result": str(work / "result.json"),
                "trace": traced,
            }
            out.mkdir()
            record = run_pipeline(job, work, env)
            results = record["commands"]
            prints = [fingerprint(out, r) for r in results]
            if reference is None:
                clock = perf_counter()
                problems = evaluate(workload, out, record)
                harness["checks_s"] = perf_counter() - clock
                reference = (prints, problems)
            else:
                # an identical artifact inherits the first run's verdict
                problems = [
                    verdict if p == q else [f"run {index} differs from run 0"]
                    for p, q, verdict in zip(prints, *reference)
                ]
            for (cmd, _), probs in zip(commands, problems):
                for p in probs:
                    line = f"{cmd}: {p}".replace(str(work), "<work>")
                    if line not in problems_seen:
                        problems_seen.append(line)
            attempted += len(results)
            failed += sum(1 for p in problems if p)
            shutil.rmtree(out)
            seconds_each = [r["seconds"] for r in results]
            return record, {
                "wall_s": sum(seconds_each),
                "ingest_s": seconds_each[0],
                "analysis_s": sum(seconds_each[1:]),
                "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
            }

        start = perf_counter()

        def elapsed() -> float:
            return perf_counter() - start - harness["checks_s"]  # checks are not measuring

        laps: list[float] = []
        while not laps or elapsed() + statistics.median(laps) <= seconds:
            lap = elapsed()
            _, sample = one_run(len(samples), traced=False)
            samples.append(sample)
            probe(PROBES_PER_GAP)
            laps.append(elapsed() - lap)
        probe(max(0, SETUP_PROBES - len(setup)))

        e2e = {"setup_s": summarize(setup)}
        for key in ("wall_s", "ingest_s", "analysis_s", "peak_rss_mb"):
            e2e[key] = summarize([s[key] for s in samples] + (first if key == "ingest_s" else []))
        layers = None
        if trace:
            record, traced = one_run(len(samples), traced=True)
            layers = tracing.layer_metrics(record["spans"], record["counts"])
            layers["trace.overhead_s"] = (traced["wall_s"] - e2e["wall_s"]["median"], "s")
            (base / f"trace_{name}.json").write_text(
                json.dumps({"seed": seed, "spans": record["spans"], "counts": record["counts"]}),
                encoding="utf-8",
            )
        return {
            "workload": name,
            "seed": seed,
            "sizes": workload.sizes(),
            "end_to_end": e2e,
            "samples": samples,
            "harness": harness,
            "per_layer": layers,
            "attempted": attempted,
            "failed": failed,
            "problems": problems_seen,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ingest_s": "s", "analysis_s": "s", "peak_rss_mb": "MB"}


def report(result: dict, declared: dict) -> dict:
    """Print the human-readable block; return the contract's result object."""
    print(f"== {result['workload']} (seed {result['seed']}) sizes {json.dumps(result['sizes'])}")
    for key, stats in result["end_to_end"].items():
        print(
            f"  {key:<12} median {stats['median']:.4f} {E2E_UNITS[key]:<3}"
            f" max {stats['max']:.4f}  n={stats['n']}"
        )
    print("  harness      " + " ".join(f"{k}={v:.2f}" for k, v in result["harness"].items()))
    rate = result["failed"] / result["attempted"]
    print(f"  error_rate   {rate:.4f} ({result['failed']}/{result['attempted']} commands)")
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}")
    if result["per_layer"] is not None:
        for key, (value, unit) in result["per_layer"].items():
            print(f"  {key:<28} {value:.6g} {unit}")
        metrics = {
            k: {"value": result["per_layer"][k][0], "unit": result["per_layer"][k][1]}
            for k in declared["per_layer"]
        }
    else:
        metrics = {
            k: {"value": result["end_to_end"][k]["median"], "unit": E2E_UNITS[k]}
            for k in declared["end_to_end"]
        }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json-out", default=None, help="write the full result here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chronoscope" / "cli.py").is_file():
        print("error: run from a checkout root holding src/chronoscope", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {key: [m["name"] for m in spec[key]] for key in ("end_to_end", "per_layer")}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    full, lines = [], []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        full.append(result)
        lines.append((name, report(result, declared)))
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps({"machine": machine(), "runs": full}, indent=1), encoding="utf-8"
        )
    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in lines),
            "attempted": sum(r["attempted"] for _, r in lines),
            "failed": sum(r["failed"] for _, r in lines),
            "metrics": {f"{n}.{k}": v for n, r in lines for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
