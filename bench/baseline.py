"""Summarize several benchmark runs into one baseline record.

    python3 bench/baseline.py bench/BASELINE.json run1.json run2.json ...

Each input is a file written by ``bench/run.py --json-out``, one run per
seed.  For every workload and end-to-end metric the output holds the median
of the per-run medians, their quartiles, the spread (interquartile range
over the median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles) and the sample counts, plus the machine, seeds, input sizes and
the rationale of each workload (from ``BENCHMARK.json``; run it from the
checkout root).  Runs made with ``--trace 1`` add the median of each
per-layer metric.  The spreads are also printed.
"""

from __future__ import annotations

import json
import statistics
import sys


def _problem_seeds(runs: list[dict]) -> dict[str, list[int]]:
    """Seeds at which each kind of failure showed, a known defect by its label."""
    kinds: dict[str, list[int]] = {}
    for run in runs:
        for problem in run["problems"]:
            command, _, rest = problem.partition(": ")
            if rest.startswith("known defect"):
                rest = rest.split(": ")[0]
            seeds = kinds.setdefault(f"{command}: {rest}", [])
            if run["seed"] not in seeds:
                seeds.append(run["seed"])
    return kinds


def summarize(paths: list[str], why: dict[str, str]) -> dict:
    machine = None
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        machine = machine or data["machine"]
        for run in data["runs"]:
            by_workload.setdefault(run["workload"], []).append(run)
    out = {"machine": machine, "workloads": {}}
    for name, runs in by_workload.items():
        metrics = {}
        for key in runs[0]["end_to_end"]:
            values = [r["end_to_end"][key]["median"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[key] = {
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / q2,
                "runs": len(values),
                "samples_per_run": [r["end_to_end"][key]["n"] for r in runs],
            }
        traced = [r["per_layer"] for r in runs if r["per_layer"]]
        per_layer = {
            key: {"median": statistics.median(t[key][0] for t in traced), "unit": unit, "runs": len(traced)}
            for key, (_, unit) in (traced[0].items() if traced else ())
        }
        out["workloads"][name] = {
            "why": why[name],
            "seeds": [r["seed"] for r in runs],
            "sizes": runs[0]["sizes"],
            "end_to_end": metrics,
            "per_layer": per_layer,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "problems": _problem_seeds(runs),
        }
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    summary = summarize(argv[1:], why)
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for name, workload in summary["workloads"].items():
        for key, m in workload["end_to_end"].items():
            print(
                f"{name:<17} {key:<12} median {m['median']:.4f} "
                f"spread {m['spread']:.4f} runs {m['runs']}"
            )
        print(f"{name:<17} failed {workload['failed']}/{workload['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
