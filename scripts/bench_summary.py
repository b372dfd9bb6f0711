#!/usr/bin/env python3
"""Median and IQR of every metric in benchmark result files.

Reads the ``<workload>-seed<N>-trace<T>.json`` records that
``benchmark/run.py`` (and ``scripts/beam_sweep.py``) write, groups them by
workload and trace mode, and prints one JSON object: per group the seeds,
and per metric its median, first and third quartile and IQR, plus the
environment the runs recorded. Each argument is a results directory,
optionally labelled:

    python3 scripts/bench_summary.py benchmark/results
    python3 scripts/bench_summary.py before=../old/benchmark/results after=benchmark/results

Each directory's ``checkout`` is ``git`` when its runs recorded a commit,
``plain`` when they ran in a copy without ``.git`` (``git_sha`` reads
``unknown``) and ``mixed`` otherwise. ``peak_rss_mb`` moves with the kind of
checkout alone, so labelled directories also get ``checkout_kinds_differ``,
and a warning on stderr when it is true.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np


def record_metrics(record: dict) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) of everything one run reported or gated."""
    metrics = {k: (m["value"], m["unit"]) for k, m in record.get("reported", {}).items()}
    for k, m in record.get("result", {}).get("metrics", {}).items():
        metrics[k] = (m["value"], m["unit"])
    if "error_rate" in record:
        metrics["error_rate"] = (record["error_rate"], "ratio")
    return metrics


def checkout_kind(envs: list[dict]) -> str:
    plain = {e.get("git_sha") == "unknown" for e in envs}
    return "mixed" if len(plain) > 1 else "plain" if True in plain else "git"


def summarize(results_dir: Path, workloads: list[str] | None = None) -> dict:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(results_dir.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if workloads is None or record["workload"] in workloads:
            groups[record["workload"], record["trace"]].append(record)
    if not groups:
        raise SystemExit(f"bench_summary: no result records in {results_dir}")
    envs = [r["environment"] for records in groups.values() for r in records]
    differ = sorted(k for k in envs[0] if any(e.get(k) != envs[0][k] for e in envs))
    out: dict = {"environment": envs[0], "environment_keys_that_differ": differ,
                 "checkout": checkout_kind(envs)}
    for (workload, trace), records in sorted(groups.items()):
        values: dict[str, list[float]] = defaultdict(list)
        units: dict[str, str] = {}
        for record in records:
            for name, (value, unit) in record_metrics(record).items():
                values[name].append(value)
                units[name] = unit
        metrics = {}
        for name in sorted(values):
            q1, median, q3 = np.percentile(values[name], [25, 50, 75])
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
                             "runs": len(values[name]), "unit": units[name]}
        out.setdefault(workload, {})[f"trace{trace}"] = {
            "seeds": sorted(r["seed"] for r in records),
            "params": records[0].get("params", {}),
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dirs", nargs="+", metavar="[LABEL=]DIR")
    ap.add_argument("--workload", action="append", help="keep only this workload (repeatable)")
    args = ap.parse_args(argv)
    labelled = [d.split("=", 1) if "=" in d else (None, d) for d in args.dirs]
    summaries = {label: summarize(Path(d), args.workload) for label, d in labelled}
    if list(summaries) == [None]:
        out = summaries[None]
    else:
        kinds = {label: summary["checkout"] for label, summary in summaries.items()}
        differ = len(set(kinds.values())) > 1 or "mixed" in kinds.values()
        out = {**summaries, "checkout_kinds_differ": differ}
        if differ:
            named = ", ".join(f"{label}: {kind}" for label, kind in kinds.items())
            print(f"bench_summary: warning: checkout kinds differ ({named}); peak_rss_mb"
                  " depends on the kind of checkout, not only on the source", file=sys.stderr)
    json.dump(out, sys.stdout, indent=2, sort_keys=False)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
