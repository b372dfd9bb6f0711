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

When two directories are labelled ``before`` and ``after``, the output also
gets ``comparison``: for each workload, trace mode and ``end_to_end`` metric
of ``BENCHMARK.json`` (read beside ``scripts/``), the runs paired by seed,
the pairs that ``after`` won (a tie counts for neither side), both medians,
the relative change of the median towards worse, the larger side's IQR over
its median, the parent's IQR and a verdict:

- ``unresolved``: either side's IQR over its median exceeds the bound,
  unless every run of ``after`` reads better than every run of ``before``;
- ``worse``: the median moved towards worse by more than the bound;
- ``gain``: ``after`` won at least 9 of every 10 pairs and its median is
  better than the parent's by more than the parent's IQR;
- ``no_regression``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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


def load_groups(results_dir: Path, workloads: list[str] | None = None) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> the result records of that group in ``results_dir``."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(results_dir.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if workloads is None or record["workload"] in workloads:
            groups[record["workload"], record["trace"]].append(record)
    if not groups:
        raise SystemExit(f"bench_summary: no result records in {results_dir}")
    return groups


def quartiles(values) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def summarize(groups: dict[tuple[str, int], list[dict]]) -> dict:
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
            q1, median, q3 = quartiles(values[name])
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
                             "runs": len(values[name]), "unit": units[name]}
        out.setdefault(workload, {})[f"trace{trace}"] = {
            "seeds": sorted(r["seed"] for r in records),
            "params": records[0].get("params", {}),
            "metrics": metrics,
        }
    return out


def verdict(before: list[float], after: list[float], better: str, bound: float) -> dict:
    """The gain and no-regression rules applied to runs paired by position."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (after - before) > 0 is worse
    (b1, b_med, b3), (a1, a_med, a3) = quartiles(before), quartiles(after)
    won = sum(sign * (a - b) < 0 for b, a in zip(before, after))
    change = sign * (a_med - b_med) / abs(b_med)
    spread = max((b3 - b1) / abs(b_med), (a3 - a1) / abs(a_med))
    every_run_better = max(sign * a for a in after) < min(sign * b for b in before)
    if spread > bound and not every_run_better:
        call = "unresolved"
    elif change > bound:
        call = "worse"
    elif 10 * won >= 9 * len(before) and -sign * (a_med - b_med) > b3 - b1:
        call = "gain"
    else:
        call = "no_regression"
    return {"pairs": len(before), "after_won": won, "median_before": b_med, "median_after": a_med,
            "change_towards_worse": change, "spread": spread, "iqr_before": b3 - b1, "bound": bound,
            "verdict": call}


def compare(before: dict, after: dict, end_to_end: list[dict]) -> dict:
    """Per workload and trace mode, each end-to-end metric's verdict, with every paired run."""
    out: dict = {}
    for key in sorted(before.keys() & after.keys()):
        by_seed = [{r["seed"]: record_metrics(r) for r in side[key]} for side in (before, after)]
        seeds = sorted(by_seed[0].keys() & by_seed[1].keys())
        for spec in end_to_end:
            name = spec["name"]
            paired = [s for s in seeds if all(name in side[s] for side in by_seed)]
            if not paired:
                continue
            b, a = ([side[s][name][0] for s in paired] for side in by_seed)
            out.setdefault(key[0], {}).setdefault(f"trace{key[1]}", {})[name] = {
                **verdict(b, a, spec["better"], spec["bound"]),
                "runs": [{"seed": s, "before": x, "after": y} for s, x, y in zip(paired, b, a)]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dirs", nargs="+", metavar="[LABEL=]DIR")
    ap.add_argument("--workload", action="append", help="keep only this workload (repeatable)")
    args = ap.parse_args(argv)
    labelled = [d.split("=", 1) if "=" in d else (None, d) for d in args.dirs]
    groups = {label: load_groups(Path(d), args.workload) for label, d in labelled}
    summaries = {label: summarize(g) for label, g in groups.items()}
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
        if {"before", "after"} <= groups.keys():
            end_to_end = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
            out["comparison"] = compare(groups["before"], groups["after"], end_to_end)
    json.dump(out, sys.stdout, indent=2, sort_keys=False)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
