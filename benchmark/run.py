#!/usr/bin/env python3
"""Twin-encoder benchmark: cached rerank, 10k ANN search, distillation training.

Run from the repository root:

    python3 benchmark/run.py --workload rerank --seed 1 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all

The library is imported from ``src/`` next to this directory. With
``--trace 0`` the last stdout line is a JSON object whose ``metrics`` are
the ``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1`` they are
the ``per_layer`` metrics from a traced run. ``--workload all`` runs each
workload in its own process and prints one table. Everything the run
records, including the environment, goes to ``benchmark/results/``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("rerank", "search", "train")


def _import_library():
    """Import twinenc from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "twinenc" / "__init__.py").is_file():
        sys.exit(f"benchmark: no twinenc sources under {src}")
    sys.path.insert(0, str(src))
    import twinenc

    if Path(twinenc.__file__).resolve().parent != (src / "twinenc").resolve():
        sys.exit(f"benchmark: imported twinenc from {twinenc.__file__}, not {src}")


def fix_blas_threads() -> bool:
    """Use one OpenBLAS thread unless the caller chose a count.

    The matrices are small (a batch is at most 1024 rows of width 64), where
    a second thread only adds hand-off cost. It takes effect only before
    numpy is imported. Returns whether this process set it.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return False
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return True


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(outcome, trace: bool) -> dict:
    """The final stdout object; the metric set must match BENCHMARK.json exactly."""
    values = outcome.per_layer if trace else outcome.end_to_end
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_one(args, blas_fixed: bool) -> int:
    _import_library()
    import env
    import workloads

    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    RESULTS.mkdir(exist_ok=True)
    fn = workloads.WORKLOADS[args.workload]
    kwargs = {"workdir": RESULTS} if args.workload == "search" else {}
    outcome = fn(args.seed, args.seconds, bool(args.trace), **kwargs)

    line = result_line(outcome, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env.describe(blas_fixed),
        "params": outcome.params,
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in outcome.reported.items()},
        "error_rate": outcome.failed / outcome.attempted,
        "failures": outcome.failures,
        "result": line,
    }
    if outcome.tracer is not None:
        spans_path = RESULTS / f"{stem}.spans.jsonl"
        outcome.tracer.write_jsonl(spans_path)
        record["spans_file"] = spans_path.name
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# params {json.dumps(outcome.params, sort_keys=True)}")
    if args.trace:
        for name, m in line["metrics"].items():
            print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
        for name, (value, unit) in outcome.reported.items():
            print(f"# {name:38s} {value:14.6g} {unit}")
    else:
        for name, (value, unit) in outcome.reported.items():
            print(f"{name:40s} {value:14.6g} {unit}")
        print(f"{'peak_rss_mb':40s} {line['metrics']['peak_rss_mb']['value']:14.6g} MB")
    print(f"{'error_rate':40s} {record['error_rate']:14.6g} ratio"
          f"  ({outcome.failed} failed of {outcome.attempted})")
    for failure in outcome.failures:
        print(f"# FAILED {failure}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    table = []
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        status = status or proc.returncode
        table += [(name, ln) for ln in lines[:-1] if not ln.startswith("# environment")]
    for name, ln in table:
        print(f"{name:8s} {ln}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        sys.exit("benchmark: --seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args, fix_blas_threads())


if __name__ == "__main__":
    sys.exit(main())
