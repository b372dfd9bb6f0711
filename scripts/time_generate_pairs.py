#!/usr/bin/env python3
"""In-process timing of ``generate_pairs`` from two source trees, alternated.

Loads the ``twinenc`` package of each tree under its own name into one
process, checks that both generate the same records, then times each call
shape in alternating pairs (before/after, then after/before, ...) so a
drift in host speed lands on both sides. Prints one JSON object, which
names the host's Python and numpy versions and ``nproc``:

    python3 scripts/time_generate_pairs.py before=../parent/src after=src --pairs 10
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import sys
import time

import numpy as np

SHAPES = [
    ((12500,), {"seed": 1, "n_queries": 1000}),
    ((4000,), {"seed": 1}),
    ((2048,), {"seed": 1, "n_queries": 1200}),
]


def load_generator(label: str, src: str):
    name = f"twinenc_{label}"
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/twinenc/__init__.py", submodule_search_locations=[f"{src}/twinenc"])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.synthetic").generate_pairs


def records(pairs) -> list[tuple]:
    return [(p.query, p.keyword, p.teacher_logits, p.label) for p in pairs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs=2, metavar="LABEL=SRC")
    ap.add_argument("--pairs", type=int, default=10, help="alternating pairs per shape")
    args = ap.parse_args(argv)
    (a, a_src), (b, b_src) = (t.split("=", 1) for t in args.trees)
    gen = {a: load_generator(a, a_src), b: load_generator(b, b_src)}
    out: dict = {
        "labels": [a, b], "pairs": args.pairs,
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()},
        "shapes": [],
    }
    for shape_args, kwargs in SHAPES:
        if records(gen[a](*shape_args, **kwargs)) != records(gen[b](*shape_args, **kwargs)):
            raise SystemExit(f"{a} and {b} differ on generate_pairs{shape_args} {kwargs}")
        times: dict[str, list[float]] = {a: [], b: []}
        for i in range(args.pairs):
            for label in ((a, b) if i % 2 == 0 else (b, a)):
                t0 = time.perf_counter()
                gen[label](*shape_args, **kwargs)
                times[label].append(time.perf_counter() - t0)
        ratios = [ta / tb for ta, tb in zip(times[a], times[b])]
        out["shapes"].append({
            "call": f"generate_pairs({', '.join(map(str, shape_args))}"
                    + "".join(f", {k}={v}" for k, v in kwargs.items()) + ")",
            "seconds": {label: [round(t, 4) for t in ts] for label, ts in times.items()},
            "median_s": {label: round(float(np.median(ts)), 4) for label, ts in times.items()},
            f"time_ratio_{a}_to_{b}": [round(r, 3) for r in ratios],
            "median_time_ratio": round(float(np.median(ratios)), 3),
        })
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
