#!/usr/bin/env python3
"""Recall@10, search work and time of the search workload's graph at several
candidate-list sizes L and expansion widths W.

Builds the index of ``benchmark/run.py --workload search`` for one seed (same
corpus, degree bound and build beam), then answers its queries with
``knn_approx`` at each L (``search_beam``) and W (``twinenc.index._WIDTH``,
set for the sweep), timing each approximate search next to an exact
``knn_exact`` of the same query, and scores the answers against an exact
scan. Run from the repository root:

    python3 scripts/beam_sweep.py --seed 12 --beams 32 64 --widths 1 2 4 8 16 --out benchmark/results

The record goes to ``<out>/search_beam_sweep-seed<N>-trace0.json`` in the
shape of the benchmark's own results, so ``scripts/bench_summary.py``
aggregates it with them. Metric names are ``L<l>.W<w>.<metric>``; the
``*_p50_ms`` times are medians over the queries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--beams", type=int, nargs="+", default=[32, 64])
    ap.add_argument("--widths", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    ap.add_argument("--out", type=Path, default=ROOT / "benchmark" / "results")
    args = ap.parse_args(argv)

    blas_fixed = "OPENBLAS_NUM_THREADS" not in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as benchmark/run.py does
    path = list(sys.path)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    try:
        return _sweep(args, blas_fixed)
    finally:  # an in-process caller keeps its import path and environment
        sys.path[:] = path
        if blas_fixed:
            del os.environ["OPENBLAS_NUM_THREADS"]


def _sweep(args, blas_fixed: bool) -> int:
    import numpy as np

    import checks
    import env
    import workloads
    from twinenc import index as index_mod
    from twinenc.index import build_graph, encode_corpus, knn_approx, knn_exact

    sizes = workloads.FULL
    model, corpus, queries = workloads.search_inputs(args.seed, sizes)
    store = encode_corpus(corpus, model)
    scan = checks.Scan(list(store.ids), store.vectors)
    start = time.perf_counter()
    build_graph(store, degree_bound=sizes.search_degree, build_beam=sizes.search_build_beam)
    reported = {"build_graph_s": (time.perf_counter() - start, "s")}

    qs = []
    for text in queries:  # one at a time, as the workload encodes them
        q = model.encode_queries([text])[0]
        qs.append(q / np.linalg.norm(q))
    default_width = index_mod._WIDTH
    try:
        for beam in args.beams:
            for width in args.widths:
                index_mod._WIDTH = width
                store.counters.reset()
                found, approx_s, exact_s = [], [], []
                for q in qs:
                    t0 = time.perf_counter()
                    answer = knn_approx(q, store, sizes.top_n, search_beam=beam)
                    t1 = time.perf_counter()
                    knn_exact(q, store, sizes.top_n)
                    exact_s.append(time.perf_counter() - t1)
                    approx_s.append(t1 - t0)
                    found.append([r.keyword_id for r in answer])
                approx_work = store.counters.distance_computations - len(qs) * len(store)
                key = f"L{beam}.W{width}"
                reported[f"{key}.recall_at_10"] = (checks.recall_at(found, qs, scan, sizes.top_n), "ratio")
                reported[f"{key}.distance_computations_per_query"] = (approx_work / len(qs), "count")
                reported[f"{key}.hops_per_query"] = (store.counters.hops / len(qs), "count")
                reported[f"{key}.knn_approx_p50_ms"] = (float(np.median(approx_s)) * 1e3, "ms")
                reported[f"{key}.knn_exact_p50_ms"] = (float(np.median(exact_s)) * 1e3, "ms")
    finally:  # a failed sweep leaves an in-process caller the width it had
        index_mod._WIDTH = default_width

    record = {
        "workload": "search_beam_sweep",
        "seed": args.seed,
        "trace": 0,
        "environment": env.describe(blas_fixed),
        "params": {"corpus_keywords": len(store), "queries": len(qs),
                   "degree_bound": sizes.search_degree, "build_beam": sizes.search_build_beam,
                   "top_n": sizes.top_n, "beams": args.beams, "widths": args.widths},
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"search_beam_sweep-seed{args.seed}-trace0.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, (value, unit) in reported.items():
        print(f"{name:44s} {value:12.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
