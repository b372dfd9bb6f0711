#!/usr/bin/env python3
"""In-process timing of the batch-1 query encode from two source trees, alternated.

Loads the ``twinenc`` package of each tree under its own name into one
process and builds the rerank benchmark workload's model (desk preset,
seed 0), queries and keyword store for ``--seed``. It refuses to time
unless both trees give ``array_equal`` query embeddings at batch 1, in
float32 and float64, and equal raw keyword stores (``encode_corpus`` with
``normalize=False``, at its default batch of 256). It then times
``pack_sequences`` + ``encode_query_batch`` of one tokenized float32 query,
over ``--queries`` queries per round, in alternating pairs of rounds
(before/after, then after/before, ...) so a drift in host speed lands on
both sides; a round's figure is its median call. Last it prints each tree's ``tracemalloc`` peak
for the no-rng float32 forward of one 256-keyword batch, in bytes and in
activations (batch x length x hidden float32 arrays), and for float32
``encode_keywords`` over the whole keyword store, beside the bytes of its
output. Prints one JSON object, which names the host's Python and numpy
versions and ``nproc``:

    python3 scripts/time_encode.py before=../parent/src after=src --pairs 10
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
import tracemalloc

import numpy as np

STORE, REQUESTS, BATCH = 2048, 1200, 256  # the rerank workload's store and request counts


def load_tree(label: str, src: str):
    name = f"twinenc_{label}"
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/twinenc/__init__.py", submodule_search_locations=[f"{src}/twinenc"])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def rerank_texts(twinenc, seed: int) -> tuple[list[str], list[str]]:
    """The rerank workload's distinct queries and its keyword store texts."""
    pairs = twinenc.generate_pairs(max(STORE, REQUESTS), seed=seed, n_queries=REQUESTS)
    queries = list(dict.fromkeys(p.query for p in pairs[:REQUESTS]))
    return queries, [p.keyword for p in pairs[:STORE]]


def check_equal(trees: dict, queries: list[str], store: list[str]) -> None:
    (a, ta), (b, tb) = trees.items()
    for dtype in (np.float32, np.float64):
        ma, mb = (t.TwinModel.initialize(t.ModelConfig(), seed=0).cast(dtype) for t in (ta, tb))
        for q in queries:
            ea = ma.encode_query_batch(ta.encoder.pack_sequences([ma.tokenize(q)]))[0]
            eb = mb.encode_query_batch(tb.encoder.pack_sequences([mb.tokenize(q)]))[0]
            if not np.array_equal(ea, eb):
                raise SystemExit(f"{a} and {b} encode query {q!r} differently in {dtype.__name__}")
        ka, kb = (t.encode_corpus(store, m, normalize=False).vectors
                  for t, m in ((ta, ma), (tb, mb)))
        if not np.array_equal(ka, kb):
            raise SystemExit(f"{a} and {b} encode the keyword store differently in {dtype.__name__}")


def round_median_us(twinenc, model, seqs) -> float:
    pack, encode = twinenc.encoder.pack_sequences, model.encode_query_batch
    times = []
    for seq in seqs:
        t0 = time.perf_counter()
        encode(pack([seq]))
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e6


def forward_peak(twinenc, model, store: list[str]) -> dict:
    batch = twinenc.encoder.pack_sequences(model.tokenize_many(store[:BATCH]))
    activation = batch.n_examples * batch.seq_len * model.config.hidden_size * 4
    model.encode_keyword_batch(batch)
    tracemalloc.start()
    try:
        model.encode_keyword_batch(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"peak_bytes": peak, "activation_bytes": activation,
            "peak_activations": round(peak / activation, 2)}


def encode_keywords_peak(model, store: list[str]) -> dict:
    model.encode_keywords(store[:BATCH])
    tracemalloc.start()
    try:
        rows = model.encode_keywords(store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"peak_bytes": peak, "output_bytes": rows.nbytes}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 2), "q1": round(float(q1), 2), "q3": round(float(q3), 2),
            "iqr": round(float(q3 - q1), 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs=2, metavar="LABEL=SRC")
    ap.add_argument("--pairs", type=int, default=10, help="alternating pairs of rounds")
    ap.add_argument("--queries", type=int, default=400, help="batch-1 encodes per round")
    ap.add_argument("--seed", type=int, default=1, help="the rerank workload's seed")
    args = ap.parse_args(argv)
    (a, a_src), (b, b_src) = (t.split("=", 1) for t in args.trees)
    trees = {a: load_tree(a, a_src), b: load_tree(b, b_src)}
    queries, store = rerank_texts(trees[a], args.seed)
    if rerank_texts(trees[b], args.seed) != (queries, store):
        raise SystemExit(f"{a} and {b} generate different rerank inputs")
    check_equal(trees, queries, store)

    models = {label: t.TwinModel.initialize(t.ModelConfig(), seed=0).cast(np.float32)
              for label, t in trees.items()}
    seqs = {label: [m.tokenize(q) for q in queries[: args.queries]] for label, m in models.items()}
    for label in trees:  # warm both trees' code paths and caches before the first timed round
        round_median_us(trees[label], models[label], seqs[label])
    times: dict[str, list[float]] = {a: [], b: []}
    for i in range(args.pairs):
        for label in ((a, b) if i % 2 == 0 else (b, a)):
            times[label].append(round_median_us(trees[label], models[label], seqs[label]))
    ratios = [ta / tb for ta, tb in zip(times[a], times[b])]

    out = {
        "labels": [a, b], "pairs": args.pairs, "queries_per_round": len(seqs[a]), "seed": args.seed,
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                 "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "equality": f"array_equal at batch 1 over {len(queries)} queries and at batch {BATCH} "
                    f"over {len(store)} keywords, in float32 and float64",
        "batch1_encode_us": {
            "call": "pack_sequences([seq]) + encode_query_batch, float32, desk preset",
            "round_medians": {label: [round(t, 2) for t in ts] for label, ts in times.items()},
            **{label: quartiles(ts) for label, ts in times.items()},
            f"{b}_faster_in": f"{sum(r > 1 for r in ratios)}/{len(ratios)}",
            f"time_ratio_{a}_to_{b}": [round(r, 3) for r in ratios],
            "median_time_ratio": round(float(np.median(ratios)), 3),
        },
        "forward_peak_b256_float32": {label: forward_peak(trees[label], models[label], store)
                                      for label in trees},
        "encode_keywords_peak_store_float32": {label: encode_keywords_peak(models[label], store)
                                               for label in trees},
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
