#!/usr/bin/env python3
"""Traced memory of one training step: the forward caches and the step's peak.

Builds a random-initialized model (seed 0) at ``--preset`` with dropout 0.1
and takes the first ``--batch-size`` pairs of ``generate_pairs(10 * B,
seed=1)``, tokenized once. Under ``tracemalloc`` it then measures what
``tests/test_training.py::TestStepMemory`` measures:

- ``forward_caches_mb``: the memory held after both towers' training
  forwards, that is their embeddings and backward caches;
- ``step_peak_mb``: the peak of one ``pair_loss_and_grads`` call (both
  forwards, the crossing head and both backwards), counted from the
  memory held before the call;
- ``process_maxrss_mb``: the whole script's peak resident set, model
  included.

Both forwards draw their dropout from ``default_rng(0)``. Prints one JSON
line. The ``twinenc`` imported is the one on ``sys.path``, so putting
another tree's ``src`` first on ``PYTHONPATH`` measures that tree:

    PYTHONPATH=src python3 scripts/step_memory.py --preset desk --batch-size 64
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tracemalloc

import numpy as np

from twinenc import TwinModel, generate_pairs
from twinenc.config import PRESETS
from twinenc.encoder import pack_sequences
from twinenc.training import pair_loss_and_grads

MB = 1 << 20


def measure(preset: str, batch_size: int) -> dict:
    model = TwinModel.initialize(PRESETS[preset](dropout=0.1), seed=0)
    pairs = generate_pairs(10 * batch_size, seed=1)[:batch_size]
    q_seqs = model.tokenize_many([p.query for p in pairs])
    k_seqs = model.tokenize_many([p.keyword for p in pairs])
    targets = np.full(batch_size, 0.5)

    tracemalloc.start()
    try:
        rng = np.random.default_rng(0)
        q = model.encode_query_batch(pack_sequences(q_seqs), rng=rng)
        k = model.encode_keyword_batch(pack_sequences(k_seqs), rng=rng)
        caches = tracemalloc.get_traced_memory()[0]
        del q, k
        tracemalloc.reset_peak()
        loss, _ = pair_loss_and_grads(model, q_seqs, k_seqs, targets, model.config.crossing,
                                      rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"preset": preset, "batch_size": batch_size,
            "forward_caches_mb": round(caches / MB, 3), "step_peak_mb": round(peak / MB, 3),
            "peak_over_caches": round(peak / caches, 3), "loss": loss,
            "process_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    ap.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    ap.add_argument("--batch-size", type=int, default=64)
    args = ap.parse_args(argv)
    if args.batch_size < 1:
        ap.error(f"--batch-size must be >= 1, got {args.batch_size}")
    print(json.dumps(measure(args.preset, args.batch_size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
