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

A second, identical step then runs under a line tracer over the
``twinenc`` package's frames, which reads and resets the traced peak at
every line, call and return, so the peak of each interval belongs to the
package line that ran in it. That step gives:

- ``peak_at``: the file, line and function where its traced peak falls,
  and ``peak_code`` that line's source;
- ``traced_step_peak_mb``: its peak (the tracer's own few objects
  included);
- ``caches_at_peak_mb``: the forward outputs and caches (what both towers'
  forwards and the crossing head's forward returned) still alive when
  that line began, counted through weak references to the arrays that own
  their memory;
- ``rest_at_peak_mb``: the peak less those caches, that is the backward's
  temporaries and the gradients.

Both forwards draw their dropout from ``default_rng(0)``. Prints one JSON
line. The ``twinenc`` imported is the one on ``sys.path``, so putting
another tree's ``src`` first on ``PYTHONPATH`` measures that tree:

    PYTHONPATH=src python3 scripts/step_memory.py --preset desk --batch-size 64
"""

from __future__ import annotations

import argparse
import json
import linecache
import resource
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np

import twinenc
from twinenc import TwinModel, crossing, generate_pairs
from twinenc.config import PRESETS
from twinenc.encoder import pack_sequences
from twinenc.training import pair_loss_and_grads

MB = 1 << 20
PACKAGE = str(Path(twinenc.__file__).parent)


def owning_arrays(obj, found: dict) -> dict:
    """id -> array, for every array that owns the memory of an array reachable from ``obj``
    through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        found[id(obj)] = obj
    elif isinstance(obj, dict):
        for value in obj.values():
            owning_arrays(value, found)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            owning_arrays(value, found)
    return found


def peak_breakdown(model: TwinModel, q_seqs, k_seqs, targets) -> dict:
    """One traced step's peak location and what is alive there; see the module docstring."""
    watched: list[tuple[weakref.ref, int]] = []
    state = {"best": 0, "at": None, "caches": 0, "last": None, "alive": 0}

    def watching(fn):
        def forward(*args, **kwargs):
            out = fn(*args, **kwargs)
            watched.extend((weakref.ref(a), a.nbytes) for a in owning_arrays(out, {}).values())
            return out
        return forward

    def close_interval(frame) -> None:
        """The interval since the last event ran ``state["last"]``; ``frame`` runs next."""
        peak = tracemalloc.get_traced_memory()[1]
        if peak > state["best"]:
            state.update(best=peak, at=state["last"], caches=state["alive"])
        tracemalloc.reset_peak()
        code = frame.f_code
        state["last"] = (code.co_filename, frame.f_lineno, code.co_qualname)
        state["alive"] = sum(n for ref, n in watched if ref() is not None)

    def on_line(frame, event, arg):
        if event == "return":
            close_interval(frame.f_back)
        elif event == "line":
            close_interval(frame)
        return on_line

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None  # its memory belongs to the package line that called it
        close_interval(frame)
        return on_line

    head_forward = crossing.head_forward
    crossing.head_forward = watching(head_forward)
    model.encode_query_batch = watching(model.encode_query_batch)
    model.encode_keyword_batch = watching(model.encode_keyword_batch)
    tracemalloc.start()
    try:
        sys.settrace(on_call)
        try:
            pair_loss_and_grads(model, q_seqs, k_seqs, targets, rng=np.random.default_rng(0))
        finally:
            sys.settrace(None)
        close_interval(sys._getframe())
    finally:
        tracemalloc.stop()
        crossing.head_forward = head_forward
        del model.encode_query_batch, model.encode_keyword_batch
    path, line, function = state["at"]
    return {"peak_at": f"{Path(path).name}:{line} {function}",
            "peak_code": linecache.getline(path, line).strip(),
            "traced_step_peak_mb": round(state["best"] / MB, 3),
            "caches_at_peak_mb": round(state["caches"] / MB, 3),
            "rest_at_peak_mb": round((state["best"] - state["caches"]) / MB, 3)}


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
        loss, grads = pair_loss_and_grads(model, q_seqs, k_seqs, targets, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
        del grads
    finally:
        tracemalloc.stop()
    return {"preset": preset, "batch_size": batch_size,
            "forward_caches_mb": round(caches / MB, 3), "step_peak_mb": round(peak / MB, 3),
            "peak_over_caches": round(peak / caches, 3), "loss": loss,
            **peak_breakdown(model, q_seqs, k_seqs, targets),
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
