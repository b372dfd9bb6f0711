#!/usr/bin/env python3
"""Held-out quality of the teacher, the untrained model and the students.

For each data seed s of 42, 7 and 123: ``generate_pairs(5000, seed=s, n_queries=500)``,
``split_pairs`` (the last 0.2 of query slots held out),
``DistillationConfig(learning_rate=3e-4, epochs=20)``, desk preset, model
seed 0. Rows: the teacher; the untrained cosine model; the cosine and
residual students, distilled and then fine-tuned; and both heads with
``shared_encoders=False`` and with ``pooling="cls_token"``. Columns, on the
held-out pairs:

- ``auc``: ROC-AUC of the scores against the binary labels;
- ``per_query_auc``: mean ROC-AUC over the held-out queries whose pairs
  hold both classes;
- ``store_p10``: the store is every distinct keyword of the data, and a
  keyword is relevant to a query when the teacher's margin ``z[1] - z[0]``
  (``teacher_logits``, keyed by the data seed) is positive. P@10 is the share of
  relevant keywords in a query's top 10 by exact cosine over unit vectors,
  averaged over the first 100 distinct held-out queries. The teacher ranks
  by its margin.

A trained row also records the calibration fit folded into its head
(``history.calibration``), or ``diverged`` when training did. The output
file keeps one report per ``--label``; a run replaces its own label's:

    python3 scripts/quality_report.py --label after --out QUALITY.json
    PYTHONPATH=<other tree>/src python3 scripts/quality_report.py --label before --out QUALITY.json

A desk training takes about half a minute, so a seed takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from twinenc import (DistillationConfig, ModelConfig, TrainingDivergedError, TwinModel, distill_train,
                     finetune, roc_auc, soft_label)
from twinenc.metrics import binary_label
from twinenc.synthetic import generate_pairs, split_pairs, teacher_logits

SEEDS = (42, 7, 123)
STORE_QUERIES = 100
TOP = 10


def scores(model: TwinModel, records) -> np.ndarray:
    return model.score_pairs([r.query for r in records], [r.keyword for r in records])


def per_query_auc(scores, records) -> float:
    """Mean ROC-AUC over the queries of ``records`` whose pairs hold both classes."""
    by_query: dict[str, list[tuple[float, int]]] = {}
    for s, r in zip(scores, records):
        by_query.setdefault(r.query, []).append((float(s), binary_label(r.label)))
    aucs = [roc_auc(*zip(*pairs)) for pairs in by_query.values()
            if len({label for _, label in pairs}) == 2]
    return float(np.mean(aucs))


def unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def store_precision(model: TwinModel, queries: list[str], store: list[str], relevant: np.ndarray) -> float:
    """Mean share of relevant keywords in each query's top ``TOP`` of ``store`` by exact cosine."""
    sims = unit_rows(model.encode_queries(queries)) @ unit_rows(model.encode_keywords(store)).T
    return top_precision(sims, relevant)


def top_precision(sims: np.ndarray, relevant: np.ndarray) -> float:
    top = np.argsort(-sims, axis=1, kind="stable")[:, :TOP]
    return float(np.take_along_axis(relevant, top, axis=1).mean())


def store_bundle(pairs, test, seed: int) -> tuple[list[str], list[str], np.ndarray]:
    """(queries, store, teacher margins of every query against every store keyword)."""
    queries = list(dict.fromkeys(r.query for r in test))[:STORE_QUERIES]
    store = list(dict.fromkeys(p.keyword for p in pairs))
    z = teacher_logits([q for q in queries for _ in store], store * len(queries), seed=seed)
    return queries, store, (z[:, 1] - z[:, 0]).reshape(len(queries), len(store))


def quality(model: TwinModel, test, labels, queries, store, relevant) -> dict:
    s = scores(model, test)
    return {"auc": roc_auc(s, labels), "per_query_auc": per_query_auc(s, test),
            "store_p10": store_precision(model, queries, store, relevant)}


def report(seed: int, n_pairs: int = 5000, n_queries: int = 500, epochs: int = 20) -> dict:
    """Every row of one data seed; see the module docstring."""
    config = DistillationConfig(learning_rate=3e-4, epochs=epochs)
    pairs = generate_pairs(n_pairs, seed=seed, n_queries=n_queries)
    train, test = split_pairs(pairs, n_queries=n_queries)
    labels = [binary_label(r.label) for r in test]
    queries, store, margins = store_bundle(pairs, test, seed)
    relevant = margins > 0
    new = lambda head, **variant: TwinModel.initialize(ModelConfig(crossing=head, **variant), seed=0)

    def trained(name: str, phase, model: TwinModel) -> None:
        try:
            history = phase(train, config, model, seed=0)
            rows[name] = {**quality(model, test, labels, queries, store, relevant),
                          "calibration": history.calibration}
        except TrainingDivergedError as exc:
            rows[name] = {"diverged": str(exc)}
        print(f"seed {seed} {name}: {rows[name]}", file=sys.stderr)

    teacher = [soft_label(r.teacher_logits, config.temperature)[1] for r in test]
    rows = {"teacher": {"auc": roc_auc(teacher, labels), "per_query_auc": per_query_auc(teacher, test),
                        "store_p10": top_precision(margins, relevant)},
            "untrained": quality(new("cosine"), test, labels, queries, store, relevant)}
    for head in ("cosine", "residual"):
        model = new(head)
        trained(head, distill_train, model)
        trained(f"{head}, fine-tuned", finetune, model)
        trained(f"{head}, unshared", distill_train, new(head, shared_encoders=False))
        trained(f"{head}, cls_token", distill_train, new(head, pooling="cls_token"))
    return {"store_keywords": len(store), "store_queries": len(queries), "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the report's key in the output file")
    parser.add_argument("--out", type=Path, default=Path("QUALITY.json"))
    args = parser.parse_args(argv)
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {"reports": {}}
    doc["reports"][args.label] = {
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
        "seeds": {str(seed): report(seed) for seed in SEEDS},
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
