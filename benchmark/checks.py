"""Correctness checks. Each returns a list of problems; empty means it passed."""

from __future__ import annotations

import math

import numpy as np

SCORE_TOL = 1e-6  # cached vs online scores, as in acceptance criterion 1


def rerank_counters(counts: dict, n_requests: int, sum_k: int) -> list[str]:
    """Cached serving encodes one query per request and no keywords."""
    problems = []
    if counts["keyword_encoder_passes"] != 0:
        problems.append(f"keyword_encoder_passes = {counts['keyword_encoder_passes']}, want 0")
    if counts["query_encoder_passes"] != n_requests:
        problems.append(f"query_encoder_passes = {counts['query_encoder_passes']}, want {n_requests}")
    if counts["crossing_evals"] != sum_k:
        problems.append(f"crossing_evals = {counts['crossing_evals']}, want {sum_k}")
    return problems


def cached_matches_online(model, store_texts: list[str], req, cached: np.ndarray) -> list[str]:
    """Scores from the cached store equal ``score_pairs`` on the raw texts."""
    rows = req.keyword_rows
    online = model.score_pairs([req.query] * len(rows), [store_texts[j] for j in rows], head=req.head)
    diff = float(np.max(np.abs(online - cached)))
    return [] if diff <= SCORE_TOL else [f"max |cached - online| = {diff:.3g} > {SCORE_TOL}"]


def ranked_results(results, known_ids: set[str], top_n: int) -> list[str]:
    """A search answer has ``top_n`` known ids, ranks 1..n and non-increasing scores."""
    problems = []
    if len(results) != top_n:
        problems.append(f"{len(results)} results, want {top_n}")
    unknown = [r.keyword_id for r in results if r.keyword_id not in known_ids]
    if unknown:
        problems.append(f"unknown ids {unknown[:3]}")
    if [r.rank for r in results] != list(range(1, len(results) + 1)):
        problems.append("ranks are not 1..n")
    scores = [r.cosine_score for r in results]
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append("scores increase down the ranking")
    return problems


class Scan:
    """Exact top-n by a numpy scan over the store as encoded.

    ``ids`` and ``vectors`` are the store before the graph build and the
    save/load round trip, so an index whose ids no longer match its vectors
    disagrees with the scan. Ties break by ascending id, as ``knn_exact``
    promises.
    """

    def __init__(self, ids: list[str], vectors: np.ndarray):
        self.ids = ids
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.id_rank = np.empty(len(ids), dtype=np.int64)
        self.id_rank[np.argsort(np.asarray(ids), kind="stable")] = np.arange(len(ids))

    def top(self, q: np.ndarray, top_n: int) -> tuple[list[str], np.ndarray]:
        scores = self.vectors @ np.asarray(q, dtype=np.float64)
        rows = np.lexsort((self.id_rank, -scores))[:top_n]
        return [self.ids[i] for i in rows], scores[rows]


def exact_matches_scan(results, q: np.ndarray, scan: Scan) -> list[str]:
    """``knn_exact`` returns the scan's ids and scores."""
    want, scores = scan.top(q, len(results))
    got = [r.keyword_id for r in results]
    if got != want:
        return [f"ids {got[:3]}... != scan {want[:3]}..."]
    diff = max(abs(r.cosine_score - s) for r, s in zip(results, scores))
    return [] if diff <= 1e-9 else [f"scores differ from the scan by {diff:.3g}"]


def recall_at(approx_ids: list[list[str]], queries: list[np.ndarray], scan: Scan,
              top_n: int) -> float:
    """Mean share of the exact top-n found by the approximate answers."""
    hits = sum(len(set(scan.top(q, top_n)[0]).intersection(got))
               for got, q in zip(approx_ids, queries))
    return hits / (top_n * len(approx_ids))


def training_converged(epoch_losses: list[float], initial_ce: float, final_ce: float,
                       epochs: int) -> list[str]:
    """Every epoch loss is finite and training lowered the mean CE on its pairs."""
    problems = []
    if len(epoch_losses) != epochs:
        problems.append(f"{len(epoch_losses)} epoch losses, want {epochs}")
    if not all(math.isfinite(x) for x in epoch_losses):
        problems.append(f"non-finite epoch loss in {epoch_losses}")
    if not final_ce < initial_ce:
        problems.append(f"mean CE {final_ce:.6f} after training is not below {initial_ce:.6f} before")
    return problems
