"""Ranking metrics: exact ROC-AUC and graded nDCG.

ROC-AUC is computed from rank statistics (ties count half), which matches
the pairwise-enumeration definition exactly. Its tie-averaged ranks come
from ``np.unique`` rather than ``scipy.stats.rankdata``, whose import adds
about 45 MB to every process that imports the package. nDCG uses a
log2(rank + 1) discount and one gain, the linear grade gain of the
four-level label scale (``LABEL_GAINS``: bad 0 to excellent 3); rankings
whose ideal DCG is zero carry no signal and are reported as NaN so that
averages can exclude them.

The label scale is defined here and nowhere else: ``LABEL_GAINS`` gives
each editorial grade its gain, and ``binary_label`` maps a label cell
(a grade, or 0/1) to its hard 0/1 target.
"""

from __future__ import annotations

import math

import numpy as np

LABEL_GAINS = {"bad": 0.0, "fair": 1.0, "good": 2.0, "excellent": 3.0}


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative.

    Exact rank-statistic computation; tied scores contribute 0.5 per pair.
    Requires both classes to be present and no NaN score; +/-inf rank as
    ordinary values.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-d sequences")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if np.isnan(scores).any():
        raise ValueError("scores contain NaN")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC-AUC needs at least one positive and one negative")
    # a tie group ending at rank c takes the mean rank c - (count - 1) / 2;
    # ranks are integers or halves, so the sum below is exact
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def label_gain(label) -> float:
    """Gain of a relevance label: a grade, the label cell "0" or "1", or a numeric grade."""
    if isinstance(label, str):
        return LABEL_GAINS[label] if label in LABEL_GAINS else float(binary_label(label))
    g = float(label)
    if g < 0:
        raise ValueError("numeric gains must be >= 0")
    return g


def binary_label(label) -> int:
    """Hard target of a label cell: ``bad`` and ``0`` are 0, every other grade and ``1`` are 1."""
    if label in LABEL_GAINS:
        return int(LABEL_GAINS[label] > 0.0)
    if label in ("0", "1"):
        return int(label)
    raise ValueError(f"bad label {label!r}")


def dcg_at(gains, position: int) -> float:
    if position < 1:
        raise ValueError(f"position must be >= 1, got {position}")
    total = 0.0
    for i, g in enumerate(gains[:position]):
        total += g / math.log2(i + 2)
    return total


def ndcg_at(ranked_labels, position: int) -> float:
    """nDCG of one ranked label list at a cutoff position.

    ``ranked_labels`` is the label sequence in ranked order (best first as
    scored). Returns NaN when the ideal DCG is zero (an all-bad ranking),
    which callers exclude from averages.
    """
    if position < 1:
        raise ValueError(f"position must be >= 1, got {position}")
    if len(ranked_labels) == 0:
        raise ValueError("ranking must be non-empty")
    gains = [label_gain(lab) for lab in ranked_labels]
    ideal = sorted(gains, reverse=True)
    idcg = dcg_at(ideal, position)
    if idcg == 0.0:
        return float("nan")
    return dcg_at(gains, position) / idcg


def mean_ndcg(rankings, position: int) -> float:
    """Average nDCG over queries, excluding zero-IDCG rankings."""
    values = [ndcg_at(r, position) for r in rankings]
    kept = [v for v in values if not math.isnan(v)]
    if not kept:
        raise ValueError("every ranking had zero ideal DCG")
    return float(np.mean(kept))
