"""Ranking metrics: exact ROC-AUC and graded nDCG.

ROC-AUC is computed from rank statistics (ties count half), which matches
the pairwise-enumeration definition exactly. Its tie-averaged ranks come
from ``np.unique`` rather than ``scipy.stats.rankdata``, whose import adds
about 45 MB to every process that imports the package. nDCG ranks gains,
numbers in ranked order, with a log2(rank + 1) discount; rankings whose
ideal DCG is zero carry no signal and are reported as NaN so that
averages can exclude them.

The label scale is defined here and nowhere else: ``LABEL_GAINS`` gives
each editorial grade its linear gain (bad 0 to excellent 3), and
``LABEL_SCALE`` names the label cells the scale accepts, a grade or 0/1.
A label cell becomes a number only here: ``label_gain`` gives its gain
and ``binary_label`` its hard 0/1 target.
"""

from __future__ import annotations

import math

import numpy as np

LABEL_GAINS = {"bad": 0.0, "fair": 1.0, "good": 2.0, "excellent": 3.0}
LABEL_SCALE = "/".join(LABEL_GAINS) + " or 0/1"  # what a label cell holds, as errors name it


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


def label_gain(cell: str) -> float:
    """Gain of a label cell: a grade's, or 0 or 1 for the cell "0" or "1"."""
    return LABEL_GAINS[cell] if cell in LABEL_GAINS else float(binary_label(cell))


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


def ndcg_at(gains, position: int) -> float:
    """nDCG of one ranking's gains at a cutoff position.

    ``gains`` are in ranked order (best first as scored). Returns NaN when
    the ideal DCG is zero (every gain 0), which callers exclude from averages.
    """
    if len(gains) == 0:
        raise ValueError("ranking must be non-empty")
    idcg = dcg_at(sorted(gains, reverse=True), position)
    if idcg == 0.0:
        return float("nan")
    return dcg_at(gains, position) / idcg


def mean_ndcg(rankings, position: int) -> float:
    """Average nDCG over rankings of gains, excluding zero-IDCG rankings."""
    values = [ndcg_at(r, position) for r in rankings]
    if not values:
        raise ValueError("there are no rankings")
    kept = [v for v in values if not math.isnan(v)]
    if not kept:
        raise ValueError("every ranking had zero ideal DCG")
    return float(np.mean(kept))
