"""Finite-difference verification of the analytic gradients.

The analytic side is the hand-written backward pass; the numeric side is a
central difference of the full encode + crossing + loss pipeline. Both run
in float64 with dropout disabled, so agreement to ~1e-8 relative is normal
and anything past 1e-4 indicates a backprop bug.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from twinenc.encoder import RowGrad
from twinenc.model import TwinModel
from twinenc.training import pair_loss_and_grads

_REL_FLOOR = 1e-6


@dataclass
class GradCheckResult:
    name: str
    flat_index: int
    analytic: float
    numeric: float
    rel_error: float


def densify(g, shape) -> np.ndarray:
    """A gradient as a dense array of ``shape``."""
    if not isinstance(g, RowGrad):
        return np.asarray(g)
    out = np.zeros(shape, dtype=g.values.dtype)
    out[g.rows] = g.values
    return out


def pipeline_loss_and_grads(model: TwinModel, queries: list[str], keywords: list[str],
                            targets: np.ndarray, head: str):
    """Mean binary CE through encoders and ``head``, plus gradients, from a twin
    of ``model`` that crosses through ``head`` and shares its params dict, so
    the twin reads every perturbed entry of ``model.params``. The rng draws
    nothing at the checked models' dropout 0."""
    crossed = TwinModel(replace(model.config, crossing=head), model.params)
    return pair_loss_and_grads(crossed, crossed.tokenize_many(queries), crossed.tokenize_many(keywords),
                               targets, rng=np.random.default_rng(0))


def pipeline_loss(model: TwinModel, queries, keywords, targets, head: str) -> float:
    loss, _ = pipeline_loss_and_grads(model, queries, keywords, targets, head)
    return loss


def finite_difference_check(
    model: TwinModel,
    queries: list[str],
    keywords: list[str],
    targets: np.ndarray,
    head: str,
    n_params: int = 20,
    step: float = 1e-5,
    seed: int = 0,
) -> list[GradCheckResult]:
    """Compare analytic gradients against central differences.

    Samples ``n_params`` random scalar parameters among those the loss
    actually reaches (the inactive head is excluded). The relative error
    uses a small floor so near-zero gradients compare on absolute terms.
    """
    rng = np.random.default_rng(seed)
    _, grads = pipeline_loss_and_grads(model, queries, keywords, targets, head)
    names = sorted(grads)
    results: list[GradCheckResult] = []
    for _ in range(n_params):
        name = names[int(rng.integers(len(names)))]
        arr = model.params[name]
        flat = int(rng.integers(arr.size)) if arr.size > 1 else 0
        orig = float(arr.flat[flat])

        def _loss_with(value: float) -> float:
            arr.flat[flat] = value
            try:
                return pipeline_loss(model, queries, keywords, targets, head)
            finally:
                arr.flat[flat] = orig

        numeric = (_loss_with(orig + step) - _loss_with(orig - step)) / (2.0 * step)
        analytic = float(densify(grads[name], arr.shape).flat[flat])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), _REL_FLOOR)
        results.append(GradCheckResult(name, flat, analytic, numeric, rel))
    return results
