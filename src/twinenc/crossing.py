"""Crossing heads: combine query and keyword embeddings into a score.

Two heads are provided. The cosine head calibrates cosine similarity with a
learned logistic layer and is the one compatible with nearest-neighbor
retrieval (unit-normalized embeddings turn cosine ranking into Euclidean
ranking). The residual head combines the two embeddings elementwise by max,
passes the result through a residual block, and applies a logistic output
layer; it is more expressive but must see both raw embeddings at score time.

Forward functions return logits; backward functions take d(loss)/d(logit)
and hand back gradients for both embeddings while accumulating head
parameter gradients. ``head_forward``, ``head_backward`` and ``head_prob``
dispatch on the head's name.
"""

from __future__ import annotations

import numpy as np

from .encoder import _linear_backward, _linear_forward, accumulate, gelu, gelu_and_grad, sigmoid, truncated_normal


# head -> the (weight, bias) of its final affine layer, which calibration rescales
CALIBRATION = {
    "cosine": ("cosine_head.scale", "cosine_head.bias"),
    "residual": ("residual_head.w_out", "residual_head.b_out"),
}


def _head_part(head: str, part: str):
    """``<head>_head_<part>``, looked up as a module global at each call so that
    a wrapper set on this module's attribute is the one called."""
    if head not in CALIBRATION:
        raise ValueError(f"unknown crossing head: {head!r}")
    return globals()[f"{head}_head_{part}"]


def head_forward(head: str, q: np.ndarray, k: np.ndarray, params: dict):
    """(logits, cache) of the head named ``head``."""
    return _head_part(head, "forward")(q, k, params)


def head_backward(head: str, d_logits: np.ndarray, cache: dict, params: dict, grads: dict):
    """(dq, dk) of the head named ``head``; accumulates its parameter gradients."""
    return _head_part(head, "backward")(d_logits, cache, params, grads)


def head_prob(head: str, q: np.ndarray, k: np.ndarray, params: dict) -> np.ndarray:
    """Calibrated relevance probability of the head named ``head``."""
    return _head_part(head, "prob")(q, k, params)


def head_param_shapes(hidden_size: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of both heads' parameters, in initialization order."""
    h = hidden_size
    return {
        "cosine_head.scale": (), "cosine_head.bias": (),
        "residual_head.w1": (h, h), "residual_head.b1": (h,),
        "residual_head.w2": (h, h), "residual_head.b2": (h,),
        "residual_head.w_out": (h,), "residual_head.b_out": (),
    }


def init_head_params(hidden_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Parameters for both heads; one model checkpoint carries both.

    The residual head's weights are truncated-normal, drawn in table order,
    and its biases zero. The cosine head's logit is a*cos + b, with the
    scale a starting at 4 and the bias b at 0; both stay learnable.
    """
    p = {name: np.zeros(shape) for name, shape in head_param_shapes(hidden_size).items()}
    for name in ("residual_head.w1", "residual_head.w2", "residual_head.w_out"):
        p[name] = truncated_normal(rng, p[name].shape)
    p["cosine_head.scale"] = np.asarray(4.0)
    return p


def _cosine_parts(q: np.ndarray, k: np.ndarray):
    """(cos, |q|, |k|) over the last axis; rejects zero-norm vectors."""
    nq = np.linalg.norm(q, axis=-1)
    nk = np.linalg.norm(k, axis=-1)
    if np.any(nq == 0) or np.any(nk == 0):
        raise ValueError("cosine similarity is undefined for zero-norm vectors")
    return (q * k).sum(axis=-1) / (nq * nk), nq, nk


def cosine(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Cosine similarity over the last axis; rejects zero-norm vectors."""
    return _cosine_parts(np.asarray(q), np.asarray(k))[0]


def cosine_head_forward(q: np.ndarray, k: np.ndarray, params: dict):
    """Calibrated cosine logit a*cos(q,k) + b. Returns (logits, cache)."""
    c, nq, nk = _cosine_parts(q, k)
    logits = params["cosine_head.scale"] * c + params["cosine_head.bias"]
    return logits, {"q": q, "k": k, "nq": nq, "nk": nk, "c": c}


def cosine_head_backward(d_logits: np.ndarray, cache: dict, params: dict, grads: dict):
    q, k, nq, nk, c = cache["q"], cache["k"], cache["nq"], cache["nk"], cache["c"]
    a = params["cosine_head.scale"]
    accumulate(grads, "cosine_head.scale", np.asarray((d_logits * c).sum()))
    accumulate(grads, "cosine_head.bias", np.asarray(d_logits.sum()))
    dc = (d_logits * a)[..., None]
    inv = 1.0 / (nq * nk)
    dq = dc * (k * inv[..., None] - (c / (nq * nq))[..., None] * q)
    dk = dc * (q * inv[..., None] - (c / (nk * nk))[..., None] * k)
    return dq, dk


def cosine_head_prob(q: np.ndarray, k: np.ndarray, params: dict) -> np.ndarray:
    logits, _ = cosine_head_forward(q, k, params)
    return sigmoid(logits)


def max_combine(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Elementwise maximum of two equal-shape embeddings."""
    q = np.asarray(q)
    k = np.asarray(k)
    if q.shape != k.shape:
        raise ValueError(f"shape mismatch in max combine: {q.shape} vs {k.shape}")
    return np.maximum(q, k)


def residual_head_forward(q: np.ndarray, k: np.ndarray, params: dict):
    """Residual head logit. Returns (logits, cache).

    x = max(q, k); y = W2 gelu(W1 x + b1) + b2 + x; logit = w_out . y + b_out.
    The embeddings are consumed raw (no normalization), so the max retains
    magnitude information.
    """
    x = max_combine(q, k)
    f1 = _linear_forward(x, params["residual_head.w1"], params["residual_head.b1"])
    g = gelu(f1)
    y = _linear_forward(g, params["residual_head.w2"], params["residual_head.b2"])
    y += x  # y = r + x, in r's own array
    logits = y @ params["residual_head.w_out"] + params["residual_head.b_out"]
    return logits, {"q": q, "k": k, "x": x, "f1": f1, "y": y}


def residual_head_backward(d_logits: np.ndarray, cache: dict, params: dict, grads: dict):
    q, k, x, y = cache["q"], cache["k"], cache["x"], cache["y"]
    dy = d_logits[..., None] * params["residual_head.w_out"]
    accumulate(grads, "residual_head.w_out", d_logits @ y if y.ndim > 1 else d_logits * y)
    accumulate(grads, "residual_head.b_out", np.asarray(d_logits.sum()))
    # y = r + x: dy flows into the second dense layer and straight on to x
    g, df1 = gelu_and_grad(cache["f1"])
    dg = _linear_backward(g, params["residual_head.w2"], dy, grads,
                          "residual_head.w2", "residual_head.b2")
    df1 *= dg  # dg * gelu'(f1): multiplication commutes, bit for bit
    dx = dy + _linear_backward(x, params["residual_head.w1"], df1, grads,
                               "residual_head.w1", "residual_head.b1")
    # max gradient routes to the larger input; exact ties go to the query side
    q_wins = q >= k
    dq = np.where(q_wins, dx, 0.0)
    dk = np.where(q_wins, 0.0, dx)
    return dq, dk


def residual_head_prob(q: np.ndarray, k: np.ndarray, params: dict) -> np.ndarray:
    logits, _ = residual_head_forward(q, k, params)
    return sigmoid(logits)

