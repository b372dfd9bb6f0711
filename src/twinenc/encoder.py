"""Twin encoder internals: embedding layer, transformer stack, pooling.

Everything is plain numpy with explicit backward passes. Training runs in
float64 (the finite-difference tests depend on it); serving runs in float32
(``model.SERVING_DTYPE``) on a parameter dict cast with :func:`cast_params`.

Parameters live in a flat ``dict[str, np.ndarray]`` keyed by dotted names
under an encoder prefix (``encoder`` when the two encoders share weights,
``query_encoder`` / ``keyword_encoder`` otherwise). Gradients accumulate
into a dict with the same keys, so a shared encoder automatically sums the
contributions of both sides. A token table's gradient is row-sparse, a
:class:`RowGrad` holding only the rows the batch touched; every other
gradient is a dense array.

A batch is a :class:`PackedBatch`: flat trigram buckets, word starts and
the (B, T) mask; the embedding sums each word's buckets into its real slot.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ModelConfig
from .text import TokenSequence


def _load_erf():
    """scipy's ``erf`` ufunc, loaded from its own extension module.

    ``import scipy.special`` runs the package ``__init__``, whose array-API
    layer pulls in ``numpy.testing``, ``unittest``, ``email`` and ``pydoc``:
    about 25 MB of RSS that the GELU never uses. The ufunc lives in
    ``scipy/special/_special_ufuncs``, which needs only numpy. The extension
    registers itself in ``sys.modules`` under its full name, so the object
    returned *is* ``scipy.special.erf`` in either import order.
    """
    name = "scipy.special._special_ufuncs"
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("twinenc needs scipy, which is not installed")
    dirs = [os.path.join(d, "special") for d in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, dirs)
    if spec is not None:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if hasattr(module, "erf"):
            return module.erf
    import scipy

    raise ImportError(f"no erf ufunc in {name} under {dirs} (scipy {scipy.__version__})")


erf = _load_erf()

# plain Python floats: they must not promote float32 activations to float64
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-12


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact Gaussian-error nonlinearity x * Phi(x), as (0.5 x)(1 + erf(x / sqrt 2))."""
    t = x * _INV_SQRT2
    erf(t, out=t)
    t += 1.0
    y = 0.5 * x
    y *= t
    return y


def gelu_and_grad(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``gelu(x)``, its derivative Phi(x) + x phi(x)) from one ``erf`` evaluation.

    ``gelu(x)`` comes out bit for bit as :func:`gelu` computes it, so a
    backward can rebuild the activation instead of keeping it.
    """
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    y = 0.5 * x
    y *= cdf
    cdf *= 0.5  # Phi(x)
    x_phi = -0.5 * x
    x_phi *= x
    np.exp(x_phi, out=x_phi)
    x_phi *= _INV_SQRT_2PI
    x_phi *= x
    cdf += x_phi
    return y, cdf


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


INIT_STD = 0.02


def truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, ``INIT_STD``) samples rejected outside +/- 2 ``INIT_STD``."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    flat = out.reshape(-1)
    lim = 2.0 * INIT_STD
    idx = np.flatnonzero((flat > lim) | (flat < -lim))  # np.abs(out) would be a float64 copy of out
    while idx.size:  # redraw, in index order, only the entries still outside
        flat[idx] = redrawn = rng.normal(0.0, INIT_STD, size=idx.size)
        idx = idx[(redrawn > lim) | (redrawn < -lim)]
    return out


def masked_softmax(scores: np.ndarray, key_mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with masked entries given exactly 0 weight.

    ``key_mask`` broadcasts against the last axis; every row must have at
    least one unmasked entry.
    """
    e = np.where(key_mask, scores, -np.inf)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def encoder_prefixes(config: ModelConfig) -> tuple[str, str]:
    """(query_prefix, keyword_prefix); identical when encoders are shared."""
    if config.shared_encoders:
        return "encoder", "encoder"
    return "query_encoder", "keyword_encoder"


def encoder_param_shapes(config: ModelConfig, prefix: str) -> dict[str, tuple[int, ...]]:
    """Name -> shape of one encoder's parameters, in initialization order.

    The token table has one extra row beyond the trigram buckets, reserved
    for the classification token.
    """
    h, f = config.hidden_size, config.ffn_size
    shapes = {f"{prefix}.tok_emb": (config.vocab_buckets + 1, h), f"{prefix}.pos_emb": (config.max_len, h)}
    for layer in range(config.n_layers):
        lp = f"{prefix}.layers.{layer}"
        shapes.update({f"{lp}.attn.{n}": (h, h) for n in ("wq", "wk", "wv", "wo")})
        shapes.update({f"{lp}.attn.{n}": (h,) for n in ("bq", "bk", "bv", "bo")})
        shapes.update({f"{lp}.ln1.g": (h,), f"{lp}.ln1.b": (h,),
                       f"{lp}.ffn.w1": (h, f), f"{lp}.ffn.b1": (f,),
                       f"{lp}.ffn.w2": (f, h), f"{lp}.ffn.b2": (h,),
                       f"{lp}.ln2.g": (h,), f"{lp}.ln2.b": (h,)})
    shapes.update({f"{prefix}.pool.w": (h,), f"{prefix}.pool.b": ()})
    return shapes


def init_encoder_params(
    config: ModelConfig, rng: np.random.Generator, prefix: str
) -> dict[str, np.ndarray]:
    """Fresh encoder parameters under ``prefix``.

    Truncated-normal (std 0.02) for the matrices (embeddings and
    projections), drawn in table order; ones for layer-norm gains and zeros
    for the rest. The pooling scorer starts at zero so weighted-average
    pooling begins as exact mean pooling.
    """
    p: dict[str, np.ndarray] = {}
    for name, shape in encoder_param_shapes(config, prefix).items():
        if len(shape) == 2:
            p[name] = truncated_normal(rng, shape)
        elif name.endswith((".ln1.g", ".ln2.g")):
            p[name] = np.ones(shape)
        else:
            p[name] = np.zeros(shape)
    return p


def cast_params(params: dict[str, np.ndarray], dtype) -> dict[str, np.ndarray]:
    """A copy of ``params`` in ``dtype``: each tensor is a new array, sharing no memory."""
    return {k: np.array(v, dtype=dtype) for k, v in params.items()}


class RowGrad(NamedTuple):
    """Gradient of a table that is zero outside ``rows`` (sorted, unique)."""

    rows: np.ndarray
    values: np.ndarray  # (len(rows), row width)


def sum_rows(rows: np.ndarray, values: np.ndarray) -> RowGrad:
    """Add up the ``values`` rows that share a row index.

    The sort is stable, so each row's sum runs in input order, as
    ``np.add.at`` into a zero table would.
    """
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    return RowGrad(rows[starts], np.add.reduceat(values[order], starts, axis=0))


def accumulate(grads: dict, name: str, g) -> None:
    if name not in grads:
        grads[name] = g
    elif isinstance(g, RowGrad):  # rows are unique per side, so each merged row is old + new
        old = grads[name]
        grads[name] = sum_rows(np.concatenate([old.rows, g.rows]),
                               np.concatenate([old.values, g.values]))
    else:
        grads[name] = grads[name] + g


# ---------------------------------------------------------------------------
# Batch packing
# ---------------------------------------------------------------------------

@dataclass
class PackedBatch:
    """A batch of ragged sequences: flat trigram buckets, word starts and a mask.

    ``bucket_ids`` concatenates the trigram buckets of the batch's words in
    order, and ``word_starts[j]`` is where word j starts in it. ``mask``
    (B, T) marks each example's real slots, padded to the longest sequence.
    Real slots come first in each row, so the mask's true entries in
    row-major order are the batch's words in order. Padded slots own no
    buckets, so they hold no content.
    """

    bucket_ids: np.ndarray
    word_starts: np.ndarray
    mask: np.ndarray  # (B, T) bool

    @property
    def n_examples(self) -> int:
        return self.mask.shape[0]

    @property
    def seq_len(self) -> int:
        return self.mask.shape[1]


def pack_sequences(seqs: list[TokenSequence]) -> PackedBatch:
    """Pack ragged sequences of word bucket tuples, padding only to the longest one in the batch."""
    if not seqs:
        raise ValueError("cannot pack an empty batch")
    lengths = [len(s) for s in seqs]
    if min(lengths) < 1:
        raise ValueError("every sequence must contain at least one unmasked token")
    buckets: list[int] = []
    word_starts: list[int] = []
    for s in seqs:
        for word in s:
            word_starts.append(len(buckets))
            buckets.extend(word)
    return PackedBatch(
        bucket_ids=np.array(buckets, dtype=np.int64),
        word_starts=np.array(word_starts, dtype=np.int64),
        mask=np.arange(max(lengths)) < np.array(lengths)[:, None],
    )


# ---------------------------------------------------------------------------
# Embedding layer
# ---------------------------------------------------------------------------

def embed_forward(params: dict, prefix: str, batch: PackedBatch):
    """Input embeddings: per-word trigram-bucket sum plus position embedding."""
    tok_emb = params[f"{prefix}.tok_emb"]
    pos_emb = params[f"{prefix}.pos_emb"]
    b, t = batch.mask.shape
    if t > pos_emb.shape[0]:
        raise ValueError(
            f"sequence length {t} exceeds position table size {pos_emb.shape[0]}"
        )
    x = np.zeros((b, t, tok_emb.shape[1]), dtype=tok_emb.dtype)
    x[batch.mask] = np.add.reduceat(tok_emb[batch.bucket_ids], batch.word_starts, axis=0)
    x += pos_emb[:t]
    return x


def embed_backward(params: dict, prefix: str, batch: PackedBatch, dx: np.ndarray, grads: dict) -> None:
    """Position-table gradient, dense; token-table gradient, a :class:`RowGrad` of the batch's buckets."""
    d_pos = np.zeros_like(params[f"{prefix}.pos_emb"])
    d_pos[:batch.seq_len] = dx.sum(axis=0)
    accumulate(grads, f"{prefix}.pos_emb", d_pos)
    word_sizes = np.diff(batch.word_starts, append=batch.bucket_ids.size)
    accumulate(grads, f"{prefix}.tok_emb",
               sum_rows(batch.bucket_ids, np.repeat(dx[batch.mask], word_sizes, axis=0)))


# ---------------------------------------------------------------------------
# Transformer layer
# ---------------------------------------------------------------------------

def _linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    y = x @ w
    y += b
    return y


def _linear_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray, grads: dict, wname: str, bname: str):
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    accumulate(grads, wname, x2.T @ dy2)
    accumulate(grads, bname, dy2.sum(axis=0))
    return dy @ w.T


def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``, bit for bit, without ``np.mean``'s
    Python wrapper, which a batch-1 forward pays for in every layernorm."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layernorm_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    xhat = x - _mean_last(x)
    inv_std = 1.0 / np.sqrt(_mean_last(xhat * xhat) + _LN_EPS)
    xhat *= inv_std
    return _layernorm_affine(xhat, g, b), (xhat, inv_std)


def _layernorm_affine(xhat: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The layernorm output ``g * xhat + b``; its backward rebuilds it from ``xhat``."""
    out = g * xhat
    out += b
    return out


def _layernorm_backward(dy: np.ndarray, cache, g: np.ndarray, grads: dict, gname: str, bname: str):
    xhat, inv_std = cache
    accumulate(grads, gname, (dy * xhat).sum(axis=tuple(range(dy.ndim - 1))))
    accumulate(grads, bname, dy.sum(axis=tuple(range(dy.ndim - 1))))
    dxhat = dy * g
    mean1 = _mean_last(dxhat)
    mean2 = _mean_last(dxhat * xhat)
    return inv_std * (dxhat - mean1 - xhat * mean2)


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, t, h = x.shape
    return x.reshape(b, t, n_heads, h // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, a, t, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, a * d)


def _dropout_scale(keep: np.ndarray, rate: float, dtype) -> np.ndarray:
    """The float dropout mask, 0 or 1/(1-rate), that forward and backward
    both rebuild from the boolean ``keep`` mask the cache holds."""
    return keep.astype(dtype) / (1.0 - rate)


def _dropped(d: np.ndarray, keep: np.ndarray | None, rate: float) -> np.ndarray:
    """``d`` times the dropout mask drawn as ``keep``; ``d`` itself when none was drawn."""
    return d if keep is None else d * _dropout_scale(keep, rate, d.dtype)


def _keep(cache: dict | None, **arrays) -> None:
    """Stash ``arrays`` in the backward cache, if one is being built."""
    if cache is not None:
        cache.update(arrays)


def layer_forward(
    x: np.ndarray,
    mask: np.ndarray,
    params: dict,
    lp: str,
    config: ModelConfig,
    *,
    rng: np.random.Generator | None = None,
):
    """One post-norm transformer block: self-attention then feed-forward.

    ``mask`` (B, T) excludes padding slots from attention as keys, so masked
    content can never reach unmasked outputs. A forward given an ``rng`` is
    a training forward: it draws dropout at ``config.dropout`` (nothing at
    rate 0) and returns (output, backward cache), the cache holding each
    dropout mask as a boolean array. Without an rng nothing is drawn, the
    cache is None and each intermediate is dropped as soon as the next op
    has used it. Bias adds, softmax, GELU, layernorm and the residual sums
    run in arrays this forward allocated, never in an argument.

    A training cache keeps only what :func:`layer_backward` cannot rebuild
    exactly in a few elementwise ops or one small matmul: ``x``, the
    attention's ``qh``, ``kh``, ``vh`` and ``probs``, each layernorm's
    ``xhat`` and ``inv_std``, ``f1`` and the dropout masks. The dropped-out
    ``probs_d``, the context ``ctx``, the layernorm output ``x1`` and the
    GELU output ``g`` are recomputed by the backward, bit for bit, with
    the forward's own op sequence. Raises on non-finite input.
    """
    if not np.isfinite(x).all():
        raise ValueError("non-finite values in transformer layer input")
    rate = 0.0 if rng is None else config.dropout
    a = config.n_heads
    scale = 1.0 / math.sqrt(config.head_dim)
    saved = None if rng is None else {"x": x, "scale": scale}

    qh = _split_heads(_linear_forward(x, params[f"{lp}.attn.wq"], params[f"{lp}.attn.bq"]), a)
    kh = _split_heads(_linear_forward(x, params[f"{lp}.attn.wk"], params[f"{lp}.attn.bk"]), a)
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores *= scale
    probs = masked_softmax(scores, mask[:, None, None, :])
    _keep(saved, qh=qh, kh=kh)
    del qh, kh, scores
    vh = _split_heads(_linear_forward(x, params[f"{lp}.attn.wv"], params[f"{lp}.attn.bv"]), a)
    attn_keep = rng.random(probs.shape) >= rate if rate > 0.0 else None
    ctx = _merge_heads(_dropped(probs, attn_keep, rate) @ vh)
    _keep(saved, vh=vh, probs=probs, attn_keep=attn_keep)
    del vh, probs, attn_keep
    attn_out = _linear_forward(ctx, params[f"{lp}.attn.wo"], params[f"{lp}.attn.bo"])
    del ctx
    out_keep = rng.random(attn_out.shape) >= rate if rate > 0.0 else None
    if out_keep is not None:
        attn_out *= _dropout_scale(out_keep, rate, x.dtype)

    attn_out += x  # x + attn_out: addition commutes, bit for bit
    x1, ln1 = _layernorm_forward(attn_out, params[f"{lp}.ln1.g"], params[f"{lp}.ln1.b"])
    del attn_out
    f1 = _linear_forward(x1, params[f"{lp}.ffn.w1"], params[f"{lp}.ffn.b1"])
    g = gelu(f1)
    _keep(saved, out_keep=out_keep, ln1=ln1, f1=f1)
    del out_keep, ln1, f1
    f2 = _linear_forward(g, params[f"{lp}.ffn.w2"], params[f"{lp}.ffn.b2"])
    del g
    ffn_keep = rng.random(f2.shape) >= rate if rate > 0.0 else None
    if ffn_keep is not None:
        f2 *= _dropout_scale(ffn_keep, rate, x.dtype)

    f2 += x1
    x2, ln2 = _layernorm_forward(f2, params[f"{lp}.ln2.g"], params[f"{lp}.ln2.b"])
    _keep(saved, ffn_keep=ffn_keep, ln2=ln2)
    return x2, saved


def layer_backward(dx2: np.ndarray, cache: dict, params: dict, lp: str, config: ModelConfig, grads: dict) -> np.ndarray:
    """Backward of :func:`layer_forward`; pops each cached array at its last read
    and rebuilds ``g``, ``x1``, ``ctx`` and ``probs_d`` just before their reads."""
    a, rate = config.n_heads, config.dropout

    d_sum2 = _layernorm_backward(dx2, cache.pop("ln2"), params[f"{lp}.ln2.g"], grads, f"{lp}.ln2.g", f"{lp}.ln2.b")
    dx1 = d_sum2.copy()
    df2 = _dropped(d_sum2, cache.pop("ffn_keep"), rate)
    g, df1 = gelu_and_grad(cache.pop("f1"))
    dg = _linear_backward(g, params[f"{lp}.ffn.w2"], df2, grads, f"{lp}.ffn.w2", f"{lp}.ffn.b2")
    del g, df2
    df1 *= dg  # dg * gelu'(f1): multiplication commutes, bit for bit
    del dg
    ln1 = cache.pop("ln1")
    x1 = _layernorm_affine(ln1[0], params[f"{lp}.ln1.g"], params[f"{lp}.ln1.b"])
    dx1 += _linear_backward(x1, params[f"{lp}.ffn.w1"], df1, grads, f"{lp}.ffn.w1", f"{lp}.ffn.b1")
    del x1, df1

    d_sum1 = _layernorm_backward(dx1, ln1, params[f"{lp}.ln1.g"], grads, f"{lp}.ln1.g", f"{lp}.ln1.b")
    del dx1, ln1
    dx = d_sum1.copy()
    d_attn_out = _dropped(d_sum1, cache.pop("out_keep"), rate)
    probs, vh, attn_keep = cache.pop("probs"), cache.pop("vh"), cache.pop("attn_keep")
    probs_d = _dropped(probs, attn_keep, rate)
    ctx = _merge_heads(probs_d @ vh)
    d_ctx = _linear_backward(ctx, params[f"{lp}.attn.wo"], d_attn_out, grads, f"{lp}.attn.wo", f"{lp}.attn.bo")
    del ctx, d_attn_out

    d_ctx_h = _split_heads(d_ctx, a)
    d_vh = probs_d.transpose(0, 1, 3, 2) @ d_ctx_h
    del probs_d
    d_probs = _dropped(d_ctx_h @ vh.transpose(0, 1, 3, 2), attn_keep, rate)
    del vh, attn_keep
    # softmax backward; masked entries have probs == 0 so receive no gradient
    d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
    d_scores *= cache.pop("scale")

    d_qh = d_scores @ cache.pop("kh")
    d_kh = d_scores.transpose(0, 1, 3, 2) @ cache.pop("qh")

    x = cache.pop("x")
    dx += _linear_backward(x, params[f"{lp}.attn.wq"], _merge_heads(d_qh), grads, f"{lp}.attn.wq", f"{lp}.attn.bq")
    dx += _linear_backward(x, params[f"{lp}.attn.wk"], _merge_heads(d_kh), grads, f"{lp}.attn.wk", f"{lp}.attn.bk")
    dx += _linear_backward(x, params[f"{lp}.attn.wv"], _merge_heads(d_vh), grads, f"{lp}.attn.wv", f"{lp}.attn.bv")
    return dx


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def pool_forward(hidden: np.ndarray, mask: np.ndarray, params: dict, prefix: str, mode: str):
    """Collapse final hidden vectors into one sentence embedding per example.

    weighted_average: softmax over a learned per-token score, restricted to
    unmasked slots (weights sum to 1 there). cls_token: the slot-0 hidden
    vector; the sequence must have been prefixed with the reserved token.
    """
    if not mask.any(axis=1).all():
        raise ValueError("pooling requires at least one unmasked position per example")
    if mode == "cls_token":
        if not mask[:, 0].all():
            raise ValueError("cls_token pooling requires the reserved token at slot 0")
        return hidden[:, 0, :], {"mode": mode}
    if mode != "weighted_average":
        raise ValueError(f"unknown pooling mode: {mode!r}")
    w = params[f"{prefix}.pool.w"]
    b = params[f"{prefix}.pool.b"]
    scores = hidden @ w + b  # (B, T)
    alpha = masked_softmax(scores, mask)
    emb = (alpha[..., None] * hidden).sum(axis=1)
    return emb, {"mode": mode, "hidden": hidden, "alpha": alpha}


def pool_backward(d_emb: np.ndarray, cache: dict, params: dict, prefix: str, grads: dict, seq_shape) -> np.ndarray:
    if cache["mode"] == "cls_token":
        d_hidden = np.zeros(seq_shape, dtype=d_emb.dtype)
        d_hidden[:, 0, :] = d_emb
        return d_hidden
    hidden, alpha = cache["hidden"], cache["alpha"]
    w = params[f"{prefix}.pool.w"]
    g = np.einsum("bth,bh->bt", hidden, d_emb)
    d_scores = alpha * (g - (alpha * g).sum(axis=1, keepdims=True))
    d_hidden = alpha[..., None] * d_emb[:, None, :] + d_scores[..., None] * w[None, None, :]
    accumulate(grads, f"{prefix}.pool.w", np.einsum("bt,bth->h", d_scores, hidden))
    accumulate(grads, f"{prefix}.pool.b", d_scores.sum())
    return d_hidden


# ---------------------------------------------------------------------------
# Full encoder
# ---------------------------------------------------------------------------

def encoder_forward(
    params: dict,
    prefix: str,
    batch: PackedBatch,
    config: ModelConfig,
    *,
    rng: np.random.Generator | None = None,
):
    """Embed, run the transformer stack, pool. Returns (embeddings, cache).
    Given an ``rng``, the forward draws dropout from it and the cache is for
    one :func:`encoder_backward`, which empties it; without one, nothing is
    drawn, no layer keeps its activations and the cache is None."""
    x = embed_forward(params, prefix, batch)
    layer_caches = []
    for layer in range(config.n_layers):
        x, saved = layer_forward(x, batch.mask, params, f"{prefix}.layers.{layer}", config, rng=rng)
        layer_caches.append(saved)
    emb, pool_cache = pool_forward(x, batch.mask, params, prefix, config.pooling)
    if rng is None:
        return emb, None
    return emb, {"layers": layer_caches, "pool": pool_cache, "final_shape": x.shape}


def encoder_backward(
    d_emb: np.ndarray,
    cache: dict,
    params: dict,
    prefix: str,
    batch: PackedBatch,
    config: ModelConfig,
    grads: dict,
) -> None:
    """Accumulate the encoder's gradients into ``grads``, consuming ``cache``.

    The pool cache is popped first, then each layer's cache, top layer
    first, so each activation is freed once its own backward has read it.
    A training step runs the query tower's backward first, so its
    activations are gone before the keyword tower's backward starts. The
    emptied cache cannot be used again.
    """
    dx = pool_backward(d_emb, cache.pop("pool"), params, prefix, grads, cache["final_shape"])
    layers = cache["layers"]
    for layer in reversed(range(config.n_layers)):
        dx = layer_backward(dx, layers.pop(), params, f"{prefix}.layers.{layer}", config, grads)
    embed_backward(params, prefix, batch, dx, grads)
