"""The twin model: two (possibly shared) encoders plus both crossing heads.

Checkpoints always carry both head parameter sets; ``config.crossing``
selects which one drives training and default scoring. Operation counters
track per-sequence encoder passes and per-pair crossing evaluations so the
benchmark can verify its caching contracts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import crossing
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ModelConfig
from .encoder import (
    PackedBatch,
    cast_params,
    encoder_backward,
    encoder_forward,
    encoder_param_shapes,
    encoder_prefixes,
    init_encoder_params,
    pack_sequences,
)
from .text import NORMALIZATION_VERSION, TokenSequence, TrigramVocab, encode_text

SERVING_DTYPE = np.float32  # the one dtype that score, search, encode-corpus and bench serve in


class OpCounters:
    """Named operation counts, reset between measurements; ``as_dict`` lists
    them in the order given. Models and indices each count their own names."""

    def __init__(self, *names: str):
        self._names = names
        self.reset()

    def reset(self) -> None:
        for name in self._names:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self._names}


@dataclass
class TwinModel:
    """``config`` and ``params``; the trigram vocabulary is built from ``config``."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    # per-sequence encoder passes and per-pair crossing evaluations
    counters: OpCounters = field(default_factory=lambda: OpCounters(
        "query_encoder_passes", "keyword_encoder_passes", "cross_encoder_passes", "crossing_evals"))
    vocab: TrigramVocab = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.vocab = TrigramVocab(bucket_count=self.config.vocab_buckets,
                                  hash_seed=self.config.vocab_hash_seed)

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int = 0) -> TwinModel:
        """Randomly initialized model; deterministic for a given seed."""
        rng = np.random.default_rng(seed)
        qp, kp = encoder_prefixes(config)
        params = init_encoder_params(config, rng, qp)
        if kp != qp:
            params.update(init_encoder_params(config, rng, kp))
        params.update(crossing.init_head_params(config.hidden_size, rng))
        return cls(config=config, params=params)

    # -- prefixes ----------------------------------------------------------

    @property
    def query_prefix(self) -> str:
        return encoder_prefixes(self.config)[0]

    @property
    def keyword_prefix(self) -> str:
        return encoder_prefixes(self.config)[1]

    @staticmethod
    def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every parameter ``initialize`` gives ``config``."""
        qp, kp = encoder_prefixes(config)
        shapes = encoder_param_shapes(config, qp)
        if kp != qp:
            shapes.update(encoder_param_shapes(config, kp))
        shapes.update(crossing.head_param_shapes(config.hidden_size))
        return shapes

    # -- tokenization ------------------------------------------------------

    def tokenize(self, text: str, max_len: int | None = None) -> TokenSequence:
        """Encode text, prefixing the reserved token in cls-pooling mode."""
        max_len = self.config.max_len if max_len is None else max_len
        cls_bucket = self.vocab.cls_bucket if self.config.pooling == "cls_token" else None
        return encode_text(text, self.vocab, max_len, prepend_bucket=cls_bucket)

    def tokenize_many(self, texts: list[str]) -> list[TokenSequence]:
        """One sequence per text; each distinct text is tokenized once and its
        repeats share that :class:`TokenSequence`."""
        seqs = {t: self.tokenize(t) for t in dict.fromkeys(texts)}
        return [seqs[t] for t in texts]

    # -- encoding ----------------------------------------------------------

    def encode_query_batch(self, batch: PackedBatch, *, rng=None):
        """(embeddings, backward cache). Given an ``rng``, dropout is drawn from
        it and the cache is kept for the backward; without one the cache is None."""
        emb, saved = encoder_forward(self.params, self.query_prefix, batch, self.config, rng=rng)
        self.counters.query_encoder_passes += batch.n_examples
        return emb, saved

    def encode_keyword_batch(self, batch: PackedBatch, *, rng=None):
        """(embeddings, backward cache). Given an ``rng``, dropout is drawn from
        it and the cache is kept for the backward; without one the cache is None."""
        emb, saved = encoder_forward(self.params, self.keyword_prefix, batch, self.config, rng=rng)
        self.counters.keyword_encoder_passes += batch.n_examples
        return emb, saved

    def encode_queries(self, texts: list[str]) -> np.ndarray:
        return self.encode_query_batch(pack_sequences(self.tokenize_many(texts)))[0]

    def encode_keywords(self, texts: list[str]) -> np.ndarray:
        return self.encode_keyword_batch(pack_sequences(self.tokenize_many(texts)))[0]

    def backward_query(self, d_emb, cache, batch: PackedBatch, grads: dict) -> None:
        encoder_backward(d_emb, cache, self.params, self.query_prefix, batch, self.config, grads)

    def backward_keyword(self, d_emb, cache, batch: PackedBatch, grads: dict) -> None:
        encoder_backward(d_emb, cache, self.params, self.keyword_prefix, batch, self.config, grads)

    # -- scoring -----------------------------------------------------------

    def score_embeddings(self, q_emb: np.ndarray, k_emb: np.ndarray,
                         head: str | None = None) -> np.ndarray:
        """Calibrated relevance probability for paired embedding rows."""
        probs = crossing.head_prob(head or self.config.crossing, q_emb, k_emb, self.params)
        self.counters.crossing_evals += int(np.asarray(probs).size)
        return probs

    def score_pairs(self, queries: list[str], keywords: list[str], head: str | None = None) -> np.ndarray:
        if len(queries) != len(keywords):
            raise ValueError("queries and keywords must pair up one to one")
        q_emb = self.encode_queries(queries)
        k_emb = self.encode_keywords(keywords)
        return self.score_embeddings(q_emb, k_emb, head=head)

    # -- persistence -------------------------------------------------------

    def checkpoint_header(self) -> dict:
        return {
            "kind": "twinenc-model",
            "model": self.config.to_dict(),
            "normalization": NORMALIZATION_VERSION,
        }

    def save(self, path: str | Path) -> None:
        save_checkpoint(path, self.params, self.checkpoint_header())

    @classmethod
    def load(cls, path: str | Path) -> TwinModel:
        """Load a checkpoint whose finite tensors match the model its own header describes."""
        params, header = load_checkpoint(path)
        if header.get("kind") != "twinenc-model":
            raise ValueError(f"not a model checkpoint: {path}")
        try:
            if header["normalization"] != NORMALIZATION_VERSION:
                raise ValueError(f"unsupported normalization tag: {header['normalization']!r}")
            config = ModelConfig.from_dict(header["model"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed model header: {exc!r}") from None
        expected = cls.param_shapes(config)
        for name in sorted(expected.keys() | params.keys()):
            want = f"shape {expected[name]}" if name in expected else "no tensor"
            got = f"shape {params[name].shape}" if name in params else "no tensor"
            if want != got:
                raise ValueError(f"{path}: tensor {name!r}: the file has {got}, "
                                 f"the header's model needs {want}")
            if not np.isfinite(params[name]).all():
                raise ValueError(f"{path}: tensor {name!r} has non-finite values")
        return cls(config=config, params=params)

    def cast(self, dtype) -> TwinModel:
        """Copy of this model with parameters cast to ``dtype`` (inference only).

        The copy counts its own operations.
        """
        return TwinModel(config=self.config, params=cast_params(self.params, dtype))
