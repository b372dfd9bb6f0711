"""twinenc: twin-encoder text retrieval with distillation training.

Query and keyword texts are encoded independently by (optionally shared)
transformer encoders over hashed character trigrams; a lightweight crossing
head turns the two embeddings into a relevance score. Keyword embeddings
can therefore be precomputed, stored, and searched with an approximate
nearest-neighbor graph, leaving only query encoding and crossing for
request time. Training distills a teacher's soft labels, optionally
followed by fine-tuning on hard labels. Training data of either kind is a
list of ``PairRecord``, whose constructor is the one check of a pair;
``metrics`` defines the label scale.
"""

from .config import DistillationConfig, ModelConfig
from .crossing import (
    cosine,
    cosine_head_prob,
    max_combine,
    residual_head_prob,
)
from .index import EmbeddingIndex, SearchResult, build_graph, encode_corpus, knn_approx, knn_exact
from .metrics import mean_ndcg, ndcg_at, roc_auc
from .model import OpCounters, TwinModel
from .synthetic import generate_pairs
from .text import TokenSequence, TrigramVocab, encode_text, normalize, word_trigrams
from .training import (
    PairRecord,
    TrainingDivergedError,
    ce_loss,
    distill_train,
    finetune,
    load_pair_tsv,
    soft_label,
)

__version__ = "0.1.0"

__all__ = [
    "DistillationConfig",
    "EmbeddingIndex",
    "ModelConfig",
    "OpCounters",
    "PairRecord",
    "SearchResult",
    "TokenSequence",
    "TrainingDivergedError",
    "TrigramVocab",
    "TwinModel",
    "build_graph",
    "ce_loss",
    "cosine",
    "cosine_head_prob",
    "distill_train",
    "encode_corpus",
    "encode_text",
    "finetune",
    "generate_pairs",
    "knn_approx",
    "knn_exact",
    "load_pair_tsv",
    "max_combine",
    "mean_ndcg",
    "ndcg_at",
    "normalize",
    "residual_head_prob",
    "roc_auc",
    "soft_label",
    "word_trigrams",
]
