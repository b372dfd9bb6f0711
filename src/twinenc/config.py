"""Architecture and training hyperparameter containers."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

POOLING_MODES = ("weighted_average", "cls_token")
CROSSING_MODES = ("cosine", "residual")
# declared field type -> (the Python types it accepts, its name in an error)
_FIELD_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a real number"),
                "bool": ((bool,), "true or false")}


def _check_field_types(config) -> None:
    """Refuse a field of ``config`` whose value is not of its declared type. A JSON
    config file can hold ``64.0`` or ``true`` where a count belongs; a bool is no number."""
    for f in fields(config):
        kind = f.type.removesuffix(" | None")
        if kind not in _FIELD_TYPES:
            continue
        value = getattr(config, f.name)
        accepted, name = _FIELD_TYPES[kind]
        if not isinstance(value, accepted) or isinstance(value, bool) != (kind == "bool"):
            raise ValueError(f"{f.name} must be {name}, got {value!r}")


@dataclass
class ModelConfig:
    """Twin-encoder architecture hyperparameters.

    Defaults are the small desk-scale preset (2 layers, hidden 64, 2 heads)
    used throughout the tests; :meth:`large` gives the production-scale
    preset (6 layers, hidden 512, 8 heads, 50K trigram buckets). The
    feed-forward inner size defaults to the hidden size. ``vocab_buckets``
    and ``vocab_hash_seed`` define the model's hashed trigram vocabulary.
    """

    n_layers: int = 2
    hidden_size: int = 64
    n_heads: int = 2
    ffn_size: int | None = None
    vocab_buckets: int = 4096
    max_len: int = 16
    pooling: str = "weighted_average"
    crossing: str = "residual"
    shared_encoders: bool = True
    dropout: float = 0.1
    vocab_hash_seed: int = 0

    def __post_init__(self) -> None:
        if self.ffn_size is None:
            self.ffn_size = self.hidden_size
        _check_field_types(self)
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.hidden_size < 1 or self.n_heads < 1:
            raise ValueError("hidden_size and n_heads must be >= 1")
        if self.hidden_size % self.n_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by n_heads {self.n_heads}"
            )
        if self.vocab_buckets < 1:
            raise ValueError("vocab_buckets must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"pooling must be one of {POOLING_MODES}, got {self.pooling!r}")
        if self.pooling == "cls_token" and self.max_len < 2:
            raise ValueError("cls_token pooling needs max_len >= 2: the cls token takes one word slot")
        if self.crossing not in CROSSING_MODES:
            raise ValueError(f"crossing must be one of {CROSSING_MODES}, got {self.crossing!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not -(2**63) <= self.vocab_hash_seed < 2**63:
            raise ValueError(f"vocab_hash_seed must be a signed 64-bit integer, got {self.vocab_hash_seed!r}")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads

    @classmethod
    def large(cls, **overrides) -> ModelConfig:
        """Production-scale preset: L=6, H=512, A=8, 50K trigram buckets."""
        base = dict(n_layers=6, hidden_size=512, n_heads=8, vocab_buckets=50_000)
        base.update(overrides)
        return cls(**base)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> ModelConfig:
        """The config whose ``to_dict`` is ``raw``, which must name every field."""
        if missing := [f.name for f in fields(cls) if f.name not in raw]:
            raise ValueError(f"model settings missing: {missing}")
        return cls(**raw)


# preset name -> constructor of its ModelConfig
PRESETS = {"desk": ModelConfig, "large": ModelConfig.large}


@dataclass
class DistillationConfig:
    """Student-training hyperparameters.

    ``temperature`` softens the teacher logits; the optimizer is AdamW at Adam's
    own betas and epsilon (``training.BETA1``, ``BETA2``, ``ADAM_EPS``). ``batch_size``
    defaults to 64 for desk-scale runs (2048 is the production-scale setting).
    """

    temperature: float = 2.0
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    epochs: int = 10
    batch_size: int = 64
    finetune_learning_rate: float = 2e-5
    finetune_epochs: int = 2

    def __post_init__(self) -> None:
        _check_field_types(self)
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.learning_rate < 0 or self.finetune_learning_rate < 0:
            raise ValueError("learning rates must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> DistillationConfig:
        return cls(**raw)
