import numpy as np
import pytest

from twinenc import ModelConfig, TwinModel, encoder


@pytest.fixture(scope="session")
def tiny_config():
    """Minimal architecture for fast unit tests."""
    return ModelConfig(
        n_layers=1, hidden_size=16, n_heads=2, vocab_buckets=256, max_len=6, dropout=0.0
    )


@pytest.fixture(scope="session")
def tiny_model(tiny_config):
    return TwinModel.initialize(tiny_config, seed=0)


@pytest.fixture(scope="session")
def desk_model():
    return TwinModel.initialize(ModelConfig(dropout=0.0), seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def garbage_in_padding(monkeypatch):
    """A switch: once called, the embedding step that ``encoder_forward``
    runs also writes finite garbage (normal, std 1e3) into every padded
    slot. The call returns the list of padded-slot counts it fills."""
    filled: list[int] = []
    embed = encoder.embed_forward
    garbage = np.random.default_rng(99)

    def embed_with_garbage(params, prefix, batch):
        x = embed(params, prefix, batch)
        pad = ~batch.mask
        x[pad] = 1e3 * garbage.standard_normal((int(pad.sum()), x.shape[-1]))
        filled.append(int(pad.sum()))
        return x

    def switch_on() -> list[int]:
        monkeypatch.setattr(encoder, "embed_forward", embed_with_garbage)
        return filled

    return switch_on
