import numpy as np
import pytest

from twinenc import ModelConfig, TwinModel, encoder
from twinenc.checkpoint import pack_str, write_preamble
from twinenc.index import INDEX_FORMAT_VERSION, INDEX_MAGIC


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


@pytest.fixture
def raw_f64_store(tmp_path):
    """Path of a well-formed TWIX file holding a float64 store under the
    ``raw_f64`` metric, which no reader takes."""
    header = {"n": 4, "dim": 3, "metric": "raw_f64", "degree_bound": None, "build_beam": None,
              "entry_point": 0}
    path = tmp_path / "raw.twix"
    path.write_bytes(b"".join([*write_preamble(INDEX_MAGIC, INDEX_FORMAT_VERSION, header),
                               np.random.default_rng(1).standard_normal((4, 3)).astype("<f8").tobytes(),
                               *(pack_str(kid) for kid in "abcd")]))
    return path
