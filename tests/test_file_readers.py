"""Malformed binary files: every reader fails with a ValueError naming the file.

A small checkpoint, a small graph index and a small raw store are cut at
every prefix length and flipped at random single bytes. Each damaged file
must either load or raise a ``ValueError`` whose message contains its path;
``struct.error``, ``KeyError``, ``IndexError`` or ``TypeError`` fail the test
by propagating.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twinenc import ModelConfig, TwinModel
from twinenc.index import METRIC_RAW, EmbeddingIndex, build_graph


def _checkpoint_bytes(tmp_path):
    cfg = ModelConfig(n_layers=1, hidden_size=2, n_heads=1, vocab_buckets=4, max_len=2, dropout=0.0)
    TwinModel.initialize(cfg, seed=0).save(tmp_path / "model.ckpt")
    return (tmp_path / "model.ckpt").read_bytes()


def _graph_index_bytes(tmp_path):
    rng = np.random.default_rng(0)
    v = rng.standard_normal((12, 4))
    v = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
    build_graph(EmbeddingIndex(ids=[f"k{i}" for i in range(12)], vectors=v), 4, 8).save(tmp_path / "g.twix")
    return (tmp_path / "g.twix").read_bytes()


def _raw_store_bytes(tmp_path):
    rng = np.random.default_rng(1)
    EmbeddingIndex(ids=list("abcd"), vectors=rng.standard_normal((4, 3)), metric=METRIC_RAW).save(
        tmp_path / "raw.twix")
    return (tmp_path / "raw.twix").read_bytes()


FORMATS = {
    "checkpoint": (_checkpoint_bytes, TwinModel.load),
    "graph_index": (_graph_index_bytes, EmbeddingIndex.load),
    "raw_store": (_raw_store_bytes, EmbeddingIndex.load),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("originals")
    return {name: make(tmp) for name, (make, _) in FORMATS.items()}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


def _loads_or_names_path(load, path, data) -> bool:
    """True when ``data`` loads; a ValueError must name ``path``."""
    path.write_bytes(data)
    try:
        load(path)
    except ValueError as exc:
        assert str(path) in str(exc), f"{exc!r} does not name {path}"
        return False
    return True


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_truncation_fails_naming_the_file(fmt, originals, scratch):
    data, load = originals[fmt], FORMATS[fmt][1]
    path = scratch / f"cut.{fmt}"
    assert _loads_or_names_path(load, path, data)
    for cut in range(len(data)):
        assert not _loads_or_names_path(load, path, data[:cut]), f"prefix of {cut} bytes loaded"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_trailing_bytes_rejected(fmt, originals, scratch):
    path = scratch / f"trailing.{fmt}"
    assert not _loads_or_names_path(FORMATS[fmt][1], path, originals[fmt] + b"\x00")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.floats(0.0, 1.0, exclude_max=True), xor=st.integers(1, 255))
def test_byte_flip_loads_or_fails_naming_the_file(fmt, originals, scratch, where, xor):
    data = bytearray(originals[fmt])
    data[int(where * len(data))] ^= xor
    _loads_or_names_path(FORMATS[fmt][1], scratch / f"flip.{fmt}", bytes(data))
