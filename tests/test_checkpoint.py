import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from twinenc import DistillationConfig, ModelConfig, PairRecord, TwinModel, distill_train
from twinenc.checkpoint import (FORMAT_VERSION, MAGIC, atomic_write, load_checkpoint, pack_str,
                                save_checkpoint, write_preamble)


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        params = {
            "a.weights": rng.standard_normal((7, 5)),
            "b.bias": rng.standard_normal(5),
            "c.scalar": np.asarray(3.14159),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"kind": "test"})
        loaded, header = load_checkpoint(path)
        assert header["kind"] == "test"
        assert set(loaded) == set(params)
        for name in params:
            assert loaded[name].dtype == np.float64
            np.testing.assert_array_equal(loaded[name], np.asarray(params[name], dtype=np.float64))

    def test_save_twice_identical_bytes(self, tmp_path, rng):
        params = {"w": rng.standard_normal((3, 3))}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, {"v": 1})
        save_checkpoint(p2, params, {"v": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": rng.standard_normal((4, 4))}, {})
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_tensor_byte_length_must_match_shape(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.zeros((2, 3))}, {})
        data = path.read_bytes()
        # last record: u64 byte length (48) then 48 data bytes; claim 40 and drop 8 bytes
        head, tail = data[: -48 - 8], data[-48:]
        path.write_bytes(head + (40).to_bytes(8, "little") + tail[:40])
        with pytest.raises(ValueError, match="do not hold float64 shape") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": rng.standard_normal(3)}, {})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "x.bin"
        atomic_write(path, [b"hello"])
        assert path.read_bytes() == b"hello"
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


def _joined_checkpoint_bytes(params: dict, header: dict) -> bytes:
    """The checkpoint format serialized as one joined byte string (the reference layout)."""
    chunks = write_preamble(MAGIC, FORMAT_VERSION, {**header, "format_version": FORMAT_VERSION})
    chunks.append(struct.pack("<I", len(params)))
    for name in sorted(params):
        raw = np.asarray(params[name], dtype="<f8").tobytes(order="C")
        shape = np.shape(params[name])
        chunks += [pack_str(name), struct.pack(f"<B{len(shape)}QQ", len(shape), *shape, len(raw)), raw]
    return b"".join(chunks)


class TestStreamedWrite:
    def test_bytes_equal_joined_reference(self, tmp_path, rng):
        params = {
            "b.transposed": rng.standard_normal((4, 6)).T,
            "a.strided": rng.standard_normal(10)[::3],
            "c.scalar": np.asarray(2.5),
            "d.float32": rng.standard_normal((2, 3)).astype(np.float32),
            "e.empty": np.zeros((0, 4)),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"kind": "test"})
        assert path.read_bytes() == _joined_checkpoint_bytes(params, {"kind": "test"})

    def test_model_checkpoint_equals_joined_reference(self, tmp_path, tiny_model):
        tiny_model.save(tmp_path / "model.ckpt")
        expected = _joined_checkpoint_bytes(tiny_model.params, tiny_model.checkpoint_header())
        assert (tmp_path / "model.ckpt").read_bytes() == expected

    def test_failing_chunk_stream_leaves_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"old")

        def chunks():
            yield b"new"
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            atomic_write(path, chunks())
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]

    def test_writes_array_buffers(self, tmp_path):
        path = tmp_path / "x.bin"
        atomic_write(path, (b"ab", np.arange(3, dtype="<u2"), memoryview(b"cd")))
        assert path.read_bytes() == b"ab\x00\x00\x01\x00\x02\x00cd"


class TestModelCheckpoint:
    def test_model_round_trip(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        tiny_model.save(path)
        loaded = TwinModel.load(path)
        assert loaded.config == tiny_model.config
        assert loaded.vocab.bucket_count == tiny_model.vocab.bucket_count
        assert loaded.vocab.hash_seed == tiny_model.vocab.hash_seed
        for name in tiny_model.params:
            np.testing.assert_array_equal(loaded.params[name], tiny_model.params[name])

    def test_reloaded_model_encodes_identically(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        tiny_model.save(path)
        loaded = TwinModel.load(path)
        texts = ["red shoes", "cheap flights"]
        np.testing.assert_array_equal(
            tiny_model.encode_queries(texts), loaded.encode_queries(texts)
        )
        np.testing.assert_array_equal(
            tiny_model.score_pairs(texts, texts[::-1]),
            loaded.score_pairs(texts, texts[::-1]),
        )

    def test_loaded_model_trains(self, tmp_path, tiny_model):
        """Loaded tensors are aligned, writable arrays that training may update."""
        path = tmp_path / "model.ckpt"
        tiny_model.save(path)
        loaded = TwinModel.load(path)
        for name, arr in loaded.params.items():
            assert arr.flags.aligned and arr.flags.writeable, name
        records = [PairRecord(query="red shoes", keyword="buy red shoes", teacher_logits=(0.0, 3.0)),
                   PairRecord(query="paris", keyword="espresso", teacher_logits=(3.0, 0.0))]
        distill_train(records, DistillationConfig(epochs=2, batch_size=2), loaded, seed=0)
        table = loaded.params["encoder.tok_emb"]
        assert np.isfinite(table).all()
        assert not np.array_equal(table, tiny_model.params["encoder.tok_emb"])

    def test_config_echo_in_header(self, tmp_path):
        cfg = ModelConfig(n_layers=1, hidden_size=16, n_heads=2, vocab_buckets=32,
                          max_len=4, crossing="cosine", dropout=0.0)
        model = TwinModel.initialize(cfg, seed=9)
        path = tmp_path / "m.ckpt"
        model.save(path)
        _, header = load_checkpoint(path)
        assert header.keys() == {"kind", "model", "normalization", "format_version"}
        assert header["model"] == cfg.to_dict()
        assert header["model"]["vocab_buckets"] == 32
        assert header["format_version"] == 2

    def test_tensor_shape_must_match_header_model(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        params = dict(tiny_model.params)
        params["encoder.pos_emb"] = params["encoder.pos_emb"][:-1]
        save_checkpoint(path, params, tiny_model.checkpoint_header())
        with pytest.raises(ValueError, match="'encoder.pos_emb'") as err:
            TwinModel.load(path)
        assert str(path) in str(err.value)

    def test_non_finite_tensor_rejected(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        params = dict(tiny_model.params)
        params["encoder.layers.0.ln1.g"] = np.full_like(params["encoder.layers.0.ln1.g"], np.inf)
        save_checkpoint(path, params, tiny_model.checkpoint_header())
        with pytest.raises(ValueError, match="'encoder.layers.0.ln1.g' has non-finite values") as err:
            TwinModel.load(path)
        assert str(path) in str(err.value)

    def test_tensor_names_must_match_header_model(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        missing = {k: v for k, v in tiny_model.params.items() if k != "residual_head.w2"}
        save_checkpoint(path, missing, tiny_model.checkpoint_header())
        with pytest.raises(ValueError, match="'residual_head.w2': the file has no tensor"):
            TwinModel.load(path)
        save_checkpoint(path, {**tiny_model.params, "extra.w": np.zeros(2)}, tiny_model.checkpoint_header())
        with pytest.raises(ValueError, match="'extra.w': the file has shape"):
            TwinModel.load(path)
        header = tiny_model.checkpoint_header()
        header["model"]["hidden_size"] = 32
        save_checkpoint(path, tiny_model.params, header)
        with pytest.raises(ValueError, match="the header's model needs"):
            TwinModel.load(path)

    @pytest.mark.parametrize("drop", ["model", "normalization"])
    def test_missing_or_malformed_header_section(self, tmp_path, tiny_model, drop):
        path = tmp_path / "model.ckpt"
        header = {k: v for k, v in tiny_model.checkpoint_header().items() if k != drop}
        save_checkpoint(path, tiny_model.params, header)
        with pytest.raises(ValueError, match="malformed model header") as err:
            TwinModel.load(path)
        assert str(path) in str(err.value)
        header[drop] = {"no_such_setting": 1}
        save_checkpoint(path, tiny_model.params, header)
        with pytest.raises(ValueError, match="malformed model header"):
            TwinModel.load(path)
        header[drop] = [1, 2]
        save_checkpoint(path, tiny_model.params, header)
        with pytest.raises(ValueError, match="malformed model header"):
            TwinModel.load(path)

    @pytest.mark.parametrize("field", [f.name for f in fields(ModelConfig)])
    def test_header_model_must_name_every_field(self, tmp_path, tiny_model, field):
        path = tmp_path / "model.ckpt"
        header = tiny_model.checkpoint_header()
        del header["model"][field]
        save_checkpoint(path, tiny_model.params, header)
        with pytest.raises(ValueError, match=f"malformed model header.*'{field}'") as err:
            TwinModel.load(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("field, value", [("n_layers", True), ("hidden_size", 16.0),
                                              ("shared_encoders", 1)])
    def test_header_model_field_of_the_wrong_type_is_refused(self, tmp_path, tiny_model, field, value):
        # each value equals the saved one, so only its type is wrong
        path = tmp_path / "model.ckpt"
        header = tiny_model.checkpoint_header()
        assert header["model"][field] == value
        header["model"][field] = value
        save_checkpoint(path, tiny_model.params, header)
        with pytest.raises(ValueError, match=f"malformed model header.*{field} must be") as err:
            TwinModel.load(path)
        assert str(path) in str(err.value)

    def test_format_1_checkpoint_is_refused_naming_the_file(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        tiny_model.save(path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC) : len(MAGIC) + 4] = struct.pack("<I", 1)
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="unsupported checkpoint format version 1") as err:
            TwinModel.load(path)
        assert str(path) in str(err.value)

    def test_vocab_hash_seed_round_trips_and_changes_the_encoding(self, tmp_path, tiny_model):
        path = tmp_path / "model.ckpt"
        seeded = TwinModel(config=replace(tiny_model.config, vocab_hash_seed=5), params=tiny_model.params)
        seeded.save(path)
        loaded = TwinModel.load(path)
        assert loaded.vocab.hash_seed == 5
        texts = ["red shoes", "cheap flights"]
        np.testing.assert_array_equal(loaded.encode_queries(texts), seeded.encode_queries(texts))
        assert not np.array_equal(loaded.encode_queries(texts), tiny_model.encode_queries(texts))

    def test_load_draws_no_weights(self, tmp_path, tiny_model, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("loading a checkpoint must not initialize a model")

        path = tmp_path / "model.ckpt"
        tiny_model.save(path)
        monkeypatch.setattr(TwinModel, "initialize", classmethod(no_draw))
        monkeypatch.setattr("twinenc.model.init_encoder_params", no_draw)
        monkeypatch.setattr("twinenc.crossing.init_head_params", no_draw)
        loaded = TwinModel.load(path)
        assert loaded.params.keys() == tiny_model.params.keys()

    def test_wrong_kind_rejected(self, tmp_path, rng):
        path = tmp_path / "other.ckpt"
        save_checkpoint(path, {"w": rng.standard_normal(3)}, {"kind": "something-else"})
        with pytest.raises(ValueError, match="not a model checkpoint"):
            TwinModel.load(path)
