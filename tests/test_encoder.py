import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from twinenc import ModelConfig, TwinModel
from twinenc.encoder import (
    embed_forward,
    encoder_forward,
    layer_forward,
    masked_softmax,
    pack_sequences,
    pool_forward,
)
from twinenc.text import TrigramVocab, encode_text


def _batch(model, texts):
    return pack_sequences(model.tokenize_many(texts))


class TestEmbedInput:
    def test_zero_tables_zero_output(self, tiny_model):
        params = {k: np.zeros_like(v) for k, v in tiny_model.params.items()}
        batch = _batch(tiny_model, ["red shoes"])
        x = embed_forward(params, tiny_model.query_prefix, batch)
        assert np.all(x == 0.0)

    def test_zero_positions_leave_trigram_sum(self, tiny_model):
        params = dict(tiny_model.params)
        prefix = tiny_model.query_prefix
        params[f"{prefix}.pos_emb"] = np.zeros_like(params[f"{prefix}.pos_emb"])
        batch = _batch(tiny_model, ["cat", "red shoes"])
        x = embed_forward(params, prefix, batch)
        tok_emb = params[f"{prefix}.tok_emb"]
        expected = sum(tok_emb[b] for b in tiny_model.tokenize("cat").bucket_ids)
        np.testing.assert_allclose(x[0, 0], expected)
        # the padding slot carries only its (zeroed) position embedding here
        np.testing.assert_allclose(x[0, 1:], 0.0)

    def test_word_order_changes_embedding(self, tiny_model):
        a = tiny_model.encode_queries(["red shoes"])
        b = tiny_model.encode_queries(["shoes red"])
        assert not np.allclose(a, b)

    def test_position_index_beyond_table_rejected(self, tiny_model):
        vocab = tiny_model.vocab
        seq = encode_text("a b c d e f g h", vocab, max_len=tiny_model.config.max_len + 2)
        batch = pack_sequences([seq])
        with pytest.raises(ValueError, match="position table"):
            embed_forward(tiny_model.params, tiny_model.query_prefix, batch)


class TestMaskedSoftmax:
    def test_masked_entries_exactly_zero(self, rng):
        scores = rng.standard_normal((2, 5))
        mask = np.array([[True, True, False, True, False], [True, False, False, False, False]])
        p = masked_softmax(scores, mask)
        assert np.all(p[~mask] == 0.0)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)

    def test_single_unmasked_gets_weight_one(self, rng):
        scores = rng.standard_normal((1, 4))
        mask = np.array([[False, False, True, False]])
        p = masked_softmax(scores, mask)
        assert p[0, 2] == 1.0


class TestTransformerLayer:
    def test_single_token_self_attention(self, tiny_model, rng):
        cfg = tiny_model.config
        batch = _batch(tiny_model, ["cat", "red shoes"])
        x = rng.standard_normal((batch.n_examples, batch.seq_len, cfg.hidden_size))
        _, cache = layer_forward(
            x, batch.mask, tiny_model.params, f"{tiny_model.query_prefix}.layers.0", cfg
        )
        # the only unmasked token attends to itself with weight exactly 1
        np.testing.assert_allclose(cache["probs"][0, :, 0, 0], 1.0, atol=0)

    def test_nan_input_rejected(self, tiny_model):
        cfg = tiny_model.config
        batch = _batch(tiny_model, ["cat"])
        x = np.full((batch.n_examples, batch.seq_len, cfg.hidden_size), np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            layer_forward(x, batch.mask, tiny_model.params, f"{tiny_model.query_prefix}.layers.0", cfg)

    def test_masked_slot_perturbation_leaves_unmasked_outputs(self, tiny_model, rng):
        cfg = tiny_model.config
        batch = _batch(tiny_model, ["red shoes", "cheap flights to paris"])
        x = rng.standard_normal((batch.n_examples, batch.seq_len, cfg.hidden_size))
        y1, _ = layer_forward(x, batch.mask, tiny_model.params, f"{tiny_model.query_prefix}.layers.0", cfg)
        x2 = x.copy()
        x2[0, ~batch.mask[0]] += rng.standard_normal((int((~batch.mask[0]).sum()), cfg.hidden_size))
        y2, _ = layer_forward(x2, batch.mask, tiny_model.params, f"{tiny_model.query_prefix}.layers.0", cfg)
        np.testing.assert_array_equal(y1[0, batch.mask[0]], y2[0, batch.mask[0]])


class TestPooling:
    def test_zero_scorer_is_mean(self, tiny_model, rng):
        cfg = tiny_model.config
        prefix = tiny_model.query_prefix
        params = dict(tiny_model.params)
        params[f"{prefix}.pool.w"] = np.zeros(cfg.hidden_size)
        params[f"{prefix}.pool.b"] = np.zeros(())
        hidden = rng.standard_normal((2, 4, cfg.hidden_size))
        mask = np.array([[True, True, True, False], [True, False, False, False]])
        emb, _ = pool_forward(hidden, mask, params, prefix, "weighted_average")
        np.testing.assert_allclose(emb[0], hidden[0, :3].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(emb[1], hidden[1, 0], atol=1e-12)

    def test_weights_sum_to_one(self, tiny_model, rng):
        cfg = tiny_model.config
        prefix = tiny_model.query_prefix
        params = dict(tiny_model.params)
        params[f"{prefix}.pool.w"] = rng.standard_normal(cfg.hidden_size)
        hidden = rng.standard_normal((1, 4, cfg.hidden_size))
        mask = np.array([[True, True, True, False]])
        _, cache = pool_forward(hidden, mask, params, prefix, "weighted_average")
        assert abs(cache["alpha"][0].sum() - 1.0) <= 1e-9
        assert cache["alpha"][0, 3] == 0.0

    def test_all_masked_rejected(self, tiny_model, rng):
        hidden = rng.standard_normal((1, 3, tiny_model.config.hidden_size))
        mask = np.zeros((1, 3), dtype=bool)
        with pytest.raises(ValueError):
            pool_forward(hidden, mask, tiny_model.params, tiny_model.query_prefix, "weighted_average")

    def test_cls_mode_returns_slot_zero(self, rng):
        cfg = ModelConfig(n_layers=1, hidden_size=16, n_heads=2, vocab_buckets=64,
                          max_len=6, pooling="cls_token", dropout=0.0)
        model = TwinModel.initialize(cfg, seed=0)
        hidden = rng.standard_normal((2, 6, 16))
        mask = np.ones((2, 6), dtype=bool)
        emb, _ = pool_forward(hidden, mask, model.params, model.query_prefix, "cls_token")
        np.testing.assert_array_equal(emb, hidden[:, 0, :])


class TestEncode:
    def test_deterministic(self, tiny_model):
        a = tiny_model.encode_queries(["red shoes online"])
        b = tiny_model.encode_queries(["red shoes online"])
        np.testing.assert_array_equal(a, b)

    def test_shared_encoders_agree(self, tiny_model):
        q = tiny_model.encode_queries(["running shoes"])
        k = tiny_model.encode_keywords(["running shoes"])
        np.testing.assert_array_equal(q, k)

    def test_unshared_encoders_differ(self):
        cfg = ModelConfig(n_layers=1, hidden_size=16, n_heads=2, vocab_buckets=64,
                          max_len=6, shared_encoders=False, dropout=0.0)
        model = TwinModel.initialize(cfg, seed=0)
        q = model.encode_queries(["running shoes"])
        k = model.encode_keywords(["running shoes"])
        assert not np.allclose(q, k)

    def test_desk_preset_shape_and_finiteness(self, desk_model):
        emb = desk_model.encode_queries(["any text at all"])
        assert emb.shape == (1, 64)
        assert np.isfinite(emb).all()

    def test_padding_invariance_exact(self, tiny_model):
        # same real tokens, garbage trigram content in the padded slots
        batch = _batch(tiny_model, ["red shoes", "cheap flights to paris"])
        pad_slots = np.flatnonzero(~batch.mask)
        slots = np.concatenate([batch.slot_ids, np.repeat(pad_slots, 3)])
        buckets = np.concatenate([batch.bucket_ids, np.tile([1, 2, 3], pad_slots.size)])
        order = np.argsort(slots, kind="stable")
        tampered = replace(batch, bucket_ids=buckets[order], slot_ids=slots[order])
        clean, _ = tiny_model.encode_query_batch(batch)
        dirty, _ = tiny_model.encode_query_batch(tampered)
        np.testing.assert_array_equal(clean, dirty)

    def test_cls_model_roundtrip(self):
        cfg = ModelConfig(n_layers=1, hidden_size=16, n_heads=2, vocab_buckets=64,
                          max_len=6, pooling="cls_token", dropout=0.0)
        model = TwinModel.initialize(cfg, seed=0)
        emb = model.encode_queries(["red shoes"])
        assert emb.shape == (1, 16)
        assert np.isfinite(emb).all()

    def test_float32_inference_close_to_float64(self, tiny_model):
        m32 = tiny_model.cast(np.float32)
        a = tiny_model.encode_queries(["cheap flights to paris"])
        b = m32.encode_queries(["cheap flights to paris"])
        assert b.dtype == np.float32
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-4)


class TestParameterSharing:
    def test_param_count_difference_is_one_encoder(self):
        base = dict(n_layers=2, hidden_size=32, n_heads=2, vocab_buckets=128, max_len=8, dropout=0.0)
        shared = TwinModel.initialize(ModelConfig(shared_encoders=True, **base), seed=0)
        split = TwinModel.initialize(ModelConfig(shared_encoders=False, **base), seed=0)
        one_encoder = sum(
            v.size for k, v in shared.params.items() if k.startswith("encoder.")
        )
        def param_count(model):
            return sum(model.params[n].size for n in TwinModel.param_shapes(model.config))

        assert param_count(split) - param_count(shared) == one_encoder

    def test_encoder_forward_uses_same_arrays_when_shared(self, tiny_model):
        assert tiny_model.query_prefix == tiny_model.keyword_prefix


def _params_digest(params):
    h = hashlib.sha256()
    for name, value in params.items():
        h.update(f"{name}:{value.dtype.str}:{value.shape};".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


class TestParameterTable:
    # sha256 over (name, dtype, shape, bytes) of every tensor in insertion
    # order: initialize walks the shape tables, and a change in their order
    # would change the RNG draws and so every seeded model
    @pytest.mark.parametrize("config, seed, digest", [
        (ModelConfig(), 0, "8ecd8639026246fb76cdbf8a8c3c6447b507598ff080c2cbfa3b78aa220bba9b"),
        (ModelConfig(), 7, "a4e1c8bb561b4adf288a160da0be19e37b68284a69db96a12945c524b22db8eb"),
        (ModelConfig(shared_encoders=False), 0,
         "0f45f65be4344b8431f5ecec7fd1f284d8411c93739b8634df8e72d04c23fd92"),
        (ModelConfig.large(), 0, "5b912d078b04a07ef5e3efc868624df1d54fe7ac15516dc3ec4be7de691803fc"),
    ], ids=["desk", "desk-seed7", "unshared", "large"])
    def test_initialize_is_bit_identical_to_recorded_draws(self, config, seed, digest):
        assert _params_digest(TwinModel.initialize(config, seed=seed).params) == digest

    @pytest.mark.parametrize("overrides", [
        {}, {"shared_encoders": False}, {"pooling": "cls_token", "ffn_size": 24, "n_layers": 3},
    ])
    def test_shape_table_matches_initialized_params(self, overrides):
        config = ModelConfig(hidden_size=16, n_heads=2, vocab_buckets=64, max_len=5, **overrides)
        params = TwinModel.initialize(config, seed=0).params
        shapes = TwinModel.param_shapes(config)
        assert list(shapes) == list(params)
        assert shapes == {name: value.shape for name, value in params.items()}


class TestCacheFreeForward:
    """``cache=False`` runs the same layer code and keeps no activations."""

    TEXTS = ["red shoes", "cheap flights to paris", "cat", "a b c d e", "running shoes for men"]

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("pooling", ["weighted_average", "cls_token"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_embeddings_bit_equal_to_cached_forward(self, shared, pooling, dtype):
        config = ModelConfig(n_layers=2, hidden_size=16, n_heads=2, vocab_buckets=256, max_len=8,
                             shared_encoders=shared, pooling=pooling)
        model = TwinModel.initialize(config, seed=3).cast(dtype)
        batch = _batch(model, self.TEXTS)
        for encode in (model.encode_query_batch, model.encode_keyword_batch):
            cached, cache = encode(batch)
            free, none = encode(batch, cache=False)
            assert cache is not None and none is None
            assert free.dtype == cached.dtype == dtype
            assert free.tobytes() == cached.tobytes()
        assert model.encode_queries(self.TEXTS).tobytes() == \
            model.encode_query_batch(batch)[0].tobytes()
        assert model.encode_keywords(self.TEXTS).tobytes() == \
            model.encode_keyword_batch(batch)[0].tobytes()

    def test_dropout_draws_are_the_same_without_a_cache(self, tiny_model):
        cfg = replace(tiny_model.config, dropout=0.3)
        batch = _batch(tiny_model, self.TEXTS)
        x = embed_forward(tiny_model.params, tiny_model.query_prefix, batch)
        lp = f"{tiny_model.query_prefix}.layers.0"
        y, cache = layer_forward(x, batch.mask, tiny_model.params, lp, cfg, True, np.random.default_rng(9))
        y_free, none = layer_forward(x, batch.mask, tiny_model.params, lp, cfg, True,
                                     np.random.default_rng(9), cache=False)
        assert none is None and cache["attn_keep"] is not None
        assert y_free.tobytes() == y.tobytes()

    def test_forward_peak_memory_at_most_half_of_cached(self, desk_model):
        from twinenc.synthetic import generate_pairs

        pairs = generate_pairs(3000, seed=1, n_queries=300)
        keywords = list(dict.fromkeys(p.keyword for p in pairs))[:256]
        assert len(keywords) == 256
        batch = _batch(desk_model, keywords)

        def peak(cache: bool) -> int:
            tracemalloc.start()
            try:
                emb, saved = desk_model.encode_keyword_batch(batch, cache=cache)
                del saved
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cached, free = peak(True), peak(False)
        assert free <= cached / 2, (free, cached)
