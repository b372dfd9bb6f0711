import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import twinenc
from twinenc import ModelConfig, TwinModel
from twinenc.crossing import residual_head_forward
from twinenc.encoder import (
    _layernorm_forward,
    _linear_forward,
    embed_forward,
    encoder_forward,
    gelu,
    layer_forward,
    masked_softmax,
    pack_sequences,
    pool_forward,
)
from twinenc.text import TrigramVocab, encode_text


def _batch(model, texts):
    return pack_sequences(model.tokenize_many(texts))


@pytest.fixture(scope="module")
def store_batch_keywords():
    """256 distinct synthetic keywords: one batch of a keyword-store build."""
    from twinenc.synthetic import generate_pairs

    pairs = generate_pairs(3000, seed=1, n_queries=300)
    keywords = list(dict.fromkeys(p.keyword for p in pairs))[:256]
    assert len(keywords) == 256
    return keywords


def _traced_peak(fn) -> int:
    """Peak bytes ``tracemalloc`` sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_a_per_word_loop(self, tiny_model, dtype):
        model = tiny_model.cast(dtype)
        prefix = model.query_prefix
        tok_emb, pos_emb = model.params[f"{prefix}.tok_emb"], model.params[f"{prefix}.pos_emb"]
        seqs = model.tokenize_many(["cat", "red red shoes sale", "cheap flights to paris", "a"])
        longest = max(s.length for s in seqs)
        # padded slots hold only their position embedding
        expected = np.array([pos_emb[:longest]] * len(seqs))
        for b, seq in enumerate(seqs):
            bounds = seq.word_offsets + (len(seq.bucket_ids),)
            for t in range(seq.length):
                word = seq.bucket_ids[bounds[t]:bounds[t + 1]]
                total = tok_emb[word[0]]
                for bucket in word[1:]:
                    total = total + tok_emb[bucket]
                expected[b, t] = total + pos_emb[t]
        batch = pack_sequences(seqs)
        x = embed_forward(model.params, prefix, batch)
        assert x.dtype == dtype
        np.testing.assert_array_equal(x[~batch.mask], expected[~batch.mask])
        # np.add.reduceat need not add a word's rows left to right (numpy 2.4 adds
        # the first row to the sum of the rest), so real slots match to a few ulps
        np.testing.assert_allclose(x, expected, rtol=0, atol=4 * np.finfo(dtype).eps)

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
            x, batch.mask, tiny_model.params, f"{tiny_model.query_prefix}.layers.0", cfg,
            rng=np.random.default_rng(0),
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


class TestModelConfig:
    def test_cls_token_pooling_needs_a_word_after_the_cls_token(self):
        with pytest.raises(ValueError, match="cls_token pooling needs max_len >= 2"):
            ModelConfig(pooling="cls_token", max_len=1)
        assert ModelConfig(pooling="cls_token", max_len=2).max_len == 2
        assert ModelConfig(max_len=1).max_len == 1

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1])
    def test_vocab_hash_seed_must_be_a_signed_64_bit_int(self, seed):
        with pytest.raises(ValueError, match="vocab_hash_seed must be a signed 64-bit integer"):
            ModelConfig(vocab_hash_seed=seed)

    @pytest.mark.parametrize("name, value, kind", [
        ("hidden_size", 64.0, "an integer"), ("n_layers", True, "an integer"),
        ("ffn_size", 8.0, "an integer"), ("max_len", "16", "an integer"),
        ("vocab_hash_seed", True, "an integer"), ("vocab_hash_seed", 1.0, "an integer"),
        ("vocab_hash_seed", "1", "an integer"), ("dropout", True, "a real number"),
        ("dropout", "0.1", "a real number"), ("shared_encoders", 1, "true or false"),
        ("shared_encoders", "yes", "true or false"),
    ])
    def test_a_field_of_the_wrong_type_is_refused_naming_it(self, name, value, kind):
        with pytest.raises(ValueError, match=f"^{name} must be {kind}, got {re.escape(repr(value))}$"):
            ModelConfig(**{name: value})

    def test_an_integer_is_a_real_number(self):
        assert ModelConfig(dropout=0).dropout == 0

    @pytest.mark.parametrize("seed", [-(2**63), 0, 2**63 - 1])
    def test_model_vocab_is_built_from_the_config(self, seed):
        config = ModelConfig(vocab_buckets=100, vocab_hash_seed=seed)
        vocab = TwinModel(config=config, params={}).vocab
        assert (vocab.bucket_count, vocab.hash_seed) == (100, seed)
        assert vocab.word_buckets("shoes") == TrigramVocab(bucket_count=100, hash_seed=seed).word_buckets("shoes")


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

    def test_padding_invariance_exact(self, tiny_model, garbage_in_padding):
        # same real tokens, finite garbage in the padded slots of the embedding
        batch = _batch(tiny_model, ["red shoes", "cheap flights to paris"])
        clean, _ = tiny_model.encode_query_batch(batch)
        filled = garbage_in_padding()
        dirty, _ = tiny_model.encode_query_batch(batch)
        assert filled == [int((~batch.mask).sum())] and filled[0] > 0
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
    """A forward without an rng runs the same layer code as a training
    forward, keeps no activations and returns None as its cache."""

    TEXTS = ["red shoes", "cheap flights to paris", "cat", "a b c d e", "running shoes for men"]

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("pooling", ["weighted_average", "cls_token"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_embeddings_bit_equal_to_cached_forward(self, shared, pooling, dtype):
        config = ModelConfig(n_layers=2, hidden_size=16, n_heads=2, vocab_buckets=256, max_len=8,
                             shared_encoders=shared, pooling=pooling, dropout=0.0)
        model = TwinModel.initialize(config, seed=3).cast(dtype)
        batch = _batch(model, self.TEXTS)
        for encode in (model.encode_query_batch, model.encode_keyword_batch):
            cached, cache = encode(batch, rng=np.random.default_rng(0))
            free, none = encode(batch)
            assert cache is not None and none is None
            assert free.dtype == cached.dtype == dtype
            assert free.tobytes() == cached.tobytes()
        assert model.encode_queries(self.TEXTS).tobytes() == \
            model.encode_query_batch(batch)[0].tobytes()
        assert model.encode_keywords(self.TEXTS).tobytes() == \
            model.encode_keyword_batch(batch)[0].tobytes()

    def test_every_forward_without_an_rng_returns_no_cache(self, tiny_model):
        params, config, prefix = tiny_model.params, tiny_model.config, tiny_model.query_prefix
        batch = _batch(tiny_model, self.TEXTS)
        x = embed_forward(params, prefix, batch)
        assert layer_forward(x, batch.mask, params, f"{prefix}.layers.0", config)[1] is None
        assert encoder_forward(params, prefix, batch, config)[1] is None
        assert tiny_model.encode_query_batch(batch)[1] is None
        assert tiny_model.encode_keyword_batch(batch)[1] is None

    def test_forward_peak_memory_at_most_half_of_cached(self, desk_model, store_batch_keywords):
        batch = _batch(desk_model, store_batch_keywords)
        cached = _traced_peak(lambda: desk_model.encode_keyword_batch(batch, rng=np.random.default_rng(0)))
        free = _traced_peak(lambda: desk_model.encode_keyword_batch(batch))
        assert free <= cached / 2, (free, cached)

    def test_float32_forward_peaks_near_six_activations(self, desk_model, store_batch_keywords):
        # Every bias add, GELU, layernorm, softmax and residual sum runs in an
        # array the forward already owns. Measured: 6.0 activations (1.97 MB).
        model = desk_model.cast(np.float32)
        batch = _batch(model, store_batch_keywords)
        activation = batch.n_examples * batch.seq_len * model.config.hidden_size * 4
        model.encode_keyword_batch(batch)
        peak = _traced_peak(lambda: model.encode_keyword_batch(batch))
        assert peak <= 6.5 * activation, peak / activation


class TestForwardLeavesArgumentsAlone:
    """Each forward step writes only into arrays it allocated: a training
    cache holds the inputs (``x``, ``x1``, ``f1``, ``g``, ``xhat``) for the
    backward pass."""

    STEPS = {
        "gelu": lambda m, x, mask, lp, p: gelu(x),
        "linear": lambda m, x, mask, lp, p: _linear_forward(x, p[f"{lp}.ffn.w1"], p[f"{lp}.ffn.b1"]),
        "layernorm": lambda m, x, mask, lp, p: _layernorm_forward(x, p[f"{lp}.ln1.g"], p[f"{lp}.ln1.b"]),
        "masked_softmax": lambda m, x, mask, lp, p: masked_softmax(x[:, :, :4], mask[:, None, :]),
        "layer": lambda m, x, mask, lp, p: layer_forward(x, mask, p, lp, m.config),
        "layer_with_rng": lambda m, x, mask, lp, p: layer_forward(
            x, mask, p, lp, replace(m.config, dropout=0.3), rng=np.random.default_rng(0)),
        "residual_head": lambda m, x, mask, lp, p: residual_head_forward(x[0], x[1], p),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("step", sorted(STEPS))
    def test_every_argument_stays_byte_identical(self, tiny_model, step, dtype):
        model = tiny_model.cast(dtype)
        x = np.random.default_rng(4).standard_normal((3, 4, model.config.hidden_size)).astype(dtype)
        mask = np.array([[True, True, True, True], [True, True, False, False], [True, False, False, False]])
        before = (x.tobytes(), mask.tobytes(), {k: v.tobytes() for k, v in model.params.items()})
        self.STEPS[step](model, x, mask, f"{model.query_prefix}.layers.0", model.params)
        assert (x.tobytes(), mask.tobytes(), {k: v.tobytes() for k, v in model.params.items()}) == before


class TestDropoutFromRng:
    """Dropout is drawn if and only if a forward is given an rng."""

    TEXTS = ["red shoes", "cheap flights to paris", "cat"]

    def test_no_rng_ignores_the_dropout_rate(self, tiny_model):
        noisy = TwinModel(config=replace(tiny_model.config, dropout=0.3), params=tiny_model.params)
        batch = _batch(tiny_model, self.TEXTS)
        assert noisy.encode_query_batch(batch)[0].tobytes() == \
            tiny_model.encode_query_batch(batch)[0].tobytes()
        assert noisy.encode_keywords(self.TEXTS).tobytes() == \
            tiny_model.encode_keywords(self.TEXTS).tobytes()

    def test_rng_at_dropout_zero_draws_nothing(self, tiny_model):
        assert tiny_model.config.dropout == 0.0
        batch = _batch(tiny_model, self.TEXTS)
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        with_rng, _ = tiny_model.encode_query_batch(batch, rng=rng)
        assert rng.bit_generator.state == state
        assert with_rng.tobytes() == tiny_model.encode_query_batch(batch)[0].tobytes()

    def test_rng_is_keyword_only(self, tiny_model):
        batch = _batch(tiny_model, self.TEXTS)
        with pytest.raises(TypeError):
            tiny_model.encode_query_batch(batch, np.random.default_rng(9))


_ERF_IDENTITY = """
import math
import numpy as np
{first}
{second}
import scipy.special, scipy.stats
erf = twinenc.encoder.erf
assert erf is scipy.special.erf
assert scipy.stats.rankdata([3.0, 1.0, 2.0]).tolist() == [3.0, 1.0, 2.0]
assert math.isclose(scipy.special.gammaln(5.0), math.log(24.0), rel_tol=1e-15)
x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 6.5, -7.0, 27.0, -1e300, 0.3, -2.2, 1e-20])
for dtype in (np.float32, np.float64):
    ours, theirs = erf(x.astype(dtype)), scipy.special.erf(x.astype(dtype))
    assert ours.dtype == dtype
    assert np.array_equal(ours, theirs, equal_nan=True)
    assert np.array_equal(np.signbit(ours), np.signbit(theirs))
    assert np.array_equal(ours[:8], [0.0, -0.0, 1.0, -1.0, np.nan, 1.0, -1.0, 1.0], equal_nan=True)
print("ok")
"""


@pytest.mark.parametrize("first, second", [
    ("import twinenc.encoder", "import scipy.special"),
    ("import scipy.special", "import twinenc.encoder"),
], ids=["twinenc-first", "scipy-special-first"])
def test_erf_is_scipy_special_erf(first, second):
    # a fresh interpreter per import order: this one may already hold scipy.special
    code = _ERF_IDENTITY.format(first=first, second=second)
    src = Path(twinenc.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_a_scipy_without_the_erf_extension_fails_at_import(tmp_path):
    fake = tmp_path / "scipy"
    (fake / "special").mkdir(parents=True)
    (fake / "__init__.py").write_text("__version__ = '0.0.test'\n")
    src = Path(twinenc.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", "import twinenc"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": f"{tmp_path}{os.pathsep}{src}"})
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError:")
    assert str(fake / "special") in last and "scipy 0.0.test" in last


class TestPinnedEncodings:
    """Digests of seeded encodings and of a seeded training run, recorded
    before batches held word starts instead of slot ids: changes to packing
    and embedding must keep every output bit."""

    @pytest.fixture(scope="class")
    def pairs(self):
        from twinenc.synthetic import generate_pairs

        return generate_pairs(300, seed=18, n_queries=40)

    @pytest.mark.parametrize("pooling, shared, dtype, digest", [
        ("weighted_average", True, np.float64,
         "0d5166984fd308a6ee9248b755b21edc90fc8579bf2f5e3a223986d07a623a92"),
        ("weighted_average", True, np.float32,
         "89fb5af24a14cea2c5f420334e0cfd6dcd58dd5a867283c74ca898720a9527a0"),
        ("weighted_average", False, np.float64,
         "79df115c74acef1e49e202621c1b5781b9add2a4d97a4992b20e4f746ea78842"),
        ("weighted_average", False, np.float32,
         "6743acc42618a3c822c6e70ee904c1db2e241f26d6eac6b85fbda9ad082ab1b4"),
        ("cls_token", True, np.float64,
         "66079628406e6c0a4a48979f5f56d20311ad348151185a8ae3ab3c139e460060"),
        ("cls_token", True, np.float32,
         "921293ea0a99cfa5480e6935c6abdf04c77d37a23ac86875035dea960d184cb5"),
        ("cls_token", False, np.float64,
         "9c52382448e0e434c17e67799e0941c9c80fc464f0cd2af60c27f22e32ff652d"),
        ("cls_token", False, np.float32,
         "2a373abada86083f6b38fed301519963e96aeec2ad89d39de13048005da5a190"),
    ], ids=["weighted-shared-f64", "weighted-shared-f32", "weighted-unshared-f64",
            "weighted-unshared-f32", "cls-shared-f64", "cls-shared-f32", "cls-unshared-f64",
            "cls-unshared-f32"])
    def test_query_and_keyword_encodings(self, pairs, pooling, shared, dtype, digest):
        config = ModelConfig(pooling=pooling, shared_encoders=shared)
        model = TwinModel.initialize(config, seed=5).cast(dtype)
        q = model.encode_queries([p.query for p in pairs])
        k = model.encode_keywords([p.keyword for p in pairs])
        assert q.dtype == k.dtype == dtype
        assert _params_digest({"queries": q, "keywords": k}) == digest

    @pytest.mark.parametrize("pooling, shared, digest", [
        ("weighted_average", True,
         "25c55d54aebc32236faaaee61cce276750c10d680b8d62a4603e483c0f31bebc"),
        ("cls_token", False,
         "c1b16d6840965be9a781d891a1a8e43bb3aca791112ef653f784b5b731675214"),
    ], ids=["weighted-shared", "cls-unshared"])
    def test_parameters_after_distillation_with_dropout(self, pairs, pooling, shared, digest):
        from twinenc import DistillationConfig, distill_train

        config = ModelConfig(pooling=pooling, shared_encoders=shared, dropout=0.1)
        model = TwinModel.initialize(config, seed=6)
        history = distill_train(pairs[:128], DistillationConfig(epochs=2, batch_size=32,
                                                                learning_rate=1e-3), model, seed=3)
        assert history.steps == 8
        assert _params_digest({"losses": np.array(history.epoch_losses), **model.params}) == digest
