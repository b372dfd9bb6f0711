"""Finite-difference verification of every backward pass."""

import numpy as np
import pytest

from twinenc import ModelConfig, TwinModel
from twinenc.encoder import RowGrad, embed_backward, layer_backward, layer_forward, pack_sequences

from gradcheck import densify, finite_difference_check, pipeline_loss, pipeline_loss_and_grads

QUERIES = ["red shoes", "cheap flights to paris", "coffee maker"]
KEYWORDS = ["buy red shoes online", "paris flight tickets", "espresso machine"]
TARGETS = np.array([0.9, 0.8, 0.3])

STEP = 1e-5
TOL = 1e-4


class TestLayerGradients:
    def test_layer_weights_match_central_differences(self, tiny_model, rng):
        """Probe d(sum(R * layer_out))/d(weight) for random weight entries."""
        cfg = tiny_model.config
        lp = f"{tiny_model.query_prefix}.layers.0"
        batch = pack_sequences(tiny_model.tokenize_many(["red shoes online sale"]))
        shape = (batch.n_examples, batch.seq_len, cfg.hidden_size)
        x = rng.standard_normal(shape)
        probe = rng.standard_normal(shape)

        def scalar_out():
            y, _ = layer_forward(x, batch.mask, tiny_model.params, lp, cfg)
            return float((y * probe).sum())

        y, cache = layer_forward(x, batch.mask, tiny_model.params, lp, cfg, rng=np.random.default_rng(0))
        grads = {}
        layer_backward(probe.copy(), cache, tiny_model.params, lp, cfg, grads)

        layer_param_names = sorted(n for n in grads if n.startswith(lp))
        for i in range(12):
            name = layer_param_names[i % len(layer_param_names)]
            arr = tiny_model.params[name]
            flat = int(rng.integers(arr.size))
            orig = float(arr.flat[flat])
            arr.flat[flat] = orig + STEP
            up = scalar_out()
            arr.flat[flat] = orig - STEP
            down = scalar_out()
            arr.flat[flat] = orig
            numeric = (up - down) / (2 * STEP)
            analytic = float(grads[name].flat[flat])
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
            assert rel < TOL, f"{name}[{flat}]: analytic {analytic} vs numeric {numeric}"


class TestPipelineGradients:
    @pytest.mark.parametrize("head", ["cosine", "residual"])
    def test_tiny_model_both_heads(self, tiny_model, head):
        results = finite_difference_check(
            tiny_model, QUERIES, KEYWORDS, TARGETS, head, n_params=15, step=STEP, seed=0
        )
        worst = max(results, key=lambda r: r.rel_error)
        assert worst.rel_error < TOL, vars(worst)

    @pytest.mark.parametrize("head", ["cosine", "residual"])
    def test_unshared_encoders(self, head):
        cfg = ModelConfig(n_layers=1, hidden_size=16, n_heads=2, vocab_buckets=128,
                          max_len=6, shared_encoders=False, dropout=0.0)
        model = TwinModel.initialize(cfg, seed=5)
        results = finite_difference_check(
            model, QUERIES, KEYWORDS, TARGETS, head, n_params=12, step=STEP, seed=1
        )
        assert max(r.rel_error for r in results) < TOL

    def test_cls_pooling(self):
        cfg = ModelConfig(n_layers=1, hidden_size=16, n_heads=2, vocab_buckets=128,
                          max_len=6, pooling="cls_token", dropout=0.0)
        model = TwinModel.initialize(cfg, seed=6)
        results = finite_difference_check(
            model, QUERIES, KEYWORDS, TARGETS, "residual", n_params=12, step=STEP, seed=2
        )
        assert max(r.rel_error for r in results) < TOL

    def test_position_table_on_batch_shorter_than_max_len(self, tiny_model):
        """Rows of pos_emb past the batch's longest sequence get exactly zero."""
        name = f"{tiny_model.query_prefix}.pos_emb"
        table = tiny_model.params[name]
        longest = max(len(t.split()) for t in QUERIES + KEYWORDS)
        assert longest < tiny_model.config.max_len
        _, grads = pipeline_loss_and_grads(tiny_model, QUERIES, KEYWORDS, TARGETS, "residual")
        assert grads[name].shape == table.shape
        for row in range(tiny_model.config.max_len):
            flat = row * table.shape[1] + row % table.shape[1]
            orig = float(table.flat[flat])
            table.flat[flat] = orig + STEP
            up = pipeline_loss(tiny_model, QUERIES, KEYWORDS, TARGETS, "residual")
            table.flat[flat] = orig - STEP
            down = pipeline_loss(tiny_model, QUERIES, KEYWORDS, TARGETS, "residual")
            table.flat[flat] = orig
            numeric = (up - down) / (2 * STEP)
            analytic = float(grads[name].flat[flat])
            if row >= longest:
                assert analytic == 0.0 and numeric == 0.0
            else:
                rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
                assert rel < TOL, f"row {row}: analytic {analytic} vs numeric {numeric}"

    def test_query_only_loss_leaves_keyword_encoder(self):
        """With unshared encoders, a loss that ignores k gives it zero grads."""
        cfg = ModelConfig(n_layers=1, hidden_size=16, n_heads=2, vocab_buckets=128,
                          max_len=6, shared_encoders=False, dropout=0.0)
        model = TwinModel.initialize(cfg, seed=7)
        batch = pack_sequences(model.tokenize_many(["red shoes"]))
        emb, cache = model.encode_query_batch(batch, rng=np.random.default_rng(0))
        grads = {}
        model.backward_query(np.ones_like(emb), cache, batch, grads)
        assert not any(name.startswith("keyword_encoder.") for name in grads)


class TestTokenTableGradient:
    def test_row_sparse_matches_dense_scatter_add(self, tiny_model, rng):
        """Both sides' RowGrads merge into a per-word loop's dense sum, within 1e-14.

        The query and keyword batches share words, so some rows get a
        contribution from each side and from repeated trigrams within a side.
        """
        prefix = tiny_model.query_prefix
        table = tiny_model.params[f"{prefix}.tok_emb"]
        q_seqs = tiny_model.tokenize_many(["red shoes", "red red shoes sale", "paris"])
        k_seqs = tiny_model.tokenize_many(["shoes red", "paris shoes"])
        qb, kb = pack_sequences(q_seqs), pack_sequences(k_seqs)
        assert np.intersect1d(qb.bucket_ids, kb.bucket_ids).size > 0
        grads = {}
        reference = np.zeros_like(table)
        for seqs, batch in ((q_seqs, qb), (k_seqs, kb)):
            dx = rng.standard_normal((batch.n_examples, batch.seq_len, table.shape[1]))
            embed_backward(tiny_model.params, prefix, batch, dx, grads)
            # every trigram of the word in real slot (b, t) gets that slot's gradient
            for b, seq in enumerate(seqs):
                for t, word in enumerate(seq):
                    assert batch.mask[b, t]
                    for bucket in word:
                        reference[bucket] += dx[b, t]
        g = grads[f"{prefix}.tok_emb"]
        assert isinstance(g, RowGrad)
        np.testing.assert_array_equal(g.rows, np.unique(np.r_[qb.bucket_ids, kb.bucket_ids]))
        np.testing.assert_allclose(densify(g, table.shape), reference, rtol=0, atol=1e-14)
