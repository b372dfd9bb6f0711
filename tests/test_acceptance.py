"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The distillation bundle
(criteria 3 and 4) trains two desk models on a 5,000-pair synthetic corpus
and takes a few minutes; everything else is fast.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from twinenc import (
    DistillationConfig,
    ModelConfig,
    TwinModel,
    distill_train,
    finetune,
    roc_auc,
    soft_label,
)
from twinenc.bench import LatencyScenario, bench, bench_grid
from twinenc.checkpoint import load_checkpoint, save_checkpoint
from twinenc.crossing import cosine, residual_head_forward
from twinenc.encoder import pack_sequences
from twinenc.index import EmbeddingIndex, build_graph, encode_corpus, knn_approx, knn_exact
from twinenc.metrics import binary_label, dcg_at, ndcg_at
from twinenc.synthetic import generate_pairs, split_pairs

from gradcheck import finite_difference_check
from script_loader import load_script


def _report(criterion: str, passed: bool = True) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")


def _auc_of(model, records, labels):
    return roc_auc(model.score_pairs([r.query for r in records], [r.keyword for r in records]), labels)


# ---------------------------------------------------------------------------
# Shared training bundle for criteria 3 and 4
# ---------------------------------------------------------------------------

N_QUERIES = 500
TRAIN_CONFIG = DistillationConfig(learning_rate=3e-4, epochs=20)


@pytest.fixture(scope="session")
def distillation_bundle():
    pairs = generate_pairs(5000, seed=42, n_queries=N_QUERIES)
    train_r, test_r = split_pairs(pairs, n_queries=N_QUERIES)
    y_test = [binary_label(r.label) for r in test_r]
    teacher_scores = [soft_label(r.teacher_logits, TRAIN_CONFIG.temperature)[1] for r in test_r]
    teacher_auc = roc_auc(teacher_scores, y_test)

    t0 = time.perf_counter()
    residual = TwinModel.initialize(ModelConfig(crossing="residual"), seed=0)
    distill_train(train_r, TRAIN_CONFIG, residual, seed=0)
    auc_residual = _auc_of(residual, test_r, y_test)

    finetune(train_r, TRAIN_CONFIG, residual, seed=0)
    auc_finetuned = _auc_of(residual, test_r, y_test)

    cosine_model = TwinModel.initialize(ModelConfig(crossing="cosine"), seed=0)
    distill_train(train_r, TRAIN_CONFIG, cosine_model, seed=0)
    auc_cosine = _auc_of(cosine_model, test_r, y_test)
    elapsed = time.perf_counter() - t0

    return {
        "teacher_auc": teacher_auc,
        "auc_residual": auc_residual,
        "auc_finetuned": auc_finetuned,
        "auc_cosine": auc_cosine,
        "elapsed_s": elapsed,
        "pairs": pairs, "train": train_r, "test": test_r, "y_test": y_test, "cosine": cosine_model,
    }


@pytest.fixture(scope="session")
def cosine_quality(distillation_bundle):
    """Held-out AUC, per-query AUC and store P@10 (``scripts/quality_report.py``)
    of the bundle's cosine student, of the untrained model and of a 1-epoch run."""
    report = load_script("quality_report")
    b = distillation_bundle
    t0 = time.perf_counter()
    queries, store, margins = report.store_bundle(b["pairs"], b["test"], seed=42)
    measure = lambda model: report.quality(model, b["test"], b["y_test"], queries, store, margins > 0)
    one_epoch = TwinModel.initialize(ModelConfig(crossing="cosine"), seed=0)
    distill_train(b["train"], replace(TRAIN_CONFIG, epochs=1), one_epoch, seed=0)
    return {"untrained": measure(TwinModel.initialize(ModelConfig(crossing="cosine"), seed=0)),
            "epoch 1": measure(one_epoch), "epoch 20": measure(b["cosine"]),
            "elapsed_s": time.perf_counter() - t0}


class TestCriterion1DecouplingEquivalence:
    def test_precomputed_scores_match_online(self, tmp_path):
        model = TwinModel.initialize(ModelConfig(dropout=0.0), seed=11)
        pairs = generate_pairs(100, seed=3, n_queries=100)
        queries = [p.query for p in pairs]
        keywords = [p.keyword for p in pairs]

        # offline: precompute keyword embeddings; the unit store is persisted and
        # reloaded, the raw store (which has no file format) is kept in memory
        raw_store = encode_corpus(keywords, model, ids=[f"p{i:03d}" for i in range(100)], normalize=False)
        unit = encode_corpus(keywords, model, ids=[f"p{i:03d}" for i in range(100)], normalize=True)
        unit.save(tmp_path / "unit.bin")
        unit_store = EmbeddingIndex.load(tmp_path / "unit.bin")

        q_emb = model.encode_queries(queries)
        online_res = model.score_embeddings(q_emb, model.encode_keywords(keywords), head="residual")
        online_cos = model.score_embeddings(q_emb, model.encode_keywords(keywords), head="cosine")

        cached_res = model.score_embeddings(q_emb, raw_store.vectors, head="residual")
        cached_cos = model.score_embeddings(q_emb, unit_store.vectors.astype(np.float64), head="cosine")

        res_err = float(np.abs(online_res - cached_res).max())
        cos_err = float(np.abs(online_cos - cached_cos).max())
        ok = res_err <= 1e-6 and cos_err <= 1e-6
        _report("1 decoupling-equivalence", ok)
        assert res_err <= 1e-6, f"residual head: max |cached - online| = {res_err}"
        assert cos_err <= 1e-6, f"cosine head: max |cached - online| = {cos_err}"


class TestCriterion2GradientCorrectness:
    def test_both_heads_match_finite_differences(self):
        t0 = time.perf_counter()
        model = TwinModel.initialize(ModelConfig(dropout=0.0), seed=1)
        queries = ["red running shoes", "cheap flights to paris", "espresso coffee maker",
                   "wireless gaming mouse"]
        keywords = ["buy red shoes online", "paris flight tickets", "espresso machine sale",
                    "bluetooth mouse deal"]
        targets = np.array([0.9, 0.8, 0.3, 0.6])
        worst = {}
        for head in ("cosine", "residual"):
            results = finite_difference_check(
                model, queries, keywords, targets, head, n_params=20, step=1e-5, seed=2
            )
            worst[head] = max(r.rel_error for r in results)
        elapsed = time.perf_counter() - t0
        ok = all(w < 1e-4 for w in worst.values()) and elapsed < 120
        _report("2 gradient-correctness", ok)
        assert worst["cosine"] < 1e-4, worst
        assert worst["residual"] < 1e-4, worst
        assert elapsed < 120, f"gradient check took {elapsed:.1f}s"


@pytest.mark.slow
class TestCriterion3DistillationDeskScale:
    def test_student_reaches_teacher_and_finetune_holds(self, distillation_bundle):
        b = distillation_bundle
        ratio = b["auc_residual"] / b["teacher_auc"]
        ok = (
            ratio >= 0.95
            and b["auc_finetuned"] >= b["auc_residual"]
            and b["elapsed_s"] < 900
        )
        _report("3 distillation-desk-scale", ok)
        print(
            f"  teacher AUC {b['teacher_auc']:.4f}, student {b['auc_residual']:.4f} "
            f"(ratio {ratio:.4f}), finetuned {b['auc_finetuned']:.4f}, "
            f"bundle time {b['elapsed_s']:.0f}s"
        )
        assert ratio >= 0.95
        assert b["auc_finetuned"] >= b["auc_residual"], (
            f"fine-tuning reduced AUC: {b['auc_residual']:.4f} -> {b['auc_finetuned']:.4f}"
        )
        assert b["elapsed_s"] < 900


@pytest.mark.slow
class TestCriterion4HeadOrdering:
    def test_residual_at_least_cosine(self, distillation_bundle):
        b = distillation_bundle
        ok = b["auc_residual"] >= b["auc_cosine"] - 0.005
        _report("4 head-ordering", ok)
        print(f"  residual {b['auc_residual']:.4f} vs cosine {b['auc_cosine']:.4f}")
        assert b["auc_residual"] >= b["auc_cosine"] - 0.005


@pytest.mark.slow
class TestCosineStudentGeneralizesAndRetrieves:
    """The paper reports both variants close to the teacher; the cosine student
    must also keep the retrieval it starts with."""

    def test_held_out_auc_and_store_precision(self, cosine_quality):
        q = cosine_quality
        for name in ("untrained", "epoch 1", "epoch 20"):
            print(f"  {name}: " + ", ".join(f"{k} {v:.4f}" for k, v in q[name].items()))
        print(f"  store and 1-epoch run took {q['elapsed_s']:.0f}s")
        final = q["epoch 20"]
        ok = (final["auc"] >= 0.95 and final["per_query_auc"] >= 0.95
              and final["store_p10"] >= q["untrained"]["store_p10"]
              and final["store_p10"] >= q["epoch 1"]["store_p10"])
        _report("cosine student generalizes and retrieves", ok)
        assert final["auc"] >= 0.95
        assert final["per_query_auc"] >= 0.95
        assert final["store_p10"] >= q["untrained"]["store_p10"]
        assert final["store_p10"] >= q["epoch 1"]["store_p10"]


class TestCriterion5AnnFidelity:
    def test_recall_and_visit_bound(self):
        model = TwinModel.initialize(ModelConfig(dropout=0.0), seed=5)

        pairs = generate_pairs(3000, seed=9, n_queries=300)
        keywords = list(dict.fromkeys(p.keyword for p in pairs))[:1000]
        queries = list(dict.fromkeys(p.query for p in pairs))[:100]
        assert len(keywords) == 1000
        index = encode_corpus(keywords, model)
        build_graph(index, degree_bound=16, build_beam=64)

        q_embs = model.encode_queries(queries)
        q_embs = q_embs / np.linalg.norm(q_embs, axis=1, keepdims=True)
        recalls = []
        for q in q_embs:
            exact_ids = {r.keyword_id for r in knn_exact(q, index, 10)}
            approx_ids = {r.keyword_id for r in knn_approx(q, index, 10, search_beam=64)}
            recalls.append(len(exact_ids & approx_ids) / 10)
        recall = float(np.mean(recalls))

        # visit bound at N = 10,000
        big_pairs = generate_pairs(30000, seed=10, n_queries=3000, n_topics=40)
        big_keywords = list(dict.fromkeys(p.keyword for p in big_pairs))[:10000]
        assert len(big_keywords) == 10000
        big_model = model.cast(np.float32)
        big_index = encode_corpus(big_keywords, big_model)
        build_graph(big_index, degree_bound=16, build_beam=32)
        max_visits = 0
        for q in q_embs[:50]:
            big_index.counters.reset()
            knn_approx(q, big_index, 10, search_beam=64)
            max_visits = max(max_visits, big_index.counters.distance_computations)

        ok = recall >= 0.9 and max_visits < 10000
        _report("5 ann-fidelity", ok)
        print(f"  recall@10 {recall:.4f}, max distance computations {max_visits}/10000")
        assert recall >= 0.9
        assert max_visits < 10000


class TestCriterion6CosineEuclideanDuality:
    def test_identity_and_ranking(self, rng):
        worst_gap = 0.0
        for _ in range(1000):
            q = rng.standard_normal(64)
            k = rng.standard_normal(64)
            q /= np.linalg.norm(q)
            k /= np.linalg.norm(k)
            gap = abs(float((q - k) @ (q - k)) - (2.0 - 2.0 * cosine(q, k)))
            worst_gap = max(worst_gap, gap)

        rank_ok = True
        for _ in range(50):
            q = rng.standard_normal(64)
            q /= np.linalg.norm(q)
            cands = rng.standard_normal((100, 64))
            cands /= np.linalg.norm(cands, axis=1, keepdims=True)
            cos_scores = cands @ q
            dists = np.linalg.norm(cands - q, axis=1)
            top_by_cos = np.lexsort((np.arange(100), -cos_scores))[:5]
            top_by_dist = np.lexsort((np.arange(100), dists))[:5]
            rank_ok = rank_ok and np.array_equal(top_by_cos, top_by_dist)

        ok = worst_gap <= 1e-9 and rank_ok
        _report("6 cosine-euclidean-duality", ok)
        print(f"  worst identity gap {worst_gap:.2e}")
        assert worst_gap <= 1e-9
        assert rank_ok


class TestCriterion7LatencyTrend:
    def test_slopes_counters_and_ratio(self):
        model = TwinModel.initialize(ModelConfig(dropout=0.0), seed=0)

        # six twin points at 8 repetitions: the cosine slope is about 0.3 us
        # per keyword, and over three points the fit keeps one residual, so
        # one point's median disturbed by a busy host could leave the slope
        # within 3 standard errors of 0; six points keep four
        twin_grid = [100, 200, 300, 400, 500, 600]
        fits = {}
        for mode, grid, nq, reps in (
            ("twin_cosine", twin_grid, 40, 8),
            ("twin_residual", twin_grid, 40, 8),
            ("cross_encoder", [25, 50, 100], 15, 2),
        ):
            _, fit = bench_grid(LatencyScenario(model_mode=mode, n_queries=nq, repetitions=reps),
                                model, grid, warmup=3, seed=0)
            fits[mode] = fit

        # alternate cached and cross rounds so host speed drift hits both alike
        ratios = []
        counters_ok = True
        for _ in range(5):
            cached = bench(
                LatencyScenario(model_mode="twin_cosine", n_queries=30,
                                n_keywords_per_query=100, repetitions=3),
                model, warmup=3, seed=1,
            )
            cross = bench(
                LatencyScenario(model_mode="cross_encoder", n_queries=10,
                                n_keywords_per_query=100, repetitions=1),
                model, warmup=2, seed=1,
            )
            ratios.append(cross.median_ms / cached.median_ms)
            counters_ok = counters_ok and (
                cached.counters["keyword_encoder_passes"] == 0
                and cross.counters["cross_encoder_passes"] == 10 * 100 * 1
            )
        ratio = float(np.median(ratios))

        cosine = fits["twin_cosine"]
        resolved = cosine.beta_ms > 3 * cosine.beta_se_ms
        beta_ok = cosine.beta_ms < fits["twin_residual"].beta_ms < fits["cross_encoder"].beta_ms
        ok = resolved and beta_ok and counters_ok and ratio >= 10
        _report("7 latency-trend", ok)
        slopes = {mode: f"{fit.beta_ms:.6f} (se {fit.beta_se_ms:.6f})" for mode, fit in fits.items()}
        print(
            f"  beta: cosine {slopes['twin_cosine']} < residual {slopes['twin_residual']} "
            f"< cross {slopes['cross_encoder']}; cross/cached ratio {ratio:.1f}x"
        )
        assert resolved, f"cosine slope {cosine.beta_ms:.6f} ms is within 3 standard errors of 0: {cosine}"
        assert beta_ok, fits
        assert counters_ok, (cached.counters, cross.counters)
        assert ratio >= 10, f"cross/cached time ratio {ratio:.2f} < 10"


class TestCriterion8MetricOracles:
    def test_roc_auc_against_pairwise_enumeration(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 9))
            scores = np.round(rng.random(n) * 2 - 0.5, 1)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[int(rng.integers(n))] ^= 1
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum(1.0 if p > m else 0.5 if p == m else 0.0 for p in pos for m in neg)
            oracle = wins / (len(pos) * len(neg))
            assert roc_auc(scores, labels) == pytest.approx(oracle, abs=1e-12)
        _report("8a roc-auc-oracle")

    def test_ndcg_against_permutation_oracle(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 9))
            gains = [float(g) for g in rng.integers(0, 4, n)]
            p = int(rng.integers(1, n + 1))
            ideal = max(dcg_at(list(perm), p) for perm in itertools.permutations(gains))
            actual = dcg_at(gains, p)
            mine = ndcg_at(gains, p)
            if ideal == 0.0:
                assert math.isnan(mine)
            else:
                assert mine == pytest.approx(actual / ideal, abs=1e-12)
        _report("8b ndcg-oracle")


class TestCriterion9InvariantSuite:
    def test_padding_invariance(self, garbage_in_padding):
        model = TwinModel.initialize(ModelConfig(dropout=0.0), seed=21)
        texts = ["red shoes", "cheap flights to paris"]
        batch = pack_sequences(model.tokenize_many(texts))
        clean, _ = model.encode_query_batch(batch)
        # finite garbage in the padded slots of the embedding output
        filled = garbage_in_padding()
        dirty, _ = model.encode_query_batch(batch)
        assert filled == [int((~batch.mask).sum())] and filled[0] > 0
        np.testing.assert_array_equal(clean, dirty)
        # a text padded next to a longer one encodes as it does alone
        alone = model.encode_queries(texts[:1])
        np.testing.assert_allclose(clean[0], alone[0], rtol=0, atol=1e-12)
        _report("9a padding-invariance")

    def test_pooling_weight_normalization(self, rng):
        from twinenc.encoder import pool_forward

        model = TwinModel.initialize(ModelConfig(dropout=0.0), seed=22)
        prefix = model.query_prefix
        model.params[f"{prefix}.pool.w"] = rng.standard_normal(64)
        hidden = rng.standard_normal((4, 16, 64))
        mask = rng.random((4, 16)) < 0.5
        mask[:, 0] = True
        _, cache = pool_forward(hidden, mask, model.params, prefix, "weighted_average")
        sums = cache["alpha"].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        _report("9b pooling-normalization")

    def test_residual_identity_at_zero(self, rng):
        from twinenc.crossing import init_head_params

        params = init_head_params(64, np.random.default_rng(0))
        params["residual_head.w2"] = np.zeros_like(params["residual_head.w2"])
        params["residual_head.b2"] = np.zeros_like(params["residual_head.b2"])
        q = rng.standard_normal((8, 64))
        k = rng.standard_normal((8, 64))
        _, cache = residual_head_forward(q, k, params)
        assert cache["y"].tobytes() == cache["x"].tobytes()
        _report("9c residual-identity")

    def test_soft_label_temperature_monotone(self):
        temps = [0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 256.0]
        tops = [max(soft_label((2.0, 0.0), t)) for t in temps]
        assert all(a > b for a, b in zip(tops, tops[1:]))
        limit = soft_label((2.0, 0.0), 1e6)
        assert abs(limit[0] - 0.5) <= 1e-6
        _report("9d soft-label-temperature")

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        model = TwinModel.initialize(ModelConfig(dropout=0.0), seed=23)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        model.save(p1)
        reloaded, _ = load_checkpoint(p1)
        save_checkpoint(p2, reloaded, model.checkpoint_header())
        assert p1.read_bytes() == p2.read_bytes()
        for name, arr in model.params.items():
            np.testing.assert_array_equal(arr, reloaded[name])
        _report("9e checkpoint-round-trip")
