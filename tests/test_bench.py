import dataclasses

import numpy as np
import pytest

from twinenc import ModelConfig, TwinModel
from twinenc import bench as bench_mod
from twinenc.bench import LatencyScenario, bench, bench_grid, complexity_fit, make_cross_encoder


@pytest.fixture(scope="module")
def bench_model():
    return TwinModel.initialize(
        ModelConfig(n_layers=1, hidden_size=32, n_heads=2, vocab_buckets=512, max_len=8, dropout=0.0),
        seed=0,
    )


class TestScenarioValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            LatencyScenario(model_mode="bert")

    def test_bad_qel(self):
        with pytest.raises(ValueError):
            LatencyScenario(model_mode="twin_cosine", qel=0)


class TestCounters:
    def test_reset_and_as_dict_cover_every_field_in_order(self):
        from twinenc.index import SearchCounters
        from twinenc.model import OpCounters

        ops = OpCounters(1, 2, 3, 4)
        assert list(ops.as_dict().items()) == [
            ("query_encoder_passes", 1), ("keyword_encoder_passes", 2),
            ("cross_encoder_passes", 3), ("crossing_evals", 4)]
        ops.reset()
        assert ops == OpCounters()
        search = SearchCounters(5, 6)
        search.reset()
        assert search == SearchCounters()

    def test_cached_twin_runs_no_keyword_encodes(self, bench_model):
        scenario = LatencyScenario(model_mode="twin_cosine", n_queries=4,
                                   n_keywords_per_query=6, repetitions=2)
        report = bench(scenario, bench_model, warmup=1)
        assert report.counters["keyword_encoder_passes"] == 0
        assert report.counters["query_encoder_passes"] == 4 * 2
        assert report.counters["crossing_evals"] == 4 * 6 * 2

    def test_uncached_twin_encodes_keywords(self, bench_model):
        scenario = LatencyScenario(model_mode="twin_residual", keyword_cache=False,
                                   n_queries=3, n_keywords_per_query=5, repetitions=1)
        report = bench(scenario, bench_model, warmup=1)
        assert report.counters["keyword_encoder_passes"] == 3 * 5

    def test_qel_multiplies_query_encodes(self, bench_model):
        scenario = LatencyScenario(model_mode="twin_cosine", qel=4, n_queries=3,
                                   n_keywords_per_query=5, repetitions=1)
        report = bench(scenario, bench_model, warmup=1)
        assert report.counters["query_encoder_passes"] == 3 * 4

    def test_cross_encoder_pass_count(self, bench_model):
        scenario = LatencyScenario(model_mode="cross_encoder", n_queries=10,
                                   n_keywords_per_query=10, repetitions=1)
        report = bench(scenario, bench_model, warmup=1)
        assert report.counters["cross_encoder_passes"] == 100
        assert report.counters["query_encoder_passes"] == 0
        assert report.counters["keyword_encoder_passes"] == 0


class TestCrossEncoder:
    def test_doubled_position_table(self, bench_model):
        cross_config, cross_params = make_cross_encoder(bench_model.config, seed=0)
        assert cross_config.max_len == 2 * bench_model.config.max_len
        assert cross_params["encoder.pos_emb"].shape[0] == cross_config.max_len

    def test_config_is_the_twin_config_with_three_fields_changed(self):
        config = ModelConfig(n_layers=1, hidden_size=32, n_heads=4, ffn_size=48, vocab_buckets=300,
                             max_len=6, pooling="cls_token", crossing="cosine",
                             shared_encoders=False, dropout=0.3)
        cross_config, _ = make_cross_encoder(config, seed=0)
        assert cross_config == ModelConfig(n_layers=1, hidden_size=32, n_heads=4, ffn_size=48,
                                           vocab_buckets=300, max_len=12, pooling="cls_token",
                                           crossing="cosine", shared_encoders=True, dropout=0.0)


class TestOneServingCopyPerGrid:
    """A grid casts the model once and draws the cross-encoder at most once,
    while each point's counters still count only that point."""

    @pytest.mark.parametrize("mode", ["cross_encoder", "twin_cosine"])
    def test_one_cast_and_at_most_one_cross_encoder(self, bench_model, monkeypatch, mode):
        calls, casts = {"make_cross_encoder": 0}, []
        real_cross, real_cast = bench_mod.make_cross_encoder, TwinModel.cast

        def counting_cross(*args, **kwargs):
            calls["make_cross_encoder"] += 1
            return real_cross(*args, **kwargs)

        def counting_cast(model, dtype):
            casts.append(dtype)
            return real_cast(model, dtype)

        monkeypatch.setattr(bench_mod, "make_cross_encoder", counting_cross)
        monkeypatch.setattr(TwinModel, "cast", counting_cast)
        nq, grid = 2, [2, 3, 4]
        reports, _ = bench_grid(LatencyScenario(mode, n_queries=nq, repetitions=2), bench_model, grid,
                                warmup=1)

        assert calls == {"make_cross_encoder": int(mode == "cross_encoder")}
        assert casts == [np.float32]  # one cast, to the serving dtype
        for nk, r in zip(grid, reports):
            if mode == "cross_encoder":
                want = dict(query_encoder_passes=0, keyword_encoder_passes=0,
                            cross_encoder_passes=nq * nk * 2, crossing_evals=0)
            else:
                want = dict(query_encoder_passes=nq * 2, keyword_encoder_passes=0,
                            cross_encoder_passes=0, crossing_evals=nq * nk * 2)
            assert r.counters == want, nk


class TestGridTemplate:
    def test_each_point_is_the_template_with_its_keyword_count(self, bench_model):
        template = LatencyScenario("twin_residual", qel=2, keyword_cache=False, n_queries=2, repetitions=1)
        grid = [2, 3, 5]
        reports, _ = bench_grid(template, bench_model, grid, warmup=1)
        assert [r.scenario for r in reports] == [
            dataclasses.replace(template, n_keywords_per_query=nk) for nk in grid]
        for nk, r in zip(grid, reports):
            assert r.counters["query_encoder_passes"] == 2 * 2 * 1, nk
            assert r.counters["keyword_encoder_passes"] == 2 * nk * 1, nk
            assert r.n_samples == 2


class TestComplexityFit:
    def test_exact_linear_recovery(self):
        alpha, beta = 0.37, 0.0123
        grid = [(n, alpha + beta * n) for n in (10, 20, 50, 100)]
        fit = complexity_fit(grid)
        assert fit.alpha_ms == pytest.approx(alpha, abs=1e-9)
        assert fit.beta_ms == pytest.approx(beta, abs=1e-9)
        assert fit.rms_residual_ms == pytest.approx(0.0, abs=1e-9)
        assert fit.beta_se_ms == pytest.approx(0.0, abs=1e-12)

    def test_slope_standard_error_matches_the_closed_form(self):
        nk = np.array([100.0, 200.0, 400.0, 800.0])
        t = np.array([1.31, 1.52, 2.11, 3.27])
        fit = complexity_fit(list(zip(nk.astype(int), t)))
        sxx = ((nk - nk.mean()) ** 2).sum()
        beta = ((nk - nk.mean()) * (t - t.mean())).sum() / sxx
        ssr = ((t - t.mean() - beta * (nk - nk.mean())) ** 2).sum()
        assert fit.beta_se_ms == pytest.approx(np.sqrt(ssr / (len(nk) - 2) / sxx), rel=0, abs=1e-12)
        assert fit.beta_se_ms > 0.0

    def test_constant_series_flat_slope(self):
        fit = complexity_fit([(10, 5.0), (20, 5.0), (40, 5.0)])
        assert fit.beta_ms == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            complexity_fit([(10, 1.0), (20, 2.0)])

    def test_degenerate_grid(self):
        with pytest.raises(ValueError, match="degenerate"):
            complexity_fit([(10, 1.0), (10, 2.0), (10, 3.0)])

    def test_two_distinct_counts_refused(self):
        with pytest.raises(ValueError, match="3 distinct positive keyword counts"):
            complexity_fit([(5, 1.0), (5, 2.0), (10, 3.0)])

    @pytest.mark.parametrize("nk_grid", [[5, 5, 10], [0, 5, 10]])
    def test_bench_grid_refuses_before_timing(self, bench_model, monkeypatch, nk_grid):
        def timed(*args):
            raise AssertionError("a refused grid was timed")

        monkeypatch.setattr(bench_mod, "_run_round_robin", timed)
        with pytest.raises(ValueError, match="3 distinct positive keyword counts"):
            bench_grid(LatencyScenario("twin_cosine"), bench_model, nk_grid)


class TestReportShape:
    def test_report_fields(self, bench_model):
        scenario = LatencyScenario(model_mode="twin_cosine", n_queries=3,
                                   n_keywords_per_query=4, repetitions=2)
        report = bench(scenario, bench_model, warmup=1)
        assert report.n_samples == 6
        assert report.mean_ms > 0
        assert report.p95_ms >= report.median_ms > 0
        d = report.as_dict()
        assert d["model_mode"] == "twin_cosine"
        assert sorted(d) == sorted([
            "model_mode", "qel", "keyword_cache", "n_queries", "n_keywords_per_query", "repetitions",
            "mean_ms", "median_ms", "p95_ms", "total_s", "tokenize_ms", "n_samples",
            "query_encoder_passes", "keyword_encoder_passes", "cross_encoder_passes", "crossing_evals",
        ])
