"""Self-tests of the benchmark at toy size.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run._import_library()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from twinenc import EmbeddingIndex, build_graph, encode_corpus, knn_exact  # noqa: E402
from workloads import TOY, Outcome  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY_SECONDS = 10  # two training epochs; the serving loops stop after one pass at toy size


def toy_run(name: str, seed: int, traced: bool, tmp_dir) -> Outcome:
    kwargs = {"workdir": tmp_dir} if name == "search" else {}
    return workloads.WORKLOADS[name](seed, TOY_SECONDS, traced, TOY, **kwargs)


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("index")
    return {
        (name, traced): toy_run(name, 3, traced, tmp)
        for name in workloads.WORKLOADS
        for traced in (False, True)
    }


class TestMetricSet:
    def test_spec_declares_units_directions_and_bounds(self):
        for m in SPEC["end_to_end"]:
            assert set(m) == {"name", "unit", "better", "bound"}
            assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
        for m in SPEC["per_layer"]:
            assert set(m) == {"name", "unit", "better"}
            assert m["better"] in ("lower", "higher")
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])

    @pytest.mark.parametrize("name", list(workloads.WORKLOADS))
    @pytest.mark.parametrize("traced", [False, True])
    def test_every_metric_emitted_with_its_unit(self, outcomes, name, traced):
        outcome = outcomes[(name, traced)]
        line = run.result_line(outcome, traced)
        declared = SPEC["per_layer" if traced else "end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"])
            if not traced:
                assert got["value"] > 0, m["name"]
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0, outcome.failures

    def test_different_seed_same_metric_set(self, outcomes, tmp_path):
        other = toy_run("rerank", 4, False, tmp_path)
        base = outcomes[("rerank", False)]
        assert set(other.end_to_end) == set(base.end_to_end)
        assert set(other.reported) == set(base.reported)


class TestSeeds:
    def test_seed_changes_inputs(self):
        _, store_a, req_a = workloads.rerank_inputs(1, TOY)
        _, store_b, req_b = workloads.rerank_inputs(2, TOY)
        assert store_a != store_b
        assert [r.query for r in req_a] != [r.query for r in req_b]
        assert workloads.search_inputs(1, TOY)[1] != workloads.search_inputs(2, TOY)[1]
        recs_a, recs_b = workloads.train_inputs(1, TOY)[1], workloads.train_inputs(2, TOY)[1]
        assert [r.keyword for r in recs_a] != [r.keyword for r in recs_b]

    def test_same_seed_same_inputs(self):
        _, store_a, req_a = workloads.rerank_inputs(5, TOY)
        _, store_b, req_b = workloads.rerank_inputs(5, TOY)
        assert store_a == store_b
        assert all(np.array_equal(a.keyword_rows, b.keyword_rows) and a.head == b.head
                   for a, b in zip(req_a, req_b))

    def test_rerank_mix_is_fixed(self):
        _, _, requests = workloads.rerank_inputs(1, TOY)
        combos = {}
        for r in requests:
            key = (len(r.keyword_rows), r.head)
            combos[key] = combos.get(key, 0) + 1
        unit = TOY.rerank_requests // (2 * sum(workloads.K_WEIGHTS))
        assert combos == {(k, head): unit * w for k, w in zip(TOY.rerank_ks, workloads.K_WEIGHTS)
                          for head in workloads.HEADS}

    def test_counts_repeat_for_same_seed(self, outcomes, tmp_path):
        counted = [
            "model.query_encoder_passes", "model.keyword_encoder_passes", "model.crossing_evals",
            "index.distance_computations_per_query", "index.hops_per_query",
            "index.recall_at_10", "encoder.real_row_ratio",
        ]
        for name in ("rerank", "search"):
            again = toy_run(name, 3, True, tmp_path)
            first = outcomes[(name, True)]
            assert {k: again.per_layer[k] for k in counted} == {k: first.per_layer[k] for k in counted}


class TestChecksFire:
    def test_counter_contract(self):
        good = {"query_encoder_passes": 5, "keyword_encoder_passes": 0, "crossing_evals": 40}
        assert checks.rerank_counters(good, 5, 40) == []
        assert checks.rerank_counters({**good, "keyword_encoder_passes": 8}, 5, 40)
        assert checks.rerank_counters(good, 6, 40)
        assert checks.rerank_counters(good, 5, 41)

    def test_cached_scores_with_shuffled_store(self):
        model, store_texts, requests = workloads.rerank_inputs(1, TOY)
        cache = encode_corpus(store_texts, model, normalize=False).vectors.astype(np.float32)
        shuffled = cache[np.random.default_rng(0).permutation(len(cache))]
        req = requests[0]
        good = workloads.rerank_request(model, cache, req)
        bad = workloads.rerank_request(model, shuffled, req)
        assert checks.cached_matches_online(model, store_texts, req, good) == []
        assert checks.cached_matches_online(model, store_texts, req, bad)

    def test_exact_search_with_ids_shuffled_against_vectors(self):
        model, corpus, queries = workloads.search_inputs(1, TOY)
        store = encode_corpus(corpus, model)
        ids = list(store.ids)
        scan = checks.Scan(ids, store.vectors)
        build_graph(store, degree_bound=TOY.search_degree, build_beam=TOY.search_build_beam)
        perm = np.random.default_rng(0).permutation(len(ids))
        broken = EmbeddingIndex(ids=[ids[i] for i in perm], vectors=store.vectors, graph=store.graph)
        q, _ = workloads.search_request(model, store, queries[0], TOY.top_n, TOY.search_beam)
        assert checks.exact_matches_scan(knn_exact(q, store, TOY.top_n), q, scan) == []
        assert checks.exact_matches_scan(knn_exact(q, broken, TOY.top_n), q, scan)
        exact_ids = [r.keyword_id for r in knn_exact(q, store, TOY.top_n)]
        assert checks.recall_at([exact_ids], [q], scan, TOY.top_n) == 1.0
        assert checks.recall_at([exact_ids[:-1] + ["missing"]], [q], scan, TOY.top_n) == 0.9

    def test_ranked_results(self):
        model, corpus, queries = workloads.search_inputs(1, TOY)
        store = encode_corpus(corpus, model)
        build_graph(store, degree_bound=TOY.search_degree, build_beam=TOY.search_build_beam)
        _, results = workloads.search_request(model, store, queries[0], TOY.top_n, TOY.search_beam)
        known = set(store.ids)
        assert checks.ranked_results(results, known, TOY.top_n) == []
        assert checks.ranked_results(results[:-1], known, TOY.top_n)
        assert checks.ranked_results(results, known - {results[0].keyword_id}, TOY.top_n)
        flipped = [type(r)(r.keyword_id, -r.cosine_score, r.rank) for r in results]
        assert checks.ranked_results(flipped, known, TOY.top_n)

    def test_training(self):
        assert checks.training_converged([0.7, 0.6], 0.7, 0.6, 2) == []
        assert checks.training_converged([0.7, float("nan")], 0.7, 0.6, 2)
        assert checks.training_converged([0.7, 0.6], 0.7, 0.7, 2)
        assert checks.training_converged([0.7], 0.7, 0.6, 2)

    def test_failed_operation_is_counted_and_marks_run_incorrect(self, outcomes):
        out = Outcome({})

        def call(op):
            if op == 2:
                raise ValueError("boom")
            return op

        loop = workloads.closed_loop(list(range(5)), call, out, lambda op, r: True, None)
        assert (out.attempted, out.failed) == (5, 1)
        assert loop.first_pass[2] is None and len(loop.times_s) == 4
        out.end_to_end = dict(outcomes[("rerank", False)].end_to_end)
        assert run.result_line(out, False)["correct"] is False


class TestTracing:
    def test_spans_nest_under_their_request(self, outcomes):
        spans = outcomes[("rerank", True)].tracer.spans
        roots = [s for s in spans if s.name == "request"]
        assert len(roots) == TOY.rerank_requests
        for s in spans:
            if s.name == "request":
                assert s.parent == tracing.NO_PARENT
                continue
            root = s
            while root.parent != tracing.NO_PARENT:
                root = spans[root.parent]
            assert root.name == "request" and root.request_id == s.request_id
            assert root.start <= s.start <= s.end <= root.end

    def test_instrumentation_is_removed(self, outcomes):
        from twinenc import crossing, encoder, model as model_mod, training

        assert encoder.layer_forward.__module__ == "twinenc.encoder"
        assert model_mod.pack_sequences is encoder.pack_sequences
        assert training.pack_sequences.__module__ == "twinenc.encoder"
        assert crossing.residual_head_prob.__module__ == "twinenc.crossing"
        assert training.AdamW.__module__ == "twinenc.training"

    def test_self_time(self):
        spans = [
            tracing.Span("request", 0.0, 10.0, tracing.NO_PARENT, 0),
            tracing.Span("a", 1.0, 5.0, 0, 0),
            tracing.Span("b", 2.0, 3.0, 1, 0),
        ]
        t = tracing.totals(spans)
        assert t.self_s == {"request": 6.0, "a": 3.0, "b": 1.0}
        assert t.inclusive_s["a"] == 4.0


def test_fails_without_library_sources(tmp_path):
    """In a directory holding only the benchmark, the run fails and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "rerank", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
