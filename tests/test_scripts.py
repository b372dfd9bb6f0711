"""Smoke tests of the scripts under ``scripts/``."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twinenc
from script_loader import SCRIPTS, load_script


def test_run_pipeline_runs_every_command(tmp_path):
    # gen-synthetic, distill, finetune, encode-corpus, build-index, search,
    # score, eval-auc and eval-ndcg, each through the CLI's main
    assert load_script("run_pipeline").run(tmp_path, seed=0, pairs=200, epochs=1) == 0
    assert (tmp_path / "hits.tsv").is_file()
    assert (tmp_path / "scored.tsv").is_file()


def test_quality_report_has_every_row_and_column():
    report = load_script("quality_report").report(1, n_pairs=300, n_queries=30, epochs=1)
    rows = report["rows"]
    assert list(rows) == ["teacher", "untrained", "cosine", "cosine, fine-tuned", "cosine, unshared",
                          "cosine, cls_token", "residual", "residual, fine-tuned",
                          "residual, unshared", "residual, cls_token"]
    for name, row in rows.items():
        assert {"auc", "per_query_auc", "store_p10"} <= set(row), name
        assert all(0.0 <= row[k] <= 1.0 for k in ("auc", "per_query_auc", "store_p10")), name
    assert report["store_queries"] == 6 and report["store_keywords"] > 200


def test_bench_summary_flags_mixed_checkout_kinds(tmp_path, capsys):
    for label, sha in (("clone", "7e805d1e2bf12a2c3d9b906685e70632ea60893d"), ("copy", "unknown")):
        (tmp_path / label).mkdir()
        record = {"workload": "train", "trace": 0, "seed": 11, "environment": {"git_sha": sha},
                  "result": {"metrics": {"peak_rss_mb": {"value": 59.5, "unit": "MB"}}}}
        (tmp_path / label / "train-seed11-trace0.json").write_text(json.dumps(record))
    summary = load_script("bench_summary")
    assert summary.main([f"a={tmp_path / 'clone'}", f"b={tmp_path / 'copy'}"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert (out["a"]["checkout"], out["b"]["checkout"]) == ("git", "plain")
    assert out["checkout_kinds_differ"] is True
    assert out["b"]["train"]["trace0"]["metrics"]["peak_rss_mb"]["median"] == 59.5
    assert "checkout kinds differ (a: git, b: plain)" in captured.err

    assert summary.main([f"a={tmp_path / 'copy'}", f"b={tmp_path / 'copy'}"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["checkout_kinds_differ"] is False and captured.err == ""


def test_step_memory_prints_one_json_line(capsys):
    assert load_script("step_memory").main(["--preset", "desk", "--batch-size", "8"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    row = json.loads(line)
    assert (row["preset"], row["batch_size"]) == ("desk", 8)
    assert 0 < row["forward_caches_mb"] < row["step_peak_mb"]
    assert abs(row["peak_over_caches"] - row["step_peak_mb"] / row["forward_caches_mb"]) < 0.01
    assert math.isfinite(row["loss"])
    # the traced step's peak falls on a package line and splits into caches and the rest
    assert row["peak_at"].split(":")[0] in {"encoder.py", "crossing.py", "training.py", "model.py"}
    assert row["peak_code"]
    assert 0 < row["caches_at_peak_mb"] <= row["forward_caches_mb"] + 0.001
    assert abs(row["caches_at_peak_mb"] + row["rest_at_peak_mb"] - row["traced_step_peak_mb"]) < 0.002
    assert abs(row["traced_step_peak_mb"] - row["step_peak_mb"]) < 0.05 * row["step_peak_mb"]


def _peak_rss_records(root: Path, label: str, runs: dict[str, list[float]]) -> Path:
    """A results directory of ``label`` with one peak_rss_mb record per workload and seed."""
    directory = root / label
    directory.mkdir()
    for workload, values in runs.items():
        for seed, value in enumerate(values):
            record = {"workload": workload, "trace": 0, "seed": seed, "environment": {"git_sha": "unknown"},
                      "result": {"metrics": {"peak_rss_mb": {"value": value, "unit": "MB"}}}}
            (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
    return directory


def test_bench_summary_gives_each_verdict_from_paired_runs(tmp_path, capsys):
    base = [50.0, 50.1, 50.2, 50.1, 50.0, 50.3, 50.2, 50.1, 50.0, 50.2]
    before = {"faster": base, "same": base, "slower": base, "noisy": [40.0, 60.0] * 5,
              "noisy_but_below": [40.0, 60.0] * 5, "nine_of_ten": base}
    after = {"faster": [v - 1.0 for v in base],  # every pair won by more than the IQR
             "same": base[:5] + [v - 0.01 for v in base[5:]],  # ties count for neither side
             "slower": [v * 1.2 for v in base],  # 20% worse against a 0.1 bound
             "noisy": [41.0, 59.0] * 5,  # an IQR of 40% of the median
             "noisy_but_below": [30.0, 35.0] * 5,  # as spread, but below every parent run
             "nine_of_ten": [v - 1.0 for v in base[:8]] + [50.0, 50.3]}  # 8 won, 1 tie, 1 lost
    summary = load_script("bench_summary")
    assert summary.main([f"before={_peak_rss_records(tmp_path, 'before', before)}",
                         f"after={_peak_rss_records(tmp_path, 'after', after)}"]) == 0
    comparison = json.loads(capsys.readouterr().out)["comparison"]
    rows = {w: comparison[w]["trace0"]["peak_rss_mb"] for w in before}
    assert {w: row["verdict"] for w, row in rows.items()} == {
        "faster": "gain", "same": "no_regression", "slower": "worse", "noisy": "unresolved",
        "noisy_but_below": "no_regression", "nine_of_ten": "no_regression"}
    assert {w: row["after_won"] for w, row in rows.items()} == {
        "faster": 10, "same": 5, "slower": 0, "noisy": 5, "noisy_but_below": 10, "nine_of_ten": 8}
    assert rows["slower"]["bound"] == 0.1 and abs(rows["slower"]["change_towards_worse"] - 0.2) < 1e-9
    assert rows["faster"]["median_before"] - rows["faster"]["median_after"] > rows["faster"]["iqr_before"]
    assert [run["seed"] for run in rows["noisy"]["runs"]] == list(range(10))
    assert rows["noisy"]["runs"][0] == {"seed": 0, "before": 40.0, "after": 41.0}


def _ab_timing(script: str, *flags: str) -> dict:
    """The JSON that an A/B timing script prints for two labels of this tree."""
    src = Path(twinenc.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{script}.py"), f"a={src}", f"b={src}", *flags],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_beam_sweep_restores_the_width_when_a_search_fails(tmp_path, monkeypatch, tiny_model):
    from twinenc import index as index_mod

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts src/ and benchmark/ first
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "benchmark"))
    import workloads

    corpus = ["red shoes", "blue hat", "green tea", "paris hotels", "cheap flights"]
    monkeypatch.setattr(workloads, "search_inputs", lambda seed, sizes: (tiny_model, corpus, ["red shoes"]))
    widths = []

    def failing(*args, **kwargs):
        widths.append(index_mod._WIDTH)
        raise RuntimeError("search failed")

    monkeypatch.setattr(index_mod, "knn_approx", failing)
    default = index_mod._WIDTH
    with pytest.raises(RuntimeError, match="search failed"):
        load_script("beam_sweep").main(["--widths", "3", "--out", str(tmp_path)])
    assert widths == [3] and index_mod._WIDTH == default


def test_beam_sweep_leaves_the_import_path_and_environment_as_it_found_them(tmp_path, monkeypatch, tiny_model):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "benchmark"))
    import workloads

    corpus = ["red shoes", "blue hat", "green tea", "paris hotels", "cheap flights"]
    monkeypatch.setattr(workloads, "search_inputs", lambda seed, sizes: (tiny_model, corpus, ["red shoes"]))
    path = list(sys.path)
    assert load_script("beam_sweep").main(["--beams", "16", "--widths", "1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "search_beam_sweep-seed0-trace0.json").is_file()
    assert sys.path == path and "OPENBLAS_NUM_THREADS" not in os.environ


def test_time_encode_reports_both_labels():
    out = _ab_timing("time_encode", "--pairs", "1", "--queries", "5")
    assert set(out) == {"labels", "pairs", "queries_per_round", "seed", "host", "equality",
                        "batch1_encode_us", "forward_peak_b256_float32", "encode_keywords_peak_store_float32"}
    assert out["labels"] == ["a", "b"] and out["pairs"] == 1 and out["queries_per_round"] == 5
    timing = out["batch1_encode_us"]
    assert set(timing) == {"call", "round_medians", "a", "b", "b_faster_in", "time_ratio_a_to_b",
                           "median_time_ratio"}
    assert [len(ts) for ts in timing["round_medians"].values()] == [1, 1]
    for label in ("a", "b"):
        assert {"median", "q1", "q3", "iqr"} == set(timing[label])
        peak = out["forward_peak_b256_float32"][label]
        assert {"peak_bytes", "activation_bytes", "peak_activations"} == set(peak) and peak["peak_bytes"] > 0
        store_peak = out["encode_keywords_peak_store_float32"][label]
        assert set(store_peak) == {"peak_bytes", "output_bytes"}
        assert store_peak["peak_bytes"] > store_peak["output_bytes"] == 2048 * 64 * 4
