"""Smoke tests of the scripts under ``scripts/``."""

import json
import subprocess
import sys
from pathlib import Path

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


def _ab_timing(script: str, *flags: str) -> dict:
    """The JSON that an A/B timing script prints for two labels of this tree."""
    src = Path(twinenc.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{script}.py"), f"a={src}", f"b={src}", *flags],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_time_encode_reports_both_labels():
    out = _ab_timing("time_encode", "--pairs", "1", "--queries", "5")
    assert set(out) == {"labels", "pairs", "queries_per_round", "seed", "host", "equality",
                        "batch1_encode_us", "forward_peak_b256_float32"}
    assert out["labels"] == ["a", "b"] and out["pairs"] == 1 and out["queries_per_round"] == 5
    timing = out["batch1_encode_us"]
    assert set(timing) == {"call", "round_medians", "a", "b", "b_faster_in", "time_ratio_a_to_b",
                           "median_time_ratio"}
    assert [len(ts) for ts in timing["round_medians"].values()] == [1, 1]
    for label in ("a", "b"):
        assert {"median", "q1", "q3", "iqr"} == set(timing[label])
        peak = out["forward_peak_b256_float32"][label]
        assert {"peak_bytes", "activation_bytes", "peak_activations"} == set(peak) and peak["peak_bytes"] > 0


def test_time_generate_pairs_reports_every_shape():
    out = _ab_timing("time_generate_pairs", "--pairs", "1")
    assert set(out) == {"labels", "pairs", "host", "shapes"}
    assert out["labels"] == ["a", "b"] and out["pairs"] == 1 and len(out["shapes"]) == 3
    for shape in out["shapes"]:
        assert set(shape) == {"call", "seconds", "median_s", "time_ratio_a_to_b", "median_time_ratio"}
        assert shape["call"].startswith("generate_pairs(")
        assert [len(ts) for ts in shape["seconds"].values()] == [1, 1]
