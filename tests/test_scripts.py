"""Smoke tests of the scripts under ``scripts/``."""

from script_loader import load_script


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
