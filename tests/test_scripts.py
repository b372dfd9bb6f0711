"""Smoke tests of the scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_pipeline_runs_every_command(tmp_path):
    # gen-synthetic, distill, finetune, encode-corpus, build-index, search,
    # score, eval-auc and eval-ndcg, each through the CLI's main
    spec = importlib.util.spec_from_file_location("run_pipeline", SCRIPTS / "run_pipeline.py")
    run_pipeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_pipeline)
    assert run_pipeline.run(tmp_path, seed=0, pairs=200, epochs=1) == 0
    assert (tmp_path / "hits.tsv").is_file()
    assert (tmp_path / "scored.tsv").is_file()
