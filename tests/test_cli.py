"""End-to-end command-line tests over a small synthetic workspace."""

import hashlib
import json
import logging
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twinenc
from twinenc import bench as bench_mod
from twinenc.checkpoint import FORMAT_VERSION
from twinenc.cli import _resolve, build_parser, main
from twinenc.config import ModelConfig
from twinenc.encoder import sigmoid
from twinenc.index import EmbeddingIndex, knn_approx, knn_exact
from twinenc.model import SERVING_DTYPE, TwinModel

FAST_MODEL = ["--layers", "1", "--hidden-size", "16", "--heads", "2",
              "--vocab-buckets", "256", "--max-len", "8", "--dropout", "0.0"]
FAST_TRAIN = ["--epochs", "2", "--batch-size", "32", "--lr", "1e-3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-synthetic -> distill -> encode-corpus -> build-index, once."""
    ws = tmp_path_factory.mktemp("ws")
    assert main(["gen-synthetic", "--out-dir", str(ws / "data"), "--pairs", "400",
                 "--queries", "40", "--seed", "7", "--quiet"]) == 0
    assert main(["distill", "--data", str(ws / "data" / "train.tsv"),
                 "--out", str(ws / "model.ckpt"), "--seed", "7", "--quiet",
                 *FAST_MODEL, *FAST_TRAIN]) == 0
    assert main(["encode-corpus", "--checkpoint", str(ws / "model.ckpt"),
                 "--corpus", str(ws / "data" / "corpus.tsv"),
                 "--out", str(ws / "embeddings.bin"), "--quiet"]) == 0
    assert main(["build-index", "--embeddings", str(ws / "embeddings.bin"),
                 "--out", str(ws / "index.bin"), "--degree", "8",
                 "--build-beam", "16", "--quiet"]) == 0
    return ws


OUTPUTS = ["data/train.tsv", "data/train.tsv.manifest.json", "data/test.tsv",
           "data/test.tsv.manifest.json", "data/corpus.tsv", "data/corpus.tsv.manifest.json",
           "data/queries.txt", "model.ckpt", "model.ckpt.manifest.json", "embeddings.bin",
           "embeddings.bin.manifest.json", "index.bin", "index.bin.manifest.json"]


def test_every_output_has_the_mode_open_gives(workspace):
    probe = workspace / "probe"
    probe.open("w").close()
    mode = stat.S_IMODE(probe.stat().st_mode)  # 0o666 less the umask
    probe.unlink()
    assert {name: oct(stat.S_IMODE((workspace / name).stat().st_mode)) for name in OUTPUTS} == \
        {name: oct(mode) for name in OUTPUTS}


class TestGenSynthetic:
    def test_outputs_exist(self, workspace):
        data = workspace / "data"
        for name in ("train.tsv", "test.tsv", "corpus.tsv", "queries.txt"):
            assert (data / name).is_file(), name

    def test_train_tsv_has_header_and_manifest(self, workspace):
        lines = (workspace / "data" / "train.tsv").read_text().splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1] == "query\tkeyword\tz_bad\tz_nonbad\tlabel"

    @pytest.mark.parametrize("name", ["train.tsv", "test.tsv"])
    def test_pair_tsv_manifest_line_is_its_sidecar_without_the_config(self, workspace, name):
        line = (workspace / "data" / name).read_text().splitlines()[0]
        sidecar = json.loads((workspace / "data" / f"{name}.manifest.json").read_text())
        assert sidecar["config"]["seed"] == 7
        assert json.loads(line.removeprefix("# manifest: ")) == \
            {k: v for k, v in sidecar.items() if k != "config"}

    def test_outputs_match_pinned_digests(self, tmp_path):
        assert main(["gen-synthetic", "--out-dir", str(tmp_path), "--pairs", "2000",
                     "--queries", "200", "--seed", "7", "--quiet"]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == {
            "train.tsv": "0bec4d4e3958c881fe1d51a90678d2b52016302ffb9008cf307710c870fcf285",
            "train.tsv.manifest.json": "7c6a50900d53a872ae1eedb089139ea0981e8beb64eaefbbf8201f02cfbb4f14",
            "test.tsv": "520da14d5d67e7b0a95f821740c09b9e9169bf4e8f7dac94586715bf89f5046f",
            "test.tsv.manifest.json": "7c6a50900d53a872ae1eedb089139ea0981e8beb64eaefbbf8201f02cfbb4f14",
            "corpus.tsv": "3467613bfd99bb438cfa476235638c1334757eb688e8cd0b7297471357901d67",
            "corpus.tsv.manifest.json": "7c6a50900d53a872ae1eedb089139ea0981e8beb64eaefbbf8201f02cfbb4f14",
            "queries.txt": "d8095034d1d26ed669389629877c0f15eaf6db506714f92cb827e37836b06ae2",
        }

    @pytest.mark.parametrize("flags, named", [
        (["--pairs", "100"], "100 pairs over 500 query slots leave no held-out pairs"),
        (["--pairs", "40", "--queries", "1"], "40 pairs over 1 query slots leave no training pairs"),
    ], ids=["no-held-out-pairs", "no-training-pairs"])
    def test_split_with_an_empty_side_exits_1_and_writes_nothing(self, tmp_path, capsys, flags, named):
        assert main(["gen-synthetic", "--out-dir", str(tmp_path / "data"), *flags]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    def test_config_file_seed_beats_the_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 2}))
        assert main(["gen-synthetic", "--out-dir", str(tmp_path / "data"), "--pairs", "40",
                     "--queries", "10", "--seed", "1", "--config", str(cfg), "--quiet"]) == 0
        manifest = json.loads((tmp_path / "data" / "corpus.tsv.manifest.json").read_text())
        assert manifest["config"]["seed"] == 2


class TestDistill:
    def test_missing_data_file_fails_with_path(self, tmp_path, capsys):
        rc = main(["distill", "--data", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "m.ckpt"), "--quiet"])
        captured = capsys.readouterr()
        assert rc != 0
        assert "nope.tsv" in captured.err

    def test_manifest_written(self, workspace):
        manifest = json.loads((workspace / "model.ckpt.manifest.json").read_text())
        assert manifest["command"] == "distill"
        assert manifest["seed"] == 7
        assert len(manifest["epoch_losses"]) == 2
        assert manifest["config"]["model"]["hidden_size"] == 16
        assert "checkpoint_sha256" in manifest

    def test_rerun_bit_identical_checkpoint(self, workspace, tmp_path):
        out = tmp_path / "again.ckpt"
        assert main(["distill", "--data", str(workspace / "data" / "train.tsv"),
                     "--out", str(out), "--seed", "7", "--quiet",
                     *FAST_MODEL, *FAST_TRAIN]) == 0
        assert out.read_bytes() == (workspace / "model.ckpt").read_bytes()

    def test_config_file_overrides_flags(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"distill": {"epochs": 1}}))
        out = tmp_path / "cfgrun.ckpt"
        assert main(["distill", "--data", str(workspace / "data" / "train.tsv"),
                     "--out", str(out), "--seed", "7", "--quiet", "--config", str(cfg),
                     *FAST_MODEL, *FAST_TRAIN]) == 0
        manifest = json.loads((tmp_path / "cfgrun.ckpt.manifest.json").read_text())
        assert manifest["config"]["distill"]["epochs"] == 1  # file beat the flag

    @pytest.mark.parametrize("argv", [
        ["distill", "--data", "d.tsv", "--out", "m.ckpt", "--beta1", "0.9"],
        ["finetune", "--data", "d.tsv", "--checkpoint", "m.ckpt", "--out", "f.ckpt", "--beta2", "0.999"],
        ["encode-corpus", "--checkpoint", "m.ckpt", "--corpus", "c.tsv", "--out", "s.bin",
         "--batch-size", "8"],
    ], ids=["distill-beta1", "finetune-beta2", "encode-corpus-batch-size"])
    def test_removed_settings_are_unrecognized_arguments(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_config_file_adam_beta_exits_1_naming_it(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"distill": {"beta1": 0.9}}))
        src = Path(twinenc.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "twinenc.cli", "distill", "--config", str(cfg),
                               "--data", str(tmp_path / "d.tsv"), "--out", str(tmp_path / "m.ckpt")],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        assert "invalid configuration" in proc.stderr and "'beta1'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "m.ckpt").exists()


class TestFinetune:
    def test_runs_and_echoes_lr(self, workspace, tmp_path):
        out = tmp_path / "ft.ckpt"
        assert main(["finetune", "--data", str(workspace / "data" / "train.tsv"),
                     "--checkpoint", str(workspace / "model.ckpt"),
                     "--out", str(out), "--seed", "7", "--quiet",
                     "--finetune-lr", "5e-4", "--finetune-epochs", "1"]) == 0
        manifest = json.loads((tmp_path / "ft.ckpt.manifest.json").read_text())
        assert manifest["finetune_learning_rate"] == 5e-4
        calibration = manifest["calibration"]
        assert set(calibration) == {"a", "b"}
        assert calibration["a"] > 0 and np.isfinite(calibration["b"])


class TestSearch:
    def test_row_counts_and_format(self, workspace, tmp_path, capsys):
        out = tmp_path / "hits.tsv"
        assert main(["search", "--checkpoint", str(workspace / "model.ckpt"),
                     "--index", str(workspace / "index.bin"),
                     "--queries", str(workspace / "data" / "queries.txt"),
                     "--top-n", "5", "--out", str(out), "--quiet"]) == 0
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert header == "query\trank\tkeyword_id\tcosine_score"
        n_queries = len((workspace / "data" / "queries.txt").read_text().split("\n")) - 1
        assert len(rows) == 5 * n_queries
        ranks = [int(r.split("\t")[1]) for r in rows[:5]]
        assert ranks == [1, 2, 3, 4, 5]

    def test_exact_mode(self, workspace, capsys):
        assert main(["search", "--checkpoint", str(workspace / "model.ckpt"),
                     "--index", str(workspace / "index.bin"),
                     "--queries", str(workspace / "data" / "queries.txt"),
                     "--mode", "exact", "--top-n", "3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "cosine_score" in out

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_batched_queries_match_the_per_query_path(self, workspace, tmp_path, mode):
        out = tmp_path / "hits.tsv"
        assert main(["search", "--checkpoint", str(workspace / "model.ckpt"),
                     "--index", str(workspace / "index.bin"), "--mode", mode,
                     "--queries", str(workspace / "data" / "queries.txt"),
                     "--top-n", "5", "--out", str(out), "--quiet"]) == 0
        got = [l.split("\t") for l in out.read_text().splitlines()[2:]]
        model = TwinModel.load(workspace / "model.ckpt").cast(SERVING_DTYPE)
        index = EmbeddingIndex.load(workspace / "index.bin")
        want = []
        for query in (workspace / "data" / "queries.txt").read_text().splitlines():
            q = model.encode_queries([query])[0]
            q_unit = q / np.linalg.norm(q)
            results = knn_exact(q_unit, index, 5) if mode == "exact" else knn_approx(q_unit, index, 5)
            want += [[query, str(r.rank), r.keyword_id, r.cosine_score] for r in results]
        assert [row[:3] for row in got] == [w[:3] for w in want]
        np.testing.assert_allclose([float(row[3]) for row in got], [w[3] for w in want], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("calls", [1, 2])
    def test_queries_are_encoded_256_at_a_time(self, workspace, tmp_path, monkeypatch, capsys, calls):
        lines = (workspace / "data" / "queries.txt").read_text().splitlines()
        lines = lines if calls == 1 else lines * (256 // len(lines) + 1)  # just past 256
        queries = tmp_path / "queries.txt"
        queries.write_text("???\n" + "\n".join(lines) + "\n")  # the unencodable one is skipped first
        sizes = []
        real = TwinModel.encode_query_batch

        def counting(model, batch, **kwargs):
            sizes.append(batch.n_examples)
            return real(model, batch, **kwargs)

        monkeypatch.setattr(TwinModel, "encode_query_batch", counting)
        assert main(["search", "--checkpoint", str(workspace / "model.ckpt"),
                     "--index", str(workspace / "index.bin"), "--queries", str(queries),
                     "--mode", "exact", "--out", str(tmp_path / "hits.tsv"), "--quiet"]) == 0
        assert len(sizes) == calls and sum(sizes) == len(lines)
        assert "skipping unencodable query: '???'" in capsys.readouterr().err
        assert "???" not in (tmp_path / "hits.tsv").read_text()

    @pytest.mark.parametrize("command", ["build-index", "search"])
    def test_truncated_index_exits_1_naming_the_file(self, workspace, tmp_path, command):
        # cut inside the id table, where the old reader raised struct.error
        data = (workspace / "index.bin").read_bytes()
        hlen = int.from_bytes(data[8:12], "little")
        header = json.loads(data[12 : 12 + hlen])
        cut = tmp_path / "cut.bin"
        cut.write_bytes(data[: 12 + hlen + 4 * header["n"] * header["dim"] + 6])
        args = {"build-index": ["--embeddings", str(cut), "--out", str(tmp_path / "idx.bin")],
                "search": ["--checkpoint", str(workspace / "model.ckpt"), "--index", str(cut),
                           "--queries", str(workspace / "data" / "queries.txt")]}[command]
        src = Path(twinenc.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "twinenc.cli", command, *args, "--quiet"],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        assert str(cut) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "idx.bin").exists()

    @pytest.mark.parametrize("line, problem", [("red\tshoes", "has a cell holding a tab, CR or LF"),
                                               ("  #blue shoes", "would read back as a comment")])
    def test_query_with_a_tab_exits_1_without_a_traceback(self, workspace, tmp_path, line, problem):
        queries = tmp_path / "queries.txt"
        queries.write_text(line + "\n")
        out = tmp_path / "hits.tsv"
        src = Path(twinenc.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "twinenc.cli", "search",
                               "--checkpoint", str(workspace / "model.ckpt"),
                               "--index", str(workspace / "index.bin"), "--queries", str(queries),
                               "--out", str(out), "--quiet"],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        assert f"{out}:3: row ({line.strip()!r}, '1', " in proc.stderr and problem in proc.stderr
        assert "Traceback" not in proc.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["queries.txt"]  # no output, sidecar or temp file

    def test_missing_index(self, workspace, tmp_path, capsys):
        rc = main(["search", "--checkpoint", str(workspace / "model.ckpt"),
                   "--index", str(tmp_path / "missing.bin"),
                   "--queries", str(workspace / "data" / "queries.txt"), "--quiet"])
        assert rc != 0
        assert "missing.bin" in capsys.readouterr().err


class TestScore:
    def test_identical_text_cosine_prob(self, workspace, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("query\tkeyword\nred shoes\tred shoes\n")
        assert main(["score", "--checkpoint", str(workspace / "model.ckpt"),
                     "--pairs", str(pairs), "--head", "cosine", "--quiet"]) == 0
        out_lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        prob = float(out_lines[1].split("\t")[-1])
        model = TwinModel.load(workspace / "model.ckpt")
        a = float(model.params["cosine_head.scale"])
        b = float(model.params["cosine_head.bias"])
        assert prob == pytest.approx(float(sigmoid(np.asarray(a + b))), abs=1e-6)

    def test_pair_tsv_without_trailing_label(self, workspace, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("query\tkeyword\tz_bad\tz_nonbad\tlabel\nred\tred shoes\t-1.0\t1.0\n")
        assert main(["score", "--checkpoint", str(workspace / "model.ckpt"),
                     "--pairs", str(pairs), "--quiet"]) == 0
        out_lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert out_lines[0] == "query\tkeyword\tz_bad\tz_nonbad\tlabel\tprob"
        cells = out_lines[1].split("\t")
        assert cells[:5] == ["red", "red shoes", "-1.0", "1.0", ""]
        served = TwinModel.load(workspace / "model.ckpt").cast(SERVING_DTYPE)
        assert float(cells[5]) == pytest.approx(float(served.score_pairs(["red"], ["red shoes"])[0]), abs=1e-9)

    @pytest.mark.parametrize("head", ["cosine", "residual"])
    def test_both_heads_within_1e6_of_float64(self, workspace, tmp_path, head):
        scored = tmp_path / "scored.tsv"
        assert main(["score", "--checkpoint", str(workspace / "model.ckpt"), "--head", head,
                     "--pairs", str(workspace / "data" / "test.tsv"), "--out", str(scored), "--quiet"]) == 0
        rows = [l.split("\t") for l in scored.read_text().splitlines()[2:]]
        probs = np.array([float(r[-1]) for r in rows])
        model = TwinModel.load(workspace / "model.ckpt")
        want = model.score_pairs([r[0] for r in rows], [r[1] for r in rows], head=head)
        assert len(rows) > 50
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-6)

    def test_short_row_still_fails_when_the_last_column_is_not_label(self, workspace, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("query\tkeyword\tnote\nred\tred shoes\n")
        assert main(["score", "--checkpoint", str(workspace / "model.ckpt"),
                     "--pairs", str(pairs), "--quiet"]) == 1
        assert f"{pairs}:2: expected 3 fields, got 2" in capsys.readouterr().err

    def test_scored_file_roundtrip_to_eval(self, workspace, tmp_path, capsys):
        scored = tmp_path / "scored.tsv"
        assert main(["score", "--checkpoint", str(workspace / "model.ckpt"),
                     "--pairs", str(workspace / "data" / "test.tsv"),
                     "--out", str(scored), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["eval-auc", "--scored", str(scored), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert main(["eval-auc", "--scored", str(scored), "--out", str(tmp_path / "auc.tsv"), "--quiet"]) == 0
        assert out == (tmp_path / "auc.tsv").read_text()  # one table, to stdout or to --out
        manifest, header, row = out.splitlines()
        assert manifest.startswith("# manifest: ") and header == "metric\tvalue"
        assert row.startswith("roc_auc\t")
        auc = float(row.split("\t")[1])
        assert 0.0 <= auc <= 1.0


class TestEvalAuc:
    def test_bad_label_names_file_and_label(self, tmp_path, capsys):
        scored = tmp_path / "scored.tsv"
        scored.write_text("query\tkeyword\tlabel\tprob\na\tb\tgood\t0.9\na\tc\tmeh\t0.1\n")
        for command in ("eval-auc", "eval-ndcg"):  # both read the same label scale
            assert main([command, "--scored", str(scored), "--quiet"]) == 1
            err = capsys.readouterr().err
            assert f"{scored}:3: label 'meh' is not bad/fair/good/excellent or 0/1" in err, command

    def test_nan_score_exits_1_without_traceback(self, tmp_path):
        scored = tmp_path / "scored.tsv"
        scored.write_text("query\tkeyword\tlabel\tprob\na\tb\tgood\t0.9\na\tc\tbad\tnan\n")
        src = Path(twinenc.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "twinenc.cli", "eval-auc", "--scored", str(scored)],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        assert "scores contain NaN" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestEvalNdcg:
    def test_positions_output(self, workspace, tmp_path, capsys):
        scored = tmp_path / "scored.tsv"
        assert main(["score", "--checkpoint", str(workspace / "model.ckpt"),
                     "--pairs", str(workspace / "data" / "test.tsv"),
                     "--out", str(scored), "--quiet"]) == 0
        out_file = tmp_path / "ndcg.tsv"
        capsys.readouterr()
        assert main(["eval-ndcg", "--scored", str(scored), "--positions", "1,3,5", "--quiet"]) == 0
        printed = capsys.readouterr().out
        assert main(["eval-ndcg", "--scored", str(scored), "--positions", "1,3,5",
                     "--out", str(out_file), "--quiet"]) == 0
        assert printed == out_file.read_text()  # one table, to stdout or to --out
        rows = [l for l in printed.splitlines() if not l.startswith("#")]
        assert rows[0] == "position\tndcg"
        assert [r.split("\t")[0] for r in rows[1:]] == ["1", "3", "5"]
        assert all(0.0 <= float(r.split("\t")[1]) <= 1.0 for r in rows[1:])

    def test_binary_labels_read_as_gains_0_and_1(self, tmp_path, capsys):
        scored = tmp_path / "scored.tsv"
        scored.write_text("query\tkeyword\tlabel\tprob\na\tb\t0\t0.9\na\tc\t1\t0.1\n")
        assert main(["eval-ndcg", "--scored", str(scored), "--positions", "1,2", "--quiet"]) == 0
        # the relevant keyword ranks second: nDCG@2 = (1 / log2 3) / 1
        manifest, table = capsys.readouterr().out.split("\n", 1)
        assert manifest.startswith("# manifest: ")
        assert table == f"position\tndcg\n1\t0.000000\n2\t{1 / np.log2(3):.6f}\n"

    def test_non_integer_position_exits_1_naming_flag_and_entry(self, tmp_path, capsys):
        scored = tmp_path / "scored.tsv"
        scored.write_text("query\tkeyword\tlabel\tprob\na\tb\tgood\t0.9\n")
        assert main(["eval-ndcg", "--scored", str(scored), "--positions", "1,x"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--positions '1,x': 'x' is not an integer" in err and "Traceback" not in err


class TestPresets:
    def test_large_preset_resolves_to_model_config_large(self):
        distill = ["distill", "--data", "d.tsv", "--out", "m.ckpt"]
        by_flag = build_parser().parse_args([*distill, "--preset", "large"])
        assert _resolve(by_flag, {})["model"] == ModelConfig.large().to_dict()
        by_file = build_parser().parse_args(distill)
        assert _resolve(by_file, {"preset": "large"})["model"] == ModelConfig.large().to_dict()

    def test_config_file_preset_beats_the_flag(self):
        args = build_parser().parse_args(["distill", "--data", "d.tsv", "--out", "m.ckpt",
                                          "--preset", "large"])
        assert _resolve(args, {"preset": "desk"})["model"] == ModelConfig().to_dict()


class TestLoadedModelSettings:
    """A command that loads a checkpoint records the checkpoint's model."""

    def test_bench_manifest_records_the_timed_checkpoint(self, workspace, tmp_path):
        out = tmp_path / "bench.tsv"
        assert main(["bench", "--checkpoint", str(workspace / "model.ckpt"), "--modes", "twin_cosine",
                     "--nk-grid", "5,10,20", "--n-queries", "2", "--reps", "1", "--warmup", "0",
                     "--out", str(out), "--quiet"]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["model"] == TwinModel.load(workspace / "model.ckpt").config.to_dict()

    def test_finetune_manifest_records_the_checkpoint_vocab_hash_seed(self, workspace, tmp_path):
        config = ModelConfig(n_layers=1, hidden_size=16, n_heads=2, vocab_buckets=256, max_len=8,
                             vocab_hash_seed=5)
        TwinModel.initialize(config).save(tmp_path / "v5.ckpt")
        assert main(["finetune", "--data", str(workspace / "data" / "train.tsv"),
                     "--checkpoint", str(tmp_path / "v5.ckpt"), "--out", str(tmp_path / "ft.ckpt"),
                     "--finetune-epochs", "0", "--quiet"]) == 0
        manifest = json.loads((tmp_path / "ft.ckpt.manifest.json").read_text())
        assert "vocab_hash_seed" not in manifest["config"]
        assert manifest["config"]["model"] == config.to_dict()
        assert TwinModel.load(tmp_path / "ft.ckpt").vocab.hash_seed == 5

    def test_vocab_hash_seed_is_a_model_setting(self):
        args = build_parser().parse_args(["distill", "--data", "d.tsv", "--out", "m.ckpt",
                                          "--vocab-hash-seed", "5"])
        assert _resolve(args, {})["model"]["vocab_hash_seed"] == 5
        assert _resolve(args, {"model": {"vocab_hash_seed": -9}})["model"]["vocab_hash_seed"] == -9


class TestBench:
    def test_bench_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        run = ["bench", "--modes", "twin_cosine", "--nk-grid", "5,10,20", "--n-queries", "4",
               "--reps", "1", "--warmup", "1", "--seed", "0", "--quiet", *FAST_MODEL]
        assert main(run) == 0
        printed = capsys.readouterr().out.splitlines()
        assert main([*run, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        written = out.read_text().splitlines()
        # stdout carries the file's table: its header, a row per grid point, the fits in its manifest
        assert printed[1] == written[1] and len(printed) == len(written) == 5
        fits = json.loads(printed[0].removeprefix("# manifest: "))["fits"]
        assert fits.keys() == json.loads(written[0].removeprefix("# manifest: "))["fits"].keys()
        assert fits["twin_cosine"].keys() == {"alpha_ms", "beta_ms", "beta_se_ms", "rms_residual_ms"}
        fit = json.loads(Path(f"{out}.manifest.json").read_text())["fits"]["twin_cosine"]
        assert fit["beta_se_ms"] >= 0.0

    def test_uncached_qel_runs_every_encoder_pass(self, tmp_path):
        out = tmp_path / "bench.tsv"
        assert main(["bench", "--modes", "twin_residual", "--nk-grid", "2,3,5", "--n-queries", "2",
                     "--reps", "1", "--qel", "2", "--no-cache", "--warmup", "0",
                     "--out", str(out), "--quiet", *FAST_MODEL]) == 0
        lines = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        rows = [dict(zip(lines[0], cells)) for cells in lines[1:]]
        assert [(r["qel"], r["keyword_cache"], r["n_keywords_per_query"]) for r in rows] == \
            [("2", "False", nk) for nk in ("2", "3", "5")]
        assert [(r["query_encoder_passes"], r["keyword_encoder_passes"]) for r in rows] == \
            [("4", str(2 * nk)) for nk in (2, 3, 5)]

    def test_dtype_is_an_unknown_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench", "--dtype", "f64"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dtype f64" in capsys.readouterr().err

    def test_unknown_mode_exits_1_naming_it(self, capsys):
        assert main(["bench", "--modes", "bert", "--nk-grid", "5,10,20", "--n-queries", "2",
                     "--quiet", *FAST_MODEL]) == 1
        err = capsys.readouterr().err
        assert "model_mode must be one of" in err and "'bert'" in err


    @pytest.mark.parametrize("flags, named", [
        (["--modes", "twin_cosine,bert", "--nk-grid", "5,10,20"], "'bert'"),
        (["--modes", "twin_cosine", "--nk-grid", "5,10"], "'5,10'"),
        (["--modes", "twin_cosine", "--nk-grid", "5,5,10"], "'5,5,10'"),
        (["--modes", "twin_cosine", "--nk-grid", "0,5,10"], "'0,5,10'"),
        (["--modes", "twin_cosine", "--nk-grid", "1,x,3"], "--nk-grid '1,x,3': 'x' is not an integer"),
        (["--n-queries", "0"], "--n-queries must be >= 1, got 0"),
        (["--reps", "0"], "--reps must be >= 1, got 0"),
        (["--qel", "0"], "--qel must be >= 1, got 0"),
        (["--warmup", "-3"], "--warmup must be >= 0, got -3"),
    ], ids=["unknown-mode-after-a-good-one", "two-counts", "two-distinct-counts", "zero-count",
            "non-integer-count", "zero-queries", "zero-reps", "zero-qel", "negative-warmup"])
    def test_bad_mode_or_grid_exits_1_before_timing(self, capsys, flags, named):
        # the bad value comes last, so it wins over the test's own counts
        assert main(["bench", "--n-queries", "2", "--reps", "1", *flags, *FAST_MODEL]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert named in err and "Traceback" not in err
        assert "resolved config" not in err  # refused before settings resolve

    def test_repeated_mode_exits_1_before_timing(self, capsys, monkeypatch):
        def timed(*args, **kwargs):
            raise AssertionError("a refused mode list was timed")

        monkeypatch.setattr(bench_mod, "bench_grid", timed)
        assert main(["bench", "--modes", "twin_cosine,twin_residual, twin_cosine", "--nk-grid", "5,10,20",
                     "--n-queries", "2", "--reps", "1", *FAST_MODEL]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--modes: 'twin_cosine' repeats" in err
        assert "resolved config" not in err  # refused before settings resolve


class TestStoreFile:
    def test_build_index_refuses_a_raw_f64_store(self, raw_f64_store, tmp_path, capsys):
        out = tmp_path / "idx.bin"
        assert main(["build-index", "--embeddings", str(raw_f64_store), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"{raw_f64_store}: keyword index metric 'raw_f64'" in err and "Traceback" not in err
        assert not out.exists()


class TestEncodeCorpus:
    def test_repeated_keyword_id_fails_before_encoding(self, workspace, tmp_path, capsys, monkeypatch):
        corpus, out = tmp_path / "corpus.tsv", tmp_path / "embeddings.bin"
        corpus.write_text("id\tkeyword\nk1\tred shoes\nk2\tblue hat\nk1\tgreen socks\n")
        monkeypatch.setattr(twinenc.index, "encode_corpus", lambda *a, **k: pytest.fail("encoded"))
        assert main(["encode-corpus", "--checkpoint", str(workspace / "model.ckpt"),
                     "--corpus", str(corpus), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"error: {corpus}:4: keyword id 'k1' repeats line 2" in err and "Traceback" not in err
        assert not out.exists()


class TestManifests:
    def test_format_version_is_that_of_the_described_file(self, workspace):
        def manifest(name):
            return json.loads((workspace / f"{name}.manifest.json").read_text())

        assert manifest("model.ckpt")["format_version"] == FORMAT_VERSION
        assert manifest("embeddings.bin")["format_version"] == 2
        assert manifest("index.bin")["format_version"] == 2
        assert "format_version" not in manifest("data/corpus.tsv")


# arguments of a successful run of each command; WS/ is the workspace, TMP/ the test's directory
QUIET_RUNS = {
    "gen-synthetic": ["--out-dir", "TMP/data", "--pairs", "40", "--queries", "10"],
    "distill": ["--data", "WS/data/train.tsv", "--out", "TMP/m.ckpt", *FAST_MODEL, "--epochs", "1"],
    "finetune": ["--data", "WS/data/train.tsv", "--checkpoint", "WS/model.ckpt",
                 "--out", "TMP/ft.ckpt", "--finetune-epochs", "1"],
    "encode-corpus": ["--checkpoint", "WS/model.ckpt", "--corpus", "WS/data/corpus.tsv",
                      "--out", "TMP/embeddings.bin"],
    "build-index": ["--embeddings", "WS/embeddings.bin", "--out", "TMP/index.bin",
                    "--degree", "8", "--build-beam", "16"],
    "search": ["--checkpoint", "WS/model.ckpt", "--index", "WS/index.bin",
               "--queries", "WS/data/queries.txt"],
    "score": ["--checkpoint", "WS/model.ckpt", "--pairs", "WS/data/test.tsv"],
    "eval-auc": ["--scored", "TMP/scored.tsv"],
    "eval-ndcg": ["--scored", "TMP/scored.tsv"],
    "bench": ["--modes", "twin_cosine", "--nk-grid", "5,10,20", "--n-queries", "4", "--reps", "1",
              "--warmup", "1", *FAST_MODEL],
}


class TestDiagnostics:
    @pytest.mark.parametrize("command", sorted(QUIET_RUNS))
    def test_quiet_success_leaves_stderr_empty(self, command, workspace, tmp_path, capsys):
        (tmp_path / "scored.tsv").write_text("query\tkeyword\tlabel\tprob\n"
                                             "a\tb\tgood\t0.9\na\tc\tbad\t0.1\n")
        args = [a.replace("WS/", f"{workspace}/").replace("TMP/", f"{tmp_path}/")
                for a in QUIET_RUNS[command]]
        assert main([command, *args, "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_status_lines_reach_stderr_under_python_m(self, workspace, tmp_path):
        # the module runs as __main__ there, so its logger must be named for the package
        out = tmp_path / "m.ckpt"
        src = Path(twinenc.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "twinenc.cli", "distill",
                               "--data", str(workspace / "data" / "train.tsv"), "--out", str(out),
                               *FAST_MODEL, "--epochs", "1"],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.startswith("resolved config: {")
        assert "epoch 1/1  mean loss " in proc.stderr
        assert proc.stderr.endswith(f"wrote checkpoint {out}\n")

    def test_status_line_skips_a_root_handler(self, tmp_path, capsys):
        # an in-process caller that logs through the root logger still sees
        # each CLI line once, on the stream main() writes to
        class Collect(logging.Handler):
            def emit(self, record):
                seen.append(record.getMessage())

        seen, root_handler = [], Collect()
        logging.getLogger().addHandler(root_handler)
        try:
            assert main(["gen-synthetic", "--out-dir", str(tmp_path / "data"), "--pairs", "40",
                         "--queries", "10"]) == 0
        finally:
            logging.getLogger().removeHandler(root_handler)
        err = capsys.readouterr().err
        assert err.count("wrote 32 train / 8 test pairs") == 1
        assert seen == []
        assert logging.getLogger("twinenc").propagate

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--config", "cfg.json"]])
    @pytest.mark.parametrize("command", ["encode-corpus", "build-index", "search", "score",
                                         "eval-auc", "eval-ndcg"])
    def test_commands_that_read_no_settings_reject_config_and_seed(self, command, flag, capsys):
        args = [command, *QUIET_RUNS[command]]
        assert build_parser().parse_args([*args, "--quiet"]).quiet
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*args, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
