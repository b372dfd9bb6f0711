"""Malformed files: every reader fails with a ValueError naming the file.

A small checkpoint, a small graph index and a small graph-less store (the
file ``encode-corpus`` writes) are cut at every prefix length and flipped at
random single bytes. Each damaged file must either load or raise a
``ValueError`` whose message contains its path;
``struct.error``, ``KeyError``, ``IndexError`` or ``TypeError`` fail the test
by propagating.

Text files (pair TSV, scored table, corpus, queries) must name
the path and the line of an invalid UTF-8 byte, and each CLI command that
reads one exits 1 with the file named on stderr and no traceback. So does
``search`` on a graph index with a truncated graph block, a negative degree
bound, or a neighbour id past the last keyword. A bad
``gen-synthetic`` argument exits the same way, naming the argument.

The TSV writer refuses a row that would not read back as itself and
leaves nothing at the path; every text output otherwise reads back equal.
"""

import io
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import twinenc
from twinenc import ModelConfig, TwinModel, encode_corpus, load_pair_tsv
from twinenc.checkpoint import pack_str, write_preamble
from twinenc.index import INDEX_FORMAT_VERSION, INDEX_MAGIC, EmbeddingIndex, build_graph
from twinenc.textio import keyword_ids, lines, read_corpus, read_table, write_tsv


def _checkpoint_bytes(tmp_path):
    cfg = ModelConfig(n_layers=1, hidden_size=2, n_heads=1, vocab_buckets=4, max_len=2, dropout=0.0)
    TwinModel.initialize(cfg, seed=0).save(tmp_path / "model.ckpt")
    return (tmp_path / "model.ckpt").read_bytes()


def _graph_index_bytes(tmp_path):
    rng = np.random.default_rng(0)
    v = rng.standard_normal((12, 4))
    v = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
    build_graph(EmbeddingIndex(ids=[f"k{i}" for i in range(12)], vectors=v), 4, 8).save(tmp_path / "g.twix")
    return (tmp_path / "g.twix").read_bytes()


def _unit_store_bytes(tmp_path):
    rng = np.random.default_rng(1)
    v = rng.standard_normal((4, 3))
    v = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
    EmbeddingIndex(ids=list("abcd"), vectors=v).save(tmp_path / "unit.twix")
    return (tmp_path / "unit.twix").read_bytes()


FORMATS = {
    "checkpoint": (_checkpoint_bytes, TwinModel.load),
    "graph_index": (_graph_index_bytes, EmbeddingIndex.load),
    "unit_store": (_unit_store_bytes, EmbeddingIndex.load),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("originals")
    return {name: make(tmp) for name, (make, _) in FORMATS.items()}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


def _loads_or_names_path(load, path, data) -> bool:
    """True when ``data`` loads; a ValueError must name ``path``."""
    path.write_bytes(data)
    try:
        load(path)
    except ValueError as exc:
        assert str(path) in str(exc), f"{exc!r} does not name {path}"
        return False
    return True


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_truncation_fails_naming_the_file(fmt, originals, scratch):
    data, load = originals[fmt], FORMATS[fmt][1]
    path = scratch / f"cut.{fmt}"
    assert _loads_or_names_path(load, path, data)
    for cut in range(len(data)):
        assert not _loads_or_names_path(load, path, data[:cut]), f"prefix of {cut} bytes loaded"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_trailing_bytes_rejected(fmt, originals, scratch):
    path = scratch / f"trailing.{fmt}"
    assert not _loads_or_names_path(FORMATS[fmt][1], path, originals[fmt] + b"\x00")


def test_raw_f64_store_is_refused_naming_the_file(raw_f64_store):
    with pytest.raises(ValueError, match=re.escape(f"{raw_f64_store}: keyword index metric 'raw_f64'")):
        EmbeddingIndex.load(raw_f64_store)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.floats(0.0, 1.0, exclude_max=True), xor=st.integers(1, 255))
def test_byte_flip_loads_or_fails_naming_the_file(fmt, originals, scratch, where, xor):
    data = bytearray(originals[fmt])
    data[int(where * len(data))] ^= xor
    _loads_or_names_path(FORMATS[fmt][1], scratch / f"flip.{fmt}", bytes(data))


PAIRS = (b"query\tkeyword\tz_bad\tz_nonbad\tlabel\n"
         b"red shoes\tbuy red shoes\t-1.0\t1.0\tgood\n"
         b"# a comment\n"
         b"blue hat\tcheap blue hat\t0.5\t-0.5\n")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.integers(0, len(PAIRS)), newline=st.sampled_from([b"\n", b"\r\n", b"\r"]))
def test_invalid_utf8_in_pair_tsv_names_the_line(scratch, where, newline):
    data = PAIRS.replace(b"\n", newline)
    where = min(where, len(data))
    path = scratch / "bad-utf8.tsv"
    path.write_bytes(data[:where] + b"\xff" + data[where:])
    # universal newlines, as the stdlib reads them: a "\r" just before the bad byte ends a line
    line = 1 + sum(ln.endswith("\n") for ln in io.StringIO(data[:where].decode(), newline=None))
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: invalid UTF-8")):
        load_pair_tsv(path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.floats(0.0, 1.0, exclude_max=True), xor=st.integers(1, 255))
def test_pair_tsv_byte_flip_loads_or_fails_naming_the_file(scratch, where, xor):
    data = bytearray(PAIRS)
    data[int(where * len(data))] ^= xor
    _loads_or_names_path(load_pair_tsv, scratch / "flip.tsv", bytes(data))


@pytest.mark.parametrize("row, empty", [("a\tb\t1.5\t\tgood", "z_nonbad"), ("a\tb\t\t1.5\t", "z_bad")])
def test_half_filled_logit_pair_names_the_empty_column(tmp_path, row, empty):
    path = tmp_path / "half.tsv"
    path.write_text("query\tkeyword\tz_bad\tz_nonbad\tlabel\n" + row + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: malformed row: {empty} is empty")):
        load_pair_tsv(path)


def test_a_label_less_pair_row_must_have_every_cell(tmp_path):
    path = tmp_path / "short.tsv"
    path.write_text("query\tkeyword\tz_bad\tz_nonbad\na\tb\t1.5\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: expected 4 fields, got 3")):
        load_pair_tsv(path)


BOM = b"\xef\xbb\xbf"  # as Excel and PowerShell save UTF-8


def test_a_byte_order_mark_does_not_make_a_corpus_header_a_keyword(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_bytes(BOM + b"id\tkeyword\nk1\tred shoes\nk2\tblue hat\n")
    assert read_corpus(path) == (["k1", "k2"], ["red shoes", "blue hat"])


def test_a_pair_tsv_with_a_byte_order_mark_loads_as_without_it(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_bytes(PAIRS)
    plain = load_pair_tsv(path)
    path.write_bytes(BOM + PAIRS)
    assert load_pair_tsv(path) == plain


def test_invalid_utf8_after_a_byte_order_mark_names_its_line_and_byte(tmp_path):
    path = tmp_path / "text.txt"
    path.write_bytes(BOM + b"ab\n\xff")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: invalid UTF-8 at byte 6")):
        lines(path)


def test_bare_corpus_lines_get_ids_of_one_width_in_line_order(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a\n" * 1_000_001)
    ids, texts = read_corpus(path)
    assert len(ids) == len(texts) == 1_000_001
    assert {len(kid) for kid in ids} == {len("k1000000")}
    assert ids == sorted(set(ids))


def test_lines_are_split_lazily_after_an_eager_decode(tmp_path):
    path = tmp_path / "text.txt"
    path.write_bytes(b"a\r\n# note\rb\n\nc")
    numbered = lines(path)
    assert not isinstance(numbered, list)
    assert next(numbered) == (1, "a")
    assert list(numbered) == [(3, "b"), (5, "c")]
    path.write_bytes(b"a\nb\n\xff\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: invalid UTF-8 at byte 4")):
        lines(path)  # before a single line is taken


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text(alphabet="ab#\t \r\n", max_size=40))
def test_lines_split_as_universal_newlines(scratch, text):
    path = scratch / "text.txt"
    path.write_bytes(text.encode())
    expected = [(n, line.rstrip("\n")) for n, line in enumerate(io.StringIO(text, newline=None), start=1)]
    assert list(lines(path)) == [(n, line) for n, line in expected if line and line[0] != "#"]


def test_lines_hold_about_one_copy_of_the_file(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("".join(f"k{i:06d}\tkeyword number {i}\n" for i in range(40_000)))
    tracemalloc.start()
    try:
        for _ in lines(path):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes and their decoded str live together only while it is decoded
    assert peak <= 2.5 * path.stat().st_size


@pytest.mark.parametrize("cell", ["red\tshoes", "red\nshoes", "red\rshoes", "red shoes\r\n"])
def test_writer_refuses_a_cell_that_would_split_its_row(tmp_path, cell):
    out = tmp_path / "out.tsv"
    message = f"{out}:3: row ('a', {cell!r}) has a cell holding a tab, CR or LF"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_tsv(out, [("query", "keyword"), ("a", cell), ("b", "ok")], manifest={"command": "test"},
                  sidecar={"command": "test"})
    assert list(tmp_path.iterdir()) == []  # no output, no sidecar, no temp file


@pytest.mark.parametrize("row, problem", [((), "is an empty line"), (("",), "is an empty line"),
                                          (("#a", "b"), "would read back as a comment")])
def test_writer_refuses_a_row_that_would_not_read_back_and_keeps_the_old_file(tmp_path, row, problem):
    out = tmp_path / "out.tsv"
    out.write_bytes(b"old\n")
    with pytest.raises(ValueError, match=re.escape(f"{out}:2: row {row!r} {problem}")):
        write_tsv(out, [("a", "b"), row], sidecar={"command": "test"})
    assert out.read_bytes() == b"old\n" and [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


def test_writer_refuses_a_first_line_starting_with_a_byte_order_mark(tmp_path):
    out = tmp_path / "out.tsv"
    row = ("\ufeffred shoes",)
    with pytest.raises(ValueError, match=re.escape(f"{out}:1: row {row!r} would read back without its "
                                                   "leading U+FEFF")):
        write_tsv(out, [row, ("blue hat",)], sidecar={"command": "test"})
    assert list(tmp_path.iterdir()) == []
    write_tsv(out, [row], manifest={"command": "test"})  # after the manifest line it reads back
    assert [line for _, line in lines(out)] == ["\ufeffred shoes"]


def test_writer_interrupted_mid_rows_leaves_nothing(tmp_path):
    def rows():
        yield "a", "b"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_tsv(tmp_path / "out.tsv", rows(), manifest={"command": "test"}, sidecar={"command": "test"})
    assert list(tmp_path.iterdir()) == []


def _table_rows(path):
    table = read_table(path)
    return [tuple(table.header), *(tuple(cells) for _, cells in table.rows)]


# each text output as rows built from arbitrary texts, and its reader giving the rows back
ROUND_TRIPS = {
    "scored table": (lambda texts: [("query", "prob"), *((t, t) for t in texts)], _table_rows),
    "corpus": (lambda texts: [("id", "keyword"), *zip(keyword_ids(len(texts)), texts)],
               lambda path: [("id", "keyword"), *zip(*read_corpus(path))]),
    "queries": (lambda texts: [(t,) for t in texts], lambda path: [(line,) for _, line in lines(path)]),
}
any_text = st.text(st.characters(codec="utf-8"), max_size=8)


@pytest.mark.parametrize("kind", ROUND_TRIPS)
@settings(max_examples=150, deadline=None)
@given(texts=st.lists(any_text | any_text.map("#".__add__) | st.sampled_from(["", "a\tb", "a\rb", "a\r\nb",
                                                                             "a\u2028b\x85"]),
                      min_size=1, max_size=4))
def test_text_output_refuses_or_reads_back_equal(tmp_path_factory, kind, texts):
    """A writer refusal names the row, leaves nothing at the path, and is
    right: written by hand, that row's line would not read back as the row."""
    to_rows, read = ROUND_TRIPS[kind]
    rows = to_rows(texts)
    path = tmp_path_factory.mktemp("out") / "out.tsv"
    try:
        write_tsv(path, rows)
    except ValueError as exc:
        m = re.match(rf"{re.escape(str(path))}:(\d+): row ", str(exc))
        assert m and list(path.parent.iterdir()) == []
        row = rows[int(m.group(1)) - 1]
        path.write_bytes(("\t".join(row) + "\n").encode("utf-8"))
        assert [tuple(line.split("\t")) for _, line in lines(path)] != [row]
        return
    assert read(path) == rows


def test_corpus_numbers_only_its_bare_lines(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("id\tkeyword\nx1\tred shoes\nblue hat\nx2\tgreen socks\nwarm gloves\n")
    assert read_corpus(path) == (["x1", "k000000", "x2", "k000001"],
                                 ["red shoes", "blue hat", "green socks", "warm gloves"])


def test_only_the_first_corpus_row_is_a_header(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("id\tkeyword\nk1\tred shoes\nid\tkeyword\nk2\tblue hat\n")
    assert read_corpus(path) == (["k1", "id", "k2"], ["red shoes", "keyword", "blue hat"])
    path.write_text("# corpus\nid\tkeyword\nid\tkeyword\nk2\tblue hat\nid\tsocks\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:5: keyword id 'id' repeats line 3")):
        read_corpus(path)


@pytest.mark.parametrize("body, expected", [
    ("id\tkeyword\nk1\tred shoes\nk2\tblue hat\nk1\tgreen socks\n", ":4: keyword id 'k1' repeats line 2"),
    # a bare line's assigned id counts as given
    ("# corpus\nk000001\tred shoes\n\nblue hat\ngreen socks\n", ":5: keyword id 'k000001' repeats line 2"),
], ids=["given", "assigned"])
def test_a_repeated_corpus_id_names_its_line_and_the_first(tmp_path, body, expected):
    path = tmp_path / "corpus.tsv"
    path.write_text(body)
    with pytest.raises(ValueError, match=re.escape(f"{path}{expected}")):
        read_corpus(path)


@pytest.fixture(scope="module")
def served(tmp_path_factory, tiny_model):
    """A checkpoint and an exact-search store for the CLI cases."""
    tmp = tmp_path_factory.mktemp("served")
    tiny_model.save(tmp / "model.ckpt")
    encode_corpus(["red shoes", "blue hat", "green socks"], tiny_model).save(tmp / "store.twix")
    (tmp / "pairs.tsv").write_bytes(PAIRS)
    return tmp


def _graph_index(rows, **header_changes) -> bytes:
    """A three-keyword graph index file (degree bound 2) holding ``rows``, padded with -1."""
    header = {"n": 3, "dim": 4, "metric": "l2_unit", "degree_bound": 2, "build_beam": 8,
              "entry_point": 0, **header_changes}
    graph = np.full((3, 2), -1, dtype="<i4")
    for row, nbrs in zip(graph, rows):
        row[: len(nbrs)] = nbrs
    chunks = [*write_preamble(INDEX_MAGIC, INDEX_FORMAT_VERSION, header), np.eye(3, 4, dtype="<f4").tobytes()]
    chunks += [pack_str(f"k{i}") for i in range(3)]
    return b"".join(chunks) + graph.tobytes()


SEARCH_BAD_INDEX = ["search", "--checkpoint", "SERVED/model.ckpt", "--index", "BAD", "--mode", "approx",
                    "--queries", "SERVED/pairs.tsv"]
PAIRS_NO_WORD = PAIRS.replace(b"buy red shoes", b"!!!").replace(b"\t-0.5\n", b"\t-0.5\tbad\n")  # every row labelled
SCORED = b"query\tkeyword\tlabel\tprob\na\tb\tgood\t0.9\na\tc\tbad\t0.1\n"

FINETUNE = ["finetune", "--data", "SERVED/pairs.tsv", "--checkpoint", "SERVED/model.ckpt", "--out", "OUT"]

# case -> (file contents, command-line arguments with BAD for the file, text stderr must hold
#          [, exit status: 1 when left out])
CLI_CASES = {
    "pair_tsv": (PAIRS.replace(b"cheap", b"ch\xffeap"),
                 ["distill", "--data", "BAD", "--out", "OUT"], "BAD:4: invalid UTF-8"),
    "pair_tsv_half_logits": (PAIRS.replace(b"\t1.0\tgood", b"\t\tgood"),
                             ["distill", "--data", "BAD", "--out", "OUT"], "BAD:2: malformed row: z_nonbad is empty"),
    "pair_text_distill": (PAIRS_NO_WORD, ["distill", "--data", "BAD", "--out", "OUT"],
                          "BAD:2: malformed row: keyword '!!!' is not text with a letter or digit"),
    "pair_text_finetune": (PAIRS_NO_WORD,
                           ["finetune", "--data", "BAD", "--checkpoint", "SERVED/model.ckpt", "--out", "OUT"],
                           "BAD:2: malformed row: keyword '!!!' is not text with a letter or digit"),
    "pair_text_score": (PAIRS_NO_WORD,
                        ["score", "--checkpoint", "SERVED/model.ckpt", "--pairs", "BAD", "--out", "OUT"],
                        "BAD:2: keyword '!!!' is not text with a letter or digit"),
    "scored": (SCORED.replace(b"good", b"go\xffod"),
               ["eval-auc", "--scored", "BAD"], "BAD:2: invalid UTF-8"),
    "scored_prob": (SCORED.replace(b"0.1", b"abc"),
                    ["eval-auc", "--scored", "BAD"], "BAD:3: prob 'abc' is not a number"),
    "scored_prob_nan": (SCORED.replace(b"0.9", b"nan"),
                        ["eval-auc", "--scored", "BAD"], "BAD:2: prob 'nan' is not a number"),
    "scored_ndcg_prob_nan": (SCORED.replace(b"0.9", b"nan"),
                             ["eval-ndcg", "--scored", "BAD"], "BAD:2: prob 'nan' is not a number"),
    "scored_ndcg_label": (SCORED.replace(b"bad", b"meh"),
                          ["eval-ndcg", "--scored", "BAD"], "BAD:3: label 'meh' is not bad/fair/good/excellent"),
    "corpus": (b"id\tkeyword\nk0\tred shoes\nk1\t\xff hat\n",
               ["encode-corpus", "--checkpoint", "SERVED/model.ckpt", "--corpus", "BAD", "--out", "OUT"],
               "BAD:3: invalid UTF-8"),
    "corpus_repeated_id": (b"id\tkeyword\nk0\tred shoes\nk1\tblue hat\nk0\tgreen socks\n",
                           ["encode-corpus", "--checkpoint", "SERVED/model.ckpt", "--corpus", "BAD", "--out", "OUT"],
                           "BAD:4: keyword id 'k0' repeats line 2"),
    "queries": (b"red shoes\r\nblue \xffhat\r\n",
                ["search", "--checkpoint", "SERVED/model.ckpt", "--index", "SERVED/store.twix",
                 "--mode", "exact", "--queries", "BAD"], "BAD:2: invalid UTF-8"),
    "index_truncated_graph_block": (_graph_index([[1], [0, 2], [1]])[:-4], SEARCH_BAD_INDEX,
                                    "BAD: truncated file or bad count: 24 bytes wanted"),
    "index_negative_degree_bound": (_graph_index([[1], [0, 2], [1]], degree_bound=-1), SEARCH_BAD_INDEX,
                                    "BAD: keyword index header has negative shape n=3, dim=4, degree_bound=-1"),
    "index_neighbour_id_past_n": (_graph_index([[1], [0, 3], [1]]), SEARCH_BAD_INDEX,
                                  "BAD: neighbour ids must lie in [0, 3)"),
    # bad arguments read no file and must name the argument instead
    "gen_queries_zero": (b"", ["gen-synthetic", "--out-dir", "OUT", "--pairs", "20", "--queries", "0"],
                         "--queries must be >= 1, got 0"),
    "gen_queries_negative": (b"", ["gen-synthetic", "--out-dir", "OUT", "--pairs", "20", "--queries", "-5"],
                             "--queries must be >= 1, got -5"),
    "gen_one_topic": (b"", ["gen-synthetic", "--out-dir", "OUT", "--pairs", "20", "--queries", "2",
                            "--topics", "1"], "--topics must be >= 2, got 1"),
    # no flag is read as an abbreviation of a longer one: a usage error, exit status 2
    "gen_abbreviated_out": (b"", ["gen-synthetic", "--out", "OUT", "--pairs", "400", "--queries", "40"],
                            "the following arguments are required: --out-dir", 2),
    "gen_abbreviated_pairs": (b"", ["gen-synthetic", "--out-dir", "OUT", "--pair", "20", "--queries", "2"],
                              "unrecognized arguments: --pair 20", 2),
    # evaluation reads score's columns, nDCG has one gain and the split one hold-out share
    "auc_score_col": (SCORED, ["eval-auc", "--scored", "BAD", "--out", "OUT", "--score-col", "prob"],
                      "unrecognized arguments: --score-col prob", 2),
    "auc_label_col": (SCORED, ["eval-auc", "--scored", "BAD", "--out", "OUT", "--label-col", "label"],
                      "unrecognized arguments: --label-col label", 2),
    "ndcg_query_col": (SCORED, ["eval-ndcg", "--scored", "BAD", "--out", "OUT", "--query-col", "query"],
                       "unrecognized arguments: --query-col query", 2),
    "ndcg_gain": (SCORED, ["eval-ndcg", "--scored", "BAD", "--out", "OUT", "--gain", "linear"],
                  "unrecognized arguments: --gain linear", 2),
    "gen_holdout": (b"", ["gen-synthetic", "--out-dir", "OUT", "--pairs", "40", "--queries", "10",
                          "--holdout", "0.2"], "unrecognized arguments: --holdout 0.2", 2),
    # each training command takes only the flags its phase reads
    "finetune_lr": (b"", [*FINETUNE, "--lr", "5"], "unrecognized arguments: --lr 5", 2),
    "finetune_epochs": (b"", [*FINETUNE, "--epochs", "40"], "unrecognized arguments: --epochs 40", 2),
    "finetune_temperature": (b"", [*FINETUNE, "--temperature", "9"],
                             "unrecognized arguments: --temperature 9", 2),
    "distill_finetune_lr": (b"", ["distill", "--data", "SERVED/pairs.tsv", "--out", "OUT", "--finetune-lr", "7"],
                            "unrecognized arguments: --finetune-lr 7", 2),
    "distill_finetune_epochs": (b"", ["distill", "--data", "SERVED/pairs.tsv", "--out", "OUT",
                                      "--finetune-epochs", "9"], "unrecognized arguments: --finetune-epochs 9", 2),
}


def _run_cli(args, stdin=b""):
    src = Path(twinenc.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "twinenc.cli", *args, "--quiet"], input=stdin,
                          capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_malformed_text_exits_1_naming_the_file(case, served, tmp_path):
    data, args, expected, *status = CLI_CASES[case]
    bad, out = tmp_path / "bad", tmp_path / "out"
    bad.write_bytes(data)
    subs = {"BAD": str(bad), "OUT": str(out), "SERVED": str(served)}
    proc = _run_cli([re.sub("BAD|OUT|SERVED", lambda m: subs[m[0]], a) for a in args])
    stderr = proc.stderr.decode()
    assert proc.returncode == (status[0] if status else 1), stderr
    assert expected.replace("BAD", str(bad)) in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


def test_invalid_utf8_on_stdin_names_stdin(served):
    proc = _run_cli(["search", "--checkpoint", str(served / "model.ckpt"),
                     "--index", str(served / "store.twix"), "--mode", "exact", "--queries", "-"],
                    stdin=b"red shoes\n\xff\n")
    assert proc.returncode == 1
    assert "<stdin>:2: invalid UTF-8" in proc.stderr.decode()
    assert "Traceback" not in proc.stderr.decode()
