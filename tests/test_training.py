import logging
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinenc import (
    DistillationConfig,
    ModelConfig,
    PairRecord,
    TrainingDivergedError,
    TwinModel,
    ce_loss,
    distill_train,
    finetune,
    soft_label,
)
from twinenc import crossing, textio
from twinenc import model as model_mod
from twinenc import training as training_mod
from twinenc.encoder import RowGrad, embed_forward, layer_forward, pack_sequences, sigmoid
from twinenc.metrics import binary_label
from twinenc.synthetic import generate_pairs
from twinenc.training import (
    ADAM_EPS,
    BETA1,
    BETA2,
    AdamW,
    fit_logit_calibration,
    load_pair_tsv,
    pair_loss_and_grads,
    pair_tsv_rows,
    refit_calibration,
)

finite_logits = st.floats(-30, 30, allow_nan=False, allow_infinity=False)


def _overfit_records(n=32, seed=0):
    """Pairs with near-hard teacher targets so the CE floor is tiny."""
    rng = np.random.default_rng(seed)
    words = ["alpha", "bravo", "carbon", "delta", "ember", "falcon", "garnet", "harbor"]
    records = []
    for i in range(n):
        q = " ".join(rng.choice(words, size=2, replace=False))
        if i % 2 == 0:
            records.append(PairRecord(query=q, keyword=q + " extra", teacher_logits=(0.0, 20.0)))
        else:
            k = " ".join(rng.choice(["zig", "zag", "quux", "jolt"], size=2, replace=False))
            records.append(PairRecord(query=q, keyword=k, teacher_logits=(20.0, 0.0)))
    return records


class TestSoftLabel:
    def test_symmetric_logits(self):
        for t in (0.5, 1.0, 2.0, 10.0):
            assert soft_label((0.0, 0.0), t) == (0.5, 0.5)

    def test_plain_softmax_at_t1(self):
        y = soft_label((2.0, 0.0), 1.0)
        assert y[0] == pytest.approx(0.8808, abs=5e-5)
        assert y[1] == pytest.approx(0.1192, abs=5e-5)

    def test_temperature_two_softer(self):
        y1 = soft_label((2.0, 0.0), 1.0)
        y2 = soft_label((2.0, 0.0), 2.0)
        assert y2[0] == pytest.approx(0.7311, abs=5e-5)
        assert y2[1] == pytest.approx(0.2689, abs=5e-5)
        assert y2[0] < y1[0]

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            soft_label((1.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            soft_label((1.0, 0.0), -2.0)

    @given(finite_logits, finite_logits, st.floats(0.05, 100))
    @settings(max_examples=100)
    def test_sums_to_one(self, z0, z1, t):
        y = soft_label((z0, z1), t)
        assert y[0] + y[1] == pytest.approx(1.0, abs=1e-12)

    def test_max_component_strictly_decreasing_in_t(self):
        temps = [0.5, 1.0, 2.0, 4.0, 8.0, 32.0]
        tops = [max(soft_label((3.0, -1.0), t)) for t in temps]
        assert all(a > b for a, b in zip(tops, tops[1:]))

    def test_infinite_temperature_limit(self):
        y = soft_label((2.0, 0.0), 1e6)
        assert abs(y[0] - 0.5) <= 1e-6
        assert abs(y[1] - 0.5) <= 1e-6

    def test_stability_with_huge_logits(self):
        y = soft_label((1000.0, -1000.0), 1.0)
        assert y[0] == pytest.approx(1.0)
        assert math.isfinite(y[1])


class TestCeLoss:
    def test_perfect_prediction_zero(self):
        assert ce_loss([1.0], [1.0]) == pytest.approx(0.0, abs=1e-9)
        assert ce_loss([0.0], [0.0]) == pytest.approx(0.0, abs=1e-9)

    def test_half_prediction_ln2(self):
        assert ce_loss([1.0], [0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_soft_target_minimum_at_match(self):
        assert ce_loss([0.5], [0.5]) == pytest.approx(math.log(2), abs=1e-12)
        # finite-difference derivative at p == y vanishes
        h = 1e-7
        d = (ce_loss([0.5], [0.5 + h]) - ce_loss([0.5], [0.5 - h])) / (2 * h)
        assert abs(d) < 1e-6

    def test_batch_sum(self):
        single = ce_loss([1.0], [0.5])
        assert ce_loss([1.0, 1.0, 1.0], [0.5, 0.5, 0.5]) == pytest.approx(3 * single)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ce_loss([1.0, 0.0], [0.5])

    def test_nonnegative(self, rng):
        y = rng.random(50)
        p = rng.random(50)
        assert ce_loss(y, p) >= 0.0


class TestLabels:
    def test_binary_label(self):
        assert [binary_label(v) for v in ("bad", "fair", "good", "excellent", "0", "1")] == [0, 1, 1, 1, 0, 1]
        for bad in ("meh", "2", "", "Good", 5, 1):
            with pytest.raises(ValueError, match="bad label"):
                binary_label(bad)

    def test_pair_tsv_labels_round_trip(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("query\tkeyword\tz_bad\tz_nonbad\tlabel\n"
                        "a\tb\t\t\tgood\na\tc\t\t\t0\na\td\t-1.0\t1.0\t\n")
        records = load_pair_tsv(path)
        assert [r.label for r in records] == ["good", "0", None]
        assert [binary_label(r.label) for r in records[:2]] == [1, 0]
        textio.write_tsv(tmp_path / "again.tsv", pair_tsv_rows(records))
        assert (tmp_path / "again.tsv").read_text() == path.read_text()
        generated = generate_pairs(40, seed=1, n_queries=4)
        textio.write_tsv(tmp_path / "generated.tsv", pair_tsv_rows(generated))
        assert load_pair_tsv(tmp_path / "generated.tsv") == generated

    def test_pair_tsv_bad_label_names_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("query\tkeyword\tz_bad\tz_nonbad\tlabel\na\tb\t\t\tmeh\n")
        with pytest.raises(ValueError, match=f"{path}:2: malformed row: bad label 'meh'"):
            load_pair_tsv(path)


class TestPairRecord:
    def test_requires_some_supervision(self):
        with pytest.raises(ValueError, match="teacher logits or a label"):
            PairRecord(query="a", keyword="b")

    def test_unknown_label_rejected(self):
        for label in ("meh", "2", "Good", "", 5):
            with pytest.raises(ValueError, match="bad label"):
                PairRecord(query="a", keyword="b", teacher_logits=(0.0, 1.0), label=label)

    def test_numpy_logits_stored_as_floats_and_round_trip(self, tmp_path):
        record = PairRecord(query="a", keyword="b", teacher_logits=(np.float64(-1.0), np.float64(1.0)))
        assert record.teacher_logits == (-1.0, 1.0)
        assert all(type(z) is float for z in record.teacher_logits)
        textio.write_tsv(tmp_path / "pairs.tsv", pair_tsv_rows([record]))
        assert load_pair_tsv(tmp_path / "pairs.tsv") == [record]

    @pytest.mark.parametrize("logits", [(float("nan"), 1.0), (1.0, float("inf")), (1.0,),
                                        (0.0, 1.0, 2.0), ("0.0", "1.0"), 1.0])
    def test_malformed_logits_rejected(self, logits):
        with pytest.raises(ValueError, match="teacher_logits"):
            PairRecord(query="a", keyword="b", teacher_logits=logits, label="good")

    @pytest.mark.parametrize("field", ["query", "keyword"])
    @pytest.mark.parametrize("char", ["\t", "\n", "\r"])
    def test_tab_or_line_break_in_text_rejected(self, field, char):
        texts = {"query": "a", "keyword": "b", field: f"red{char}shoes"}
        with pytest.raises(ValueError, match=f"^{field} .* holds a tab or a line break"):
            PairRecord(**texts, label="good")

    @pytest.mark.parametrize("field, value, message", [
        ("keyword", "red\tshoes", "keyword 'red\\tshoes' holds a tab or a line break"),
        ("query", "a\nb", "query 'a\\nb' holds a tab or a line break"),
        ("query", "?!", "query '?!' is not text with a letter or digit"),
        ("keyword", "_ -", "keyword '_ -' is not text with a letter or digit"),
        ("teacher_logits", (1.0, float("nan")), "teacher_logits must be two finite numbers, got (1.0, nan)"),
        ("teacher_logits", (float("-inf"), 0.0), "teacher_logits must be two finite numbers, got (-inf, 0.0)"),
        ("label", "meh", "bad label 'meh'"),
    ])
    def test_record_refuses_each_bad_field(self, field, value, message):
        fields = {"query": "a", "keyword": "d", "teacher_logits": (0.0, 1.0), "label": "good", field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PairRecord(**fields)

    def test_writer_refuses_a_query_read_back_as_a_comment(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        records = [PairRecord("a", "#b", label="good"), PairRecord("# c", "d", label="bad")]
        message = f"{path}:3: row ('# c', 'd', '', '', 'bad') would read back as a comment"
        with pytest.raises(ValueError, match=re.escape(message)):
            textio.write_tsv(path, pair_tsv_rows(records))
        assert not path.exists()
        textio.write_tsv(path, pair_tsv_rows(records[:1]))  # a leading '#' in the keyword is not at the start of a line
        assert load_pair_tsv(path) == records[:1]


any_text = st.text(st.characters(codec="utf-8"), max_size=12)
pair_text = any_text | any_text.map("#".__add__) | st.sampled_from(["a\tb", "a\rb", "a\r\nb", "a\u2028b\x85"])
pair_logits = st.none() | st.tuples(finite_logits, finite_logits) | st.tuples(
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64), finite_logits.map(np.float32))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(pair_text, pair_text, pair_logits,
                          st.none() | st.sampled_from(["bad", "fair", "good", "excellent", "0", "1"])),
                max_size=4))
def test_pair_tsv_rejects_or_round_trips(tmp_path_factory, fields):
    """Arbitrary text and logits are refused when the record is built, naming
    the field, or by the writer, naming the row and writing nothing; else
    they load back equal."""
    records = []
    for query, keyword, logits, label in fields:
        try:
            records.append(PairRecord(query, keyword, teacher_logits=logits, label=label))
        except ValueError as exc:
            assert str(exc).startswith(("query ", "keyword ", "teacher_logits ", "a pair record"))
    path = tmp_path_factory.mktemp("pairs") / "pairs.tsv"
    try:
        textio.write_tsv(path, pair_tsv_rows(records))
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}:\d+: row \(['\"]#", str(exc))
        assert any(r.query.startswith("#") for r in records) and not path.exists()
        return
    assert load_pair_tsv(path) == records


def _dense_adamw_reference(opt, params, grads, state):
    """The dense AdamW step every non-table parameter must keep, bit for bit."""
    for name, g in grads.items():
        p = params[name]
        if name not in state:
            state[name] = [np.zeros_like(p), np.zeros_like(p), 0]
        m, v, t = state[name]
        t += 1
        state[name][2] = t
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        update = (m / (1.0 - BETA1**t)) / (np.sqrt(v / (1.0 - BETA2**t)) + ADAM_EPS)
        if opt.weight_decay > 0.0 and p.ndim >= 2:
            update = update + opt.weight_decay * p
        params[name] = p - opt.lr * update


def _dense_moments(opt, name):
    """A table's compact ``m`` and ``v`` laid out as full tables: zero rows where
    the row has had no gradient yet, as dense moments would read."""
    slot = opt._slot[name]
    has = slot >= 0
    tables = []
    for compact in (opt._m[name], opt._v[name]):
        table = np.zeros((len(slot), *compact.shape[1:]), compact.dtype)
        table[has] = compact[slot[has]]
        tables.append(table)
    return tables


class TestAdamW:
    def _opt(self):
        return AdamW(lr=1e-2, weight_decay=0.01)

    def test_betas_and_epsilon_are_not_settable(self):
        """Adam's betas and epsilon are the module constants; weight decay has no default."""
        for setting in ({"beta1": 0.9}, {"beta2": 0.999}, {"eps": 1e-8}):
            with pytest.raises(TypeError):
                AdamW(1e-2, 0.01, **setting)
        with pytest.raises(TypeError):
            AdamW(1e-2)

    def test_dense_parameters_match_reference_bit_for_bit(self, rng):
        params = {"w": rng.standard_normal((5, 3)), "b": rng.standard_normal(3),
                  "s": np.asarray(0.5)}
        expected = {k: v.copy() for k, v in params.items()}
        opt, state = self._opt(), {}
        for step in range(4):
            grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
            if step == 2:
                del grads["b"]  # a parameter may miss a step
            opt.step(params, grads)
            _dense_adamw_reference(opt, expected, grads, state)
            for name in params:
                np.testing.assert_array_equal(params[name], expected[name], err_msg=name)

    def test_rows_without_gradient_stay_bit_identical(self, rng):
        table = rng.standard_normal((10, 4))
        params = {"tok": table.copy()}
        opt = self._opt()
        opt.step(params, {"tok": RowGrad(np.array([1, 3]), rng.standard_normal((2, 4)))})
        p1 = params["tok"].copy()
        m1, v1 = _dense_moments(opt, "tok")
        opt.step(params, {"tok": RowGrad(np.array([3, 5]), rng.standard_normal((2, 4)))})
        m2, v2 = _dense_moments(opt, "tok")
        for untouched in (0, 1, 2, 4, 6, 7, 8, 9):
            np.testing.assert_array_equal(params["tok"][untouched], p1[untouched])
            np.testing.assert_array_equal(m2[untouched], m1[untouched])
            np.testing.assert_array_equal(v2[untouched], v1[untouched])
        for moved in (3, 5):
            assert not np.array_equal(params["tok"][moved], p1[moved])
        np.testing.assert_array_equal(params["tok"][[0, 2, 4]], table[[0, 2, 4]])

    def test_touched_rows_follow_the_dense_formula(self, rng):
        """On a table's first step, its gradient's rows get exactly the dense update."""
        table = rng.standard_normal((6, 4))
        rows, values = np.array([0, 2, 5]), rng.standard_normal((3, 4))
        dense_g = np.zeros_like(table)
        dense_g[rows] = values
        params, expected = {"tok": table.copy()}, {"tok": table.copy()}
        opt = self._opt()
        opt.step(params, {"tok": RowGrad(rows, values)})
        _dense_adamw_reference(opt, expected, {"tok": dense_g}, {})
        np.testing.assert_array_equal(params["tok"][rows], expected["tok"][rows])

    def test_wide_table_step_writes_only_the_gradient_rows(self, rng):
        table = rng.standard_normal((50_001, 8))
        params = {"tok": table.copy()}
        opt = self._opt()
        rows = np.array([0, 17, 4_096, 50_000])
        opt.step(params, {"tok": RowGrad(rows, rng.standard_normal((4, 8)))})
        before = params["tok"].copy()
        m_before, v_before = _dense_moments(opt, "tok")
        tracemalloc.start()
        try:
            opt.step(params, {"tok": RowGrad(rows[1:3], rng.standard_normal((2, 8)))})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes // 100  # no table-sized temporary
        other = np.setdiff1d(np.arange(table.shape[0]), rows[1:3])
        m_now, v_now = _dense_moments(opt, "tok")
        for now, then in ((params["tok"], before), (m_now, m_before), (v_now, v_before)):
            np.testing.assert_array_equal(now[other], then[other])
            assert not np.array_equal(now[rows[1:3]], then[rows[1:3]])

    def test_compact_moments_match_a_lazy_dense_reference(self, rng):
        """Overlapping row sets, rows that join late, weight decay on: bit for bit
        the lazy dense step, whose moment tables start at zero everywhere."""
        table = rng.standard_normal((12, 4))
        params, opt = {"tok": table.copy()}, self._opt()
        expected, m_ref, v_ref = table.copy(), np.zeros_like(table), np.zeros_like(table)
        schedule = [[1, 3, 4], [3, 5], [0, 4, 7], [5, 7, 9], [1, 9, 11]]
        seen: set[int] = set()
        for t, rows in enumerate(map(np.array, schedule), start=1):
            g = rng.standard_normal((len(rows), 4))
            p_before, m_before, v_before = expected.copy(), m_ref.copy(), v_ref.copy()
            opt.step(params, {"tok": RowGrad(rows, g)})
            m, v = m_ref[rows], v_ref[rows]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / (1.0 - BETA1**t)) / (np.sqrt(v / (1.0 - BETA2**t)) + ADAM_EPS)
            expected[rows] = expected[rows] - opt.lr * (update + opt.weight_decay * expected[rows])
            m_ref[rows], v_ref[rows] = m, v
            m_now, v_now = _dense_moments(opt, "tok")
            np.testing.assert_array_equal(params["tok"], expected)
            np.testing.assert_array_equal(m_now, m_ref)
            np.testing.assert_array_equal(v_now, v_ref)
            untouched = np.setdiff1d(np.arange(len(table)), rows)
            for now, then in ((params["tok"], p_before), (m_now, m_before), (v_now, v_before)):
                np.testing.assert_array_equal(now[untouched], then[untouched])
            late = ~np.isin(rows, list(seen))  # first gradient: moments from zero, bias-corrected at t
            np.testing.assert_array_equal(m_now[rows[late]], (1.0 - BETA1) * g[late])
            np.testing.assert_array_equal(v_now[rows[late]], (1.0 - BETA2) * (g[late] * g[late]))
            seen |= set(rows.tolist())
            assert len(opt._m["tok"]) == len(opt._v["tok"]) == len(seen)  # one moment row per seen row
        assert opt._t["tok"] == len(schedule)

    def test_wide_table_keeps_moments_for_its_gradient_rows_only(self, rng):
        table = rng.standard_normal((50_001, 8))
        params, opt = {"tok": table.copy()}, self._opt()
        rows = np.array([0, 17, 4_096, 50_000])
        opt.step(params, {"tok": RowGrad(rows, rng.standard_normal((4, 8)))})
        assert opt._m["tok"].shape == opt._v["tok"].shape == (4, 8)
        assert sorted(np.flatnonzero(opt._slot["tok"] >= 0)) == rows.tolist()
        assert opt._m["tok"].nbytes + opt._v["tok"].nbytes < table.nbytes // 100

    def test_dense_step_allocates_two_parameter_sized_arrays(self, rng):
        params, opt = {"w": rng.standard_normal((512, 512))}, self._opt()
        opt.step(params, {"w": rng.standard_normal((512, 512))})  # the first step creates the moments
        grads = {"w": rng.standard_normal((512, 512))}
        tracemalloc.start()
        try:
            opt.step(params, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * params["w"].nbytes + 1024, peak / params["w"].nbytes

    def test_training_a_cast_copy_leaves_the_source_unchanged(self):
        model = TwinModel.initialize(ModelConfig(n_layers=1, hidden_size=16, n_heads=2,
                                                 vocab_buckets=64, max_len=6, dropout=0.0), seed=0)
        twin = model.cast(np.float64)
        assert twin.params["encoder.tok_emb"] is not model.params["encoder.tok_emb"]
        before = model.params["encoder.tok_emb"].copy()
        distill_train(_overfit_records(16), DistillationConfig(epochs=1, batch_size=8), twin, seed=0)
        np.testing.assert_array_equal(model.params["encoder.tok_emb"], before)
        assert not np.array_equal(twin.params["encoder.tok_emb"], before)


class TestStepMemory:
    """A training step holds only what its backward still needs."""

    def test_step_peak_at_most_1_3_times_the_forward_caches(self, desk_model):
        model = TwinModel(config=replace(desk_model.config, dropout=0.1), params=desk_model.params)
        pairs = generate_pairs(640, seed=1)[:64]
        q_seqs = model.tokenize_many([p.query for p in pairs])
        k_seqs = model.tokenize_many([p.keyword for p in pairs])
        targets = np.full(len(pairs), 0.5)

        tracemalloc.start()
        try:
            rng = np.random.default_rng(0)
            q = model.encode_query_batch(pack_sequences(q_seqs), rng=rng)
            k = model.encode_keyword_batch(pack_sequences(k_seqs), rng=rng)
            caches = tracemalloc.get_traced_memory()[0]
            del q, k
            tracemalloc.reset_peak()
            pair_loss_and_grads(model, q_seqs, k_seqs, targets, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * caches, (peak, caches)

    def test_layer_cache_keeps_only_what_backward_cannot_rebuild(self, desk_model):
        config = replace(desk_model.config, dropout=0.1)
        seqs = desk_model.tokenize_many([p.query for p in generate_pairs(80, seed=1)[:8]])
        batch = pack_sequences(seqs)
        x = embed_forward(desk_model.params, "encoder", batch)
        _, cache = layer_forward(x, batch.mask, desk_model.params, "encoder.layers.0", config,
                                 rng=np.random.default_rng(0))
        assert not {"g", "ctx", "x1", "probs_d"} & set(cache)  # the backward rebuilds these
        assert set(cache) == {"x", "scale", "qh", "kh", "vh", "probs", "attn_keep", "out_keep",
                              "ln1", "f1", "ffn_keep", "ln2"}


class TestTrainingForward:
    def test_a_step_requires_an_rng(self, tiny_model):
        seqs = tiny_model.tokenize_many(["red shoes", "cat"])
        with pytest.raises(TypeError, match="rng"):
            pair_loss_and_grads(tiny_model, seqs, seqs, np.full(2, 0.5))


class TestTokenizeOnce:
    def test_tokenize_many_shares_one_sequence_per_distinct_text(self, tiny_model):
        texts = ["red shoes", "cheap flights", "red shoes", "cat", "cheap flights", "red shoes"]
        seqs = tiny_model.tokenize_many(texts)
        assert len(seqs) == len(texts)
        for text, seq in zip(texts, seqs):
            assert seq is seqs[texts.index(text)]
            assert seq == tiny_model.tokenize(text)
        assert len({id(s) for s in seqs}) == 3

    @pytest.mark.parametrize("pooling", ["weighted_average", "cls_token"])
    def test_a_sequence_shares_the_vocabulary_word_cache(self, tiny_config, pooling):
        """Each word of a sequence is the vocabulary's memoized tuple itself, so a sequence copies no buckets."""
        model = TwinModel.initialize(replace(tiny_config, pooling=pooling), seed=0)
        words = "red shoes red sale".split()
        seq = model.tokenize(" ".join(words))
        if pooling == "cls_token":
            assert seq[0] == (model.vocab.cls_bucket,)
            seq = seq[1:]
        assert len(seq) == len(words)
        assert all(got is model.vocab.word_buckets(word) for got, word in zip(seq, words))

    def test_training_tokenizes_each_distinct_text_once(self, tiny_model, monkeypatch):
        records = _overfit_records(8) * 2
        # a keyword that is also another pair's query
        records.append(PairRecord(query="zig zag", keyword=records[0].query, teacher_logits=(1.0, 0.0)))
        texts = {r.query for r in records} | {r.keyword for r in records}
        calls = []
        encode = model_mod.encode_text

        def counting(text, *args, **kwargs):
            calls.append(text)
            return encode(text, *args, **kwargs)

        monkeypatch.setattr(model_mod, "encode_text", counting)
        model = TwinModel.initialize(tiny_model.config, seed=0)
        distill_train(records, DistillationConfig(epochs=2, batch_size=8), model, seed=0)
        assert sorted(calls) == sorted(texts)


class TestDistillTrain:
    @pytest.mark.parametrize("name", ["beta1", "beta2", "adam_epsilon"])
    def test_config_has_no_adam_betas_or_epsilon(self, name):
        with pytest.raises(TypeError, match=name):
            DistillationConfig(**{name: 0.5})

    @pytest.mark.parametrize("name, value, kind", [
        ("epochs", 1.5, "an integer"), ("batch_size", True, "an integer"),
        ("finetune_epochs", "2", "an integer"), ("temperature", False, "a real number"),
        ("learning_rate", "1e-3", "a real number"),
    ])
    def test_a_field_of_the_wrong_type_is_refused_naming_it(self, name, value, kind):
        with pytest.raises(ValueError, match=f"^{name} must be {kind}, got {re.escape(repr(value))}$"):
            DistillationConfig(**{name: value})

    @pytest.mark.parametrize("name", ["temperature", "learning_rate", "weight_decay",
                                      "finetune_learning_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_a_non_finite_float_is_refused_naming_it(self, name, value):
        # NaN passes every range check (each comparison with it is False),
        # and the integer overflows when training converts it
        with pytest.raises(ValueError, match=f"^{name} must be a finite float, got {value!r}$"):
            DistillationConfig(**{name: value})

    def test_empty_data_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            distill_train([], DistillationConfig(), tiny_model)

    def test_records_without_logits_rejected(self, tiny_model):
        recs = [PairRecord(query="a", keyword="b", label="good")]
        with pytest.raises(ValueError, match="teacher logits"):
            distill_train(recs, DistillationConfig(), tiny_model)

    def test_trains_the_models_own_arrays_in_place(self):
        model = TwinModel.initialize(ModelConfig(n_layers=1, hidden_size=16, n_heads=2,
                                                 vocab_buckets=64, max_len=6, dropout=0.0), seed=0)
        table = model.params["encoder.tok_emb"]
        before = table.copy()
        distill_train(_overfit_records(16), DistillationConfig(epochs=1, batch_size=8), model, seed=0)
        assert model.params["encoder.tok_emb"] is table
        assert not np.array_equal(table, before)

    def test_zero_learning_rate_only_refits_the_head(self):
        model = TwinModel.initialize(ModelConfig(n_layers=1, hidden_size=16, n_heads=2,
                                                 vocab_buckets=64, max_len=6, dropout=0.0), seed=0)
        before = {k: v.copy() for k, v in model.params.items()}
        cfg = DistillationConfig(learning_rate=0.0, epochs=3, batch_size=8)
        history = distill_train(_overfit_records(16), cfg, model, seed=0)
        a, b = history.calibration
        weight, bias = crossing.CALIBRATION[model.config.crossing]
        folded = {**before, weight: a * before[weight], bias: a * before[bias] + b}
        for name, arr in folded.items():
            np.testing.assert_array_equal(arr, model.params[name], err_msg=name)

    def _tiny(self, head):
        return TwinModel.initialize(ModelConfig(n_layers=1, hidden_size=16, n_heads=2,
                                                vocab_buckets=256, max_len=6, dropout=0.1,
                                                crossing=head), seed=0)

    def test_cosine_student_starts_its_epochs_from_the_folded_head(self, monkeypatch):
        model = self._tiny("cosine")
        scale0, bias0 = float(model.params["cosine_head.scale"]), float(model.params["cosine_head.bias"])
        first_step = []
        step = training_mod.pair_loss_and_grads

        def recording(model, *args, **kwargs):
            if not first_step:
                first_step.append((float(model.params["cosine_head.scale"]),
                                   float(model.params["cosine_head.bias"])))
            return step(model, *args, **kwargs)

        monkeypatch.setattr(training_mod, "pair_loss_and_grads", recording)
        history = distill_train(generate_pairs(128, seed=1), DistillationConfig(epochs=1), model, seed=0)
        a, b = history.calibration
        assert a > 0
        assert first_step == [(a * scale0, a * bias0 + b)]

    def test_residual_student_without_a_fit_trains_as_without_the_refit(self, monkeypatch):
        records, cfg = generate_pairs(128, seed=1), DistillationConfig(epochs=2)
        refitted = self._tiny("residual")
        history = distill_train(records, cfg, refitted, seed=0)
        assert history.calibration is None
        monkeypatch.setattr(training_mod, "refit_calibration", lambda *args: None)
        plain = self._tiny("residual")
        assert distill_train(records, cfg, plain, seed=0).epoch_losses == history.epoch_losses
        for name, arr in plain.params.items():
            np.testing.assert_array_equal(arr, refitted.params[name], err_msg=name)

    def test_cls_token_cosine_student_serves_within_the_tolerance_of_float64(self, caplog):
        # its init logits are nearly constant, so the fit is huge (a about 4,000,
        # b about -17,000): folded, float32 rounding of the head's terms would
        # move a probability by about 6e-4, so the fit is not folded
        pairs = generate_pairs(300, seed=18, n_queries=40)
        model = TwinModel.initialize(ModelConfig(pooling="cls_token", crossing="cosine"), seed=6)
        with caplog.at_level(logging.INFO, logger="twinenc.training"):
            history = distill_train(pairs[:128], DistillationConfig(epochs=2, batch_size=32,
                                                                    learning_rate=1e-3), model, seed=3)
        assert history.calibration is None
        assert "calibration refit skipped: served" in caplog.text
        queries, keywords = [p.query for p in pairs[128:]], [p.keyword for p in pairs[128:]]
        served = model.cast(model_mod.SERVING_DTYPE).score_pairs(queries, keywords)
        assert np.abs(served - model.score_pairs(queries, keywords)).max() <= model_mod.SERVING_TOLERANCE

    def test_one_batch_overfit(self):
        model = TwinModel.initialize(ModelConfig(dropout=0.0), seed=0)
        cfg = DistillationConfig(learning_rate=1e-3, epochs=200, batch_size=32)
        history = distill_train(_overfit_records(32), cfg, model, seed=0)
        assert history.steps == 200
        assert history.epoch_losses[-1] < 0.05

    def test_reproducible_bit_identical(self):
        cfg_m = ModelConfig(n_layers=1, hidden_size=16, n_heads=2, vocab_buckets=64,
                            max_len=6, dropout=0.1)
        cfg_t = DistillationConfig(learning_rate=1e-3, epochs=3, batch_size=8)
        runs = []
        for _ in range(2):
            m = TwinModel.initialize(cfg_m, seed=3)
            distill_train(_overfit_records(16), cfg_t, m, seed=3)
            runs.append(m.params)
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name], err_msg=name)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self, monkeypatch):
        """The non-finite step is never applied: the model keeps its last finite state."""
        model = TwinModel.initialize(ModelConfig(n_layers=1, hidden_size=16, n_heads=2,
                                                 vocab_buckets=64, max_len=6, dropout=0.0), seed=0)
        compute, before = training_mod.pair_loss_and_grads, []

        def recording(model, *args, **kwargs):
            before.append({k: v.copy() for k, v in model.params.items()})
            return compute(model, *args, **kwargs)

        monkeypatch.setattr(training_mod, "pair_loss_and_grads", recording)
        cfg = DistillationConfig(learning_rate=1e6, epochs=50, batch_size=8)
        with pytest.raises(TrainingDivergedError, match="non-finite loss"):
            distill_train(_overfit_records(16), cfg, model, seed=0)
        assert len(before) > 1
        last_finite = before[-1]  # the parameters the non-finite loss was computed from
        for name, value in model.params.items():
            np.testing.assert_array_equal(value, last_finite[name], err_msg=name)

    def test_inactive_head_untouched(self):
        # training with the residual head must leave the cosine head frozen
        model = TwinModel.initialize(ModelConfig(n_layers=1, hidden_size=16, n_heads=2,
                                                 vocab_buckets=64, max_len=6,
                                                 crossing="residual", dropout=0.0), seed=0)
        a0 = float(model.params["cosine_head.scale"])
        b0 = float(model.params["cosine_head.bias"])
        distill_train(_overfit_records(16), DistillationConfig(epochs=2, batch_size=8), model, seed=0)
        assert float(model.params["cosine_head.scale"]) == a0
        assert float(model.params["cosine_head.bias"]) == b0


class TestFinetune:
    def _labeled_records(self):
        recs = _overfit_records(16)
        return [
            PairRecord(query=r.query, keyword=r.keyword, teacher_logits=r.teacher_logits,
                       label="1" if r.teacher_logits[1] > 0 else "0")
            for r in recs
        ]

    def test_zero_epochs_noop(self, tiny_config):
        model = TwinModel.initialize(tiny_config, seed=0)
        before = {k: v.copy() for k, v in model.params.items()}
        cfg = DistillationConfig(finetune_epochs=0)
        finetune(self._labeled_records(), cfg, model, seed=0)
        for name, arr in before.items():
            np.testing.assert_array_equal(arr, model.params[name])

    def test_requires_labels(self, tiny_config):
        model = TwinModel.initialize(tiny_config, seed=0)
        recs = [PairRecord(query="a", keyword="b", teacher_logits=(1.0, 0.0))]
        with pytest.raises(ValueError):
            finetune(recs, DistillationConfig(), model, seed=0)

    def test_moves_parameters(self, tiny_config):
        model = TwinModel.initialize(tiny_config, seed=0)
        before = model.params["encoder.tok_emb"].copy()
        cfg = DistillationConfig(finetune_epochs=1, batch_size=8, finetune_learning_rate=1e-3)
        finetune(self._labeled_records(), cfg, model, seed=0)
        assert not np.array_equal(before, model.params["encoder.tok_emb"])


class TestFitLogitCalibration:
    def test_recovers_generating_parameters(self):
        rng = np.random.default_rng(0)
        z = rng.normal(0.0, 2.0, size=20000)
        y = (rng.random(z.size) < 1.0 / (1.0 + np.exp(-(1.7 * z + 2.3)))).astype(float)
        a, b = fit_logit_calibration(z, y)
        assert a == pytest.approx(1.7, abs=0.1)
        assert b == pytest.approx(2.3, abs=0.1)

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=200)
        y = (rng.random(200) < 0.5 + 0.3 * np.tanh(z)).astype(float)
        a, b = fit_logit_calibration(z, y)
        assert ce_loss(y, sigmoid(a * z + b)) <= ce_loss(y, sigmoid(z))

    def test_one_class_has_no_optimum(self):
        z = np.linspace(-2.0, 2.0, 9)
        assert fit_logit_calibration(z, np.ones(9)) is None
        assert fit_logit_calibration(z, np.zeros(9)) is None

    def test_separable_has_no_optimum(self):
        z = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
        assert fit_logit_calibration(z, [0, 0, 0, 1, 1, 1]) is None
        # touching at one point still puts the optimum at infinity
        assert fit_logit_calibration([0.0, 1.0, 1.0, 2.0], [0, 0, 1, 1]) is None

    def test_constant_logits_have_no_optimum(self):
        assert fit_logit_calibration(np.full(6, 0.3), [0, 1, 0, 1, 1, 0]) is None

    def test_negative_scale_rejected(self):
        z = np.array([-2.0, -1.0, 0.5, -0.5, 1.0, 2.0])
        assert fit_logit_calibration(z, [1, 1, 0, 1, 0, 0]) is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_logit_calibration([0.0, 1.0], [1])

    def test_soft_targets_of_a_known_calibration_are_recovered(self):
        z = np.random.default_rng(0).normal(size=300)
        a, b = fit_logit_calibration(z, sigmoid(1.7 * z - 0.4))
        assert a == pytest.approx(1.7, abs=1e-6) and b == pytest.approx(-0.4, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_soft_targets_reach_a_stationary_point(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=300)
        y = sigmoid(rng.normal(size=300) + 0.8 * z)  # every target strictly inside (0, 1)
        a, b = fit_logit_calibration(z, y)
        x = np.stack([z, np.ones_like(z)], axis=1)
        p = sigmoid(x @ [a, b])
        grad = x.T @ (p - y) / z.size  # of the mean cross-entropy
        assert np.all(np.abs(grad) <= 1e-9)
        assert fit_logit_calibration(np.full(300, 0.7), y) is None


class TestRefitCalibration:
    def _model(self, head):
        model = TwinModel.initialize(ModelConfig(n_layers=1, hidden_size=16, n_heads=2,
                                                 vocab_buckets=256, max_len=6, dropout=0.0,
                                                 crossing=head), seed=0)
        # nonzero output biases, so the fold must scale them as well
        model.params["residual_head.b_out"] = np.asarray(0.3)
        model.params["cosine_head.bias"] = np.asarray(-0.4)
        return model

    def _noisy_records(self):
        # labels follow the teacher except every eighth, so the classes overlap
        return [
            PairRecord(query=r.query, keyword=r.keyword,
                       label=str(int((r.teacher_logits[1] > 0) != (i % 8 == 0))))
            for i, r in enumerate(_overfit_records(32))
        ]

    def _scores(self, model, records):
        return model.score_pairs([r.query for r in records], [r.keyword for r in records])

    def _refit(self, model, records):
        seqs = model.tokenize_many([r.query for r in records] + [r.keyword for r in records])
        labels = np.asarray([float(binary_label(r.label)) for r in records])
        return refit_calibration(model, seqs[:len(records)], seqs[len(records):], labels, 64)

    @pytest.mark.parametrize("head", ["residual", "cosine"])
    def test_ranking_unchanged(self, head):
        model = self._model(head)
        records = self._noisy_records()
        before = self._scores(model, records)
        fit = self._refit(model, records)
        assert fit is not None and fit[0] > 0
        after = self._scores(model, records)
        order = np.argsort(before, kind="stable")
        assert np.all(np.diff(after[order]) >= -1e-12)
        # each logit maps to a*z + b
        logit = lambda p: np.log(p) - np.log1p(-p)
        np.testing.assert_allclose(logit(after), fit[0] * logit(before) + fit[1],
                                   rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("head", ["residual", "cosine"])
    def test_hard_label_ce_not_raised(self, head):
        model = self._model(head)
        records = self._noisy_records()
        labels = [binary_label(r.label) for r in records]
        before = ce_loss(labels, self._scores(model, records))
        assert self._refit(model, records) is not None
        assert ce_loss(labels, self._scores(model, records)) <= before

    @pytest.mark.parametrize("head", ["residual", "cosine"])
    def test_one_class_labels_keep_params_finite(self, head):
        model = self._model(head)
        records = [PairRecord(query=r.query, keyword=r.keyword, label="1")
                   for r in _overfit_records(16)]
        before = {k: v.copy() for k, v in model.params.items()}
        assert self._refit(model, records) is None
        for name, arr in before.items():
            np.testing.assert_array_equal(arr, model.params[name], err_msg=name)
        history = finetune(records, DistillationConfig(finetune_epochs=1, batch_size=8),
                           model, seed=0)
        assert history.calibration is None
        for name, arr in model.params.items():
            assert np.all(np.isfinite(arr)), name

    def test_finetune_records_calibration_and_logs_it(self, caplog):
        model = self._model("residual")
        with caplog.at_level(logging.INFO, logger="twinenc.training"):
            history = finetune(self._noisy_records(),
                               DistillationConfig(finetune_epochs=1, batch_size=8), model, seed=0)
        a, b = history.calibration
        assert a > 0 and np.isfinite(b)
        assert any("calibration" in line and f"{a:.6f}" in line for line in caplog.messages)
