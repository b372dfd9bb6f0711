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
    synthetic_teacher,
)
from twinenc import model as model_mod
from twinenc.encoder import RowGrad, pack_sequences, sigmoid
from twinenc.metrics import binary_label
from twinenc.synthetic import generate_pairs, token_jaccard
from twinenc.training import (
    ADAM_EPS,
    BETA1,
    BETA2,
    AdamW,
    fit_logit_calibration,
    load_pair_tsv,
    pair_loss_and_grads,
    refit_calibration,
    save_pair_tsv,
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


class TestSyntheticTeacher:
    def test_identical_strings_maximal_margin(self):
        z_bad, z_nonbad = synthetic_teacher("red shoes", "red shoes")
        assert z_nonbad - z_bad == pytest.approx(8.0)

    def test_disjoint_maximal_negative(self):
        z_bad, z_nonbad = synthetic_teacher("red shoes", "quantum physics")
        assert z_nonbad - z_bad == pytest.approx(-8.0)

    def test_partial_overlap_between_extremes(self):
        assert token_jaccard("red shoes", "buy red shoes") == pytest.approx(2 / 3)
        z_bad, z_nonbad = synthetic_teacher("red shoes", "buy red shoes")
        margin = z_nonbad - z_bad
        assert -8.0 < margin < 8.0
        assert margin > 0

    def test_deterministic(self):
        a = synthetic_teacher("red shoes", "cheap red shoes", seed=5)
        b = synthetic_teacher("red shoes", "cheap red shoes", seed=5)
        assert a == b

    def test_seed_changes_noise(self):
        a = synthetic_teacher("red shoes", "cheap red shoes", seed=5)
        b = synthetic_teacher("red shoes", "cheap red shoes", seed=6)
        assert a != b


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
        assert [r.binary() for r in records[:2]] == [1, 0]
        save_pair_tsv(tmp_path / "again.tsv", records)
        assert (tmp_path / "again.tsv").read_text() == path.read_text()
        generated = generate_pairs(40, seed=1, n_queries=4)
        save_pair_tsv(tmp_path / "generated.tsv", generated)
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

    def test_binary_mapping(self):
        for label, binary in (("bad", 0), ("0", 0), ("fair", 1), ("good", 1), ("excellent", 1), ("1", 1)):
            assert PairRecord(query="a", keyword="b", label=label).binary() == binary
        with pytest.raises(ValueError, match="no label"):
            PairRecord(query="a", keyword="b", teacher_logits=(0.0, 1.0)).binary()

    def test_unknown_label_rejected(self):
        for label in ("meh", "2", "Good", "", 5):
            with pytest.raises(ValueError, match="bad label"):
                PairRecord(query="a", keyword="b", teacher_logits=(0.0, 1.0), label=label)

    def test_numpy_logits_stored_as_floats_and_round_trip(self, tmp_path):
        record = PairRecord(query="a", keyword="b", teacher_logits=(np.float64(-1.0), np.float64(1.0)))
        assert record.teacher_logits == (-1.0, 1.0)
        assert all(type(z) is float for z in record.teacher_logits)
        save_pair_tsv(tmp_path / "pairs.tsv", [record])
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

    def test_writer_refuses_a_query_read_back_as_a_comment(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        records = [PairRecord("a", "#b", label="good"), PairRecord("# c", "d", label="bad")]
        message = f"{path}:3: row ('# c', 'd', '', '', 'bad') would read back as a comment"
        with pytest.raises(ValueError, match=re.escape(message)):
            save_pair_tsv(path, records)
        assert not path.exists()
        save_pair_tsv(path, records[:1])  # a leading '#' in the keyword is not at the start of a line
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
        save_pair_tsv(path, records)
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
        m1, v1 = opt._m["tok"].copy(), opt._v["tok"].copy()
        opt.step(params, {"tok": RowGrad(np.array([3, 5]), rng.standard_normal((2, 4)))})
        for untouched in (0, 1, 2, 4, 6, 7, 8, 9):
            np.testing.assert_array_equal(params["tok"][untouched], p1[untouched])
            np.testing.assert_array_equal(opt._m["tok"][untouched], m1[untouched])
            np.testing.assert_array_equal(opt._v["tok"][untouched], v1[untouched])
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
        m_before, v_before = opt._m["tok"].copy(), opt._v["tok"].copy()
        tracemalloc.start()
        try:
            opt.step(params, {"tok": RowGrad(rows[1:3], rng.standard_normal((2, 8)))})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes // 100  # no table-sized temporary
        other = np.setdiff1d(np.arange(table.shape[0]), rows[1:3])
        for now, then in ((params["tok"], before), (opt._m["tok"], m_before),
                          (opt._v["tok"], v_before)):
            np.testing.assert_array_equal(now[other], then[other])
            assert not np.array_equal(now[rows[1:3]], then[rows[1:3]])

    def test_training_a_cast_copy_leaves_the_source_unchanged(self):
        model = TwinModel.initialize(ModelConfig(n_layers=1, hidden_size=16, n_heads=2,
                                                 vocab_buckets=64, max_len=6, dropout=0.0), seed=0)
        twin = model.cast(np.float64)
        assert twin.params["encoder.tok_emb"] is model.params["encoder.tok_emb"]
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
            pair_loss_and_grads(model, q_seqs, k_seqs, targets, model.config.crossing,
                                rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * caches, (peak, caches)


class TestTrainingForward:
    def test_a_step_requires_an_rng(self, tiny_model):
        seqs = tiny_model.tokenize_many(["red shoes", "cat"])
        with pytest.raises(TypeError, match="rng"):
            pair_loss_and_grads(tiny_model, seqs, seqs, np.full(2, 0.5), "residual")


class TestTokenizeOnce:
    def test_tokenize_many_shares_one_sequence_per_distinct_text(self, tiny_model):
        texts = ["red shoes", "cheap flights", "red shoes", "cat", "cheap flights", "red shoes"]
        seqs = tiny_model.tokenize_many(texts)
        assert len(seqs) == len(texts)
        for text, seq in zip(texts, seqs):
            assert seq is seqs[texts.index(text)]
            assert seq == tiny_model.tokenize(text)
        assert len({id(s) for s in seqs}) == 3

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

    def test_empty_data_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            distill_train([], DistillationConfig(), tiny_model)

    def test_records_without_logits_rejected(self, tiny_model):
        recs = [PairRecord(query="a", keyword="b", label="good")]
        with pytest.raises(ValueError, match="teacher logits"):
            distill_train(recs, DistillationConfig(), tiny_model)

    def test_zero_learning_rate_is_noop(self):
        model = TwinModel.initialize(ModelConfig(n_layers=1, hidden_size=16, n_heads=2,
                                                 vocab_buckets=64, max_len=6, dropout=0.0), seed=0)
        before = {k: v.copy() for k, v in model.params.items()}
        cfg = DistillationConfig(learning_rate=0.0, epochs=3, batch_size=8)
        distill_train(_overfit_records(16), cfg, model, seed=0)
        for name, arr in before.items():
            np.testing.assert_array_equal(arr, model.params[name], err_msg=name)

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
    def test_divergence_detected(self):
        model = TwinModel.initialize(ModelConfig(n_layers=1, hidden_size=16, n_heads=2,
                                                 vocab_buckets=64, max_len=6, dropout=0.0), seed=0)
        cfg = DistillationConfig(learning_rate=1e6, epochs=50, batch_size=8)
        with pytest.raises((TrainingDivergedError, FloatingPointError, ValueError)):
            distill_train(_overfit_records(16), cfg, model, seed=0)

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

    @pytest.mark.parametrize("head", ["residual", "cosine"])
    def test_ranking_unchanged(self, head):
        model = self._model(head)
        records = self._noisy_records()
        before = self._scores(model, records)
        fit = refit_calibration(records, model)
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
        labels = [r.binary() for r in records]
        before = ce_loss(labels, self._scores(model, records))
        assert refit_calibration(records, model) is not None
        assert ce_loss(labels, self._scores(model, records)) <= before

    @pytest.mark.parametrize("head", ["residual", "cosine"])
    def test_one_class_labels_keep_params_finite(self, head):
        model = self._model(head)
        records = [PairRecord(query=r.query, keyword=r.keyword, label="1")
                   for r in _overfit_records(16)]
        before = {k: v.copy() for k, v in model.params.items()}
        assert refit_calibration(records, model) is None
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
