import hashlib
import math
import re
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinenc import synthetic
from twinenc.metrics import LABEL_GAINS, binary_label
from twinenc.synthetic import (
    MARGIN_SCALE,
    MIDPOINT,
    MODIFIERS,
    NOISE_STD,
    _pair_normals,
    generate_pairs,
    split_pairs,
    teacher_logits,
    token_jaccard,
)
from twinenc.text import normalize
from twinenc.training import PairRecord, soft_label


_SHAPES = ["12500x1000", "4000", "2048x1200", "200x20"]
# the golden digests' calls, in _SHAPES' order
_SHAPE_CALLS = [((12500,), dict(seed=1, n_queries=1000)), ((4000,), dict(seed=1)),
                ((2048,), dict(seed=1, n_queries=1200)), ((200,), dict(seed=5, n_queries=20))]


def _box_muller(digest: bytes) -> float:
    lo, hi = int.from_bytes(digest[:4], "little"), int.from_bytes(digest[4:], "little")
    return math.sqrt(-2.0 * math.log((lo + 0.5) * 2.0**-32)) * math.cos(2.0 * math.pi * hi * 2.0**-32)


def _oracle_teacher(query: str, keyword: str, seed: int) -> tuple[float, float]:
    """The teacher's rule as ``teacher_logits``' docstring states it, one pair
    in scalar Python, calling nothing of ``synthetic.py``: the token-set
    Jaccard J, the piecewise-linear margin through MIDPOINT, and noise of std
    NOISE_STD·4J(1 − J) whose normal is Box–Muller on the pair's 8-byte
    blake2b digest keyed by the seed."""
    a, b = set(normalize(query).split()), set(normalize(keyword).split())
    j = len(a & b) / len(a | b) if a | b else 1.0
    if j >= MIDPOINT:
        margin = MARGIN_SCALE * (j - MIDPOINT) / (1.0 - MIDPOINT)
    else:
        margin = MARGIN_SCALE * (j - MIDPOINT) / MIDPOINT
    if 0.0 < j < 1.0:
        key = seed.to_bytes(8, "little", signed=True)
        digest = hashlib.blake2b(f"{query}\x1f{keyword}".encode("utf-8"), key=key, digest_size=8).digest()
        margin += NOISE_STD * 4.0 * j * (1.0 - j) * _box_muller(digest)
    return (-margin / 2.0, margin / 2.0)


def _teacher(query: str, keyword: str, seed: int = 0) -> tuple[float, float]:
    """``teacher_logits`` of one pair, which must be the oracle's bit for bit."""
    (row,) = teacher_logits([query], [keyword], seed).tolist()
    assert tuple(row) == _oracle_teacher(query, keyword, seed)
    return tuple(row)


class TestSyntheticTeacher:
    def test_identical_strings_maximal_margin(self):
        z_bad, z_nonbad = _teacher("red shoes", "red shoes")
        assert z_nonbad - z_bad == pytest.approx(8.0)

    def test_disjoint_maximal_negative(self):
        z_bad, z_nonbad = _teacher("red shoes", "quantum physics")
        assert z_nonbad - z_bad == pytest.approx(-8.0)

    def test_partial_overlap_between_extremes(self):
        assert token_jaccard("red shoes", "buy red shoes") == pytest.approx(2 / 3)
        z_bad, z_nonbad = _teacher("red shoes", "buy red shoes")
        margin = z_nonbad - z_bad
        assert -8.0 < margin < 8.0
        assert margin > 0

    def test_deterministic(self):
        a = _teacher("red shoes", "cheap red shoes", seed=5)
        b = _teacher("red shoes", "cheap red shoes", seed=5)
        assert a == b

    def test_seed_changes_noise(self):
        a = _teacher("red shoes", "cheap red shoes", seed=5)
        b = _teacher("red shoes", "cheap red shoes", seed=6)
        assert a != b


class TestGeneratePairs:
    def test_deterministic(self):
        a = generate_pairs(200, seed=5, n_queries=20)
        b = generate_pairs(200, seed=5, n_queries=20)
        assert [(p.query, p.keyword, p.label, p.teacher_logits) for p in a] == [
            (p.query, p.keyword, p.label, p.teacher_logits) for p in b
        ]

    def test_all_grades_present(self):
        pairs = generate_pairs(1000, seed=0, n_queries=100)
        seen = {p.label for p in pairs}
        assert seen == set(LABEL_GAINS)

    def test_grade_overlap_ordering(self):
        pairs = generate_pairs(3000, seed=1, n_queries=300)
        mean_j = {}
        for grade in LABEL_GAINS:
            js = [token_jaccard(p.query, p.keyword) for p in pairs if p.label == grade]
            mean_j[grade] = float(np.mean(js))
        assert mean_j["bad"] < mean_j["fair"] < mean_j["good"] < mean_j["excellent"]

    def test_binary_label_mapping(self):
        pairs = generate_pairs(200, seed=2, n_queries=20)
        for p in pairs:
            assert (binary_label(p.label) == 0) == (p.label == "bad")

    @pytest.mark.parametrize("args, kwargs", _SHAPE_CALLS + [((2000,), dict(seed=s, n_queries=200, n_topics=40))
                                                             for s in (3, 9)],
                             ids=_SHAPES + ["2000x200-40topics-seed3", "2000x200-40topics-seed9"])
    def test_teacher_logits_consistent_with_oracle(self, args, kwargs):
        # the generator computes J from its own word sets; every logit pair
        # must be the scalar oracle's, whose noise is seeded by the data seed,
        # and so must teacher_logits' row for the same texts
        pairs = generate_pairs(*args, **kwargs)
        queries, keywords = [p.query for p in pairs], [p.keyword for p in pairs]
        oracle = [_oracle_teacher(q, k, kwargs["seed"]) for q, k in zip(queries, keywords)]
        assert [p.teacher_logits for p in pairs] == oracle
        assert [tuple(row) for row in teacher_logits(queries, keywords, kwargs["seed"]).tolist()] == oracle

    def test_teacher_logits_are_the_oracle_row_by_row(self):
        # the column teacher normalizes each distinct text once; its rows
        # must be the scalar oracle's, edge overlaps 0 and 1 included
        pairs = generate_pairs(300, seed=8, n_queries=30)
        queries = [p.query for p in pairs] + ["", "?!", "Red Shoes!", "red shoes", "a"]
        keywords = [p.keyword for p in pairs] + ["", "shoes", "red  shoes", "blue hat", "a b"]
        z = teacher_logits(queries, keywords, seed=8)
        assert z.shape == (len(queries), 2) and z.dtype == np.float64
        assert [tuple(row) for row in z.tolist()] == [_oracle_teacher(q, k, 8)
                                                     for q, k in zip(queries, keywords)]
        with pytest.raises(ValueError, match="zip"):
            teacher_logits(["a", "b"], ["c"])

    @pytest.mark.parametrize("call", [
        lambda: generate_pairs(200, seed=0, teacher_seed=1),
        lambda: teacher_logits(["red shoes"], ["red hat"], midpoint=0.3),
    ], ids=["generate_pairs-teacher_seed", "teacher_logits-midpoint"])
    def test_teacher_rule_is_not_settable(self, call):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call()

    @pytest.mark.parametrize("args, kwargs, expected", [
        ((12500,), dict(seed=1, n_queries=1000), "ea0ad34070e6c6dc"),
        ((4000,), dict(seed=1), "25657c9d234d231f"),
        ((2048,), dict(seed=1, n_queries=1200), "b2faa5d2bddfa7f4"),
        ((200,), dict(seed=5, n_queries=20), "8e205dda24d18114"),
    ], ids=_SHAPES)
    def test_golden_digest_of_texts_and_labels(self, args, kwargs, expected):
        # pins every query, keyword and label the generator draws
        digest = hashlib.sha256()
        for p in generate_pairs(*args, **kwargs):
            digest.update(f"{p.query}\t{p.keyword}\t{p.label}\n".encode("utf-8"))
        assert digest.hexdigest()[:16] == expected

    @pytest.mark.parametrize("args, kwargs, expected", [
        ((12500,), dict(seed=1, n_queries=1000), "ed5e5a0ad9d92879"),
        ((4000,), dict(seed=1), "3c01df0df53aea67"),
        ((2048,), dict(seed=1, n_queries=1200), "db2690190ecf2999"),
        ((200,), dict(seed=5, n_queries=20), "3c5915125718ad7e"),
    ], ids=_SHAPES)
    def test_golden_digest_of_logits(self, args, kwargs, expected):
        # pins every teacher logit, bit for bit
        digest = hashlib.sha256()
        for p in generate_pairs(*args, **kwargs):
            z_bad, z_nonbad = p.teacher_logits
            digest.update(f"{z_bad!r}\t{z_nonbad!r}\n".encode("utf-8"))
        assert digest.hexdigest()[:16] == expected

    def test_labels_discount_modifier_overlap(self):
        # the editorial contract: a keyword is bad exactly when it shares no
        # non-modifier word with its query, while the overlap-only teacher
        # still credits some bad pairs for a shared modifier
        pairs = generate_pairs(5000, seed=42, n_queries=500)
        credited_bad = 0
        for p in pairs:
            shared = set(normalize(p.query).split()) & set(normalize(p.keyword).split())
            topic_overlap = shared - set(MODIFIERS)
            assert bool(topic_overlap) == (p.label != "bad"), (p.query, p.keyword, p.label)
            if p.label == "bad" and soft_label(p.teacher_logits, 1.0)[1] > 0.5:
                credited_bad += 1
        assert credited_bad > 0

    @pytest.mark.parametrize("n_topics", [-1, 0, 1])
    def test_too_few_topics_rejected(self, n_topics):
        # a bad keyword comes from a topic other than its query's
        with pytest.raises(ValueError, match=f"n_topics must be >= 2, got {n_topics}"):
            generate_pairs(200, seed=0, n_queries=20, n_topics=n_topics)

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_outside_int64_range_rejected(self, seed):
        # the teacher's key packs the seed as a signed 64-bit integer
        with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**63), got {seed}")):
            generate_pairs(200, seed=seed, n_queries=20)

    def test_fewest_topics(self):
        # with two topics every grade still appears, and a bad keyword
        # shares at most a generic modifier with its query
        for seed in range(5):
            pairs = generate_pairs(400, seed=seed, n_queries=40, n_topics=2)
            assert {p.label for p in pairs} == set(LABEL_GAINS)
            for p in pairs:
                if p.label == "bad":
                    assert set(p.query.split()) & set(p.keyword.split()) <= set(MODIFIERS)

    @pytest.mark.parametrize("n_topics", [2, 20, 40])
    def test_records_equal_records_checked_one_at_a_time(self, n_topics):
        # the generator checks nothing; this test shows that each record is what
        # the per-record constructor and its checks make of the same fields
        for seed in range(5):
            for p in generate_pairs(500, seed=seed, n_queries=50, n_topics=n_topics):
                rebuilt = PairRecord(query=p.query, keyword=p.keyword, teacher_logits=p.teacher_logits,
                                     label=p.label)
                assert p == rebuilt
                assert type(p.teacher_logits) is tuple and all(type(z) is float for z in p.teacher_logits)

    def test_query_slot_assignment(self):
        pairs = generate_pairs(100, seed=4, n_queries=10)
        for j, p in enumerate(pairs):
            assert p.query == pairs[j % 10].query


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(2, 5), st.integers(1, 60), st.integers(1, 12))
def test_pairs_keep_the_generator_contract(seed, n_topics, n_pairs, n_queries):
    # the vocabulary is the first thing drawn from the seed's rng
    vocab = synthetic._topic_vocabulary(np.random.default_rng(seed), n_topics)
    topic_of = {w: t for t, words in enumerate(vocab.tolist()) for w in words}
    for p in generate_pairs(n_pairs, seed=seed, n_queries=n_queries, n_topics=n_topics):
        # made without the constructor's checks, each record is what they pass
        assert p == PairRecord(p.query, p.keyword, p.teacher_logits, p.label)
        query, keyword = p.query.split(), p.keyword.split()
        q_topic = [w for w in query if w not in MODIFIERS]
        assert 2 <= len(q_topic) <= 3 and len(query) - len(q_topic) <= 1
        assert len({topic_of[w] for w in q_topic}) == 1
        assert len(set(keyword)) == len(keyword)
        assert sum(w in MODIFIERS for w in keyword) <= 1
        shared = len(set(q_topic) & set(keyword))
        others = [w for w in keyword if w not in MODIFIERS and w not in q_topic]
        expected = {"excellent": len(q_topic), "good": max(1, len(q_topic) - 1), "fair": 1, "bad": 0}
        assert shared == expected[p.label]
        assert len(others) <= 1 if p.label == "excellent" else 1 <= len(others) <= 2
        other_topics = {topic_of[w] for w in others}
        if p.label == "bad":
            assert len(other_topics) == 1 and other_topics != {topic_of[q_topic[0]]}
        else:
            assert other_topics <= {topic_of[q_topic[0]]}


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=8), st.text(max_size=8), st.integers(-(2**63), 2**63 - 1),
       st.binary(min_size=8, max_size=8))
@example("", "", 0, bytes(8))  # lo = 0: the largest |z|
@example("red shoes", "red hat", -1, b"\xff" * 4 + bytes(4))  # lo = 2**32 - 1: the smallest
def test_pair_normal_is_box_muller_on_keyed_digest(query, keyword, seed, stand_in):
    # the pair's digest is its 8-byte blake2b digest keyed by the seed; a
    # stand-in digest reaches the halves' ends, which no search of pairs finds
    key = seed.to_bytes(8, "little", signed=True)
    keyed = hashlib.blake2b(f"{query}\x1f{keyword}".encode("utf-8"), key=key, digest_size=8).digest()
    with mock.patch.object(synthetic.hashlib, "blake2b",
                           lambda *a, **kw: types.SimpleNamespace(digest=lambda: stand_in)):
        (forced,) = _pair_normals(key, [query], [keyword])
    for z, digest in ((_pair_normals(key, [query], [keyword])[0], keyed), (forced, stand_in)):
        assert math.isfinite(z) and abs(z) <= math.sqrt(-2.0 * math.log(2.0**-33))
        assert z == _box_muller(digest)


def test_pair_normals_are_standard_normal():
    draws = _pair_normals(b"\0" * 8, [f"query {i}" for i in range(200_000)], ["keyword"] * 200_000)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01


class TestSplitPairs:
    def test_no_query_leakage(self):
        pairs = generate_pairs(500, seed=6, n_queries=50)
        train, test = split_pairs(pairs, n_queries=50)
        assert len(train) + len(test) == len(pairs)
        assert not ({p.query for p in train} & {p.query for p in test})

    def test_query_count_validated(self):
        pairs = generate_pairs(50, seed=6, n_queries=10)
        with pytest.raises(ValueError, match="n_queries must be >= 1, got 0"):
            split_pairs(pairs, n_queries=0)

    def test_empty_held_out_side_refused(self):
        # 100 pairs fill slots 0-99 of 500; the held-out slots are 400-499
        pairs = generate_pairs(100, seed=6, n_queries=500)
        with pytest.raises(ValueError, match="100 pairs over 500 query slots leave no held-out pairs"):
            split_pairs(pairs, n_queries=500)

    def test_empty_training_side_refused(self):
        # one slot, and at least one slot is held out
        pairs = generate_pairs(20, seed=6, n_queries=1)
        with pytest.raises(ValueError, match="20 pairs over 1 query slots leave no training pairs"):
            split_pairs(pairs, n_queries=1)


class TestTokenJaccard:
    def test_identical(self):
        assert token_jaccard("red shoes", "Red  Shoes!") == 1.0

    def test_disjoint(self):
        assert token_jaccard("red shoes", "blue hat") == 0.0

    def test_partial(self):
        assert token_jaccard("red shoes", "buy red shoes") == pytest.approx(2 / 3)

    def test_both_empty(self):
        assert token_jaccard("", "?!") == 1.0

    def test_one_empty(self):
        assert token_jaccard("", "shoes") == 0.0
