import hashlib
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinenc import synthetic
from twinenc.metrics import LABEL_GAINS
from twinenc.synthetic import (
    MODIFIERS,
    _pair_normal,
    _sample,
    generate_pairs,
    split_pairs,
    synthetic_teacher,
    token_jaccard,
)
from twinenc.text import normalize
from twinenc.training import soft_label


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
            assert (p.binary() == 0) == (p.label == "bad")

    def test_teacher_logits_consistent_with_oracle(self):
        # the generator computes J from its own word sets; it must equal
        # token_jaccard, so every logit pair equals the public oracle's,
        # whose noise is seeded by the data seed
        for seed in (3, 9):
            for p in generate_pairs(2000, seed=seed, n_queries=200, n_topics=40):
                assert p.teacher_logits == synthetic_teacher(p.query, p.keyword, seed=seed)

    @pytest.mark.parametrize("call", [
        lambda: generate_pairs(200, seed=0, teacher_seed=1),
        lambda: synthetic_teacher("red shoes", "red hat", midpoint=0.3),
    ], ids=["generate_pairs-teacher_seed", "synthetic_teacher-midpoint"])
    def test_teacher_rule_is_not_settable(self, call):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call()

    @pytest.mark.parametrize("args, kwargs, expected", [
        ((12500,), dict(seed=1, n_queries=1000), "c0725bede826c186"),
        ((4000,), dict(seed=1), "c3b92770af5c347a"),
        ((2048,), dict(seed=1, n_queries=1200), "f6596a078ec7db43"),
        ((200,), dict(seed=5, n_queries=20), "cbba68f9d8d7c33e"),
    ])
    def test_golden_digest_of_texts_and_labels(self, args, kwargs, expected):
        # pins every query, keyword and label the generator draws
        digest = hashlib.sha256()
        for p in generate_pairs(*args, **kwargs):
            digest.update(f"{p.query}\t{p.keyword}\t{p.label}\n".encode("utf-8"))
        assert digest.hexdigest()[:16] == expected

    @pytest.mark.parametrize("args, kwargs, expected", [
        ((12500,), dict(seed=1, n_queries=1000), "518457459c19f444"),
        ((4000,), dict(seed=1), "21946d817c822470"),
        ((2048,), dict(seed=1, n_queries=1200), "37c4ecf1ee1517ad"),
        ((200,), dict(seed=5, n_queries=20), "720b328d8601de3a"),
    ])
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

    def test_fewest_topics(self):
        # with two topics every grade still appears, and a bad keyword
        # shares at most a generic modifier with its query
        for seed in range(5):
            pairs = generate_pairs(400, seed=seed, n_queries=40, n_topics=2)
            assert {p.label for p in pairs} == set(LABEL_GAINS)
            for p in pairs:
                if p.label == "bad":
                    assert set(p.query.split()) & set(p.keyword.split()) <= set(MODIFIERS)

    def test_query_slot_assignment(self):
        pairs = generate_pairs(100, seed=4, n_queries=10)
        for j, p in enumerate(pairs):
            assert p.query == pairs[j % 10].query


@st.composite
def _population_and_size(draw):
    n = draw(st.integers(1, 40))
    return n, draw(st.integers(0, min(n, 4)))


@settings(max_examples=300, deadline=None)
@given(_population_and_size(), st.integers(0, 2**32 - 1))
def test_sample_draws_what_choice_draws(n_k, seed):
    # the same items in the same order, and the generators end in the same
    # state: the next draw of each agrees
    n, k = n_k
    population = [f"w{i}" for i in range(n)]
    ours, numpy_choice = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = [population[i] for i in numpy_choice.choice(n, size=k, replace=False)]
    assert _sample(ours, population, k) == expected
    assert ours.random() == numpy_choice.random()


def _box_muller(digest: bytes) -> float:
    lo, hi = int.from_bytes(digest[:4], "little"), int.from_bytes(digest[4:], "little")
    return math.sqrt(-2.0 * math.log((lo + 0.5) * 2.0**-32)) * math.cos(2.0 * math.pi * hi * 2.0**-32)


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
        forced = _pair_normal(key, query, keyword)
    for z, digest in ((_pair_normal(key, query, keyword), keyed), (forced, stand_in)):
        assert math.isfinite(z) and abs(z) <= math.sqrt(-2.0 * math.log(2.0**-33))
        assert z == _box_muller(digest)


def test_pair_normals_are_standard_normal():
    draws = np.array([_pair_normal(b"\0" * 8, f"query {i}", "keyword") for i in range(200_000)])
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01


class TestSplitPairs:
    def test_no_query_leakage(self):
        pairs = generate_pairs(500, seed=6, n_queries=50)
        train, test = split_pairs(pairs, n_queries=50, holdout_fraction=0.2)
        assert len(train) + len(test) == len(pairs)
        assert not ({p.query for p in train} & {p.query for p in test})

    def test_fraction_validated(self):
        pairs = generate_pairs(50, seed=6, n_queries=10)
        with pytest.raises(ValueError):
            split_pairs(pairs, n_queries=10, holdout_fraction=0.0)
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
