"""Synthetic teacher oracle and corpus generator.

The real teacher is a large relevance model whose logits arrive via TSV
files; nothing here depends on it. For self-contained runs, this module
provides a deterministic lexical-overlap teacher plus a generator that
fabricates sponsored-search-flavored query/keyword pairs with graded
relevance labels, so the whole pipeline runs with zero external data.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_right
from typing import Sequence

import numpy as np

from .text import normalize
from .training import PairRecord

# Generic commercial modifiers shared across all topics. They create small
# lexical overlaps between unrelated pairs, so an overlap-only teacher
# credits them; the editorial labels do not, which is exactly the signal
# actual-label fine-tuning exists to add.
MODIFIERS = ("buy", "cheap", "best", "online")

# The teacher's fixed scoring rule (see ``synthetic_teacher``) and the size
# of each topic's vocabulary. A topic needs at least 5 words: a query's
# three topic words must leave as many "others" as a keyword draws.
MARGIN_SCALE = 8.0
NOISE_STD = 0.5
MIDPOINT = 0.2
WORDS_PER_TOPIC = 30


def token_jaccard(a: str, b: str) -> float:
    """Jaccard overlap of the normalized token sets of two strings."""
    sa = set(normalize(a).split())
    sb = set(normalize(b).split())
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _pair_normal(key: bytes, query: str, keyword: str) -> float:
    """The teacher's standard normal draw for a (query, keyword) pair.

    ``key`` is the data seed as 8 little-endian bytes. The pair's 8-byte
    blake2b digest under that key splits into little-endian uint32 halves
    ``lo`` and ``hi``, and Box and Muller's transform (1958) of the uniforms
    u1 = (lo + 0.5)·2⁻³² and u2 = hi·2⁻³² gives sqrt(-2 ln u1)·cos(2π u2).
    u1 lies in [2⁻³³, 1 - 2⁻³³], so the draw is finite and |z| <= 6.76.
    """
    digest = hashlib.blake2b(f"{query}\x1f{keyword}".encode("utf-8"), key=key, digest_size=8).digest()
    lo, hi = struct.unpack("<II", digest)
    return math.sqrt(-2.0 * math.log((lo + 0.5) * 2.0**-32)) * math.cos(2.0 * math.pi * hi * 2.0**-32)


def synthetic_teacher(query: str, keyword: str, seed: int = 0) -> tuple[float, float]:
    """Deterministic lexical-overlap scoring oracle.

    Produces a (z_bad, z_nonbad) logit pair whose margin grows monotonically
    and piecewise-linearly with the token-set Jaccard overlap J, crossing
    zero at ``MIDPOINT`` (short relevant texts rarely share more than a
    quarter of their tokens, so a trained relevance model's decision
    boundary sits well below J = 0.5). With scale = ``MARGIN_SCALE`` and
    mid = ``MIDPOINT``:

        margin = scale * (J - mid) / (1 - mid)   for J >= mid
        margin = scale * (J - mid) / mid         for J <  mid

    so J = 1 always yields the maximal positive margin (+scale) and J = 0
    the maximal negative one (-scale). A Gaussian noise term of std
    ``NOISE_STD``, scaled by 4*J*(1-J), is added; it vanishes at both
    extremes. Its standard normal is a Box–Muller draw on the pair's
    blake2b digest keyed by ``seed`` (``_pair_normal``). A pure function of
    (query, keyword, seed).
    """
    return _teacher_logits(struct.pack("<q", seed), query, keyword, token_jaccard(query, keyword))


def _teacher_logits(key: bytes, query: str, keyword: str, j: float) -> tuple[float, float]:
    """``synthetic_teacher`` of a pair whose token overlap is ``j``, its seed packed as ``key``."""
    if j >= MIDPOINT:
        base = MARGIN_SCALE * (j - MIDPOINT) / (1.0 - MIDPOINT)
    else:
        base = MARGIN_SCALE * (j - MIDPOINT) / MIDPOINT
    noise = 0.0
    if 0.0 < j < 1.0:
        noise = NOISE_STD * 4.0 * j * (1.0 - j) * _pair_normal(key, query, keyword)
    margin = base + noise
    return (-margin / 2.0, margin / 2.0)


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------

def _random_word(rng: np.random.Generator) -> str:
    length = 3 + int(rng.integers(6))
    letters = rng.integers(0, 26, size=length)
    return "".join(chr(ord("a") + int(c)) for c in letters)


def _topic_vocabulary(rng: np.random.Generator, n_topics: int) -> list[list[str]]:
    seen: set[str] = set(MODIFIERS)
    topics = []
    for _ in range(n_topics):
        words = []
        while len(words) < WORDS_PER_TOPIC:
            w = _random_word(rng)
            if w not in seen:
                seen.add(w)
                words.append(w)
        topics.append(words)
    return topics


# The draws below are the ones Generator.choice makes, without its per-call
# conversion of the population to an array and revalidation of p. A grade
# is the bisection of one rng.random() over the cdf that choice(p=...)
# computes: p.cumsum() divided by its last entry. rng.integers(low, high)
# is written low + rng.integers(high - low): the same bounded draw.
_GRADES = ("excellent", "good", "fair", "bad")
_GRADE_CDF = np.cumsum([0.2, 0.2, 0.2, 0.4])
_GRADE_CDF = (_GRADE_CDF / _GRADE_CDF[-1]).tolist()


def _pick(rng: np.random.Generator, seq: Sequence[str]) -> str:
    """One item of ``seq``, as ``rng.choice(seq)`` draws it."""
    return seq[int(rng.integers(len(seq)))]


def _sample(rng: np.random.Generator, seq: Sequence[str], k: int) -> list[str]:
    """``k`` distinct items of ``seq``, as ``rng.choice(seq, size=k, replace=False)`` draws them.

    Choice draws a small sample (``k <= len(seq)``, and ``len(seq) <= 10000``
    or ``k <= len(seq) // 50``) by Floyd's algorithm, then shuffles it by
    Fisher-Yates; each of its draws is the bounded draw of a scalar
    ``rng.integers(j + 1)``, so this makes the same draws one by one.
    """
    n = len(seq)
    picked: list[int] = []
    for j in range(n - k, n):
        v = int(rng.integers(j + 1))
        picked.append(j if v in picked else v)
    for i in range(k - 1, 0, -1):
        m = int(rng.integers(i + 1))
        picked[i], picked[m] = picked[m], picked[i]
    return [seq[i] for i in picked]


def generate_pairs(
    n_pairs: int, seed: int = 0, n_queries: int | None = None, n_topics: int = 20,
) -> list[PairRecord]:
    """Generate labelled query/keyword pairs with teacher logits attached.

    Each of ``n_topics`` topics has ``WORDS_PER_TOPIC`` random words. Each
    query holds 2-3 words from one topic (sometimes plus a generic
    modifier). Keywords are built per grade: ``excellent`` keywords contain
    every query topic word, ``good`` keywords share several, ``fair``
    keywords share exactly one, and ``bad`` keywords share none and come
    from a different topic. Modifier words are shared across topics, so
    lexical overlap alone cannot fully separate bad from fair; the editorial
    grade can. The logits are ``synthetic_teacher(query, keyword, seed)``.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if n_queries is None:
        n_queries = max(1, n_pairs // 10)
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    if n_topics < 2:
        raise ValueError(f"n_topics must be >= 2, got {n_topics}")
    rng = np.random.default_rng(seed)
    topics = _topic_vocabulary(rng, n_topics)

    # Per query slot: text, topic words, the topic's other words, word set.
    slots: list[tuple[str, int, list[str], list[str], frozenset[str]]] = []
    for _ in range(n_queries):
        t = int(rng.integers(n_topics))
        topic_words = _sample(rng, topics[t], 2 + int(rng.integers(2)))
        words = list(topic_words)
        if rng.random() < 0.6:
            words.append(_pick(rng, MODIFIERS))
        others = [w for w in topics[t] if w not in topic_words]
        slots.append((" ".join(words), t, topic_words, others, frozenset(words)))

    key = struct.pack("<q", seed)
    pairs: list[PairRecord] = []
    for i in range(n_pairs):
        query, topic, topic_words, others, query_words = slots[i % n_queries]
        grade = _GRADES[bisect_right(_GRADE_CDF, rng.random())]
        if grade == "excellent":
            kw = topic_words + _sample(rng, others, int(rng.integers(2)))
            if rng.random() < 0.5:
                kw.append(_pick(rng, MODIFIERS))
        elif grade == "good":
            n_shared = max(1, len(topic_words) - 1)
            kw = _sample(rng, topic_words, n_shared)
            kw += _sample(rng, others, 1 + int(rng.integers(2)))
            if rng.random() < 0.5:
                kw.append(_pick(rng, MODIFIERS))
        elif grade == "fair":
            # exactly one shared topic word, padded with other same-topic
            # words and often a generic modifier
            kw = [_pick(rng, topic_words)]
            kw += _sample(rng, others, 1 + int(rng.integers(2)))
            if rng.random() < 0.6:
                kw.append(_pick(rng, MODIFIERS))
        else:
            other_topic = int(rng.integers(n_topics - 1))
            if other_topic >= topic:
                other_topic += 1
            kw = _sample(rng, topics[other_topic], 1 + int(rng.integers(2)))
            if rng.random() < 0.8:
                kw.append(_pick(rng, MODIFIERS))
        rng.shuffle(kw)
        keyword = " ".join(dict.fromkeys(kw))  # drop accidental duplicates, keep order
        # the words are lowercase a-z, which normalize() leaves as they are,
        # so this is token_jaccard(query, keyword)
        keyword_words = set(kw)
        j = len(query_words & keyword_words) / len(query_words | keyword_words)
        pairs.append(PairRecord(query=query, keyword=keyword,
                                teacher_logits=_teacher_logits(key, query, keyword, j), label=grade))
    return pairs


def split_pairs(
    pairs: list[PairRecord], n_queries: int, holdout_fraction: float = 0.2
) -> tuple[list[PairRecord], list[PairRecord]]:
    """Split by query slot so held-out queries never appear in training.

    ``generate_pairs`` assigns pair j to query slot j % n_queries; the last
    ``holdout_fraction`` of slots become the held-out set. A split that
    leaves either side without pairs is a ``ValueError``.
    """
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must be in (0, 1)")
    n_test_queries = max(1, int(round(n_queries * holdout_fraction)))
    test_slots = set(range(n_queries - n_test_queries, n_queries))
    train = [p for j, p in enumerate(pairs) if j % n_queries not in test_slots]
    test = [p for j, p in enumerate(pairs) if j % n_queries in test_slots]
    for side, part in (("training", train), ("held-out", test)):
        if not part:
            raise ValueError(f"{len(pairs)} pairs over {n_queries} query slots leave no {side} pairs "
                             f"(the last {n_test_queries} slots are held out)")
    return train, test
