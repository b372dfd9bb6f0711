"""Synthetic teacher oracle and corpus generator.

The real teacher is a large relevance model whose logits arrive via TSV
files; nothing here depends on it. For self-contained runs, this module
provides a deterministic lexical-overlap teacher plus a generator that
fabricates sponsored-search-flavored query/keyword pairs with graded
relevance labels, so the whole pipeline runs with zero external data.
"""

from __future__ import annotations

import hashlib
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


# The teacher's noise for a pair is np.random.default_rng(e).standard_normal(),
# where e is the pair's 8-byte blake2b digest keyed by the seed, read as a
# little-endian integer. A Generator per pair spends nearly all its time in
# SeedSequence's hashing, so _pair_normals makes that hashing's uint32
# arithmetic for a block of pairs at once and sets each pair's PCG64 state
# into one reused Generator: the same state, so the same draw. The constants
# are those of numpy's bit_generator.pyx (SeedSequence) and pcg64.h; NEP 19
# keeps both seeding algorithms stable.
TEACHER_BLOCK = 512  # pairs whose noise is drawn together

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_XSHIFT = np.uint32(16)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


def _hash_consts(init: int, mult: int, n: int) -> list[tuple[np.uint32, np.uint32]]:
    """The (xor, multiply) constants of ``n`` successive SeedSequence hashmix calls."""
    consts = []
    for _ in range(n):
        nxt = (init * mult) & _MASK32
        consts.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return consts


# mix_entropy hashes each entropy word (0 past its end) into the 4-word pool,
# then mixes each pool word into every other: 16 calls. generate_state(4,
# uint64) hashes 8 pool words.
_MIX_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_STATE_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(value: np.ndarray, consts: tuple[np.uint32, np.uint32]) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> _XSHIFT)


def _seed_states(entropy: np.ndarray) -> list[list[int]]:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each row of ``entropy``.

    ``entropy`` is ``(n, 2)`` uint32: each 64-bit entropy's low word, then
    its high word. SeedSequence drops a zero high word, but it hashes a 0
    into each pool word that its entropy does not fill, so the pool is the
    same.
    """
    consts = iter(_MIX_CONSTS)
    zeros = np.zeros(len(entropy), dtype=np.uint32)
    pool = [_hashmix(word, next(consts)) for word in (entropy[:, 0], entropy[:, 1], zeros, zeros)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], next(consts))
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    words = np.stack([_hashmix(pool[i % 4], c) for i, c in enumerate(_STATE_CONSTS)], axis=1)
    return words.astype("<u4").view("<u8").tolist()


def _pair_normals(seed: int, pairs: Sequence[tuple[str, str]]) -> list[float]:
    """The teacher's standard normal draw for each (query, keyword) pair."""
    key = struct.pack("<q", seed)
    return _standard_normals(b"".join(
        hashlib.blake2b(f"{query}\x1f{keyword}".encode("utf-8"), key=key, digest_size=8).digest()
        for query, keyword in pairs
    ))


def _standard_normals(digests: bytes) -> list[float]:
    """``np.random.default_rng(int.from_bytes(d, "little")).standard_normal()``
    for each 8-byte ``d`` of ``digests``."""
    bit_generator = np.random.PCG64(0)
    gen = np.random.Generator(bit_generator)
    normals = []
    for s_hi, s_lo, i_hi, i_lo in _seed_states(np.frombuffer(digests, dtype="<u4").reshape(-1, 2)):
        # pcg64_set_seed: inc = (initseq << 1) | 1, then two LCG steps from 0
        # with initstate added between them
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        normals.append(gen.standard_normal())
    return normals


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
    the maximal negative one (-scale). A per-pair seeded Gaussian noise term
    of std ``NOISE_STD``, scaled by 4*J*(1-J), is added; it vanishes at both
    extremes. A pure function of (query, keyword, seed).
    """
    return _teacher_block(seed, [(query, keyword, token_jaccard(query, keyword))])[0]


def _teacher_block(seed: int, block: Sequence[tuple[str, str, float]]) -> list[tuple[float, float]]:
    """``synthetic_teacher`` of each (query, keyword, J) in ``block``, J the pair's token overlap."""
    normals = iter(_pair_normals(seed, [(q, k) for q, k, j in block if 0.0 < j < 1.0]))
    logits = []
    for _, _, j in block:
        if j >= MIDPOINT:
            base = MARGIN_SCALE * (j - MIDPOINT) / (1.0 - MIDPOINT)
        else:
            base = MARGIN_SCALE * (j - MIDPOINT) / MIDPOINT
        noise = 0.0
        if 0.0 < j < 1.0:
            noise = NOISE_STD * 4.0 * j * (1.0 - j) * next(normals)
        margin = base + noise
        logits.append((-margin / 2.0, margin / 2.0))
    return logits


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

    pairs: list[PairRecord] = []
    block: list[tuple[str, str, float]] = []  # (query, keyword, J) awaiting the teacher
    grades: list[str] = []
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
        block.append((query, keyword, len(query_words & keyword_words) / len(query_words | keyword_words)))
        grades.append(grade)
        if len(block) == TEACHER_BLOCK or i == n_pairs - 1:
            for (q, k, _), logits, g in zip(block, _teacher_block(seed, block), grades):
                pairs.append(PairRecord(query=q, keyword=k, teacher_logits=logits, label=g))
            block.clear()
            grades.clear()
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
