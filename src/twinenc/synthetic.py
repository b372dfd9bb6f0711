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

import numpy as np

from .metrics import LABEL_GAINS
from .text import normalize
from .training import PairRecord

# Generic commercial modifiers shared across all topics. They create small
# lexical overlaps between unrelated pairs, so an overlap-only teacher
# credits them; the editorial labels do not, which is exactly the signal
# actual-label fine-tuning exists to add.
MODIFIERS = ("buy", "cheap", "best", "online")

# The teacher's fixed scoring rule (see ``teacher_logits``) and the size
# of each topic's vocabulary. A topic needs at least 5 words: a query's
# three topic words must leave as many "others" as a keyword draws.
MARGIN_SCALE = 8.0
NOISE_STD = 0.5
MIDPOINT = 0.2
WORDS_PER_TOPIC = 30

# The share of query slots that ``split_pairs`` holds out.
HOLDOUT_FRACTION = 0.2


def token_jaccard(a: str, b: str) -> float:
    """Jaccard overlap of the normalized token sets of two strings."""
    return _set_jaccard(set(normalize(a).split()), set(normalize(b).split()))


def _set_jaccard(sa: set[str], sb: set[str]) -> float:
    """``token_jaccard`` of two token sets."""
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _pair_normals(key: bytes, queries: list[str], keywords: list[str]) -> np.ndarray:
    """The teacher's standard normal draw for each (query, keyword) pair.

    ``key`` is the data seed as 8 little-endian bytes. A pair's 8-byte
    blake2b digest under that key splits into little-endian uint32 halves
    ``lo`` and ``hi``, and Box and Muller's transform (1958) of the uniforms
    u1 = (lo + 0.5)·2⁻³² and u2 = hi·2⁻³² gives sqrt(-2 ln u1)·cos(2π u2).
    u1 lies in [2⁻³³, 1 - 2⁻³³], so the draw is finite and |z| <= 6.76. The
    log and cosine are ``math``'s: ``np.log`` differs from ``math.log`` in
    the last bit on some inputs, and the draws are pinned bit for bit.
    """
    blake2b = hashlib.blake2b
    digests = b"".join([blake2b(f"{q}\x1f{k}".encode("utf-8"), key=key, digest_size=8).digest()
                        for q, k in zip(queries, keywords)])
    halves = np.frombuffer(digests, "<u4").reshape(-1, 2)
    u1 = (halves[:, 0] + 0.5) * 2.0**-32
    angle = 2.0 * math.pi * halves[:, 1] * 2.0**-32
    return (np.sqrt(-2.0 * np.array(list(map(math.log, u1.tolist()))))
            * np.array(list(map(math.cos, angle.tolist()))))


def teacher_logits(queries: list[str], keywords: list[str], seed: int = 0) -> np.ndarray:
    """The synthetic teacher, a deterministic lexical-overlap scoring oracle.

    Row i of the (n, 2) result is the (z_bad, z_nonbad) = (-margin/2,
    margin/2) logits of pair i, whose margin grows monotonically and
    piecewise-linearly with the token-set Jaccard overlap J, crossing
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
    blake2b digest keyed by ``seed`` (``_pair_normals``). A row is a pure
    function of (query, keyword, seed); each distinct text is normalized once.
    """
    tokens = {text: set(normalize(text).split()) for text in {*queries, *keywords}}
    j = np.array([_set_jaccard(tokens[q], tokens[k]) for q, k in zip(queries, keywords, strict=True)],
                 dtype=np.float64)
    return _teacher_logits(struct.pack("<q", seed), queries, keywords, j)


def _teacher_logits(key: bytes, queries: list[str], keywords: list[str], j: np.ndarray) -> np.ndarray:
    """``teacher_logits`` of pairs whose token overlaps are ``j``, their seed packed as ``key``.

    Only a pair with 0 < J < 1 gets noise, so only those pairs are hashed.
    """
    margin = np.where(j >= MIDPOINT, MARGIN_SCALE * (j - MIDPOINT) / (1.0 - MIDPOINT),
                      MARGIN_SCALE * (j - MIDPOINT) / MIDPOINT)
    noisy = np.flatnonzero((j > 0.0) & (j < 1.0))
    jn, picked = j[noisy], noisy.tolist()
    margin[noisy] += NOISE_STD * 4.0 * jn * (1.0 - jn) * _pair_normals(
        key, [queries[i] for i in picked], [keywords[i] for i in picked])
    return np.column_stack([-margin / 2.0, margin / 2.0])


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------

_GRADES = tuple(sorted(LABEL_GAINS, key=LABEL_GAINS.get, reverse=True))  # best first: bad is 3
_GRADE_P = (0.2, 0.2, 0.2, 0.4)
_MODIFIER_P = np.array([0.5, 0.5, 0.6, 0.8])  # a keyword's chance of a modifier, by grade


def _topic_vocabulary(rng: np.random.Generator, n_topics: int) -> np.ndarray:
    """``n_topics`` × ``WORDS_PER_TOPIC`` distinct words of 3-8 letters a-z, none a modifier."""
    need = n_topics * WORDS_PER_TOPIC
    seen: set[str] = set(MODIFIERS)
    words: list[str] = []
    while len(words) < need:
        lengths = rng.integers(3, 9, size=need).tolist()
        letters = rng.integers(ord("a"), ord("z") + 1, size=(need, 8), dtype=np.uint8)
        for chars, n in zip(letters.view("S8").ravel().tolist(), lengths):
            word = chars[:n].decode("ascii")
            if word not in seen:
                seen.add(word)
                words.append(word)
    return np.array(words[:need], dtype=object).reshape(n_topics, WORDS_PER_TOPIC)


def generate_pairs(
    n_pairs: int, seed: int = 0, n_queries: int | None = None, n_topics: int = 20,
) -> list[PairRecord]:
    """Generate labelled query/keyword pairs with teacher logits attached.

    Each of ``n_topics`` topics has ``WORDS_PER_TOPIC`` random words. Each
    query holds 2-3 words from one topic (sometimes plus a generic
    modifier). Keywords are built per grade: ``excellent`` keywords contain
    every query topic word, ``good`` keywords all but one, ``fair``
    keywords exactly one, and ``bad`` keywords none: their topic words come
    from one other topic. The rest of a keyword is 0-2 other words of its
    topic and at most one modifier, in random order. Modifier words are
    shared across topics, so lexical overlap alone cannot fully separate bad
    from fair; the editorial grade can. The logits are ``teacher_logits``
    of the pairs under ``seed``. Every random value comes from an array draw
    on one ``np.random.default_rng(seed)``.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if n_queries is None:
        n_queries = max(1, n_pairs // 10)
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    if n_topics < 2:
        raise ValueError(f"n_topics must be >= 2, got {n_topics}")
    if not 0 <= seed < 2**63:
        raise ValueError(f"seed must be in [0, 2**63), got {seed}")
    rng = np.random.default_rng(seed)
    vocab = _topic_vocabulary(rng, n_topics)

    # Per query slot: a topic, a random order of its words whose first 2-3
    # the query takes, and a modifier with p = 0.6.
    q_topic = rng.integers(n_topics, size=n_queries)
    q_order = np.argsort(rng.random((n_queries, WORDS_PER_TOPIC)), axis=1)
    q_size = rng.integers(2, 4, size=n_queries)
    q_has_modifier = rng.random(n_queries) < 0.6
    q_modifier = rng.integers(len(MODIFIERS), size=n_queries)
    queries = []
    for words, n, has, m in zip(vocab[q_topic[:, None], q_order[:, :3]].tolist(), q_size.tolist(),
                                q_has_modifier.tolist(), q_modifier.tolist()):
        queries.append(" ".join(words[:n] + ([MODIFIERS[m]] if has else [])))
    in_query = np.argsort(q_order, axis=1) < q_size[:, None]  # by word: its rank in the order

    # Per pair: a grade, which sets how many of the query's topic words the
    # keyword shares, 0-2 other words of its topic, and a modifier.
    slot = np.arange(n_pairs) % n_queries
    grade = rng.choice(len(_GRADES), size=n_pairs, p=_GRADE_P)
    size = q_size[slot]
    n_shared = np.choose(grade, [size, size - 1, 1, 0])
    n_other = rng.integers(2, size=n_pairs) + (grade > 0)
    has_modifier = rng.random(n_pairs) < _MODIFIER_P[grade]
    modifier = rng.integers(len(MODIFIERS), size=n_pairs)
    bad = grade == 3
    other_topic = rng.integers(n_topics - 1, size=n_pairs)
    topic = np.where(bad, other_topic + (other_topic >= q_topic[slot]), q_topic[slot])
    # A random order of the topic's words with the query's own last: the
    # keyword's other words are the first n_other, its shared ones the last
    # n_shared. A bad keyword's topic is not its query's, so nothing goes last.
    keys = rng.random((n_pairs, WORDS_PER_TOPIC))
    keys += in_query[slot] & ~bad[:, None]
    picks = np.argsort(keys, axis=1)[:, [0, 1, -3, -2, -1]]
    words = np.column_stack([vocab[topic[:, None], picks], np.array(MODIFIERS, dtype=object)[modifier]])
    used = np.column_stack([n_other > 0, n_other > 1, n_shared > 2, n_shared > 1, n_shared > 0, has_modifier])
    # then a random order of the keyword's words, the unused ones last
    order = np.argsort(np.where(used, rng.random(used.shape), 2.0), axis=1)
    words = np.take_along_axis(words, order, axis=1)
    n_words = used.sum(axis=1)

    # The words are lowercase a-z, which normalize() leaves as they are, and
    # no word repeats, so this is token_jaccard(query, keyword).
    q_has_modifier, q_modifier = q_has_modifier[slot], q_modifier[slot]
    common = n_shared + (has_modifier & q_has_modifier & (modifier == q_modifier))
    jaccard = common / (size + q_has_modifier + n_words - common)

    pair_queries = (queries * -(-n_pairs // n_queries))[:n_pairs]  # pair j's query is slot j % n_queries
    keywords = [" ".join(row[:n]) for row, n in zip(words.tolist(), n_words.tolist())]
    logits = _teacher_logits(struct.pack("<q", seed), pair_queries, keywords, jaccard)
    labels = [_GRADES[g] for g in grade.tolist()]
    return _records(pair_queries, keywords, logits, labels)


def _records(queries: list[str], keywords: list[str], logits: np.ndarray, labels: list[str]) -> list[PairRecord]:
    """A ``PairRecord`` per row, made without the constructor's checks: only for
    ``generate_pairs``' columns, whose values hold every rule by construction
    (words of lowercase a-z, finite logits, grades of ``_GRADES``)."""
    records = [object.__new__(PairRecord) for _ in queries]
    for record, fields in zip(records, zip(queries, keywords, zip(*logits.T.tolist()), labels)):
        record.query, record.keyword, record.teacher_logits, record.label = fields
    return records


def split_pairs(pairs: list[PairRecord], n_queries: int) -> tuple[list[PairRecord], list[PairRecord]]:
    """Split by query slot so held-out queries never appear in training.

    ``generate_pairs`` assigns pair j to query slot j % n_queries; the last
    ``HOLDOUT_FRACTION`` of slots (at least one) become the held-out set. A
    split that leaves either side without pairs is a ``ValueError``.
    """
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    n_test_queries = max(1, int(round(n_queries * HOLDOUT_FRACTION)))
    test_slots = set(range(n_queries - n_test_queries, n_queries))
    train = [p for j, p in enumerate(pairs) if j % n_queries not in test_slots]
    test = [p for j, p in enumerate(pairs) if j % n_queries in test_slots]
    for side, part in (("training", train), ("held-out", test)):
        if not part:
            raise ValueError(f"{len(pairs)} pairs over {n_queries} query slots leave no {side} pairs "
                             f"(the last {n_test_queries} slots are held out)")
    return train, test
