"""Text frontend: normalization, character trigrams, and hashed token sequences.

A word is represented as the multiset of character trigrams of ``#word#``
(boundary-padded, 3-char sliding window), each trigram hashed into a fixed
number of buckets. No learned vocabulary file is needed; collisions are
accepted and absorbed by the encoder.
"""

from __future__ import annotations

import hashlib
import re
import struct
from dataclasses import dataclass, field

NORMALIZATION_VERSION = "v1"

_BOUNDARY = "#"
_TRIGRAM_WIDTH = 3


def normalize(text: str) -> str:
    """Normalize raw text: lowercase, strip punctuation, collapse whitespace.

    Rule v1: every non-alphanumeric character becomes a space, runs of
    whitespace collapse to a single space, and the result is stripped.
    Digits and non-ASCII letters are kept. Deterministic; empty input
    (or punctuation-only input) yields the empty string.
    """
    lowered = text.lower()
    cleaned = "".join(ch if ch.isalnum() else " " for ch in lowered)
    return " ".join(cleaned.split())


ENCODABLE = "text with a letter or digit"  # what ``encodable`` accepts, as its errors name it
_WORD_CHAR = re.compile(r"[^\W_]")  # \w less "_": a character str.isalnum() accepts, so normalize keeps


def encodable(text: str, name: str = "text") -> str:
    """``text`` itself if it normalizes to at least one word, else a ``ValueError``
    naming it ``name``; the converter of a text column read through ``textio.Table.column``."""
    if not _WORD_CHAR.search(text):
        raise ValueError(f"{name} {text!r} is not {ENCODABLE}")
    return text


def word_trigrams(word: str) -> list[str]:
    """All contiguous 3-grams of ``#word#``, in window order.

    The result is a multiset (duplicates preserved); its size always equals
    ``len(word)`` because of the boundary padding.
    """
    if not word or any(ch.isspace() for ch in word):
        raise ValueError(f"invalid token for trigram extraction: {word!r}")
    padded = _BOUNDARY + word + _BOUNDARY
    return [padded[i : i + _TRIGRAM_WIDTH] for i in range(len(padded) - _TRIGRAM_WIDTH + 1)]


@dataclass
class TrigramVocab:
    """Hashed trigram vocabulary.

    Trigrams map deterministically into ``[0, bucket_count)`` via a keyed
    blake2b digest, so bucket assignments are stable across runs, processes,
    and platforms for a given (bucket_count, hash_seed) pair. One extra
    embedding row beyond ``bucket_count`` is reserved for the classification
    token used by cls-token pooling; see ``cls_bucket``.
    """

    bucket_count: int = 4096
    hash_seed: int = 0

    _word_cache: dict[str, tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.bucket_count < 1:
            raise ValueError(f"bucket_count must be >= 1, got {self.bucket_count}")
        try:
            self._key = struct.pack("<q", self.hash_seed)
        except struct.error as exc:
            raise ValueError(f"hash_seed must be a signed 64-bit integer: {exc}") from None

    @property
    def cls_bucket(self) -> int:
        """Reserved embedding-row index for the classification token."""
        return self.bucket_count

    def bucket(self, trigram: str) -> int:
        digest = hashlib.blake2b(trigram.encode("utf-8"), key=self._key, digest_size=8)
        return int.from_bytes(digest.digest(), "little") % self.bucket_count

    def word_buckets(self, word: str) -> tuple[int, ...]:
        """Hashed trigram multiset for one word, memoized."""
        cached = self._word_cache.get(word)
        if cached is None:
            cached = tuple(self.bucket(t) for t in word_trigrams(word))
            self._word_cache[word] = cached
        return cached


@dataclass(frozen=True, slots=True)
class TokenSequence:
    """One encoded sentence, ragged: only real words, never padding.

    ``bucket_ids`` concatenates the trigram bucket multisets of the words
    (a prepended cls bucket counts as a one-bucket word), and
    ``word_offsets[i]`` is where word i starts in it.
    """

    bucket_ids: tuple[int, ...]
    word_offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        bounds = self.word_offsets + (len(self.bucket_ids),)
        if bounds[0] != 0 or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("word_offsets must start at 0 and split bucket_ids into non-empty words")

    @property
    def length(self) -> int:
        """Number of words, the cls bucket included."""
        return len(self.word_offsets)


def encode_text(
    text: str,
    vocab: TrigramVocab,
    max_len: int,
    prepend_bucket: int | None = None,
) -> TokenSequence:
    """Encode text into a ragged :class:`TokenSequence` of at most ``max_len`` words.

    Words beyond ``max_len`` are truncated; shorter inputs are not padded.
    When ``prepend_bucket`` is given (cls-token pooling), that reserved
    bucket is word 0 and text capacity shrinks by one.

    Raises ``ValueError`` if the text normalizes to empty; the caller decides
    the fallback.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    norm = normalize(text)
    if not norm:
        raise ValueError(f"text normalizes to empty: {text!r}")

    capacity = max_len - (1 if prepend_bucket is not None else 0)
    if capacity < 1:
        raise ValueError("max_len too small to hold any text after the reserved slot")

    bucket_ids: list[int] = [] if prepend_bucket is None else [prepend_bucket]
    word_offsets: list[int] = [] if prepend_bucket is None else [0]
    for word in norm.split()[:capacity]:
        word_offsets.append(len(bucket_ids))
        bucket_ids.extend(vocab.word_buckets(word))
    return TokenSequence(bucket_ids=tuple(bucket_ids), word_offsets=tuple(word_offsets))
