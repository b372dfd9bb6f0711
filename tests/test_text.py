import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinenc.text import TrigramVocab, encode_text, encodable, normalize, word_trigrams

words = st.text(alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=0x2FF), min_size=1, max_size=12)


class TestNormalize:
    def test_punctuation_and_whitespace(self):
        assert normalize("Hello,  World") == "hello world"

    def test_empty(self):
        assert normalize("") == ""

    def test_lowercase(self):
        assert normalize("CAT") == "cat"

    def test_punctuation_only(self):
        assert normalize("?!...") == ""

    def test_digits_kept(self):
        assert normalize("iPhone 13 Pro!") == "iphone 13 pro"

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(st.text(max_size=80))
    def test_no_double_spaces_or_upper(self, text):
        out = normalize(text)
        assert "  " not in out
        assert out == out.lower()
        assert out == out.strip()

    @given(st.text(max_size=6) | st.sampled_from(["_", "!!!", "\u0301", "\u0130", "\u00df", "\u0663", "\u00b2"]))
    def test_encodable_is_what_normalizes_to_a_word(self, text):
        if normalize(text):
            assert encodable(text) is text
        else:
            with pytest.raises(ValueError, match="is not text with a letter or digit"):
                encodable(text)


class TestWordTrigrams:
    def test_cat(self):
        assert sorted(word_trigrams("cat")) == sorted(["#ca", "cat", "at#"])

    def test_single_char(self):
        assert word_trigrams("a") == ["#a#"]

    def test_two_chars(self):
        assert word_trigrams("ad") == ["#ad", "ad#"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            word_trigrams("")

    def test_whitespace_rejected(self):
        with pytest.raises(ValueError):
            word_trigrams("a b")

    @given(words)
    def test_count_equals_word_length(self, word):
        assert len(word_trigrams(word)) == len(word)

    def test_duplicates_preserved(self):
        # 'aaaa' -> #aa, aaa, aaa, aa#
        assert word_trigrams("aaaa").count("aaa") == 2


class TestTrigramVocab:
    def test_bucket_range(self):
        vocab = TrigramVocab(bucket_count=17, hash_seed=3)
        for t in ("#ca", "cat", "at#", "xyz"):
            assert 0 <= vocab.bucket(t) < 17

    def test_deterministic_across_instances(self):
        a = TrigramVocab(bucket_count=4096, hash_seed=7)
        b = TrigramVocab(bucket_count=4096, hash_seed=7)
        assert [a.bucket(t) for t in word_trigrams("keyboard")] == [
            b.bucket(t) for t in word_trigrams("keyboard")
        ]

    def test_seed_changes_assignment(self):
        a = TrigramVocab(bucket_count=4096, hash_seed=0)
        b = TrigramVocab(bucket_count=4096, hash_seed=1)
        trigrams = [t for w in ("red", "shoes", "online") for t in word_trigrams(w)]
        assert any(a.bucket(t) != b.bucket(t) for t in trigrams)

    def test_cls_bucket_reserved(self):
        vocab = TrigramVocab(bucket_count=100, hash_seed=0)
        assert vocab.cls_bucket == 100

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            TrigramVocab(bucket_count=0, hash_seed=0)


class TestEncodeText:
    def setup_method(self):
        self.vocab = TrigramVocab(bucket_count=512, hash_seed=0)

    def test_single_word_not_padded(self):
        seq = encode_text("cat", self.vocab, max_len=8)
        assert seq == (self.vocab.word_buckets("cat"),)
        assert len(seq[0]) == 3

    def test_truncation_keeps_the_first_words(self):
        seq = encode_text("a b c d", self.vocab, max_len=2)
        assert seq == (self.vocab.word_buckets("a"), self.vocab.word_buckets("b"))

    def test_identical_words_identical_multisets(self):
        seq = encode_text("cat cat", self.vocab, max_len=4)
        assert len(seq) == 2 and len(seq[0]) == 3
        assert seq[0] == seq[1]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            encode_text("?!", self.vocab, max_len=4)

    def test_cls_prefix_shrinks_capacity(self):
        seq = encode_text("a b c d", self.vocab, max_len=4, prepend_bucket=self.vocab.cls_bucket)
        assert seq[0] == (self.vocab.cls_bucket,)  # a one-bucket word
        assert len(seq) == 4  # cls + 3 words
        assert seq[1:] == tuple(map(self.vocab.word_buckets, "abc"))

    @given(st.lists(words, min_size=1, max_size=6))
    def test_deterministic(self, word_list):
        text = " ".join(word_list)
        a = encode_text(text, self.vocab, max_len=8)
        b = encode_text(text, self.vocab, max_len=8)
        assert a == b

    def test_words_are_their_word_buckets(self):
        seq = encode_text("red shoes", self.vocab, max_len=5)
        assert seq == (self.vocab.word_buckets("red"), self.vocab.word_buckets("shoes"))


class TestTokenSequence:
    @given(st.text(max_size=40).filter(normalize), st.integers(1, 6), st.booleans())
    def test_words_are_non_empty_and_flatten_to_the_trigram_buckets(self, text, max_len, cls):
        """Every word is non-empty, and the words concatenate to the flat bucket
        ids of the first words' trigrams, the cls bucket first when pooled by it."""
        vocab = TrigramVocab(bucket_count=64, hash_seed=3)
        cls_bucket = vocab.cls_bucket if cls and max_len > 1 else None
        seq = encode_text(text, vocab, max_len, prepend_bucket=cls_bucket)
        assert seq and all(seq)
        capacity = max_len - (cls_bucket is not None)
        flat = [] if cls_bucket is None else [cls_bucket]
        for word in normalize(text).split()[:capacity]:
            flat.extend(vocab.bucket(t) for t in word_trigrams(word))
        assert [b for word in seq for b in word] == flat
