import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinenc.text import TokenSequence, TrigramVocab, encode_text, encodable, normalize, word_trigrams

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
        vocab = TrigramVocab(bucket_count=100)
        assert vocab.cls_bucket == 100

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            TrigramVocab(bucket_count=0)


class TestEncodeText:
    def setup_method(self):
        self.vocab = TrigramVocab(bucket_count=512, hash_seed=0)

    def test_single_word_not_padded(self):
        seq = encode_text("cat", self.vocab, max_len=8)
        assert seq.length == 1
        assert seq.word_offsets == (0,)
        assert seq.bucket_ids == self.vocab.word_buckets("cat")
        assert len(seq.bucket_ids) == 3

    def test_truncation_keeps_the_first_words(self):
        seq = encode_text("a b c d", self.vocab, max_len=2)
        assert seq.length == 2
        assert seq.bucket_ids == self.vocab.word_buckets("a") + self.vocab.word_buckets("b")

    def test_identical_words_identical_multisets(self):
        seq = encode_text("cat cat", self.vocab, max_len=4)
        assert seq.word_offsets == (0, 3)
        assert seq.bucket_ids[:3] == seq.bucket_ids[3:]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            encode_text("?!", self.vocab, max_len=4)

    def test_cls_prefix_shrinks_capacity(self):
        seq = encode_text("a b c d", self.vocab, max_len=4, prepend_bucket=self.vocab.cls_bucket)
        assert seq.bucket_ids[0] == self.vocab.cls_bucket
        assert seq.word_offsets[:2] == (0, 1)
        assert seq.length == 4  # cls + 3 words
        assert seq.bucket_ids[1:] == sum(map(self.vocab.word_buckets, "abc"), ())

    @given(st.lists(words, min_size=1, max_size=6))
    def test_deterministic(self, word_list):
        text = " ".join(word_list)
        a = encode_text(text, self.vocab, max_len=8)
        b = encode_text(text, self.vocab, max_len=8)
        assert a == b

    def test_offsets_split_word_buckets(self):
        seq = encode_text("red shoes", self.vocab, max_len=5)
        red = self.vocab.word_buckets("red")
        assert seq.word_offsets == (0, len(red))
        assert seq.bucket_ids == red + self.vocab.word_buckets("shoes")


class TestTokenSequence:
    def test_length_mismatch_rejected(self):
        for bucket_ids, word_offsets in (
            ((1,), (0, 1)),  # last word empty
            ((1, 2), (1,)),  # first word does not start at 0
            ((1, 2), (0, 0)),  # offsets not increasing
            ((1,), ()),  # buckets outside any word
        ):
            with pytest.raises(ValueError):
                TokenSequence(bucket_ids=bucket_ids, word_offsets=word_offsets)
