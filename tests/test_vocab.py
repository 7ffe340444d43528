"""Vocabulary construction and model tokenization."""

import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import padded_ids, padded_matrix
from staletodo.model.vocab import (
    CLS_TOKEN,
    PAD_INDEX,
    PAD_TOKEN,
    UNK_INDEX,
    UNK_TOKEN,
    EmptyCorpus,
    build_vocab,
    encode_corpus,
    make_vocab,
    tokenize_for_model,
)

WORDS = ["queue", "flush", "retry", "socket", "alpha", "omega", "delta", "pivot"]
_WORDS_AND_NON_ASCII = WORDS + ["café", "naïve", "修复这个问题", "überprüfen", "<commit_id>", "+"]
# Texts of up to 12 words, known or not, ASCII or not.
_MIXED_TEXT = st.lists(
    st.one_of(st.sampled_from(_WORDS_AND_NON_ASCII + ["später", "_", "."]), st.text(max_size=3)),
    max_size=12,
).map(" ".join)


class TestTokenizer:
    def test_placeholders_stay_atomic(self):
        tokens = tokenize_for_model("revert <commit_id> for <issue_id>")
        assert tokens == ["revert", "<commit_id>", "for", "<issue_id>"]

    def test_markers_kept_identifiers_split(self):
        tokens = tokenize_for_model("+queue.flush()\n-old_value = 3")
        assert tokens == ["+", "queue", "flush", "-", "old", "value", "3"]

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["<commit_id>", "<ISSUE_ID>", "<issue_id", "_", "+-", "Foo_bar9"]),
                st.text(st.characters(max_codepoint=127), max_size=4),
            ),
            max_size=8,
        ).map("".join)
    )
    def test_ascii_tokens_match_the_ascii_pattern(self, text):
        ascii_tokens = re.findall(r"<commit_id>|<issue_id>|[a-z0-9]+|[+-]", text.lower())
        assert tokenize_for_model(text) == ascii_tokens

    def test_non_ascii_words_are_tokens(self):
        assert tokenize_for_model("# TODO: 修复这个问题") == ["todo", "修复这个问题"]
        assert tokenize_for_model("Überprüfen später_2") == ["überprüfen", "später", "2"]
        assert tokenize_for_model("+café = naïve") == ["+", "café", "naïve"]


class TestBuildVocab:
    def test_min_freq_filters_rare_tokens(self):
        vocab = build_vocab(["a a b"], min_freq=2)
        assert "a" in vocab.index
        assert "b" not in vocab.index

    def test_specials_first_and_dense(self):
        vocab = build_vocab(["x x y y"], min_freq=2)
        assert vocab.tokens[:3] == (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN)
        assert [vocab.index[t] for t in vocab.tokens] == list(range(len(vocab)))
        assert vocab.index[PAD_TOKEN] == PAD_INDEX

    def test_same_corpus_identical_vocab(self):
        corpus = ["flush the queue", "queue again", "flush twice"]
        assert build_vocab(corpus).tokens == build_vocab(corpus).tokens

    def test_order_follows_first_occurrence(self):
        vocab = build_vocab(["b b a a"], min_freq=2)
        assert vocab.tokens[3:] == ("b", "a")

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([])

    def test_coverage_matches_counting_oracle(self):
        rng = random.Random(19)
        docs = [
            " ".join(rng.choice(WORDS) + str(rng.randint(0, 5000)) for _ in range(rng.randint(1, 12)))
            for _ in range(1000)
        ]
        min_freq = 3
        vocab = build_vocab(docs, min_freq=min_freq)

        all_tokens = [t for doc in docs for t in tokenize_for_model(doc)]
        frequency = Counter(all_tokens)
        oracle_covered = sum(1 for t in all_tokens if frequency[t] >= min_freq)

        covered = sum(
            1
            for doc in docs
            for token_id in (vocab.index.get(t, UNK_INDEX) for t in tokenize_for_model(doc))
            if token_id != UNK_INDEX
        )
        assert covered == oracle_covered
        assert 0 < covered < len(all_tokens)  # some tokens must fall to UNK


class TestEncode:
    def test_pad_and_truncate(self):
        vocab = build_vocab(["a a b b c c"], min_freq=2)
        ids = vocab.encode(["a b", "a b c c"], max_len=4)[0].tolist()
        assert len(ids) == 4
        assert ids[2:] == [PAD_INDEX, PAD_INDEX]
        long = vocab.encode(["a " * 10], max_len=4)[0].tolist()
        assert len(long) == 4
        assert all(i == vocab.index["a"] for i in long)

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab(["a a"], min_freq=2)
        assert vocab.encode(["zzz"], max_len=2)[0][0] == UNK_INDEX

    def test_encode_applies_tokenizer(self):
        vocab = build_vocab(["queue.flush() queue.flush()"], min_freq=2)
        ids = padded_ids(vocab, "queue.flush()", max_len=3)
        assert ids == [vocab.index["queue"], vocab.index["flush"], PAD_INDEX]
        assert vocab.encode(["queue.flush()"], max_len=3).tolist() == [ids[:2]]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(_WORDS_AND_NON_ASCII), unique=True),
        st.lists(
            st.one_of(st.just(""), st.text(max_size=4), _MIXED_TEXT), min_size=1, max_size=8
        ),
        st.integers(1, 8),
    )
    @example([], ["", ""], 3)  # every text is empty
    @example(["queue"], ["queue " * 20, "", "zzz"], 4)  # longer than max_len
    @example(["café", "修复这个问题"], ["café 修复这个问题 naïve", "überprüfen"], 2)
    def test_same_as_the_per_text_rule(self, words, texts, max_len):
        vocab = make_vocab(words)
        ids = vocab.encode(texts, max_len)
        assert ids.dtype == np.int64
        assert np.array_equal(ids, padded_matrix(vocab, texts, max_len))


def counting_vocab(corpus, min_freq):
    """Reference builder: count every token in a dict, keep the frequent
    ones in first-occurrence order."""
    counts = {}
    for text in corpus:
        for token in tokenize_for_model(text):
            counts[token] = counts.get(token, 0) + 1
    specials = [PAD_TOKEN, UNK_TOKEN, CLS_TOKEN]
    kept = [t for t, c in counts.items() if c >= min_freq and t not in specials]
    return make_vocab(specials + kept)


_PIECES = st.sampled_from(WORDS + ["<commit_id>", "+", "-", "é", "_", " ", "."])
_TEXTS = st.lists(
    st.lists(st.one_of(_PIECES, st.text(max_size=3)), max_size=12).map(" ".join),
    min_size=1,
    max_size=8,
)


class TestEncodeCorpus:
    @settings(max_examples=300, deadline=None)
    @given(_TEXTS, st.integers(1, 3), st.integers(1, 8))
    @example(["...", "-"], 2, 3)
    @example(["queue queue flush", "", "flush queue retry retry retry"], 2, 2)
    def test_same_as_counting_then_encoding_each_text(self, corpus, min_freq, max_len):
        vocab, ids = encode_corpus(corpus, max_len, min_freq)
        reference = counting_vocab(corpus, min_freq)
        assert vocab.tokens == reference.tokens
        assert ids.dtype == np.int64
        assert np.array_equal(ids, padded_matrix(reference, corpus, max_len))
        assert np.array_equal(ids, vocab.encode(corpus, max_len))
