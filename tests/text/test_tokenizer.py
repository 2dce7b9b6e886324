"""Tests for the WordPiece tokenizer, including property-based checks."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import build_tokenizer_for_tables
from repro.corpus import open_stream
from repro.text import Vocab, WordPieceTokenizer, train_tokenizer

from tests.text.bpe_reference import reference_train_tokenizer

CORPUS = [
    "the population of france is 67.75 million",
    "the population of australia is 25.69 million",
    "country capital population",
    "playing played player plays",
    "tables are relational data structures",
    "the capital of france is paris",
]


@pytest.fixture(scope="module")
def tokenizer():
    return train_tokenizer(CORPUS, vocab_size=400)


class TestTraining:
    def test_vocab_within_budget(self, tokenizer):
        assert len(tokenizer.vocab) <= 400

    def test_frequent_words_become_single_tokens(self, tokenizer):
        assert tokenizer.tokenize("population") == ["population"]
        assert tokenizer.tokenize("the") == ["the"]

    def test_shared_stems_reused(self, tokenizer):
        pieces = tokenizer.tokenize("player")
        assert len(pieces) >= 1
        joined = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert joined == "player"

    def test_min_pair_frequency_limits_merges(self):
        tiny = train_tokenizer(["ab"], vocab_size=1000, min_pair_frequency=2)
        # 'ab' occurs once, so no merge happens: it splits into characters.
        assert tiny.tokenize("ab") == ["a", "##b"]


def _tokens(tokenizer):
    vocab = tokenizer.vocab
    return [vocab.token(i) for i in range(len(vocab))]


#: Words that stress the incremental pair counts: overlapping occurrences
#: of one pair (``aaaa``), decimals the word splitter keeps whole, and
#: fragments whose merges meet from either side (``ab`` + ``c`` against
#: ``a`` + ``bc``).
_TRICKY_WORDS = ["aaaa", "aaa", "aa", "67.75", "25.69", "ab", "bc", "abc",
                 "xbc", "abx", "abcabc", "bcbc"]


@st.composite
def _corpora(draw):
    # Tiny alphabets make many pairs tie for the highest count.
    alphabet = draw(st.sampled_from(["ab", "abc", "ab.7", "abcxyz"]))
    word = (st.text(alphabet=alphabet, min_size=1, max_size=8)
            | st.sampled_from(_TRICKY_WORDS))
    line = st.lists(word, min_size=1, max_size=6).map(" ".join)
    return draw(st.lists(line, min_size=1, max_size=6))


class TestIncrementalTraining:
    """``train_tokenizer`` keeps pair counts incrementally; it must learn
    exactly the vocabulary the full-recount reference learns."""

    @given(texts=_corpora(), vocab_size=st.integers(10, 80),
           min_pair_frequency=st.integers(1, 3))
    @example(texts=CORPUS, vocab_size=400, min_pair_frequency=2)
    @example(texts=["aaaa aaaa aaa aa a"], vocab_size=30, min_pair_frequency=1)
    @example(texts=["xbc xbc xbc abc abc ab ab"], vocab_size=30,
             min_pair_frequency=1)
    @settings(max_examples=200, deadline=None)
    def test_matches_full_recount(self, texts, vocab_size,
                                  min_pair_frequency):
        trained = train_tokenizer(texts, vocab_size=vocab_size,
                                  min_pair_frequency=min_pair_frequency)
        reference = reference_train_tokenizer(
            texts, vocab_size=vocab_size,
            min_pair_frequency=min_pair_frequency)
        assert _tokens(trained) == _tokens(reference)

    #: sha256 of the newline-joined tokens, in id order, that
    #: ``build_tokenizer_for_tables`` learns on ``open_stream(kind,
    #: size=n, seed=0)``.  Token ids feed every checkpoint and golden.
    PINNED = {
        "wiki-256-v1000": ("wiki", 256, 1000, 1000, "b0a7c0a55273a91ef0e4"
                           "0048a898666595db56ff472d9abc57696cf3385f2147"),
        "git-64-v1000": ("git", 64, 1000, 611, "1404d719f03e75ef464db44c6e"
                         "a6683b705aee5548d1652d902028d35c5a7088"),
        "wiki-12-v600": ("wiki", 12, 600, 484, "61990b0b31ec2674dab1b36080"
                         "2f13e5f0664b44a85b7da1b8908a39e982ddbf"),
    }

    @pytest.mark.parametrize("case", PINNED.values(), ids=PINNED)
    def test_pinned_vocabulary(self, case):
        kind, size, vocab_size, length, digest = case
        tables = open_stream(kind, size=size, seed=0).materialize()
        tokens = _tokens(build_tokenizer_for_tables(tables,
                                                    vocab_size=vocab_size))
        assert len(tokens) == length
        assert hashlib.sha256("\n".join(tokens).encode()).hexdigest() == digest


class TestEncoding:
    def test_continuation_pieces_marked(self, tokenizer):
        for piece in tokenizer.tokenize("populations")[1:]:
            assert piece.startswith("##")

    def test_unknown_characters_become_unk(self, tokenizer):
        assert tokenizer.vocab.unk_token in tokenizer.tokenize("日本")

    def test_overlong_word_is_unk(self):
        tok = WordPieceTokenizer(Vocab(["a"]), max_word_chars=5)
        assert tok.tokenize_word("a" * 6) == ["[UNK]"]

    def test_encode_decode_roundtrip(self, tokenizer):
        text = "the population of france"
        assert tokenizer.decode(tokenizer.encode(text)) == text

    def test_decode_skips_specials(self, tokenizer):
        ids = [tokenizer.vocab.cls_id] + tokenizer.encode("paris") + [tokenizer.vocab.sep_id]
        assert tokenizer.decode(ids) == "paris"

    def test_numbers_tokenized(self, tokenizer):
        pieces = tokenizer.tokenize("67.75")
        assert pieces  # never empty
        rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert rebuilt == "67.75"


class TestPersistence:
    def test_save_load_identical_encoding(self, tokenizer, tmp_path):
        path = tokenizer.save(tmp_path / "tok.json")
        loaded = WordPieceTokenizer.load(path)
        text = "population of australia is 25.69"
        assert loaded.encode(text) == tokenizer.encode(text)


class TestProperties:
    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_ascii_words_never_unk(self, tokenizer, word):
        # Training corpus covers all lowercase ascii letters used here?
        # Not necessarily — but pieces must always rebuild the word or be UNK.
        pieces = tokenizer.tokenize_word(word)
        if tokenizer.vocab.unk_token not in pieces:
            rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
            assert rebuilt == word

    @given(st.lists(st.sampled_from(CORPUS), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_corpus_sentences_roundtrip(self, tokenizer, sentences):
        text = " ".join(sentences)
        assert tokenizer.decode(tokenizer.encode(text)) == text

    @given(st.text(max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_tokenize_never_crashes(self, tokenizer, text):
        pieces = tokenizer.tokenize(text)
        assert isinstance(pieces, list)
