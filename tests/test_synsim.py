"""Word-order similarity via position vectors.

The oracle builds the two order vectors explicitly and takes their numpy
`cosine`, one sentence pair at a time.
"""

from __future__ import annotations

import random
from collections import Counter, deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paraplag.resources import cosine
from paraplag.synsim import max_syntactic_similarity, syntactic_similarity
from paraplag.textprep import Token, preprocess_passage


def build_order_vectors(sp_tokens, sr_tokens):
    """(base, other) position vectors for the source sequence against the suspect."""
    positions = {}
    for pos, token in enumerate(sp_tokens, start=1):
        positions.setdefault(token.normalized, deque()).append(pos)
    base = tuple(range(1, len(sr_tokens) + 1))
    other = []
    for token in sr_tokens:
        queue = positions.get(token.normalized)
        other.append(queue.popleft() if queue else 0)
    return base, tuple(other)


def oracle_syntactic_similarity(sp_tokens, sr_tokens):
    base, other = build_order_vectors(sp_tokens, sr_tokens)
    if not base or not any(other):
        return 0.0
    return cosine(base, other)

SOURCE = "Mary is the winner of the tournament, and John is the runner up"
SUSPECT = "the winner of the tournament is John, and the runner up is Mary"


def _tokens(text: str):
    sentences = preprocess_passage(text)
    assert len(sentences) == 1
    return sentences[0].all_tokens


def _toks(words):
    """Tokens whose forms are all the given, already normalized, words."""
    return [Token(i, w, w, w) for i, w in enumerate(words)]


class TestBuildOrderVectors:
    def test_identical(self):
        base, other = build_order_vectors(_toks(["a", "b", "c"]), _toks(["a", "b", "c"]))
        assert base == (1, 2, 3)
        assert other == (1, 2, 3)

    def test_rotation(self):
        _, other = build_order_vectors(_toks(["c", "a", "b"]), _toks(["a", "b", "c"]))
        assert other == (2, 3, 1)

    def test_disjoint(self):
        _, other = build_order_vectors(_toks(["x", "y"]), _toks(["a", "b"]))
        assert other == (0, 0)

    def test_duplicates_pair_left_to_right(self):
        _, other = build_order_vectors(
            _toks(["the", "dog", "the", "cat"]), _toks(["the", "cat", "the", "dog"])
        )
        assert other == (1, 4, 3, 2)

    def test_leftover_duplicate_unmatched(self):
        _, other = build_order_vectors(_toks(["a", "b"]), _toks(["a", "a", "b"]))
        assert other == (1, 0, 2)

    def test_empty(self):
        base, other = build_order_vectors([], [])
        assert base == ()
        assert other == ()

    def test_token_objects_and_strings_agree(self):
        # only the normalized form counts, not the surface, stem or index
        tokens = _tokens("The tall ship sailed north")
        as_strings = [t.normalized for t in tokens]
        assert build_order_vectors(tokens, tokens) == build_order_vectors(
            _toks(as_strings), _toks(as_strings)
        )

    def test_suspect_positions_used_at_most_once(self):
        rng = random.Random(21)
        for _ in range(200):
            sp = _toks([rng.choice("abc") for _ in range(rng.randint(0, 10))])
            sr = _toks([rng.choice("abc") for _ in range(rng.randint(0, 10))])
            _, other = build_order_vectors(sp, sr)
            used = [p for p in other if p != 0]
            assert len(used) == len(set(used))
            assert all(1 <= p <= len(sp) for p in used)


class TestSyntacticSimilarity:
    def test_identical_is_exactly_one(self):
        tokens = _tokens("Ships sail the winter sea")
        assert syntactic_similarity(tokens, tokens) == 1.0

    def test_disjoint_is_zero(self):
        assert syntactic_similarity(_toks(["x", "y"]), _toks(["a", "b"])) == 0.0

    def test_empty_is_zero(self):
        assert syntactic_similarity([], []) == 0.0
        assert syntactic_similarity([], _toks(["a"])) == 0.0

    def test_tournament_sentences(self):
        sp = _tokens(SUSPECT)
        sr = _tokens(SOURCE)
        base, other = build_order_vectors(sp, sr)
        assert base == tuple(range(1, 14))
        assert other == (13, 6, 1, 2, 3, 4, 5, 8, 7, 12, 9, 10, 11)
        assert syntactic_similarity(sp, sr) == pytest.approx(719 / 819, abs=1e-9)
        assert syntactic_similarity(sp, sr) == cosine(base, other)

    def test_reordering_detected_where_bag_of_words_is_blind(self):
        sp = _tokens(SUSPECT)
        sr = _tokens(SOURCE)
        vocab = sorted({t.normalized for t in sp} | {t.normalized for t in sr})
        sp_counts = Counter(t.normalized for t in sp)
        sr_counts = Counter(t.normalized for t in sr)
        bag_cos = cosine(
            [sp_counts[w] for w in vocab], [sr_counts[w] for w in vocab]
        )
        assert bag_cos == 1.0
        assert syntactic_similarity(sp, sr) < 1.0

    def test_nontrivial_permutation_scores_below_one(self):
        rng = random.Random(22)
        for _ in range(200):
            n = rng.randint(2, 12)
            sr = [rng.choice("abcdef") for _ in range(n)]
            sp = sr[:]
            rng.shuffle(sp)
            if sp == sr:
                continue
            score = syntactic_similarity(_toks(sp), _toks(sr))
            assert 0.0 < score < 1.0

    def test_range(self):
        rng = random.Random(23)
        for _ in range(300):
            sp = _toks([rng.choice("abcd") for _ in range(rng.randint(0, 9))])
            sr = _toks([rng.choice("abcd") for _ in range(rng.randint(0, 9))])
            assert 0.0 <= syntactic_similarity(sp, sr) <= 1.0


WORDS = st.lists(st.sampled_from("abcde"), max_size=12)


class TestMaxSyntacticSimilarity:
    @given(WORDS, st.lists(WORDS, min_size=1, max_size=5))
    def test_equals_the_oracle_maximum_bit_for_bit(self, sp, candidates):
        expected = max(oracle_syntactic_similarity(_toks(sp), _toks(sr)) for sr in candidates)
        assert max_syntactic_similarity(_toks(sp), [_toks(sr) for sr in candidates]) == expected
        for sr in candidates:
            assert syntactic_similarity(_toks(sp), _toks(sr)) == oracle_syntactic_similarity(
                _toks(sp), _toks(sr)
            )

    def test_long_sentences_equal_the_oracle(self):
        rng = random.Random(24)
        for _ in range(20):
            sp = _toks([rng.choice("abcdefgh") for _ in range(rng.randint(100, 400))])
            sr = _toks([rng.choice("abcdefgh") for _ in range(rng.randint(100, 400))])
            assert syntactic_similarity(sp, sr) == oracle_syntactic_similarity(sp, sr)

    def test_no_candidates_is_zero(self):
        assert max_syntactic_similarity(_toks(["a"]), []) == 0.0

    def test_stops_after_a_one(self):
        seen = []

        def candidates():
            for words in (["b", "a"], ["a", "b"], ["a", "b", "c"]):
                seen.append(words)
                yield _toks(words)

        assert max_syntactic_similarity(_toks(["a", "b"]), candidates()) == 1.0
        assert seen == [["b", "a"], ["a", "b"]]
