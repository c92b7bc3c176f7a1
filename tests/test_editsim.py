"""Word-level edit distance and the normalized insert/delete similarity."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paraplag import classify, editsim
from paraplag.editsim import insdel_similarity, max_insdel_similarity, word_edit_distance
from paraplag.resources import KnowledgeStores
from paraplag.semsim import PairTables, SemThresholds, Vocabulary
from paraplag.textprep import preprocess_passage


@lru_cache(maxsize=None)
def _oracle(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Exhaustive recursion over the three edit operations."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    sub = _oracle(a[1:], b[1:]) + (a[0] != b[0])
    ins = _oracle(a, b[1:]) + 1
    dele = _oracle(a[1:], b) + 1
    return min(sub, ins, dele)


def _dp_oracle(a: Sequence[str], b: Sequence[str]) -> int:
    """The textbook O(mn) dynamic program, one rolling row."""
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        prev_diag, row[0] = row[0], i
        for j, y in enumerate(b, 1):
            prev_row = row[j]
            row[j] = prev_diag if x == y else 1 + min(prev_diag, prev_row, row[j - 1])
            prev_diag = prev_row
    return row[-1]


def _dp_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    return 1.0 - _dp_oracle(a, b) / max(len(a), len(b))


def _token_lists(alphabet_size: int, min_size: int = 0, max_size: int = 200):
    return st.lists(
        st.integers(0, alphabet_size - 1).map(lambda i: f"w{i}"),
        min_size=min_size, max_size=max_size,
    )


# An alphabet of 1-20 tokens, then lists over it: small alphabets repeat
# tokens heavily, and up to 200 tokens run the masks well past 64 and 128 bits.
TOKEN_PAIRS = st.integers(1, 20).flatmap(
    lambda k: st.tuples(_token_lists(k), _token_lists(k))
)


class TestDistance:
    def test_identical(self):
        assert word_edit_distance(["a", "b", "c"], ["a", "b", "c"]) == 0

    def test_pure_insertions(self):
        assert word_edit_distance([], ["a", "b"]) == 2
        assert word_edit_distance(["a", "b"], []) == 2

    def test_mixed_example(self):
        assert word_edit_distance(["the", "cat", "sat"], ["the", "dog", "sat", "down"]) == 2

    def test_single_replacement(self):
        assert word_edit_distance(["x"], ["y"]) == 1

    def test_bounded_by_longer_list(self):
        rng = random.Random(11)
        for _ in range(300):
            a = [rng.choice("pqr") for _ in range(rng.randint(0, 9))]
            b = [rng.choice("pqr") for _ in range(rng.randint(0, 9))]
            d = word_edit_distance(a, b)
            assert 0 <= d <= max(len(a), len(b))

    def test_symmetry(self):
        rng = random.Random(12)
        for _ in range(300):
            a = [rng.choice("pqrs") for _ in range(rng.randint(0, 8))]
            b = [rng.choice("pqrs") for _ in range(rng.randint(0, 8))]
            assert word_edit_distance(a, b) == word_edit_distance(b, a)

    def test_triangle_inequality(self):
        rng = random.Random(13)
        for _ in range(200):
            a = [rng.choice("pqr") for _ in range(rng.randint(0, 8))]
            b = [rng.choice("pqr") for _ in range(rng.randint(0, 8))]
            c = [rng.choice("pqr") for _ in range(rng.randint(0, 8))]
            assert word_edit_distance(a, c) <= (
                word_edit_distance(a, b) + word_edit_distance(b, c)
            )

    def test_agrees_with_recursive_oracle(self):
        # Every pair whose combined length stays small enough to recurse.
        alphabet = ("x", "y", "z")
        words = [
            tuple(w)
            for n in range(0, 7)
            for w in itertools.product(alphabet, repeat=n)
        ]
        checked = 0
        for a in words:
            for b in words:
                if len(a) + len(b) > 6:
                    continue
                assert word_edit_distance(list(a), list(b)) == _oracle(a, b)
                checked += 1
        assert checked > 5000

    def test_dp_oracle_agrees_with_recursive_oracle(self):
        rng = random.Random(15)
        for _ in range(500):
            a = tuple(rng.choice("xyz") for _ in range(rng.randint(0, 7)))
            b = tuple(rng.choice("xyz") for _ in range(rng.randint(0, 7)))
            assert _dp_oracle(a, b) == _oracle(a, b)

    @given(TOKEN_PAIRS)
    def test_agrees_with_dp_oracle(self, pair):
        a, b = pair
        assert word_edit_distance(a, b) == _dp_oracle(a, b)

    @given(st.integers(130, 200).flatmap(lambda n: _token_lists(20, n, n)), st.data())
    def test_masks_past_128_bits(self, a, data):
        # the last pattern bit lies beyond two 64-bit words
        b = data.draw(_token_lists(20, 0, 200))
        assert word_edit_distance(a, b) == _dp_oracle(a, b)
        assert word_edit_distance(b, a) == _dp_oracle(b, a)

    @given(st.integers(1, 20).flatmap(_token_lists))
    def test_one_or_both_sides_empty(self, a):
        assert word_edit_distance(a, []) == len(a) == _dp_oracle(a, [])
        assert word_edit_distance([], a) == len(a) == _dp_oracle([], a)
        assert word_edit_distance([], []) == 0

    @given(st.integers(1, 20).flatmap(_token_lists))
    def test_equal_strings_that_are_distinct_objects(self, a):
        # each copied token equals its original but is another object
        b = [t[:1] + t[1:] for t in a]
        assert all(x == y and x is not y for x, y in zip(a, b))
        assert word_edit_distance(a, b) == 0
        if a:
            assert insdel_similarity(a, b) == 1.0
            assert _max_insdel(a, [b]) == 1.0


class TestSimilarity:
    def test_identical(self):
        assert insdel_similarity(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint_equal_length(self):
        assert insdel_similarity(["a", "b"], ["c", "d"]) == 0.0

    def test_partial_overlap(self):
        assert insdel_similarity(
            ["the", "cat", "sat"], ["the", "dog", "sat", "down"]
        ) == pytest.approx(0.5)

    def test_both_empty(self):
        assert insdel_similarity([], []) == 1.0

    def test_one_empty(self):
        assert insdel_similarity([], ["a", "b", "c"]) == 0.0

    def test_range_and_symmetry(self):
        rng = random.Random(14)
        for _ in range(300):
            a = [rng.choice("pqrs") for _ in range(rng.randint(0, 10))]
            b = [rng.choice("pqrs") for _ in range(rng.randint(0, 10))]
            s = insdel_similarity(a, b)
            assert 0.0 <= s <= 1.0
            assert s == insdel_similarity(b, a)


TOKEN_LISTS = st.lists(st.sampled_from("abcd"), max_size=12)


def _shared(sp, candidates):
    """Position -> multiset-intersection size, for each candidate sharing a token with sp."""
    return {
        j: c for j, sr in enumerate(candidates)
        if (c := sum((Counter(sp) & Counter(sr)).values()))
    }


def _max_insdel(sp, candidates):
    return max_insdel_similarity(sp, candidates, _shared(sp, candidates))

# inflections share stems, and a sentence of stopwords alone has no content word
SENTENCE = st.lists(
    st.sampled_from(["dog", "dogs", "cat", "cats", "run", "running", "zq", "the", "of"]),
    min_size=1, max_size=8,
)


def _text(sentences):
    return " ".join(" ".join(words).capitalize() + "." for words in sentences)


class TestMaxSimilarity:
    @given(TOKEN_LISTS.filter(bool), st.lists(TOKEN_LISTS, min_size=1, max_size=6))
    def test_pruned_maximum_is_the_unpruned_one(self, sp, candidates):
        expected = max(insdel_similarity(sp, sr) for sr in candidates)
        assert _max_insdel(sp, candidates) == expected

    @given(st.integers(1, 20), st.data())
    def test_maximum_equals_dp_oracle_maximum(self, k, data):
        sp = data.draw(_token_lists(k, 1, 60))
        m = len(sp)
        shorter = data.draw(_token_lists(k, 0, m - 1))
        longer = data.draw(_token_lists(k, m + 1, 2 * m + 1))
        others = data.draw(st.lists(_token_lists(k, 0, 2 * m + 1), max_size=4))
        candidates = data.draw(st.permutations([shorter, longer, *others]))
        expected = max(_dp_similarity(sp, sr) for sr in candidates)
        assert _max_insdel(sp, candidates) == expected

    def test_shared_stem_bound_skips_sentences_that_cannot_win(self, monkeypatch):
        calls = []
        distance = editsim._masked_distance

        def counted(masks, m, sr_tokens):
            calls.append((m, len(sr_tokens)))
            return distance(masks, m, sr_tokens)

        monkeypatch.setattr(editsim, "_masked_distance", counted)
        long = "Quartz violins echo through copper harbors beneath silent meadows tonight."
        source = "Quartz cracks. " + long + " Violins fall. Harbors drift."
        score = next(classify.score_source(source, [long]))
        assert score.vector.insdel == 1.0
        # each short sentence shares one stem with the long one, which bounds it at 1/9;
        # the identical sentence comes first and scores 1.0, so none of them is compared
        assert calls == [(9, 9)]

    def test_a_sentence_sharing_no_stem_runs_no_myers_pass(self, monkeypatch):
        calls = []
        distance = editsim._masked_distance

        def counted(masks, m, sr_tokens):
            calls.append(list(sr_tokens))
            return distance(masks, m, sr_tokens)

        monkeypatch.setattr(editsim, "_masked_distance", counted)
        source = "Rivers carve stone. Clouds drift north. Quartz glitters."
        score = next(classify.score_source(source, ["Violins hum softly."]))
        assert score.vector.insdel == 0.0
        assert calls == []
        # a one-sentence source is no exception
        score = next(classify.score_source("Quartz glitters.", ["Violins hum softly."]))
        assert score.vector.insdel == 0.0
        assert calls == []
        # a second suspect sentence is compared with the one source sentence it shares a stem with
        next(classify.score_source(source, ["Violins hum softly. The clouds hum."]))
        assert calls == [["cloud", "drift", "north"]]

    @given(st.lists(SENTENCE, min_size=1, max_size=6), SENTENCE)
    def test_shared_stems_from_the_postings_prune_exactly(self, source, suspect):
        tables = PairTables(
            preprocess_passage(_text(source)), Vocabulary(KnowledgeStores()), SemThresholds()
        )
        for sp in preprocess_passage(_text([suspect])):
            stems = [t.stem for t in sp.content_tokens]
            if not stems:
                continue
            shared = tables.shared_stems(stems)
            assert shared == _shared(stems, tables.stems)
            expected = max(insdel_similarity(stems, sr) for sr in tables.stems)
            assert max_insdel_similarity(stems, tables.stems, shared) == expected
