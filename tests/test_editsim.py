"""Word-level edit distance and the normalized insert/delete similarity."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paraplag import classify, editsim
from paraplag.editsim import insdel_similarity, max_insdel_similarity, word_edit_distance


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


class TestMaxSimilarity:
    @given(TOKEN_LISTS.filter(bool), st.lists(TOKEN_LISTS, min_size=1, max_size=6))
    def test_pruned_maximum_is_the_unpruned_one(self, sp, candidates):
        expected = max(insdel_similarity(sp, sr) for sr in candidates)
        assert max_insdel_similarity(sp, candidates) == expected

    def test_length_bound_skips_short_sentences(self, monkeypatch):
        calls = []
        distance = editsim.word_edit_distance

        def counted(a, b):
            calls.append((len(a), len(b)))
            return distance(a, b)

        monkeypatch.setattr(editsim, "word_edit_distance", counted)
        long = "Quartz violins echo through copper harbors beneath silent meadows tonight."
        source = long + " Rivers carve. Stones fall. Clouds drift."
        score = next(classify.score_batch([(long, source)]))
        assert score.vector.insdel == 1.0
        # the identical long sentence comes first; no short one can beat 1.0
        assert calls == [(9, 9)]
