"""How a paraphrase operation moves the features, over the fixture lexicon.

Exact channel: with config ``{}`` (no stores), a sentence's match count is
the size of the multiset intersection of the two content-stem lists.

Insertion: inserting k content words whose stems the source lacks moves
the word edit distance by at most k, since the two suspect stem lists are
k insertions apart, and with config ``{}`` keeps the match count, since
the multiset intersection does not change.  Word order is not claimed to
fall: inserting "x" before "b a" against "a b" raises it from 0.80 to 0.87.

Every channel: each suspect word in turn takes its first candidate not
yet taken, so a suspect word left unmatched has every candidate taken.
That makes the greedy cascade a maximal matching of the graph joining
each suspect word to the source words some channel fires for, and a
maximal matching holds at least half as many edges as a maximum one
(Hopcroft-Karp, below, as the oracle).

Substitution: in a pair where each suspect word fires for at most one
source word and no two suspect words fire for the same one, replacing a
matched source word with a lexdb synonym of its suspect word keeps the
match count.

Reordering: a permutation of one sentence's words keeps its exact-channel
semantic score, since with no stores a match is stem equality and the
count is the multiset intersection of the two stem lists; and it lowers
word order below 1.0 whenever the tokens are distinct and the permutation
is not the identity.  There the order vectors are (1..n) and the
permutation itself, so the cosine is sum(i * p(i)) / sum(i * i), which the
rearrangement inequality puts strictly below 1.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter, deque

from hypothesis import assume, given
from hypothesis import strategies as st

from paraplag.classify import passage_features
from paraplag.config import EngineConfig, build_stores, feature_params
from paraplag.editsim import word_edit_distance
from paraplag.semsim import PairTables, Vocabulary, match_sentence, semantic_similarity
from paraplag.synsim import syntactic_similarity
from paraplag.textprep import STOPWORDS, preprocess_passage

from test_semsim_tables import LEXDB, VOCAB, _oracle_expand, cases, stores_and_thresholds

# the fixture lexicon's words, inflections and unknown words, plus stopwords
WORDS = VOCAB + ["the", "of", "and"]
SENTENCE = st.lists(st.sampled_from(WORDS), min_size=1, max_size=10)


def _sentence(words):
    [sentence] = preprocess_passage(" ".join(words) + ".")
    return sentence


def _passage(sentences) -> str:
    return " ".join(" ".join(words) + "." for words in sentences)


@st.composite
def reordered_pairs(draw):
    """(suspect sentences, the same with one sentence's words permuted, source sentences)."""
    suspect = draw(st.lists(SENTENCE, min_size=1, max_size=3))
    which = draw(st.integers(0, len(suspect) - 1))
    permuted = list(suspect)
    permuted[which] = draw(st.permutations(suspect[which]))
    return suspect, permuted, draw(st.lists(SENTENCE, min_size=1, max_size=3))


class TestExactChannel:
    @given(SENTENCE, SENTENCE)
    def test_match_count_is_the_stem_multiset_intersection(self, suspect, source):
        config = EngineConfig.from_dict({})
        sp, sr = _sentence(suspect), _sentence(source)
        matches = match_sentence(sp, sr, build_stores(config), feature_params(config).sem)
        shared = Counter(t.stem for t in sp.content_tokens) & Counter(
            t.stem for t in sr.content_tokens
        )
        assert len(matches) == sum(shared.values())
        assert {m.channel for m in matches} <= {"exact"}


def _stems(sentence):
    return [t.stem for t in sentence.content_tokens]


class TestInsertion:
    @given(SENTENCE, SENTENCE, st.data())
    def test_inserting_words_the_source_lacks(self, suspect, source, data):
        sr = _sentence(source)
        lacking = [
            w for w in VOCAB
            if w not in STOPWORDS and _stems(_sentence([w]))[0] not in _stems(sr)
        ]
        assume(lacking)
        inserted = data.draw(st.lists(st.sampled_from(lacking), min_size=1, max_size=4))
        grown = list(suspect)
        for word in inserted:
            grown.insert(data.draw(st.integers(0, len(grown))), word)
        sp, sp_grown = _sentence(suspect), _sentence(grown)
        assert len(_stems(sp_grown)) == len(_stems(sp)) + len(inserted)
        before = word_edit_distance(_stems(sp), _stems(sr))
        after = word_edit_distance(_stems(sp_grown), _stems(sr))
        assert abs(after - before) <= len(inserted)

        config = EngineConfig.from_dict({})
        stores, sem = build_stores(config), feature_params(config).sem
        assert len(match_sentence(sp_grown, sr, stores, sem)) == len(
            match_sentence(sp, sr, stores, sem)
        )


def hopcroft_karp(adjacency: list[list[int]]) -> int:
    """Size of a maximum matching; adjacency[u] lists left vertex u's right neighbours.

    Hopcroft and Karp (1973): each phase layers the graph by a breadth-first
    search from the free left vertices, then augments along vertex-disjoint
    layered paths by depth-first search, until no augmenting path is left.
    """
    match_left: list[int | None] = [None] * len(adjacency)
    match_right: dict[int, int] = {}
    while True:
        layer = {u: 0 for u, v in enumerate(match_left) if v is None}
        queue = deque(layer)
        free_reached = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right.get(v)
                if w is None:
                    free_reached = True
                elif w not in layer:
                    layer[w] = layer[u] + 1
                    queue.append(w)
        if not free_reached:
            return len(match_right)

        def augment(u):
            for v in adjacency[u]:
                w = match_right.get(v)
                if w is None or (layer.get(w) == layer[u] + 1 and augment(w)):
                    match_left[u], match_right[v] = v, u
                    return True
            layer[u] = None  # a dead end for the rest of the phase
            return False

        for u, v in enumerate(match_left):
            if v is None:
                augment(u)


def _brute_force_maximum(adjacency):
    """Largest set of edges, one right vertex per left vertex, no right vertex twice."""
    best = 0
    for choice in itertools.product(*[[None, *vs] for vs in adjacency]):
        taken = [v for v in choice if v is not None]
        if len(taken) == len(set(taken)):
            best = max(best, len(taken))
    return best


def _fires_for(tables, sp, pos):
    """Per suspect content word, the token indices some channel fires for in source sentence `pos`."""
    return [
        [index for index, _, _ in tables.candidates(query).get(pos, ())]
        for query in sp.content_tokens
    ]


class TestEveryChannel:
    @given(st.lists(st.lists(st.integers(0, 5), max_size=4, unique=True), max_size=6))
    def test_hopcroft_karp_agrees_with_brute_force(self, adjacency):
        assert hopcroft_karp(adjacency) == _brute_force_maximum(adjacency)

    @given(cases())
    def test_greedy_cascade_is_a_maximal_matching(self, case):
        stores, th, sp, sources = case
        tables = PairTables(sources, Vocabulary(stores), th)
        for pos, sr in enumerate(sources):
            fires = _fires_for(tables, sp, pos)
            matches = match_sentence(sp, sr, stores, th)
            taken = {m.source_index for m in matches}
            matched = {m.query_index for m in matches}
            for query, hits in zip(sp.content_tokens, fires):
                if query.index not in matched:
                    assert set(hits) <= taken
            maximum = hopcroft_karp(fires)
            assert len(matches) <= maximum <= 2 * len(matches)


@st.composite
def substitution_cases(draw):
    """Stores holding the fixture lexdb, thresholds, and suspect and source words."""
    stores, th = draw(stores_and_thresholds())
    words = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4)
    return dataclasses.replace(stores, lexdb=LEXDB), th, draw(words), draw(words)


class TestSubstitution:
    @given(substitution_cases(), st.data())
    def test_a_synonym_in_place_of_a_matched_source_word_keeps_the_match_count(
        self, case, data
    ):
        stores, th, suspect, source = case
        sp, sr = _sentence(suspect), _sentence(source)
        tables = PairTables([sr], Vocabulary(stores), th)
        fires = _fires_for(tables, sp, 0)
        targets = [index for hits in fires for index in hits]
        assume(all(len(hits) <= 1 for hits in fires) and len(set(targets)) == len(targets))
        matches = match_sentence(sp, sr, stores, th)
        queries = {query.index: query for query in sp.content_tokens}
        substitutions = [
            (m.source_index, synonym)
            for m in matches
            for synonym in sorted(_oracle_expand(LEXDB, queries[m.query_index]))
            if "_" not in synonym and synonym not in STOPWORDS
        ]
        assume(substitutions)
        index, synonym = data.draw(st.sampled_from(substitutions))
        replaced = [tok.surface for tok in sr.all_tokens]
        replaced[index] = synonym
        assert len(match_sentence(sp, _sentence(replaced), stores, th)) == len(matches)


class TestReordering:
    @given(SENTENCE, SENTENCE, st.data())
    def test_exact_channel_sentence_score_ignores_word_order(self, suspect, source, data):
        sp = _sentence(suspect)
        assume(sp.content_tokens)
        permuted = _sentence(data.draw(st.permutations(suspect)))
        sr = _sentence(source)
        assert semantic_similarity(permuted, sr) == semantic_similarity(sp, sr)

    @given(reordered_pairs())
    def test_exact_channel_passage_score_ignores_word_order(self, case):
        suspect, permuted, source = case
        expected = passage_features(_passage(suspect), _passage(source)).semantic
        assert passage_features(_passage(permuted), _passage(source)).semantic == expected

    @given(st.lists(st.sampled_from(WORDS), min_size=2, max_size=12, unique=True), st.data())
    def test_any_other_order_of_distinct_tokens_scores_below_one(self, words, data):
        permuted = data.draw(st.permutations(words))
        assume(permuted != words)
        original = _sentence(words).all_tokens
        assert syntactic_similarity(original, original) == 1.0
        assert syntactic_similarity(_sentence(permuted).all_tokens, original) < 1.0
        assert passage_features(_passage([permuted]), _passage([words])).syntactic < 1.0
