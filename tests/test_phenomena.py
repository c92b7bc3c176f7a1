"""How a paraphrase operation moves the features, over the fixture lexicon.

Exact channel: with config ``{}`` (no stores), a sentence's match count is
the size of the multiset intersection of the two content-stem lists.

Insertion: inserting k content words whose stems the source lacks moves
the word edit distance by at most k, since the two suspect stem lists are
k insertions apart, and with config ``{}`` keeps the match count, since
the multiset intersection does not change.  Word order is not claimed to
fall: inserting "x" before "b a" against "a b" raises it from 0.80 to 0.87.

Reordering: a permutation of one sentence's words keeps its exact-channel
semantic score, since with no stores a match is stem equality and the
count is the multiset intersection of the two stem lists; and it lowers
word order below 1.0 whenever the tokens are distinct and the permutation
is not the identity.  There the order vectors are (1..n) and the
permutation itself, so the cosine is sum(i * p(i)) / sum(i * i), which the
rearrangement inequality puts strictly below 1.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import assume, given
from hypothesis import strategies as st

from paraplag.classify import passage_features
from paraplag.config import EngineConfig, build_stores, feature_params
from paraplag.editsim import word_edit_distance
from paraplag.semsim import match_sentence, semantic_similarity
from paraplag.synsim import syntactic_similarity
from paraplag.textprep import STOPWORDS, preprocess_passage

from test_semsim_tables import VOCAB

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
