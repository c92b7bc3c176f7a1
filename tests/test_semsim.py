"""Semantic matching cascade and sentence-level containment score."""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from paraplag.classify import passage_features, score_source
from paraplag.resources import EmbeddingStore, ICTable, KnowledgeStores, load_lexdb
from paraplag.semsim import (
    CHANNELS,
    EmptySentence,
    PairTables,
    SemThresholds,
    Vocabulary,
    WordMatch,
    match_sentence,
    semantic_similarity,
)
from paraplag.textprep import preprocess_passage

from embedding_oracle import embedding_store

FIXTURES = Path(__file__).parent / "fixtures"

ENTITY = (1740, "n")
ANIMAL = (15388, "n")
VEHICLE = (4524313, "n")


def sentence(text: str):
    parsed = preprocess_passage(text)
    assert len(parsed) == 1
    return parsed[0]


def tables(sr, stores=KnowledgeStores(), thresholds=SemThresholds()) -> PairTables:
    """The word tables over the source sentence's content words."""
    return PairTables([sr], Vocabulary(stores), thresholds)


def first_candidate(query, tables: PairTables) -> WordMatch | None:
    """The cascade's match for `query` in the table's one sentence, none of it consumed, or None."""
    candidates = tables.candidates(query).get(0)
    return None if candidates is None else WordMatch(query.index, *candidates[0])


def content(sent, word: str):
    return next(t for t in sent.content_tokens if t.normalized == word)


def embeddings(**vectors: tuple) -> EmbeddingStore:
    dim = len(next(iter(vectors.values())))
    return embedding_store(
        {w: np.asarray(v, dtype=np.float32) for w, v in vectors.items()}, dim
    )


@pytest.fixture(scope="module")
def lexdb():
    return load_lexdb(FIXTURES / "lexdb")


class TestThresholds:
    def test_defaults(self):
        th = SemThresholds()
        assert th.embed_min == 0.6
        assert th.resnik_min == 3.0

    @pytest.mark.parametrize("embed_min", [-0.1, 1.2, float("nan")])
    def test_embed_min_validated(self, embed_min):
        with pytest.raises(ValueError):
            SemThresholds(embed_min=embed_min)

    @pytest.mark.parametrize("resnik_min", [-1.0, float("inf")])
    def test_resnik_min_validated(self, resnik_min):
        with pytest.raises(ValueError):
            SemThresholds(resnik_min=resnik_min)


class TestFirstCandidate:
    def test_exact_normalized(self):
        sp = sentence("A cat slept.")
        sr = sentence("The cat ran.")
        found = first_candidate(sp.content_tokens[0], tables(sr))
        assert found is not None
        assert found.channel == "exact"
        assert found.score == 1.0

    def test_exact_by_stem(self):
        sp = sentence("Cats sleep.")
        sr = sentence("The cat slept.")
        found = first_candidate(sp.content_tokens[0], tables(sr))
        assert found is not None and found.channel == "exact"

    def test_exact_beats_synonym(self, lexdb):
        stores = KnowledgeStores(lexdb=lexdb)
        sp = sentence("One car passed.")
        sr = sentence("An automobile and a car passed.")
        found = first_candidate(content(sp, "car"), tables(sr, stores))
        assert found is not None and found.channel == "exact"
        # the consumed token is the literal "car", not the synonym
        matched = [t for t in sr.content_tokens if t.index == found.source_index]
        assert matched[0].normalized == "car"

    def test_synonym_channel(self, lexdb):
        stores = KnowledgeStores(lexdb=lexdb)
        sp = sentence("One car passed.")
        sr = sentence("An automobile passed.")
        found = first_candidate(content(sp, "car"), tables(sr, stores))
        assert found is not None
        assert found.channel == "synonym"
        assert found.score == 1.0

    def test_synonym_matches_by_source_stem(self, lexdb):
        stores = KnowledgeStores(lexdb=lexdb)
        sp = sentence("One car passed.")
        sr = sentence("Two automobiles passed.")
        found = first_candidate(content(sp, "car"), tables(sr, stores))
        assert found is not None and found.channel == "synonym"

    def test_expansion_falls_back_to_query_stem(self, lexdb):
        # "cars" is not a headword; its stem "car" is
        stores = KnowledgeStores(lexdb=lexdb)
        sp = sentence("Two cars passed.")
        sr = sentence("An auto passed.")
        found = first_candidate(content(sp, "cars"), tables(sr, stores))
        assert found is not None and found.channel == "synonym"

    def test_embedding_without_synonyms_uses_query_vector(self):
        emb = embeddings(happy=(1.0, 0.0), glad=(0.8, 0.6))
        stores = KnowledgeStores(embeddings=emb)
        sp = sentence("A happy crowd.")
        sr = sentence("A glad crowd cheered.")
        found = first_candidate(sp.content_tokens[0], tables(sr, stores))
        assert found is not None
        assert found.channel == "embedding"
        assert found.score == pytest.approx(0.8, abs=1e-6)

    def test_embedding_threshold_respected(self):
        emb = embeddings(happy=(1.0, 0.0), glad=(0.8, 0.6))
        stores = KnowledgeStores(embeddings=emb)
        sp = sentence("A happy crowd.")
        sr = sentence("A glad crowd cheered.")
        found = first_candidate(
            sp.content_tokens[0], tables(sr, stores, SemThresholds(embed_min=0.9))
        )
        assert found is None

    def test_embedding_compares_synonym_vectors(self, lexdb):
        # cos(machine, engine) is high while cos(car, engine) is low, so a
        # hit proves the expanded synonyms were embedded, not the raw query.
        emb = embeddings(
            car=(0.0, 1.0),
            machine=(1.0, 0.0),
            engine=(0.95, 0.31224989991991997),
        )
        stores = KnowledgeStores(lexdb=lexdb, embeddings=emb)
        sp = sentence("One car passed.")
        sr = sentence("The engine roared.")
        found = first_candidate(content(sp, "car"), tables(sr, stores))
        assert found is not None
        assert found.channel == "embedding"
        assert found.score == pytest.approx(0.95, abs=1e-6)

    def test_embedding_picks_maximum(self):
        emb = embeddings(
            happy=(1.0, 0.0),
            alpha=(0.8, 0.6),
            beta=(0.9, 0.4358898943540674),
        )
        stores = KnowledgeStores(embeddings=emb)
        sp = sentence("A happy crowd.")
        sr = sentence("Some alpha and beta here.")
        found = first_candidate(sp.content_tokens[0], tables(sr, stores))
        assert found is not None
        source = {t.index: t.normalized for t in sr.content_tokens}
        assert source[found.source_index] == "beta"
        assert found.score == pytest.approx(0.9, abs=1e-6)

    def test_embedding_tie_takes_earliest(self):
        emb = embeddings(
            happy=(1.0, 0.0), gamma=(0.8, 0.6), delta=(0.8, -0.6)
        )
        stores = KnowledgeStores(embeddings=emb)
        sp = sentence("A happy crowd.")
        sr = sentence("Some gamma and delta here.")
        found = first_candidate(sp.content_tokens[0], tables(sr, stores))
        assert found is not None
        source = {t.index: t.normalized for t in sr.content_tokens}
        assert source[found.source_index] == "gamma"

    def test_resnik_channel(self, lexdb):
        table = ICTable({ANIMAL: 3.5, ENTITY: 0.0})
        stores = KnowledgeStores(lexdb=lexdb, ic=table)
        sp = sentence("A cat slept.")
        sr = sentence("The dog barked.")
        found = first_candidate(sp.content_tokens[0], tables(sr, stores))
        assert found is not None
        assert found.channel == "resnik"
        assert found.score == pytest.approx(3.5)

    @pytest.mark.parametrize("resnik_min, matches", [(3.5, True), (4.0, False)])
    def test_resnik_threshold_respected(self, lexdb, resnik_min, matches):
        # the shared subsumer's IC is 3.5: a threshold equal to it matches
        table = ICTable({ANIMAL: 3.5, ENTITY: 0.0})
        stores = KnowledgeStores(lexdb=lexdb, ic=table)
        sp = sentence("A cat slept.")
        sr = sentence("The dog barked.")
        found = first_candidate(
            sp.content_tokens[0],
            tables(sr, stores, SemThresholds(resnik_min=resnik_min)),
        )
        if matches:
            assert found is not None and found.channel == "resnik"
            assert found.score == 3.5
        else:
            assert found is None

    def test_resnik_picks_maximum(self, lexdb):
        table = ICTable({ANIMAL: 3.5, VEHICLE: 5.0, ENTITY: 0.0})
        stores = KnowledgeStores(lexdb=lexdb, ic=table)
        sp = sentence("A cat slept.")
        sr = sentence("The dog chased the car.")
        found = first_candidate(sp.content_tokens[0], tables(sr, stores))
        assert found is not None
        source = {t.index: t.normalized for t in sr.content_tokens}
        assert source[found.source_index] == "car"
        assert found.score == pytest.approx(5.0)

    def test_oov_everywhere_is_none(self, lexdb):
        stores = KnowledgeStores(lexdb=lexdb)
        sp = sentence("The zzqx hummed.")
        sr = sentence("A dog barked.")
        assert first_candidate(sp.content_tokens[0], tables(sr, stores)) is None

    def test_no_stores_leaves_only_exact(self):
        sp = sentence("One car passed.")
        sr = sentence("An automobile passed.")
        assert first_candidate(content(sp, "car"), tables(sr)) is None

    def test_candidates_follow_the_cascade_order(self, lexdb):
        # the earliest channel first; ties in the order of the source
        stores = KnowledgeStores(lexdb=lexdb)
        sp = sentence("One car passed.")
        sr = sentence("A dog, an auto, the car and an automobile met a car.")
        assert [t.normalized for t in sr.all_tokens].index("auto") == 3
        assert tables(sr, stores).candidates(content(sp, "car")) == {
            0: [(5, "exact", 1.0), (11, "exact", 1.0), (3, "synonym", 1.0), (8, "synonym", 1.0)]
        }

    def test_candidates_are_grouped_by_sentence_position(self):
        sr_sentences = preprocess_passage("Cats hid. A dog ran. The cat slept.")
        [sp] = preprocess_passage("Cats sleep.")
        found = PairTables(sr_sentences, Vocabulary(KnowledgeStores()), SemThresholds())
        assert found.candidates(sp.content_tokens[0]) == {
            0: [(0, "exact", 1.0)], 2: [(1, "exact", 1.0)]
        }


class TestMatchSentence:
    def test_each_source_word_consumed_once(self):
        sp = sentence("A cat and a cat.")
        sr = sentence("The cat ran.")
        matches = match_sentence(sp, sr)
        assert len(matches) == 1

    def test_consumption_frees_cascade_for_later_queries(self, lexdb):
        # first query eats the literal "car"; second falls through to its synonym
        stores = KnowledgeStores(lexdb=lexdb)
        sp = sentence("A car and a car.")
        sr = sentence("One car and one automobile.")
        matches = match_sentence(sp, sr, stores)
        assert [m.channel for m in matches] == ["exact", "synonym"]

    def test_trace_is_json_ready(self, lexdb):
        stores = KnowledgeStores(lexdb=lexdb)
        sp = sentence("A car and a cat.")
        sr = sentence("The automobile hit a cat.")
        trace = [dataclasses.asdict(m) for m in match_sentence(sp, sr, stores)]
        round_tripped = json.loads(json.dumps(trace))
        assert [entry["channel"] for entry in round_tripped] == ["synonym", "exact"]


class TestSemanticSimilarity:
    def test_identical_sentences(self):
        sp = sentence("Ships sailed the winter sea.")
        assert semantic_similarity(sp, sp) == 1.0

    def test_synonym_pair_fully_matched(self, lexdb):
        stores = KnowledgeStores(lexdb=lexdb)
        sp = sentence("The red car.")
        sr = sentence("The red automobile.")
        assert semantic_similarity(sp, sr, stores) == 1.0

    def test_no_channel_fires(self):
        sp = sentence("Alpha beta.")
        sr = sentence("It was 7 or 9.")
        assert semantic_similarity(sp, sr) == 0.0

    def test_partial(self):
        sp = sentence("Cats sleep.")
        sr = sentence("The cat slept.")
        assert semantic_similarity(sp, sr) == pytest.approx(0.5)

    def test_empty_suspect_rejected(self):
        sp = sentence("The of and.")
        sr = sentence("A dog barked.")
        with pytest.raises(EmptySentence):
            semantic_similarity(sp, sr)

    def test_empty_source_scores_zero(self):
        sp = sentence("A dog barked.")
        sr = sentence("The of and.")
        assert semantic_similarity(sp, sr) == 0.0


class TestAccentedStoreEntries:
    """A token is looked up by its normalized form, so an accented store
    entry ("café") matches the token "Café", whose form is "cafe"."""

    @staticmethod
    def _score(stores):
        [score] = score_source("Café.", ["Bistro."], Vocabulary(stores))
        return score.vector.semantic, [m.channel for best in score.best_semantic
                                       for m in best.matches]

    def test_embedding_entry(self):
        stores = KnowledgeStores(embeddings=embeddings(bistro=(1.0, 2.0), café=(1.0, 2.0)))
        assert stores.embeddings.row("cafe") == stores.embeddings.row("café") == 1
        assert passage_features("Bistro.", "Café.", stores).semantic == 1.0
        assert self._score(stores) == (1.0, ["embedding"])

    def test_lexdb_lemma(self, tmp_path):
        (tmp_path / "data.noun").write_text(
            "00000100 05 n 02 café 0 bistro 0 000 | a small restaurant\n", encoding="utf-8"
        )
        (tmp_path / "index.noun").write_text(
            "bistro n 1 0 1 0 00000100\ncafé n 1 0 1 0 00000100\n", encoding="utf-8"
        )
        stores = KnowledgeStores(lexdb=load_lexdb(tmp_path))
        assert self._score(stores) == (1.0, ["synonym"])


class TestProperties:
    VOCAB = (
        "cat dog car auto automobile machine motorcar canine feline animal "
        "entity vehicle run walk move displace happy glad cheerful caterpillar"
    ).split()
    SYNSETS = [
        ENTITY,
        ANIMAL,
        VEHICLE,
        (2083346, "n"),
        (2084071, "n"),
        (2120997, "n"),
        (2121620, "n"),
        (2958343, "n"),
        (2970849, "n"),
        (1835496, "v"),
        (1904930, "v"),
        (1926311, "v"),
    ]

    def _random_setup(self, rng: random.Random, lexdb):
        ic = ICTable(
            {sid: rng.uniform(0.0, 6.0) for sid in self.SYNSETS if rng.random() < 0.7}
        )
        vecs = {}
        for word in self.VOCAB:
            if rng.random() < 0.6:
                raw = [rng.gauss(0.0, 1.0) for _ in range(4)]
                norm = math.sqrt(sum(x * x for x in raw)) or 1.0
                vecs[word] = np.asarray([x / norm for x in raw], dtype=np.float32)
        emb = embedding_store(vecs, 4) if vecs else None
        stores = KnowledgeStores(lexdb=lexdb, ic=ic, embeddings=emb)
        sp = sentence(" ".join(rng.choices(self.VOCAB, k=rng.randint(1, 8))) + ".")
        sr = sentence(" ".join(rng.choices(self.VOCAB, k=rng.randint(1, 8))) + ".")
        return stores, sp, sr

    def test_bounds_and_consumption(self, lexdb):
        rng = random.Random(31)
        for _ in range(150):
            stores, sp, sr = self._random_setup(rng, lexdb)
            th = SemThresholds(
                embed_min=rng.uniform(0.0, 1.0), resnik_min=rng.uniform(0.0, 6.0)
            )
            matches = match_sentence(sp, sr, stores, th)
            assert len(matches) <= min(len(sp.content_tokens), len(sr.content_tokens))
            consumed = [m.source_index for m in matches]
            assert len(consumed) == len(set(consumed))
            for m in matches:
                assert m.channel in CHANNELS
                if m.channel in ("exact", "synonym"):
                    assert m.score == 1.0
                elif m.channel == "embedding":
                    assert th.embed_min <= m.score <= 1.0 + 1e-12
                else:
                    assert m.score >= th.resnik_min
            score = semantic_similarity(sp, sr, stores, th)
            assert 0.0 <= score <= 1.0

    def test_reflexivity(self, lexdb):
        rng = random.Random(32)
        for _ in range(100):
            stores, sp, _ = self._random_setup(rng, lexdb)
            assert semantic_similarity(sp, sp, stores) == 1.0

    def test_threshold_monotonicity(self, lexdb):
        rng = random.Random(33)
        for _ in range(150):
            stores, sp, sr = self._random_setup(rng, lexdb)
            embed_low = rng.uniform(0.0, 1.0)
            embed_high = rng.uniform(embed_low, 1.0)
            resnik_low = rng.uniform(0.0, 6.0)
            resnik_high = rng.uniform(resnik_low, 6.0)
            loose = semantic_similarity(
                sp, sr, stores, SemThresholds(embed_low, resnik_low)
            )
            strict = semantic_similarity(
                sp, sr, stores, SemThresholds(embed_high, resnik_high)
            )
            assert loose >= strict
