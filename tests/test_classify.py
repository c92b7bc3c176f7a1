"""Feature aggregation, classifiers, ranking metrics, cross-validation."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paraplag import classify, semsim
from paraplag.classify import (
    ClassifierSpec,
    Confusion,
    DegenerateClass,
    EmptyPassage,
    EmptyTrainingSet,
    FeatureParams,
    InsufficientData,
    KnnModel,
    MalformedModel,
    NbModel,
    SimilarityVector,
    SingleClassInput,
    auc_roc,
    cross_validate,
    feature_matrix,
    fit_classifier,
    load_model,
    metrics,
    misclassification_rate,
    passage_features,
    report_to_json,
    save_model,
    stratified_folds,
)
from paraplag.editsim import insdel_similarity
from paraplag.engine import trace_records
from paraplag.resources import ICTable, KnowledgeStores, load_lexdb
from paraplag.semsim import PairTables, SemThresholds, Vocabulary
from paraplag.synsim import syntactic_similarity
from paraplag.textprep import preprocess_passage

from embedding_oracle import embedding_store
from test_semsim_tables import VOCAB, scan_match_sentence, stores_and_thresholds

FIXTURES = Path(__file__).parent / "fixtures"

# fixture stores under which every semantic channel can fire
STORES = KnowledgeStores(
    lexdb=load_lexdb(FIXTURES / "lexdb"),
    ic=ICTable({(15388, "n"): 3.5, (1740, "n"): 0.5, (2120997, "n"): 4.0}),
    embeddings=embedding_store(
        {"dog": np.array([1.0, 0.2], np.float32), "quartz": np.array([0.9, 0.3], np.float32),
         "run": np.array([0.0, 1.0], np.float32)},
        2,
    ),
)

TABLE_CROWD_MODEL = Confusion(tp=3815, fp=934, fn=252, tn=2858)
TABLE_CROWD_BASELINE = Confusion(tp=3748, fp=1133, fn=319, tn=2659)
TABLE_CS_MODEL = Confusion(tp=35, fp=3, fn=5, tn=52)


def vec(a: float, b: float | None = None, c: float | None = None) -> SimilarityVector:
    return SimilarityVector(a, b if b is not None else a, c if c is not None else a)


def clustered_dataset(n_per_class: int, rng: random.Random):
    data = []
    for _ in range(n_per_class):
        data.append((vec(0.8 + rng.uniform(0.0, 0.15)), True))
        data.append((vec(0.05 + rng.uniform(0.0, 0.15)), False))
    return data


def fit(kind: str, train, k: int = 5):
    """`fit_classifier` on a list of (vector, label) rows."""
    return fit_classifier(
        ClassifierSpec(kind, knn_k=k), feature_matrix(x for x, _ in train), [lab for _, lab in train]
    )


def predict_one(model, x: SimilarityVector) -> tuple[bool, float]:
    """The model's (label, score) for one vector, as Python values."""
    [label], [score] = model.predict(feature_matrix([x]))
    return bool(label), float(score)


# ---------------------------------------------------------------------------
# The per-vector classifiers that the batch `predict` methods replaced


def _row(x: SimilarityVector) -> np.ndarray:
    return np.array([x.semantic, x.syntactic, x.insdel], dtype=np.float64)


def oracle_knn_predict(model: KnnModel, x: SimilarityVector) -> tuple[bool, float]:
    """Majority vote of the k nearest; ties in distance break on insert order."""
    deltas = model.points - _row(x)
    squared = np.einsum("ij,ij->i", deltas, deltas)
    nearest = np.argsort(squared, kind="stable")[: model.k]
    score = float(np.count_nonzero(model.labels[nearest])) / model.k
    return score > 0.5, score


def oracle_nb_fit(train) -> NbModel:
    if not train:
        raise EmptyTrainingSet("no training vectors")
    points = np.stack([_row(x) for x, _ in train])
    labels = np.array([bool(lab) for _, lab in train], dtype=bool)
    means = np.zeros((2, 3))
    variances = np.zeros((2, 3))
    priors = np.zeros(2)
    for row, flag in enumerate((False, True)):
        cluster = points[labels == flag]
        if cluster.shape[0] == 0:
            raise DegenerateClass(f"no training examples labelled {flag}")
        means[row] = cluster.mean(axis=0)
        variances[row] = np.maximum(cluster.var(axis=0), NbModel.VAR_FLOOR)
        priors[row] = cluster.shape[0] / points.shape[0]
    return NbModel(means=means, variances=variances, priors=priors)


def oracle_nb_predict(model: NbModel, x: SimilarityVector) -> tuple[bool, float]:
    """Posterior of the positive class from per-feature Gaussian likelihoods."""
    vec = _row(x)
    log_joint = np.log(model.priors) + np.sum(
        -0.5 * np.log(2.0 * np.pi * model.variances)
        - (vec - model.means) ** 2 / (2.0 * model.variances),
        axis=1,
    )
    shifted = log_joint - log_joint.max()
    posterior = float(np.exp(shifted[1]) / np.exp(shifted).sum())
    return posterior >= 0.5, posterior


class TestSimilarityVector:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            SimilarityVector(1.2, 0.0, 0.0)
        with pytest.raises(ValueError):
            SimilarityVector(0.5, -0.1, 0.0)
        with pytest.raises(ValueError):
            SimilarityVector(0.5, 0.5, float("nan"))

    def test_dict_round_trip(self):
        v = SimilarityVector(0.25, 0.5, 0.75)
        assert SimilarityVector(**json.loads(json.dumps(dataclasses.asdict(v)))) == v


class TestPassageFeatures:
    def test_identical_single_sentence(self):
        text = "The tall ships sailed across the winter sea."
        features = passage_features(text, text)
        assert features.semantic == 1.0
        assert features.syntactic == 1.0
        assert features.insdel == 1.0

    def test_semantic_mean_of_surviving_sentences(self):
        suspect = "Wolves foxes bears deer crows. Wolves foxes bears slate glass."
        source = "Wolves foxes bears deer zinc."
        features = passage_features(
            suspect, source, params=FeatureParams(discard_semantic=0.5)
        )
        assert features.semantic == pytest.approx(0.7)

    def test_discard_threshold_filters(self):
        suspect = "Wolves foxes bears deer crows. Wolves foxes bears slate glass."
        source = "Wolves foxes bears deer zinc."
        high = passage_features(
            suspect, source, params=FeatureParams(discard_semantic=0.7)
        )
        assert high.semantic == pytest.approx(0.8)
        none = passage_features(
            suspect, source, params=FeatureParams(discard_semantic=0.9)
        )
        assert none.semantic == 0.0

    def test_everything_below_threshold_scores_zero(self):
        features = passage_features("Alpha beta gamma.", "Seven eight nine.")
        assert features == SimilarityVector(0.0, 0.0, 0.0)

    def test_contentless_suspect_sentence_skipped(self):
        features = passage_features("The of and. Red cats run.", "Red cats run.")
        assert features == SimilarityVector(1.0, 1.0, 1.0)

    def test_empty_passage_rejected(self):
        with pytest.raises(EmptyPassage):
            passage_features("", "Some text here.")
        with pytest.raises(EmptyPassage):
            passage_features("Some text here.", "   ")

    def test_discard_params_validated(self):
        with pytest.raises(ValueError):
            FeatureParams(discard_insdel=1.5)

    def test_bounds_and_determinism(self):
        rng = random.Random(51)
        words = "crow stone river glass iron wolf ember cloud".split()
        for _ in range(30):
            suspect = " ".join(rng.choices(words, k=rng.randint(1, 12))) + "."
            source = " ".join(rng.choices(words, k=rng.randint(1, 12))) + "."
            first = passage_features(suspect, source)
            again = passage_features(suspect, source)
            assert first == again
            for value in (first.semantic, first.syntactic, first.insdel):
                assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("words", [
        [a + v + c + "o" + d for a in "bdgkmnprtvz" for v in "aiou" for c in "bdgkmptvz"
         for d in "dkt"],
        ["stone"],
    ], ids=["random", "repeated"])
    def test_long_one_sentence_pair_scores_in_bounded_time(self, words):
        # 20k words with no sentence break: matching one suspect word must not
        # scan the source sentence, nor the source words its form already
        # consumed, or the pair takes tens of seconds
        rng = random.Random(20)
        source = rng.choices(words, k=20_000)
        suspect = [w if rng.random() < 0.8 else rng.choice(words) for w in source]
        start = time.perf_counter()
        features = passage_features(" ".join(suspect), " ".join(source))
        assert time.perf_counter() - start < 5.0
        assert features.semantic > 0.8

    @given(st.data())
    def test_every_component_in_unit_interval(self, data):
        words = st.sampled_from(
            "the a of dog dogs canine cat feline car automobile machine vehicle animal "
            "entity run ran quartz 42 Dog CAR don't".split()
        )
        sentence = st.lists(words, min_size=1, max_size=8).map(
            lambda ws: " ".join(ws).capitalize() + "."
        )
        passage = st.lists(sentence, min_size=1, max_size=4).map(" ".join)
        vector = passage_features(data.draw(passage), data.draw(passage), STORES)
        for value in dataclasses.asdict(vector).values():
            assert 0.0 <= value <= 1.0


def _oracle_score(sp_sentences, sr_sentences, tables, params):
    """`classify._score` scanning every sentence pair, with no bound.

    Semantic matching is the word-by-word cascade, and insert/delete one
    `insdel_similarity` per sentence pair.
    """
    if not sp_sentences or not sr_sentences:
        raise EmptyPassage("both passages need at least one sentence")
    sr_stems = [[t.stem for t in sr.content_tokens] for sr in sr_sentences]
    semantic_maxima, insdel_maxima, best_semantic = [], [], []
    for sp_pos, sp in enumerate(sp_sentences):
        if not sp.content_tokens:
            continue
        best, best_matches = None, None
        for pos in range(len(sr_sentences)):
            matches = scan_match_sentence(sp, pos, tables)
            if best_matches is None or len(matches) > len(best_matches):
                best, best_matches = pos, matches
        semantic_maxima.append(len(best_matches) / len(sp.content_tokens))
        best_semantic.append(classify.SentenceMatch(sp_pos, best, tuple(best_matches)))
        sp_stems = [t.stem for t in sp.content_tokens]
        insdel_maxima.append(max(insdel_similarity(sp_stems, sr) for sr in sr_stems))
    syntactic_maxima = [
        max(syntactic_similarity(sp.all_tokens, sr.all_tokens) for sr in sr_sentences)
        for sp in sp_sentences
        if sp.all_tokens
    ]
    vector = SimilarityVector(
        semantic=classify._aggregate(semantic_maxima, params.discard_semantic),
        syntactic=classify._aggregate(syntactic_maxima, params.discard_syntactic),
        insdel=classify._aggregate(insdel_maxima, params.discard_insdel),
    )
    return classify.PassageScore(vector, tuple(best_semantic))


def oracle_score(suspect, source, stores=KnowledgeStores(), params=FeatureParams()):
    """The score of one text pair by the scan cascade, on its own tables."""
    sr_sentences = preprocess_passage(source)
    tables = PairTables(sr_sentences, Vocabulary(stores), params.sem)
    return _oracle_score(preprocess_passage(suspect), sr_sentences, tables, params)


@st.composite
def passage(draw, max_sentences, words):
    sentence = st.lists(st.sampled_from(words + ["the", "a", "of"]), min_size=1, max_size=8)
    return " ".join(
        " ".join(words).capitalize() + "."
        for words in draw(st.lists(sentence, min_size=1, max_size=max_sentences))
    )


@st.composite
def passage_pairs(draw):
    """Stores, params, suspect, source; the texts often share a few words, repeated."""
    stores, th = draw(stores_and_thresholds())
    words = draw(st.one_of(
        st.just(VOCAB), st.lists(st.sampled_from(VOCAB), min_size=1, max_size=5, unique=True)
    ))
    return stores, FeatureParams(sem=th), draw(passage(3, words)), draw(passage(6, words))


def test_the_vocabularys_stores_are_the_ones_scored_with():
    source = "An automobile chased the cat. A dog ran home."
    suspects = ["The car chased a cat.", "The canine ran."]
    for stores in (STORES, KnowledgeStores()):
        # one vocabulary shared by every suspect scores each pair as its own would
        shared = [s.vector for s in classify.score_source(source, suspects, Vocabulary(stores))]
        assert shared == [passage_features(sp, source, stores) for sp in suspects]
    # the synonyms that make these pairs match come only from the vocabulary's lexdb
    def semantic(stores):
        return [s.vector.semantic for s in classify.score_source(source, suspects, Vocabulary(stores))]

    assert semantic(STORES) == [1.0, 1.0]
    assert all(score < 1.0 for score in semantic(KnowledgeStores()))


class TestBestSentence:
    """Only sentences with candidates are matched, and every score is the scan cascade's."""

    SUSPECT = "The car chased a cat. A dog ran home."
    SOURCE = (
        "Quartz glass shone. An automobile passed the cat. "
        "The canine ran. A dog chased the car home."
    )

    @given(passage_pairs())
    def test_scores_equal_the_scan_oracle(self, case):
        stores, params, suspect, source = case
        got = next(classify.score_source(source, [suspect], Vocabulary(stores), params))
        assert got == oracle_score(suspect, source, stores, params)

    @given(passage_pairs())
    def test_a_sentence_without_candidates_matches_nothing(self, case):
        stores, params, suspect, source = case
        sr_sentences = preprocess_passage(source)
        tables = PairTables(sr_sentences, Vocabulary(stores), params.sem)
        for sp in preprocess_passage(suspect):
            touched = [
                sum(1 for query in sp.content_tokens if pos in tables.candidates(query))
                for pos in range(len(sr_sentences))
            ]
            for sr, reached in zip(sr_sentences, touched):
                matches = semsim.match_sentence(sp, sr, stores, params.sem)
                assert 0 < len(matches) <= reached or len(matches) == reached == 0

    @given(passage_pairs())
    def test_traces_name_sentences_by_their_positions(self, case):
        stores, params, suspect, source = case
        # sentences of stopwords alone have no trace but keep their positions
        suspect, source = f"Of the. {suspect} The of. {suspect}", f"A of. {source}"
        got = next(classify.score_source(source, [suspect], Vocabulary(stores), params))
        sp_sentences, sr_sentences = preprocess_passage(suspect), preprocess_passage(source)
        traces = trace_records("p", got)
        assert [t["suspect_sentence"] for t in traces] == [
            pos for pos, sp in enumerate(sp_sentences) if sp.content_tokens
        ]
        for trace in traces:
            assert 0 <= trace["source_sentence"] < len(sr_sentences)
            sr = sr_sentences[trace["source_sentence"]]
            content = {t.index for t in sr.content_tokens}
            assert all(m["source_index"] in content for m in trace["matches"])

    def test_only_sentences_with_candidates_are_matched(self, monkeypatch):
        passes = []
        greedy = semsim._greedy

        def counted(queries):
            passes.append(None)
            return greedy(queries)

        monkeypatch.setattr(semsim, "_greedy", counted)
        got = next(classify.score_source(self.SOURCE, [self.SUSPECT], Vocabulary(STORES)))
        assert len(preprocess_passage(self.SOURCE)) == 4
        # both suspect sentences have candidates in every source sentence but
        # "Quartz glass shone.": "dog" has synonyms, and none of them a vector.
        # Of those three, the first visited (most suspect words with a
        # candidate, then lowest position) matches every one of its words, which no
        # other sentence can beat: one pass per suspect sentence
        assert len(passes) == 2
        assert got == oracle_score(self.SUSPECT, self.SOURCE, STORES)

    def test_no_candidates_keeps_the_first_sentence_unmatched(self, monkeypatch):
        def unreachable(queries):
            raise AssertionError("a sentence without candidates was matched")

        monkeypatch.setattr(semsim, "_greedy", unreachable)
        scores = classify.score_source(self.SOURCE, ["Violins hummed softly."], Vocabulary(STORES))
        got = next(scores)
        assert got.best_semantic == (classify.SentenceMatch(0, 0, ()),)
        assert got == oracle_score("Violins hummed softly.", self.SOURCE, STORES)

    @given(passage_pairs())
    def test_the_pruned_best_is_the_first_best_of_the_full_scan(self, case):
        # small word lists repeat stems and sentences, so bounds and match counts tie
        stores, params, suspect, source = case
        sr_sentences = preprocess_passage(source)
        tables = PairTables(sr_sentences, Vocabulary(stores), params.sem)
        for sp in preprocess_passage(suspect):
            if not sp.content_tokens:
                continue
            scanned = [
                (pos, semsim.match_sentence(sp, sr, stores, params.sem))
                for pos, sr in enumerate(sr_sentences)
            ]
            # max keeps the first of equal counts: the lowest position
            assert semsim.best_sentence(sp, tables) == max(scanned, key=lambda s: len(s[1]))

    def test_a_higher_bound_is_matched_before_a_lower_id(self):
        # no stores: a suspect word has a candidate wherever its stem is
        tables = PairTables(
            preprocess_passage("Dogs dog ran. Dog walked. Dog dog walks."),
            Vocabulary(KnowledgeStores()),
            SemThresholds(),
        )
        [sp] = preprocess_passage("Dogs dog walk.")
        # bounds: 2, 3 and 3; sentence 1 matches only 2, sentence 2 all 3
        pos, matches = semsim.best_sentence(sp, tables)
        assert (pos, len(matches)) == (2, 3)
        [tied] = preprocess_passage("Dog.")
        assert semsim.best_sentence(tied, tables)[0] == 0

    def test_candidates_read_the_index_built_with_the_table(self):
        [sp] = preprocess_passage("Dogs ran.")
        dogs = sp.content_tokens[0]
        bare = PairTables(
            preprocess_passage(self.SOURCE), Vocabulary(KnowledgeStores()), SemThresholds()
        )
        assert set(bare.candidates(dogs)) == {3}  # the stem "dog"
        # and through the stores: "cat" by Resnik, "canine" as a synonym
        full = PairTables(preprocess_passage(self.SOURCE), Vocabulary(STORES), SemThresholds())
        assert set(full.candidates(dogs)) == {1, 2, 3}


def _long_document(rng):
    """A seeded source of 320 sentences and a suspect of 60 drawn from it.

    Words come from the fixture lexicon, stopwords and a pool of filler
    words; the suspect copies source sentences, reorders their words,
    inserts words into them, and adds a few sentences of its own.
    """
    filler = [
        "".join(rng.choice("bdgkmnprtvz") + rng.choice("aiou") for _ in range(3)) + "k"
        for _ in range(300)
    ]

    def word():
        # no one-letter word: "a." would read as an initial, not a sentence end
        pool = rng.choice((VOCAB, filler, filler, ["the", "of", "and", "was"]))
        return rng.choice(pool)

    def text(sentences):
        return " ".join(" ".join(words).capitalize() + "." for words in sentences)

    source = [[word() for _ in range(rng.randint(1, 10))] for _ in range(320)]
    suspect = []
    for _ in range(60):
        words = list(rng.choice(source))
        kind = rng.randrange(4)
        if kind == 1:
            rng.shuffle(words)
        elif kind == 2:
            for _ in range(rng.randint(1, 3)):
                words.insert(rng.randint(0, len(words)), word())
        elif kind == 3:
            words = [word() for _ in range(rng.randint(1, 10))]
        suspect.append(words)
    return text(suspect), text(source)


@pytest.mark.parametrize("stores", [STORES, KnowledgeStores()], ids=["stores", "bare"])
def test_a_long_document_scores_as_the_full_scan(stores):
    suspect, source = _long_document(random.Random(27))
    assert len(preprocess_passage(source)) >= 300
    got = next(classify.score_source(source, [suspect], Vocabulary(stores)))
    assert got == oracle_score(suspect, source, stores)
    assert len(got.best_semantic) > 50


class TestMetrics:
    def test_crowd_model_row(self):
        precision, recall, f1 = metrics(TABLE_CROWD_MODEL)
        assert precision == pytest.approx(0.803, abs=1e-3)
        assert recall == pytest.approx(0.938, abs=1e-3)
        assert f1 == pytest.approx(0.865, abs=1e-3)

    def test_crowd_baseline_row(self):
        precision, recall, f1 = metrics(TABLE_CROWD_BASELINE)
        assert precision == pytest.approx(0.768, abs=1e-3)
        assert recall == pytest.approx(0.922, abs=1e-3)
        assert f1 == pytest.approx(0.838, abs=1e-3)

    def test_misclassification_rates(self):
        assert misclassification_rate(TABLE_CROWD_MODEL) == pytest.approx(0.1509, abs=1e-4)
        assert misclassification_rate(TABLE_CROWD_BASELINE) == pytest.approx(0.1847, abs=1e-4)
        assert misclassification_rate(TABLE_CS_MODEL) == pytest.approx(0.0842, abs=1e-4)

    def test_all_correct(self):
        assert metrics(Confusion(10, 0, 0, 10)) == (1.0, 1.0, 1.0)

    def test_zero_denominators(self):
        assert metrics(Confusion(0, 0, 0, 5)) == (0.0, 0.0, 0.0)

    def test_confusion_validated(self):
        with pytest.raises(ValueError):
            Confusion(-1, 0, 0, 0)


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_constant_scores(self):
        assert auc_roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_mixed_example(self):
        assert auc_roc([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassInput):
            auc_roc([0.1, 0.2], [1, 1])
        with pytest.raises(SingleClassInput):
            auc_roc([], [])

    def test_matches_pairwise_brute_force(self):
        rng = random.Random(52)
        grid = [i / 10 for i in range(11)]
        for _ in range(200):
            n = rng.randint(2, 50)
            labels = [rng.random() < 0.5 for _ in range(n)]
            if all(labels) or not any(labels):
                labels[0] = not labels[0]
            scores = [rng.choice(grid) for _ in range(n)]
            wins = ties = pairs = 0
            for s_pos, l_pos in zip(scores, labels):
                if not l_pos:
                    continue
                for s_neg, l_neg in zip(scores, labels):
                    if l_neg:
                        continue
                    pairs += 1
                    if s_pos > s_neg:
                        wins += 1
                    elif s_pos == s_neg:
                        ties += 1
            expected = (wins + 0.5 * ties) / pairs
            assert auc_roc(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = random.Random(53)
        grid = [i / 20 for i in range(21)]
        for _ in range(100):
            n = rng.randint(2, 40)
            labels = [rng.random() < 0.5 for _ in range(n)]
            if all(labels) or not any(labels):
                labels[0] = not labels[0]
            scores = [rng.choice(grid) for _ in range(n)]
            stretched = [2.0 * s + 1.0 for s in scores]
            assert auc_roc(scores, labels) == auc_roc(stretched, labels)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="scores and labels must align"):
            auc_roc([0.1, 0.2, 0.3], [True, False])

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0]), st.booleans()),
                    min_size=2, max_size=200).filter(
                        lambda rows: len({label for _, label in rows}) == 2))
    def test_equals_the_rank_array_oracle(self, rows):
        scores, labels = [score for score, _ in rows], [label for _, label in rows]
        assert auc_roc(scores, labels) == oracle_auc_roc(scores, labels)

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), st.booleans(),
                              st.booleans()), min_size=2, max_size=60).filter(
                        lambda rows: len({label for _, _, label in rows}) == 2), st.data())
    def test_auc_and_confusion_ignore_row_order(self, rows, data):
        # so cross-validation may pool its held-out outcomes in any order
        shuffled = data.draw(st.permutations(rows))

        def pooled(rows):
            scores, predicted, labels = zip(*rows)
            return auc_roc(scores, labels), Confusion.tally(zip(predicted, labels))

        assert pooled(shuffled) == pooled(rows)


def oracle_auc_roc(scores, labels) -> float:
    """Mann-Whitney AUC from a rank per row, each tie group at its mean rank."""
    flags = [bool(l) for l in labels]
    n_pos = sum(flags)
    n_neg = len(flags) - n_pos
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for pos in range(i, j + 1):
            ranks[order[pos]] = mean_rank
        i = j + 1
    rank_sum = sum(r for r, flag in zip(ranks, flags) if flag)
    u_statistic = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u_statistic / (n_pos * n_neg)


class TestKnn:
    def test_exact_training_point(self):
        train = [(vec(0.9), True), (vec(0.1), False)]
        model = fit("knn", train, k=1)
        label, score = predict_one(model, vec(0.9))
        assert (label, score) == (True, 1.0)

    def test_two_of_three_neighbors(self):
        train = [
            (vec(0.8), True),
            (vec(0.7), True),
            (vec(0.6), False),
            (vec(0.0), False),
        ]
        model = fit("knn", train, k=3)
        label, score = predict_one(model, vec(0.75))
        assert label is True
        assert score == pytest.approx(2 / 3)

    def test_single_class_training(self):
        model = fit("knn", [(vec(0.5), True), (vec(0.6), True)], k=2)
        label, score = predict_one(model, vec(0.0))
        assert (label, score) == (True, 1.0)

    def test_empty_training_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            fit("knn", [], k=1)

    def test_k_bounded_by_training_size(self):
        with pytest.raises(ValueError):
            fit("knn", [(vec(0.5), True)], k=2)

    def test_distance_tie_breaks_on_insert_order(self):
        # 0.25 and 0.75 are exact in binary, so both distances tie exactly
        train = [(vec(0.25), False), (vec(0.75), True)]
        model = fit("knn", train, k=1)
        assert predict_one(model, vec(0.5))[0] is False
        flipped = fit("knn", list(reversed(train)), k=1)
        assert predict_one(flipped, vec(0.5))[0] is True

    def test_uniform_rescaling_preserves_prediction(self):
        rng = random.Random(54)
        for _ in range(100):
            train = [
                (vec(rng.random(), rng.random(), rng.random()), rng.random() < 0.5)
                for _ in range(rng.randint(3, 12))
            ]
            x = vec(rng.random(), rng.random(), rng.random())
            alpha = rng.uniform(0.1, 1.0)
            scaled_train = [
                (
                    vec(p.semantic * alpha, p.syntactic * alpha, p.insdel * alpha),
                    lab,
                )
                for p, lab in train
            ]
            scaled_x = vec(x.semantic * alpha, x.syntactic * alpha, x.insdel * alpha)
            k = rng.randint(1, len(train))
            assert predict_one(fit("knn", train, k), x) == predict_one(
                fit("knn", scaled_train, k), scaled_x
            )

    def test_persistence_round_trip(self, tmp_path):
        model = fit("knn", [(vec(0.9), True), (vec(0.1), False), (vec(0.4), False)], k=3)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, KnnModel)
        probe = vec(0.55, 0.3, 0.7)
        assert predict_one(loaded, probe) == predict_one(model, probe)


class TestNb:
    FIXTURE = [
        (vec(0.2), False),
        (vec(0.4), False),
        (vec(0.6), True),
        (vec(0.8), True),
    ]

    def test_midpoint_posterior(self):
        model = fit("nb", self.FIXTURE)
        label, posterior = predict_one(model, vec(0.5))
        assert posterior == pytest.approx(0.5, abs=1e-12)
        assert label is True  # >= 0.5 resolves to positive

    def test_closed_form_fixture(self):
        # equal priors and per-class variance 0.01 on every feature; the
        # posterior reduces to a logistic over the summed log-likelihood gap
        model = fit("nb", self.FIXTURE)
        x = vec(0.6)
        log_gap = 0.0
        for value in (0.6, 0.6, 0.6):
            ll_pos = -0.5 * math.log(2 * math.pi * 0.01) - (value - 0.7) ** 2 / 0.02
            ll_neg = -0.5 * math.log(2 * math.pi * 0.01) - (value - 0.3) ** 2 / 0.02
            log_gap += ll_pos - ll_neg
        expected = 1.0 / (1.0 + math.exp(-log_gap))
        _, posterior = predict_one(model, x)
        assert posterior == pytest.approx(expected, abs=1e-9)

    def test_deep_inside_positive_cluster(self):
        model = fit("nb", self.FIXTURE)
        label, posterior = predict_one(model, vec(0.85))
        assert label is True
        assert posterior > 0.999

    def test_missing_class_rejected(self):
        with pytest.raises(DegenerateClass):
            fit("nb", [(vec(0.5), True), (vec(0.6), True)])

    def test_empty_training_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            fit("nb", [])

    def test_zero_variance_survives_via_floor(self):
        train = [(vec(0.2), False), (vec(0.2), False), (vec(0.9), True), (vec(0.9), True)]
        model = fit("nb", train)
        label, posterior = predict_one(model, vec(0.9))
        assert label is True
        assert 0.0 <= posterior <= 1.0

    def test_persistence_round_trip(self, tmp_path):
        model = fit("nb", self.FIXTURE)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probe = vec(0.45, 0.8, 0.2)
        assert predict_one(loaded, probe) == predict_one(model, probe)


class TestStratifiedFolds:
    def test_partition_20_items_10_folds(self):
        labels = [True] * 10 + [False] * 10
        folds = stratified_folds(labels, 10, seed=7)
        assert len(folds) == 10
        seen = [i for fold in folds for i in fold]
        assert sorted(seen) == list(range(20))
        for fold in folds:
            assert len(fold) == 2
            assert sorted(labels[i] for i in fold) == [False, True]

    def test_class_balance_within_one(self):
        rng = random.Random(55)
        for _ in range(50):
            labels = [rng.random() < 0.4 for _ in range(rng.randint(10, 60))]
            k = 5
            folds = stratified_folds(labels, k, seed=rng.randint(0, 999))
            for cls in (False, True):
                sizes = [sum(1 for i in fold if labels[i] == cls) for fold in folds]
                assert max(sizes) - min(sizes) <= 1

    def test_seed_determinism(self):
        labels = [i % 3 == 0 for i in range(30)]
        assert stratified_folds(labels, 5, seed=1) == stratified_folds(labels, 5, seed=1)
        assert stratified_folds(labels, 5, seed=1) != stratified_folds(labels, 5, seed=2)


class TestCrossValidate:
    def test_separable_clusters_knn(self):
        data = clustered_dataset(10, random.Random(56))
        report = cross_validate(data, ClassifierSpec("knn", knn_k=3), k=10, seed=0)
        assert report.confusion == Confusion(10, 0, 0, 10)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert report.auc == 1.0
        assert report.misclassification_rate == 0.0

    def test_separable_clusters_nb(self):
        data = clustered_dataset(10, random.Random(57))
        report = cross_validate(data, ClassifierSpec("nb"), k=10, seed=0)
        assert report.f1 == 1.0

    def test_every_item_tested_once(self):
        data = clustered_dataset(10, random.Random(58))
        report = cross_validate(data, ClassifierSpec("knn", knn_k=3), k=10, seed=3)
        assert report.confusion.total == len(data)
        assert sum(fm.confusion.total for fm in report.folds) == len(data)
        assert [fm.fold for fm in report.folds] == list(range(10))

    def test_same_seed_identical_report(self):
        data = clustered_dataset(12, random.Random(59))
        spec = ClassifierSpec("knn", knn_k=5)
        first = cross_validate(data, spec, k=10, seed=11)
        second = cross_validate(data, spec, k=10, seed=11)
        assert first == second
        assert report_to_json(first) == report_to_json(second)

    def test_insufficient_class_rejected(self):
        data = [(vec(0.9), True)] * 5 + [(vec(0.1), False)] * 20
        with pytest.raises(InsufficientData):
            cross_validate(data, ClassifierSpec("nb"), k=10, seed=0)

    def test_fold_count_validated(self):
        data = clustered_dataset(5, random.Random(60))
        with pytest.raises(ValueError):
            cross_validate(data, ClassifierSpec("nb"), k=1, seed=0)

    def test_report_json_shape(self):
        data = clustered_dataset(6, random.Random(61))
        report = cross_validate(data, ClassifierSpec("nb"), k=3, seed=5)
        payload = json.loads(report_to_json(report))
        assert set(payload) == {
            "confusion",
            "precision",
            "recall",
            "f1",
            "auc",
            "misclassification_rate",
            "folds",
        }
        assert set(payload["confusion"]) == {"tp", "fp", "fn", "tn"}
        assert len(payload["folds"]) == 3
        for entry in payload["folds"]:
            assert set(entry) == {"fold", "confusion", "precision", "recall", "f1"}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClassifierSpec("svm")
        with pytest.raises(ValueError):
            ClassifierSpec("knn", knn_k=0)


UNIT = st.floats(min_value=0.0, max_value=1.0)
LABELLED = st.tuples(st.builds(SimilarityVector, UNIT, UNIT, UNIT), st.booleans())


def _bits(array: np.ndarray) -> tuple:
    return array.dtype, array.shape, array.tobytes()


def _round_trip(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        return load_model(path)


class TestModelPersistence:
    @given(st.lists(LABELLED, min_size=1, max_size=12), st.data())
    def test_knn_round_trip_is_exact(self, train, data):
        model = fit("knn", train, k=data.draw(st.integers(1, len(train))))
        loaded = _round_trip(model)
        assert isinstance(loaded, KnnModel) and loaded.k == model.k
        assert _bits(loaded.points) == _bits(model.points)
        assert _bits(loaded.labels) == _bits(model.labels)
        for probe, _ in train + data.draw(st.lists(LABELLED, max_size=4)):
            assert predict_one(loaded, probe) == predict_one(model, probe)

    def test_numpy_integer_k_round_trips_as_int(self):
        train = [(vec(0.5), True), (vec(0.25), False)]
        model = fit("knn", train, k=np.int64(1))
        loaded = _round_trip(model)
        assert type(model.k) is int and type(loaded.k) is int and loaded.k == 1
        assert _bits(loaded.points) == _bits(model.points)

    @given(st.lists(LABELLED, min_size=1, max_size=12), st.data())
    def test_nb_round_trip_is_exact(self, train, data):
        train = train + [(vec(0.5), True), (vec(0.25), False)]
        model = fit("nb", train)
        loaded = _round_trip(model)
        assert isinstance(loaded, NbModel)
        for name in ("means", "variances", "priors"):
            assert _bits(getattr(loaded, name)) == _bits(getattr(model, name))
        for probe, _ in train + data.draw(st.lists(LABELLED, max_size=4)):
            assert predict_one(loaded, probe) == predict_one(model, probe)



def oracle_cross_validate(dataset, spec: ClassifierSpec, k: int, seed: int) -> classify.EvalReport:
    """`cross_validate` with a training list per fold and one oracle call per test row.

    The report's confusion is the sum of the folds' counts.
    """
    folds = stratified_folds([lab for _, lab in dataset], k, seed)
    scores, truths, fold_metrics = [], [], []
    for fold_index, test_indices in enumerate(folds):
        held_out = set(test_indices)
        train = [dataset[i] for i in range(len(dataset)) if i not in held_out]
        if spec.kind == "knn":
            points = np.stack([_row(x) for x, _ in train])
            model = KnnModel(points, np.array([lab for _, lab in train]), spec.knn_k)
            predict = oracle_knn_predict
        else:
            model, predict = oracle_nb_fit(train), oracle_nb_predict
        outcomes = []
        for i in test_indices:
            x, truth = dataset[i]
            predicted, score = predict(model, x)
            scores.append(score)
            truths.append(truth)
            outcomes.append((predicted, truth))
        confusion = Confusion.tally(outcomes)
        fold_metrics.append(classify.FoldMetrics(fold_index, confusion, *metrics(confusion)))
    counts = [fold.confusion for fold in fold_metrics]
    total = Confusion(*(sum(getattr(c, name) for c in counts) for name in ("tp", "fp", "fn", "tn")))
    return classify.EvalReport(
        total, *metrics(total), auc_roc(scores, truths), misclassification_rate(total),
        tuple(fold_metrics),
    )


# binary-grid values tie distances exactly and give equal class variances
TIED = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), UNIT)
TIED_VECTOR = st.builds(SimilarityVector, TIED, TIED, TIED)
TIED_ROWS = st.lists(st.tuples(TIED_VECTOR, st.booleans()), min_size=1, max_size=12)
PROBES = st.lists(TIED_VECTOR, min_size=1, max_size=8)


def _outcomes(model, probes) -> list[tuple[bool, str]]:
    labels, scores = model.predict(feature_matrix(probes))
    assert labels.shape == scores.shape == (len(probes),)
    assert labels.dtype == bool and scores.dtype == np.float64
    return [(bool(label), float(score).hex()) for label, score in zip(labels, scores)]


def _oracle_outcomes(oracle, model, probes) -> list[tuple[bool, str]]:
    return [(label, score.hex()) for label, score in (oracle(model, x) for x in probes)]


class TestBatchPredict:
    """`predict` on a batch equals the per-vector oracle row by row, bit for bit."""

    @given(TIED_ROWS, PROBES, st.data())
    def test_knn_equals_the_oracle(self, train, probes, data):
        model = fit("knn", train, k=data.draw(st.integers(1, len(train))))
        assert _outcomes(model, probes) == _oracle_outcomes(oracle_knn_predict, model, probes)

    @given(TIED_ROWS, PROBES)
    def test_nb_equals_the_oracle(self, train, probes):
        train = train + [(vec(0.5), True), (vec(0.25), False)]
        model = fit("nb", train)
        expected = oracle_nb_fit(train)
        for name in ("means", "variances", "priors"):
            assert _bits(getattr(model, name)) == _bits(getattr(expected, name))
        assert _outcomes(model, probes) == _oracle_outcomes(oracle_nb_predict, model, probes)

    def test_distance_ties_break_on_insert_order(self):
        # 0.25 and 0.75 are exact in binary, so every probe's distances tie exactly
        train = [(vec(0.25), False), (vec(0.75), True)]
        probes = [vec(0.5), vec(0.5, 0.25, 0.75), vec(0.5, 0.75, 0.25)]
        model = fit("knn", train, k=1)
        assert _outcomes(model, probes) == [(False, (0.0).hex())] * 3
        assert _outcomes(model, probes) == _oracle_outcomes(oracle_knn_predict, model, probes)
        flipped = fit("knn", list(reversed(train)), k=1)
        assert _outcomes(flipped, probes) == [(True, (1.0).hex())] * 3

    def test_knn_fold_larger_than_one_block_equals_the_oracle(self):
        rng = np.random.default_rng(0)

        def point():
            # grid values tie distances exactly, within a block and across blocks
            values = (float(rng.choice([0.0, 0.25, 0.5, rng.random()])) for _ in range(3))
            return SimilarityVector(*values)

        train = [(point(), bool(rng.integers(2))) for _ in range(64)]
        probes = [point() for _ in range(1500)]
        model = fit("knn", train, k=5)
        assert len(probes) > KnnModel.BLOCK_ELEMENTS // len(train)
        assert _outcomes(model, probes) == _oracle_outcomes(oracle_knn_predict, model, probes)

    def test_knn_predict_memory_is_bounded_by_its_block(self):
        rng = np.random.default_rng(1)
        model = KnnModel(rng.random((2000, 3)), rng.random(2000) < 0.5, 5)
        points = rng.random((2000, 3))
        tracemalloc.start()
        try:
            model.predict(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (2000, 2000) float64 distance matrix alone would take 32 MB
        assert peak < 8 * 8 * KnnModel.BLOCK_ELEMENTS

    def test_knn_score_of_one_half_is_negative(self):
        model = fit("knn", [(vec(0.2), True), (vec(0.8), False)], k=2)
        probes = [vec(0.0), vec(0.5), vec(1.0)]
        assert _outcomes(model, probes) == [(False, (0.5).hex())] * 3
        assert _outcomes(model, probes) == _oracle_outcomes(oracle_knn_predict, model, probes)

    def test_nb_posterior_of_one_half_is_positive(self):
        model = NbModel(
            means=[[0.25] * 3, [0.75] * 3], variances=[[0.01] * 3] * 2, priors=[0.5, 0.5]
        )
        probes = [vec(0.5), vec(0.5, 0.25, 0.75)]
        assert _outcomes(model, probes) == [(True, (0.5).hex())] * 2
        assert _outcomes(model, probes) == _oracle_outcomes(oracle_nb_predict, model, probes)

    @given(st.lists(st.tuples(TIED_VECTOR, st.booleans()), min_size=6, max_size=40),
           st.sampled_from(["knn", "nb"]), st.integers(2, 3), st.integers(0, 99), st.data())
    def test_cross_validate_equals_the_per_row_oracle(self, rows, kind, k, seed, data):
        rows = rows + [(vec(0.5), True), (vec(0.25), False)] * k
        spec = ClassifierSpec(kind, knn_k=data.draw(st.integers(1, len(rows) // 2 - 1)))
        assert report_to_json(cross_validate(rows, spec, k, seed)) == report_to_json(
            oracle_cross_validate(rows, spec, k, seed)
        )


KNN = {"kind": "knn", "k": 1, "points": [[0.5, 0.5, 0.5], [0.25, 0, 1]], "labels": [True, False]}
NB = {
    "kind": "nb",
    "means": [[0.2, 0.3, 0.4], [0.6, 0.7, 0.8]],
    "variances": [[0.01, 0.02, 0.03], [0.04, 0.05, 0.06]],
    "priors": [0.25, 0.75],
}

# (model file text, what its error says after "<path>: ")
MALFORMED_MODELS = [
    ('{"kind": "knn",', "Expecting property name"),
    ("[1, 2]", "expected a JSON object, got list"),
    (json.dumps({k: v for k, v in KNN.items() if k != "kind"}), "kind must be one of knn, nb, got None"),
    (json.dumps(dict(KNN, kind="svm")), "kind must be one of knn, nb, got 'svm'"),
    (json.dumps(dict(KNN, kind=["knn"])), "kind must be one of knn, nb, got ['knn']"),
    ('{"kind": "knn"}', "a knn model has keys k, labels, points, got "),
    # json alone would keep the last value, a valid k
    (json.dumps(dict(KNN, k=2))[:-1] + ', "k": 1}', "gives key 'k' twice"),
    (json.dumps({k: v for k, v in NB.items() if k != "priors"}),
     "a nb model has keys means, priors, variances, got means, variances"),
    (json.dumps(dict(KNN, note=1)), "a knn model has keys k, labels, points, got k, labels, note, points"),
    (json.dumps(dict(KNN, points=[[0.5, 0.5], [0.25, 0]])), "points must be a (n, 3) array of numbers"),
    (json.dumps(dict(KNN, points=[[0.5, 0.5, 0.5], [0.25, 0]])), "points must be a (n, 3) array of numbers"),
    (json.dumps(dict(KNN, points=[["0.5", 0.5, 0.5], [0.25, 0, 1]])), "points must be a (n, 3) array"),
    (json.dumps(dict(KNN, points=[[0.5, None, 0.5], [0.25, 0, 1]])), "points must be a (n, 3) array"),
    (json.dumps(dict(KNN, points=[[0.5, float("nan"), 0.5], [0.25, 0, 1]])), "points must be finite"),
    (json.dumps(dict(KNN, labels=[True])), "labels must be a (2,) array of booleans"),
    (json.dumps(dict(KNN, labels=[1, 0])), "labels must be a (2,) array of booleans"),
    (json.dumps(dict(KNN, k=0)), "k must be an integer in [1, 2], got 0"),
    (json.dumps(dict(KNN, k=3)), "k must be an integer in [1, 2], got 3"),
    (json.dumps(dict(KNN, k=1.0)), "k must be an integer in [1, 2], got 1.0"),
    (json.dumps(dict(KNN, k=True)), "k must be an integer in [1, 2], got True"),
    (json.dumps(dict(NB, means=[[0.2, 0.3, 0.4]])), "means must be a (2, 3) array of numbers"),
    (json.dumps(dict(NB, variances=[[0.01, 0.02, 0.03]] * 3)), "variances must be a (2, 3) array"),
    (json.dumps(dict(NB, priors=[0.25, 0.25, 0.5])), "priors must be a (2,) array of numbers"),
    (json.dumps(dict(NB, means=[[0.2, 0.3, float("inf")], [0.6, 0.7, 0.8]])), "means must be finite"),
    (json.dumps(dict(NB, variances=[[0.01, 0.0, 0.03], [0.04, 0.05, 0.06]])), "variances must be > 0"),
    (json.dumps(dict(NB, variances=[[0.01, 0.02, 0.03], [-0.04, 0.05, 0.06]])),
     "variances must be > 0"),
    (json.dumps(dict(NB, priors=[0.0, 1.0])), "priors must be in (0, 1]"),
    (json.dumps(dict(NB, priors=[0.5, 1.5])), "priors must be in (0, 1]"),
]


class TestModelFile:
    @pytest.mark.parametrize("payload", [KNN, NB])
    def test_well_formed_file_loads(self, tmp_path, payload):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        model = load_model(path)
        assert model.kind == payload["kind"]
        assert predict_one(model, vec(0.5))[0] in (True, False)

    @pytest.mark.parametrize("text, message", MALFORMED_MODELS)
    def test_malformed_file_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedModel) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_invalid_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"kind": "kn\xff"}')
        with pytest.raises(MalformedModel, match="model.json:1: invalid UTF-8"):
            load_model(path)

    def test_file_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("\ufeff" + json.dumps(KNN), encoding="utf-8")
        model = load_model(path)
        assert model.kind == "knn" and model.points.tolist() == KNN["points"]

    def test_fitted_models_pass_the_same_checks(self):
        with pytest.raises(ValueError, match="k must be an integer in"):
            fit("knn", [(vec(0.5), True)], k=2)
        model = fit("nb", [(vec(0.5), True), (vec(0.5), True), (vec(0.25), False)])
        assert (model.variances > 0).all() and model.priors.tolist() == [1 / 3, 2 / 3]
