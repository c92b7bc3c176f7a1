"""Pair-scoring pipeline: feature extraction, baseline scores, CSV tables."""

import pickle
import random
import time
from functools import partial
from pathlib import Path

import pytest

from paraplag.classify import SimilarityVector
from paraplag.config import EngineConfig, MissingResource
from paraplag.corpus import NOT_PARAPHRASED, PARAPHRASED, LabelledPair
from paraplag.engine import (
    baseline_containments,
    extract_features,
    labelled_dataset,
    parallel_map,
    read_feature_csv,
    score_pairs,
    threshold_report,
    trace_records,
    write_feature_csv,
)
from paraplag.errors import ParaplagError
from paraplag.gst import InputTooLarge
from paraplag.resources import KnowledgeStores, MalformedLine, TruncatedVector

WORDS = ["river", "stone", "cloud", "meadow", "forest", "harbor", "lantern", "copper"]
OTHER = ["quartz", "violin", "sulfur", "ledger", "orbit", "basalt"]


def make_pair(i, suspect, source, label=PARAPHRASED):
    return LabelledPair(
        pair_id=f"p{i:03d}",
        suspect_text=suspect,
        source_text=source,
        label=label,
        origin="synthetic",
        raw_category="",
    )


def synthetic_pairs(n, seed=0):
    # even pairs copy the source (positive), odd pairs use a disjoint vocabulary
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        source = " ".join(rng.sample(WORDS, 5)).capitalize() + "."
        if i % 2 == 0:
            pairs.append(make_pair(i, source, source, PARAPHRASED))
        else:
            suspect = " ".join(rng.sample(OTHER, 5)).capitalize() + "."
            pairs.append(make_pair(i, suspect, source, NOT_PARAPHRASED))
    return pairs


def _directory(path, config):
    return path


def _fail_first_then_record(directory, pair):
    # the first pair fails at once; every later pair leaves a file behind
    if pair.pair_id == "p000":
        raise ParaplagError("first pair fails")
    time.sleep(0.005)
    (Path(directory) / pair.pair_id).touch()


class TestParallelMap:
    def test_pool_failure_cancels_queued_pairs(self, tmp_path):
        pairs = synthetic_pairs(400)
        setup = partial(_directory, str(tmp_path))
        with pytest.raises(ParaplagError, match="^pair p000: first pair fails$"):
            parallel_map(_fail_first_then_record, setup, EngineConfig(), pairs, jobs=2)
        ran = len(list(tmp_path.iterdir()))
        assert ran < len(pairs) // 4


class TestExtractFeatures:
    def test_identical_pair_scores_ones(self):
        pairs = [make_pair(0, "Rivers carve stone.", "Rivers carve stone.")]
        [vec] = extract_features(pairs, EngineConfig())
        assert vec == SimilarityVector(semantic=1.0, syntactic=1.0, insdel=1.0)

    def test_order_follows_input(self):
        pairs = synthetic_pairs(10)
        vectors = extract_features(pairs, EngineConfig())
        for pair, vec in zip(pairs, vectors):
            assert (vec.semantic == 1.0) == pair.is_paraphrased

    def test_parallel_matches_serial(self):
        pairs = synthetic_pairs(12, seed=3)
        config = EngineConfig()
        assert extract_features(pairs, config, jobs=2) == extract_features(pairs, config)

    def test_prebuilt_stores_accepted(self):
        pairs = synthetic_pairs(4)
        vectors = extract_features(pairs, EngineConfig(), stores=KnowledgeStores.empty())
        assert len(vectors) == 4

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            extract_features(synthetic_pairs(2), EngineConfig(), jobs=0)

    def test_pool_setup_error_keeps_its_class(self, tmp_path):
        config = EngineConfig(embedding_file=str(tmp_path / "absent.vec"))
        with pytest.raises(MissingResource, match="embedding_file"):
            extract_features(synthetic_pairs(4), config, jobs=2)

    @pytest.mark.parametrize(
        "error", [MalformedLine("data.noun", 7, "bad offset"), TruncatedVector("foo", "found 2")]
    )
    def test_errors_survive_the_trip_from_a_worker(self, error):
        # these constructors take more than the message
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert vars(copy) == vars(error)


class TestBaseline:
    def test_identical_pair_full_containment(self):
        pairs = [make_pair(0, "Rivers carve stone slowly.", "Rivers carve stone slowly.")]
        assert baseline_containments(pairs, EngineConfig()) == [1.0]

    def test_disjoint_pair_zero(self):
        pairs = [make_pair(0, "Quartz violin sulfur ledger orbit.", "River stone cloud meadow forest.")]
        assert baseline_containments(pairs, EngineConfig()) == [0.0]

    def test_parallel_matches_serial(self):
        pairs = synthetic_pairs(12, seed=5)
        config = EngineConfig(gst_min_match=3, gst_min_tile=3)
        assert baseline_containments(pairs, config, jobs=2) == baseline_containments(pairs, config)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pair_error_names_the_pair(self, jobs):
        long_text = "Rivers carve stone " * 20 + "."
        pairs = synthetic_pairs(3) + [make_pair(3, long_text, long_text)]
        config = EngineConfig(gst_max_chars=200)
        with pytest.raises(InputTooLarge, match=r"^pair p003: text of \d+ chars exceeds cap 200"):
            baseline_containments(pairs, config, jobs=jobs)


class TestThresholdReport:
    def test_known_confusion(self):
        scores = [0.9, 0.8, 0.1, 0.6, 0.2]
        labels = [True, True, True, False, False]
        report = threshold_report(scores, labels, 0.5)
        c = report.confusion
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 1)
        assert report.folds == ()

    def test_boundary_counts_as_positive(self):
        report = threshold_report([0.5, 0.2], [True, False], 0.5)
        assert report.confusion.tp == 1 and report.confusion.tn == 1

    def test_empty_rejected(self):
        with pytest.raises(ParaplagError):
            threshold_report([], [], 0.5)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            threshold_report([0.1], [True, False], 0.5)


class TestLabelledDataset:
    def test_pairs_become_rows(self):
        pairs = synthetic_pairs(4)
        vectors = [SimilarityVector(semantic=0.5, syntactic=0.5, insdel=0.5)] * 4
        dataset = labelled_dataset(pairs, vectors)
        assert [lab for _, lab in dataset] == [True, False, True, False]

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            labelled_dataset(synthetic_pairs(2), [])


class TestFeatureCsv:
    def test_round_trip_is_exact(self, tmp_path):
        # repr() serialization must survive the round trip bit-for-bit
        rng = random.Random(17)
        pairs = synthetic_pairs(20, seed=17)
        vectors = [
            SimilarityVector(semantic=rng.random(), syntactic=rng.random(), insdel=rng.random())
            for _ in pairs
        ]
        path = tmp_path / "features.csv"
        write_feature_csv(path, pairs, vectors)
        ids, dataset = read_feature_csv(path)
        assert ids == [p.pair_id for p in pairs]
        assert [vec for vec, _ in dataset] == vectors
        assert [lab for _, lab in dataset] == [p.is_paraphrased for p in pairs]

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,gold,a,b,c\n", encoding="utf-8")
        with pytest.raises(ParaplagError, match="header"):
            read_feature_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pair_id,label,semantic,syntactic,insdel\np0,1,0.5\n", encoding="utf-8")
        with pytest.raises(ParaplagError):
            read_feature_csv(path)


class TestTraces:
    def test_exact_matches_traced(self):
        pair = make_pair(0, "Rivers carve stone.", "Rivers carve stone.")
        config = EngineConfig()
        [score] = score_pairs([pair], config)
        records = trace_records(pair.pair_id, score)
        assert len(records) == 1
        rec = records[0]
        assert rec["pair_id"] == "p000"
        assert rec["suspect_sentence"] == rec["source_sentence"]
        assert [m["channel"] for m in rec["matches"]] == ["exact"] * 3

    def test_one_record_per_contentful_suspect_sentence(self):
        pair = make_pair(0, "Rivers carve stone. The of and. Clouds drift.", "Rivers carve stone.")
        config = EngineConfig()
        [score] = score_pairs([pair], config)
        records = trace_records(pair.pair_id, score)
        assert [r["suspect_sentence"] for r in records] == [0, 2]

    def test_tied_source_sentences_trace_the_first(self):
        pair = make_pair(0, "Rivers carve stone.", "Rivers carve stone. Rivers carve stone.")
        [score] = score_pairs([pair], EngineConfig())
        [record] = trace_records(pair.pair_id, score)
        assert record["source_sentence"] == 0
