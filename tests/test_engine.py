"""Pair-scoring pipeline: feature extraction, baseline scores, CSV tables."""

import concurrent.futures
import math
import multiprocessing
import pickle
import random
import tempfile
import time
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraplag import classify, engine, gst
from paraplag.classify import SimilarityVector, score_source
from paraplag.config import EngineConfig, MissingResource, build_stores, feature_params, gst_params
from paraplag.corpus import NOT_PARAPHRASED, PARAPHRASED, LabelledPair
from paraplag.engine import (
    baseline_containments,
    baseline_csv_rows,
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
from paraplag.semsim import CHANNELS, Vocabulary

from test_semsim_tables import FIXTURES, LEMMAS, VOCAB

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


def _fail_first_then_record(directory, source, pairs):
    # the first pair fails at once; every later pair leaves a file behind
    for pair in pairs:
        if pair.pair_id == "p000":
            raise ParaplagError("first pair fails")
        time.sleep(0.005)
        (Path(directory) / pair.pair_id).touch()
        yield None


def interleaved_pairs(sources=3, per_source=5, singles=4):
    # pairs of one source are spread over the input; a few sources appear once
    rng = random.Random(11)
    texts = [
        ". ".join(" ".join(rng.sample(WORDS, 4)).capitalize() for _ in range(3)) + "."
        for _ in range(sources + singles)
    ]
    order = [k for k in range(sources) for _ in range(per_source)]
    order += range(sources, sources + singles)
    rng.shuffle(order)
    pairs = []
    for i, k in enumerate(order):
        first_sentence = texts[k].split(". ")[0]
        suspect = " ".join(rng.sample(WORDS + OTHER, 5)).capitalize() + ". " + first_sentence + "."
        pairs.append(make_pair(i, suspect, texts[k], PARAPHRASED if i % 2 else NOT_PARAPHRASED))
    return pairs


def _pair_ids(state, source, pairs):
    for pair in pairs:
        yield pair.pair_id


def _record_calls(calls, source, pairs):
    # each result names its pair and the call that computed it
    call = (source, [pair.pair_id for pair in pairs])
    calls.append(call)
    for pair in pairs:
        yield pair.pair_id, call


def _fail_on_p005(state, source, pairs):
    for pair in pairs:
        if pair.pair_id == "p005":
            raise ParaplagError("this pair fails")
        yield pair.pair_id


class TestParallelMap:
    def test_pool_failure_cancels_queued_pairs(self, tmp_path):
        pairs = synthetic_pairs(400)
        setup = partial(_directory, str(tmp_path))
        with pytest.raises(ParaplagError, match="^pair p000: first pair fails$"):
            parallel_map(_fail_first_then_record, setup, EngineConfig(), pairs, jobs=2)
        ran = len(list(tmp_path.iterdir()))
        assert ran < len(pairs) // 4

    @given(st.integers(1, 12).flatmap(lambda k: st.lists(st.integers(0, k - 1), max_size=60)))
    def test_each_source_is_one_call_in_order_of_first_appearance(self, order):
        # order[i] is the source of pair i
        pairs = [make_pair(i, "A river.", f"Source {k}.") for i, k in enumerate(order)]
        calls = []
        got = parallel_map(_record_calls, partial(_directory, calls), EngineConfig(), pairs, 1)
        # one call per source, first appearance first, with its pairs in input order
        assert calls == [
            (f"Source {k}.", [p.pair_id for p in pairs if p.source_text == f"Source {k}."])
            for k in dict.fromkeys(order)
        ]
        homes = {call[0]: call for call in calls}
        assert got == [(p.pair_id, homes[p.source_text]) for p in pairs]

    @pytest.mark.parametrize(
        "sources, per_source, jobs, chunksize, workers",
        [(20, 1, 4, 1, 4), (5, 30, 2, 1, 2), (1, 3, 4, 1, 1), (600, 1, 2, 19, 2)],
        ids=["distinct-sources", "shared-sources", "one-source", "600-distinct-sources"],
    )
    def test_pool_chunks_whole_sources(self, monkeypatch, sources, per_source, jobs,
                                       chunksize, workers):
        # the pool hands out at most CHUNKS_PER_WORKER chunks of whole sources
        # per job, and starts no more workers than there are chunks
        started, chunksizes = [], []

        class Recorded(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

            def map(self, fn, *iterables, chunksize=1, **kwargs):
                chunksizes.append(chunksize)
                return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        pairs = [make_pair(i, "A river.", f"Source {i % sources}.")
                 for i in range(sources * per_source)]
        setup = partial(_directory, None)
        assert parallel_map(_pair_ids, setup, EngineConfig(), pairs, jobs) == [
            p.pair_id for p in pairs
        ]
        assert (started, chunksizes) == ([workers], [chunksize])
        # no pairs, no pool
        assert parallel_map(_pair_ids, setup, EngineConfig(), [], jobs) == []
        assert started == [workers]

    # Python 3.14 starts pool workers with forkserver on Linux, not fork: a
    # worker then shares nothing with the parent but what is pickled to it
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_under_other_start_methods_matches_one_job(self, monkeypatch, all_stores,
                                                             method):
        context = multiprocessing.get_context(method)

        class Started(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                super().__init__(max_workers, mp_context=context, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Started)
        pairs = interleaved_pairs()
        assert extract_features(pairs, all_stores, jobs=2) == extract_features(pairs, all_stores)
        assert (baseline_containments(pairs, all_stores, jobs=2)
                == baseline_containments(pairs, all_stores))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_task_call_gets_one_source_in_input_order(self, jobs):
        a, b = "River stone cloud.", "Harbor lantern copper."
        pairs = [make_pair(i, f"Suspect {i}.", source) for i, source in enumerate([a, b, a, b])]
        calls = []
        got = parallel_map(_record_calls, partial(_directory, calls), EngineConfig(), pairs, jobs)
        call_a, call_b = (a, ["p000", "p002"]), (b, ["p001", "p003"])
        assert got == [("p000", call_a), ("p001", call_b), ("p002", call_a), ("p003", call_b)]
        if jobs == 1:  # a pool worker records into its own copy
            assert calls == [call_a, call_b]

    def test_no_pairs_run_no_setup(self):
        def setup(config):
            raise AssertionError("setup ran with no pairs")

        assert parallel_map(_pair_ids, setup, EngineConfig(), [], jobs=1) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_inside_a_source_names_its_pair(self, jobs):
        pairs = interleaved_pairs()
        with pytest.raises(ParaplagError, match="^pair p005: this pair fails$"):
            parallel_map(_fail_on_p005, partial(_directory, None), EngineConfig(), pairs, jobs)


@pytest.fixture(scope="module")
def all_stores(tmp_path_factory):
    """A config with every store: the fixture lexdb, the golden IC file, and
    small text vectors over the fixture lexicon (integer ones tie exactly)."""
    rng = np.random.default_rng(11)
    path = tmp_path_factory.mktemp("stores") / "vectors.txt"
    words = VOCAB + LEMMAS
    lines = [f"{len(words)} 4"]
    for i, word in enumerate(words):
        vec = rng.integers(-2, 3, 4) if i % 2 else rng.standard_normal(4).astype(np.float32)
        lines.append(" ".join([word, *map(repr, vec.tolist())]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EngineConfig(
        lexdb_dir=str(FIXTURES / "lexdb"),
        ic_file=str(FIXTURES / "golden" / "ic.dat"),
        embedding_file=str(path),
    )


@st.composite
def lexicon_passage(draw):
    words = st.lists(st.sampled_from(VOCAB + ["the", "a", "of"]), min_size=1, max_size=6)
    return " ".join(
        " ".join(sentence).capitalize() + "."
        for sentence in draw(st.lists(words, min_size=1, max_size=2))
    )


@st.composite
def _lexicon_pairs(draw):
    sources = draw(st.lists(lexicon_passage(), min_size=2, max_size=5))
    n = draw(st.integers(9, 24))
    return [make_pair(i, draw(lexicon_passage()), draw(st.sampled_from(sources))) for i in range(n)]


def _chunks(pairs) -> int:
    """The number of chunks a pool of two jobs hands out for `pairs`: see `parallel_map`."""
    sources = len({p.source_text for p in pairs})
    return math.ceil(sources / math.ceil(sources / (engine.CHUNKS_PER_WORKER * 2)))


# more than one chunk, so that two workers share the pairs
lexicon_pairs = _lexicon_pairs().filter(lambda pairs: _chunks(pairs) > 1)


def _oracle_scores(pairs, config):
    """Each pair scored alone, with a vocabulary of its own."""
    stores, params = build_stores(config), feature_params(config)
    return [
        next(score_source(p.source_text, [p.suspect_text], Vocabulary(stores), params))
        for p in pairs
    ]


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

    def test_pool_matches_serial_on_interleaved_sources(self):
        pairs = interleaved_pairs()
        serial = score_pairs(pairs, EngineConfig())
        assert score_pairs(pairs, EngineConfig(), jobs=2) == serial
        # in input order: each score is the pair's own
        assert serial == [
            next(score_source(p.source_text, [p.suspect_text], Vocabulary(KnowledgeStores())))
            for p in pairs
        ]

    # each example starts a pool of two workers, each loading every store
    @settings(max_examples=12)
    @given(pairs=lexicon_pairs)
    def test_pool_with_every_store_matches_serial_and_the_oracle(self, all_stores, pairs):
        serial = score_pairs(pairs, all_stores)
        pooled = score_pairs(pairs, all_stores, jobs=2)
        # channels and word-match scores as well as vectors
        traces = [trace_records(p.pair_id, score) for p, score in zip(pairs, serial)]
        assert [trace_records(p.pair_id, score) for p, score in zip(pairs, pooled)] == traces
        assert pooled == serial == _oracle_scores(pairs, all_stores)

    def test_every_channel_fires_with_every_store(self, all_stores):
        pairs = [make_pair(i, " ".join(VOCAB[i::4]) + ".", " ".join(VOCAB[i + 1::3]) + ".")
                 for i in range(4)]
        scores = score_pairs(pairs, all_stores)
        assert scores == _oracle_scores(pairs, all_stores)
        channels = {m.channel for s in scores for best in s.best_semantic for m in best.matches}
        assert channels == set(CHANNELS)

    def test_pool_sends_back_vectors_only(self):
        pairs = interleaved_pairs()
        config = EngineConfig()
        sent = parallel_map(engine._vector_task, engine.scoring_state, config, pairs, jobs=2)
        assert all(type(vec) is SimilarityVector for vec in sent)
        assert sent == [score.vector for score in score_pairs(pairs, config)]
        assert extract_features(pairs, config, jobs=2) == sent

    def test_tables_built_once_per_distinct_source(self, monkeypatch):
        built = Counter()

        class Counted(classify.PairTables):
            def __init__(self, sentences, stores, thresholds):
                sentences = list(sentences)
                built[tuple(t.normalized for sr in sentences for t in sr.content_tokens)] += 1
                super().__init__(sentences, stores, thresholds)

        monkeypatch.setattr(classify, "PairTables", Counted)
        pairs = interleaved_pairs()
        score_pairs(pairs, EngineConfig())
        assert sum(built.values()) == len({p.source_text for p in pairs})
        assert set(built.values()) == {1}

    def test_tables_freed_after_the_last_pair_of_their_source(self, monkeypatch):
        refs = []
        live_at_build = []

        class Tracked(classify.PairTables):
            def __init__(self, sentences, stores, thresholds):
                live_at_build.append(sum(ref() is not None for ref in refs))
                super().__init__(sentences, stores, thresholds)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(classify, "PairTables", Tracked)
        source = "Rivers carve stone. Clouds drift."
        vocab = Vocabulary(KnowledgeStores())
        scores = score_source(source, ["Rivers carve.", "Stone drifts."], vocab)
        next(scores)
        next(scores)
        assert len(refs) == 1 and refs[0]() is not None  # one table for every suspect
        assert next(scores, None) is None
        assert refs[0]() is None  # the source is done
        # distinct sources one after another: never more than one table at once
        refs.clear()
        live_at_build.clear()
        for p in synthetic_pairs(6):
            list(score_source(p.source_text, [p.suspect_text], Vocabulary(KnowledgeStores())))
        assert len(refs) == 6 and live_at_build == [0] * 6

    # extract_features wraps the scoring generator in a second one
    @pytest.mark.parametrize("run", [score_pairs, extract_features])
    def test_inline_run_holds_one_table_at_a_time(self, monkeypatch, run):
        refs = []
        live_at_build = []

        class Tracked(classify.PairTables):
            def __init__(self, sentences, stores, thresholds):
                live_at_build.append(sum(ref() is not None for ref in refs))
                super().__init__(sentences, stores, thresholds)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(classify, "PairTables", Tracked)
        pairs = interleaved_pairs()
        run(pairs, EngineConfig())
        assert len(refs) == len({p.source_text for p in pairs})
        assert live_at_build == [0] * len(refs)

    def test_prebuilt_stores_accepted(self):
        pairs = synthetic_pairs(4)
        vectors = extract_features(pairs, EngineConfig(), stores=KnowledgeStores())
        assert len(vectors) == 4

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            extract_features(synthetic_pairs(2), EngineConfig(), jobs=0)

    def test_pool_setup_error_keeps_its_class(self, tmp_path):
        config = EngineConfig(embedding_file=str(tmp_path / "absent.vec"))
        with pytest.raises(MissingResource, match="embedding_file"):
            extract_features(synthetic_pairs(4), config, jobs=2)

    def test_worker_setup_error_keeps_its_class(self, tmp_path):
        # the path exists, so only loading it in a worker can fail
        vectors = tmp_path / "bad.vec"
        vectors.write_text("2 3\nfoo 0.1 0.2\n", encoding="utf-8")
        config = EngineConfig(embedding_file=str(vectors))
        with pytest.raises(TruncatedVector, match="truncated vector for 'foo'"):
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

    @pytest.mark.parametrize(
        "pairs", [synthetic_pairs(12, seed=5), interleaved_pairs()], ids=["alternating", "interleaved"]
    )
    def test_parallel_matches_serial(self, pairs):
        config = EngineConfig(gst_min_tile=3)
        assert baseline_containments(pairs, config, jobs=2) == baseline_containments(pairs, config)

    def test_misaligned_rows_are_not_written(self, tmp_path):
        path = tmp_path / "baseline.csv"
        with pytest.raises(ValueError, match="pairs and containments must align"):
            baseline_csv_rows(path, synthetic_pairs(2), [0.5])
        assert not path.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pair_error_names_the_pair(self, jobs):
        long_text = "Rivers carve stone " * 20 + "."
        pairs = synthetic_pairs(3) + [make_pair(3, long_text, long_text)]
        config = EngineConfig(gst_max_chars=200)
        with pytest.raises(InputTooLarge, match=r"^pair p003: text of \d+ chars exceeds cap 200"):
            baseline_containments(pairs, config, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("oversized", ["suspect", "source"])
    def test_pair_error_names_the_pair_when_its_source_recurs(self, jobs, oversized):
        # p003 is tiled right after p001, whose source it shares; when the
        # source itself is too long, p003 is its first pair and p004 its second
        long_text = "Rivers carve stone " * 20 + "."
        pairs = synthetic_pairs(3)
        if oversized == "suspect":
            pairs += [make_pair(3, long_text, pairs[1].source_text)]
        else:
            pairs += [make_pair(3, "Rivers carve stone.", long_text)]
            pairs += [make_pair(4, "Stone carves rivers.", long_text)]
        config = EngineConfig(gst_max_chars=200)
        with pytest.raises(InputTooLarge, match=r"^pair p003: text of \d+ chars exceeds cap 200"):
            baseline_containments(pairs, config, jobs=jobs)

    def test_each_source_is_indexed_once(self, monkeypatch):
        built = []
        init = gst.SourceGrams.__init__

        def counting_init(self, text, params):
            built.append(text)
            init(self, text, params)

        monkeypatch.setattr(gst.SourceGrams, "__init__", counting_init)
        pairs = interleaved_pairs()
        baseline_containments(pairs, EngineConfig())
        assert Counter(built) == Counter({gst.canonicalize(t): 1 for t in {p.source_text for p in pairs}})

    def test_tiling_holds_one_index_at_a_time(self, monkeypatch):
        refs = []
        live_at_build = []

        class Tracked(gst.SourceGrams):
            def __init__(self, text, params):
                live_at_build.append(sum(ref() is not None for ref in refs))
                super().__init__(text, params)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(gst, "SourceGrams", Tracked)
        pairs = interleaved_pairs()
        baseline_containments(pairs, EngineConfig())
        assert len(refs) == len({p.source_text for p in pairs})
        assert live_at_build == [0] * len(refs)

    def test_interleaved_sources_keep_input_order(self):
        # sources A, B, A, B: tiled as A, A, B, B, reported as given
        a, b = "River stone cloud meadow forest.", "Harbor lantern copper quartz violin."
        pairs = [make_pair(i, suspect, source) for i, (suspect, source) in enumerate([
            ("River stone cloud meadow.", a),
            ("Harbor lantern copper.", b),
            ("Sulfur ledger orbit basalt.", a),
            (b, b),
        ])]
        config = EngineConfig(gst_min_tile=3)
        params = gst_params(config)
        want = [gst.gst_containment(p.suspect_text, p.source_text, params) for p in pairs]
        assert len(set(want)) == 4  # so any reordering shows
        assert baseline_containments(pairs, config) == want
        assert baseline_containments(pairs, config, jobs=2) == want


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

    @given(st.lists(st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3), max_size=10))
    def test_round_trip_is_bit_exact_for_any_unit_vector(self, rows):
        pairs = synthetic_pairs(len(rows))
        vectors = [SimilarityVector(*row) for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            write_feature_csv(path, pairs, vectors)
            ids, dataset = read_feature_csv(path)
        assert ids == [p.pair_id for p in pairs]
        got = [(v.semantic, v.syntactic, v.insdel) for v, _ in dataset]
        assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in rows]

    def test_table_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "features.csv"
        write_feature_csv(path, synthetic_pairs(3), [SimilarityVector(0.5, 0.25, 1.0)] * 3)
        expected = read_feature_csv(path)
        path.write_bytes("\ufeff".encode() + path.read_bytes())
        assert read_feature_csv(path) == expected

    def test_misaligned_rows_are_not_written(self, tmp_path):
        path = tmp_path / "features.csv"
        with pytest.raises(ValueError, match="pairs and vectors must align"):
            write_feature_csv(path, synthetic_pairs(2), [SimilarityVector(0.5, 0.5, 0.5)])
        assert not path.exists()

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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("p1,1,0.5,x,0.2", "could not convert string to float: 'x'"),
            ("p1,1,0.5,0.5,-0.1", "insdel must be in [0, 1], got -0.1"),
            ("p1,1,0.5,0.5,1e999", "insdel must be in [0, 1], got inf"),
            ("p1,0,NaN,0.5,0.2", "semantic must be in [0, 1], got nan"),
            ("p1,7,0.5,0.5,0.2", "label must be 0 or 1, got '7'"),
            ("p1,,0.5,0.5,0.2", "label must be 0 or 1, got ''"),
            ("p1,1,0.5,0.5,0.2,0.9", "expected 5 fields, got 6"),
            ("p0,1,0.5,0.5,0.2", "pair_id 'p0' repeats line 2"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        # the blank line still counts: errors give the line in the file
        path.write_text(
            "pair_id,label,semantic,syntactic,insdel\np0,1,0.5,0.5,0.5\n\n" + row + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ParaplagError) as exc:
            read_feature_csv(path)
        assert str(exc.value) == f"{path}:4: {message}"

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, newline):
        path = tmp_path / "bad.csv"
        lines = [b"pair_id,label,semantic,syntactic,insdel", b"p0,1,0.5,0.5,0.5", b"",
                 b"p1,1,0.5,0.5,0.2\xff"]
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(ParaplagError) as exc:
            read_feature_csv(path)
        assert str(exc.value) == f"{path}:4: invalid UTF-8"


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
