"""Pair-scoring pipeline behind the command-line entry points.

Scores labelled text pairs (vectors, and the word matches that traces
show), computes tiling-containment baseline scores, builds evaluation
reports, and round-trips per-pair feature tables as CSV.  Every fan-out
goes through `parallel_map`, which groups the pairs by source text and
hands a task one source and its pairs at a time, in the same batches of
about eight pairs at any number of jobs.  One job runs the batches in
this process after one set-up (loading stores, say); a pool's workers
each run the set-up before their first batch.  So each source's
preprocessing, word tables and tiling index are built once per run, and
one at a time.  Scoring's set-up also makes the run's `semsim.Vocabulary`,
so what depends on a word alone (its normalized form and stem, its
synonyms, embedding rows and subsumers) is worked out once per run, or
once per worker in a pool, and dropped with the set-up's result.  Output
order always follows input order, so results never depend on how work
was scheduled.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict
from functools import partial

from .classify import (
    Confusion,
    EvalReport,
    LabelledVector,
    PassageScore,
    SimilarityVector,
    build_report,
    score_source,
)
from .config import (EngineConfig, build_stores, feature_params, gst_params, prep_config,
                     validate_resources)
from .corpus import LabelledPair
from .errors import ParaplagError, decode_utf8
from .gst import GstParams, source_grams
from .resources import KnowledgeStores
from .semsim import Vocabulary

# ---------------------------------------------------------------------------
# Fan-out

# Pairs a batch carries at least, unless the input runs out: enough that one
# round trip to a pool worker is not paid per pair.
PAIRS_PER_TASK = 8

# This pool worker's set-up result, built before its first batch.
_WORKER: dict = {}


def _run_task(task, state, batch: list[list[LabelledPair]]) -> list:
    results: list = []
    for pairs in batch:
        done = len(results)
        try:
            for result in task(state, pairs[0].source_text, pairs):
                results.append(result)
        except ParaplagError as exc:
            exc.args = (f"pair {pairs[len(results) - done].pair_id}: {exc}",)
            raise
    return results


def _worker_task(task, setup, config: EngineConfig, batch: list[list[LabelledPair]]) -> list:
    if "state" not in _WORKER:
        _WORKER["state"] = setup(config)
    return _run_task(task, _WORKER["state"], batch)


def _batches(pairs: Sequence[LabelledPair]) -> list[list[list[int]]]:
    """Input positions of the batches tasks are handed, one list per source.

    The pairs of one source text form a group, in input order; groups
    follow their sources' first appearance, and consecutive groups fill a
    batch until it holds at least PAIRS_PER_TASK pairs.
    """
    groups: dict[str, list[int]] = {}
    for i, pair in enumerate(pairs):
        groups.setdefault(pair.source_text, []).append(i)
    batches: list[list[list[int]]] = []
    batch: list[list[int]] = []
    for group in groups.values():
        batch.append(group)
        if sum(map(len, batch)) >= PAIRS_PER_TASK:
            batches.append(batch)
            batch = []
    if batch:
        batches.append(batch)
    return batches


def parallel_map(
    task: Callable[[object, str, Sequence[LabelledPair]], Iterable],
    setup: Callable[[EngineConfig], object],
    config: EngineConfig,
    pairs: Sequence[LabelledPair],
    jobs: int,
) -> list:
    """One result per pair, in input order, from `task(setup(config), source, pairs)`.

    A task takes one source text and that source's pairs, in input order,
    and yields one result per pair, in order; it is called once per
    distinct source, one source after another.  Batches of sources hold
    about PAIRS_PER_TASK pairs; with no pairs there is no batch, and
    `setup` never runs.  jobs == 1 runs the batches in this process, after
    one `setup`.  Otherwise up to `jobs` worker processes, never more than
    there are batches, each run `setup` before their first batch; task,
    setup, config, pairs and results must pickle.  A set-up error keeps its
    class; an error raised on a pair names the pair, and in a pool cancels
    the batches not yet started.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    batches = _batches(pairs)
    if not batches:
        return []
    inputs = [[[pairs[i] for i in group] for group in batch] for batch in batches]
    with ExitStack() as stack:
        if jobs == 1:
            outputs = map(partial(_run_task, task, setup(config)), inputs)
        else:
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(batches)))
            # on the way out, failing or not: drop the batches not yet started
            stack.callback(pool.shutdown, cancel_futures=True)
            outputs = pool.map(partial(_worker_task, task, setup, config), inputs)
        results: list = [None] * len(pairs)
        for batch, output in zip(batches, outputs):
            for i, result in zip((i for group in batch for i in group), output):
                results[i] = result
    return results


# ---------------------------------------------------------------------------
# Features and traces

def scoring_state(config: EngineConfig, stores: KnowledgeStores | None = None):
    """(a fresh `Vocabulary` over the stores, feature params, stopword set) under config.

    The arguments `score_source` takes after the texts.  The vocabulary
    lives as long as the state: one run inline, or one pool worker.
    """
    if stores is None:
        stores = build_stores(config)
    return Vocabulary(stores), feature_params(config), prep_config(config)


def _score_task(state, source: str, pairs: Sequence[LabelledPair]) -> Iterable[PassageScore]:
    return score_source(source, [pair.suspect_text for pair in pairs], *state)


def _vector_task(state, source: str, pairs: Sequence[LabelledPair]) -> Iterable[SimilarityVector]:
    # a pool worker sends back the vectors alone, not the word matches
    return (score.vector for score in _score_task(state, source, pairs))


def _scored(task, pairs, config, jobs, stores) -> list:
    """`task`'s result for each pair, scored as `score_pairs` describes."""
    if stores is None:
        validate_resources(config)
    setup = partial(scoring_state, stores=stores) if jobs == 1 else scoring_state
    return parallel_map(task, setup, config, pairs, jobs)


def score_pairs(
    pairs: Sequence[LabelledPair],
    config: EngineConfig,
    jobs: int = 1,
    stores: KnowledgeStores | None = None,
) -> list[PassageScore]:
    """Vector and best semantic matches for each pair, in input order.

    Each source text is preprocessed, and its word tables built, once per
    run at any `jobs` (see `parallel_map`).  Without prebuilt stores the
    resource paths are checked here first, so a missing one fails the run
    the same way at any `jobs`, even with no pairs.  Prebuilt stores serve
    only the inline run; pool workers load their own.
    """
    return _scored(_score_task, pairs, config, jobs, stores)


def extract_features(
    pairs: Sequence[LabelledPair],
    config: EngineConfig,
    jobs: int = 1,
    stores: KnowledgeStores | None = None,
) -> list[SimilarityVector]:
    """Similarity vectors for each pair, in input order, scored as in `score_pairs`."""
    return _scored(_vector_task, pairs, config, jobs, stores)


def trace_records(pair_id: str, score: PassageScore) -> list[dict]:
    """Word-match traces: the best semantic source sentence per suspect sentence."""
    return [{"pair_id": pair_id, **asdict(best)} for best in score.best_semantic]


# ---------------------------------------------------------------------------
# Baseline


def _containment_task(gp: GstParams, source: str, pairs: Sequence[LabelledPair]) -> Iterable[float]:
    index = source_grams(source, gp)
    for pair in pairs:
        yield index.containment(pair.suspect_text)


def baseline_containments(
    pairs: Sequence[LabelledPair],
    config: EngineConfig,
    jobs: int = 1,
) -> list[float]:
    """Tiling containment score for each pair, in input order.

    Each source text is canonicalized and indexed once per run at any
    `jobs` (see `parallel_map`).
    """
    return parallel_map(_containment_task, gst_params, config, pairs, jobs)


# ---------------------------------------------------------------------------
# Reports

def labelled_dataset(
    pairs: Sequence[LabelledPair], vectors: Sequence[SimilarityVector]
) -> list[LabelledVector]:
    if len(pairs) != len(vectors):
        raise ValueError("pairs and vectors must align one-to-one")
    return [(vec, pair.is_paraphrased) for pair, vec in zip(pairs, vectors)]


def threshold_report(scores: Sequence[float], labels: Sequence[bool], threshold: float) -> EvalReport:
    """Evaluate the rule `score >= threshold` as a classifier (no folds)."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels must align one-to-one")
    if not scores:
        raise ParaplagError("cannot evaluate an empty pair list")
    confusion = Confusion.tally(
        (score >= threshold, label) for score, label in zip(scores, labels)
    )
    return build_report(confusion, scores, labels)


# ---------------------------------------------------------------------------
# Feature tables on disk

FEATURE_FIELDS = ("pair_id", "label", "semantic", "syntactic", "insdel")


def write_feature_csv(
    path,
    pairs: Sequence[LabelledPair],
    vectors: Sequence[SimilarityVector],
) -> None:
    """One row per pair: id, gold label, and the three feature values."""
    if len(pairs) != len(vectors):
        raise ValueError("pairs and vectors must align one-to-one")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURE_FIELDS)
        for pair, vec in zip(pairs, vectors):
            writer.writerow(
                [
                    pair.pair_id,
                    int(pair.is_paraphrased),
                    repr(vec.semantic),
                    repr(vec.syntactic),
                    repr(vec.insdel),
                ]
            )


def read_feature_csv(path) -> tuple[list[str], list[LabelledVector]]:
    """Inverse of write_feature_csv: ids plus (vector, label) rows.

    A row that write_feature_csv could not have written raises a
    ParaplagError naming the file and the line.
    """
    ids: list[str] = []
    dataset: list[LabelledVector] = []
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read(), path)
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header != list(FEATURE_FIELDS):
        raise ParaplagError(
            f"feature table {path} has header {header}, expected {list(FEATURE_FIELDS)}"
        )
    for row in reader:
        if not row:
            continue
        where = f"{path}:{reader.line_num}"
        if len(row) != len(FEATURE_FIELDS):
            raise ParaplagError(
                f"{where}: expected {len(FEATURE_FIELDS)} fields, got {len(row)}"
            )
        pair_id, label, *values = row
        if label not in ("0", "1"):
            raise ParaplagError(f"{where}: label must be 0 or 1, got {label!r}")
        try:
            vector = SimilarityVector(*map(float, values))
        except ValueError as exc:
            raise ParaplagError(f"{where}: {exc}") from None
        ids.append(pair_id)
        dataset.append((vector, label == "1"))
    return ids, dataset


def baseline_csv_rows(
    path,
    pairs: Sequence[LabelledPair],
    containments: Sequence[float],
) -> None:
    """One row per pair: id, gold label, tiling containment."""
    if len(pairs) != len(containments):
        raise ValueError("pairs and containments must align one-to-one")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_id", "label", "containment"])
        for pair, score in zip(pairs, containments):
            writer.writerow([pair.pair_id, int(pair.is_paraphrased), repr(score)])
