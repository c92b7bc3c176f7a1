"""Pair-scoring pipeline behind the command-line entry points.

Scores labelled text pairs (vectors, and the word matches that traces
show), computes tiling-containment baseline scores, builds evaluation
reports, and round-trips per-pair feature tables as CSV.  Every fan-out
goes through `parallel_map`, which groups the pairs by source text and
hands a task one source and its pairs at a time, at any number of jobs.
One job runs the sources in this process after one set-up (loading
stores, say); a pool hands its workers chunks of whole sources, at most
`CHUNKS_PER_WORKER` chunks per job, and each worker runs the set-up before
its first source.  So each source's preprocessing, word tables and tiling
index are built once per run, and one at a time.  Scoring's set-up also
makes the run's `semsim.Vocabulary`, so what depends on a word alone (its
normalized form and stem, its synonyms, embedding rows and subsumers) is
worked out once per run, or once per worker in a pool, and dropped with
the set-up's result.  Output order always follows input order, so results
never depend on how work was scheduled.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable, Iterable, Sequence
from contextlib import ExitStack
from dataclasses import asdict
from functools import partial

from .classify import (
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

# Chunks of whole sources a pool hands out per job, at most: few, since a
# worker waits on each round trip for the pool to queue its next chunk, but
# enough that an error on an early pair cancels most chunks before they start.
CHUNKS_PER_WORKER = 16

# This pool worker's set-up result, built before its first source.
_WORKER: dict = {}


def _run_task(task, state, pairs: list[LabelledPair]) -> list:
    results: list = []
    try:
        for result in task(state, pairs[0].source_text, pairs):
            results.append(result)
    except ParaplagError as exc:
        exc.args = (f"pair {pairs[len(results)].pair_id}: {exc}",)
        raise
    return results


def _worker_task(task, setup, config: EngineConfig, pairs: list[LabelledPair]) -> list:
    if "state" not in _WORKER:
        _WORKER["state"] = setup(config)
    return _run_task(task, _WORKER["state"], pairs)


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
    distinct source, one source after another, in order of the sources'
    first appearance.  With no pairs `setup` never runs.  jobs == 1 runs
    the sources in this process, after one `setup`.  Otherwise the pool
    splits the sources into chunks of one size (the last may be smaller),
    at most CHUNKS_PER_WORKER per job, and hands them to up to `jobs`
    worker processes, never more than there are chunks, each of which runs
    `setup` before its first source; task, setup, config, pairs and
    results must pickle.  A set-up error keeps its class; an error raised
    on a pair names the pair, and in a pool cancels the chunks not yet
    started.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    groups: dict[str, list[int]] = {}
    for i, pair in enumerate(pairs):
        groups.setdefault(pair.source_text, []).append(i)
    if not groups:
        return []
    inputs = [[pairs[i] for i in group] for group in groups.values()]
    with ExitStack() as stack:
        if jobs == 1:
            outputs = map(partial(_run_task, task, setup(config)), inputs)
        else:
            # imported here, so that a run in this process never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # at most CHUNKS_PER_WORKER chunks per job
            chunksize = math.ceil(len(groups) / (CHUNKS_PER_WORKER * jobs))
            pool = ProcessPoolExecutor(max_workers=min(jobs, math.ceil(len(groups) / chunksize)))
            # on the way out, failing or not: drop the chunks not yet started
            stack.callback(pool.shutdown, cancel_futures=True)
            outputs = pool.map(partial(_worker_task, task, setup, config), inputs,
                               chunksize=chunksize)
        results: list = [None] * len(pairs)
        for group, output in zip(groups.values(), outputs):
            for i, result in zip(group, output):
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
    return build_report([score >= threshold for score in scores], scores, labels)


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

    A row that write_feature_csv could not have written, such as one that
    repeats an earlier row's pair_id, raises a ParaplagError naming the file
    and the line.
    """
    lines_by_id: dict[str, int] = {}
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
        first = lines_by_id.setdefault(pair_id, reader.line_num)
        if first != reader.line_num:
            raise ParaplagError(f"{where}: pair_id {pair_id!r} repeats line {first}")
        if label not in ("0", "1"):
            raise ParaplagError(f"{where}: label must be 0 or 1, got {label!r}")
        try:
            vector = SimilarityVector(*map(float, values))
        except ValueError as exc:
            raise ParaplagError(f"{where}: {exc}") from None
        dataset.append((vector, label == "1"))
    return list(lines_by_id), dataset


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
