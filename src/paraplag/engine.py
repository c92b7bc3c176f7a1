"""Pair-scoring pipeline behind the command-line entry points.

Scores labelled text pairs (vectors, and the word matches that traces
show), computes tiling-containment baseline scores, builds evaluation
reports, and round-trips per-pair feature tables as CSV.  Every fan-out
goes through `parallel_map`, which hands its task a batch of pairs: one job
runs all pairs inline as one batch; a pool's workers each run the set-up
(loading stores, say) once and take batches of about eight pairs, and pairs
that share a key stay in one batch.  Scoring keys pairs by source text, so
each source's preprocessing and word tables are built once per run, under
any number of jobs.  Output order always follows input order, so results
never depend on how work was scheduled.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable, Hashable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from operator import attrgetter

from .classify import (
    Confusion,
    EvalReport,
    LabelledVector,
    PassageScore,
    SimilarityVector,
    build_report,
    score_batch,
)
from .config import EngineConfig, build_stores, feature_params, gst_params, prep_config
from .corpus import LabelledPair
from .errors import ParaplagError
from .gst import GstParams, gst_containment
from .resources import KnowledgeStores

# ---------------------------------------------------------------------------
# Fan-out

# Pairs a pool task carries at least, unless the input runs out: enough that
# one round trip to a worker is not paid per pair.
PAIRS_PER_TASK = 8

# This pool worker's set-up result, "state", or the "error" it raised, which
# every task re-raises: a raising initializer would break the whole pool.
_WORKER: dict = {}


def _init_worker(setup, config: EngineConfig) -> None:
    try:
        _WORKER["state"] = setup(config)
    except Exception as exc:
        _WORKER["error"] = exc


def _run_task(task, state, batch: Sequence[LabelledPair]) -> list:
    results: list = []
    try:
        for result in task(state, batch):
            results.append(result)
    except ParaplagError as exc:
        exc.args = (f"pair {batch[len(results)].pair_id}: {exc}",)
        raise
    return results


def _worker_task(task, batch: Sequence[LabelledPair]) -> list:
    if "error" in _WORKER:
        raise _WORKER["error"]
    return _run_task(task, _WORKER["state"], batch)


def _batches(
    pairs: Sequence[LabelledPair], key: Callable[[LabelledPair], Hashable] | None
) -> list[list[int]]:
    """Input positions of the pool's batches.

    Pairs with equal keys (every pair is its own key without `key`) form a
    group, in order of first appearance; consecutive groups fill a batch
    until it holds at least PAIRS_PER_TASK pairs.
    """
    groups: dict[Hashable, list[int]] = {}
    for i, pair in enumerate(pairs):
        groups.setdefault(i if key is None else key(pair), []).append(i)
    batches: list[list[int]] = []
    batch: list[int] = []
    for group in groups.values():
        batch.extend(group)
        if len(batch) >= PAIRS_PER_TASK:
            batches.append(batch)
            batch = []
    if batch:
        batches.append(batch)
    return batches


def parallel_map(
    task: Callable[[object, Sequence[LabelledPair]], Iterable],
    setup: Callable[[EngineConfig], object],
    config: EngineConfig,
    pairs: Sequence[LabelledPair],
    jobs: int,
    key: Callable[[LabelledPair], Hashable] | None = None,
) -> list:
    """One result per pair, in input order, from `task(setup(config), batch)`.

    A task takes a batch of pairs and yields one result per pair, in order.
    jobs == 1 runs all pairs inline as one batch.  Otherwise `jobs` worker
    processes each run `setup` once and take batches of about
    PAIRS_PER_TASK pairs, never splitting the pairs of one `key(pair)`;
    task, setup, pairs and results must pickle.  A set-up error keeps its
    class; an error raised on a pair names the pair, and in a pool cancels
    the batches not yet started.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return _run_task(task, setup(config), pairs)
    batches = _batches(pairs, key)
    results: list = [None] * len(pairs)
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(setup, config)
    ) as pool:
        try:
            outputs = pool.map(
                partial(_worker_task, task), [[pairs[i] for i in batch] for batch in batches]
            )
            for batch, output in zip(batches, outputs):
                for i, result in zip(batch, output):
                    results[i] = result
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return results


# ---------------------------------------------------------------------------
# Features and traces

def scoring_state(config: EngineConfig, stores: KnowledgeStores | None = None):
    """(stores, feature params, preprocessing settings) for scoring under config."""
    if stores is None:
        stores = build_stores(config)
    return stores, feature_params(config), prep_config(config)


def _score_task(state, pairs: Sequence[LabelledPair]):
    return score_batch([(pair.suspect_text, pair.source_text) for pair in pairs], *state)


def score_pairs(
    pairs: Sequence[LabelledPair],
    config: EngineConfig,
    jobs: int = 1,
    stores: KnowledgeStores | None = None,
) -> list[PassageScore]:
    """Vector and best semantic matches for each pair, in input order.

    All pairs of one source text are scored in one batch, so the source is
    preprocessed, and its word tables built, once; under a pool, batches
    of distinct sources are packed as for any other task.  Prebuilt stores
    serve only the inline run; pool workers load their own.
    """
    setup = partial(scoring_state, stores=stores) if jobs == 1 else scoring_state
    return parallel_map(
        _score_task, setup, config, pairs, jobs, key=attrgetter("source_text")
    )


def extract_features(
    pairs: Sequence[LabelledPair],
    config: EngineConfig,
    jobs: int = 1,
    stores: KnowledgeStores | None = None,
) -> list[SimilarityVector]:
    """Similarity vectors for each pair, in input order."""
    return [score.vector for score in score_pairs(pairs, config, jobs, stores)]


def trace_records(pair_id: str, score: PassageScore) -> list[dict]:
    """Word-match traces: the best semantic source sentence per suspect sentence."""
    return [
        {
            "pair_id": pair_id,
            "suspect_sentence": best.suspect_sentence,
            "source_sentence": best.source_sentence,
            "matches": [m.to_dict() for m in best.matches],
        }
        for best in score.best_semantic
    ]


# ---------------------------------------------------------------------------
# Baseline


def _containment_task(gp: GstParams, pairs: Sequence[LabelledPair]) -> Iterable[float]:
    return (gst_containment(pair.suspect_text, pair.source_text, gp) for pair in pairs)


def baseline_containments(
    pairs: Sequence[LabelledPair],
    config: EngineConfig,
    jobs: int = 1,
) -> list[float]:
    """Tiling containment score for each pair, in input order."""
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
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # count line breaks as the reader below does: \r\n, \r or \n
        head = raw[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParaplagError(f"{path}:{line_no}: invalid UTF-8") from None
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
