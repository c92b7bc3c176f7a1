"""Pair-scoring pipeline behind the command-line entry points.

Scores labelled text pairs (vectors, and the word matches that traces
show), computes tiling-containment baseline scores, builds evaluation
reports, and round-trips per-pair feature tables as CSV.  Every fan-out
goes through `parallel_map`: one job runs inline, and each pool worker
runs the set-up (loading stores, say) once.  Output order always follows
input order, so results never depend on how work was scheduled.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Sequence

from .classify import (
    Confusion,
    EvalReport,
    LabelledVector,
    PassageScore,
    SimilarityVector,
    build_report,
    score_passages,
)
from .config import EngineConfig, build_stores, feature_params, gst_params, prep_config
from .corpus import LabelledPair
from .errors import ParaplagError
from .gst import GstParams, gst_containment
from .resources import KnowledgeStores
from .semsim import trace_matches

# ---------------------------------------------------------------------------
# Fan-out

# This pool worker's set-up result, "state", or the "error" it raised, which
# every task re-raises: a raising initializer would break the whole pool.
_WORKER: dict = {}


def _init_worker(setup, config: EngineConfig) -> None:
    try:
        _WORKER["state"] = setup(config)
    except Exception as exc:
        _WORKER["error"] = exc


def _run_task(task, state, pair: LabelledPair):
    try:
        return task(state, pair)
    except ParaplagError as exc:
        exc.args = (f"pair {pair.pair_id}: {exc}",)
        raise


def _worker_task(task, pair: LabelledPair):
    if "error" in _WORKER:
        raise _WORKER["error"]
    return _run_task(task, _WORKER["state"], pair)


def parallel_map(
    task: Callable,
    setup: Callable[[EngineConfig], object],
    config: EngineConfig,
    pairs: Sequence[LabelledPair],
    jobs: int,
) -> list:
    """`task(setup(config), pair)` for each pair, in input order.

    jobs == 1 runs inline; otherwise `jobs` worker processes each run
    `setup` once, so task and setup must pickle.  A set-up error keeps its
    class; an error raised on a pair names the pair, and in a pool cancels
    the pairs not yet started.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        state = setup(config)
        return [_run_task(task, state, pair) for pair in pairs]
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(setup, config)
    ) as pool:
        try:
            return list(pool.map(partial(_worker_task, task), pairs, chunksize=8))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


# ---------------------------------------------------------------------------
# Features and traces

def scoring_state(config: EngineConfig, stores: KnowledgeStores | None = None):
    """(stores, feature params, preprocessing settings) for scoring under config."""
    if stores is None:
        stores = build_stores(config)
    return stores, feature_params(config), prep_config(config)


def _score_task(state, pair: LabelledPair) -> PassageScore:
    return score_passages(pair.suspect_text, pair.source_text, *state)


def score_pairs(
    pairs: Sequence[LabelledPair],
    config: EngineConfig,
    jobs: int = 1,
    stores: KnowledgeStores | None = None,
) -> list[PassageScore]:
    """Vector and best semantic matches for each pair, in input order.

    Prebuilt stores serve only the inline run; pool workers load their own.
    """
    setup = partial(scoring_state, stores=stores) if jobs == 1 else scoring_state
    return parallel_map(_score_task, setup, config, pairs, jobs)


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
            "matches": trace_matches(best.matches),
        }
        for best in score.best_semantic
    ]


# ---------------------------------------------------------------------------
# Baseline


def _containment_task(gp: GstParams, pair: LabelledPair) -> float:
    return gst_containment(pair.suspect_text, pair.source_text, gp)


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
    """Inverse of write_feature_csv: ids plus (vector, label) rows."""
    ids: list[str] = []
    dataset: list[LabelledVector] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(FEATURE_FIELDS):
            raise ParaplagError(
                f"feature table {path} has header {header}, expected {list(FEATURE_FIELDS)}"
            )
        for row in reader:
            if not row:
                continue
            if len(row) != len(FEATURE_FIELDS):
                raise ParaplagError(f"feature table {path} has a malformed row: {row}")
            pair_id, label, semantic, syntactic, insdel = row
            ids.append(pair_id)
            dataset.append(
                (
                    SimilarityVector(
                        semantic=float(semantic),
                        syntactic=float(syntactic),
                        insdel=float(insdel),
                    ),
                    bool(int(label)),
                )
            )
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
