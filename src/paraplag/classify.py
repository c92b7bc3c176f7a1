"""Feature fusion and evaluation: from passage scores to labelled decisions.

`score_source`, the one scoring pass, turns each suspect/source passage
pair into one three-component vector (the semantic, word-order, and
insert/delete dimensions) and keeps the word matches that traces show.
Two small classifiers, k-nearest-neighbours and Gaussian Naive Bayes, fit
and `predict` on (n, 3) matrices of those vectors, and a stratified
cross-validation driver, one fit and one `predict` per fold, produces the
confusion matrix, precision/recall/F1, pooled AUC, and per-fold metrics as
one JSON-ready report.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

import numpy as np

from .editsim import SourceStems
from .errors import ParaplagError, is_integer
from .resources import KnowledgeStores
from .semsim import PairTables, SemThresholds, Vocabulary, WordMatch, best_sentence
from .synsim import max_syntactic_similarity
from .textprep import STOPWORDS, preprocess_passage

LabelledVector = tuple["SimilarityVector", bool]


class EmptyPassage(ParaplagError):
    """Passage produced no sentences at all."""


class EmptyTrainingSet(ParaplagError):
    """Classifier fitted with no training examples."""


class DegenerateClass(ParaplagError):
    """A class label has no training examples."""


class InsufficientData(ParaplagError):
    """Too few examples of a class to fill every fold, or to train on for knn_k."""


class SingleClassInput(ParaplagError):
    """Ranking metric needs both classes present."""


class MalformedModel(ParaplagError):
    """A model file holds no model that `save_model` could have written."""


@dataclass(frozen=True)
class SimilarityVector:
    semantic: float
    syntactic: float
    insdel: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")


# ---------------------------------------------------------------------------
# Passage-level feature extraction


@dataclass(frozen=True)
class FeatureParams:
    """Sentence-matching thresholds for passage-level aggregation."""

    sem: SemThresholds = field(default_factory=SemThresholds)
    discard_semantic: float = 0.3
    discard_syntactic: float = 0.3
    discard_insdel: float = 0.3

    def __post_init__(self):
        for name in ("discard_semantic", "discard_syntactic", "discard_insdel"):
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _aggregate(per_sentence_maxima: list[float], discard: float) -> float:
    kept = [s for s in per_sentence_maxima if s >= discard]
    if not kept:
        return 0.0
    return sum(kept) / len(kept)


@dataclass(frozen=True)
class SentenceMatch:
    """A suspect sentence's best semantic source sentence and its word matches."""

    suspect_sentence: int
    source_sentence: int
    matches: tuple[WordMatch, ...]


@dataclass(frozen=True)
class PassageScore:
    """Passage vector plus, per contentful suspect sentence, its best semantic match."""

    vector: SimilarityVector
    best_semantic: tuple[SentenceMatch, ...]


def score_source(
    source: str,
    suspects: Iterable[str],
    vocab: Vocabulary,
    params: FeatureParams = FeatureParams(),
    stopwords: frozenset[str] = STOPWORDS,
) -> Iterator[PassageScore]:
    """The `PassageScore` of each suspect against `source`, in order, one at a time.

    Every suspect sentence keeps only its best score against the source
    passage; scores under the dimension's discard threshold drop out, and
    the survivors' mean is the passage score (0.0 when nothing survives).
    The first source sentence with the best semantic score is the one kept
    with its word matches.

    What depends on a word alone is worked out once per `vocab`, the run's
    `Vocabulary`, whose stores are the ones scored with: a token's
    normalized form and stem, and the word's synonyms, embedding rows and
    ranked subsumers, for suspect and source words alike.  What depends on
    the source is worked out once per call: the source is preprocessed into
    a `PairTables` with `params.sem`, so a suspect word's candidate source
    words are found once per source, not once per suspect; its content
    stems are indexed for insert/delete in an `editsim.SourceStems`, and its
    token lists kept for word order.  All go when the generator is done.

    One walk over a suspect's sentences computes all three dimensions,
    after the table judges the embedding channel for the passage's words at
    once.  Each dimension's best over the source sentences is the full
    scan's bit for bit, and two of them compare only the sentences that can
    win:

      semantic       `semsim.best_sentence`, the first source sentence with
                     the most matches, matches sentences in falling order of
                     how many suspect words have a candidate there
      word order     every source sentence is scanned, up to the first 1.0
      insert/delete  `editsim.SourceStems.best` compares sentences in
                     falling order of the bound their shared stems, read
                     off the index's postings, put on the similarity
    """
    tables = PairTables(preprocess_passage(source, stopwords, vocab.forms), vocab, params.sem)
    sr_sentences = tables.sentences
    source_stems = SourceStems([t.stem for t in sr.content_tokens] for sr in sr_sentences)
    sr_tokens = [sr.all_tokens for sr in sr_sentences]
    for suspect in suspects:
        sp_sentences = preprocess_passage(suspect, stopwords, vocab.forms)
        if not sp_sentences or not sr_sentences:
            raise EmptyPassage("both passages need at least one sentence")
        tables.embed(query for sp in sp_sentences for query in sp.content_tokens)
        semantic_maxima = []
        syntactic_maxima = []
        insdel_maxima = []
        best_semantic = []
        for sp in sp_sentences:
            if sp.all_tokens:
                syntactic_maxima.append(max_syntactic_similarity(sp.all_tokens, sr_tokens))
            if not sp.content_tokens:
                continue
            source_id, matches = best_sentence(sp, tables)
            semantic_maxima.append(len(matches) / len(sp.content_tokens))
            best_semantic.append(SentenceMatch(sp.sentence_id, source_id, tuple(matches)))
            insdel_maxima.append(source_stems.best([t.stem for t in sp.content_tokens]))
        vector = SimilarityVector(
            semantic=_aggregate(semantic_maxima, params.discard_semantic),
            syntactic=_aggregate(syntactic_maxima, params.discard_syntactic),
            insdel=_aggregate(insdel_maxima, params.discard_insdel),
        )
        yield PassageScore(vector, tuple(best_semantic))


def passage_features(
    suspect: str,
    source: str,
    stores: KnowledgeStores = KnowledgeStores(),
    params: FeatureParams = FeatureParams(),
    stopwords: frozenset[str] = STOPWORDS,
) -> SimilarityVector:
    """The vector of one pair's `score_source` score, with a vocabulary of its own."""
    return next(score_source(source, [suspect], Vocabulary(stores), params, stopwords)).vector


# ---------------------------------------------------------------------------
# Confusion arithmetic


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name, value in vars(self).items():
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative int, got {value!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "Confusion") -> "Confusion":
        return Confusion(
            self.tp + other.tp,
            self.fp + other.fp,
            self.fn + other.fn,
            self.tn + other.tn,
        )

    @classmethod
    def tally(cls, outcomes: Iterable[tuple[bool, bool]]) -> "Confusion":
        """Count (predicted, actual) outcomes."""
        n = Counter((bool(predicted), bool(actual)) for predicted, actual in outcomes)
        return cls(n[True, True], n[True, False], n[False, True], n[False, False])


def metrics(c: Confusion) -> tuple[float, float, float]:
    """(precision, recall, f1), each 0.0 when its denominator vanishes."""
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return precision, recall, f1


def misclassification_rate(c: Confusion) -> float:
    return (c.fp + c.fn) / c.total if c.total else 0.0


def auc_roc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Chance a random positive outscores a random negative; ties count half."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels must align")
    flags = [bool(l) for l in labels]
    n_pos = sum(flags)
    n_neg = len(flags) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInput("need at least one positive and one negative")
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


# ---------------------------------------------------------------------------
# Classifiers


def _array(name: str, value, shape: tuple, kinds: str) -> np.ndarray:
    """`value` as an array of `shape` (None: any length) and a dtype kind in `kinds`."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        array = np.asarray(None)
    if (
        array.dtype.kind not in kinds
        or array.ndim != len(shape)
        or any(want not in (None, got) for want, got in zip(shape, array.shape))
    ):
        what = "booleans" if kinds == "b" else "numbers"
        dims = str(tuple("n" if d is None else d for d in shape)).replace("'", "")
        raise ValueError(f"{name} must be a {dims} array of {what}")
    return array


def _finite(name: str, value, shape: tuple) -> np.ndarray:
    array = _array(name, value, shape, "iuf").astype(np.float64, copy=False)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


@dataclass
class KnnModel:
    """k-nearest neighbours: the training rows, their labels and the vote size."""

    points: np.ndarray  # (n, 3) float64
    labels: np.ndarray  # (n,) bool
    k: int

    # Most (test rows x training rows) cells `predict` holds in one array.
    BLOCK_ELEMENTS = 1 << 16
    kind: ClassVar[str] = "knn"

    def __post_init__(self):
        self.points = _finite("points", self.points, (None, 3))
        n = len(self.points)
        self.labels = _array("labels", self.labels, (n,), "b")
        if not (is_integer(self.k) and 1 <= self.k <= n):
            raise ValueError(f"k must be an integer in [1, {n}], got {self.k!r}")
        self.k = int(self.k)  # a numpy integer would not serialize

    def predict(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(m,) labels and positive shares of the k nearest rows for (m, 3) `points`.

        Ties in distance break on insert order; a share of exactly 0.5 is negative.
        Rows are predicted in blocks of at most `BLOCK_ELEMENTS` distances.
        """
        block = max(1, self.BLOCK_ELEMENTS // len(self.points))
        scores = np.empty(len(points))
        for start in range(0, len(points), block):
            rows = points[start : start + block]
            # summing the squared column differences keeps every temporary (block, n)
            squared = sum((self.points[:, c] - rows[:, c, None]) ** 2 for c in range(3))
            nearest = np.argsort(squared, axis=1, kind="stable")[:, : self.k]
            scores[start : start + block] = np.count_nonzero(self.labels[nearest], axis=1) / self.k
        return scores > 0.5, scores


@dataclass
class NbModel:
    """Gaussian naive Bayes: per-class feature means, floored variances and priors."""

    means: np.ndarray  # (2, 3): row 0 negative, row 1 positive
    variances: np.ndarray  # (2, 3), floored
    priors: np.ndarray  # (2,)

    VAR_FLOOR = 1e-9
    kind: ClassVar[str] = "nb"

    def __post_init__(self):
        self.means = _finite("means", self.means, (2, 3))
        self.variances = _finite("variances", self.variances, (2, 3))
        self.priors = _finite("priors", self.priors, (2,))
        if not (self.variances > 0.0).all():
            raise ValueError("variances must be > 0")
        if not ((self.priors > 0.0) & (self.priors <= 1.0)).all():
            raise ValueError("priors must be in (0, 1]")

    def predict(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(m,) labels and positive posteriors for (m, 3) `points`; exactly 0.5 is positive."""
        log_joint = np.log(self.priors) + np.sum(
            -0.5 * np.log(2.0 * np.pi * self.variances)
            - (points[:, None, :] - self.means) ** 2 / (2.0 * self.variances),
            axis=2,
        )
        joint = np.exp(log_joint - log_joint.max(axis=1, keepdims=True))
        posteriors = joint[:, 1] / joint.sum(axis=1)
        return posteriors >= 0.5, posteriors


Model = KnnModel | NbModel
# The one table of classifier kinds: each model class by the `kind` it saves as.
MODELS: dict[str, type[Model]] = {cls.kind: cls for cls in (KnnModel, NbModel)}


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    knn_k: int = 5

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ValueError(f"kind must be one of {', '.join(MODELS)}, got {self.kind!r}")
        if not is_integer(self.knn_k):
            raise ValueError(f"knn_k must be an integer, got {self.knn_k!r}")
        if self.knn_k < 1:
            raise ValueError(f"knn_k must be >= 1, got {self.knn_k}")


def feature_matrix(vectors: Iterable[SimilarityVector]) -> np.ndarray:
    """The (n, 3) float64 rows of `vectors`: semantic, syntactic, insdel."""
    rows = [(v.semantic, v.syntactic, v.insdel) for v in vectors]
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def fit_classifier(spec: ClassifierSpec, points: np.ndarray, labels: np.ndarray) -> Model:
    """The `spec.kind` model of (n, 3) `points` and their (n,) bool `labels`.

    k-NN keeps the rows; naive Bayes keeps each class's means, variances
    floored at `NbModel.VAR_FLOOR`, and its share of the rows.
    """
    if len(points) == 0:
        raise EmptyTrainingSet("no training vectors")
    if spec.kind == KnnModel.kind:
        return KnnModel(points=points, labels=labels, k=spec.knn_k)
    points = _finite("points", points, (None, 3))
    labels = _array("labels", labels, (len(points),), "b")
    clusters = [points[labels == flag] for flag in (False, True)]
    for flag, cluster in zip((False, True), clusters):
        if not len(cluster):
            raise DegenerateClass(f"no training examples labelled {flag}")
    return NbModel(
        means=np.stack([c.mean(axis=0) for c in clusters]),
        variances=np.stack([np.maximum(c.var(axis=0), NbModel.VAR_FLOOR) for c in clusters]),
        priors=np.array([len(c) / len(points) for c in clusters]),
    )


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        payload = {"kind": model.kind, **vars(model)}
        json.dump(payload, fh, sort_keys=True, indent=2, default=np.ndarray.tolist)
        fh.write("\n")


def load_model(path) -> Model:
    """The model `save_model` wrote; `MalformedModel` names the file if it holds none."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
        kind = payload.pop("kind", None)
        cls = MODELS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"kind must be one of {', '.join(MODELS)}, got {kind!r}")
        keys = sorted(f.name for f in fields(cls))
        if sorted(payload) != keys:
            raise ValueError(
                f"a {kind} model has keys {', '.join(keys)}, got {', '.join(sorted(payload))}"
            )
        return cls(**payload)
    except ValueError as exc:  # also bad UTF-8 and bad JSON
        raise MalformedModel(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Cross-validation


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    confusion: Confusion
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    confusion: Confusion
    precision: float
    recall: float
    f1: float
    auc: float
    misclassification_rate: float
    folds: tuple[FoldMetrics, ...]


def build_report(confusion: Confusion, scores, labels, folds=()) -> EvalReport:
    """Report for a confusion matrix, with AUC over the matching scores."""
    auc = auc_roc(scores, labels)
    return EvalReport(
        confusion, *metrics(confusion), auc, misclassification_rate(confusion), folds
    )


def report_to_json(report: EvalReport) -> str:
    return json.dumps(asdict(report), sort_keys=True, indent=2)


def stratified_folds(labels: Sequence[bool], k: int, seed: int) -> list[list[int]]:
    """Disjoint index folds; per-class sizes differ by at most one item."""
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (False, True):
        indices = [i for i, lab in enumerate(labels) if bool(lab) == cls]
        rng.shuffle(indices)
        for j, idx in enumerate(indices):
            folds[j % k].append(idx)
    return [sorted(fold) for fold in folds]


def cross_validate(
    dataset: Sequence[LabelledVector],
    spec: ClassifierSpec,
    k: int = 10,
    seed: int = 0,
) -> EvalReport:
    """Stratified k-fold evaluation with pooled scores for AUC."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    labels = np.array([bool(lab) for _, lab in dataset], dtype=bool)
    for cls in (False, True):
        if np.count_nonzero(labels == cls) < k:
            raise InsufficientData(
                f"class {cls} has fewer than {k} examples; cannot stratify"
            )
    folds = stratified_folds(labels, k, seed)
    if spec.kind == KnnModel.kind:
        # the largest test fold leaves the smallest training set
        fold = max(range(k), key=lambda i: len(folds[i]))
        train_size = len(dataset) - len(folds[fold])
        if spec.knn_k > train_size:
            raise InsufficientData(
                f"knn_k must be <= {train_size}, the training size of fold {fold}, "
                f"got {spec.knn_k}"
            )
    points = feature_matrix(x for x, _ in dataset)
    pooled_scores: list[float] = []
    pooled_labels: list[bool] = []
    fold_metrics: list[FoldMetrics] = []
    aggregate = Confusion(0, 0, 0, 0)
    for fold_index, test_indices in enumerate(folds):
        test = np.isin(np.arange(len(dataset)), test_indices)
        model = fit_classifier(spec, points[~test], labels[~test])
        predicted, scores = model.predict(points[test])
        pooled_scores.extend(scores.tolist())
        pooled_labels.extend(labels[test].tolist())
        confusion = Confusion.tally(zip(predicted, labels[test]))
        fold_metrics.append(FoldMetrics(fold_index, confusion, *metrics(confusion)))
        aggregate = aggregate + confusion
    return build_report(aggregate, pooled_scores, pooled_labels, tuple(fold_metrics))
