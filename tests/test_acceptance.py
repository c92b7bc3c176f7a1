"""Acceptance gate: one test and one printed pass/fail line per criterion.

Criteria 5 and 6 need real corpora and knowledge resources that do not
ship with the repository.  Point these environment variables at local
copies to activate them; otherwise the tests skip with a loud reason:

  PARAPLAG_CROWD_DIR    crowd-sourced corpus directory
  PARAPLAG_CS_DIR       short-answer corpus directory
  PARAPLAG_CS_TRUTH     its truth table file
  PARAPLAG_LEXDB        lexical database directory
  PARAPLAG_IC           information-content file
  PARAPLAG_EMB          embedding file
  PARAPLAG_EMB_FORMAT   'text' (default) or 'binary'
"""

import itertools
import json
import math
import os
import random
import time
from functools import lru_cache

import pytest

from paraplag.classify import (
    ClassifierSpec,
    Confusion,
    SimilarityVector,
    auc_roc,
    cross_validate,
    feature_matrix,
    fit_classifier,
    metrics,
    misclassification_rate,
)
from paraplag.cli import main
from paraplag.config import EngineConfig
from paraplag.corpus import (
    NOT_PARAPHRASED,
    PARAPHRASED,
    LabelledPair,
    count_labels,
    load_clough_stevenson,
    load_crowd,
    save_pairs_jsonl,
)
from paraplag.editsim import insdel_similarity, word_edit_distance
from paraplag.engine import (
    baseline_containments,
    extract_features,
    labelled_dataset,
    threshold_report,
)
from paraplag.gst import GstParams, tiling_matches
from paraplag.resources import KnowledgeStores
from paraplag.resources.embeddings import cosine
from paraplag.semsim import semantic_similarity
from paraplag.synsim import syntactic_similarity
from paraplag.textprep import preprocess_passage


_CAPTURE = None


@pytest.fixture(autouse=True)
def _terminal_capture(capfd):
    # criterion lines must reach the real terminal even under fd capture
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(line: str) -> None:
    if _CAPTURE is None:
        print(line)
    else:
        with _CAPTURE.disabled():
            print(line)


def report_line(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    _emit(f"CRITERION {number} {name}: {status}{suffix}")


def skip_line(number: int, name: str, reason: str) -> None:
    _emit(f"CRITERION {number} {name}: SKIP  ({reason})")
    pytest.skip(f"criterion {number} ({name}): {reason}")


# ---------------------------------------------------------------------------
# 1. Published confusion matrices reproduce the published metrics.

def test_criterion_1_metric_identities():
    checks = []

    c3 = Confusion(tp=3815, fp=934, fn=252, tn=2858)
    p, r, f1 = metrics(c3)
    checks.append(abs(p - 0.803) <= 0.001)
    checks.append(abs(r - 0.938) <= 0.001)
    checks.append(abs(f1 - 0.865) <= 0.001)
    checks.append(abs(misclassification_rate(c3) - 0.1509) <= 0.0001)

    c4 = Confusion(tp=3748, fp=1133, fn=319, tn=2659)
    checks.append(abs(metrics(c4)[2] - 0.838) <= 0.001)
    checks.append(abs(misclassification_rate(c4) - 0.1847) <= 0.0001)

    c6 = Confusion(tp=35, fp=3, fn=5, tn=52)
    checks.append(abs(misclassification_rate(c6) - 0.0842) <= 0.0001)

    ok = all(checks)
    report_line(1, "metric-identities", ok, f"{sum(checks)}/{len(checks)} identities")
    assert ok


# ---------------------------------------------------------------------------
# 2. Word-order cosine on the published order vectors.

def test_criterion_2_published_cosine():
    base = [float(i) for i in range(1, 14)]
    other = [13.0, 12.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 7.0, 6.0, 9.0, 10.0, 11.0]
    value = cosine(base, other)
    ok = abs(value - 671 / 819) <= 1e-9
    report_line(2, "published-cosine", ok, f"cosine={value:.10f}, target=671/819")
    assert ok


# ---------------------------------------------------------------------------
# 3. Oracle suites with stated time budgets.

@lru_cache(maxsize=None)
def _edit_oracle(a: tuple, b: tuple) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    step = 0 if a[0] == b[0] else 1
    return min(
        _edit_oracle(a[1:], b) + 1,
        _edit_oracle(a, b[1:]) + 1,
        _edit_oracle(a[1:], b[1:]) + step,
    )


def _edit_distance_suite() -> tuple[bool, int, float]:
    alphabet = ("x", "y", "z")
    start = time.perf_counter()
    checked = 0
    for la in range(0, 7):
        for lb in range(0, 7 - la):
            for a in itertools.product(alphabet, repeat=la):
                for b in itertools.product(alphabet, repeat=lb):
                    if word_edit_distance(list(a), list(b)) != _edit_oracle(a, b):
                        return False, checked, time.perf_counter() - start
                    checked += 1
    return True, checked, time.perf_counter() - start


def _gst_round_oracle(sus: str, src: str, min_match: int) -> list[tuple[int, int, int]]:
    # brute force: each round takes the longest unmarked common substring,
    # ties by smallest suspect offset then source offset
    sus_marked = [False] * len(sus)
    src_marked = [False] * len(src)
    rounds = []
    while True:
        best = None
        for a in range(len(sus)):
            for b in range(len(src)):
                length = 0
                while (
                    a + length < len(sus)
                    and b + length < len(src)
                    and not sus_marked[a + length]
                    and not src_marked[b + length]
                    and sus[a + length] == src[b + length]
                ):
                    length += 1
                if length >= min_match:
                    candidate = (-length, a, b)
                    if best is None or candidate < best:
                        best = candidate
        if best is None:
            return rounds
        neg_length, a, b = best
        length = -neg_length
        rounds.append((a, b, length))
        for i in range(length):
            sus_marked[a + i] = True
            src_marked[b + i] = True


def _gst_suite() -> tuple[bool, int, float]:
    rng = random.Random(31)
    params = GstParams(min_tile=3)
    start = time.perf_counter()
    for trial in range(200):
        sus = "".join(rng.choice("ab ") for _ in range(rng.randint(0, 25))).strip()
        src = "".join(rng.choice("ab ") for _ in range(rng.randint(0, 25))).strip()
        got = [(t.suspect_offset, t.source_offset, t.length) for t in tiling_matches(sus, src, params)]
        want = _gst_round_oracle(sus, src, 3)
        if got != want:
            return False, trial, time.perf_counter() - start
    return True, 200, time.perf_counter() - start


def _auc_brute(scores, labels) -> float:
    pos = [s for s, lab in zip(scores, labels) if lab]
    neg = [s for s, lab in zip(scores, labels) if not lab]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def _auc_suite() -> tuple[bool, int, float]:
    rng = random.Random(47)
    start = time.perf_counter()
    for trial in range(200):
        n = rng.randint(2, 50)
        # grid-valued scores so ties actually occur
        scores = [rng.randint(0, 8) / 8.0 for _ in range(n)]
        labels = [rng.random() < 0.5 for _ in range(n)]
        labels[0], labels[1] = True, False  # both classes guaranteed
        if abs(auc_roc(scores, labels) - _auc_brute(scores, labels)) > 1e-12:
            return False, trial, time.perf_counter() - start
    return True, 200, time.perf_counter() - start


def _nb_suite() -> bool:
    def row(x, lab):
        return SimilarityVector(semantic=x, syntactic=x, insdel=x), lab

    train = [row(0.2, False), row(0.4, False), row(0.6, True), row(0.8, True)]
    model = fit_classifier(
        ClassifierSpec("nb"), feature_matrix(x for x, _ in train), [lab for _, lab in train]
    )
    # closed form: equal priors, per-dimension means 0.3/0.7, variance 0.01
    var = 0.01
    for x in (0.5, 0.45, 0.55, 0.3, 0.62, 0.8, 0.95):
        log_pos = 3 * (-0.5 * math.log(2 * math.pi * var) - (x - 0.7) ** 2 / (2 * var))
        log_neg = 3 * (-0.5 * math.log(2 * math.pi * var) - (x - 0.3) ** 2 / (2 * var))
        expected = 1.0 / (1.0 + math.exp(log_neg - log_pos))
        _, [score] = model.predict(
            feature_matrix([SimilarityVector(semantic=x, syntactic=x, insdel=x)])
        )
        if abs(score - expected) > 1e-9:
            return False
    return True


def test_criterion_3_oracle_suites():
    edit_ok, edit_n, edit_t = _edit_distance_suite()
    gst_ok, gst_n, gst_t = _gst_suite()
    auc_ok, auc_n, auc_t = _auc_suite()
    nb_ok = _nb_suite()
    ok = (
        edit_ok and edit_t <= 1.0
        and gst_ok and gst_t <= 5.0
        and auc_ok and auc_t <= 1.0
        and nb_ok
    )
    report_line(
        3,
        "oracle-suites",
        ok,
        f"edit {edit_n} pairs {edit_t:.2f}s; gst {gst_n} pairs {gst_t:.2f}s; "
        f"auc {auc_n} sets {auc_t:.2f}s; nb closed-form 1e-9",
    )
    assert edit_ok and gst_ok and auc_ok and nb_ok
    assert edit_t <= 1.0 and gst_t <= 5.0 and auc_t <= 1.0


# ---------------------------------------------------------------------------
# 4. Self-similarity is exactly 1.0 on every dimension.

CONTENT_WORDS = [
    "river", "stone", "cloud", "meadow", "forest", "harbor", "lantern",
    "copper", "glacier", "valley", "thunder", "sparrow", "timber", "ember",
]
FILLER_WORDS = ["the", "a", "of", "and", "in", "on", "with", "very"]


def random_sentence(rng: random.Random) -> str:
    words = []
    for _ in range(rng.randint(3, 12)):
        pool = CONTENT_WORDS if rng.random() < 0.6 else FILLER_WORDS
        words.append(rng.choice(pool))
    words.insert(0, rng.choice(CONTENT_WORDS))  # at least one content token
    if rng.random() < 0.3:
        words.insert(rng.randint(1, len(words) - 1), words[-1] + ",")
    return " ".join(words).capitalize() + rng.choice([".", "!", "?"])


def test_criterion_4_reflexivity():
    rng = random.Random(69)
    stores = KnowledgeStores()
    ok = True
    for _ in range(100):
        [sentence] = preprocess_passage(random_sentence(rng))
        stems = [t.stem for t in sentence.content_tokens]
        if semantic_similarity(sentence, sentence, stores) != 1.0:
            ok = False
        if syntactic_similarity(sentence.all_tokens, sentence.all_tokens) != 1.0:
            ok = False
        if insdel_similarity(stems, stems) != 1.0:
            ok = False
    report_line(4, "reflexivity", ok, "100 sentences, all three dimensions exactly 1.0")
    assert ok


# ---------------------------------------------------------------------------
# 5. Corpus loaders report the documented label counts.

def test_criterion_5_corpus_counts():
    crowd_dir = os.environ.get("PARAPLAG_CROWD_DIR")
    cs_dir = os.environ.get("PARAPLAG_CS_DIR")
    cs_truth = os.environ.get("PARAPLAG_CS_TRUTH")
    parts = []
    ok = True
    if crowd_dir:
        counts = count_labels(load_crowd(crowd_dir))
        good = counts == (7859, 4067, 3792)
        ok = ok and good
        parts.append(f"crowd {counts} {'ok' if good else 'expected (7859, 4067, 3792)'}")
    if cs_dir and cs_truth:
        counts = count_labels(load_clough_stevenson(cs_dir, cs_truth))
        good = counts == (95, 38, 57)
        ok = ok and good
        parts.append(f"cs {counts} {'ok' if good else 'expected (95, 38, 57)'}")
    if not parts:
        skip_line(
            5, "corpus-counts",
            "set PARAPLAG_CROWD_DIR and/or PARAPLAG_CS_DIR + PARAPLAG_CS_TRUTH; counts not verified",
        )
    report_line(5, "corpus-counts", ok, "; ".join(parts))
    assert ok


# ---------------------------------------------------------------------------
# 6. End-to-end reproduction with user-supplied resources.

def _resource_config() -> EngineConfig | None:
    lexdb = os.environ.get("PARAPLAG_LEXDB")
    ic = os.environ.get("PARAPLAG_IC")
    emb = os.environ.get("PARAPLAG_EMB")
    if not (lexdb and ic and emb):
        return None
    return EngineConfig(
        lexdb_dir=lexdb,
        ic_file=ic,
        embedding_file=emb,
        embedding_format=os.environ.get("PARAPLAG_EMB_FORMAT", "text"),
    )


def _single_dimension_f1(vectors, pairs, pick, spec, folds, seed) -> float:
    flat = [
        SimilarityVector(semantic=pick(v), syntactic=pick(v), insdel=pick(v))
        for v in vectors
    ]
    report = cross_validate(labelled_dataset(pairs, flat), spec, k=folds, seed=seed)
    return report.f1


def test_criterion_6_end_to_end():
    config = _resource_config()
    cs_dir = os.environ.get("PARAPLAG_CS_DIR")
    cs_truth = os.environ.get("PARAPLAG_CS_TRUTH")
    crowd_dir = os.environ.get("PARAPLAG_CROWD_DIR")
    if config is None or not ((cs_dir and cs_truth) or crowd_dir):
        skip_line(
            6, "end-to-end",
            "set PARAPLAG_LEXDB, PARAPLAG_IC, PARAPLAG_EMB plus corpus variables; not verified",
        )
    jobs = os.cpu_count() or 1
    spec = ClassifierSpec(kind="knn")
    parts = []
    ok = True

    if cs_dir and cs_truth:
        start = time.perf_counter()
        pairs = load_clough_stevenson(cs_dir, cs_truth)
        vectors = extract_features(pairs, config, jobs=jobs)
        report = cross_validate(labelled_dataset(pairs, vectors), spec, k=10, seed=0)
        labels = [p.is_paraphrased for p in pairs]
        containments = baseline_containments(pairs, config, jobs=jobs)
        base = threshold_report(containments, labels, config.gst_threshold)
        elapsed = time.perf_counter() - start
        good = report.f1 >= 0.82 and report.f1 > base.f1
        ok = ok and good
        parts.append(
            f"cs combined F1 {report.f1:.3f} (need >=0.82), baseline {base.f1:.3f}, {elapsed:.0f}s"
        )

    if crowd_dir:
        start = time.perf_counter()
        pairs = load_crowd(crowd_dir)
        rng = random.Random(0)
        keep = sorted(rng.sample(range(len(pairs)), min(500, len(pairs))))
        pairs = [pairs[i] for i in keep]
        vectors = extract_features(pairs, config, jobs=jobs)
        report = cross_validate(labelled_dataset(pairs, vectors), spec, k=10, seed=0)
        labels = [p.is_paraphrased for p in pairs]
        containments = baseline_containments(pairs, config, jobs=jobs)
        base = threshold_report(containments, labels, config.gst_threshold)
        singles = {
            "sem": _single_dimension_f1(vectors, pairs, lambda v: v.semantic, spec, 10, 0),
            "syn": _single_dimension_f1(vectors, pairs, lambda v: v.syntactic, spec, 10, 0),
            "ins": _single_dimension_f1(vectors, pairs, lambda v: v.insdel, spec, 10, 0),
        }
        elapsed = time.perf_counter() - start
        good = report.f1 >= base.f1 and all(
            report.f1 >= f1 - 0.02 for f1 in singles.values()
        )
        ok = ok and good
        parts.append(
            f"crowd-500 combined F1 {report.f1:.3f}, baseline {base.f1:.3f}, "
            + ", ".join(f"{k} {v:.3f}" for k, v in singles.items())
            + f", {elapsed:.0f}s"
        )

    report_line(6, "end-to-end", ok, "; ".join(parts))
    assert ok


# ---------------------------------------------------------------------------
# 7. Byte-identical evaluation reports under a fixed seed.

def test_criterion_7_determinism(tmp_path):
    rng = random.Random(12)
    words = ["river", "stone", "cloud", "meadow", "forest", "harbor", "copper"]
    pairs = []
    for i in range(20):
        source = " ".join(rng.sample(words, 5)).capitalize() + "."
        if i % 2 == 0:
            pairs.append(
                LabelledPair(
                    pair_id=f"p{i:02d}", suspect_text=source, source_text=source,
                    label=PARAPHRASED, origin="synthetic", raw_category="",
                )
            )
        else:
            suspect = " ".join(rng.sample(words, 4)[::-1]) + " granite."
            pairs.append(
                LabelledPair(
                    pair_id=f"p{i:02d}", suspect_text=suspect.capitalize(), source_text=source,
                    label=NOT_PARAPHRASED, origin="synthetic", raw_category="",
                )
            )
    corpus = tmp_path / "pairs.jsonl"
    save_pairs_jsonl(pairs, corpus)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 41, "folds": 4}), encoding="utf-8")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = main(["evaluate", str(corpus), "--corpus", "jsonl", "--config", str(cfg), "--out", str(out1)])
    rc2 = main(["evaluate", str(corpus), "--corpus", "jsonl", "--config", str(cfg), "--out", str(out2)])
    bytes1 = (out1 / "report.json").read_bytes()
    bytes2 = (out2 / "report.json").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and bytes1 == bytes2
    report_line(7, "determinism", ok, f"report.json {len(bytes1)} bytes, runs identical")
    assert ok
