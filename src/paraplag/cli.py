"""Command-line front end.

Five commands share one flat JSON config file:

  score     features + verdict for one suspect/source file pair
  evaluate  stratified cross-validation over a labelled corpus
  baseline  tiling-containment threshold rule over the same corpora
  fit       train a classifier on a corpus and save the model JSON
  crossval  cross-validation replayed from a saved feature table

Exit codes: 0 success, 2 usage or config error, 3 missing resources.
All randomness flows from one seed (config `seed`, overridable with
--seed), so equal invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
from typing import Optional, Sequence

from .classify import (
    EvalReport,
    InsufficientData,
    KnnModel,
    cross_validate,
    feature_matrix,
    fit_classifier,
    load_model,
    report_to_json,
    save_model,
    score_source,
)
from .config import (
    ConfigError,
    EngineConfig,
    MissingResource,
    classifier_spec,
    load_config,
    validate_resources,
)
from .corpus import (
    NOT_PARAPHRASED,
    PARAPHRASED,
    LabelledPair,
    load_clough_stevenson,
    load_crowd,
    load_pairs_jsonl,
)
from .engine import (
    baseline_containments,
    baseline_csv_rows,
    extract_features,
    labelled_dataset,
    read_feature_csv,
    score_pairs,
    scoring_state,
    threshold_report,
    trace_records,
    write_feature_csv,
)
from .errors import ParaplagError

CORPUS_KINDS = ("crowd", "cs", "jsonl")


def _read_text_file(path) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read().removeprefix("\ufeff")  # a mark of the encoding, not text
    except OSError as exc:
        raise ParaplagError(f"cannot read {path}: {exc}") from exc
    if not text.strip():
        raise ParaplagError(f"{path}: passage needs at least one sentence")
    return text


def _effective_config(args) -> EngineConfig:
    """The config file with any --seed override; its resource paths must exist."""
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    validate_resources(config)
    return config


def _load_pairs(args, config: EngineConfig) -> list[LabelledPair]:
    kind = args.corpus
    if kind == "crowd":
        pairs = load_crowd(args.corpus_path)
    elif kind == "cs":
        if args.truth is None:
            raise ConfigError("--corpus cs requires --truth TRUTH_FILE")
        pairs = load_clough_stevenson(args.corpus_path, args.truth)
    else:  # jsonl, the last of the parser's choices
        pairs = load_pairs_jsonl(args.corpus_path)
    if args.sample is not None and args.sample < len(pairs):
        rng = random.Random(config.seed)
        keep = sorted(rng.sample(range(len(pairs)), args.sample))
        pairs = [pairs[i] for i in keep]
    return pairs


def _write_report(out_dir: str, name: str, report: EvalReport) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
        fh.write("\n")
    return path


def _print_report(report: EvalReport, title: str) -> None:
    c = report.confusion
    print(title)
    print("                 predicted + | predicted -")
    print(f"  actual +  {c.tp:12d} | {c.fn:11d}")
    print(f"  actual -  {c.fp:12d} | {c.tn:11d}")
    print(
        f"  precision {report.precision:.4f}  recall {report.recall:.4f}  "
        f"f1 {report.f1:.4f}  auc {report.auc:.4f}  "
        f"misclassification {report.misclassification_rate:.4f}"
    )


def _write_traces(out_dir: str, pairs, scores) -> None:
    with open(os.path.join(out_dir, "traces.jsonl"), "w", encoding="utf-8") as fh:
        for pair, score in zip(pairs, scores):
            for record in trace_records(pair.pair_id, score):
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")


def _run_baseline(out_dir: str, pairs, config: EngineConfig, jobs: int) -> None:
    containments = baseline_containments(pairs, config, jobs=jobs)
    labels = [p.is_paraphrased for p in pairs]
    report = threshold_report(containments, labels, config.gst_threshold)
    _write_report(out_dir, "baseline.json", report)
    baseline_csv_rows(os.path.join(out_dir, "baseline.csv"), pairs, containments)
    _print_report(report, f"tiling baseline at threshold {config.gst_threshold}")


# ---------------------------------------------------------------------------
# Commands

def cmd_score(args) -> int:
    config = _effective_config(args)
    suspect = _read_text_file(args.suspect)
    source = _read_text_file(args.source)
    scored = next(score_source(source, [suspect], *scoring_state(config)))
    vec = scored.vector
    if args.model is not None:
        model = load_model(args.model)
        [label], [score] = model.predict(feature_matrix([vec]))
        rule = model.kind
    else:
        score = (vec.semantic + vec.syntactic + vec.insdel) / 3.0
        label = score >= config.fallback_threshold
        rule = "threshold"
    result = {
        "features": dataclasses.asdict(vec),
        "label": PARAPHRASED if label else NOT_PARAPHRASED,
        "score": score,
        "rule": rule,
    }
    if args.debug_traces:
        result["traces"] = trace_records("score", scored)
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def cmd_evaluate(args) -> int:
    config = _effective_config(args)
    pairs = _load_pairs(args, config)
    os.makedirs(args.out, exist_ok=True)
    if args.debug_traces:
        scores = score_pairs(pairs, config, jobs=args.jobs)
        vectors = [s.vector for s in scores]
    else:
        # the word matches are only for traces: a pool's workers send back vectors alone
        vectors = extract_features(pairs, config, jobs=args.jobs)
    dataset = labelled_dataset(pairs, vectors)
    report = cross_validate(
        dataset, classifier_spec(config), k=config.folds, seed=config.seed
    )
    _write_report(args.out, "report.json", report)
    write_feature_csv(os.path.join(args.out, "features.csv"), pairs, vectors)
    _print_report(report, f"{config.classifier} over {len(pairs)} pairs, {config.folds}-fold")
    if args.baseline:
        _run_baseline(args.out, pairs, config, args.jobs)
    if args.debug_traces:
        _write_traces(args.out, pairs, scores)
    return 0


def cmd_baseline(args) -> int:
    config = _effective_config(args)
    pairs = _load_pairs(args, config)
    os.makedirs(args.out, exist_ok=True)
    _run_baseline(args.out, pairs, config, args.jobs)
    return 0


def cmd_fit(args) -> int:
    config = _effective_config(args)
    pairs = _load_pairs(args, config)
    spec = classifier_spec(config)
    if spec.kind == KnnModel.kind and spec.knn_k > len(pairs):
        raise InsufficientData(
            f"knn_k must be <= {len(pairs)}, the number of training pairs, got {spec.knn_k}"
        )
    os.makedirs(args.out, exist_ok=True)
    vectors = extract_features(pairs, config, jobs=args.jobs)
    model = fit_classifier(spec, feature_matrix(vectors), [p.is_paraphrased for p in pairs])
    model_path = os.path.join(args.out, "model.json")
    save_model(model, model_path)
    write_feature_csv(os.path.join(args.out, "features.csv"), pairs, vectors)
    print(f"fitted {config.classifier} on {len(pairs)} pairs -> {model_path}")
    return 0


def cmd_crossval(args) -> int:
    config = _effective_config(args)
    try:
        ids, dataset = read_feature_csv(args.features)
    except OSError as exc:
        raise ParaplagError(f"cannot read feature table {args.features}: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    report = cross_validate(
        dataset, classifier_spec(config), k=config.folds, seed=config.seed
    )
    _write_report(args.out, "report.json", report)
    _print_report(report, f"{config.classifier} over {len(ids)} rows, {config.folds}-fold")
    return 0


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paraplag",
        description="Paraphrase detection: sentence similarity features, "
        "classification, and a string-tiling baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="flat JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")

    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("corpus_path", help="corpus directory (crowd/cs) or JSONL file")
    corpus.add_argument("--corpus", required=True, choices=CORPUS_KINDS, help="corpus layout")
    corpus.add_argument("--truth", default=None, help="truth table file (cs corpora)")
    corpus.add_argument("--sample", type=int, default=None, help="evaluate a seeded random subset")
    corpus.add_argument("--jobs", type=int, default=1, help="worker processes for pair scoring")
    corpus.add_argument("--out", required=True, help="output directory for reports and tables")

    p_score = sub.add_parser("score", parents=[common], help="score one file pair")
    p_score.add_argument("suspect", help="suspect text file")
    p_score.add_argument("source", help="source text file")
    p_score.add_argument("--model", default=None, help="fitted model JSON (else threshold rule)")
    p_score.add_argument("--debug-traces", action="store_true", help="include word-match traces")
    p_score.set_defaults(func=cmd_score)

    p_eval = sub.add_parser("evaluate", parents=[common, corpus], help="cross-validated evaluation")
    p_eval.add_argument("--baseline", action="store_true", help="also run the tiling baseline")
    p_eval.add_argument("--debug-traces", action="store_true", help="write traces.jsonl")
    p_eval.set_defaults(func=cmd_evaluate)

    p_base = sub.add_parser("baseline", parents=[common, corpus], help="tiling threshold baseline")
    p_base.set_defaults(func=cmd_baseline)

    p_fit = sub.add_parser("fit", parents=[common, corpus], help="train and save a classifier")
    p_fit.set_defaults(func=cmd_fit)

    p_cv = sub.add_parser("crossval", parents=[common], help="cross-validate a feature table")
    p_cv.add_argument("features", help="feature CSV written by evaluate/fit")
    p_cv.add_argument("--out", required=True, help="output directory for the report")
    p_cv.set_defaults(func=cmd_crossval)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name in ("jobs", "sample"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                parser.error(f"argument --{name}: must be at least 1, got {value}")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except MissingResource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParaplagError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
