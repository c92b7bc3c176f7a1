"""Traced serial pass over one workload's corpus: per-layer numbers.

Usage: python traced.py SPEC_JSON

Runs in a fresh process, serially, after the untraced job of the same run.
It times, from outside, calls into each module's public functions:

* loading the corpus and each generated store (`corpus`, `resources`);
* an untraced pass of `classify.passage_features` and of
  `gst.gst_containment` per pair, for per-pair percentiles and the serial
  busy time behind the fan-out ratios;
* a traced pass that composes every pair's vector from
  `textprep.preprocess_passage`, `semsim.match_sentence`,
  `synsim.syntactic_similarity` and `editsim.insdel_similarity`, then the
  best-per-suspect-sentence aggregation, recording one span per call;
* `classify.cross_validate` on the composed vectors.

Inside `semsim`, the calls into `resources` (synonyms, vector lookups,
cosine, Resnik) and into the Porter stemmer are timed and counted as leaf
children of the enclosing span but not kept as spans of their own: there
are hundreds of thousands of them.  Spans stay in memory and are written
as JSON lines when the pass ends.  The composed vectors go back to the
caller, which compares them with the untraced job's vectors.
"""

import json
import statistics
import sys
import time
from collections import Counter

from paraplag import semsim
from paraplag.classify import FeatureParams, SimilarityVector, cross_validate, passage_features
from paraplag.config import classifier_spec, feature_params, gst_params, load_config, prep_config
from paraplag.corpus import load_pairs_jsonl
from paraplag.editsim import insdel_similarity
from paraplag.gst import canonicalize, gst_containment
from paraplag.resources import KnowledgeStores, load_embeddings, load_ic, load_lexdb
from paraplag.semsim import match_sentence
from paraplag.synsim import syntactic_similarity
from paraplag.textprep import preprocess_passage

clock = time.perf_counter

# Leaf calls made from semsim, patched on the semsim module while tracing.
SEMSIM_LEAVES = {
    "synonyms": "resources.synonyms",
    "cosine": "resources.cosine",
    "resnik": "resources.resnik",
    "porter_stem": "textprep.porter_stem",
}


class Tracer:
    """Spans as [name, pair_id, start, end, parent, child_time], in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.pair_id = None
        self.leaf_time: Counter = Counter()
        self.leaf_calls: Counter = Counter()

    def call(self, name, fn, *args):
        parent = self.open[-1] if self.open else None
        span = [name, self.pair_id, clock(), 0.0, parent, 0.0]
        self.spans.append(span)
        self.open.append(len(self.spans) - 1)
        try:
            return fn(*args)
        finally:
            self.open.pop()
            span[3] = clock()
            if parent is not None:
                self.spans[parent][5] += span[3] - span[2]

    def leaf(self, name, fn):
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self.spans[self.open[-1]][5] += elapsed
                self.leaf_time[name] += elapsed
                self.leaf_calls[name] += 1

        return timed

    def totals(self):
        """name -> (count, inclusive seconds, self seconds)."""
        out: dict[str, list] = {}
        for name, _, start, end, _, child in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return out

    def write(self, path) -> None:
        keys = ("name", "pair_id", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span[:5]))) + "\n")


def _aggregate(maxima, discard):
    kept = [s for s in maxima if s >= discard]
    return sum(kept) / len(kept) if kept else 0.0


def compose(tr: Tracer, pair, stores, params: FeatureParams, prep, counts: Counter):
    """classify.passage_features rebuilt from public layer calls."""
    sp_sents = tr.call("textprep.preprocess_passage", preprocess_passage, pair.suspect_text, prep)
    sr_sents = tr.call("textprep.preprocess_passage", preprocess_passage, pair.source_text, prep)
    counts["sentences"] += len(sp_sents) + len(sr_sents)
    semantic, insdel, syntactic = [], [], []
    for sp in sp_sents:
        if not sp.content_tokens:
            continue
        sp_stems = [t.stem for t in sp.content_tokens]
        sem_scores, ins_scores = [], []
        for sr in sr_sents:
            matches = tr.call("semsim.match_sentence", match_sentence, sp, sr, stores, params.sem)
            counts.update("match." + m.channel for m in matches)
            counts["unmatched"] += len(sp.content_tokens) - len(matches)
            sem_scores.append(len(matches) / len(sp.content_tokens))
            sr_stems = [t.stem for t in sr.content_tokens]
            counts["editsim.cells"] += len(sp_stems) * len(sr_stems)
            ins_scores.append(
                tr.call("editsim.insdel_similarity", insdel_similarity, sp_stems, sr_stems)
            )
        semantic.append(max(sem_scores))
        insdel.append(max(ins_scores))
    for sp in sp_sents:
        if not sp.all_tokens:
            continue
        syntactic.append(max(
            tr.call("synsim.syntactic_similarity", syntactic_similarity,
                    sp.all_tokens, sr.all_tokens)
            for sr in sr_sents
        ))
    return SimilarityVector(
        semantic=_aggregate(semantic, params.discard_semantic),
        syntactic=_aggregate(syntactic, params.discard_syntactic),
        insdel=_aggregate(insdel, params.discard_insdel),
    )


def traced_pass(pairs, stores, params, prep):
    tr = Tracer()
    counts: Counter = Counter()
    saved = {name: getattr(semsim, name) for name in SEMSIM_LEAVES}
    emb = stores.embeddings
    try:
        for name, label in SEMSIM_LEAVES.items():
            setattr(semsim, name, tr.leaf(label, saved[name]))
        if emb is not None:
            emb.lookup_folded = tr.leaf("resources.lookup_folded", emb.lookup_folded)
        vectors = []
        for pair in pairs:
            tr.pair_id = pair.pair_id
            vectors.append(tr.call("classify.pair", compose, tr, pair, stores, params, prep, counts))
    finally:
        for name, fn in saved.items():
            setattr(semsim, name, fn)
        if emb is not None:
            del emb.lookup_folded
    return tr, counts, vectors


def _timed(fn, *args):
    t0 = clock()
    result = fn(*args)
    return clock() - t0, result


def _pcts(seconds):
    """(p50, p90) in milliseconds."""
    ms = sorted(s * 1000.0 for s in seconds)
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return statistics.median(ms), deciles[8]


def oov_rates(pairs, prep, lexdb, emb):
    """Share of content tokens with no vector, and with no synset."""
    texts = {p.suspect_text for p in pairs} | {p.source_text for p in pairs}
    tokens = no_vector = no_synset = 0
    for text in sorted(texts):
        for sentence in preprocess_passage(text, prep):
            for tok in sentence.content_tokens:
                tokens += 1
                no_vector += emb.lookup_folded(tok.normalized) is None
                no_synset += not (lexdb.synsets_of(tok.normalized) or lexdb.synsets_of(tok.stem))
    return no_vector / tokens, no_synset / tokens


def main(spec) -> dict:
    config = load_config(spec["config"])
    params = feature_params(config)
    prep = prep_config(config)
    metrics = {}

    metrics["corpus.load_s"], pairs = _timed(load_pairs_jsonl, spec["corpus"])
    # The generated stores are loaded on every workload, also where the
    # config names none, so that load times and OOV rates describe the
    # corpus; scoring uses only the stores the config names.
    res = spec["resources"]
    metrics["resources.lexdb_load_s"], lexdb = _timed(load_lexdb, res["lexdb_dir"])
    # The Resnik cache is keyed on the store object: a second copy of the
    # store gives the traced pass a cold cache, like the untraced pass and
    # the job.
    traced_lexdb = load_lexdb(res["lexdb_dir"])
    metrics["resources.ic_load_s"], ic = _timed(load_ic, res["ic_file"])
    metrics["resources.embeddings_load_s"], emb = _timed(
        load_embeddings, res["embedding_file"], res["embedding_format"]
    )
    emb_oov, lexdb_oov = oov_rates(pairs, prep, lexdb, emb)
    metrics["resources.emb_oov_rate"] = emb_oov
    metrics["resources.lexdb_oov_rate"] = lexdb_oov
    stores, traced_stores = (
        KnowledgeStores(
            lexdb=db if config.lexdb_dir else None,
            ic=ic if config.ic_file else None,
            embeddings=emb if config.embedding_file else None,
        )
        for db in (lexdb, traced_lexdb)
    )

    pair_s = [
        _timed(passage_features, p.suspect_text, p.source_text, stores, params, prep)[0]
        for p in pairs
    ]
    gp = gst_params(config)
    gst_s = [_timed(gst_containment, p.suspect_text, p.source_text, gp)[0] for p in pairs]
    metrics["classify.pair_ms_p50"], metrics["classify.pair_ms_p90"] = _pcts(pair_s)
    metrics["classify.pair_samples"] = len(pair_s)
    metrics["gst.ms_per_pair_p50"], metrics["gst.ms_per_pair_p90"] = _pcts(gst_s)
    metrics["gst.cells"] = sum(
        len(canonicalize(p.suspect_text)) * len(canonicalize(p.source_text)) for p in pairs
    )

    tr, counts, vectors = traced_pass(pairs, traced_stores, params, prep)
    tr.write(spec["spans_path"])
    totals = tr.totals()
    traced_s = totals["classify.pair"][1]

    def layer(name):
        return totals.get(name, [0, 0.0, 0.0])

    _, t_prep, _ = layer("textprep.preprocess_passage")
    metrics["textprep.sentences"] = counts["sentences"]
    metrics["textprep.us_per_sentence"] = t_prep / counts["sentences"] * 1e6
    for mod, fn in (("semsim", "match_sentence"), ("synsim", "syntactic_similarity"),
                    ("editsim", "insdel_similarity")):
        n, inclusive, own = layer(f"{mod}.{fn}")
        if mod == "semsim":
            metrics["semsim.sentence_pairs"] = n
        metrics[f"{mod}.us_per_sentence_pair"] = inclusive / n * 1e6 if n else 0.0
        metrics[f"{mod}.self_share"] = own / traced_s
    metrics["editsim.cells"] = counts["editsim.cells"]
    matched = 0
    for channel in semsim.CHANNELS:
        metrics[f"semsim.matches.{channel}"] = counts["match." + channel]
        matched += counts["match." + channel]
    metrics["semsim.unmatched"] = counts["unmatched"]
    metrics["semsim.match_rate"] = matched / (matched + counts["unmatched"])
    metrics["semsim.stem_calls"] = tr.leaf_calls["textprep.porter_stem"]
    metrics["resources.cosine_calls"] = tr.leaf_calls["resources.cosine"]
    metrics["resources.resnik_calls"] = tr.leaf_calls["resources.resnik"]
    metrics["resources.query_share"] = sum(
        t for name, t in tr.leaf_time.items() if name.startswith("resources.")
    ) / traced_s
    metrics["trace.overhead_ms_per_pair"] = (traced_s - sum(pair_s)) / len(pairs) * 1000.0

    dataset = [(v, p.is_paraphrased) for v, p in zip(vectors, pairs)]
    cv_s, _ = _timed(cross_validate, dataset, classifier_spec(config), config.folds, config.seed)
    metrics["classify.cv_ms"] = cv_s * 1000.0
    return {
        "metrics": metrics,
        "serial_features_s": sum(pair_s),
        "serial_baseline_s": sum(gst_s),
        "vectors": [[v.semantic, v.syntactic, v.insdel] for v in vectors],
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        print(json.dumps(main(json.load(fh))))
