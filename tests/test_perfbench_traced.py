"""The benchmark's traced pass still composes the features the engine computes.

`perfbench/traced.py` rebuilds `classify.passage_features` from public layer
calls and patches store queries on the `semsim` module while it runs, so
it depends on names this package exports.  It is imported here as it is,
from its file, and run on a small corpus that fires every channel.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from paraplag import resources, semsim
from paraplag.classify import FeatureParams, passage_features
from paraplag.corpus import NOT_PARAPHRASED, PARAPHRASED, LabelledPair
from paraplag.resources import ICTable, KnowledgeStores, load_lexdb
from paraplag.textprep import STOPWORDS

from embedding_oracle import embedding_store

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def _load_traced():
    path = ROOT / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pair(pair_id, suspect, source, label=PARAPHRASED):
    return LabelledPair(pair_id, suspect, source, label, "synthetic", "")


PAIRS = [
    # exact, synonym (car/automobile), embedding (violin/cello), resnik (cat/dog)
    _pair("p0", "The car passed a cat. A violin played.",
          "An automobile passed the dog. The cello played loudly."),
    _pair("p1", "Dogs run. The vehicle stopped.", "A canine walked. The cat slept."),
    _pair("p2", "Quartz glitters brightly.", "The dog ran home.", NOT_PARAPHRASED),
    _pair("p3", "The feline walked home.", "The feline walked home."),
]


def test_traced_pass_vectors_equal_passage_features():
    traced = _load_traced()
    emb = embedding_store(
        {
            "violin": np.array([1.0, 0.2, 0.0], np.float32),
            "cello": np.array([0.9, 0.3, 0.0], np.float32),
            "quartz": np.array([0.0, 0.0, 1.0], np.float32),
        },
        3,
    )
    stores = KnowledgeStores(
        lexdb=load_lexdb(FIXTURES / "lexdb"),
        ic=ICTable({(15388, "n"): 3.5, (1740, "n"): 0.0, (1835496, "v"): 3.1}),
        embeddings=emb,
    )
    params, prep = FeatureParams(), STOPWORDS
    leaves = {name: getattr(semsim, name) for name in traced.SEMSIM_LEAVES}

    tr, counts, vectors = traced.traced_pass(PAIRS, stores, params, prep)

    expected = [
        passage_features(p.suspect_text, p.source_text, stores, params, prep) for p in PAIRS
    ]
    assert vectors == expected
    assert all(counts["match." + channel] > 0 for channel in semsim.CHANNELS)
    assert {name: getattr(semsim, name) for name in traced.SEMSIM_LEAVES} == leaves
    assert semsim.resnik is resources.resnik and semsim.cosine is resources.cosine
    assert "lookup_folded" not in vars(emb)
    assert tr.totals()["classify.pair"][0] == len(PAIRS)
