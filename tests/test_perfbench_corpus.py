"""The benchmark's corpora score as they would with every sentence pair matched.

`perfbench/corpusgen.py` writes the two corpus shapes the benchmark runs:
answers, with about ten sentences per source, and crowd, with one to
three.  The golden corpus has few multi-sentence sources, so these are the
inputs on which skipping source sentences matters; each pair's score is
compared with the unpruned oracle, with every store loaded and with none.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from paraplag.config import EngineConfig, build_stores, feature_params
from paraplag.corpus import load_pairs_jsonl
from paraplag.engine import score_pairs

from test_classify import oracle_score

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("shape", ["answers", "crowd"])
def test_scores_equal_the_unpruned_oracle(tmp_path, shape):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "corpusgen.py"), shape, "3", str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    paths = json.loads(done.stdout)
    pairs = load_pairs_jsonl(paths["corpus"])
    full = EngineConfig(**{key: paths[key] for key in (
        "lexdb_dir", "ic_file", "embedding_file", "embedding_format")})
    for config in (full, EngineConfig()):
        stores = build_stores(config)
        params = feature_params(config)
        scores = score_pairs(pairs, config, stores=stores)
        for pair, score in zip(pairs, scores, strict=True):
            assert score == oracle_score(pair.suspect_text, pair.source_text, stores, params), (
                pair.pair_id
            )
