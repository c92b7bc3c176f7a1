"""The README's library examples run as written, on the fixture stores."""

from __future__ import annotations

import re
from pathlib import Path

from paraplag.classify import SimilarityVector, passage_features

ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.DOTALL)
    assert len(blocks) == 3
    # the example's relative paths, resolved in a working directory of their own
    (tmp_path / "wordnet").symlink_to(FIXTURES / "lexdb", target_is_directory=True)
    (tmp_path / "ic.dat").symlink_to(FIXTURES / "golden" / "ic.dat")
    (tmp_path / "vectors.txt").write_text(
        "4 3\ndog 1 0 0\ncanine 0.9 0.1 0\ncat 0 1 0\nquartz 0 0 1\n", encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    namespace = {
        "suspect_text": "The canine ran home. A glad cat slept.",
        "source_text": "The dog ran home. A happy cat slept all day.",
        "train_vectors": [
            SimilarityVector(0.9, 0.8, 0.7),
            SimilarityVector(0.8, 0.9, 0.6),
            SimilarityVector(0.1, 0.2, 0.0),
            SimilarityVector(0.2, 0.1, 0.1),
        ],
        "train_labels": [True, True, False, False],
    }
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)

    vec = namespace["vec"]
    printed = [float(x) for x in capsys.readouterr().out.split()]
    assert printed[:3] == [vec.semantic, vec.syntactic, vec.insdel]
    assert vec.semantic == 1.0 and 0.0 < printed[3] < 1.0
    # one vocabulary over several suspects scores each as it scores alone
    source, stores = namespace["source_text"], namespace["stores"]
    assert namespace["vectors"] == [
        passage_features(suspect, source, stores) for suspect in namespace["suspects"]
    ]
    labels, scores = namespace["labels"], namespace["scores"]
    assert labels.tolist() == [True] and scores.shape == (1,)
