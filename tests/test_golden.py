"""Golden outputs: every file the commands write matches a checked-in copy byte for byte.

The inputs under ``tests/fixtures/golden`` are a small seeded corpus whose
words come from the fixture lexdb (so the exact, synonym and Resnik
channels all fire) and an information-content file over that lexdb's
synsets.  No embedding store is used, so no float depends on a BLAS
summation order.

Run ``PYTHONPATH=src python tests/test_golden.py`` to rewrite the inputs
and the expected outputs from the code in ``src/``; do that only when an
output is meant to change, and say why in the change log.
"""

import contextlib
import io
import json
import os
import random

import pytest

from paraplag.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden")
EXPECTED = os.path.join(GOLDEN, "expected")
CORPUS = os.path.join(GOLDEN, "pairs.jsonl")

EVALUATE_FILES = ("report.json", "features.csv", "baseline.json", "baseline.csv", "traces.jsonl")
KINDS = ("knn", "nb")


def write_config(directory, classifier: str) -> str:
    path = os.path.join(directory, f"config_{classifier}.json")
    payload = {
        "lexdb_dir": os.path.join(FIXTURES, "lexdb"),
        "ic_file": os.path.join(GOLDEN, "ic.dat"),
        "classifier": classifier,
        "knn_k": 3,
        "folds": 4,
        "seed": 3,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def score_inputs(directory) -> tuple[str, str]:
    """The suspect and source files of the corpus's first pair."""
    with open(CORPUS, encoding="utf-8") as fh:
        record = json.loads(fh.readline())
    paths = []
    for name in ("suspect_text", "source_text"):
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(record[name])
        paths.append(path)
    return paths[0], paths[1]


def evaluate(directory, jobs: int) -> str:
    out = os.path.join(directory, f"evaluate-{jobs}")
    rc = main(["evaluate", CORPUS, "--corpus", "jsonl", "--config", write_config(directory, "knn"),
               "--out", out, "--baseline", "--debug-traces", "--jobs", str(jobs)])
    assert rc == 0
    return out


def fit(directory, kind: str) -> str:
    out = os.path.join(directory, f"fit-{kind}")
    rc = main(["fit", CORPUS, "--corpus", "jsonl", "--config", write_config(directory, kind),
               "--out", out])
    assert rc == 0
    return os.path.join(out, "model.json")


def score(directory, model: str) -> str:
    """What `score --model --debug-traces` prints for the corpus's first pair."""
    suspect, source = score_inputs(directory)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = main(["score", suspect, source, "--config", write_config(directory, "knn"),
                   "--model", model, "--debug-traces"])
    assert rc == 0
    return printed.getvalue()


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("jobs", [1, 2])
def test_evaluate_outputs(tmp_path, jobs):
    out = evaluate(tmp_path, jobs)
    for name in EVALUATE_FILES:
        assert read_bytes(os.path.join(out, name)) == read_bytes(os.path.join(EXPECTED, name)), name


@pytest.mark.parametrize("kind", KINDS)
def test_fit_outputs(tmp_path, kind):
    model = fit(tmp_path, kind)
    assert read_bytes(model) == read_bytes(os.path.join(EXPECTED, f"model_{kind}.json"))
    features = os.path.join(os.path.dirname(model), "features.csv")
    assert read_bytes(features) == read_bytes(os.path.join(EXPECTED, "features.csv"))


@pytest.mark.parametrize("kind", KINDS)
def test_score_with_model_output(tmp_path, kind):
    out = score(tmp_path, os.path.join(EXPECTED, f"model_{kind}.json"))
    assert out.encode("utf-8") == read_bytes(os.path.join(EXPECTED, f"score_{kind}.json"))


# ---------------------------------------------------------------------------
# Regenerating the fixtures

# (word, words that stand in for it); the stand-ins share its synset
# (synonym channel) or a subsumer with an information content of at least
# 3.0 (Resnik channel).
LEXICON = {
    "dog": ["canine"],
    "cat": ["feline"],
    "car": ["automobile", "motorcar", "auto", "caterpillar"],
    "vehicle": ["car"],
    "animal": ["animal"],
    "run": ["go"],
    "walk": ["walk"],
    "move": ["displace"],
    "happy": ["glad", "cheerful"],
}
OTHER = ["river", "stone", "cloud", "meadow", "forest", "harbor", "lantern", "copper",
         "quartz", "violin", "sulfur", "ledger", "orbit", "basalt", "garden", "window"]
FUNCTION = ["the", "a", "of", "near", "with", "and", "by"]

# IC counts per synset of the fixture lexdb; roots carry the totals.
IC_COUNTS = """wnver::3.0
1740n 1000 ROOT
15388n 400
2083346n 40
2084071n 10
2120997n 30
2121620n 8
4524313n 45
2958343n 12
2970849n 2
1835496v 1000 ROOT
1904930v 100
1926311v 120
"""


def _sentence(rng, words: list[str]) -> list[str]:
    out = []
    for word in words:
        if rng.random() < 0.5:
            out.append(rng.choice(FUNCTION))
        out.append(word)
    return out


def _rewrite(rng, word: str) -> str:
    """A stand-in for a lexicon word half the time, else an unrelated word one time in five."""
    if word in LEXICON and rng.random() < 0.5:
        return rng.choice(LEXICON[word])
    if word not in FUNCTION and rng.random() < 0.2:
        return rng.choice(OTHER)
    return word


def _render(sentences: list[list[str]]) -> str:
    return " ".join(" ".join(s).capitalize() + "." for s in sentences) + "\n"


def make_pairs(seed: int = 9) -> list[dict]:
    """Four sources of four sentences, each with three rewrites and three unrelated answers."""
    rng = random.Random(seed)
    vocab = list(LEXICON) + OTHER
    pairs = []
    for task in range(4):
        source = [_sentence(rng, rng.sample(vocab, rng.randint(5, 7))) for _ in range(4)]
        for n in range(6):
            if n < 3:
                suspect = [
                    [_rewrite(rng, w) for w in sentence if rng.random() < 0.6 + 0.1 * n]
                    for sentence in rng.sample(source, 3)
                ]
                label, category = "paraphrased", ("light", "heavy", "cut")[n]
            else:
                content = [w for s in source for w in s if w not in FUNCTION]
                suspect = [
                    _sentence(rng, rng.sample(OTHER, 7 - n) + rng.sample(content, n + 1))
                    for _ in range(3)
                ]
                label, category = "not_paraphrased", "non"
            pairs.append({
                "pair_id": f"t{task}a{n}",
                "suspect_text": _render(suspect),
                "source_text": _render(source),
                "label": label,
                "origin": "golden",
                "raw_category": category,
            })
    return pairs


def regenerate(directory) -> None:
    """Rewrite the inputs, then the expected outputs, from the code in src/."""
    os.makedirs(EXPECTED, exist_ok=True)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for pair in make_pairs():
            fh.write(json.dumps(pair, sort_keys=True) + "\n")
    with open(os.path.join(GOLDEN, "ic.dat"), "w", encoding="utf-8") as fh:
        fh.write(IC_COUNTS)

    def copy(src, name):
        with open(os.path.join(EXPECTED, name), "wb") as fh:
            fh.write(read_bytes(src))

    out = evaluate(directory, jobs=1)
    for name in EVALUATE_FILES:
        copy(os.path.join(out, name), name)
    for kind in KINDS:
        copy(fit(directory, kind), f"model_{kind}.json")

    for kind in KINDS:
        text = score(directory, os.path.join(EXPECTED, f"model_{kind}.json"))
        with open(os.path.join(EXPECTED, f"score_{kind}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        regenerate(scratch)
