"""Preprocessing tests: sentence splitting, tokens, stopwords, stemming."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paraplag._porter import porter_stem
from paraplag.errors import ParaplagError
from paraplag.textprep import (
    STOPWORDS,
    load_stopwords,
    normalize,
    preprocess_passage,
    split_sentences,
    tokenize,
)


# Frozen input/output pairs for the classic Porter algorithm, verified
# against an independent transliteration of the reference implementation.
PORTER_VECTORS = {
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "conflated": "conflat",
    "troubled": "troubl",
    "sized": "size",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "valenci": "valenc",
    "hesitanci": "hesit",
    "digitizer": "digit",
    "differentli": "differ",
    "vileli": "vile",
    "analogousli": "analog",
    "vietnamization": "vietnam",
    "predication": "predic",
    "operator": "oper",
    "feudalism": "feudal",
    "decisiveness": "decis",
    "hopefulness": "hope",
    "callousness": "callous",
    "formaliti": "formal",
    "sensitiviti": "sensit",
    "sensibiliti": "sensibl",
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electriciti": "electr",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "gyroscopic": "gyroscop",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "communism": "commun",
    "activate": "activ",
    "angulariti": "angular",
    "homologous": "homolog",
    "effective": "effect",
    "bowdlerize": "bowdler",
    "probate": "probat",
    "rate": "rate",
    "cease": "ceas",
    "controll": "control",
    "roll": "roll",
    "quickly": "quickli",
    "ran": "ran",
    "generalization": "gener",
    "running": "run",
    "is": "is",
    "a": "a",
}


def test_porter_frozen_vectors():
    for word, expected in PORTER_VECTORS.items():
        assert porter_stem(word) == expected, word


def test_porter_never_empties_nonempty_input():
    rng = random.Random(7)
    for _ in range(2000):
        word = "".join(rng.choice("abcdefgilmnorstuyz") for _ in range(rng.randint(1, 10)))
        assert porter_stem(word), word


def test_split_plain_two_sentences():
    assert split_sentences("A cat. A dog.") == ["A cat.", "A dog."]


def test_split_abbreviation_not_a_boundary():
    assert split_sentences("Dr. Smith won. Then he left.") == [
        "Dr. Smith won.",
        "Then he left.",
    ]


def test_split_initials_not_a_boundary():
    out = split_sentences("J. R. Tolkien wrote it. Many read it.")
    assert out == ["J. R. Tolkien wrote it.", "Many read it."]


def test_split_requires_capital_after_terminator():
    # lowercase continuation stays in the same sentence
    assert split_sentences("version 2. is out now") == ["version 2. is out now"]


def test_split_terminator_runs():
    assert split_sentences("What?! Really. Yes!") == ["What?!", "Really.", "Yes!"]


def test_split_no_terminal_punctuation_single_sentence():
    assert split_sentences("no punctuation here") == ["no punctuation here"]


def test_split_empty_and_whitespace():
    assert split_sentences("") == []
    assert split_sentences("   \n\t ") == []


def test_split_preserves_non_whitespace_characters():
    texts = [
        "Dr. Smith won. Then he left.",
        "What?! Really. Yes! And... more.",
        "  Leading space. Trailing too.  ",
        "One only",
        "E.g. this stays. New one.",
    ]
    for text in texts:
        out = split_sentences(text)
        kept = "".join(c for s in out for c in s if not c.isspace())
        original = "".join(c for c in text if not c.isspace())
        assert kept == original, text


def test_tokenize_splits_on_nonalnum_and_keeps_digits():
    assert tokenize("The cats, RAN quickly - twice!") == [
        "The", "cats", "RAN", "quickly", "twice",
    ]
    assert tokenize("room 42 and word2vec") == ["room", "42", "and", "word2vec"]
    assert tokenize("don't") == ["don", "t"]
    assert tokenize("snake_case splits") == ["snake", "case", "splits"]


def test_normalize_strips_diacritics_and_lowercases():
    assert normalize("Café") == "cafe"
    assert normalize("NAÏVE") == "naive"
    assert normalize("Zürich") == "zurich"
    assert normalize("plain") == "plain"


def test_normalize_idempotent():
    rng = random.Random(11)
    samples = ["Café", "ÉLAN", "naïve", "Ärger", "résumé", "ok"]
    samples += ["".join(rng.choice("aéîöúbcZY") for _ in range(6)) for _ in range(50)]
    for s in samples:
        once = normalize(s)
        assert normalize(once) == once


def test_preprocess_content_and_stems():
    [sentence] = preprocess_passage("The cats RAN quickly.", STOPWORDS)
    assert [t.surface for t in sentence.all_tokens] == ["The", "cats", "RAN", "quickly"]
    assert [t.stem for t in sentence.content_tokens] == ["cat", "ran", "quickli"]
    # content tokens are the same objects, indices preserved
    assert [t.index for t in sentence.content_tokens] == [1, 2, 3]
    for t in sentence.content_tokens:
        assert t in sentence.all_tokens


def test_preprocess_all_stopwords_gives_empty_content():
    [sentence] = preprocess_passage("the of and", STOPWORDS)
    assert len(sentence.all_tokens) == 3
    assert sentence.content_tokens == ()
    # an empty list is asked for explicitly, and keeps every token
    [kept] = preprocess_passage("the of and", frozenset())
    assert kept.content_tokens == kept.all_tokens


def test_preprocess_token_indices_strictly_increasing():
    sentences = preprocess_passage(
        "The quick brown fox. It jumped over the lazy dog, twice!",
        STOPWORDS,
    )
    assert len(sentences) == 2
    for s in sentences:
        indices = [t.index for t in s.all_tokens]
        assert indices == sorted(set(indices))
        content_indices = [t.index for t in s.content_tokens]
        assert content_indices == sorted(content_indices)


def test_preprocess_deterministic_serialization():
    text = "Dr. Smith's café opened. Quite naïve, really. 42 people came."
    a = preprocess_passage(text)
    b = preprocess_passage(text)
    assert a == b


def test_stopword_file_loading(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment line\nthe\nof\n\nAnd  \n", encoding="utf-8")
    words = load_stopwords(path)
    assert words == frozenset({"the", "of", "and"})


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_stopword_file_not_utf8_names_file_and_line(tmp_path, newline):
    path = tmp_path / "stop.txt"
    path.write_bytes(newline.join(["the", "of", "caf\xe9", "and"]).encode("latin-1"))
    with pytest.raises(ParaplagError) as info:
        load_stopwords(path)
    assert str(info.value) == f"{path}:3: invalid UTF-8"


def test_default_stopwords_content():
    stops = STOPWORDS
    assert {"the", "of", "and", "is", "a"} <= stops
    assert "ran" not in stops
    assert "cat" not in stops
    assert len(stops) == 127


def test_normalized_form_invariant():
    # normalized == lowercase(diacritic-stripped surface) for every token
    text = "Büro Čapek's WORD2VEC. Also naïve Papers."
    for sentence in preprocess_passage(text):
        for t in sentence.all_tokens:
            assert t.normalized == normalize(t.surface)
            assert t.stem, t


# Letters (Porter suffixes among them), digits, precomposed and combining
# diacritics, dotted capital I (which lowercases to two characters),
# punctuation and spaces.
_PREP_TEXT = st.text(
    st.sampled_from("aeiouysnltedgbcmAEST09 .,!?'-éÉüñçøßİ\u0301")
    | st.characters(categories=("L", "Nd", "Mn", "P")),
    max_size=80,
)


@given(_PREP_TEXT)
def test_stem_is_a_function_of_the_normalized_form(text):
    # so one normalized form has one stem, and a non-empty one never stems to ""
    for sentence in preprocess_passage(text, frozenset()):
        for t in sentence.all_tokens:
            assert t.stem == (porter_stem(t.normalized) or t.normalized), t
