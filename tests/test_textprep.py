"""Preprocessing tests: sentence splitting, tokens, stopwords, stemming."""

from __future__ import annotations

import random
import re
import sys
import time
import unicodedata
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paraplag import _porter
from paraplag._porter import _STEP2, _STEP3, _STEP4, porter_stem
from paraplag.classify import passage_features
from paraplag.errors import ParaplagError
from paraplag.gst import gst_containment
from paraplag.textprep import (
    _ABBREVIATIONS,
    STOPWORDS,
    Forms,
    _word_before,
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


@given(st.lists(_PREP_TEXT, max_size=4))
def test_a_shared_forms_memo_changes_no_token(texts):
    # a run's memo, filled by every passage before, against a fresh one each
    forms = Forms()
    for text in texts:
        assert preprocess_passage(text, STOPWORDS, forms) == preprocess_passage(text, STOPWORDS)
    for surface, (norm, stem) in forms.tokens.items():
        assert (norm, stem) == (normalize(surface), porter_stem(norm) or norm)


# ---------------------------------------------------------------------------
# Oracles: the character loop the splitter replaced, and the recursive
# consonant test with longest-first suffix tables the stemmer replaced.


def oracle_split_sentences(text: str) -> list[str]:
    sentences: list[str] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in ".?!":
            run_end = i + 1
            while run_end < n and text[run_end] in ".?!":
                run_end += 1
            j = run_end
            while j < n and text[j].isspace():
                j += 1
            boundary = j > run_end and j < n and text[j].isupper()
            if boundary and text[i] == ".":
                word = _word_before(text, i)
                if len(word) == 1 or word.lower() in _ABBREVIATIONS:
                    boundary = False
            if boundary:
                chunk = text[start:run_end].strip()
                if chunk:
                    sentences.append(chunk)
                start = j
                i = j
                continue
            i = run_end
            continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _oracle_is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        return i == 0 or not _oracle_is_consonant(word, i - 1)
    return True


def _oracle_measure(stem: str) -> int:
    runs: list[bool] = []
    for i in range(len(stem)):
        c = _oracle_is_consonant(stem, i)
        if not runs or runs[-1] != c:
            runs.append(c)
    return sum(1 for a, b in zip(runs, runs[1:]) if not a and b)


def _oracle_contains_vowel(stem: str) -> bool:
    return any(not _oracle_is_consonant(stem, i) for i in range(len(stem)))


def _oracle_ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _oracle_is_consonant(word, len(word) - 1)
    )


def _oracle_ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    n = len(word)
    return (
        _oracle_is_consonant(word, n - 3)
        and not _oracle_is_consonant(word, n - 2)
        and _oracle_is_consonant(word, n - 1)
        and word[-1] not in "wxy"
    )


def oracle_porter_stem(word: str) -> str:
    # the step rules are shared; the conditions and table order are the oracle's
    with mock.patch.multiple(
        _porter,
        _measure=_oracle_measure,
        _contains_vowel=_oracle_contains_vowel,
        _ends_double_consonant=_oracle_ends_double_consonant,
        _ends_cvc=_oracle_ends_cvc,
        _STEP2=tuple(sorted(_STEP2, key=lambda p: len(p[0]), reverse=True)),
        _STEP3=tuple(sorted(_STEP3, key=lambda p: len(p[0]), reverse=True)),
        _STEP4=tuple(sorted(_STEP4, key=len, reverse=True)),
    ):
        return _porter.porter_stem(word)


def test_oracle_porter_agrees_on_frozen_vectors():
    for word, expected in PORTER_VECTORS.items():
        assert oracle_porter_stem(word) == expected, word


_WHITESPACE = "".join(chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace())


def test_boundary_whitespace_is_str_isspace():
    # the pattern's \s and the loop's str.isspace() accept the same characters
    matched = "".join(re.findall(r"\s", "".join(map(chr, range(sys.maxunicode + 1)))))
    assert matched == _WHITESPACE


# Chunks of a word, a terminator run and whitespace, so candidate boundaries
# are frequent.  Words are upper-, lower- and title-case letters, digits and
# the words the abbreviation rule looks at; whitespace is every character
# str.isspace() accepts.
_SPLIT_CHUNK = st.tuples(
    st.sampled_from(
        ["", "A", "Z", "É", "a", "z", "é", "ǅ", "ǆ", "7", "0", "Cat", "cat"]
        + ["Dr", "dr", "e.g", "E.g", "J", "j", "etc", "Etc", "St", "vs"]
    ),
    st.text(st.sampled_from(".?!"), max_size=3),
    st.text(st.sampled_from(_WHITESPACE), max_size=2),
).map("".join)
_SPLIT_TEXT = st.lists(_SPLIT_CHUNK, max_size=12).map("".join)


@given(_SPLIT_TEXT)
@example(" \u2003Cat. A")  # leading whitespace before the first boundary
@example("J? A j! B")  # the abbreviation rule holds only for a period
def test_split_sentences_matches_oracle(text):
    assert split_sentences(text) == oracle_split_sentences(text)


@pytest.mark.parametrize(
    "text, sentences",
    [
        # a terminator run with no whitespace after it
        ("a" + "." * 200_000 + "x", 1),
        # every period follows an initial
        ("A. " * 100_000, 1),
    ],
    ids=["dot-run", "initials"],
)
def test_split_sentences_is_linear(text, sentences):
    started = time.perf_counter()
    out = split_sentences(text)
    assert time.perf_counter() - started < 2.0
    assert len(out) == sentences


# Letter strings rich in y (whose class depends on the letter before it), of
# at most 200 letters, ending in a suffix one of the steps strips.
_STEM_SUFFIXES = sorted(
    {s for s, _ in _STEP2} | {s for s, _ in _STEP3} | set(_STEP4)
    | {"", "s", "ss", "ies", "sses", "ed", "eed", "ing", "y", "e", "l", "ll"}
)
_STEM_WORD = st.builds(
    str.__add__,
    st.text(st.sampled_from("yyyyaeioubcdlmnrstwxz"), max_size=193),
    st.sampled_from(_STEM_SUFFIXES),
)


@settings(max_examples=1000)
@given(_STEM_WORD)
@example("baying")  # *o excludes a final y that the form calls a consonant
def test_porter_stem_matches_oracle(word):
    assert porter_stem(word) == oracle_porter_stem(word)


@pytest.mark.parametrize(
    "table",
    [[s for s, _ in _STEP2], [s for s, _ in _STEP3], list(_STEP4)],
    ids=["step2", "step3", "step4"],
)
def test_suffix_tables_list_longer_tails_first(table):
    # so the first suffix that matches is the longest one
    for i, earlier in enumerate(table):
        for later in table[i + 1:]:
            assert not later.endswith(earlier), (earlier, later)


def test_long_y_run_stems_and_preprocesses():
    word = "y" * 5000
    assert porter_stem(word)
    [sentence] = preprocess_passage(f"The token {word} is long.")
    assert sentence.all_tokens[2].normalized == word


# ---------------------------------------------------------------------------
# Unicode-equivalent texts: composed first, compatibility forms folded per token

# precomposed letters, letters with combining marks, ligatures, full-width
# letters, an ellipsis, and ASCII words and terminators
_UNICODE_TEXT = st.lists(
    st.sampled_from(
        ["résumé", "naïve", "café", "Ångström", "ﬁne", "ﬂow", "Ｆull", "é", "ö",
         "fine", "cafe", "the", "owner", "Was", "…", ".", "?", "Dr.", "Zoë"]
    ),
    min_size=1, max_size=14,
).map(" ".join)


def _forms(text):
    return unicodedata.normalize("NFC", text), unicodedata.normalize("NFD", text)


def _outcome(fn, *args):
    """fn's value, or the type of the ParaplagError it raises."""
    try:
        return fn(*args)
    except ParaplagError as exc:
        return type(exc)


class TestUnicodeEquivalence:
    TEXT = "The résumé of the naïve café owner was ﬁne."

    def test_decomposed_text_scores_as_composed_text(self):
        composed, decomposed = _forms(self.TEXT)
        assert composed != decomposed
        vector = passage_features(decomposed, composed)
        assert (vector.semantic, vector.syntactic, vector.insdel) == (1.0, 1.0, 1.0)
        assert gst_containment(decomposed, composed) == 1.0

    def test_compatibility_forms_fold_per_token(self):
        assert normalize("ﬁne") == "fine"
        assert normalize("Ｆｕｌｌ") == "full"
        [sentence] = preprocess_passage("The ﬁne ﬂow.")
        assert [t.normalized for t in sentence.all_tokens] == ["the", "fine", "flow"]
        # an ellipsis stays one character: folding it into "..." would end a sentence
        assert len(preprocess_passage("Wait… What now?")) == 1

    def test_a_surface_that_folds_away_whole_keeps_its_canonical_form(self):
        # the halfwidth sound marks fold (NFKD) to combining marks, which are stripped
        assert normalize("\uff9e") == "\uff9e"
        assert normalize("\uff9f\uff9e") == "\uff9f\uff9e"
        [sentence] = preprocess_passage("A \uff9e b \uff9f.")
        assert [(t.normalized, t.stem) for t in sentence.all_tokens] == [
            ("a", "a"), ("\uff9e", "\uff9e"), ("b", "b"), ("\uff9f", "\uff9f")
        ]
        # two different marks are two different words, not one empty word
        vector = passage_features("Quartz \uff9e.", "Violins \uff9f.")
        assert (vector.semantic, vector.insdel) == (0.0, 0.0)

    def test_no_token_of_one_code_point_normalizes_to_nothing(self):
        for cp in range(sys.maxunicode + 1):
            for token in tokenize(chr(cp)):
                assert normalize(token), hex(cp)

    @given(_UNICODE_TEXT, _UNICODE_TEXT)
    def test_canonically_equivalent_texts_score_alike(self, text, other):
        composed, decomposed = _forms(text)
        for against in _forms(other):
            assert _outcome(passage_features, decomposed, against) == _outcome(
                passage_features, composed, against
            )
            assert _outcome(passage_features, against, decomposed) == _outcome(
                passage_features, against, composed
            )
            assert _outcome(gst_containment, decomposed, against) == _outcome(
                gst_containment, composed, against
            )
            assert _outcome(gst_containment, against, decomposed) == _outcome(
                gst_containment, against, composed
            )

    @given(_UNICODE_TEXT, _UNICODE_TEXT)
    @example("The ﬁne dining was ﬂawless tonight.", "The fine dining was flawless tonight.")
    def test_a_texts_compatibility_form_tiles_as_the_text(self, text, other):
        folded = unicodedata.normalize("NFKC", text)
        for against in (other, unicodedata.normalize("NFKC", other)):
            assert _outcome(gst_containment, folded, against) == _outcome(
                gst_containment, text, against
            )
            assert _outcome(gst_containment, against, folded) == _outcome(
                gst_containment, against, text
            )

    @given(_UNICODE_TEXT)
    def test_a_texts_decomposed_form_scores_as_the_text_against_itself(self, text):
        composed, decomposed = _forms(text)
        assert _outcome(passage_features, decomposed, composed) == _outcome(
            passage_features, text, text
        )
        assert _outcome(gst_containment, decomposed, composed) == _outcome(
            gst_containment, text, text
        )
