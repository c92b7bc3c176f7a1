"""Text preprocessing: sentence splitting, tokenization, normalization.

Turns raw passage text into ProcessedSentence records that the similarity
engines consume.  The pipeline is deliberately rule-based and free of any
model dependency so that identical input text always yields identical
output, token for token.

Pipeline per passage:

    NFC -> split_sentences -> tokenize -> normalize -> stopword filter -> stem

The text is composed (Unicode NFC) first, so canonically equivalent texts,
such as a precomposed "é" and an "e" with a combining accent, give the same
sentences and tokens: the tokenizer would otherwise read a combining mark
as a separator and split the word.  Compatibility characters (ligatures
such as "ﬁ", full-width letters) are folded per token, by `normalize`, and
never in the whole text, where folding "…" into "..." would add a sentence
boundary.

Sentence boundaries come from one anchored pattern, so splitting is linear
in the text's length, and the stemmer takes tokens of any length.

Every token keeps its position in the sentence (before stopword removal),
its original surface form, a normalized form (compatibility-decomposed,
diacritics stripped, lowercased) and a Porter stem.  Semantic lookups downstream use the
normalized form, because lexical-database headwords are lemmas rather than
stems; stems serve for equality matching.  The stem is a function of the
normalized form, ``porter_stem(normalized) or normalized``, so the normalized
form alone can key every per-word table.  A `Forms` memo, which a scoring
run keeps for its whole length, normalizes each distinct surface and stems
each distinct word once.
"""

from __future__ import annotations

import io
import re
import unicodedata
from dataclasses import dataclass
from importlib import resources as importlib_resources

from ._porter import porter_stem
from .errors import decode_utf8

__all__ = [
    "Forms",
    "Token",
    "ProcessedSentence",
    "STOPWORDS",
    "load_stopwords",
    "split_sentences",
    "tokenize",
    "normalize",
    "preprocess_passage",
]

# Alphanumeric runs; underscore excluded from \w so it acts as a separator.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# A maximal run of terminators and the whitespace after it: a candidate
# sentence boundary.  The lookbehind pins a match to the start of the run, so a
# run with no whitespace after it fails once rather than at every position.
_BOUNDARY_RE = re.compile(r"(?<![.?!])[.?!]+\s+")

# Words after which a period does not end a sentence.  Single letters
# ("J. Smith", "e.g.") are handled separately by a length check.
_ABBREVIATIONS = frozenset(
    {
        "dr", "mr", "mrs", "ms", "prof", "rev", "hon", "st", "sr", "jr",
        "vs", "etc", "fig", "figs", "eg", "ie", "al", "inc", "ltd", "co",
        "corp", "dept", "est", "vol", "pp", "ed", "eds", "approx",
    }
)

@dataclass(frozen=True)
class Token:
    """One token of a sentence.

    index is the position within the sentence before stopword removal, so
    content tokens keep their original offsets.
    """

    index: int
    surface: str
    normalized: str
    stem: str


@dataclass(frozen=True)
class ProcessedSentence:
    """One sentence of a passage, addressed by its index in `preprocess_passage`'s list.

    all_tokens holds every token of the sentence in order; content_tokens
    holds the same Token objects minus stopwords, so a content token's
    index is still its position among all_tokens.
    """

    all_tokens: tuple[Token, ...]
    content_tokens: tuple[Token, ...]


def _strip_marks(surface: str, form: str) -> str:
    """surface decomposed under `form` ("NFKD" or "NFD"), without its combining marks."""
    decomposed = unicodedata.normalize(form, surface)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize(surface: str) -> str:
    """Fold compatibility characters and strip diacritics (NFKD decomposition), and lowercase.

    The halfwidth sound marks U+FF9E and U+FF9F fold to combining marks,
    which would leave nothing; a surface that folds away whole is only
    canonically decomposed (NFD), so a non-empty surface never normalizes
    to "".
    """
    if surface.isascii():  # ASCII has no decompositions and no marks
        return surface.lower()
    return (_strip_marks(surface, "NFKD") or _strip_marks(surface, "NFD")).lower()


def _parse_stopwords(text: str) -> frozenset[str]:
    """The normalized form of each word, one per line, '#' comments; any newline convention."""
    words = set()
    for line in io.StringIO(text, newline=None):
        word = line.split("#", 1)[0].strip()
        if word:
            words.add(normalize(word))
    return frozenset(words)


def load_stopwords(path) -> frozenset[str]:
    """Load a stopword list: one word per line, '#' comments, kept by normalized form.

    A token is a stopword when its normalized form is in the set, so "été"
    in the file filters "Été" and "ete" alike.

    A byte that is not UTF-8 raises ParaplagError naming the file and the line.
    """
    with open(path, "rb") as fh:
        return _parse_stopwords(decode_utf8(fh.read(), path))


# The built-in English list; `frozenset()` as a stopword set keeps every token.
STOPWORDS = _parse_stopwords(
    (importlib_resources.files("paraplag") / "data" / "stopwords_english.txt")
    .read_text(encoding="utf-8")
)


def _word_before(text: str, pos: int) -> str:
    """Letters immediately preceding text[pos], for abbreviation checks."""
    start = pos
    while start > 0 and text[start - 1].isalpha():
        start -= 1
    return text[start:pos]


def split_sentences(text: str) -> list[str]:
    """Split passage text into sentences.

    A boundary is a run of [.?!] followed by whitespace and an uppercase
    letter, unless the run starts with a period and the word before it is a
    known abbreviation or a single letter (an initial).  One anchored pattern
    finds the candidates, in time linear in the text's length.  Text without
    terminal punctuation is a single sentence.  The concatenation of the
    outputs preserves every non-whitespace character of the input.
    """
    sentences: list[str] = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        i, j = m.span()
        if not text[j : j + 1].isupper():
            continue
        if text[i] == ".":
            word = _word_before(text, i)
            if len(word) == 1 or word.lower() in _ABBREVIATIONS:
                continue
        chunk = text[start:j].strip()
        if chunk:
            sentences.append(chunk)
        start = j
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def tokenize(sentence: str) -> list[str]:
    """Split a sentence into surface tokens (alphanumeric runs)."""
    return _TOKEN_RE.findall(sentence)


class Forms:
    """Memo of word forms for as long as its owner keeps it (a run's `semsim.Vocabulary`).

    `tokens` maps a surface to its (normalized, stem); `stem` stems a word
    once, whether it is a token's normalized form or a lexdb lemma.
    """

    def __init__(self):
        self.tokens: dict[str, tuple[str, str]] = {}
        self._stems: dict[str, str] = {}

    def stem(self, word: str) -> str:
        """``porter_stem(word) or word``, computed once per word."""
        stem = self._stems.get(word)
        if stem is None:
            stem = self._stems[word] = porter_stem(word) or word
        return stem


def _make_tokens(sentence: str, forms: Forms) -> tuple[Token, ...]:
    tokens = []
    for idx, surface in enumerate(tokenize(sentence)):
        known = forms.tokens.get(surface)
        if known is None:
            norm = normalize(surface)
            known = forms.tokens[surface] = (norm, forms.stem(norm))
        tokens.append(Token(idx, surface, *known))
    return tuple(tokens)


def preprocess_passage(
    text: str,
    stopwords: frozenset[str] = STOPWORDS,
    forms: Forms | None = None,
) -> list[ProcessedSentence]:
    """Preprocess passage text into a list of ProcessedSentence.

    The text is composed (NFC) before it is split, so canonically
    equivalent texts preprocess alike.  Sentences come in order of
    appearance, and a sentence's index in the list is its address
    downstream.  content_tokens holds the same Token objects as all_tokens
    minus stopwords, the tokens whose normalized form is in `stopwords`, so
    indices stay comparable across the two views.

    Each distinct surface is normalized, and each distinct normalized form
    stemmed, once per `forms`; without one, a fresh one serves this passage
    alone.
    """
    if forms is None:
        forms = Forms()
    out = []
    for sentence in split_sentences(unicodedata.normalize("NFC", text)):
        all_tokens = _make_tokens(sentence, forms)
        content = tuple(t for t in all_tokens if t.normalized not in stopwords)
        out.append(ProcessedSentence(all_tokens, content))
    return out
