"""Classic Porter suffix-stripping stemmer.

Implements the original 1980 algorithm (steps 1a through 5b) without any of
the extensions later editions added.  Keeping the stemmer in-repo pins its
behaviour: preprocessing output must be reproducible bit for bit across
installs, which rules out depending on an external stemmer whose rules shift
between releases.

Porter states every condition on one consonant/vowel pattern,
[C](VC)^m[V]: the measure m, "contains a vowel", a double consonant ending
(*d) and a consonant-vowel-consonant ending (*o).  Each is read off the
word's C/V form, built in one linear pass with no recursion, so words of any
length stem without error.

Input is expected to be a lowercase word.  Words shorter than three letters
pass through unchanged, matching the reference C implementation.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _form(word: str) -> str:
    """The word's consonant/vowel pattern, "c" or "v" per letter.

    A y counts as a vowel when it follows a consonant ("syzygy" is "cvcvcv").
    """
    form = []
    kind = "v"  # a leading y is a consonant
    for ch in word:
        kind = "v" if ch in _VOWELS or (ch == "y" and kind == "c") else "c"
        form.append(kind)
    return "".join(form)


def _measure(stem: str) -> int:
    """m in [C](VC)^m[V]: the number of vowel-consonant transitions."""
    return _form(stem).count("vc")


def _contains_vowel(stem: str) -> bool:
    return "v" in _form(stem)


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _form(word).endswith("c")


def _ends_cvc(word: str) -> bool:
    # Final consonant-vowel-consonant, last consonant not w, x or y.
    return _form(word).endswith("cvc") and word[-1] not in "wxy"


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return word[:-1]
        return word
    removed = False
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
        removed = True
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
        removed = True
    if removed:
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if _ends_double_consonant(word) and word[-1] not in "lsz":
            return word[:-1]
        if _measure(word) == 1 and _ends_cvc(word):
            return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# Suffix tables for steps 2-4.  Within each table the first matching suffix
# wins, so longer suffixes that share a tail must come before shorter ones
# ("ization" before "ation", "ement" before "ment" before "ent").
_STEP2 = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4 = (
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ion",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "al",
    "er",
    "ic",
    "ou",
)


def _replace_suffixes(word: str, table, min_measure: int) -> str:
    for suffix, replacement in table:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure:
                return stem + replacement
            return word
    return word


def _step2(word: str) -> str:
    return _replace_suffixes(word, _STEP2, 0)


def _step3(word: str) -> str:
    return _replace_suffixes(word, _STEP3, 0)


def _step4(word: str) -> str:
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    return word
                return stem
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


def porter_stem(word: str) -> str:
    """Stem a lowercase word with the classic Porter algorithm.

    >>> porter_stem("cats")
    'cat'
    >>> porter_stem("quickly")
    'quickli'
    """
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _step2(word)
    word = _step3(word)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
