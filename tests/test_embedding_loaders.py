"""The matrix embedding loaders against the per-word reference loaders.

Generated text and binary files, valid or cut short, are loaded by
`load_embeddings` and by the reference loaders in `embedding_oracle`.
Both must keep the same words with the same float32 bits, resolve lookups
by normalized form (case and diacritics folded) to the same vectors, and on a bad file raise the same
error class with the same message and named word.  The binary loader's
read block is shrunk to a few bytes, so entries straddle reads.  A second
load of each good file comes from the cache the first load wrote, and must
give the same store; a bad file leaves no cache.
"""

from __future__ import annotations

import itertools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraplag.errors import ParaplagError
from paraplag.resources import embeddings, load_embeddings

import embedding_oracle

# Cased and non-ASCII words: "İ" and "ß" change length when case-folded,
# "é", "e" and "İx", "ix" share a normalized form,
# "\xa0" and "\x85" are whitespace to str.split but not to the binary format.
WORDS = st.one_of(
    st.sampled_from(["paris", "Paris", "PARIS", "é", "É", "e", "straße", "STRASSE", "İx", "ix", "σς"]),
    st.text(st.sampled_from("aAzéÉΩω\xa0\x85\t€\U0001f600"), min_size=1, max_size=4),
)
# Components as the text format spells them: float64 reprs (rounded once
# to float32 on load) and tokens float() reads, or does not.  The long one
# reads as 1.0 through float64 but rounds up if parsed straight to float32.
TEXT_VALUES = st.one_of(
    st.floats(width=64).map(repr),
    st.floats(width=32).map(lambda x: f"{x:.6f}"),
    st.sampled_from(["1_0", "-inf", "nan", "1e999", "1e-46", "3.4028235677973366e38",
                     "1.00000005960464477539062500001", "+.5", "١٢", "0x1p3", "--1"]),
)
# Most files are whole; the rest are cut at a share of their length.
CUT = st.one_of(st.none(), st.none(), st.floats(0, 1, exclude_max=True))
# Mostly the right value: a wrong header count, a repeated entry, or bytes
# after the last vector each fail the whole file.
COUNT_FIX = st.sampled_from([0] * 6 + [-1, 1])
REPEAT = st.sampled_from([False] * 5 + [True])


def _entries(entry):
    """Entries with distinct words, and maybe the first one repeated at the end."""
    return st.tuples(st.lists(entry, max_size=6, unique_by=lambda e: e[0]), REPEAT).map(
        lambda drawn: drawn[0] + drawn[0][:1] if drawn[1] else drawn[0]
    )


def _cut(data: bytes, cut) -> bytes:
    return data if cut is None else data[:int(cut * len(data))]


def _outcome(load, path):
    """What loading `path` gives: vectors and dim, or the error's class, word and message."""
    try:
        with np.errstate(over="ignore"):
            return load(path)
    except ParaplagError as exc:
        return type(exc), getattr(exc, "word", None), str(exc)


def _assert_matches(store, vectors: dict, dim: int):
    """`store` holds `vectors` and resolves every casing and the normalized form
    of their words as the oracle does."""
    assert store.dim == dim and len(store) == len(vectors)
    assert store.matrix.shape == (len(vectors), dim) and store.matrix.dtype == np.float32
    for word, vec in vectors.items():
        assert word in store
        assert store.lookup_folded(word).tobytes() == vec.tobytes()
    for word in embedding_oracle.probes(vectors):
        want = embedding_oracle.lookup_folded(vectors, word)
        got = store.lookup_folded(word)
        assert (got is None) == (want is None), word
        assert got is None or got.tobytes() == want.tobytes()


def _assert_same(path: Path, fmt: str):
    """The first load parses `path` as the oracle does; a second load, from
    the cache the first one wrote, gives the same store without parsing."""
    oracle = {"text": embedding_oracle.load_text, "binary": embedding_oracle.load_binary}[fmt]
    expected = _outcome(oracle, str(path))
    store = _outcome(lambda p: load_embeddings(p, fmt), path)
    cache = Path(f"{path}{embeddings.CACHE_SUFFIX}")
    if not isinstance(expected[0], dict):
        assert store == expected
        assert not cache.exists()
        return
    vectors, dim = expected
    assert not isinstance(store, tuple), store
    with mock.patch.object(embeddings, f"_load_{fmt}", side_effect=AssertionError("parsed")):
        warm = load_embeddings(path, fmt)
    embedding_oracle.assert_same_store(warm, store, vectors)
    for loaded in (store, warm):
        _assert_matches(loaded, vectors, dim)


@settings(max_examples=300)
@given(
    entries=_entries(st.tuples(WORDS, st.lists(TEXT_VALUES, min_size=2, max_size=2))),
    spacer=st.sampled_from([" ", "  ", "\t", " \xa0"]),
    blank=st.sampled_from(["", "\n", "   \n", "\r\n"]),
    fix=COUNT_FIX,
    dim=st.sampled_from([2] * 6 + [1, 3]),
    cut=CUT,
)
def test_text_loader_matches_reference(entries, spacer, blank, fix, dim, cut):
    lines = [f"{max(0, len(entries) + fix)} {dim}\n"]
    for word, values in entries:
        lines.append(spacer.join([word, *values]) + "\n" + blank)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.txt"
        path.write_bytes(_cut("".join(lines).encode("utf-8"), cut))
        _assert_same(path, "text")


@settings(max_examples=300)
@given(
    entries=_entries(
        st.tuples(WORDS, st.lists(st.floats(width=32), min_size=3, max_size=3),
                  st.sampled_from([b"", b"\n", b"\n\n"]), st.booleans())
    ),
    fix=COUNT_FIX,
    trailer=st.sampled_from([b""] * 3 + [b"\n", b"\n" * 40, b"x", b"\n\n\x00"]),
    cut=CUT,
    block=st.integers(1, 64),
)
def test_binary_loader_matches_reference(entries, fix, trailer, cut, block):
    parts = [f"{max(0, len(entries) + fix)} 3\n".encode("ascii")]
    for word, values, before, bad_byte in entries:
        # a newline before or inside the word is dropped; a bad byte decodes to U+FFFD
        word_bytes = word.encode("utf-8") + (b"\xff" if bad_byte else b"")
        parts.append(before + word_bytes + b" " + np.array(values, dtype="<f4").tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.bin"
        path.write_bytes(_cut(b"".join(parts) + trailer, cut))
        with mock.patch.object(embeddings, "_READ_BLOCK", block):
            _assert_same(path, "binary")


@given(st.binary(max_size=80), st.sampled_from(["text", "binary"]), st.integers(1, 16))
def test_loaders_match_reference_on_arbitrary_bytes(body, fmt, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors"
        path.write_bytes(b"2 2\n" + body)
        with mock.patch.object(embeddings, "_READ_BLOCK", block):
            _assert_same(path, fmt)


@pytest.mark.parametrize("fmt", ["text", "binary"])
@pytest.mark.parametrize("order", list(itertools.permutations(["paris", "Paris", "PARIS"])))
def test_first_of_three_casings_wins(tmp_path, order, fmt):
    vectors = {word: np.full(2, row, dtype=np.float32) for row, word in enumerate(order)}
    vectors["other"] = np.zeros(2, dtype=np.float32)
    path = tmp_path / "vectors"
    if fmt == "text":
        path.write_text("".join([f"{len(vectors)} 2\n"] + [
            f"{word} {vec[0]} {vec[1]}\n" for word, vec in vectors.items()
        ]))
    else:
        path.write_bytes(b"".join([f"{len(vectors)} 2\n".encode("ascii")] + [
            word.encode("ascii") + b" " + vec.tobytes() for word, vec in vectors.items()
        ]))
    parsed = load_embeddings(path, fmt)
    with mock.patch.object(embeddings, f"_load_{fmt}", side_effect=AssertionError("parsed")):
        cached = load_embeddings(path, fmt)
    for store in (parsed, cached):
        _assert_matches(store, vectors, 2)
        assert store.lookup_folded("pArIs").tobytes() == vectors[order[0]].tobytes()
