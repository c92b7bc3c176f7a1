"""Reference embedding loaders, and stores built from a dict of vectors.

`load_text` and `load_binary` read the two formats one entry, and the
binary words one byte, at a time into a dict of per-word float32 arrays,
raising the errors `paraplag.resources.load_embeddings` raises;
`lookup_folded` is the lookup by normalized form over such a dict.  They are the
oracles the store's matrix loaders and lookups are checked against.
`assert_same_store` compares two stores through their public lookups, on
`probes` of the stored words.
"""

from __future__ import annotations

import os

import numpy as np

from paraplag.resources import EmbeddingStore, HeaderMismatch, TruncatedVector
from paraplag.resources.embeddings import _parse_header
from paraplag.textprep import normalize


def embedding_store(vectors: dict, dim: int) -> EmbeddingStore:
    """A store holding `vectors` (word -> components), rows in dict order."""
    matrix = np.array(list(vectors.values()), dtype=np.float32).reshape(len(vectors), dim)
    return EmbeddingStore.from_words(matrix, vectors)


def probes(words) -> list[str]:
    """Each word, each of its casings, its normalized form, and a word none holds."""
    found: dict[str, None] = {}
    for word in words:
        found.update(dict.fromkeys([word, word.lower(), word.upper(), word.title(),
                                    word.casefold(), word.swapcase(), normalize(word)]))
    return [*found, "absent"]


def assert_same_store(got: EmbeddingStore, want: EmbeddingStore, words) -> None:
    """`got` holds `want`'s matrix bits and finds the same row for every probe of `words`."""
    assert len(got) == len(want)
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()
    for probe in probes(words):
        assert (got.row(probe), probe in got) == (want.row(probe), probe in want), probe


def lookup_folded(vectors: dict[str, np.ndarray], word: str):
    """The vector of `word`, else of the first stored word of its normalized form."""
    if word in vectors:
        return vectors[word]
    return next((vec for w, vec in vectors.items() if normalize(w) == normalize(word)), None)


def load_text(path: str) -> tuple[dict[str, np.ndarray], int]:
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        header = fh.readline().rstrip("\n")
        count, dim = _parse_header(header, path)
        vectors: dict[str, np.ndarray] = {}
        for line_no, raw in enumerate(fh, start=2):
            fields = raw.split()
            if not fields:
                continue
            word = fields[0]
            if len(fields) - 1 != dim:
                raise TruncatedVector(word, f"expected {dim} components, found {len(fields) - 1}",
                                      f"{path}:{line_no}")
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float32)
            except ValueError as exc:
                raise TruncatedVector(word, str(exc), f"{path}:{line_no}") from None
            if word in vectors:
                raise HeaderMismatch(f"{path}:{line_no}: word {word!r} is repeated")
            vectors[word] = vec
    if len(vectors) != count:
        raise HeaderMismatch(f"{path}: header declares {count} words, file holds {len(vectors)}")
    return vectors, dim


def load_binary(path: str) -> tuple[dict[str, np.ndarray], int]:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        count, dim = _parse_header(header, path)
        vec_bytes = 4 * dim
        size = os.path.getsize(path)
        if count * (vec_bytes + 1) > size:
            raise HeaderMismatch(
                f"{path}: header declares more data than the file holds "
                f"({count} vectors of {dim} floats in {size} bytes)"
            )
        vectors: dict[str, np.ndarray] = {}
        for _ in range(count):
            word_bytes = bytearray()
            while True:
                ch = fh.read(1)
                if not ch:
                    raise HeaderMismatch(
                        f"{path}: file ends after {len(vectors)} of {count} declared words"
                    )
                if ch == b" ":
                    break
                if ch != b"\n":  # tolerate newline before the next word
                    word_bytes.extend(ch)
            word = word_bytes.decode("utf-8", errors="replace")
            payload = fh.read(vec_bytes)
            if len(payload) != vec_bytes:
                raise TruncatedVector(word, f"{len(payload)} of {vec_bytes} bytes", path)
            if word in vectors:
                raise HeaderMismatch(f"{path}: word {word!r} is repeated")
            vectors[word] = np.frombuffer(payload, dtype="<f4").copy()
        while trailer := fh.read(1 << 16):
            if trailer.strip(b"\n"):
                raise HeaderMismatch(f"{path}: trailing data after {count} declared words")
    return vectors, dim
