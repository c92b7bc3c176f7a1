"""Word-vector store for the classic text and binary interchange formats.

Both formats share the header ``<word_count> <dimensions>``.  The text form
follows with one ``word v1 v2 ...`` line per word; the binary form packs
each entry as the ASCII word, a single space, then ``dimensions``
little-endian IEEE-754 float32 values (an optional trailing newline per
entry, as some writers emit, is tolerated).

Lookups are case-sensitive; ``lookup_folded`` adds an explicit
case-insensitive fallback (first stored casing wins) because large
pre-trained vocabularies mix cased and uncased entries.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

import numpy as np

from ..errors import ParaplagError
from .lexdb import MissingFile

__all__ = [
    "EmbeddingStore",
    "HeaderMismatch",
    "TruncatedVector",
    "DimMismatch",
    "load_embeddings",
    "cosine",
]


class HeaderMismatch(ParaplagError):
    """The declared word count or dimensionality disagrees with the data."""


class TruncatedVector(ParaplagError):
    """A vector entry ends before its declared component count."""

    def __init__(self, word: str, message: str = ""):
        self.word = word
        super().__init__(f"truncated vector for {word!r}" + (f": {message}" if message else ""))


class DimMismatch(ParaplagError):
    """Operands of a vector operation have different lengths."""


class EmbeddingStore:
    """Immutable word-to-vector map with an explicit case-folded fallback."""

    def __init__(self, vectors: dict[str, np.ndarray], dim: int):
        self.dim = dim
        self._vectors = vectors
        self._folded: dict[str, str] = {}
        for word in vectors:
            self._folded.setdefault(word.lower(), word)

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, word: str) -> bool:
        return word in self._vectors

    def lookup_folded(self, word: str) -> Optional[np.ndarray]:
        """Exact lookup, then the first stored case-insensitive match."""
        vec = self._vectors.get(word)
        if vec is not None:
            return vec
        alias = self._folded.get(word.lower())
        if alias is not None:
            return self._vectors[alias]
        return None


def _parse_header(first_line: str, path: str) -> tuple[int, int]:
    parts = first_line.split()
    if len(parts) != 2:
        raise HeaderMismatch(f"{path}: header must be '<count> <dim>', got {first_line!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise HeaderMismatch(f"{path}: non-integer header {first_line!r}") from None
    if count < 0 or dim <= 0:
        raise HeaderMismatch(f"{path}: implausible header values {count} {dim}")
    return count, dim


def _load_text(path: str) -> EmbeddingStore:
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = fh.readline().rstrip("\n")
        count, dim = _parse_header(header, path)
        vectors: dict[str, np.ndarray] = {}
        for raw in fh:
            fields = raw.split()
            if not fields:
                continue
            word = fields[0]
            if len(fields) - 1 != dim:
                raise TruncatedVector(word, f"expected {dim} components, found {len(fields) - 1}")
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float32)
            except ValueError as exc:
                raise TruncatedVector(word, str(exc)) from None
            if word in vectors:
                raise HeaderMismatch(f"{path}: word {word!r} is repeated")
            vectors[word] = vec
    if len(vectors) != count:
        raise HeaderMismatch(f"{path}: header declares {count} words, file holds {len(vectors)}")
    return EmbeddingStore(vectors, dim)


def _load_binary(path: str) -> EmbeddingStore:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        count, dim = _parse_header(header, path)
        vec_bytes = 4 * dim
        # checked before any read: a corrupt header must not size a huge buffer
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
                raise TruncatedVector(word, f"{len(payload)} of {vec_bytes} bytes")
            if word in vectors:
                raise HeaderMismatch(f"{path}: word {word!r} is repeated")
            vectors[word] = np.frombuffer(payload, dtype="<f4").copy()
        # only newlines may follow the last vector, however many there are
        while trailer := fh.read(1 << 16):
            if trailer.strip(b"\n"):
                raise HeaderMismatch(f"{path}: trailing data after {count} declared words")
    return EmbeddingStore(vectors, dim)


def load_embeddings(path, format: str = "text") -> EmbeddingStore:
    """Load word vectors from a text or binary file."""
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise MissingFile(f"embedding file not found: {path}")
    if format == "text":
        return _load_text(path)
    if format == "binary":
        return _load_binary(path)
    raise ValueError(f"unknown embedding format {format!r}")


def cosine(v1: Sequence[float], v2: Sequence[float]) -> float:
    """Cosine similarity of two equal-length vectors.

    Returns 0.0 when either vector is all zeros.  The norm is computed as
    ``sqrt(dot(a, a) * dot(b, b))`` so a vector compared against itself
    scores exactly 1.0.
    """
    a = np.asarray(v1, dtype=np.float64)
    b = np.asarray(v2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimMismatch(f"vector shapes differ: {a.shape} vs {b.shape}")
    dot = float(a @ b)
    na = float(a @ a)
    nb = float(b @ b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    value = dot / np.sqrt(na * nb)
    return float(min(1.0, max(-1.0, value)))
