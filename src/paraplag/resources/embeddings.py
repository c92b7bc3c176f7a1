"""Word-vector store for the classic text and binary interchange formats.

Both formats share the header ``<word_count> <dimensions>``.  The text form
follows with one ``word v1 v2 ...`` line per word; the binary form packs
each entry as the ASCII word, a single space, then ``dimensions``
little-endian IEEE-754 float32 values (an optional trailing newline per
entry, as some writers emit, is tolerated).

Both loaders write each vector straight into its row of one float32
matrix: the text loader as it parses each line, the binary loader from
blocks of `_READ_BLOCK` bytes.

A store is parsed once per content.  After a parse, `load_embeddings`
writes the matrix and the words in row order to a cache file beside the
store (`<store>.paraplag-cache`), keyed by the cache layout version, the
format and the SHA-256 of the store's bytes.  A later load whose key
matches opens the matrix memory-mapped, so processes loading one store
share its pages.  A cache that is missing, keyed otherwise or unreadable
in any way is ignored and the store parsed again; a cache that cannot be
written is not written.  Either way the vectors are the parse's float32
bits, and deleting the cache is always safe.

Lookups are exact; ``lookup_folded`` adds an explicit fallback by
normalized form (`textprep.normalize`: case and diacritics folded, as a
token's normalized form is; the first stored spelling wins) because large
pre-trained vocabularies mix cased and uncased, accented and unaccented
entries.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Sequence
from typing import Optional

import numpy as np

from ..errors import ParaplagError
from ..textprep import normalize
from .lexdb import MissingFile

__all__ = [
    "EmbeddingStore",
    "HeaderMismatch",
    "TruncatedVector",
    "DimMismatch",
    "load_embeddings",
    "cosine",
]

# Bytes the binary loader and the hash read at a time.
_READ_BLOCK = 1 << 20

# The cache beside a store is its path plus this suffix.  Its layout: the
# float32 matrix in .npy format, then the words in row order, each followed
# by "\n" (no word holds one: the text format splits on whitespace and the
# binary loader drops newlines), then `_seal`'s line, all UTF-8.  A change
# of layout bumps _CACHE_VERSION, so older caches read as misses.
CACHE_SUFFIX = ".paraplag-cache"
_CACHE_VERSION = 1


class HeaderMismatch(ParaplagError):
    """The declared word count or dimensionality disagrees with the data."""


class TruncatedVector(ParaplagError):
    """A vector entry ends before its declared component count.

    `where`, the store file and for a text store the line number, prefixes
    the message, as in every other loader error.
    """

    def __init__(self, word: str, message: str = "", where: str = ""):
        self.word = word
        super().__init__(
            (f"{where}: " if where else "")
            + f"truncated vector for {word!r}"
            + (f": {message}" if message else "")
        )


class DimMismatch(ParaplagError):
    """Operands of a vector operation have different lengths."""


class EmbeddingStore:
    """Read-only word vectors with an explicit fallback by normalized form.

    The vectors are the rows of one float32 ``(count, dim)`` matrix, in file
    order; a word -> row dict and a folded alias dict (normalized word ->
    row of its first stored spelling) find them.  The matrix is made read-only
    here, so every vector handed out is a read-only view of it.
    """

    def __init__(self, matrix: np.ndarray, rows: dict[str, int]):
        matrix.flags.writeable = False
        self.matrix = matrix
        self.dim = matrix.shape[1]
        self._rows = rows
        # built back to front, so the first stored spelling is written last
        self._folded = dict(zip(map(normalize, reversed(rows)), reversed(rows.values())))

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, word: str) -> bool:
        return word in self._rows

    def row(self, word: str) -> Optional[int]:
        """The matrix row `lookup_folded` reads for the word, or None."""
        row = self._rows.get(word)
        return self._folded.get(normalize(word)) if row is None else row

    def lookup_folded(self, word: str) -> Optional[np.ndarray]:
        """Exact lookup, then the first stored word of the same normalized form."""
        row = self.row(word)
        return None if row is None else self.matrix[row]

    def vectors(self, rows: Sequence[int]) -> np.ndarray:
        """The given matrix rows, in order, as float64 rows."""
        return self.matrix.take(rows, axis=0).astype(np.float64)


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
        # An entry takes at least 2 * dim + 1 bytes (word and components, each
        # one byte or more, and a separator between each two), so a header
        # declaring more than that cannot size the matrix past the file.
        size = os.fstat(fh.fileno()).st_size
        matrix = np.empty((min(count, size // (2 * dim + 1)), dim), dtype=np.float32)
        rows: dict[str, int] = {}
        for line_no, raw in enumerate(fh, start=2):
            fields = raw.split()
            if not fields:
                continue
            word = fields[0]
            if len(fields) - 1 != dim:
                raise TruncatedVector(word, f"expected {dim} components, found {len(fields) - 1}",
                                      f"{path}:{line_no}")
            try:
                # parsed as float64, then rounded once to float32
                values = [float(x) for x in fields[1:]]
            except ValueError as exc:
                raise TruncatedVector(word, str(exc), f"{path}:{line_no}") from None
            if word in rows:
                raise HeaderMismatch(f"{path}:{line_no}: word {word!r} is repeated")
            row = rows[word] = len(rows)
            if row < len(matrix):  # entries past the declared count are checked, not kept
                matrix[row] = values
    if len(rows) != count:
        raise HeaderMismatch(f"{path}: header declares {count} words, file holds {len(rows)}")
    return EmbeddingStore(matrix, rows)


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
        matrix = np.empty((count, dim), dtype="<f4")
        rows: dict[str, int] = {}
        # buf[pos:] is read and not yet consumed; an entry may straddle reads
        buf, pos = fh.read(_READ_BLOCK), 0
        with memoryview(matrix.view(np.uint8).reshape(-1)) as flat:
            for row in range(count):
                space = buf.find(b" ", pos)
                while space < 0:
                    more = fh.read(_READ_BLOCK)
                    if not more:
                        raise HeaderMismatch(
                            f"{path}: file ends after {row} of {count} declared words"
                        )
                    scanned = len(buf) - pos
                    buf, pos = buf[pos:] + more, 0
                    space = buf.find(b" ", scanned)
                # newlines are dropped wherever they fall, as before the next word
                word = buf[pos:space].replace(b"\n", b"").decode("utf-8", errors="replace")
                pos = space + 1
                while len(buf) - pos < vec_bytes:
                    more = fh.read(_READ_BLOCK)
                    if not more:
                        raise TruncatedVector(word, f"{len(buf) - pos} of {vec_bytes} bytes", path)
                    buf, pos = buf[pos:] + more, 0
                if word in rows:
                    raise HeaderMismatch(f"{path}: word {word!r} is repeated")
                rows[word] = row
                flat[row * vec_bytes:(row + 1) * vec_bytes] = buf[pos:pos + vec_bytes]
                pos += vec_bytes
        # only newlines may follow the last vector, however many there are
        trailer = buf[pos:]
        while True:
            if trailer.strip(b"\n"):
                raise HeaderMismatch(f"{path}: trailing data after {count} declared words")
            trailer = fh.read(_READ_BLOCK)
            if not trailer:
                break
    return EmbeddingStore(matrix, rows)


def _digest(path: str) -> str:
    import hashlib  # only runs that load a store pay for the import

    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_READ_BLOCK):
            sha.update(block)
    return sha.hexdigest()


def _seal(key: str, offset: int, shape: tuple) -> str:
    """The cache's last line: the key, then the matrix's offset and shape as
    written, so that a garbled .npy header which still parses is a miss."""
    return f"{key} {offset} {shape}"


def _read_cache(cache: str, key: str) -> Optional[EmbeddingStore]:
    """The store cached in `cache` under `key`, or None when it holds no such store."""
    try:
        # what np.load(cache, mmap_mode="r") calls for a .npy file, without
        # its sniffing for zip archives and pickles, which a garbled cache
        # could set off; an object dtype, which needs pickle, is refused
        matrix = np.lib.format.open_memmap(cache, mode="r")
        with open(cache, "rb") as fh:
            fh.seek(matrix.offset + matrix.nbytes)
            *words, seal = fh.read().decode("utf-8").split("\n")
    # On a cut or garbled .npy header numpy raises one of several classes
    # (ValueError, EOFError, tokenize.TokenError among them): any failure to
    # read the cache is a miss, and the caller parses the store instead.
    except Exception:
        return None
    if (seal != _seal(key, matrix.offset, matrix.shape) or matrix.dtype != np.float32
            or not matrix.flags.c_contiguous or len(words) != len(matrix)):
        return None
    rows = dict(zip(words, range(len(words))))
    if len(rows) != len(words):
        return None
    # a plain ndarray over the map: np.memmap's Python-level finalizer would
    # otherwise run for every row a lookup hands out
    return EmbeddingStore(np.asarray(matrix), rows)


def _write_cache(cache: str, key: str, store: EmbeddingStore) -> None:
    """Write `store` to `cache` under `key` atomically, or not at all."""
    tmp = f"{cache}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except OSError:  # an unwritable directory, or a writer with this pid
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, store.matrix, allow_pickle=False)
            seal = _seal(key, fh.tell() - store.matrix.nbytes, store.matrix.shape)
            fh.write("\n".join([*store._rows, seal]).encode("utf-8"))
        os.replace(tmp, cache)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def load_embeddings(path, format: str = "text") -> EmbeddingStore:
    """Load word vectors from a text or binary file, or from its cache.

    Only a parse fills the cache; see the module docstring.
    """
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise MissingFile(f"embedding file not found: {path}")
    if format not in ("text", "binary"):
        raise ValueError(f"unknown embedding format {format!r}")
    cache = path + CACHE_SUFFIX
    before = os.stat(path)
    key = f"paraplag-embedding-cache {_CACHE_VERSION} {format} sha256:{_digest(path)}"
    store = _read_cache(cache, key)
    if store is None:
        store = _load_text(path) if format == "text" else _load_binary(path)
        after = os.stat(path)
        # a store that changed while it was hashed or parsed may not match the key
        if (before.st_size, before.st_mtime_ns) == (after.st_size, after.st_mtime_ns):
            _write_cache(cache, key, store)
    return store


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
