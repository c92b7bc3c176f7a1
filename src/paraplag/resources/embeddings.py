"""Word-vector store for the classic text and binary interchange formats.

Both formats share the header ``<word_count> <dimensions>``.  The text form
follows with one ``word v1 v2 ...`` line per word; the binary form packs
each entry as the ASCII word, a single space, then ``dimensions``
little-endian IEEE-754 float32 values (an optional trailing newline per
entry, as some writers emit, is tolerated).  A text store may start with
a UTF-8 byte-order mark; the binary header is ASCII.

Both loaders write each vector straight into its row of one float32
matrix: the text loader as it parses each line, the binary loader from
blocks of `_READ_BLOCK` bytes.  Two `WordTable`s find the rows: one keyed
by word, and one of aliases, keyed by normalized form (`textprep.normalize`:
case and diacritics folded, as a token's normalized form is), holding the
row of the first stored spelling of each form that is not itself that
spelling.  A store whose words are all normalized has no aliases.

A store is parsed once per content.  After a parse, `load_embeddings`
writes the matrix and the tables to a cache file beside the store
(`<store>.paraplag-cache`), keyed by the cache layout version, the format
and the SHA-256 of the store's bytes.  A later load whose key matches maps
the whole file read-only and reads the matrix and the tables in place, so
it builds nothing per word, and processes loading one store share its
pages.  The cache's last line, its seal, holds the key, the matrix's shape,
the tables' sizes and the CRC-32 of their bytes.  A hit checks them all and
the tables' shape (`WordTable.is_sound`), so that every lookup in its tables
reads inside them and gives a row of the matrix or None, but not bytes
changed inside the matrix, nor tables changed together with their CRC-32.
A missing, otherwise keyed, short or garbled cache is ignored and the store
parsed again; one that cannot be written is not.  Either way the vectors
are the parse's float32 bits, every lookup finds the parse's row, and
deleting the cache is always safe.

Lookups are exact; ``lookup_folded`` adds an explicit fallback by
normalized form (the first stored spelling wins) because large
pre-trained vocabularies mix cased and uncased, accented and unaccented
entries.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import zlib
from bisect import bisect_left
from collections.abc import Iterable, Sequence
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
# Elements a vectorized check of a cached table reads at a time, so that its
# temporaries stay small however many words the store holds.
_CHECK_BLOCK = 1 << 16

# The cache beside a store is its path plus this suffix.  Its layout: the
# matrix's float32 values, row by row from byte 0; then the store's two
# `WordTable`s, each starting at a multiple of 8 bytes and laid out as its
# offsets (int64), row ids (int32), key CRC-32s (uint32) and key blob, all
# numbers little-endian; then zero bytes up to a multiple of 8, "\n" and
# `_seal`'s line, in ASCII.  A change of layout bumps _CACHE_VERSION, so older
# caches read as misses.
CACHE_SUFFIX = ".paraplag-cache"
_CACHE_VERSION = 4


def _aligned(at: int) -> int:
    return -(-at // 8) * 8


class WordTable:
    """A read-only map from words to matrix rows, held in four flat arrays.

    Key ``k``'s UTF-8 bytes are ``blob[offsets[k]:offsets[k + 1]]``, its row
    is ``rows[k]`` and its CRC-32 is ``hashes[k]``.  The keys are laid in
    order of rising CRC-32, keys of one CRC-32 in the order given, so `get`
    bisects `hashes` for the keys that share the word's CRC-32 and compares
    their bytes.  crc32 is the same in every process, unlike `hash`, so a
    table one process writes to the cache another reads in place.  A parse
    builds the table in memory with `build`; a cache hit maps it with `map`.
    Either way `get` reads it.
    """

    def __init__(self, offsets: np.ndarray, rows: np.ndarray, hashes: np.ndarray,
                 blob: np.ndarray):
        self.regions = (offsets, rows, hashes, blob)
        # memoryviews index to Python ints and slice to comparable bytes, far
        # faster per lookup than numpy scalars, and bisect reads them in C; a
        # native dtype is no copy
        self._offsets = memoryview(np.asarray(offsets, np.int64))
        self._rows = memoryview(np.asarray(rows, np.int32))
        self._hashes = memoryview(np.asarray(hashes, np.uint32))
        self._blob = memoryview(blob)

    @classmethod
    def build(cls, words: Iterable[str], rows: Iterable[int]) -> "WordTable":
        """The table of distinct `words`, each read as its row in `rows`."""
        keys = [word.encode() for word in words]
        hashes = np.fromiter(map(zlib.crc32, keys), "<u4", len(keys))
        # the order of a stable argsort, so that the cache's bytes are the same
        # for the same words, found far faster by sorting each CRC-32 packed
        # above its key's index
        order = np.sort(hashes.astype(np.uint64) << 32 | np.arange(len(keys), dtype=np.uint64))
        order &= 0xFFFFFFFF
        offsets = np.zeros(len(keys) + 1, "<i8")
        np.cumsum(np.fromiter(map(len, keys), np.int64, len(keys))[order], out=offsets[1:])
        return cls(offsets, np.fromiter(rows, "<i4", len(keys))[order], hashes[order],
                   np.frombuffer(b"".join([keys[k] for k in order.tolist()]), np.uint8))

    @classmethod
    def map(cls, buffer, at: int, keys: int, blob_bytes: int) -> tuple["WordTable", int]:
        """The table of `keys` keys in `blob_bytes` key bytes laid out in
        `buffer` from `at`, read in place, and the aligned end of its bytes."""
        regions = []
        for dtype, count in (("<i8", keys + 1), ("<i4", keys), ("<u4", keys),
                             (np.uint8, blob_bytes)):
            regions.append(np.frombuffer(buffer, dtype, count, at))
            at += regions[-1].nbytes
        return cls(*regions), _aligned(at)

    def __reduce__(self):
        # memoryviews do not pickle; the arrays do, by value
        return WordTable, self.regions

    def __len__(self) -> int:
        return len(self._rows)

    def get(self, word: str) -> Optional[int]:
        """The row of `word`, or None."""
        try:
            key = word.encode()
        except UnicodeEncodeError:  # a lone surrogate, which no decoded word holds
            return None
        hashes, offsets, blob = self._hashes, self._offsets, self._blob
        crc = zlib.crc32(key)
        k = bisect_left(hashes, crc)
        while k < len(hashes) and hashes[k] == crc:
            if blob[offsets[k]:offsets[k + 1]] == key:
                return self._rows[k]
            k += 1
        return None

    def is_sound(self, count: int) -> bool:
        """Whether every lookup reads inside the arrays and gives a row below
        `count` or None, and the bisection can find every key.

        Offsets rise from 0 to the blob's length, row ids lie in [0, count),
        and the CRC-32s never fall.  Each rise is checked vectorized over
        `_CHECK_BLOCK` elements at a time.
        """
        offsets, rows, hashes, blob = self.regions
        keys = len(rows)
        if offsets[0] != 0 or offsets[-1] != len(blob):
            return False
        if keys and not (0 <= rows.min() and rows.max() < count):
            return False
        for at in range(0, keys, _CHECK_BLOCK):
            for column in (offsets[at:at + _CHECK_BLOCK + 1], hashes[at:at + _CHECK_BLOCK + 1]):
                if (column[1:] < column[:-1]).any():
                    return False
        return True


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
    order; `exact`, a `WordTable` of every word, and `folded`, of the
    aliases, find them.  A word's row is its own, else the row of the first
    stored spelling of its normalized form: `folded` holds that row for each
    form whose first stored spelling is not the form itself, and `exact`
    holds it for every other stored form, because a normalized form
    normalizes to itself.  The matrix is made read-only here, so every
    vector handed out is a read-only view of it.
    """

    def __init__(self, matrix: np.ndarray, exact: WordTable, folded: WordTable):
        matrix.flags.writeable = False
        self.matrix = matrix
        self.dim = matrix.shape[1]
        self.exact = exact
        self.folded = folded

    @classmethod
    def from_words(cls, matrix: np.ndarray, words: Iterable[str]) -> "EmbeddingStore":
        """The store of `matrix` whose rows belong to the distinct `words`, in order."""
        words = list(words)
        first: dict[str, int] = {}
        for row, word in enumerate(words):
            first.setdefault(normalize(word), row)
        aliases = {form: row for form, row in first.items() if words[row] != form}
        return cls(matrix, WordTable.build(words, range(len(words))),
                   WordTable.build(aliases, aliases.values()))

    def __len__(self) -> int:
        return len(self.exact)

    def __contains__(self, word: str) -> bool:
        return self.exact.get(word) is not None

    def row(self, word: str) -> Optional[int]:
        """The matrix row `lookup_folded` reads for the word, or None."""
        row = self.exact.get(word)
        if row is not None:
            return row
        form = normalize(word)
        row = self.folded.get(form)
        # a word that is its own normalized form was just looked up
        return self.exact.get(form) if row is None and form != word else row

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
    # "utf-8-sig" drops one leading byte-order mark
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
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
    return EmbeddingStore.from_words(matrix, rows)


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
    return EmbeddingStore.from_words(matrix, rows)


def _digest(path: str) -> str:
    import hashlib  # only runs that load a store pay for the import

    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_READ_BLOCK):
            sha.update(block)
    return sha.hexdigest()


def _seal(key: str, count: int, dim: int, tables: Sequence[WordTable], crc: int) -> str:
    """The cache's last line: the key, the matrix's row count and dimension,
    each table's key count and blob length, then the CRC-32 of the tables'
    bytes."""
    sizes = " ".join(f"{len(table)} {len(table.regions[-1])}" for table in tables)  # blob last
    return f"{key} {count} {dim} {sizes} {crc}"


# The longest `_seal` line: a key of about 110 bytes, then a few numbers.
_SEAL_MAX = 512


def _read_cache(cache: str, key: str) -> Optional[EmbeddingStore]:
    """The store cached in `cache` under `key`, or None when it holds no such store."""
    try:
        with open(cache, "rb") as fh:
            buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        seal = buffer[-_SEAL_MAX:].rpartition(b"\n")[2].decode("ascii")
        count, dim, *sizes, _ = map(int, seal.removeprefix(f"{key} ").split(" "))
        # checked before any region is read: a count of -1 reads the whole buffer
        if len(sizes) != 4 or dim < 1 or min(count, *sizes) < 0:
            return None
        matrix = np.frombuffer(buffer, "<f4", count * dim).reshape(count, dim)
        start = at = _aligned(matrix.nbytes)
        tables = []
        for keys, blob_bytes in zip(sizes[::2], sizes[1::2]):
            table, at = WordTable.map(buffer, at, keys, blob_bytes)
            tables.append(table)
        crc = zlib.crc32(memoryview(buffer)[start:at])
    # a missing or empty file (mmap refuses one), a seal that is not ASCII
    # numbers after the key, or sizes past the file (ValueError) or past any
    # index (OverflowError): a miss, and the caller parses the store instead
    except (OSError, ValueError, OverflowError):
        return None
    if (seal != _seal(key, count, dim, tables, crc)
            or len(buffer) != at + 1 + len(seal) or len(tables[0]) != count
            or not all(table.is_sound(count) for table in tables)):
        return None
    return EmbeddingStore(matrix, *tables)


def _write_cache(cache: str, key: str, store: EmbeddingStore) -> None:
    """Write `store` to `cache` under `key` atomically, or not at all."""
    tmp = f"{cache}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except OSError:  # an unwritable directory, or a writer with this pid
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(store.matrix.astype("<f4", copy=False))
            tables = (store.exact, store.folded)
            fh.write(bytes(_aligned(fh.tell()) - fh.tell()))
            crc = 0
            for table in tables:
                for region in table.regions:
                    fh.write(region)
                    crc = zlib.crc32(region, crc)
                padding = bytes(_aligned(fh.tell()) - fh.tell())
                fh.write(padding)
                crc = zlib.crc32(padding, crc)
            fh.write(b"\n" + _seal(key, *store.matrix.shape, tables, crc).encode("ascii"))
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
