"""External knowledge stores: lexical database, IC tables, word vectors.

Each store loads once from its standard on-disk format, and no query
changes it afterwards, so stores can be shared freely across threads and
reused for any number of queries.  KnowledgeStores bundles whichever
stores a run has configured; the semantic engine degrades gracefully when
one is absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .lexdb import (
    LexicalStore,
    MalformedLine,
    MissingFile,
    Synset,
    SynsetId,
    UnknownSynset,
    load_lexdb,
    resnik,
    subsumer_ics,
    synonyms,
)
from .ic import ICTable, load_ic
from .embeddings import (
    DimMismatch,
    EmbeddingStore,
    HeaderMismatch,
    TruncatedVector,
    cosine,
    load_embeddings,
)

__all__ = [
    "LexicalStore",
    "Synset",
    "SynsetId",
    "ICTable",
    "EmbeddingStore",
    "KnowledgeStores",
    "MissingFile",
    "MalformedLine",
    "UnknownSynset",
    "HeaderMismatch",
    "TruncatedVector",
    "DimMismatch",
    "load_lexdb",
    "load_ic",
    "load_embeddings",
    "synonyms",
    "subsumer_ics",
    "resnik",
    "cosine",
]


@dataclass(frozen=True)
class KnowledgeStores:
    """The optional external resources a scoring run can draw on."""

    lexdb: Optional[LexicalStore] = None
    ic: Optional[ICTable] = None
    embeddings: Optional[EmbeddingStore] = None
