"""Semantic similarity: word-substitution detection between sentences.

Each content word of the suspect sentence is matched against the source
sentence's remaining content words through a cascade of channels, tried
in a fixed order:

  exact      stem or normalized-form equality
  synonym    source word appears in the query word's synonym set
  embedding  best cosine between the query's synonym vectors (or the
             query's own vector when it has no synonyms) and a source
             word vector, kept when it reaches ``embed_min``
  resnik     information content of the most informative shared
             subsumer, kept when it reaches ``resnik_min``

The first channel that fires wins and consumes the matched source word,
so one source word never accounts for two query words.  The sentence
score is the fraction of query words that found a match: containment in
the suspect direction, not a symmetric similarity.

The per-word work behind the channels (synonym expansion, embedding
cosines, Resnik values) is done in `PairTables`, one per source passage:
`classify.score_batch` shares a source's table among every suspect
passage compared with it, so each suspect word is expanded, and gets its
rows, once per source, not once per sentence pair or per pair.  Matching
a sentence then reduces to lookups.

The table also knows each suspect word's reach: the source sentences in
which some channel could fire for it, by the same tests `match_word`
applies.  A sentence reached by c suspect words can yield at most c
matches, which lets `classify._score` skip source sentences that cannot
beat the best one found so far without changing which one wins.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._porter import porter_stem
from .errors import ParaplagError
# The cells of `PairTables.cosines` and `PairTables.resnik_values` follow
# `cosine`'s and `resnik`'s definitions; both stay importable from here with
# the other store queries.
from .resources import KnowledgeStores, cosine, resnik, synonyms  # noqa: F401
from .resources import max_shared_ic, subsumer_ics
from .textprep import ProcessedSentence, Token


class EmptySentence(ParaplagError):
    """Suspect sentence has no content words to score."""


@dataclass(frozen=True)
class SemThresholds:
    """Cut-offs for the two score-producing channels."""

    embed_min: float = 0.6
    resnik_min: float = 3.0

    def __post_init__(self):
        if not (math.isfinite(self.embed_min) and 0.0 <= self.embed_min <= 1.0):
            raise ValueError(f"embed_min must be in [0, 1], got {self.embed_min!r}")
        if not (math.isfinite(self.resnik_min) and self.resnik_min >= 0.0):
            raise ValueError(
                f"resnik_min must be finite and non-negative, got {self.resnik_min!r}"
            )


CHANNELS = ("exact", "synonym", "embedding", "resnik")


@dataclass(frozen=True)
class WordMatch:
    query_index: int
    source_index: int
    channel: str
    score: float


class PairTables:
    """Word lookups for the cascade against one source passage, each computed once.

    Built over the content words of the source's sentences, keyed by
    normalized form; every suspect passage scored against that source can
    share the table.  Per suspect word, keyed by (normalized, stem), the
    tables hold its synonyms and their stems, its best embedding cosine
    against every source word, from one float64 matmul, and its reach.  Per
    lexdb form, they hold its Resnik value against every source word, from
    the `subsumer_ics` maps of both forms, each source map built once.
    Entries are filled on first use, so a channel that never runs costs
    nothing.

    A word's reach is a bitmask over the source's sentence ids, built from
    two inverted indexes (normalized form -> sentences, stem -> sentences)
    that are made on the first `reach` call.  `thresholds` decide which
    embedding and Resnik cells count towards it; they are fixed for the
    run, so a table serves only matches made with the same thresholds.
    """

    def __init__(
        self,
        sentences: Iterable[ProcessedSentence],
        stores: KnowledgeStores,
        thresholds: SemThresholds,
    ):
        self.stores = stores
        self.thresholds = thresholds
        self._sentences = tuple(sentences)
        self._sources: dict[str, Token] = {}
        for sr in self._sentences:
            for tok in sr.content_tokens:
                self._sources.setdefault(tok.normalized, tok)
        self._forms: dict[tuple[str, str], str] = {}
        self._expansions: dict[tuple[str, str], tuple[set[str], set[str]]] = {}
        self._cosines: dict[tuple[str, str], dict[str, float]] = {}
        self._resnik_rows: dict[str, dict[str, float]] = {}
        self._reaches: dict[tuple[str, str], int] = {}

    def _per_query(self, memo: dict, query: Token, compute):
        key = (query.normalized, query.stem)
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = compute(query)
        return entry

    def form(self, token: Token) -> str:
        """The token's lexdb headword: its normalized form if known, else its stem."""
        key = (token.normalized, token.stem)
        form = self._forms.get(key)
        if form is None:
            known = self.stores.lexdb.synsets_of(token.normalized)
            form = self._forms[key] = token.normalized if known else token.stem
        return form

    def expansion(self, query: Token) -> tuple[set[str], set[str]]:
        """The query's synonyms and their stems; empty without a lexdb."""
        return self._per_query(self._expansions, query, self._expand)

    def _expand(self, query: Token) -> tuple[set[str], set[str]]:
        if self.stores.lexdb is None:
            return set(), set()
        syns = synonyms(self.stores.lexdb, self.form(query))
        return syns, {porter_stem(s) for s in syns}

    def cosines(self, query: Token) -> dict[str, float]:
        """Best cosine per source word over the query's vectors.

        The query's vectors are its synonyms' or, without synonyms, its own.
        Each cell is `cosine` of one query and one source vector; source
        words without a vector are absent, and so is everything when the
        query has no vector or no embeddings are loaded.
        """
        return self._per_query(self._cosines, query, self._best_cosines)

    @cached_property
    def _source_vectors(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """Source words with a vector, their float64 vectors and squared norms."""
        emb = self.stores.embeddings
        words, vecs = [], []
        for word in self._sources:
            vec = emb.lookup_folded(word)
            if vec is not None:
                words.append(word)
                vecs.append(vec)
        matrix = np.array(vecs, dtype=np.float64).reshape(len(vecs), emb.dim)
        return tuple(words), matrix, np.einsum("ij,ij->i", matrix, matrix)

    def _best_cosines(self, query: Token) -> dict[str, float]:
        emb = self.stores.embeddings
        if emb is None:
            return {}
        syns, _ = self.expansion(query)
        query_words = sorted(syns) if syns else [query.normalized]
        vecs = [vec for w in query_words if (vec := emb.lookup_folded(w)) is not None]
        words, sources, source_sq = self._source_vectors
        if not vecs or not words:
            return {}
        queries = np.array(vecs, dtype=np.float64)
        query_sq = np.einsum("ij,ij->i", queries, queries)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = (queries @ sources.T) / np.sqrt(np.outer(query_sq, source_sq))
        # cosine's clamp, under which NaN becomes -1.0, then its zero-norm rule
        value = np.minimum(np.fmax(value, -1.0), 1.0)
        value[np.logical_or.outer(query_sq == 0.0, source_sq == 0.0)] = 0.0
        return dict(zip(words, value.max(axis=0).tolist()))

    def resnik_values(self, query: Token) -> dict[str, float]:
        """`resnik` of the query's and each source word's lexdb forms.

        Needs both the lexdb and the IC table.  Source words scoring None
        are left out, so a query with no noun or verb sense gets no entries.
        """
        qform = self.form(query)
        row = self._resnik_rows.get(qform)
        if row is None:
            row = self._resnik_rows[qform] = {}
            query_ics = subsumer_ics(self.stores.lexdb, self.stores.ic, qform)
            if query_ics:
                for word, ics in self._source_ics:
                    value = max_shared_ic(query_ics, ics)
                    if value is not None:
                        row[word] = value
        return row

    def reach(self, query: Token) -> int:
        """Bitmask with bit i set when some channel could match the query in sentence i.

        A channel could match when it fires against at least one content
        word of the sentence: an equal stem or normalized form, a synonym
        form or stem, a cosine of at least `embed_min`, or, with both the
        lexdb and the IC table, a Resnik value of at least `resnik_min`.
        """
        return self._per_query(self._reaches, query, self._reach)

    @cached_property
    def _sentence_index(self) -> tuple[dict[str, int], dict[str, int]]:
        """Normalized form -> sentence mask and stem -> sentence mask."""
        by_form: dict[str, int] = {}
        by_stem: dict[str, int] = {}
        for sr in self._sentences:
            bit = 1 << sr.sentence_id
            for tok in sr.content_tokens:
                by_form[tok.normalized] = by_form.get(tok.normalized, 0) | bit
                by_stem[tok.stem] = by_stem.get(tok.stem, 0) | bit
        return by_form, by_stem

    def _reach(self, query: Token) -> int:
        by_form, by_stem = self._sentence_index
        mask = by_form.get(query.normalized, 0) | by_stem.get(query.stem, 0)
        syns, stemmed = self.expansion(query)
        for form in syns:
            mask |= by_form.get(form, 0)
        for stem in stemmed:
            mask |= by_stem.get(stem, 0)
        embed_min = self.thresholds.embed_min
        for form, value in self.cosines(query).items():
            if value >= embed_min:
                mask |= by_form[form]
        if self.stores.lexdb is not None and self.stores.ic is not None:
            resnik_min = self.thresholds.resnik_min
            for form, value in self.resnik_values(query).items():
                if value >= resnik_min:
                    mask |= by_form[form]
        return mask

    @cached_property
    def _source_ics(self) -> list[tuple[str, dict]]:
        """Source words whose lexdb form has a non-empty `subsumer_ics` map, with it."""
        out = []
        for word, tok in self._sources.items():
            ics = subsumer_ics(self.stores.lexdb, self.stores.ic, self.form(tok))
            if ics:
                out.append((word, ics))
        return out


def match_word(
    query: Token,
    source_remaining: Sequence[Token],
    tables: PairTables,
    thresholds: SemThresholds = SemThresholds(),
) -> WordMatch | None:
    """First match for one query word, or None when no channel fires.

    `tables` must cover every source word in `source_remaining` and be
    built on the stores to use.
    """
    for tok in source_remaining:
        if tok.stem == query.stem or tok.normalized == query.normalized:
            return WordMatch(query.index, tok.index, "exact", 1.0)

    syns, stemmed = tables.expansion(query)
    if syns:
        for tok in source_remaining:
            if tok.normalized in syns or tok.stem in stemmed:
                return WordMatch(query.index, tok.index, "synonym", 1.0)

    cosines = tables.cosines(query)
    if cosines:
        best_tok: Token | None = None
        best_score = 0.0
        for tok in source_remaining:
            score = cosines.get(tok.normalized)
            if score is None:
                continue
            if score >= thresholds.embed_min and (best_tok is None or score > best_score):
                best_tok, best_score = tok, score
        if best_tok is not None:
            return WordMatch(query.index, best_tok.index, "embedding", best_score)

    if tables.stores.lexdb is not None and tables.stores.ic is not None:
        values = tables.resnik_values(query)
        best_tok = None
        best_ic = 0.0
        for tok in source_remaining:
            value = values.get(tok.normalized)
            if value is None or value < thresholds.resnik_min:
                continue
            if best_tok is None or value > best_ic:
                best_tok, best_ic = tok, value
        if best_tok is not None:
            return WordMatch(query.index, best_tok.index, "resnik", best_ic)

    return None


def match_sentence(
    sp: ProcessedSentence,
    sr: ProcessedSentence,
    stores: KnowledgeStores = KnowledgeStores(),
    thresholds: SemThresholds = SemThresholds(),
    tables: PairTables | None = None,
) -> list[WordMatch]:
    """Matches for every suspect content word, consuming source words.

    `tables` is as for `match_word`; without it, one is built over the
    source sentence.
    """
    remaining = list(sr.content_tokens)
    if tables is None:
        tables = PairTables([sr], stores, thresholds)
    matches: list[WordMatch] = []
    for query in sp.content_tokens:
        found = match_word(query, remaining, tables, thresholds)
        if found is not None:
            matches.append(found)
            remaining = [t for t in remaining if t.index != found.source_index]
    return matches


def semantic_similarity(
    sp: ProcessedSentence,
    sr: ProcessedSentence,
    stores: KnowledgeStores = KnowledgeStores(),
    thresholds: SemThresholds = SemThresholds(),
) -> float:
    """Fraction of suspect content words matched somewhere in the source."""
    if not sp.content_tokens:
        raise EmptySentence(f"no content words in sentence: {sp.text!r}")
    matches = match_sentence(sp, sr, stores, thresholds)
    return len(matches) / len(sp.content_tokens)
