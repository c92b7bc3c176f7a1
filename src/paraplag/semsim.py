"""Semantic similarity: word-substitution detection between sentences.

Each content word of the suspect sentence is matched against the source
sentence's remaining content words through a cascade of channels, tried
in a fixed order:

  exact      stem equality
  synonym    stem equality with a word of the query word's synonym set
  embedding  best cosine between the query's synonym vectors (or the
             query's own vector when it has no synonyms) and a source
             word vector, kept when it reaches ``embed_min``
  resnik     information content of the most informative shared
             subsumer, kept when it reaches ``resnik_min``

The first channel that fires wins and consumes the matched source word,
so one source word never accounts for two query words.  The sentence
score is the fraction of query words that found a match: containment in
the suspect direction, not a symmetric similarity.

Everything the cascade asks the stores about one word (its synonyms'
stems, its embedding rows, its subsumers ranked by IC) depends on the word
alone, so a run's `Vocabulary` asks once per word, for suspect and source
words alike, and keeps the answers with the stores until the run ends.

Which channel fires between a suspect word and each source word is
decided once per source passage, in `PairTables`: `classify.score_source`
shares a source's table among every suspect passage compared with it.  The
table indexes its source in one pass when it is built, and keys every word
by its normalized form, of which the stem is a function.  It turns a
suspect word's verdicts into candidate lists, one per source sentence the
word can match in, each in the cascade's order; a source sentence is
addressed by its position in the passage.  Matching one sentence is one
greedy pass over those lists: each suspect word, in order, takes its first
candidate not yet consumed.  `best_sentence` keeps the first source
sentence with the most matches, and runs that pass only over the sentences
that can be it: a sentence no suspect word has a candidate in matches
nothing, and one cannot match more suspect words than have a candidate
there.  Every semantic match comes from `best_sentence`; `match_sentence`
is its one-sentence case.

`PairTables.judge` decides all four channels for a whole suspect passage
at once, and a word asked about alone goes through it too.  The embedding
channel is one einsum of the vectors of the words not judged yet against
the source vectors, in blocks of bounded size.  einsum sums every product
in one order whatever the operands' shapes, so a pair's score depends only
on its two words, not on the passage or the source around them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Optional

import numpy as np

from ._porter import porter_stem  # noqa: F401
from .errors import ParaplagError
# The embedding and Resnik values in `PairTables` follow `cosine`'s
# and `resnik`'s definitions; both stay importable from here with the other
# store queries, and so does the stemmer behind the run's `Forms`.
from .resources import KnowledgeStores, cosine, resnik, subsumer_ics, synonyms  # noqa: F401
from .textprep import Forms, ProcessedSentence, Token


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

# A source word some channel fires for: (its token index, channel, score).
Candidate = tuple[int, str, float]


@dataclass(frozen=True)
class WordMatch:
    query_index: int
    source_index: int
    channel: str
    score: float


@dataclass(frozen=True, slots=True)
class WordFacts:
    """What the stores say about one word as a query, whatever it is compared with."""

    # the distinct stems of its lexdb headword's synonyms
    synonym_stems: tuple[str, ...]
    # embedding rows of its sorted synonyms or, with none, of the word itself
    rows: tuple[int, ...]


class Vocabulary:
    """One scoring run's per-word memos, built over the run's stores.

    `forms` holds each token surface's (normalized, stem), filled by
    `textprep.preprocess_passage`, and each word's stem.  `word` maps a
    normalized form to its `WordFacts` as a query, `subsumers` to its
    subsumers ranked by IC, which source words need too, and `row` a word to
    its embedding row, which both need.  So each distinct word costs at most
    one `synonyms`, one `subsumer_ics` and one embedding row lookup a run,
    however many passages it appears in, on either side.  The memos are
    bounded by the run's vocabulary and go with the object.
    """

    def __init__(self, stores: KnowledgeStores):
        self.stores = stores
        self.forms = Forms()
        self._words: dict[str, WordFacts] = {}
        self._subsumers: dict[str, tuple[tuple[tuple, float], ...]] = {}
        self._rows: dict[str, Optional[int]] = {}

    def word(self, normalized: str) -> WordFacts:
        """The facts of the word with this normalized form."""
        facts = self._words.get(normalized)
        if facts is None:
            lexdb, emb = self.stores.lexdb, self.stores.embeddings
            syns = []
            if lexdb is not None:
                syns = sorted(synonyms(lexdb, self._headword(normalized)))
            rows = () if emb is None else tuple(
                row for word in syns or [normalized] if (row := self.row(word)) is not None
            )
            facts = self._words[normalized] = WordFacts(
                tuple(dict.fromkeys(map(self.forms.stem, syns))), rows
            )
        return facts

    def row(self, word: str) -> Optional[int]:
        """The word's row in the embedding store (`EmbeddingStore.row`), or None."""
        if word not in self._rows:
            self._rows[word] = self.stores.embeddings.row(word)
        return self._rows[word]

    def subsumers(self, normalized: str) -> tuple[tuple[tuple, float], ...]:
        """The word's `subsumer_ics` items, highest IC first; none without lexdb and IC."""
        ranked = self._subsumers.get(normalized)
        if ranked is None:
            lexdb, ic = self.stores.lexdb, self.stores.ic
            ics = {}
            if lexdb is not None and ic is not None:
                ics = subsumer_ics(lexdb, ic, self._headword(normalized))
            ranked = self._subsumers[normalized] = tuple(
                sorted(ics.items(), key=itemgetter(1), reverse=True)
            )
        return ranked

    def _headword(self, normalized: str) -> str:
        """A word's lexdb headword: its normalized form if the lexdb knows it, else its stem."""
        known = self.stores.lexdb.synsets_of(normalized)
        return normalized if known else self.forms.stem(normalized)


# Most (stacked query rows x source words) cells one embedding block computes.
_BLOCK_ELEMENTS = 1 << 16


class PairTables:
    """Candidate source words for the cascade against one source passage, each computed once.

    One index of the source's sentences, which it keeps as `sentences`,
    built in one pass over their content words: normalized form -> its
    (sentence position, token index) occurrences, and stem -> the forms
    sharing it, each in first-appearance order.  A sentence's position is
    its index in `sentences`.  Every suspect passage scored against that
    source can share the table.  A token's stem is a function of its
    normalized form, so the normalized form is the one key of a word.

    Per-word facts, for suspect and source words alike, come from the run's
    `vocab`; the table keeps only what depends on its source.  `judge` is
    where every verdict is made.  A suspect word's verdict maps every source
    form that some channel fires for to (channel rank, -score), the earliest
    channel winning:

      exact      the forms sharing the query's stem
      synonym    the forms sharing a synonym's stem
      embedding  best cosines of at least `embed_min`: one einsum per block
                 of the judged words' vectors against every source vector,
                 so a pair's score depends only on its two words
      resnik     the IC of the most informative shared subsumer, when at
                 least `resnik_min`, from the query's ranked subsumers in a
                 subsumer -> forms index; only with both the lexdb and IC table

    A word's candidates are the occurrences of those forms grouped by
    sentence position and sorted by (channel rank, -score, position): the
    cascade's tie rule of earliest channel, then highest score, then first
    in the sentence.  `judge` fills them for a whole suspect passage at
    once, and `candidates` reads them, judging a word alone the first time
    it is asked about one not judged yet.  `thresholds` are fixed for the
    run, so a table serves only matches made with them.
    """

    def __init__(
        self,
        sentences: Iterable[ProcessedSentence],
        vocab: Vocabulary,
        thresholds: SemThresholds,
    ):
        self.vocab = vocab
        self.thresholds = thresholds
        self.sentences = tuple(sentences)
        self._occurrences: dict[str, list[tuple[int, int]]] = {}
        self._forms_by_stem: dict[str, list[str]] = {}
        for pos, sr in enumerate(self.sentences):
            for tok in sr.content_tokens:
                if tok.normalized not in self._occurrences:
                    self._forms_by_stem.setdefault(tok.stem, []).append(tok.normalized)
                self._occurrences.setdefault(tok.normalized, []).append((pos, tok.index))
        self._candidates: dict[str, dict[int, list[Candidate]]] = {}

    def candidates(self, query: Token) -> dict[int, list[Candidate]]:
        """Sentence position -> the query's candidates there, best first; only sentences with some.

        A query not judged yet is judged alone.  The memo hands the same
        dict and lists to every caller, which must not change them.
        """
        found = self._candidates.get(query.normalized)
        if found is None:
            self.judge((query,))
            found = self._candidates[query.normalized]
        return found

    def judge(self, queries: Iterable[Token]) -> None:
        """Fill the candidates of every query form not judged yet, in the cascade's order.

        The embedding channel comes first, for all those forms together: a
        form's best `cosine` per source word is the maximum over its
        embedding rows.  The rows of whole forms are stacked in blocks of at
        most `_BLOCK_ELEMENTS` (rows x source words), and each block is one
        einsum against the source vectors.  einsum sums each product in one
        order whatever the operands' shapes, so a pair's score depends only
        on its two words: a form judged with a whole passage gets the
        candidates it gets alone.  Without embedding rows, no numpy work is
        done.
        """
        pending = {q.normalized: q for q in queries if q.normalized not in self._candidates}
        rows = {form: r for form in pending if (r := self.vocab.word(form).rows)}
        embedded: dict[str, list[tuple[str, float]]] = {}
        if rows and self._source_vectors[0]:
            budget = max(1, _BLOCK_ELEMENTS // len(self._source_vectors[0]))
            block: list[str] = []
            stacked = 0
            for form, form_rows in rows.items():
                if block and stacked + len(form_rows) > budget:
                    embedded.update(self._embed_block(block, rows))
                    block, stacked = [], 0
                block.append(form)
                stacked += len(form_rows)
            embedded.update(self._embed_block(block, rows))
        by_stem = self._forms_by_stem
        for form, query in pending.items():
            verdict = dict.fromkeys(by_stem.get(query.stem, ()), (0, -1.0))
            for stem in self.vocab.word(form).synonym_stems:
                for source in by_stem.get(stem, ()):
                    verdict.setdefault(source, (1, -1.0))
            for source, value in embedded.get(form, ()):
                verdict.setdefault(source, (2, -value))
            # highest IC first: a source form's first entry is its best shared subsumer
            for key, value in self.vocab.subsumers(form):
                if value < self.thresholds.resnik_min:
                    break
                for source in self._forms_by_subsumer.get(key, ()):
                    verdict.setdefault(source, (3, -value))
            ranked: dict[int, list[tuple[int, float, int]]] = {}
            for source, (rank, neg) in verdict.items():
                for pos, index in self._occurrences[source]:
                    ranked.setdefault(pos, []).append((rank, neg, index))
            self._candidates[form] = {
                pos: [(index, CHANNELS[rank], -neg) for rank, neg, index in sorted(entries)]
                for pos, entries in ranked.items()
            }

    @cached_property
    def _source_vectors(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
        """Source words with a vector, their float64 vectors, squared norms and zero-norm mask."""
        rows = {
            word: row for word in self._occurrences if (row := self.vocab.row(word)) is not None
        }
        matrix = self.vocab.stores.embeddings.vectors(list(rows.values()))
        source_sq = np.einsum("ij,ij->i", matrix, matrix)
        return tuple(rows), matrix, source_sq, source_sq == 0.0

    def _embed_block(
        self, forms: list[str], rows: dict[str, tuple[int, ...]]
    ) -> dict[str, list[tuple[str, float]]]:
        """Form -> its (source form, best cosine) pairs of at least `embed_min`, for `forms`."""
        words, sources, source_sq, source_zero = self._source_vectors
        queries = self.vocab.stores.embeddings.vectors([r for form in forms for r in rows[form]])
        query_sq = np.einsum("ij,ij->i", queries, queries)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.einsum("kd,nd->kn", queries, sources) / np.sqrt(
                query_sq[:, None] * source_sq
            )
        # cosine's clamp, under which NaN becomes -1.0, then its zero-norm rule
        value = np.minimum(np.fmax(value, -1.0), 1.0)
        value[(query_sq == 0.0)[:, None] | source_zero] = 0.0
        starts = np.cumsum([0] + [len(rows[form]) for form in forms[:-1]])
        best = np.maximum.reduceat(value, starts, axis=0)
        found: dict[str, list[tuple[str, float]]] = {}
        hit_forms, hit_words = np.nonzero(best >= self.thresholds.embed_min)
        for i, j, score in zip(
            hit_forms.tolist(), hit_words.tolist(), best[hit_forms, hit_words].tolist()
        ):
            found.setdefault(forms[i], []).append((words[j], score))
        return found

    @cached_property
    def _forms_by_subsumer(self) -> dict[tuple, list[str]]:
        """Subsumer key -> the source forms it subsumes, for keys of at least `resnik_min`.

        A key's IC is the same whichever word holds it, so a key under
        `resnik_min` fires for no query.
        """
        resnik_min = self.thresholds.resnik_min
        forms: dict[tuple, list[str]] = {}
        for word in self._occurrences:
            for key, value in self.vocab.subsumers(word):
                if value < resnik_min:
                    break
                forms.setdefault(key, []).append(word)
        return forms


def _greedy(queries: Iterable[tuple[Token, list[Candidate]]]) -> list[WordMatch]:
    """Each query, in order, takes its first candidate that no earlier query took.

    The candidates of one form are one list, so a form's later queries
    resume where its earlier ones stopped: what they passed is taken.
    """
    taken: set[int] = set()
    unread: dict[str, Iterator[Candidate]] = {}
    matches = []
    for query, candidates in queries:
        for index, channel, score in unread.setdefault(query.normalized, iter(candidates)):
            if index not in taken:
                taken.add(index)
                matches.append(WordMatch(query.index, index, channel, score))
                break
    return matches


def match_sentence(
    sp: ProcessedSentence,
    sr: ProcessedSentence,
    stores: KnowledgeStores = KnowledgeStores(),
    thresholds: SemThresholds = SemThresholds(),
) -> list[WordMatch]:
    """Matches for every suspect content word, consuming words of the one source sentence.

    `best_sentence` over a table of `sr` alone, built with a fresh
    `Vocabulary` over `stores`.
    """
    return best_sentence(sp, PairTables([sr], Vocabulary(stores), thresholds))[1]


def best_sentence(sp: ProcessedSentence, tables: PairTables) -> tuple[int, list[WordMatch]]:
    """The position of the first of `tables.sentences` with the most matches for `sp`, and those.

    A sentence can match at most as many suspect words as have a candidate
    there, its bound, and one without candidates matches nothing; with no
    candidates at all the first sentence, position 0, wins with no matches.
    Sentences with candidates are matched in falling order of bound, then
    rising position, and a sentence is skipped when its bound is below the
    most matches so far, or equal to it at a later position than the
    best's: it could not replace the best.  Since the order only skips
    sentences that cannot win, the result is the full scan's, tie rule
    included.
    """
    touched: dict[int, list[tuple[Token, list[Candidate]]]] = {}
    for query in sp.content_tokens:
        for pos, candidates in tables.candidates(query).items():
            touched.setdefault(pos, []).append((query, candidates))
    best_pos, best = 0, []
    for pos in sorted(touched, key=lambda pos: (-len(touched[pos]), pos)):
        bound = len(touched[pos])
        if bound < len(best) or (bound == len(best) and pos > best_pos):
            break
        matches = _greedy(touched[pos])
        if len(matches) > len(best) or (len(matches) == len(best) and pos < best_pos):
            best_pos, best = pos, matches
    return best_pos, best


def semantic_similarity(
    sp: ProcessedSentence,
    sr: ProcessedSentence,
    stores: KnowledgeStores = KnowledgeStores(),
    thresholds: SemThresholds = SemThresholds(),
) -> float:
    """Fraction of suspect content words matched somewhere in the source."""
    if not sp.content_tokens:
        surfaces = " ".join(t.surface for t in sp.all_tokens)
        raise EmptySentence(f"no content words in sentence: {surfaces!r}")
    matches = match_sentence(sp, sr, stores, thresholds)
    return len(matches) / len(sp.content_tokens)
