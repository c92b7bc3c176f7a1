"""Lexical database backed by WordNet 3.0 plain-text files.

Parses the standard ``index.<pos>`` / ``data.<pos>`` layout into an
immutable in-memory store.  Only the pieces the engine needs are kept:
synset lemma sets, sense ordering per lemma, and hypernym ('@') pointers.
All other pointer types are discarded at parse time.

A synset is identified by ``(byte_offset, pos_char)`` exactly as in the
source files, so identifiers line up with external information-content
tables keyed the same way.

The store is immutable after load and safe to share across threads; its
internal ancestor memo only ever holds values that any racing computation
would reproduce identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import MissingFile, ParaplagError

__all__ = [
    "SynsetId",
    "Synset",
    "LexicalStore",
    "MissingFile",
    "MalformedLine",
    "UnknownSynset",
    "load_lexdb",
    "synonyms",
    "subsumer_ics",
    "max_shared_ic",
    "resnik",
]

SynsetId = tuple[int, str]

_POS_FILES = (("noun", "n"), ("verb", "v"), ("adj", "a"), ("adv", "r"))

# Parts of speech with a hypernym hierarchy, the ones Resnik scores use.
_TAXONOMY_POS = ("n", "v")

# ss_type 's' (satellite adjective) lives in the adj data file; collapse it
# so identifiers match index references and IC table keys.
_SS_TYPE_MAP = {"n": "n", "v": "v", "a": "a", "s": "a", "r": "r"}


class MalformedLine(ParaplagError):
    """A data/index line does not parse under the expected layout."""

    def __init__(self, file: str, line_no: int, message: str = ""):
        self.file = file
        self.line_no = line_no
        detail = f"{file}:{line_no}"
        if message:
            detail += f": {message}"
        super().__init__(detail)


class UnknownSynset(ParaplagError):
    """A synset identifier is not present in the store."""


@dataclass(frozen=True)
class Synset:
    id: SynsetId
    lemmas: frozenset[str]
    hypernyms: tuple[SynsetId, ...]


def _strip_marker(word: str) -> str:
    # adjective syntactic markers: word(a), word(p), word(ip)
    if word.endswith(")") and "(" in word:
        word = word[: word.index("(")]
    return word


class LexicalStore:
    """Immutable lemma/synset store with hypernym navigation."""

    def __init__(
        self,
        synsets: dict[SynsetId, Synset],
        senses: dict[tuple[str, str], tuple[SynsetId, ...]],
    ):
        self._synsets = synsets
        self._senses = senses
        self._ancestor_memo: dict[SynsetId, frozenset[SynsetId]] = {}

    def synset(self, sid: SynsetId) -> Synset:
        try:
            return self._synsets[sid]
        except KeyError:
            raise UnknownSynset(f"no synset {sid!r}") from None

    def __contains__(self, sid: SynsetId) -> bool:
        return sid in self._synsets

    def synset_count(self, pos: str) -> int:
        return sum(1 for (_, p) in self._synsets if p == pos)

    def senses(self, word: str, pos: str) -> tuple[SynsetId, ...]:
        """Synset ids for a lemma in one part of speech, in sense order."""
        return self._senses.get((word, pos), ())

    def synsets_of(self, word: str) -> list[SynsetId]:
        """All synset ids containing the lemma, nouns first."""
        out: list[SynsetId] = []
        for _, pos in _POS_FILES:
            out.extend(self._senses.get((word, pos), ()))
        return out

    def hypernyms(self, sid: SynsetId) -> tuple[SynsetId, ...]:
        return self.synset(sid).hypernyms

    def ancestors(self, sid: SynsetId) -> frozenset[SynsetId]:
        """The synset itself plus every transitive hypernym.

        An explicit stack walks the pointers, so depth is not limited by
        recursion.  Only the synsets asked for are memoized, and a walk
        stops at any of them it meets: memoizing every synset passed on a
        chain of depth d would hold d * d / 2 entries.
        """
        memo = self._ancestor_memo
        cached = memo.get(sid)
        if cached is not None:
            return cached
        acc = {sid}
        stack = [self.synset(sid)]
        while stack:
            for h in stack.pop().hypernyms:
                if h in acc:
                    continue
                known = memo.get(h)
                if known is not None:
                    acc |= known
                else:
                    acc.add(h)
                    stack.append(self._synsets[h])
        result = frozenset(acc)
        memo[sid] = result
        return result


def _parse_data_line(line: str, pos: str, file: str, line_no: int) -> Synset:
    fields = line.split()
    if len(fields) < 4:
        raise MalformedLine(file, line_no, "too few fields")
    try:
        offset = int(fields[0])
        ss_type = _SS_TYPE_MAP[fields[2]]
        w_cnt = int(fields[3], 16)
    except (ValueError, KeyError) as exc:
        raise MalformedLine(file, line_no, str(exc)) from None
    cursor = 4
    lemmas = set()
    for _ in range(w_cnt):
        try:
            word = fields[cursor]
            int(fields[cursor + 1], 16)  # lex_id sanity check
        except (IndexError, ValueError) as exc:
            raise MalformedLine(file, line_no, str(exc)) from None
        lemmas.add(_strip_marker(word).lower())
        cursor += 2
    try:
        p_cnt = int(fields[cursor])
    except (IndexError, ValueError) as exc:
        raise MalformedLine(file, line_no, str(exc)) from None
    cursor += 1
    hypernyms = []
    for _ in range(p_cnt):
        try:
            symbol = fields[cursor]
            target_offset = int(fields[cursor + 1])
            target_pos = fields[cursor + 2]
            fields[cursor + 3]  # source/target word index; presence check only
        except (IndexError, ValueError) as exc:
            raise MalformedLine(file, line_no, str(exc)) from None
        if symbol in ("@", "@i"):
            hypernyms.append((target_offset, _SS_TYPE_MAP.get(target_pos, target_pos)))
        cursor += 4
    # anything after the pointers (verb frames) up to '|' is ignored
    return Synset(
        id=(offset, ss_type),
        lemmas=frozenset(lemmas),
        hypernyms=tuple(hypernyms),
    )


def _parse_index_line(
    line: str, pos: str, file: str, line_no: int
) -> tuple[str, tuple[SynsetId, ...]]:
    fields = line.split()
    if len(fields) < 5:
        raise MalformedLine(file, line_no, "too few fields")
    lemma = fields[0].lower()
    try:
        synset_cnt = int(fields[2])
        offsets = [int(x) for x in fields[-synset_cnt:]]
    except (ValueError, IndexError) as exc:
        raise MalformedLine(file, line_no, str(exc)) from None
    if synset_cnt <= 0 or len(offsets) != synset_cnt:
        raise MalformedLine(file, line_no, "bad synset count")
    return lemma, tuple((o, pos) for o in offsets)


def _iter_content_lines(path: str) -> Iterable[tuple[int, str]]:
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line_no, raw in enumerate(fh, start=1):
            # license header lines start with whitespace
            if not raw.strip() or raw.startswith(" "):
                continue
            yield line_no, raw.rstrip("\n")


def load_lexdb(path) -> LexicalStore:
    """Load a WordNet 3.0 format directory into a LexicalStore.

    At minimum ``index.noun`` and ``data.noun`` must be present; the verb,
    adjective and adverb files are loaded when they exist.  Every hypernym
    pointer and index sense reference must resolve to a parsed synset, and
    no synset may be its own transitive hypernym.
    """
    path = os.fspath(path)
    if not os.path.isdir(path):
        raise MissingFile(f"lexical database directory not found: {path}")
    noun_index = os.path.join(path, "index.noun")
    noun_data = os.path.join(path, "data.noun")
    if not (os.path.isfile(noun_index) and os.path.isfile(noun_data)):
        raise MissingFile(f"no index.noun/data.noun pair in {path}")

    synsets: dict[SynsetId, Synset] = {}
    origin: dict[SynsetId, tuple[str, int]] = {}
    senses: dict[tuple[str, str], tuple[SynsetId, ...]] = {}
    index_origin: list[tuple[str, int, str, tuple[SynsetId, ...]]] = []

    for pos_name, pos in _POS_FILES:
        data_file = os.path.join(path, f"data.{pos_name}")
        index_file = os.path.join(path, f"index.{pos_name}")
        if not (os.path.isfile(data_file) and os.path.isfile(index_file)):
            continue
        for line_no, line in _iter_content_lines(data_file):
            synset = _parse_data_line(line, pos, data_file, line_no)
            if synset is not None:
                synsets[synset.id] = synset
                origin[synset.id] = (data_file, line_no)
        for line_no, line in _iter_content_lines(index_file):
            lemma, ids = _parse_index_line(line, pos, index_file, line_no)
            senses[(lemma, pos)] = ids
            index_origin.append((index_file, line_no, lemma, ids))

    for sid, synset in synsets.items():
        for hyp in synset.hypernyms:
            if hyp not in synsets:
                file, line_no = origin[sid]
                raise MalformedLine(
                    file, line_no, f"unresolved hypernym target {hyp!r}"
                )
    for file, line_no, lemma, ids in index_origin:
        for sid in ids:
            if sid not in synsets:
                raise MalformedLine(
                    file, line_no, f"index entry {lemma!r} references missing synset {sid!r}"
                )
    on_cycle = _synset_on_cycle(synsets)
    if on_cycle is not None:
        raise MalformedLine(*origin[on_cycle], f"hypernym cycle through synset {on_cycle!r}")

    return LexicalStore(synsets, senses)


def _synset_on_cycle(synsets: dict[SynsetId, Synset]) -> Optional[SynsetId]:
    """A synset on a hypernym cycle (a self-loop counts), or None if there is none.

    Depth-first over the resolved pointers, without recursion: a pointer
    back to a synset still on the path closes a cycle through it.
    """
    on_path: dict[SynsetId, bool] = {}  # True while on the path, False once done
    for root in synsets:
        if root in on_path:
            continue
        on_path[root] = True
        stack = [(root, iter(synsets[root].hypernyms))]
        while stack:
            sid, targets = stack[-1]
            for target in targets:
                if on_path.get(target):
                    return target
                if target not in on_path:
                    on_path[target] = True
                    stack.append((target, iter(synsets[target].hypernyms)))
                    break
            else:
                on_path[sid] = False
                stack.pop()
    return None


def synonyms(store: LexicalStore, word: str) -> set[str]:
    """Union of lemmas sharing a synset with the word, minus the word itself.

    Unknown words and words whose synsets hold no other lemma yield an
    empty set.  Multi-word lemmas keep their underscore form.
    """
    out: set[str] = set()
    for sid in store.synsets_of(word):
        out.update(store.synset(sid).lemmas)
    out.discard(word)
    return out


def subsumer_ics(store: LexicalStore, ic, word: str) -> dict[tuple[str, SynsetId], float]:
    """IC of every subsumer of the word's noun and verb senses that has one.

    A subsumer is a sense or any of its transitive hypernyms.  Entries are
    keyed by the part of speech of the sense they come from as well as the
    subsumer's id, so that only senses of one part of speech share a key,
    even where a hypernym pointer crosses parts of speech.  Words with no
    noun or verb sense get an empty map.
    """
    out: dict[tuple[str, SynsetId], float] = {}
    for pos in _TAXONOMY_POS:
        for sid in store.senses(word, pos):
            for subsumer in store.ancestors(sid):
                value = ic.get(subsumer)
                if value is not None:
                    out[(pos, subsumer)] = value
    return out


def max_shared_ic(ics1: dict, ics2: dict) -> Optional[float]:
    """The largest IC under a key both `subsumer_ics` maps hold, or None."""
    best: Optional[float] = None
    for key, value in ics1.items():
        if key in ics2 and (best is None or value > best):
            best = value
    return best


def resnik(store: LexicalStore, ic, w1: str, w2: str) -> Optional[float]:
    """Information content of the most informative shared subsumer.

    Only noun and verb senses take part, and a subsumer counts as shared
    only when it subsumes senses of both words in one part of speech.
    Returns None when either word is unknown in those parts of speech or
    no shared subsumer carries an IC value.
    """
    return max_shared_ic(subsumer_ics(store, ic, w1), subsumer_ics(store, ic, w2))
