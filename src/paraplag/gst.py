"""Greedy string tiling over characters: the verbatim-copy baseline.

Rounds of matching each mark the longest common substring whose
characters are still unmarked on both sides (ties: smallest suspect
offset, then smallest source offset), stopping below ``min_tile``.  The
coverage of the suspect text by the marked tiles is the containment
score.  Tiling at ``min_tile`` alone scores what rounds down to any
shorter length, then merging adjacent tiles and dropping short ones,
would score:

- No merge can fire.  Two tiles back to back on both sides lie in one
  maximal equal run on one diagonal, and a piece of a run can end inside
  the run only at a character already marked.  Marks are permanent, so
  whichever of the two was laid second could not have been laid.
- Shorter tiles cannot change the longer ones.  The heap pops by length,
  and a pop only pushes shorter pieces, so every candidate of at least
  ``min_tile`` pops before any shorter one, whether or not those exist.

Matching is seeded by shared grams, as in Wise's Running-Karp-Rabin
Greedy-String-Tiling.  A `SourceGrams` index is built once per source:
its code points, its sorted alphabet, and the exact integer key of each
of its g-grams (g alphabet ranks read as a base-(|alphabet|+1) number,
g = ``min_tile`` unless such keys would overflow an int64), sorted.  A
suspect gram is keyed the same way, a character the source lacks taking
the rank |alphabet| so that it seeds nothing.  A maximal equal run of
``min_tile`` or more characters is exactly a maximal chain of seeds
(shared-gram position pairs) on one diagonal, so runs are read off the
seeds that start and end a chain, each test local to its seed, with no
diagonal scanned.  The runs go into a max-heap and are re-checked lazily
against two bitmasks of marked characters: a popped run that lost
characters to newer marks is split into its surviving pieces and pushed
back.  Marks only ever shrink runs, so the first fully-intact pop is the
true round winner.

Memory is linear in text length and chain count: seeds are enumerated in
blocks of at most ``_SEED_BLOCK``, and only chain ends are kept.  Time is
not: repetitive text has up to m*n seeds, so the worst case stays
quadratic, hence the ``max_chars`` cap.
"""

from __future__ import annotations

import heapq
import unicodedata
from dataclasses import dataclass

import numpy as np

from .errors import ParaplagError, is_integer


# Most seeds (shared-gram position pairs) enumerated at once: repetitive
# text has up to m*n of them, and blocks keep the memory linear.
_SEED_BLOCK = 1 << 16

_INT64_MAX = int(np.iinfo(np.int64).max)

# Past either end of a text: unlike each other and every code point, so a
# seed at a text's edge starts or ends its chain.
_SUSPECT_EDGE = 0x110000
_SOURCE_EDGE = 0x110001


class EmptySuspect(ParaplagError):
    """Suspect text has no characters left after canonicalization."""


class InputTooLarge(ParaplagError):
    """Text length exceeds the configured matching cap."""


@dataclass(frozen=True)
class GstParams:
    min_tile: int = 10
    max_chars: int = 50_000

    def __post_init__(self):
        for name in ("min_tile", "max_chars"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class Tile:
    suspect_offset: int
    source_offset: int
    length: int


def canonicalize(text: str) -> str:
    """Folded (NFKC) and lowercased, with whitespace runs collapsed to single spaces.

    Folding first makes canonically equivalent texts, and compatibility
    characters such as "ﬁ" and their plain forms, the same characters.
    Tiling has no sentence boundaries, so the whole text can be folded,
    where preprocessing folds per token.
    """
    return " ".join(unicodedata.normalize("NFKC", text).lower().split())


def _check_length(text: str, params: GstParams, given: str | None = None) -> None:
    """Reject `text` over the cap; `given` is the caller's text when `text` is its folded form."""
    if len(text) <= params.max_chars:
        return
    if given is None or len(given) == len(text):
        raise InputTooLarge(f"text of {len(text)} chars exceeds cap {params.max_chars}")
    raise InputTooLarge(
        f"text of {len(given)} chars is {len(text)} once folded, over cap {params.max_chars}"
    )


def _codepoints(text: str, edge: int) -> np.ndarray:
    """The text's code points as int64, with `edge` before and after them."""
    codes = np.empty(len(text) + 2, dtype=np.int64)
    codes[0] = codes[-1] = edge
    codes[1:-1] = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    return codes


def _gram_keys(ranks: np.ndarray, base: int, width: int) -> np.ndarray:
    """Key of each `width`-gram of ranks: its ranks read as a base-`base` number.

    Ranks are digits in [0, base), so every partial sum of a key's digits
    times their place values is at most the key, which is below
    base**width; the keys are exact while that fits an int64.
    """
    if len(ranks) < width:  # np.convolve would swap its operands
        return np.empty(0, dtype=np.int64)
    return np.convolve(ranks, base ** np.arange(width, dtype=np.int64), "valid")


def _set_bit_runs(bits: int, min_length: int):
    """(start, length) of each maximal run of set bits at least min_length long."""
    start = 0
    while bits:
        skip = (bits & -bits).bit_length() - 1
        bits >>= skip
        start += skip
        length = (bits ^ (bits + 1)).bit_length() - 1
        if length >= min_length:
            yield start, length
        bits >>= length
        start += length


class SourceGrams:
    """One source text's side of tiling, built once for any number of suspects.

    The text is matched as given; `source_grams` canonicalizes it first.
    A text longer than ``params.max_chars`` is rejected before any gram
    is keyed.
    """

    def __init__(self, text: str, params: GstParams = GstParams()):
        _check_length(text, params)
        self.params = params
        self.length = len(text)
        self.codes = _codepoints(text, _SOURCE_EDGE)
        # sorted distinct code points; np.unique (which imports numpy.ma) and
        # the default quicksort each raise a run's peak RSS by a few hundred KiB
        ordered = np.sort(self.codes[1:-1], kind="stable")
        distinct = np.ones(len(ordered), dtype=bool)
        distinct[1:] = ordered[1:] != ordered[:-1]
        self.alphabet = ordered[distinct]
        self.base = len(self.alphabet) + 1
        self.width = 1
        while self.width < params.min_tile and self.base ** (self.width + 1) <= _INT64_MAX:
            self.width += 1
        ranks = self.alphabet.searchsorted(self.codes[1:-1])
        keys = _gram_keys(ranks, self.base, self.width)
        self.positions = keys.argsort(kind="stable")
        self.keys = keys[self.positions]

    def _suspect_keys(self, sus: np.ndarray) -> np.ndarray:
        ranks = self.alphabet.searchsorted(sus)
        known = self.alphabet[np.minimum(ranks, len(self.alphabet) - 1)] == sus
        return _gram_keys(np.where(known, ranks, len(self.alphabet)), self.base, self.width)

    def _chain_ends(self, sus: np.ndarray) -> tuple[np.ndarray, ...]:
        """(i, j) of the seeds that start a chain, and of those that end one.

        Seed (i, j) has suspect[i:i+g] == source[j:j+g].  It starts a chain
        unless the characters before both positions are equal, and ends
        one unless the characters after both grams are equal.
        """
        g = self.width
        sus_keys = self._suspect_keys(sus[1:-1])
        lo = self.keys.searchsorted(sus_keys, side="left")
        counts = self.keys.searchsorted(sus_keys, side="right") - lo
        rows = np.flatnonzero(counts)  # suspect positions that seed something
        lo, counts = lo[rows], counts[rows]
        ends = counts.cumsum()

        found = []
        first = 0
        while first < len(rows):
            # Seeds of rows[first:last]: at most _SEED_BLOCK of them, unless one
            # suspect gram alone has more source positions than that.
            before = ends[first] - counts[first]
            last = int(ends.searchsorted(before + _SEED_BLOCK, side="right"))
            last = max(first + 1, last)
            block = counts[first:last]
            # a seed's index into `positions` is its row's `lo` plus its rank
            # in the row, and its rank is its index in the block minus the
            # row's start
            at = np.arange(ends[last - 1] - before)
            at += (lo[first:last] - (ends[first:last] - block - before)).repeat(block)
            j = self.positions[at]
            i = rows[first:last].repeat(block)
            # codes are shifted by the leading edge: codes[i] is text[i - 1]
            starts = sus[i] != self.codes[j]
            stops = sus[i + g + 1] != self.codes[j + g + 1]
            found.append((i[starts], j[starts], i[stops], j[stops]))
            first = last
        if not found:
            return (np.empty(0, dtype=np.int64),) * 4
        if len(found) == 1:  # every seed in one block, as on most pairs
            return found[0]
        return tuple(np.concatenate(column) for column in zip(*found))

    def runs(self, suspect: str) -> list[tuple[int, int, int]]:
        """(-length, suspect offset, source offset) of each maximal equal run.

        Only runs of at least ``min_tile`` characters are listed, ordered
        by diagonal (source offset minus suspect offset), then offset.
        """
        if min(len(suspect), self.length) < self.params.min_tile:
            return []
        sus = _codepoints(suspect, _SUSPECT_EDGE)
        start_i, start_j, stop_i, stop_j = self._chain_ends(sus)
        # chains on one diagonal are disjoint, so sorted by (diagonal, i)
        # the k-th start and the k-th end bound the same chain
        by_start = np.lexsort((start_i, start_j - start_i))
        by_stop = np.lexsort((stop_i, stop_j - stop_i))
        a, b = start_i[by_start], start_j[by_start]
        length = stop_i[by_stop] + self.width - a
        long = length >= self.params.min_tile
        return list(zip((-length[long]).tolist(), a[long].tolist(), b[long].tolist()))

    def matches(self, suspect: str) -> list[Tile]:
        """The tiles laid against `suspect`, in marking order.

        Each round's tile is at least ``min_tile`` characters long, and so
        is every surviving piece of a run that goes back on the heap.
        """
        _check_length(suspect, self.params)
        heap = self.runs(suspect)
        heapq.heapify(heap)
        marked_sus = marked_src = 0  # bit k set: character k is marked
        matches: list[Tile] = []
        while heap:
            neg_length, a, b = heapq.heappop(heap)
            length = -neg_length
            span = (1 << length) - 1
            free = ~((marked_sus >> a) | (marked_src >> b)) & span
            if free == span:
                matches.append(Tile(a, b, length))
                marked_sus |= span << a
                marked_src |= span << b
                continue
            for start, sub_length in _set_bit_runs(free, self.params.min_tile):
                heapq.heappush(heap, (-sub_length, a + start, b + start))
        return matches

    def containment(self, suspect: str) -> float:
        """Fraction of the canonical `suspect` covered by tiles."""
        canon_sus = canonicalize(suspect)
        if not canon_sus:
            raise EmptySuspect("suspect text is empty once canonicalized")
        _check_length(canon_sus, self.params, suspect)
        return sum(t.length for t in self.matches(canon_sus)) / len(canon_sus)


def source_grams(source: str, params: GstParams = GstParams()) -> SourceGrams:
    """The tiling index of the canonical form of `source`."""
    canon = canonicalize(source)
    _check_length(canon, params, source)
    return SourceGrams(canon, params)


def tiling_matches(suspect: str, source: str, params: GstParams = GstParams()) -> list[Tile]:
    """The tiles laid on pre-canonicalized text, in marking order."""
    return SourceGrams(source, params).matches(suspect)


def gst_containment(suspect: str, source: str, params: GstParams = GstParams()) -> float:
    """Fraction of the canonical suspect text covered by tiles."""
    return source_grams(source, params).containment(suspect)
