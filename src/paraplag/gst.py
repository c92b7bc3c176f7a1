"""Greedy string tiling over characters: the verbatim-copy baseline.

Rounds of matching each mark the longest common substring whose
characters are still unmarked on both sides (ties: smallest suspect
offset, then smallest source offset), stopping below ``min_match``.
Adjacent tiles are merged, short tiles dropped, and the surviving
coverage of the suspect text becomes the containment score.

Matching is seeded by shared grams, as in Wise's Running-Karp-Rabin
Greedy-String-Tiling: every ``min_match``-gram of either text gets an
exact integer id, and a diagonal (suspect offset minus source offset) is
scanned only if the two texts share a gram on it.  Every run of
``min_match`` or more characters starts with such a gram, so no match is
lost, and on prose only a few percent of the m+n-1 diagonals are scanned.
The equality runs of the scanned diagonals go into a max-heap and are
re-checked lazily: a popped run that lost characters to newer marks is
split into its surviving pieces and pushed back.  Marks only ever shrink
runs, so the first fully-intact pop is the true round winner.

Memory is linear in text length: seeds (shared-gram position pairs) are
enumerated in blocks of at most ``_SEED_BLOCK``.  Time is not: repetitive
text shares grams on almost every diagonal and has up to m*n seeds, so
the worst case stays quadratic, hence the ``max_chars`` cap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ParaplagError, is_integer


# Most seeds (shared-gram position pairs) enumerated at once: repetitive
# text has up to m*n of them, and blocks keep the memory linear.
_SEED_BLOCK = 1 << 16


class EmptySuspect(ParaplagError):
    """Suspect text has no characters left after canonicalization."""


class InputTooLarge(ParaplagError):
    """Text length exceeds the configured matching cap."""


@dataclass(frozen=True)
class GstParams:
    min_match: int = 5
    min_tile: int = 10
    max_chars: int = 50_000

    def __post_init__(self):
        for name in ("min_match", "min_tile", "max_chars"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.min_match < 1:
            raise ValueError(f"min_match must be >= 1, got {self.min_match}")
        if self.min_tile < self.min_match:
            raise ValueError(
                f"min_tile ({self.min_tile}) must be >= min_match ({self.min_match})"
            )
        if self.max_chars < 1:
            raise ValueError(f"max_chars must be >= 1, got {self.max_chars}")


@dataclass(frozen=True)
class Tile:
    suspect_offset: int
    source_offset: int
    length: int


def canonicalize(text: str) -> str:
    """Lowercase with whitespace runs collapsed to single spaces."""
    return " ".join(text.lower().split())


def _codepoints(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le"), dtype="<u4")


def _true_runs(mask: np.ndarray, min_length: int) -> list[tuple[int, int]]:
    """(start, length) of each maximal True stretch at least min_length long."""
    padded = np.zeros(len(mask) + 2, dtype=bool)
    padded[1:-1] = mask
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = edges[::2], edges[1::2]
    long = ends - starts >= min_length
    return list(zip(starts[long].tolist(), (ends - starts)[long].tolist()))


def _seeded_diagonals(suspect: str, source: str, k: int) -> np.ndarray:
    """Ascending ``j - i`` of every diagonal where suspect[i:i+k] == source[j:j+k]."""
    m, n = len(suspect), len(source)
    ids: dict[str, int] = {}
    sus_ids = np.fromiter(
        (ids.setdefault(suspect[i : i + k], len(ids)) for i in range(m - k + 1)),
        dtype=np.int64,
        count=m - k + 1,
    )
    src_ids = np.fromiter(
        (ids.get(source[j : j + k], -1) for j in range(n - k + 1)),
        dtype=np.int64,
        count=n - k + 1,
    )
    order = np.argsort(src_ids, kind="stable")
    sorted_ids = src_ids[order]
    lo = np.searchsorted(sorted_ids, sus_ids, side="left")
    counts = np.searchsorted(sorted_ids, sus_ids, side="right") - lo
    rows = np.flatnonzero(counts)  # suspect positions that seed something
    lo, counts = lo[rows], counts[rows]
    ends = np.cumsum(counts)

    seeded = np.zeros(m + n - 1, dtype=bool)
    first = 0
    while first < len(rows):
        # Seeds of rows[first:last]: at most _SEED_BLOCK of them, unless one
        # suspect gram alone has more source positions than that.
        before = ends[first] - counts[first]
        last = int(np.searchsorted(ends, before + _SEED_BLOCK, side="right"))
        last = max(first + 1, last)
        block = counts[first:last]
        # a seed's index into `order` is its row's `lo` plus its rank in the
        # row, and its rank is its index in the block minus the row's start
        at = np.arange(ends[last - 1] - before)
        at += np.repeat(lo[first:last] - (ends[first:last] - block - before), block)
        # j - i + (m - 1): the seed's diagonal as an index into `seeded`
        slot = order[at]
        slot -= np.repeat(rows[first:last] - (m - 1), block)
        seeded[slot] = True
        first = last
    return np.flatnonzero(seeded) - (m - 1)


def tiling_matches(suspect: str, source: str, params: GstParams = GstParams()) -> list[Tile]:
    """Raw per-round matches, in marking order, before merge and discard."""
    if len(suspect) > params.max_chars or len(source) > params.max_chars:
        raise InputTooLarge(
            f"text of {max(len(suspect), len(source))} chars exceeds cap {params.max_chars}"
        )
    m, n = len(suspect), len(source)
    if min(m, n) < params.min_match:
        return []
    sus = _codepoints(suspect)
    src = _codepoints(source)

    heap: list[tuple[int, int, int]] = []
    for diag in _seeded_diagonals(suspect, source, params.min_match).tolist():
        sus_lo = max(0, -diag)
        src_lo = sus_lo + diag
        span = min(m - sus_lo, n - src_lo)
        eq = sus[sus_lo : sus_lo + span] == src[src_lo : src_lo + span]
        for start, length in _true_runs(eq, params.min_match):
            heapq.heappush(heap, (-length, sus_lo + start, src_lo + start))

    marked_sus = np.zeros(m, dtype=bool)
    marked_src = np.zeros(n, dtype=bool)
    matches: list[Tile] = []
    while heap:
        neg_length, a, b = heapq.heappop(heap)
        length = -neg_length
        blocked = marked_sus[a : a + length] | marked_src[b : b + length]
        if not blocked.any():
            matches.append(Tile(a, b, length))
            marked_sus[a : a + length] = True
            marked_src[b : b + length] = True
            continue
        for start, sub_length in _true_runs(~blocked, params.min_match):
            heapq.heappush(heap, (-sub_length, a + start, b + start))
    return matches


def merge_tiles(tiles: list[Tile]) -> list[Tile]:
    """Join tiles that sit back-to-back on both the suspect and source side."""
    ordered = sorted(tiles, key=lambda t: t.suspect_offset)
    merged: list[Tile] = []
    for tile in ordered:
        if merged:
            last = merged[-1]
            if (
                last.suspect_offset + last.length == tile.suspect_offset
                and last.source_offset + last.length == tile.source_offset
            ):
                merged[-1] = Tile(
                    last.suspect_offset, last.source_offset, last.length + tile.length
                )
                continue
        merged.append(tile)
    return merged


def gst_tiles(suspect: str, source: str, params: GstParams = GstParams()) -> list[Tile]:
    """Final tiles on pre-canonicalized text: matched, merged, length-filtered."""
    merged = merge_tiles(tiling_matches(suspect, source, params))
    return [t for t in merged if t.length >= params.min_tile]


def gst_containment(suspect: str, source: str, params: GstParams = GstParams()) -> float:
    """Fraction of the canonical suspect text covered by surviving tiles."""
    canon_sus = canonicalize(suspect)
    canon_src = canonicalize(source)
    if not canon_sus:
        raise EmptySuspect("suspect text is empty once canonicalized")
    tiles = gst_tiles(canon_sus, canon_src, params)
    return sum(t.length for t in tiles) / len(canon_sus)
