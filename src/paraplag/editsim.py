"""Insert/delete similarity: word-level edit distance between sentences.

Distance counts unit-cost insertions, deletions, and replacements over
token lists (callers pass content-word stems).  Similarity normalizes by
the longer list so the value always lands in [0, 1].

A source passage's best similarity compares only the sentences that can
win, through its own index, `SourceStems`: postings from each stem to the
sentences holding it count c, the size of the multiset intersection of
each sentence's stems with the suspect's, in one pass.  An alignment keeps
at most c tokens unchanged and spends a step on every other position of
the longer list, so the distance is at least ``longer - c`` and the
similarity at most ``1 - (longer - c) / longer``.  Sentences are compared
in falling order of that bound until the bound cannot beat the best so
far, and a sentence sharing no stem, which scores exactly 0.0, is never
compared.  The bound is computed with the same float operations as the
similarity, so the result is the unpruned maximum bit for bit.

The distance is bit-parallel: Myers' bit-vector algorithm (Myers 1999, in
Hyyrö's 2001 formulation) keeps one column of the m x n dynamic program as
vertical +1/-1 delta bitmasks over the m pattern tokens and advances it
one text token at a time.  Python ints have no width limit, so one path
serves every length at O(n * ceil(m / w)) word operations, w being the
machine word.  The pattern's per-token position masks are built once per
suspect sentence, when a first source sentence is compared, and reused
against each sentence.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

Masks = dict[str, int]


def _pattern_masks(tokens: Sequence[str]) -> Masks:
    """Token -> bitmask with bit i set where tokens[i] is that token."""
    masks: Masks = {}
    bit = 1
    for token in tokens:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    return masks


def _masked_distance(masks: Masks, m: int, sr_tokens: Sequence[str]) -> int:
    """Edit distance between the m-token pattern behind masks and sr_tokens."""
    if m == 0:
        return len(sr_tokens)
    full = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = full, 0, m
    get = masks.get
    for token in sr_tokens:
        eq = get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # the carry-in of 1 is row 0's +1 per column: global distance
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


def word_edit_distance(sp_tokens: Sequence[str], sr_tokens: Sequence[str]) -> int:
    """Minimal number of insert/delete/replace steps turning sp into sr."""
    return _masked_distance(_pattern_masks(sp_tokens), len(sp_tokens), sr_tokens)


def insdel_similarity(sp_tokens: Sequence[str], sr_tokens: Sequence[str]) -> float:
    """1 - distance/max(len); both lists empty count as identical (1.0)."""
    longer = max(len(sp_tokens), len(sr_tokens))
    if longer == 0:
        return 1.0
    return 1.0 - word_edit_distance(sp_tokens, sr_tokens) / longer


class SourceStems:
    """A source passage's sentences' stems, and postings: stem -> {position: count}."""

    def __init__(self, sentences: Iterable[Sequence[str]]):
        self.stems = [list(stems) for stems in sentences]
        self._postings: dict[str, dict[int, int]] = {}
        for position, stems in enumerate(self.stems):
            for stem in stems:
                counts = self._postings.get(stem)
                if counts is None:
                    self._postings[stem] = {position: 1}
                else:
                    counts[position] = counts.get(position, 0) + 1

    def shared(self, stems: Sequence[str]) -> dict[int, int]:
        """Position -> size of the multiset intersection of `stems` with that sentence's.

        One pass over the postings of `stems`' distinct stems; sentences
        sharing no stem are left out.
        """
        wanted: dict[str, int] = {}
        for stem in stems:
            wanted[stem] = wanted.get(stem, 0) + 1
        shared: dict[int, int] = {}
        postings = self._postings
        for stem, k in wanted.items():
            counts = postings.get(stem)
            if counts is not None:
                for position, n in counts.items():
                    shared[position] = shared.get(position, 0) + (n if n < k else k)
        return shared

    def best(self, stems: Sequence[str]) -> float:
        """Largest `insdel_similarity` of `stems` against any of the source's sentences.

        Exactly the unpruned maximum, comparing only the sentences whose
        bound beats the best so far.  `stems` must be non-empty, and the
        source must hold a sentence.
        """
        m = len(stems)
        candidates = self.stems
        bounds = []
        for j, c in self.shared(stems).items():
            longer = max(m, len(candidates[j]))
            bounds.append((1.0 - (longer - c) / longer, longer, j))
        bounds.sort(reverse=True)
        masks = None
        best = 0.0
        for bound, longer, j in bounds:
            if bound <= best:
                break
            if masks is None:
                masks = _pattern_masks(stems)
            value = 1.0 - _masked_distance(masks, m, candidates[j]) / longer
            if value > best:
                best = value
        return best
